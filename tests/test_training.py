"""Training-loop tests: schedule exactness, pair accuracy recounts,
early stopping semantics, regularization direction, determinism, and
report serialization."""

import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import simnet_reference as reference
from qasim import simnet, training
from qasim.corpus import QAPair
from qasim.modelfile import FLOAT32_MAX
from qasim.simnet import Activation
from qasim.training import (
    SimTrainConfig,
    evaluate_pair_accuracy,
    lr_at_epoch,
    train_simnet,
)


def separable_fixture(n=120, d=8, scale=3.0, noise=0.1, seed=42):
    """Questions near a fixed direction; positive answers aligned with
    it, negative answers opposed: separable from the answer side."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=d)
    c /= np.linalg.norm(c)
    qf = scale * c + noise * rng.normal(size=(n, d))
    af = np.empty((n, d))
    labels = np.array([1, 0] * (n // 2))
    for i, y in enumerate(labels):
        af[i] = (scale if y else -scale) * c + noise * rng.normal(size=d)
    pairs = [QAPair(i, i, int(y)) for i, y in enumerate(labels)]
    return pairs, (qf, af)


class TestLrSchedule:
    def test_flat_before_decay_start(self):
        cfg = SimTrainConfig()
        for epoch in (0, 1, 250, 499):
            assert lr_at_epoch(cfg, epoch) == 0.0004

    def test_first_decay_step(self):
        cfg = SimTrainConfig()
        assert lr_at_epoch(cfg, 500) == 0.0004 * 0.95

    def test_closed_form_bit_exact(self):
        cfg = SimTrainConfig()
        for epoch in range(500, 650):
            expected = max(cfg.lr_floor,
                           cfg.lr0 * cfg.decay ** (epoch - cfg.decay_start_epoch + 1))
            assert lr_at_epoch(cfg, epoch) == expected

    def test_floor_binds_by_epoch_600(self):
        cfg = SimTrainConfig()
        # 0.0004 * 0.95**101 ~ 2.24e-6, below the 1e-5 floor
        assert lr_at_epoch(cfg, 600) == 1e-5

    def test_non_increasing_and_never_below_floor(self):
        cfg = SimTrainConfig(lr0=0.01, decay=0.8, decay_start_epoch=3, lr_floor=1e-4)
        rates = [lr_at_epoch(cfg, e) for e in range(60)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert all(r >= cfg.lr_floor for r in rates)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at_epoch(SimTrainConfig(), -1)


class TestConfigValidation:
    def test_dropout_range(self):
        with pytest.raises(ValueError):
            SimTrainConfig(dropout_p=1.0)

    def test_floor_below_lr0(self):
        with pytest.raises(ValueError):
            SimTrainConfig(lr0=1e-6, lr_floor=1e-5)

    def test_batch_size_positive(self):
        with pytest.raises(ValueError):
            SimTrainConfig(batch_size=0)

    @pytest.mark.parametrize("bad", [
        {"max_epochs": 0}, {"max_epochs": -3},
        {"lr0": -1.0, "lr_floor": -2.0},            # gradient ascent
        {"lr_floor": 0.0}, {"lr_floor": -1e-5},
        {"lam": -0.0005},
        {"init_std": 0.0}, {"init_std": -0.03},
        {"decay": 0.0}, {"decay": -0.5}, {"decay": 1.5},
        {"decay_start_epoch": -1},
    ])
    def test_bad_setting_rejected(self, bad):
        with pytest.raises(ValueError):
            SimTrainConfig(**bad)

    @pytest.mark.parametrize("field, value", [("init_std", 1e300), ("bias_const", 1e300),
                                              ("bias_const", -1e300)])
    def test_setting_past_float32_range_rejected(self, field, value):
        # a start past what a model file holds would diverge in epoch 0,
        # with advice to lower the learning rate
        with pytest.raises(ValueError, match=rf"^\|?{field}\|? must be <= 3.403e\+38, got"):
            SimTrainConfig(**{field: value})
        SimTrainConfig(**{field: math.copysign(FLOAT32_MAX, value)})

    def test_boundary_settings_accepted(self):
        SimTrainConfig(max_epochs=1, lam=0.0, decay=1.0, decay_start_epoch=0)


class TestEvaluatePairAccuracy:
    def test_zero_network_predicts_positive_on_ties(self):
        d = 4
        net = simnet.init_network(d, bias_const=0.0, seed=0)
        for param in net.values():
            param[...] = 0.0
        rng = np.random.default_rng(1)
        pairs = [QAPair(i, i, 1 if i < 3 else 0) for i in range(10)]
        feats = (rng.normal(size=(10, d)), rng.normal(size=(10, d)))
        # zero net scores exactly 0.5 -> predicted label 1 -> accuracy = p
        assert evaluate_pair_accuracy(net, pairs, feats) == pytest.approx(0.3)

    def test_empty_pairs_rejected(self):
        net = simnet.init_network(3, seed=0)
        with pytest.raises(ValueError):
            evaluate_pair_accuracy(net, [], (np.zeros((1, 3)), np.zeros((1, 3))))

    def test_matches_independent_recount_on_large_set(self):
        d = 6
        n = 60_000
        net = simnet.init_network(d, std=0.5, seed=3)
        rng = np.random.default_rng(2)
        qf = rng.normal(size=(n, d))
        af = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, size=n)
        pairs = [QAPair(i, i, int(y)) for i, y in enumerate(labels)]
        fast = evaluate_pair_accuracy(net, pairs, (qf, af))
        # labels are independent of the network, so accuracy sits near 0.5
        assert abs(fast - 0.5) < 6 * (0.25 / n) ** 0.5
        # exact recount on a prefix, one pair at a time through the scalar path
        exact = sum(
            (simnet.forward(net, qf[i], af[i]).y_prime[0] >= 0.5) == bool(labels[i])
            for i in range(2048)
        ) / 2048
        prefix = evaluate_pair_accuracy(net, pairs[:2048], (qf, af))
        assert prefix == pytest.approx(exact, abs=1e-12)

    def test_repeated_docs_match_scalar_recount(self):
        # many pairs share each doc: head terms are computed per unique doc
        # and gathered per pair, which must agree with scoring every pair
        d = 5
        net = simnet.init_network(d, std=0.5, seed=6)
        rng = np.random.default_rng(4)
        qf, af = rng.normal(size=(7, d)), rng.normal(size=(11, d))
        pairs = [QAPair(int(q), int(a), int(y)) for q, a, y in
                 zip(rng.integers(0, 7, 300), rng.integers(0, 11, 300),
                     rng.integers(0, 2, 300))]
        exact = np.mean([
            (simnet.forward(net, qf[p.question_doc], af[p.answer_doc]).y_prime[0] >= 0.5)
            == bool(p.label) for p in pairs])
        assert evaluate_pair_accuracy(net, pairs, (qf, af)) == pytest.approx(exact, abs=1e-12)

    def test_missing_doc_rejected(self):
        net = simnet.init_network(3, seed=0)
        with pytest.raises(ValueError, match="doc id 4"):
            evaluate_pair_accuracy(net, [QAPair(0, 4, 1)], (np.zeros((2, 3)), np.zeros((2, 3))))


class TestTrainSimnet:
    def overfit_config(self, **overrides):
        base = dict(batch_size=100, max_epochs=200, dropout_p=0.5, lam=0.0005,
                    lr0=0.01, early_stop_patience=200, seed=0)
        base.update(overrides)
        return SimTrainConfig(**base)

    def test_learns_separable_fixture(self):
        pairs, feats = separable_fixture()
        net, report = train_simnet(pairs, pairs, feats, self.overfit_config())
        assert max(e.train_acc for e in report.epochs) >= 0.99

    def test_deterministic(self):
        pairs, feats = separable_fixture(n=40)
        cfg = self.overfit_config(max_epochs=10, early_stop_patience=10)
        net1, report1 = train_simnet(pairs, pairs, feats, cfg)
        net2, report2 = train_simnet(pairs, pairs, feats, cfg)
        for name in net1:
            assert np.array_equal(net1[name], net2[name])
        assert report1.epochs == report2.epochs
        assert report1.best_epoch == report2.best_epoch

    def test_returned_parameters_match_best_epoch(self):
        pairs, feats = separable_fixture(n=60)
        cfg = self.overfit_config(max_epochs=40, early_stop_patience=40)
        net, report = train_simnet(pairs, pairs, feats, cfg)
        best_recorded = report.epochs[report.best_epoch].val_acc
        assert evaluate_pair_accuracy(net, pairs, feats) == pytest.approx(best_recorded)
        assert best_recorded == max(e.val_acc for e in report.epochs)

    def test_patience_zero_stops_on_first_non_improvement(self):
        pairs, feats = separable_fixture(n=40)
        cfg = self.overfit_config(max_epochs=500, early_stop_patience=0)
        net, report = train_simnet(pairs, pairs, feats, cfg)
        if report.stopping_reason == "early_stopping":
            # the last epoch is the single permitted non-improvement
            accs = [e.val_acc for e in report.epochs]
            assert accs[-1] <= max(accs[:-1])
            assert report.best_epoch < len(report.epochs)
        else:
            assert len(report.epochs) == cfg.max_epochs

    def test_report_lengths_consistent(self):
        pairs, feats = separable_fixture(n=40)
        cfg = self.overfit_config(max_epochs=30, early_stop_patience=5)
        _, report = train_simnet(pairs, pairs, feats, cfg)
        assert report.best_epoch < len(report.epochs)
        assert report.planned_epochs == 30
        assert report.stopping_reason in ("early_stopping", "max_epochs")
        epochs = [e.epoch for e in report.epochs]
        assert epochs == list(range(len(epochs)))

    def test_every_pair_used_once_per_epoch(self, monkeypatch):
        pairs, feats = separable_fixture(n=50)
        seen = []
        real = simnet.gradients

        def recording(net, f_q, f_a, y, *args):
            seen.append(len(y))
            assert f_q.shape == f_a.shape == (len(y), feats[0].shape[1])
            return real(net, f_q, f_a, y, *args)

        monkeypatch.setattr(training.simnet, "gradients", recording)
        cfg = self.overfit_config(batch_size=20, max_epochs=3,
                                  early_stop_patience=3)
        train_simnet(pairs, pairs, feats, cfg)
        # 3 epochs x ceil(50/20) batches; each epoch covers all 50 pairs
        assert seen == [20, 20, 10] * 3

    def test_features_checked_once_before_any_batch(self, monkeypatch):
        # a non-finite row stops training before its first gradient, even
        # when a later batch holds it; a width mismatch, in the first batch
        pairs, (qf, af) = separable_fixture(n=20)
        updates = []
        real = simnet.gradients

        def recording(net, f_q, f_a, y, *args):
            result = real(net, f_q, f_a, y, *args)
            updates.append(len(y))
            return result

        monkeypatch.setattr(training.simnet, "gradients", recording)
        cfg = self.overfit_config(batch_size=4)    # pair 5 is in the fourth batch
        bad = qf.copy()
        bad[5, 0] = np.nan
        with pytest.raises(ValueError, match="input features must be finite"):
            train_simnet(pairs, pairs, (bad, af), cfg)
        with pytest.raises(ValueError, match=r"feature shapes differ: \(4, 7\) vs \(4, 8\)"):
            train_simnet(pairs, pairs, (qf[:, :7], af), cfg)
        assert updates == []

    def test_no_generator_built_per_batch(self, monkeypatch):
        # each batch's masks come from the run's generator; a generator built
        # per batch would make the count grow with the epochs
        built, real = [], np.random.default_rng

        def recording(seed=None):
            rng = real(seed)
            if rng is not seed:
                built.append(seed)
            return rng

        monkeypatch.setattr(np.random, "default_rng", recording)
        pairs, feats = separable_fixture(n=50)
        counts = []
        for max_epochs in (1, 3):
            built.clear()
            train_simnet(pairs, pairs, feats, self.overfit_config(
                batch_size=10, max_epochs=max_epochs, early_stop_patience=3))
            counts.append(len(built))
        assert counts == [2, 2]        # the run's generator and `init_network`'s

    def test_peak_memory_follows_unique_docs_not_pairs(self):
        # 20,000 pairs over 40 docs a side at d 50: one per-pair copy of
        # both sides' rows would be 2 x 20,000 x 50 x 8 B = 16 MB
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(40, 50)), rng.normal(size=(40, 50))
        docs = rng.integers(0, 40, size=(20_000, 2))
        pairs = [QAPair(int(q), int(a), i % 2) for i, (q, a) in enumerate(docs)]
        tracemalloc.start()
        try:
            train_simnet(pairs, pairs[:100], feats, SimTrainConfig(max_epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, f"peak {peak / 1e6:.1f} MB"

    def test_non_finite_loss_raises(self):
        pairs, feats = separable_fixture(n=20)
        qf, af = feats
        # lr 1e6 multiplies w3 by ~-999 per step via the l2 term; the
        # reg component of the loss overflows within ~60 updates
        cfg = self.overfit_config(lr0=1e6, batch_size=5, max_epochs=100,
                                  early_stop_patience=100)
        with pytest.raises(RuntimeError):
            train_simnet(pairs, pairs, (qf * 1e3, af * 1e3), cfg)

    def test_weights_past_float32_range_raise(self):
        # finite in float64 but infinite in a model file; lam 0 keeps the
        # loss finite, so only the weights show the divergence
        pairs, feats = separable_fixture(n=20)
        cfg = self.overfit_config(lr0=1e42, lam=0.0, batch_size=5, max_epochs=3)
        with pytest.raises(RuntimeError, match="diverged at epoch 0"):
            train_simnet(pairs, pairs, feats, cfg)

    def test_regularization_monotonicity(self):
        pairs, feats = separable_fixture(n=80)
        small = self.overfit_config(lam=0.0005, max_epochs=150,
                                    early_stop_patience=150)
        large = self.overfit_config(lam=0.05, max_epochs=150,
                                    early_stop_patience=150)
        net_small, _ = train_simnet(pairs, pairs, feats, small)
        net_large, _ = train_simnet(pairs, pairs, feats, large)
        assert np.linalg.norm(net_large.w3) <= np.linalg.norm(net_small.w3)

    def test_empty_sets_rejected(self):
        pairs, feats = separable_fixture(n=20)
        with pytest.raises(ValueError):
            train_simnet([], pairs, feats, self.overfit_config())
        with pytest.raises(ValueError):
            train_simnet(pairs, [], feats, self.overfit_config())

    def test_missing_feature_rejected(self):
        pairs, _ = separable_fixture(n=20)
        short = (np.zeros((3, 8)), np.zeros((3, 8)))
        with pytest.raises(ValueError):
            train_simnet(pairs, pairs, short, self.overfit_config())

    def test_relu_activation_trains(self):
        pairs, feats = separable_fixture(n=60)
        cfg = self.overfit_config(max_epochs=100, early_stop_patience=100,
                                  lr0=0.05, init_std=0.1,
                                  activation=Activation.RELU)
        net, report = train_simnet(pairs, pairs, feats, cfg)
        assert net.activation is Activation.RELU
        assert max(e.train_acc for e in report.epochs) >= 0.9


class TestShortBatches:
    """The stacked step on a short last batch, and on one batch shorter than
    batch_size: the same network and report bytes as the two-pass reference."""

    @pytest.mark.parametrize("n, batch_size, activation, dropout_p", [
        (50, 20, Activation.TANH, 0.5),     # 20, 20, 10
        (30, 64, Activation.TANH, 0.5),     # one batch of 30
        (23, 8, Activation.RELU, 0.5),      # 8, 8, 7
        (50, 20, Activation.TANH, 0.0),     # no masks drawn or applied
    ], ids=["50-20-tanh", "30-64-tanh", "23-8-relu", "50-20-tanh-no-dropout"])
    def test_matches_two_pass_reference(self, n, batch_size, activation, dropout_p):
        pairs, feats = separable_fixture(n=n)
        cfg = SimTrainConfig(batch_size=batch_size, max_epochs=4, dropout_p=dropout_p, lam=0.001,
                             lr0=0.05, init_std=0.1, early_stop_patience=4,
                             activation=activation, seed=3)
        net, report = train_simnet(pairs, pairs[: n // 2], feats, cfg)
        expected, expected_report = reference.train(pairs, pairs[: n // 2], feats, cfg)
        for name, view in net.items():
            assert view.tobytes() == expected[name].tobytes(), name
        assert [asdict(e) for e in report.epochs] == [asdict(e) for e in expected_report.epochs]
        assert (report.best_epoch, report.stopping_reason) == \
            (expected_report.best_epoch, expected_report.stopping_reason)


class TestReportSerialization:
    def make_report(self):
        pairs, feats = separable_fixture(n=30)
        cfg = SimTrainConfig(batch_size=10, max_epochs=4, dropout_p=0.2,
                             lr0=0.01, early_stop_patience=4, seed=1)
        _, report = train_simnet(pairs, pairs, feats, cfg)
        return report

    def test_jsonl_format(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.jsonl"
        report.to_jsonl(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(report.epochs) + 1
        first = json.loads(lines[0])
        assert set(first) == {"epoch", "lr", "train_loss", "train_acc", "val_acc"}
        summary = json.loads(lines[-1])
        assert summary["completed_epochs"] == len(report.epochs)
        assert summary["planned_epochs"] == 4
        assert summary["stopping_reason"] in ("early_stopping", "max_epochs")

    def test_csv_format(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch,lr,train_loss,train_acc,val_acc"
        assert len(lines) == len(report.epochs) + 1
        # values parse back to the exact floats
        row = lines[1].split(",")
        assert float(row[1]) == report.epochs[0].lr
        assert float(row[2]) == report.epochs[0].train_loss
