"""Training-loop tests: schedule exactness, pair accuracy recounts,
early stopping semantics, regularization direction, determinism, and
report serialization."""

import json

import numpy as np
import pytest

from qasim import simnet, training
from qasim.corpus import QAPair
from qasim.retrieval import lookup_features
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


class TestLookupFeatures:
    def test_array_lookup(self):
        arr = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(lookup_features(arr, 1), arr[1])

    def test_dict_lookup(self):
        table = {7: np.ones(3)}
        assert np.array_equal(lookup_features(table, 7), np.ones(3))

    def test_missing_id_raises(self):
        with pytest.raises(ValueError, match="doc id 9"):
            lookup_features({1: np.ones(2)}, 9)


class TestEvaluatePairAccuracy:
    def test_zero_network_predicts_positive_on_ties(self):
        d = 4
        net = simnet.init_network(d, bias_const=0.0, seed=0)
        for param in net.params().values():
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
            (simnet.score(net, qf[i], af[i]) >= 0.5) == bool(labels[i])
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
        exact = np.mean([(simnet.score(net, qf[p.question_doc], af[p.answer_doc]) >= 0.5)
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
        for name in net1.params():
            assert np.array_equal(net1.params()[name], net2.params()[name])
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

        def recording(net, fq, fa, y, **kwargs):
            seen.append(len(y))
            return real(net, fq, fa, y, **kwargs)

        monkeypatch.setattr(training.simnet, "gradients", recording)
        cfg = self.overfit_config(batch_size=20, max_epochs=3,
                                  early_stop_patience=3)
        train_simnet(pairs, pairs, feats, cfg)
        # 3 epochs x ceil(50/20) batches; each epoch covers all 50 pairs
        assert seen == [20, 20, 10] * 3

    def test_non_finite_loss_raises(self):
        pairs, feats = separable_fixture(n=20)
        qf, af = feats
        # lr 1e6 multiplies w3 by ~-999 per step via the l2 term; the
        # reg component of the loss overflows within ~60 updates
        cfg = self.overfit_config(lr0=1e6, batch_size=5, max_epochs=100,
                                  early_stop_patience=100)
        with pytest.raises(RuntimeError):
            train_simnet(pairs, pairs, (qf * 1e3, af * 1e3), cfg)

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

    def test_checkpoints_written(self, tmp_path):
        pairs, feats = separable_fixture(n=30)
        cfg = self.overfit_config(max_epochs=6, early_stop_patience=6)
        train_simnet(pairs, pairs, feats, cfg,
                     checkpoint_dir=tmp_path, checkpoint_every=2)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["epoch1.simnet", "epoch3.simnet", "epoch5.simnet"]
        restored = simnet.load_simnet(tmp_path / "epoch3.simnet")
        assert restored.layer_dims == (8, 50, 20)


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
