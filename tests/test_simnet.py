"""Similarity-network tests: hand-computed forward values, independent
loss recomputation, finite-difference gradient verification, dropout
semantics, and the binary model format."""

import copy
import math
import struct

import numpy as np
import pytest

import simnet_reference as reference
from qasim import simnet
from qasim.simnet import (
    Activation,
    SimilarityNetwork,
    draw_dropout_masks,
    forward,
    gradients,
    init_network,
    loss,
)


def toy_network(activation=Activation.TANH):
    """2-2-2 network with hand-set weights (matches the frozen oracle)."""
    return SimilarityNetwork(
        w1q=np.array([[0.5, -0.25], [0.1, 0.3]]),
        b1q=np.array([0.05, -0.1]),
        w2q=np.array([[0.2, 0.4], [-0.3, 0.15]]),
        b2q=np.array([0.0, 0.2]),
        w1a=np.array([[-0.4, 0.2], [0.25, 0.1]]),
        b1a=np.array([0.1, 0.0]),
        w2a=np.array([[0.35, -0.2], [0.05, 0.3]]),
        b2a=np.array([-0.05, 0.1]),
        w3=np.array([0.3, -0.2, 0.25, 0.4]),
        b3=np.array([-0.1]),
        activation=activation,
    )


def zero_network(d=3, h1=4, h2=2):
    z = np.zeros
    return SimilarityNetwork(
        w1q=z((h1, d)), b1q=z(h1), w2q=z((h2, h1)), b2q=z(h2),
        w1a=z((h1, d)), b1a=z(h1), w2a=z((h2, h1)), b2a=z(h2),
        w3=z(2 * h2), b3=z(1),
    )


def loss_oracle(net, fq, fa, y, lam):
    """Independent scalar recomputation of the regularized loss (Eval)."""
    act = math.tanh if net.activation is Activation.TANH else lambda v: max(v, 0.0)

    def tower(x, w1, b1, w2, b2):
        h1 = [act(sum(w1[i][j] * x[j] for j in range(len(x))) + b1[i])
              for i in range(len(b1))]
        return [act(sum(w2[i][j] * h1[j] for j in range(len(h1))) + b2[i])
                for i in range(len(b2))]

    total = 0.0
    for k in range(len(y)):
        h2q = tower(fq[k], net.w1q, net.b1q, net.w2q, net.b2q)
        h2a = tower(fa[k], net.w1a, net.b1a, net.w2a, net.b2a)
        cat = list(h2q) + list(h2a)
        logit = sum(net.w3[i] * cat[i] for i in range(len(cat))) + net.b3[0]
        p = 1.0 / (1.0 + math.exp(-logit))
        p = min(max(p, simnet.EPS), 1.0 - simnet.EPS)
        total += -(y[k] * math.log(p) + (1 - y[k]) * math.log(1.0 - p))
    return total / len(y) + lam * float(sum(w * w for w in net.w3))


def finite_difference_check(net, fq, fa, y, lam, masks=None, tol=1e-4, h=1e-5):
    grads, _ = gradients(net, fq, fa, y, lam=lam, masks=masks)
    worst = 0.0
    for name, grad in grads.items():
        param = getattr(net, name)
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            up = loss(net, fq, fa, y, lam=lam, masks=masks)
            param[idx] = orig - h
            down = loss(net, fq, fa, y, lam=lam, masks=masks)
            param[idx] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(fd - grad[idx]) / denom)
    assert worst < tol, worst
    return worst


class TestInitNetwork:
    def test_biases_equal_constant(self):
        net = init_network(5, bias_const=0.1, seed=0)
        for b in (net.b1q, net.b2q, net.b1a, net.b2a, net.b3):
            assert np.all(b == 0.1)

    def test_default_bias_constant(self):
        net = init_network(5, seed=0)
        assert np.all(net.b1q == 0.1)

    def test_weight_std_near_requested(self):
        net = init_network(100, std=0.03, seed=1)
        sample_std = float(net.w1q.std())
        assert abs(sample_std - 0.03) / 0.03 < 0.10

    def test_default_layer_dims(self):
        net = init_network(12, seed=0)
        assert net.layer_dims == (12, 50, 20)
        assert net.w3.shape == (40,)

    def test_deterministic(self):
        a = init_network(6, seed=3)
        b = init_network(6, seed=3)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_towers_draw_independent_weights(self):
        net = init_network(6, seed=3)
        assert not np.array_equal(net.w1q, net.w1a)
        assert not np.array_equal(net.w2q, net.w2a)

    @pytest.mark.parametrize("d, hidden1, hidden2", [(0, 50, 20), (4, 0, 20), (4, 50, 0),
                                                     (4, -1, 3)])
    def test_empty_layer_rejected(self, d, hidden1, hidden2):
        # a network with no hidden units scores every pair sigmoid(b3)
        with pytest.raises(ValueError, match="layer sizes must be >= 1"):
            init_network(d, hidden1=hidden1, hidden2=hidden2)

    def test_draw_order_pinned(self):
        net = init_network(4, std=0.2, bias_const=0.3, seed=11, hidden1=3, hidden2=2)
        rng = np.random.default_rng(11)
        w1q = rng.normal(0.0, 0.2, (3, 4))
        w2q = rng.normal(0.0, 0.2, (2, 3))
        w1a = rng.normal(0.0, 0.2, (3, 4))
        w2a = rng.normal(0.0, 0.2, (2, 3))
        w3 = rng.normal(0.0, 0.2, 4)
        for name, expected in (("w1q", w1q), ("w2q", w2q), ("w1a", w1a), ("w2a", w2a),
                               ("w3", w3)):
            assert np.array_equal(getattr(net, name), expected), name
        for name, size in (("b1q", 3), ("b2q", 2), ("b1a", 3), ("b2a", 2), ("b3", 1)):
            assert np.array_equal(getattr(net, name), np.full(size, 0.3)), name
        assert list(net) == ["w1q", "b1q", "w2q", "b2q", "w1a", "b1a",
                                      "w2a", "b2a", "w3", "b3"]


class TestForward:
    def test_zero_network_scores_half(self):
        net = zero_network()
        trace = forward(net, np.ones(3), -np.ones(3))
        assert trace.y_prime[0] == pytest.approx(0.5)

    def test_hand_computed_forward(self):
        net = toy_network()
        trace = forward(net, np.array([0.6, -0.3]), np.array([-0.2, 0.5]))
        assert trace.logit[0] == pytest.approx(-0.04685141437128569, abs=1e-15)
        assert trace.y_prime[0] == pytest.approx(0.48828928846683406, abs=1e-15)

    def test_train_with_zero_dropout_equals_eval(self):
        net = toy_network()
        fq, fa = np.array([0.6, -0.3]), np.array([-0.2, 0.5])
        eval_trace = forward(net, fq, fa)
        train_trace = forward(net, fq, fa, dropout_p=0.0, seed=7)
        assert train_trace.y_prime[0] == eval_trace.y_prime[0]

    def test_dropout_masks_recorded_and_replayable(self):
        net = init_network(4, seed=2)
        rng = np.random.default_rng(0)
        fq, fa = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        t1 = forward(net, fq, fa, dropout_p=0.5, seed=11)
        assert t1.masks is not None
        t2 = forward(net, fq, fa, masks=t1.masks)
        assert np.array_equal(t1.y_prime, t2.y_prime)

    def test_non_finite_input_rejected(self):
        net = zero_network()
        with pytest.raises(ValueError):
            forward(net, np.array([np.nan, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(ValueError):
            forward(net, np.zeros(3), np.array([np.inf, 0.0, 0.0]))

    def test_wrong_dimension_rejected(self):
        net = zero_network(d=3)
        with pytest.raises(ValueError):
            forward(net, np.zeros(4), np.zeros(4))

    def test_relu_activation(self):
        net = toy_network(Activation.RELU)
        fq, fa = np.array([0.6, -0.3]), np.array([-0.2, 0.5])
        trace = forward(net, fq, fa)
        # relu tower: recompute independently
        z1q = net.w1q @ fq + net.b1q
        h1q = np.maximum(z1q, 0.0)
        z2q = net.w2q @ h1q + net.b2q
        h2q = np.maximum(z2q, 0.0)
        assert np.allclose(trace.h2[0, 0], h2q)  # question tower, first row


class TestDropoutMasks:
    def test_inverted_scaling(self):
        masks = draw_dropout_masks((200, 50), (200, 20), 0.5, seed=3)
        for m in masks:
            values = np.unique(m)
            assert set(values.tolist()) <= {0.0, 2.0}  # 1/keep = 2 for p=0.5

    def test_keep_fraction_close_to_probability(self):
        masks = draw_dropout_masks((500, 50), (500, 20), 0.3, seed=4)
        m1q = masks[0][0]
        kept = float(np.mean(m1q > 0))
        assert abs(kept - 0.7) < 0.02

    @pytest.mark.parametrize("dropout_p", [-0.5, 1.0, 1.5, math.nan, math.inf])
    def test_probability_outside_unit_interval_rejected(self, dropout_p):
        with pytest.raises(ValueError, match=r"dropout_p must lie in \[0, 1\)"):
            draw_dropout_masks((4, 5), (4, 3), dropout_p, seed=8)
        net = init_network(3, seed=0)
        fq, fa, y = np.zeros((2, 3)), np.ones((2, 3)), np.array([1.0, 0.0])
        with pytest.raises(ValueError, match=r"dropout_p must lie in \[0, 1\)"):
            forward(net, fq, fa, dropout_p=dropout_p)
        with pytest.raises(ValueError, match=r"dropout_p must lie in \[0, 1\)"):
            loss(net, fq, fa, y, dropout_p=dropout_p)
        with pytest.raises(ValueError, match=r"dropout_p must lie in \[0, 1\)"):
            gradients(net, fq, fa, y, dropout_p=dropout_p)

    def test_generator_is_advanced(self):
        # an int seeds a new generator; a generator is drawn from and advanced
        rng, same = np.random.default_rng(21), np.random.default_rng(21)
        first, second = (draw_dropout_masks((4, 5), (4, 3), 0.5, rng) for _ in range(2))
        for drawn in (first, second):
            for m, expected in zip(drawn, draw_dropout_masks((4, 5), (4, 3), 0.5, same)):
                assert np.array_equal(m, expected)
        assert all(np.array_equal(m, e)
                   for m, e in zip(first, draw_dropout_masks((4, 5), (4, 3), 0.5, seed=21)))
        assert not np.array_equal(first[0], second[0])

    def test_deterministic(self):
        a = draw_dropout_masks((4, 5), (4, 3), 0.5, seed=8)
        b = draw_dropout_masks((4, 5), (4, 3), 0.5, seed=8)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestLoss:
    def test_zero_network_log2(self):
        net = zero_network()
        rng = np.random.default_rng(1)
        fq, fa = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        assert loss(net, fq, fa, y, lam=0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_regularizer_adds_exactly(self):
        net = toy_network()
        rng = np.random.default_rng(2)
        fq, fa = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        y = np.array([1.0, 0.0, 0.0, 1.0])
        base = loss(net, fq, fa, y, lam=0.0)
        lam = 0.03
        expected = base + lam * float(net.w3 @ net.w3)
        assert loss(net, fq, fa, y, lam=lam) == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_recomputation(self):
        net = init_network(5, std=0.4, seed=9, hidden1=6, hidden2=3)
        rng = np.random.default_rng(3)
        fq, fa = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        y = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        expected = loss_oracle(net, fq, fa, y, lam=0.01)
        assert loss(net, fq, fa, y, lam=0.01) == pytest.approx(expected, rel=1e-12)

    def test_batch_order_invariance(self):
        net = init_network(4, std=0.3, seed=5)
        rng = np.random.default_rng(4)
        fq, fa = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        y = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        perm = np.array([3, 1, 4, 0, 5, 2])
        assert loss(net, fq, fa, y, lam=0.01) == pytest.approx(
            loss(net, fq[perm], fa[perm], y[perm], lam=0.01), rel=1e-12)

    def test_finite_for_extreme_logits(self):
        net = toy_network()
        net.w3 = net.w3 * 1e6  # saturate the sigmoid
        fq, fa = np.array([[0.6, -0.3]]), np.array([[-0.2, 0.5]])
        value = loss(net, fq, fa, np.array([0.0]), lam=0.0)
        assert np.isfinite(value)

    def test_overflowing_head_weights_give_non_finite_loss_quietly(self):
        # diverged head weights: ||w3||^2 overflows to inf, and lam 0 times
        # inf is NaN; training checks the loss, so no warning is raised
        net = toy_network()
        net.w3 = np.full(4, 1e200)
        fq, fa, y = np.array([[0.6, -0.3]]), np.array([[-0.2, 0.5]]), np.array([1.0])
        assert loss(net, fq, fa, y, lam=0.5) == math.inf
        assert math.isnan(loss(net, fq, fa, y, lam=0.0))


class TestGradients:
    def test_tanh_eval_matches_finite_differences(self):
        net = init_network(8, std=0.25, seed=1, hidden1=6, hidden2=4)
        rng = np.random.default_rng(0)
        fq, fa = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        y = np.array([1.0, 0.0, 1.0, 0.0])
        finite_difference_check(net, fq, fa, y, lam=0.0005)

    def test_tanh_dropout_matches_finite_differences(self):
        net = init_network(8, std=0.25, seed=2, hidden1=6, hidden2=4)
        rng = np.random.default_rng(1)
        fq, fa = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        y = np.array([0.0, 1.0, 1.0, 0.0])
        masks = draw_dropout_masks((4, 6), (4, 4), 0.5, seed=5)
        finite_difference_check(net, fq, fa, y, lam=0.001, masks=masks)

    def test_relu_matches_finite_differences(self):
        # fixed seed chosen so no pre-activation sits near a relu kink
        net = init_network(6, std=0.3, seed=6, hidden1=5, hidden2=3,
                           activation=Activation.RELU)
        rng = np.random.default_rng(2)
        fq, fa = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        y = np.array([1.0, 0.0, 1.0])
        near_kink = []
        for x, side in ((fq, "q"), (fa, "a")):
            z1 = x @ getattr(net, "w1" + side).T + getattr(net, "b1" + side)
            z2 = np.maximum(z1, 0.0) @ getattr(net, "w2" + side).T + getattr(net, "b2" + side)
            near_kink += [np.any(np.abs(z1) < 1e-3), np.any(np.abs(z2) < 1e-3)]
        assert not any(near_kink), "fixture would straddle a relu kink"
        finite_difference_check(net, fq, fa, y, lam=0.0005)

    def test_zero_residual_gives_zero_head_bias_gradient(self):
        # y' = 0.5 exactly from a zero network; labels 0.5 unreachable, so
        # use matched positive/negative pairs: residuals cancel in the mean
        net = zero_network()
        fq = np.zeros((2, 3))
        fa = np.zeros((2, 3))
        y = np.array([1.0, 0.0])
        grads, _ = gradients(net, fq, fa, y, lam=0.0)
        assert grads["b3"][0] == pytest.approx(0.0, abs=1e-15)

    def test_q_gradient_independent_of_a_tower_values(self):
        rng = np.random.default_rng(6)
        fq, fa = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        y = np.array([1.0, 0.0, 1.0])
        net1 = init_network(4, std=0.2, seed=7)
        net2 = net1.copy()
        # change only the a-tower first layer; freeze its output by hand
        trace1 = forward(net1, fq, fa)
        net2.w1a += 0.5
        trace2 = forward(net2, fq, fa)
        # same h2a would give same q gradients; here h2a differs, so
        # check the structural fact instead: q-tower grads depend on fa
        # only through h2a and the shared residual
        g1, _ = gradients(net1, fq, fa, y, lam=0.0)
        g2, _ = gradients(net2, fq, fa, y, lam=0.0)
        if np.allclose(trace1.h2[1], trace2.h2[1]):  # the answer towers' h2
            assert np.allclose(g1["w1q"], g2["w1q"])

    def test_regularizer_only_touches_head_weights(self):
        net = init_network(5, std=0.2, seed=8)
        rng = np.random.default_rng(7)
        fq, fa = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        y = np.array([1.0, 0.0, 0.0])
        g0, _ = gradients(net, fq, fa, y, lam=0.0)
        g1, _ = gradients(net, fq, fa, y, lam=0.5)
        assert np.allclose(g1["w3"] - g0["w3"], 2 * 0.5 * net.w3)
        for name in ("w1q", "b1q", "w2q", "b2q", "w1a", "b1a", "w2a", "b2a", "b3"):
            assert np.array_equal(g0[name], g1[name])

    def test_gradients_report_loss(self):
        net = init_network(4, std=0.3, seed=9)
        rng = np.random.default_rng(8)
        fq, fa = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        y = np.array([1.0, 0.0, 1.0, 1.0])
        _, reported = gradients(net, fq, fa, y, lam=0.002)
        assert reported == pytest.approx(loss(net, fq, fa, y, lam=0.002), rel=1e-12)


class TestScore:
    def test_zero_network(self):
        assert forward(zero_network(), np.ones(3), np.ones(3)).y_prime[0] == pytest.approx(0.5)

    def test_deterministic(self):
        net = init_network(4, std=0.5, seed=10)
        rng = np.random.default_rng(9)
        fq, fa = rng.normal(size=4), rng.normal(size=4)
        assert forward(net, fq, fa).y_prime[0] == forward(net, fq, fa).y_prime[0]

    def test_monotone_in_matching_logit(self):
        net = toy_network()
        fq = np.array([0.6, -0.3])
        fa = np.array([-0.2, 0.5])
        base = forward(net, fq, fa).y_prime[0]
        net.b3 = net.b3 + 1.0  # push the logit up
        assert forward(net, fq, fa).y_prime[0] > base

    def test_head_terms_reproduce_forward(self):
        net = init_network(5, std=0.4, seed=15, activation=Activation.RELU)
        rng = np.random.default_rng(16)
        fq, fa = rng.normal(size=(9, 5)), rng.normal(size=(9, 5))
        split = simnet.probabilities(net, simnet.head_terms(net, fq, "q"),
                                     simnet.head_terms(net, fa, "a"))
        assert np.array_equal(split, forward(net, fq, fa).y_prime)

    def test_head_terms_reject_non_finite_features(self):
        net = init_network(3, seed=0)
        with pytest.raises(ValueError):
            simnet.head_terms(net, np.array([0.0, np.inf, 0.0]), "a")

    def test_batch_forward_matches_scalar_scores(self):
        net = init_network(5, std=0.4, seed=11)
        rng = np.random.default_rng(10)
        fq, fa = rng.normal(size=(7, 5)), rng.normal(size=(7, 5))
        batch = forward(net, fq, fa).y_prime
        for i in range(7):
            assert batch[i] == pytest.approx(forward(net, fq[i], fa[i]).y_prime[0], rel=1e-15)


class TestStackedLayout:
    """One parameter buffer, both towers in one stacked pass, one mask
    draw: the same bits as the two-pass reference, one tower at a time."""

    @staticmethod
    def arrays(net):
        return {name: view.copy() for name, view in net.items()}

    @staticmethod
    def stacked(tower_masks):
        """The reference's (h1q, h2q, h1a, h2a) as the stacked (h1, h2) pair."""
        return np.stack(tower_masks[0::2]), np.stack(tower_masks[1::2])

    def test_one_draw_equals_four_draws(self):
        for shapes in (((4, 6), (4, 3)), ((1, 5), (1, 2)), ((7, 1), (7, 4))):
            drawn = draw_dropout_masks(*shapes, 0.3, seed=17)
            expected = self.stacked(reference.masks(*shapes, 0.3, seed=17))
            assert [m.shape for m in drawn] == [m.shape for m in expected]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(drawn, expected))

    def test_every_view_shares_the_one_buffer(self):
        net = init_network(5, seed=1, hidden1=4, hidden2=3)
        assert net.flat.size == sum(view.size for view in net.values())
        for view in (*net.values(), *net.stacked):
            assert np.shares_memory(view, net.flat)
        assert np.array_equal(net.stacked[0][1], net.w1a)
        assert np.array_equal(net.stacked[4].ravel(), net.w3)

    def test_writing_a_named_field_changes_the_loss(self):
        net = init_network(4, std=0.3, seed=2)
        rng = np.random.default_rng(3)
        fq, fa, y = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), np.array([1.0, 0.0, 1.0])
        before = loss(net, fq, fa, y, lam=0.01)
        getattr(net, "w1q")[0, 0] += 0.5
        after_view = loss(net, fq, fa, y, lam=0.01)
        assert after_view != before
        net.w3 = net.w3 * 2.0                      # assignment copies into the buffer
        assert np.shares_memory(net.w3, net.flat)
        assert loss(net, fq, fa, y, lam=0.01) != after_view

    def test_copy_shares_no_memory(self):
        net = init_network(4, seed=5)
        twin = net.copy()
        assert not np.shares_memory(twin.flat, net.flat)
        for a, b in zip(twin.values(), net.values()):
            assert a.tobytes() == b.tobytes() and not np.shares_memory(a, b)
        twin.b3[0] = 7.0
        assert net.b3[0] != 7.0
        assert copy.deepcopy(net).flat.tobytes() == net.flat.tobytes()

    def test_deep_copy_views_follow_its_own_buffer(self):
        # member-wise, a deep copy's views would each get a buffer of their
        # own, and writing its `flat` would change none of them
        net = init_network(4, seed=5)
        twin = copy.deepcopy(net)
        for view in (*twin.values(), *twin.stacked):
            assert np.shares_memory(view, twin.flat) and not np.shares_memory(view, net.flat)
        twin.flat[...] = 2.0
        assert all(np.all(view == 2.0) for view in (*twin.values(), *twin.stacked))
        assert not np.any(net.flat == 2.0)

    def test_ten_arrays_are_copied_in_and_forward_matches_reference(self):
        arrays = {name: view.copy() for name, view in toy_network().items()}
        net = SimilarityNetwork(**arrays)
        arrays["w1q"][0, 0] = 100.0                # the network holds its own copy
        assert net.w1q[0, 0] == 0.5
        arrays["w1q"][0, 0] = 0.5
        fq, fa = np.array([[0.6, -0.3], [0.1, 0.2]]), np.array([[-0.2, 0.5], [0.3, -0.4]])
        assert forward(net, fq, fa).y_prime.tobytes() == \
            reference.forward(arrays, fq, fa, net.activation)[2].tobytes()
        with pytest.raises(TypeError):
            SimilarityNetwork(**{name: a for name, a in arrays.items() if name != "b3"})

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("dropout_p", [0.0, 0.4])
    @pytest.mark.parametrize("batch, d, h1, h2", [(1, 3, 2, 2), (5, 7, 6, 3), (50, 100, 50, 20)])
    def test_gradients_match_two_pass_reference(self, activation, dropout_p, batch, d, h1, h2):
        net = init_network(d, std=0.4, seed=batch, hidden1=h1, hidden2=h2, activation=activation)
        rng = np.random.default_rng(d)
        fq, fa = rng.normal(size=(batch, d)), rng.normal(size=(batch, d))
        y = rng.integers(0, 2, size=batch).astype(np.float64)
        masks = reference.masks((batch, h1), (batch, h2), dropout_p, 9) if dropout_p else None
        grads, value = gradients(net, fq, fa, y, lam=0.01, dropout_p=dropout_p, seed=9)
        expected, expected_value = reference.gradients(self.arrays(net), fq, fa, y, activation,
                                                       lam=0.01, tower_masks=masks)
        assert value == expected_value
        assert list(grads) == list(expected)
        for name in expected:
            assert grads[name].tobytes() == expected[name].tobytes(), name
        # explicit masks, in draw_dropout_masks' form, replay the same step
        if masks is not None:
            replayed, _ = gradients(net, fq, fa, y, lam=0.01, masks=self.stacked(masks))
            assert replayed.flat.tobytes() == grads.flat.tobytes()

    def test_head_terms_match_reference_towers(self):
        net = init_network(6, std=0.5, seed=4, activation=Activation.RELU)
        rows = np.random.default_rng(5).normal(size=(11, 6))
        for side in "qa":
            expected = reference.tower(self.arrays(net), rows, side, net.activation)[1]
            assert simnet.head_terms(net, rows, side).tobytes() == expected.tobytes()

    def test_sigmoid_matches_two_branch_form(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 4001), [0.0, -0.0, 1e-300, -1e-300,
                                                                np.inf, -np.inf]])
        assert simnet._sigmoid(x).tobytes() == reference._sigmoid(x).tobytes()


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        net = init_network(9, std=0.3, seed=12, activation=Activation.RELU)
        path = tmp_path / "net.sim"
        simnet.save_simnet(net, path)
        loaded = simnet.load_simnet(path)
        assert loaded.activation is Activation.RELU
        assert loaded.layer_dims == net.layer_dims
        path2 = tmp_path / "net2.sim"
        simnet.save_simnet(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_scores_survive_roundtrip(self, tmp_path):
        net = init_network(6, std=0.3, seed=13)
        path = tmp_path / "net.sim"
        simnet.save_simnet(net, path)
        loaded = simnet.load_simnet(path)
        rng = np.random.default_rng(14)
        fq, fa = rng.normal(size=6), rng.normal(size=6)
        # float32 storage: scores agree to single precision
        assert forward(loaded, fq, fa).y_prime[0] == pytest.approx(
            forward(net, fq, fa).y_prime[0], abs=1e-6)

    def test_non_finite_values_rejected(self, tmp_path):
        path = tmp_path / "net.sim"
        simnet.save_simnet(init_network(4, seed=0), path)
        data = path.read_bytes()
        path.write_bytes(data[:-4] + struct.pack("<f", np.nan))  # the head's bias
        with pytest.raises(ValueError, match="non-finite values in similarity-network file"):
            simnet.load_simnet(path)

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_unknown_activation_flag_rejected(self, tmp_path, flag):
        path = tmp_path / "net.sim"
        simnet.save_simnet(init_network(4, seed=0), path)
        data = bytearray(path.read_bytes())
        data[struct.calcsize(simnet._SIM_HEADER) - 1] = flag
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError) as exc:
            simnet.load_simnet(path)
        assert str(exc.value) == (f"unknown activation flag {flag} in similarity-network "
                                  f"file: {path}")

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.sim"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            simnet.load_simnet(path)
