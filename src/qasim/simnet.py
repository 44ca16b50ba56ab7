"""Two-tower similarity network with exact analytic gradients.

A question tower and an answer tower (independent weights) each map a
feature vector through two hidden layers; the second-layer outputs are
concatenated and a sigmoid head produces the match probability.  The
training loss is mean binary cross-entropy plus an l2 penalty on the
head weights only.  Backpropagation is hand-derived and verified against
finite differences in the test suite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

EPS = 1e-7  # probability clamp applied before the cross-entropy logs


class Activation(str, Enum):
    TANH = "tanh"
    RELU = "relu"


class ForwardMode(str, Enum):
    TRAIN = "train"
    EVAL = "eval"


@dataclass
class SimilarityNetwork:
    """Parameters of both towers and the decision head.

    Weight shapes: w1 (h1, d), w2 (h2, h1) per tower; w3 (2*h2,) and a
    single bias b3 for the head.  The two towers never share storage.
    """

    w1q: np.ndarray
    b1q: np.ndarray
    w2q: np.ndarray
    b2q: np.ndarray
    w1a: np.ndarray
    b1a: np.ndarray
    w2a: np.ndarray
    b2a: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    activation: Activation = Activation.TANH

    @property
    def layer_dims(self) -> tuple[int, int, int]:
        return self.w1q.shape[1], self.w1q.shape[0], self.w2q.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        """Parameter arrays in the canonical (file) order."""
        return {
            "w1q": self.w1q, "b1q": self.b1q, "w2q": self.w2q, "b2q": self.b2q,
            "w1a": self.w1a, "b1a": self.b1a, "w2a": self.w2a, "b2a": self.b2a,
            "w3": self.w3, "b3": self.b3,
        }

    def copy(self) -> "SimilarityNetwork":
        return SimilarityNetwork(
            **{name: arr.copy() for name, arr in self.params().items()},
            activation=self.activation,
        )


@dataclass
class ForwardTrace:
    """Everything the backward pass needs: pre-activations, activations
    (post-dropout), the masks used, and the final score."""

    x_q: np.ndarray
    x_a: np.ndarray
    z1q: np.ndarray
    h1q: np.ndarray
    z2q: np.ndarray
    h2q: np.ndarray
    z1a: np.ndarray
    h1a: np.ndarray
    z2a: np.ndarray
    h2a: np.ndarray
    masks: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
    logit: np.ndarray
    y_prime: np.ndarray
    mode: ForwardMode


def init_network(d: int, std: float = 0.03, bias_const: float = 0.1, seed: int = 0,
                 hidden1: int = 50, hidden2: int = 20,
                 activation: Activation = Activation.TANH) -> SimilarityNetwork:
    """Gaussian N(0, std^2) weights and constant biases, seeded.

    Weights are drawn in the order w1q, w2q, w1a, w2a, w3 so equal seeds
    give identical networks.
    """
    if d < 1:
        raise ValueError("input dimension must be >= 1")
    if std <= 0:
        raise ValueError("std must be > 0")
    rng = np.random.default_rng(seed)
    return SimilarityNetwork(
        w1q=rng.normal(0.0, std, (hidden1, d)),
        b1q=np.full(hidden1, bias_const, dtype=np.float64),
        w2q=rng.normal(0.0, std, (hidden2, hidden1)),
        b2q=np.full(hidden2, bias_const, dtype=np.float64),
        w1a=rng.normal(0.0, std, (hidden1, d)),
        b1a=np.full(hidden1, bias_const, dtype=np.float64),
        w2a=rng.normal(0.0, std, (hidden2, hidden1)),
        b2a=np.full(hidden2, bias_const, dtype=np.float64),
        w3=rng.normal(0.0, std, 2 * hidden2),
        b3=np.full(1, bias_const, dtype=np.float64),
        activation=Activation(activation),
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _act(z: np.ndarray, activation: Activation) -> np.ndarray:
    if activation is Activation.TANH:
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _act_grad(z: np.ndarray, a: np.ndarray, activation: Activation) -> np.ndarray:
    if activation is Activation.TANH:
        return 1.0 - a * a
    return (z > 0).astype(np.float64)


def draw_dropout_masks(shape_h1: tuple, shape_h2: tuple, dropout_p: float, seed):
    """Inverted-dropout masks for (h1q, h2q, h1a, h2a), drawn in that order."""
    rng = np.random.default_rng(seed)
    keep = 1.0 - dropout_p
    return tuple(
        (rng.random(shape) >= dropout_p) / keep
        for shape in (shape_h1, shape_h2, shape_h1, shape_h2)
    )


def _tower(net: SimilarityNetwork, x: np.ndarray, side: str, m1=None, m2=None):
    """Question ("q") or answer ("a") tower on (batch, d) rows: z1, h1, z2, h2
    (post-dropout) and the side's head term, h2 times its half of w3."""
    p = net.params()
    z1 = x @ p["w1" + side].T + p["b1" + side]
    a1 = _act(z1, net.activation)
    h1 = a1 * m1 if m1 is not None else a1
    z2 = h1 @ p["w2" + side].T + p["b2" + side]
    a2 = _act(z2, net.activation)
    h2 = a2 * m2 if m2 is not None else a2
    half = len(net.w3) // 2
    return z1, h1, z2, h2, h2 @ (net.w3[:half] if side == "q" else net.w3[half:])


def _as_rows(f: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(f, dtype=np.float64))
    if not np.isfinite(x).all():
        raise ValueError("input features must be finite")
    return x


def head_terms(net: SimilarityNetwork, f: np.ndarray, side: str) -> np.ndarray:
    """Eval-mode head term of each feature row on side "q" or "a".

    The logit is question term + answer term + b3, so one side's terms can
    be computed once and paired with any row of the other side.
    """
    return _tower(net, _as_rows(f), side)[4]


def probabilities(net: SimilarityNetwork, q_terms: np.ndarray,
                  a_terms: np.ndarray) -> np.ndarray:
    """Match probabilities from head terms, summed in `forward`'s order."""
    return _sigmoid(q_terms + a_terms + net.b3[0])


def forward(net: SimilarityNetwork, f_q: np.ndarray, f_a: np.ndarray,
            dropout_p: float = 0.0, mode: ForwardMode = ForwardMode.EVAL,
            seed: int = 0, masks=None) -> ForwardTrace:
    """Run both towers and the head; records everything for backprop.

    Inputs may be single d-vectors or (batch, d) arrays.  In Train mode
    with dropout_p > 0, inverted dropout is applied to both hidden layers
    of both towers; passing `masks` replays a previous trace exactly.
    Eval mode applies no masks and no rescaling.
    """
    mode = ForwardMode(mode)
    x_q = _as_rows(f_q)
    x_a = _as_rows(f_a)
    if x_q.shape != x_a.shape:
        raise ValueError(f"feature shapes differ: {x_q.shape} vs {x_a.shape}")

    B = x_q.shape[0]
    h1, h2 = net.w1q.shape[0], net.w2q.shape[0]

    if masks is None and mode is ForwardMode.TRAIN and dropout_p > 0.0:
        masks = draw_dropout_masks((B, h1), (B, h2), dropout_p, seed)
    if mode is ForwardMode.EVAL:
        masks = None
    m1q, m2q, m1a, m2a = masks if masks is not None else (None,) * 4

    z1q, h1q, z2q, h2q, q_term = _tower(net, x_q, "q", m1q, m2q)
    z1a, h1a, z2a, h2a, a_term = _tower(net, x_a, "a", m1a, m2a)

    u = q_term + a_term + net.b3[0]
    y_prime = _sigmoid(u)
    return ForwardTrace(x_q=x_q, x_a=x_a, z1q=z1q, h1q=h1q, z2q=z2q, h2q=h2q,
                        z1a=z1a, h1a=h1a, z2a=z2a, h2a=h2a, masks=masks,
                        logit=u, y_prime=y_prime, mode=mode)


def _loss_from_trace(trace: ForwardTrace, y: np.ndarray, lam: float, w3: np.ndarray) -> float:
    yc = np.clip(trace.y_prime, EPS, 1.0 - EPS)
    bce = -(y * np.log(yc) + (1.0 - y) * np.log(1.0 - yc))
    # diverged weights overflow to inf here; callers check the loss is finite
    with np.errstate(over="ignore"):
        return float(bce.mean() + lam * np.dot(w3, w3))


def loss(net: SimilarityNetwork, f_q: np.ndarray, f_a: np.ndarray, y: np.ndarray,
         lam: float = 0.0, dropout_p: float = 0.0, seed: int = 0, masks=None) -> float:
    """Mean clamped binary cross-entropy plus lam * ||w3||^2.

    With dropout_p > 0 (or explicit masks) the forward pass runs in Train
    mode; the masks depend only on (seed, shapes), never on parameter
    values, so the loss stays differentiable in the parameters.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.size == 0:
        raise ValueError("batch must be non-empty")
    mode = ForwardMode.TRAIN if (masks is not None or dropout_p > 0.0) else ForwardMode.EVAL
    trace = forward(net, f_q, f_a, dropout_p, mode, seed, masks)
    return _loss_from_trace(trace, y, lam, net.w3)


def gradients(net: SimilarityNetwork, f_q: np.ndarray, f_a: np.ndarray, y: np.ndarray,
              lam: float = 0.0, dropout_p: float = 0.0, seed: int = 0,
              masks=None) -> tuple[dict[str, np.ndarray], float]:
    """Exact analytic gradients of `loss` for every parameter.

    Returns (gradient dict keyed like net.params(), pre-update loss).
    The l2 regularizer contributes 2*lam*w3 to the head weights only.
    Where the clamp saturates the predicted probability, the gradient of
    the clamped loss is exactly zero, matching finite differences.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.size == 0:
        raise ValueError("batch must be non-empty")
    mode = ForwardMode.TRAIN if (masks is not None or dropout_p > 0.0) else ForwardMode.EVAL
    trace = forward(net, f_q, f_a, dropout_p, mode, seed, masks)
    value = _loss_from_trace(trace, y, lam, net.w3)

    B = trace.x_q.shape[0]
    h2 = net.w2q.shape[0]
    yp = trace.y_prime
    clamped = (yp < EPS) | (yp > 1.0 - EPS)
    g_u = np.where(clamped, 0.0, yp - y) / B

    d_w3 = np.concatenate([trace.h2q.T @ g_u, trace.h2a.T @ g_u]) + 2.0 * lam * net.w3
    d_b3 = np.array([g_u.sum()])
    act = net.activation
    m1q, m2q, m1a, m2a = trace.masks if trace.masks is not None else (None,) * 4

    def tower_grads(dh2, z2, h1, z1, x, w2, m1, m2):
        da2 = dh2 * m2 if m2 is not None else dh2
        dz2 = da2 * _act_grad(z2, _act(z2, act), act)
        dw2 = dz2.T @ h1
        db2 = dz2.sum(axis=0)
        dh1 = dz2 @ w2
        da1 = dh1 * m1 if m1 is not None else dh1
        dz1 = da1 * _act_grad(z1, _act(z1, act), act)
        dw1 = dz1.T @ x
        db1 = dz1.sum(axis=0)
        return dw1, db1, dw2, db2

    dh2q = np.outer(g_u, net.w3[:h2])
    dh2a = np.outer(g_u, net.w3[h2:])
    dw1q, db1q, dw2q, db2q = tower_grads(dh2q, trace.z2q, trace.h1q, trace.z1q,
                                         trace.x_q, net.w2q, m1q, m2q)
    dw1a, db1a, dw2a, db2a = tower_grads(dh2a, trace.z2a, trace.h1a, trace.z1a,
                                         trace.x_a, net.w2a, m1a, m2a)

    grads = {
        "w1q": dw1q, "b1q": db1q, "w2q": dw2q, "b2q": db2q,
        "w1a": dw1a, "b1a": db1a, "w2a": dw2a, "b2a": db2a,
        "w3": d_w3, "b3": d_b3,
    }
    return grads, value


def score(net: SimilarityNetwork, f_q: np.ndarray, f_a: np.ndarray) -> float:
    """Eval-mode match probability for one (question, answer) pair."""
    trace = forward(net, f_q, f_a, mode=ForwardMode.EVAL)
    return float(trace.y_prime[0])


def score_batch(net: SimilarityNetwork, f_q: np.ndarray, f_a: np.ndarray) -> np.ndarray:
    """Eval-mode match probabilities for aligned (B, d) feature arrays."""
    return forward(net, f_q, f_a, mode=ForwardMode.EVAL).y_prime


# ---------------------------------------------------------------------------
# Binary model format
# ---------------------------------------------------------------------------

_SIM_MAGIC = b"SIM1"
_SIM_HEADER = "<4sIIIB"
_ACT_FLAG = {Activation.TANH: 0, Activation.RELU: 1}


def save_simnet(net: SimilarityNetwork, path) -> None:
    d, h1, h2 = net.layer_dims
    with open(path, "wb") as fh:
        fh.write(struct.pack(_SIM_HEADER, _SIM_MAGIC, d, h1, h2, _ACT_FLAG[net.activation]))
        for arr in net.params().values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_simnet(path) -> SimilarityNetwork:
    with open(path, "rb") as fh:
        header = fh.read(struct.calcsize(_SIM_HEADER))
        if len(header) != struct.calcsize(_SIM_HEADER):
            raise ValueError(f"truncated similarity-network file: {path}")
        magic, d, h1, h2, flag = struct.unpack(_SIM_HEADER, header)
        if magic != _SIM_MAGIC:
            raise ValueError(f"not a similarity-network file: {path}")
        shapes = {
            "w1q": (h1, d), "b1q": (h1,), "w2q": (h2, h1), "b2q": (h2,),
            "w1a": (h1, d), "b1a": (h1,), "w2a": (h2, h1), "b2a": (h2,),
            "w3": (2 * h2,), "b3": (1,),
        }
        arrays = {}
        for name, shape in shapes.items():
            n = int(np.prod(shape))
            data = fh.read(n * 4)
            if len(data) != n * 4:
                raise ValueError("truncated similarity-network file")
            arrays[name] = np.frombuffer(data, dtype="<f4").astype(np.float64).reshape(shape)
    return SimilarityNetwork(**arrays, activation=Activation.RELU if flag else Activation.TANH)
