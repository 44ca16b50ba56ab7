"""Two-tower similarity network with exact analytic gradients.

A question tower and an answer tower (independent weights) each map a
feature vector through two hidden layers; the second-layer outputs are
concatenated and a sigmoid head produces the match probability.  The
training loss is mean binary cross-entropy plus an l2 penalty on the
head weights only.  Backpropagation is hand-derived and verified against
finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .modelfile import read_model, write_model

EPS = 1e-7  # probability clamp applied before the cross-entropy logs


class Activation(str, Enum):
    TANH = "tanh"
    RELU = "relu"


def _param_shapes(d: int, h1: int, h2: int, *_) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, in file and draw order; later header fields are ignored."""
    return {"w1q": (h1, d), "b1q": (h1,), "w2q": (h2, h1), "b2q": (h2,),
            "w1a": (h1, d), "b1a": (h1,), "w2a": (h2, h1), "b2a": (h2,),
            "w3": (2 * h2,), "b3": (1,)}


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
        return {name: getattr(self, name) for name in _param_shapes(*self.layer_dims)}

    def copy(self) -> "SimilarityNetwork":
        return SimilarityNetwork(**{name: arr.copy() for name, arr in self.params().items()},
                                 activation=self.activation)


@dataclass
class TowerTrace:
    """One tower's pass over (batch, d) rows: the input x, then per layer
    the activation a and the output h (after dropout)."""

    x: np.ndarray
    a1: np.ndarray
    h1: np.ndarray
    a2: np.ndarray
    h2: np.ndarray


@dataclass
class ForwardTrace:
    """Everything the backward pass needs: both towers' traces, the
    masks used, and the final score."""

    q: TowerTrace
    a: TowerTrace
    masks: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
    logit: np.ndarray
    y_prime: np.ndarray


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
    shapes = _param_shapes(d, hidden1, hidden2)
    return SimilarityNetwork(**{name: rng.normal(0.0, std, shape) if name.startswith("w")
                                else np.full(shape, bias_const, dtype=np.float64)
                                for name, shape in shapes.items()},
                             activation=Activation(activation))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _act(z: np.ndarray, activation: Activation) -> np.ndarray:
    return np.tanh(z) if activation is Activation.TANH else np.maximum(z, 0.0)


def _act_grad(a: np.ndarray, activation: Activation) -> np.ndarray:
    """Derivative of the activation, from its output a: relu's a > 0 iff z > 0."""
    return 1.0 - a * a if activation is Activation.TANH else (a > 0).astype(np.float64)


def draw_dropout_masks(shape_h1: tuple, shape_h2: tuple, dropout_p: float, seed):
    """Inverted-dropout masks for (h1q, h2q, h1a, h2a), drawn in that order."""
    rng = np.random.default_rng(seed)
    keep = 1.0 - dropout_p
    return tuple(
        (rng.random(shape) >= dropout_p) / keep
        for shape in (shape_h1, shape_h2, shape_h1, shape_h2)
    )


def _half(seq, side: str):
    """Side "q" or "a"'s half of w3 or of the dropout masks (None: two Nones)."""
    if seq is None:
        return None, None
    half = len(seq) // 2
    return seq[:half] if side == "q" else seq[half:]


def _tower(net: SimilarityNetwork, x: np.ndarray, side: str,
           masks=None) -> tuple[TowerTrace, np.ndarray]:
    """Question ("q") or answer ("a") tower on (batch, d) rows: its trace,
    and the side's head term, h2 times its half of w3."""
    m1, m2 = _half(masks, side)
    a1 = _act(x @ getattr(net, "w1" + side).T + getattr(net, "b1" + side), net.activation)
    h1 = a1 * m1 if m1 is not None else a1
    a2 = _act(h1 @ getattr(net, "w2" + side).T + getattr(net, "b2" + side), net.activation)
    h2 = a2 * m2 if m2 is not None else a2
    return TowerTrace(x, a1, h1, a2, h2), h2 @ _half(net.w3, side)


def _as_rows(f: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(f, dtype=np.float64))
    if not np.isfinite(x).all():
        raise ValueError("input features must be finite")
    return x


def head_terms(net: SimilarityNetwork, f: np.ndarray, side: str) -> np.ndarray:
    """Head term, without dropout, of each feature row on side "q" or "a".

    The logit is question term + answer term + b3, so one side's terms can
    be computed once and paired with any row of the other side.
    """
    return _tower(net, _as_rows(f), side)[1]


def probabilities(net: SimilarityNetwork, q_terms: np.ndarray,
                  a_terms: np.ndarray) -> np.ndarray:
    """Match probabilities from head terms, summed in `forward`'s order."""
    return _sigmoid(q_terms + a_terms + net.b3[0])


def forward(net: SimilarityNetwork, f_q: np.ndarray, f_a: np.ndarray,
            dropout_p: float = 0.0, seed: int = 0, masks=None) -> ForwardTrace:
    """Run both towers and the head; records everything for backprop.

    Inputs may be single d-vectors or (batch, d) arrays.  With dropout_p
    > 0, inverted dropout masks drawn from `seed` are applied to both
    hidden layers of both towers; passing `masks` replays a previous
    trace exactly.  Otherwise no masks and no rescaling are applied.
    """
    x_q = _as_rows(f_q)
    x_a = _as_rows(f_a)
    if x_q.shape != x_a.shape:
        raise ValueError(f"feature shapes differ: {x_q.shape} vs {x_a.shape}")

    if masks is None and dropout_p > 0.0:
        _, h1, h2 = net.layer_dims
        masks = draw_dropout_masks((len(x_q), h1), (len(x_q), h2), dropout_p, seed)

    q, q_term = _tower(net, x_q, "q", masks)
    a, a_term = _tower(net, x_a, "a", masks)
    u = q_term + a_term + net.b3[0]
    return ForwardTrace(q=q, a=a, masks=masks, logit=u, y_prime=_sigmoid(u))


def _forward_loss(net: SimilarityNetwork, f_q, f_a, y, lam: float, dropout_p: float,
                  seed, masks) -> tuple[ForwardTrace, np.ndarray, float]:
    """The trace, the labels as a float array, and the loss of one batch."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.size == 0:
        raise ValueError("batch must be non-empty")
    trace = forward(net, f_q, f_a, dropout_p, seed, masks)
    yc = np.clip(trace.y_prime, EPS, 1.0 - EPS)
    bce = -(y * np.log(yc) + (1.0 - y) * np.log(1.0 - yc))
    # diverged weights overflow to inf here; callers check the loss is finite
    with np.errstate(over="ignore"):
        return trace, y, float(bce.mean() + lam * np.dot(net.w3, net.w3))


def loss(net: SimilarityNetwork, f_q: np.ndarray, f_a: np.ndarray, y: np.ndarray,
         lam: float = 0.0, dropout_p: float = 0.0, seed: int = 0, masks=None) -> float:
    """Mean clamped binary cross-entropy plus lam * ||w3||^2.

    With dropout_p > 0 (or explicit masks) the forward pass applies
    dropout; the masks depend only on (seed, shapes), never on parameter
    values, so the loss stays differentiable in the parameters.
    """
    return _forward_loss(net, f_q, f_a, y, lam, dropout_p, seed, masks)[2]


def _tower_grads(net: SimilarityNetwork, t: TowerTrace, g_u: np.ndarray, side: str,
                 masks) -> dict[str, np.ndarray]:
    """Gradients of one tower's four parameters from its trace and the
    head residual g_u, reusing the activations the forward pass kept."""
    m1, m2 = _half(masks, side)
    dh2 = np.outer(g_u, _half(net.w3, side))
    da2 = dh2 * m2 if m2 is not None else dh2
    dz2 = da2 * _act_grad(t.a2, net.activation)
    dh1 = dz2 @ getattr(net, "w2" + side)
    da1 = dh1 * m1 if m1 is not None else dh1
    dz1 = da1 * _act_grad(t.a1, net.activation)
    return {"w1" + side: dz1.T @ t.x, "b1" + side: dz1.sum(axis=0),
            "w2" + side: dz2.T @ t.h1, "b2" + side: dz2.sum(axis=0)}


def gradients(net: SimilarityNetwork, f_q: np.ndarray, f_a: np.ndarray, y: np.ndarray,
              lam: float = 0.0, dropout_p: float = 0.0, seed: int = 0,
              masks=None) -> tuple[dict[str, np.ndarray], float]:
    """Exact analytic gradients of `loss` for every parameter.

    Returns (gradient dict keyed like net.params(), pre-update loss).
    The l2 regularizer contributes 2*lam*w3 to the head weights only.
    Where the clamp saturates the predicted probability, the gradient of
    the clamped loss is exactly zero, matching finite differences.
    """
    trace, y, value = _forward_loss(net, f_q, f_a, y, lam, dropout_p, seed, masks)
    yp = trace.y_prime
    clamped = (yp < EPS) | (yp > 1.0 - EPS)
    g_u = np.where(clamped, 0.0, yp - y) / len(yp)

    grads = {**_tower_grads(net, trace.q, g_u, "q", trace.masks),
             **_tower_grads(net, trace.a, g_u, "a", trace.masks)}
    grads["w3"] = np.concatenate([trace.q.h2.T @ g_u, trace.a.h2.T @ g_u]) + 2.0 * lam * net.w3
    grads["b3"] = np.array([g_u.sum()])
    return grads, value


# ---------------------------------------------------------------------------
# Binary model format
# ---------------------------------------------------------------------------

_SIM_MAGIC = b"SIM1"
_SIM_HEADER = "<4sIIIB"
_ACT_FLAG = {Activation.TANH: 0, Activation.RELU: 1}


def save_simnet(net: SimilarityNetwork, path) -> None:
    d, h1, h2 = net.layer_dims
    write_model(path, _SIM_HEADER, (_SIM_MAGIC, d, h1, h2, _ACT_FLAG[net.activation]),
                net.params().values())


def load_simnet(path) -> SimilarityNetwork:
    (_, _, _, activation), arrays = read_model(path, _SIM_HEADER, _SIM_MAGIC, "similarity-network",
                                               _param_shapes, ("activation", _ACT_FLAG))
    return SimilarityNetwork(**arrays, activation=activation)
