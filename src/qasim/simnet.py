"""Two-tower similarity network with exact analytic gradients.

A question tower and an answer tower (independent weights) each map a
feature vector through two hidden layers; the second-layer outputs are
concatenated and a sigmoid head produces the match probability.  The
training loss is mean binary cross-entropy plus an l2 penalty on the
head weights only.  Backpropagation is hand-derived and verified against
finite differences in the test suite.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

import numpy as np

from .modelfile import read_model, write_model

EPS = 1e-7  # probability clamp applied before the cross-entropy logs


class Activation(str, Enum):
    TANH = "tanh"
    RELU = "relu"


def _param_shapes(d: int, h1: int, h2: int, *_) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, in file and draw order; later header fields are ignored."""
    if min(d, h1, h2) < 1:
        raise ValueError(f"layer sizes must be >= 1, got d={d}, h1={h1}, h2={h2}")
    return {"w1q": (h1, d), "b1q": (h1,), "w2q": (h2, h1), "b2q": (h2,),
            "w1a": (h1, d), "b1a": (h1,), "w2a": (h2, h1), "b2a": (h2,),
            "w3": (2 * h2,), "b3": (1,)}


class SimilarityNetwork(dict):
    """Parameters of both towers and the decision head in one float64
    buffer `flat`.  As a dict, and as attributes, each name of
    `_param_shapes` gives its view: w1 (h1, d), w2 (h2, h1) per tower,
    w3 (2*h2,) and b3 (1,) for the head.  The answer tower's part of
    `flat` follows the question tower's, laid out alike, so `stacked`
    views both as W1 (2, h1, d), B1 (2, 1, h1), W2 (2, h2, h1) and
    B2 (2, 1, h2), question first, then w3 as W3 (2, h2, 1).  Assigning
    to a named field copies the value in.
    """

    def __init__(self, activation: Activation = Activation.TANH, **arrays: np.ndarray):
        h1, d = np.shape(arrays["w1q"])
        self._bind((d, h1, len(arrays["b2q"])), None, activation)
        if set(arrays) != set(self):
            raise TypeError(f"need exactly the parameters {list(self)}")
        for name, view in self.items():
            view[...] = arrays[name]

    @classmethod
    def _of(cls, dims: tuple, flat: np.ndarray | None, activation) -> "SimilarityNetwork":
        net = cls.__new__(cls)
        net._bind(dims, flat, activation)
        return net

    def _bind(self, dims: tuple, flat: np.ndarray | None, activation) -> None:
        d, h1, h2 = self.layer_dims = dims
        t = h1 * (d + 1 + h2) + h2                 # one tower's size
        self.flat = np.empty(2 * t + 2 * h2 + 1) if flat is None else flat
        self.activation = Activation(activation)
        tower = self.flat[:2 * t].reshape(2, t)
        a, b = h1 * d, h1 * (d + 1)
        self.stacked = W1, B1, W2, B2, _ = (
            tower[:, :a].reshape(2, h1, d), tower[:, None, a:b],
            tower[:, b:t - h2].reshape(2, h2, h1), tower[:, None, t - h2:],
            self.flat[2 * t:-1].reshape(2, h2, 1))
        self.update(w1q=W1[0], b1q=B1[0, 0], w2q=W2[0], b2q=B2[0, 0],
                    w1a=W1[1], b1a=B1[1, 0], w2a=W2[1], b2a=B2[1, 0],
                    w3=self.flat[2 * t:-1], b3=self.flat[-1:])

    def copy(self) -> "SimilarityNetwork":
        return self._of(self.layer_dims, self.flat.copy(), self.activation)

    def __deepcopy__(self, memo) -> "SimilarityNetwork":
        return self.copy()                 # member-wise, the views would lose their buffer


for _name in _param_shapes(1, 1, 1):
    setattr(SimilarityNetwork, _name, property(
        lambda net, name=_name: net[name],
        lambda net, value, name=_name: net[name].__setitem__(..., value)))

# What the backward pass needs, both towers stacked question first: inputs
# x (2, batch, d), per layer the activation a and the output h after the
# stacked (h1, h2) masks, and the score.
ForwardTrace = namedtuple("ForwardTrace", "x a1 h1 a2 h2 masks logit y_prime")


def init_network(d: int, std: float = 0.03, bias_const: float = 0.1, seed: int = 0,
                 hidden1: int = 50, hidden2: int = 20,
                 activation: Activation = Activation.TANH) -> SimilarityNetwork:
    """Gaussian N(0, std^2) weights and constant biases, seeded.

    Weights are drawn in the order w1q, w2q, w1a, w2a, w3 so equal seeds
    give identical networks.
    """
    _param_shapes(d, hidden1, hidden2)          # rejects a layer of size < 1
    if std <= 0:
        raise ValueError("std must be > 0")
    rng = np.random.default_rng(seed)
    net = SimilarityNetwork._of((d, hidden1, hidden2), None, activation)
    for name, view in net.items():
        view[...] = rng.normal(0.0, std, view.shape) if name.startswith("w") else bias_const
    return net


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0, else exp(x) / (1 + exp(x)): no overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _act(z: np.ndarray, activation: Activation) -> np.ndarray:
    return np.tanh(z) if activation is Activation.TANH else np.maximum(z, 0.0)


def _act_grad(a: np.ndarray, activation: Activation) -> np.ndarray:
    """Derivative of the activation, from its output a: relu's a > 0 iff z > 0."""
    return 1.0 - a * a if activation is Activation.TANH else (a > 0).astype(np.float64)


def draw_dropout_masks(shape_h1: tuple, shape_h2: tuple, dropout_p: float, seed):
    """Inverted-dropout masks (h1, h2), each stacked question tower first:
    (2, *shape_h1) and (2, *shape_h2).  One draw gives h1q, h2q, h1a, h2a
    in that order; dropout_p must lie in [0, 1)."""
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout_p must lie in [0, 1), got {dropout_p}")
    s1 = math.prod(shape_h1)
    masks = ((np.random.default_rng(seed).random((2, s1 + math.prod(shape_h2))) >= dropout_p)
             / (1.0 - dropout_p))
    return masks[:, :s1].reshape(2, *shape_h1), masks[:, s1:].reshape(2, *shape_h2)


def _towers(stacked, x: np.ndarray, activation: Activation, masks=None) -> tuple:
    """The towers that `stacked` (a network's `stacked`, or its slice) holds
    on stacked (towers, batch, d) rows: per layer the activation and the
    output after the stacked `masks`, then the head terms (towers,
    batch, 1), h2 times the tower's half of w3."""
    W1, B1, W2, B2, W3 = stacked
    # out of place on purpose: written in place, the freed temporaries of a
    # 5,000-answer index stayed resident under glibc malloc (+2.5 MB peak RSS)
    a1 = _act(np.matmul(x, W1.transpose(0, 2, 1)) + B1, activation)
    h1 = a1 * masks[0] if masks is not None else a1
    a2 = _act(np.matmul(h1, W2.transpose(0, 2, 1)) + B2, activation)
    h2 = a2 * masks[1] if masks is not None else a2
    return a1, h1, a2, h2, np.matmul(h2, W3)


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
    i = {"q": 0, "a": 1}[side]
    tower = [view[i:i + 1] for view in net.stacked]
    return _towers(tower, _as_rows(f)[None], net.activation)[-1][0, :, 0]


def probabilities(net: SimilarityNetwork, q_terms: np.ndarray,
                  a_terms: np.ndarray) -> np.ndarray:
    """Match probabilities from head terms, summed in `forward`'s order."""
    return _sigmoid(q_terms + a_terms + net.b3[0])


def _stack_rows(f_q: np.ndarray, f_a: np.ndarray) -> np.ndarray:
    """Both sides' feature rows, checked, stacked question first: (2, batch, d)."""
    x_q, x_a = _as_rows(f_q), _as_rows(f_a)
    if x_q.shape != x_a.shape:
        raise ValueError(f"feature shapes differ: {x_q.shape} vs {x_a.shape}")
    return np.stack((x_q, x_a))


def forward(net: SimilarityNetwork, f_q: np.ndarray, f_a: np.ndarray,
            dropout_p: float = 0.0, seed: int = 0, masks=None) -> ForwardTrace:
    """Run both towers and the head; records everything for backprop.

    Inputs may be single d-vectors or (batch, d) arrays.  With dropout_p
    > 0, inverted dropout masks drawn from `seed` are applied to both
    hidden layers of both towers; passing `masks`, a trace's or
    `draw_dropout_masks`'s, replays that trace exactly.  Otherwise no
    masks and no rescaling are applied.
    """
    x = _stack_rows(f_q, f_a)
    if masks is None and dropout_p:          # a dropout_p outside [0, 1) raises in the draw
        _, h1, h2 = net.layer_dims
        masks = draw_dropout_masks((x.shape[1], h1), (x.shape[1], h2), dropout_p, seed)
    a1, h1, a2, h2, terms = _towers(net.stacked, x, net.activation, masks)
    u = terms[0, :, 0] + terms[1, :, 0] + net.flat[-1]
    return ForwardTrace(x, a1, h1, a2, h2, masks, u, _sigmoid(u))


def _trace_loss(net: SimilarityNetwork, trace: ForwardTrace, y,
                lam: float) -> tuple[np.ndarray, float]:
    """The labels as a float array, and `loss` of the batch that `trace` ran."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.size == 0:
        raise ValueError("batch must be non-empty")
    yc = np.clip(trace.y_prime, EPS, 1.0 - EPS)
    bce = -(y * np.log(yc) + (1.0 - y) * np.log(1.0 - yc))
    # diverged weights overflow to inf (and lam 0 * inf to NaN); callers check the loss
    with np.errstate(over="ignore", invalid="ignore"):
        return y, float(bce.mean() + lam * np.dot(net.w3, net.w3))


def loss(net: SimilarityNetwork, f_q: np.ndarray, f_a: np.ndarray, y: np.ndarray,
         lam: float = 0.0, dropout_p: float = 0.0, seed: int = 0, masks=None) -> float:
    """Mean clamped binary cross-entropy plus lam * ||w3||^2.

    With dropout_p > 0 (or explicit masks) the forward pass applies
    dropout; the masks depend only on (seed, shapes), never on parameter
    values, so the loss stays differentiable in the parameters.
    """
    return _trace_loss(net, forward(net, f_q, f_a, dropout_p, seed, masks), y, lam)[1]


def gradients(net: SimilarityNetwork, f_q: np.ndarray, f_a: np.ndarray, y: np.ndarray,
              lam: float = 0.0, dropout_p: float = 0.0, seed: int = 0,
              masks=None) -> tuple[SimilarityNetwork, float]:
    """Exact analytic gradients of `loss` for every parameter.

    Returns (the gradients, a network over a new buffer whose every
    parameter holds its own gradient; the pre-update loss).  The l2
    regularizer contributes 2*lam*w3 to the head weights only.  Where the
    clamp saturates the predicted probability, the gradient of the
    clamped loss is exactly zero, matching finite differences.
    """
    t = forward(net, f_q, f_a, dropout_p, seed, masks)
    y, value = _trace_loss(net, t, y, lam)
    yp = t.y_prime
    clamped = (yp < EPS) | (yp > 1.0 - EPS)
    g_u = np.where(clamped, 0.0, yp - y) / len(yp)

    # both towers at once, reusing the activations the forward pass kept
    W1, B1, W2, B2, W3 = net.stacked
    grads = SimilarityNetwork._of(net.layer_dims, None, net.activation)
    gW1, gB1, gW2, gB2, gW3 = grads.stacked
    m1, m2 = t.masks or (1.0, 1.0)         # x * 1.0 is x
    dz2 = g_u[:, None] * W3.transpose(0, 2, 1)
    dz2 *= m2
    dz2 *= _act_grad(t.a2, net.activation)
    dz1 = np.matmul(dz2, W2)
    dz1 *= m1
    dz1 *= _act_grad(t.a1, net.activation)
    np.matmul(dz1.transpose(0, 2, 1), t.x, out=gW1)
    np.add.reduce(dz1, axis=1, keepdims=True, out=gB1)
    np.matmul(dz2.transpose(0, 2, 1), t.h1, out=gW2)
    np.add.reduce(dz2, axis=1, keepdims=True, out=gB2)
    np.matmul(t.h2.transpose(0, 2, 1), g_u[:, None], out=gW3)
    gW3 += 2.0 * lam * W3
    grads.flat[-1] = g_u.sum()
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
                net.values())


def load_simnet(path) -> SimilarityNetwork:
    (_, _, _, activation), arrays = read_model(path, _SIM_HEADER, _SIM_MAGIC, "similarity-network",
                                               _param_shapes, ("activation", _ACT_FLAG))
    return SimilarityNetwork(**arrays, activation=activation)
