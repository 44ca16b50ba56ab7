"""Reference similarity network: the two-pass formulation, one tower at a
time over ten separate arrays, four mask draws and one update per
parameter.  The stacked kernels in `qasim.simnet` and `qasim.training`
must match it bit for bit."""

import numpy as np

from qasim import simnet, training


def _act(z, activation):
    return np.tanh(z) if activation is simnet.Activation.TANH else np.maximum(z, 0.0)


def _act_grad(a, activation):
    return 1.0 - a * a if activation is simnet.Activation.TANH else (a > 0).astype(np.float64)


def _half(seq, side):
    if seq is None:
        return None, None
    half = len(seq) // 2
    return seq[:half] if side == "q" else seq[half:]


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def masks(shape_h1, shape_h2, dropout_p, seed):
    """(h1q, h2q, h1a, h2a), one draw each."""
    rng = np.random.default_rng(seed)
    return tuple((rng.random(shape) >= dropout_p) / (1.0 - dropout_p)
                 for shape in (shape_h1, shape_h2, shape_h1, shape_h2))


def tower(p, x, side, activation, tower_masks=None):
    """One tower's (x, a1, h1, a2, h2) and its head term."""
    m1, m2 = _half(tower_masks, side)
    a1 = _act(x @ p["w1" + side].T + p["b1" + side], activation)
    h1 = a1 * m1 if m1 is not None else a1
    a2 = _act(h1 @ p["w2" + side].T + p["b2" + side], activation)
    h2 = a2 * m2 if m2 is not None else a2
    return (x, a1, h1, a2, h2), h2 @ _half(p["w3"], side)


def forward(p, fq, fa, activation, tower_masks=None):
    """Both towers' traces and the match probabilities."""
    q, q_term = tower(p, fq, "q", activation, tower_masks)
    a, a_term = tower(p, fa, "a", activation, tower_masks)
    return q, a, _sigmoid(q_term + a_term + p["b3"][0])


def gradients(p, fq, fa, y, activation, lam=0.0, tower_masks=None):
    """(gradient of every parameter, loss) of one batch."""
    q, a, yp = forward(p, fq, fa, activation, tower_masks)
    yc = np.clip(yp, simnet.EPS, 1.0 - simnet.EPS)
    bce = -(y * np.log(yc) + (1.0 - y) * np.log(1.0 - yc))
    value = float(bce.mean() + lam * np.dot(p["w3"], p["w3"]))
    clamped = (yp < simnet.EPS) | (yp > 1.0 - simnet.EPS)
    g_u = np.where(clamped, 0.0, yp - y) / len(yp)
    grads = {}
    for side, (x, a1, h1, a2, _) in (("q", q), ("a", a)):
        m1, m2 = _half(tower_masks, side)
        dh2 = np.outer(g_u, _half(p["w3"], side))
        da2 = dh2 * m2 if m2 is not None else dh2
        dz2 = da2 * _act_grad(a2, activation)
        dh1 = dz2 @ p["w2" + side]
        da1 = dh1 * m1 if m1 is not None else dh1
        dz1 = da1 * _act_grad(a1, activation)
        grads.update({"w1" + side: dz1.T @ x, "b1" + side: dz1.sum(axis=0),
                      "w2" + side: dz2.T @ h1, "b2" + side: dz2.sum(axis=0)})
    grads["w3"] = np.concatenate([q[4].T @ g_u, a[4].T @ g_u]) + 2.0 * lam * p["w3"]
    grads["b3"] = np.array([g_u.sum()])
    return {name: grads[name] for name in p}, value


def _pair_accuracy(p, activation, q, a, y):
    q_terms = tower(p, q[0], "q", activation)[1][q[1]]
    a_terms = tower(p, a[0], "a", activation)[1][a[1]]
    scores = _sigmoid(q_terms + a_terms + p["b3"][0])
    return float(np.mean((scores >= 0.5) == (y == 1.0)))


def train(train_pairs, val_pairs, features, config):
    """`training.train_simnet`, one tower and one parameter at a time:
    (the best epoch's parameters as a dict, the report)."""
    train_rows = training._pair_rows(train_pairs, features)
    val_rows = training._pair_rows(val_pairs, features)
    (q_rows, q_of_pair), (a_rows, a_of_pair), y = train_rows
    fq, fa = q_rows[q_of_pair], a_rows[a_of_pair]
    rng = np.random.default_rng(config.seed)
    net = simnet.init_network(fq.shape[1], std=config.init_std, bias_const=config.bias_const,
                              seed=config.seed, activation=config.activation)
    p = {name: view.copy() for name, view in net.items()}
    _, h1, h2 = net.layer_dims
    report = training.TrainReport(planned_epochs=config.max_epochs)
    best, best_val, bad_epochs, n = None, -1.0, 0, len(train_pairs)
    for epoch in range(config.max_epochs):
        lr = training.lr_at_epoch(config, epoch)
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            tower_masks = (masks((len(idx), h1), (len(idx), h2), config.dropout_p, rng)
                           if config.dropout_p > 0.0 else None)
            grads, value = gradients(p, fq[idx], fa[idx], y[idx], config.activation,
                                     config.lam, tower_masks)
            for name in p:
                p[name] -= lr * grads[name]
            losses.append(value)
        val_acc = _pair_accuracy(p, config.activation, *val_rows)
        report.epochs.append(training.EpochStats(
            epoch=epoch, lr=lr, train_loss=float(np.mean(losses)),
            train_acc=_pair_accuracy(p, config.activation, *train_rows), val_acc=val_acc))
        if val_acc > best_val:
            best, best_val, report.best_epoch, bad_epochs = (
                {name: arr.copy() for name, arr in p.items()}, val_acc, epoch, 0)
        else:
            bad_epochs += 1
            if bad_epochs > config.early_stop_patience:
                report.stopping_reason = "early_stopping"
                return best, report
    report.stopping_reason = "max_epochs"
    return best, report
