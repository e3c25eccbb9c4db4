"""Independent reference implementations used to check the real code.

Everything here is written as plainly as possible (explicit loops,
scalar math) and stays independent of the implementation paths it
verifies. The `*_composed` references are the unfused tape compositions
of generic ndcore ops that the fused layers replace.
"""

import math

import numpy as np

from notemort.ndcore import concat, constant


def finite_diff_grad(f, param, h=1e-5):
    """Central finite differences of the scalar f() w.r.t. one tensor.

    Mutates param.data entry by entry, calling f() twice per entry.
    """
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(f().data)
        flat[i] = orig - h
        down = float(f().data)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric):
    """max |a - n| / max(1, |a|, |n|) over all entries."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def conv1d_loops(x, kernels, bias):
    """Naive looped same-padding cross-correlation. x [L, Cin]."""
    length, c_in = x.shape
    k_size, _, c_out = kernels.shape
    pad = (k_size - 1) // 2
    out = np.zeros((length, c_out))
    for i in range(length):
        for k in range(k_size):
            j = i + k - pad
            if 0 <= j < length:
                for co in range(c_out):
                    for ci in range(c_in):
                        out[i, co] += x[j, ci] * kernels[k, ci, co]
    for co in range(c_out):
        out[:, co] += bias[co]
    return out


def conv1d_composed(x, params):
    """conv1d as the plain tape composition the fused op replaces.

    Zero-pads the lexical axis by concatenating constant zeros, then
    sums one slice @ kernels[k] node per tap and adds the bias.
    """
    kernels = params.kernels
    k_size = kernels.shape[0]
    length = x.shape[-2]
    pad = (k_size - 1) // 2
    if pad:
        zeros = constant(np.zeros(x.shape[:-2] + (pad, x.shape[-1])))
        x = concat([zeros, x, zeros], axis=-2)
    out = None
    for k in range(k_size):
        term = x[..., k : k + length, :] @ kernels[k]
        out = term if out is None else out + term
    return out + params.bias


def batchnorm_train_composed(x, params):
    """Train-mode batchnorm as the plain mean/var/sqrt node chain the
    fused op replaces, with the same running-statistics update."""
    axes = tuple(range(x.data.ndim - 1))
    count = int(np.prod(x.shape[:-1]))
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    xhat = centered / (var + params.eps).sqrt()
    mom = params.momentum
    params.running_mean *= mom
    params.running_mean += (1.0 - mom) * mu.data.reshape(-1)
    params.running_var *= mom
    params.running_var += (1.0 - mom) * var.data.reshape(-1) * (count / (count - 1))
    return params.gamma * xhat + params.beta


def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def gru_scalar_step(x, h_prev, p):
    """One GRU step with explicit scalar loops. p maps names to arrays."""
    d = len(x)
    hid = len(h_prev)
    z = np.zeros(hid)
    r = np.zeros(hid)
    for j in range(hid):
        acc_z = p["b_z"][j]
        acc_r = p["b_r"][j]
        for i in range(d):
            acc_z += x[i] * p["w_z"][i, j]
            acc_r += x[i] * p["w_r"][i, j]
        for i in range(hid):
            acc_z += h_prev[i] * p["u_z"][i, j]
            acc_r += h_prev[i] * p["u_r"][i, j]
        z[j] = _sig(acc_z)
        r[j] = _sig(acc_r)
    h_new = np.zeros(hid)
    for j in range(hid):
        acc = p["b_h"][j]
        for i in range(d):
            acc += x[i] * p["w_h"][i, j]
        for i in range(hid):
            acc += r[i] * h_prev[i] * p["u_h"][i, j]
        h_new[j] = (1.0 - z[j]) * h_prev[j] + z[j] * math.tanh(acc)
    return h_new


def bigru_scalar(seq, p_fwd, p_bwd):
    """Step-by-step scalar-loop bidirectional GRU over [T, D]."""
    steps = len(seq)
    hid = len(p_fwd["b_z"])

    def run(p, order):
        h = np.zeros(hid)
        states = []
        for t in order:
            h = gru_scalar_step(seq[t], h, p)
            states.append(h)
        return states

    fwd = run(p_fwd, range(steps))
    bwd = run(p_bwd, range(steps - 1, -1, -1))
    bwd.reverse()
    outputs = np.array([np.concatenate([f, b]) for f, b in zip(fwd, bwd)])
    final = np.concatenate([fwd[-1], bwd[0]])
    return outputs, final


def auroc_pairwise(scores, labels):
    """O(P*N) pairwise comparison, ties at half credit."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def auprc_sweep(scores, labels):
    """Average precision by sweeping descending distinct thresholds."""
    scores = list(scores)
    labels = list(labels)
    n_pos = sum(labels)
    total = 0.0
    prev_recall = 0.0
    for threshold in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 0)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        total += (recall - prev_recall) * precision
        prev_recall = recall
    return total
