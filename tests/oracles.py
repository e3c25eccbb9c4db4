"""Independent reference implementations used to check the real code.

Everything here is written as plainly as possible (explicit loops,
scalar math) and stays independent of the implementation paths it
verifies. The `*_composed` references are the unfused tape compositions
of generic ops that the fused layers replace: ndcore's own, and the ones
ndcore no longer records, built below on `_make`.
"""

import math

import numpy as np

from notemort.cohort import (
    N_TS_VARIABLES, TIMESERIES_COLUMNS, TS_NORMALS, TS_ROW, TS_VARIABLES, _parse_observation,
    standardize_values,
)
from notemort.errors import DataError
from notemort.models import SPATIAL_DROPOUT, lookup_note_embeddings, temporal_forward
from notemort.ndcore import (
    Tensor, batchnorm, concat, conv1d, dense_sigmoid, fold_batchnorm, spatial_dropout,
)
from notemort.ndcore.layers import HEAD_EPS
from notemort.ndcore.tensor import _make, _sigmoid, _unbroadcast
from notemort.notesproc import PAD_ID, read_csv_records, write_csv_records
from notemort.traineval import BCE_EPS


# -- tape ops the composed references are written in ------------------------------
# ndcore records none of these itself any more; each is the generic node
# the fused layers replaced, checked by finite differences in test_tensor.py.


def matmul(a, b):
    def back(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape), fresh=True)
        if b.requires_grad:
            b._accum(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape), fresh=True)

    return _make(a.data @ b.data, (a, b), "matmul", back)


def div(a, b):
    def back(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.shape), fresh=True)
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.shape), fresh=True)

    return _make(a.data / b.data, (a, b), "div", back)


def log(x):
    return _make(np.log(x.data), (x,), "log", lambda g: x._accum(g / x.data, fresh=True))


def sqrt(x):
    value = np.sqrt(x.data)
    return _make(value, (x,), "sqrt", lambda g: x._accum(g / (2.0 * value), fresh=True))


def tanh(x):
    value = np.tanh(x.data)
    return _make(value, (x,), "tanh", lambda g: x._accum(g * (1.0 - value * value), fresh=True))


def sigmoid(x):
    value = _sigmoid(x.data)
    return _make(value, (x,), "sigmoid", lambda g: x._accum(g * value * (1.0 - value), fresh=True))


def relu(x):
    return _make(
        np.maximum(x.data, 0.0), (x,), "relu", lambda g: x._accum(g * (x.data > 0.0), fresh=True)
    )


def clip(x, lo, hi):
    """Clamp values; the gradient is zero outside [lo, hi]."""
    return _make(
        np.clip(x.data, lo, hi), (x,), "clip",
        lambda g: x._accum(g * ((x.data >= lo) & (x.data <= hi)), fresh=True),
    )


def stack(tensors, axis=0):
    def back(g):
        for t, part in zip(tensors, np.moveaxis(g, axis, 0)):
            if t.requires_grad:
                t._accum(part)

    return _make(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), "stack", back)


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
        zeros = Tensor(np.zeros(x.shape[:-2] + (pad, x.shape[-1])))
        x = concat([zeros, x, zeros], axis=-2)
    out = None
    for k in range(k_size):
        term = matmul(x[..., k : k + length, :], kernels[k])
        out = term if out is None else out + term
    return out + params.bias


def conv1d_unrolled(x, params):
    """conv1d as one plain unrolled-window GEMM per leading index, as a
    tape node whose backward builds every gradient in new arrays.

    The arithmetic of `_ConvGemm` (the same columns, one GEMM per note,
    the same order of sums), so it carries the fused op's bits, but
    without column chunks, a reused column buffer or an input gradient
    written over the output gradient.
    """
    kernels, bias = params.kernels.data, params.bias.data
    k_size, c_in, c_out = kernels.shape
    length = x.shape[-2]
    pad = (k_size - 1) // 2
    xs = x.data.reshape(-1, length, c_in)
    w2 = kernels.reshape(k_size * c_in, c_out)
    cols = []
    for note in xs:
        c = np.zeros((length, k_size, c_in))
        for k in range(k_size):
            for i in range(length):
                if 0 <= i + k - pad < length:
                    c[i, k] = note[i + k - pad]
        cols.append(c.reshape(length, -1))
    out = np.stack([c @ w2 for c in cols])
    out += bias

    def back(g):
        g = g.reshape(out.shape)
        if params.bias.requires_grad:
            params.bias._accum(g.sum(axis=(0, 1)), fresh=True)
        if params.kernels.requires_grad:
            dw = np.zeros_like(w2)
            for c, g_n in zip(cols, g):
                dw += c.T @ g_n
            params.kernels._accum(dw.reshape(kernels.shape), fresh=True)
        if x.requires_grad:
            dx = np.zeros_like(xs)
            for n, g_n in enumerate(g):
                gcols = (g_n @ w2.T).reshape(length, k_size, c_in)
                for k in range(k_size):
                    shift = k - pad
                    lo, hi = max(-shift, 0), min(length, length - shift)
                    dx[n, lo + shift : hi + shift] += gcols[lo:hi, k]
            x._accum(dx.reshape(x.shape), fresh=True)

    return _make(out.reshape(x.shape[:-1] + (c_out,)), (x, params.kernels, params.bias),
                 "conv1d_unrolled", back)


def batchnorm_train_composed(x, params):
    """Train-mode batchnorm as the plain mean/var/sqrt node chain the
    fused op replaces, with the same running-statistics update."""
    axes = tuple(range(x.data.ndim - 1))
    count = int(np.prod(x.shape[:-1]))
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    xhat = div(centered, sqrt(var + params.eps))
    mom = params.momentum
    params.running_mean *= mom
    params.running_mean += (1.0 - mom) * mu.data.reshape(-1)
    params.running_var *= mom
    params.running_var += (1.0 - mom) * var.data.reshape(-1) * (count / (count - 1))
    return params.gamma * xhat + params.beta


def batchnorm_eval_composed(x, params):
    """Eval-mode batchnorm as the four-node chain over the running
    statistics that the folded convolution replaces."""
    scale = 1.0 / np.sqrt(params.running_var + params.eps)
    xhat = (x - params.running_mean) * scale
    return params.gamma * xhat + params.beta


def add_relu_composed(a, b):
    """The residual join as the generic add and relu nodes that the
    conv blocks replace."""
    return relu(a + b)


def global_avg_pool_composed(x, mask):
    """Masked mean pooling as the mul/sum/div node chain the pooling
    node replaces."""
    mask = np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=-1)
    weights = Tensor(mask.astype(np.float64)[..., None])
    return div((x * weights).sum(axis=-2), Tensor(counts[..., None]))


def conv_block_train_composed(x, conv, norm, shortcut, *, p, rng, conv_op=conv1d):
    """The train-mode residual conv block as the chain of separate nodes
    `conv_block_train` replaces: conv1d, spatial dropout, batchnorm, the
    shortcut (x or a 1x1 projection), then the generic add and relu.
    `conv_op` runs both convolutions (`conv1d_unrolled` keeps every
    gradient in new arrays)."""
    y = conv_op(x, conv)
    y = spatial_dropout(y, p, training=True, rng=rng)
    y = batchnorm(y, norm, training=True)
    return add_relu_composed(y, x if shortcut is None else conv_op(x, shortcut))


def conv_block_eval_composed(x, conv, shortcut):
    """The eval-mode residual conv block over folded parameters as the
    separate nodes `conv1d(..., residual=True)` replaces: conv1d over
    every row, the shortcut (x or a 1x1 projection), then the generic add
    and relu."""
    return add_relu_composed(conv1d(x, conv), x if shortcut is None else conv1d(x, shortcut))


def _notes_forward(model, cfg, embeddings, ids, block_op):
    """models.forward for a notes-hcr model with each conv block as
    `block_op(x, block)` and the pooling as generic tape nodes."""
    n_files, n_notes, note_len = ids.shape
    flat_ids = ids.reshape(n_files * n_notes, note_len)
    x = lookup_note_embeddings(flat_ids, embeddings)
    for block in model.semantical:
        x = block_op(x, block)
    docs = global_avg_pool_composed(x, flat_ids != PAD_ID)
    docs = docs.reshape((n_files, n_notes, cfg.filters))
    return dense_sigmoid(temporal_forward(docs, model.temporal), model.head)


def notes_forward_composed(model, cfg, embeddings, ids, *, training, rng=None):
    """models.forward for a notes-hcr model with each block as separate
    nodes (`conv_block_train_composed` in train mode; in eval mode
    `batchnorm_eval_composed` after the unfolded convolution, then the
    generic add and relu) and the pooling as generic tape nodes."""
    def block_op(x, block):
        if training:
            return conv_block_train_composed(
                x, block.conv, block.norm, block.shortcut, p=SPATIAL_DROPOUT, rng=rng
            )
        y = batchnorm_eval_composed(conv1d(x, block.conv), block.norm)
        return add_relu_composed(y, x if block.shortcut is None else conv1d(x, block.shortcut))

    return _notes_forward(model, cfg, embeddings, ids, block_op)


def notes_forward_folded(model, cfg, embeddings, ids):
    """Eval-mode models.forward for a notes-hcr model with each block as
    `conv_block_eval_composed` over the `fold_batchnorm` parameters: the
    folded chain with every row of every note computed."""
    return _notes_forward(
        model, cfg, embeddings, ids,
        lambda x, block: conv_block_eval_composed(
            x, fold_batchnorm(block.conv, block.norm), block.shortcut
        ),
    )


def sigmoid_masked(x):
    """The logistic function by boolean-mask scatter: 1 / (1 + exp(-x))
    where x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gru_step_composed(x, h_prev, params):
    """One GRU step as generic tape ops. x: [..., D], h_prev: [..., H].

    z = sigma(W_z x + U_z h + b_z); r = sigma(W_r x + U_r h + b_r);
    cand = tanh(W_h x + U_h (r*h) + b_h); h' = (1-z)*h + z*cand.
    """
    z = sigmoid(matmul(x, params.w_z) + matmul(h_prev, params.u_z) + params.b_z)
    r = sigmoid(matmul(x, params.w_r) + matmul(h_prev, params.u_r) + params.b_r)
    cand = tanh(matmul(x, params.w_h) + matmul(r * h_prev, params.u_h) + params.b_h)
    return (-z + 1.0) * h_prev + z * cand


def bigru_composed(seq, params):
    """bigru as the per-step tape composition the fused op replaces:
    one direction after the other, then stack/concat of the states."""
    squeeze = seq.data.ndim == 2
    if squeeze:
        seq = seq.reshape((1,) + seq.shape)
    batch, steps, _ = seq.shape
    hidden = params.fwd.b_z.shape[0]

    def run(direction, order):
        h = Tensor(np.zeros((batch, hidden)))
        states = []
        for t in order:
            h = gru_step_composed(seq[:, t, :], h, direction)
            states.append(h)
        return states

    states_f = run(params.fwd, range(steps))
    states_b = run(params.bwd, range(steps - 1, -1, -1))
    states_b.reverse()
    outputs = stack(
        [concat([hf, hb], axis=-1) for hf, hb in zip(states_f, states_b)], axis=1
    )
    final = concat([states_f[-1], states_b[0]], axis=-1)
    if squeeze:
        outputs = outputs.reshape(outputs.shape[1:])
        final = final.reshape(final.shape[1:])
    return outputs, final


def l2_penalty_composed(weights, lam):
    """lam * sum of squares as the mul/sum/add node chain the fused
    l2_penalty replaces."""
    total = None
    for w in weights:
        term = (w * w).sum()
        total = term if total is None else total + term
    return total * lam


def dense_sigmoid_composed(x, params):
    """The sigmoid head as the matmul / add / sigmoid / clip / reshape
    node chain the fused dense_sigmoid replaces."""
    out = clip(sigmoid(matmul(x, params.weight) + params.bias), HEAD_EPS, 1.0 - HEAD_EPS)
    return out.reshape(out.shape[:-1])


def weighted_bce_composed(probs, labels, w_pos, w_neg):
    """The class-weighted BCE as the clip / log / mul / add / mean node
    chain the fused weighted_bce replaces."""
    y = np.asarray(labels, dtype=np.float64)
    p = clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    losses = -(w_pos * y * log(p) + w_neg * (1.0 - y) * log(-p + 1.0))
    return losses.mean()


def impute_timeseries_per_stay(hadm_id, observations, window_hours):
    """One stay's hourly grid over [0, W) through a `latest` dict:
    observations are (hour, variable index, value); returns the raw
    forward- and normal-filled values [W, F] and the mask."""
    inside = [
        (hour, var, value)
        for hour, var, value in observations
        if 0.0 <= hour < window_hours
    ]
    if not inside:
        raise DataError(f"hadm {hadm_id}: no time-series observation inside window")
    values = np.zeros((window_hours, N_TS_VARIABLES))
    mask = np.zeros((window_hours, N_TS_VARIABLES), dtype=bool)
    latest = {}
    for hour, var, value in inside:
        if not 0 <= var < N_TS_VARIABLES:
            raise DataError(f"hadm {hadm_id}: unknown variable index {var}")
        latest[(int(hour), var)] = value  # later rows win inside a bin
    for (t, var), value in latest.items():
        values[t, var] = value
        mask[t, var] = True
    last = np.maximum.accumulate(np.where(mask, np.arange(window_hours)[:, None], -1), axis=0)
    filled = values[np.maximum(last, 0), np.arange(N_TS_VARIABLES)]
    return np.where(last >= 0, filled, TS_NORMALS), mask


def timeseries_grid_per_stay(rows, hadm_ids, window_hours):
    """Standardized values and mask [S, W, F] one stay at a time: each
    stay's rows gathered in row order, gridded by
    `impute_timeseries_per_stay`, then standardized; a stay without rows
    stays zeros under an all-False mask."""
    observations = {}
    for hadm_id, hour, var, value in rows.tolist():
        observations.setdefault(hadm_id, []).append((hour, var, value))
    shape = (len(hadm_ids), window_hours, N_TS_VARIABLES)
    values, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
    for i, hadm_id in enumerate(hadm_ids):
        if hadm_id in observations:
            raw, mask[i] = impute_timeseries_per_stay(hadm_id, observations[hadm_id], window_hours)
            values[i] = standardize_values(raw)
    return values, mask


def read_timeseries_per_row(path):
    """The time-series table parsed one row at a time through
    `read_csv_records`, as TS_ROW records."""
    return np.fromiter(read_csv_records(path, TIMESERIES_COLUMNS, _parse_observation), TS_ROW)


def write_timeseries_per_row(path, rows):
    """TS_ROW records written one formatted row at a time by
    `write_csv_records`'s csv.writer."""
    write_csv_records(path, TIMESERIES_COLUMNS, (
        [hadm_id, f"{hour:.2f}", TS_VARIABLES[variable][0], f"{value:.4f}"]
        for hadm_id, hour, variable, value in rows.tolist()
    ))


def collect_pairs_loop(sentence, window, rng):
    """Skip-gram (center, context) pairs by a loop over centers, with
    the radius of each drawn uniformly from [1, window] in one call."""
    n = len(sentence)
    radii = rng.integers(1, window + 1, size=n)
    centers = []
    contexts = []
    for i in range(n):
        lo = max(0, i - int(radii[i]))
        hi = min(n, i + int(radii[i]) + 1)
        for j in range(lo, hi):
            if j != i:
                centers.append(sentence[i])
                contexts.append(sentence[j])
    return (
        np.asarray(centers, dtype=np.int64),
        np.asarray(contexts, dtype=np.int64),
    )


def sgd_batch_add_at(vec_in, vec_out, centers, contexts, negs, lr, _work=None):
    """One skip-gram mini-batch step with every pair's scaled gradient
    added into its row by `np.add.at`; returns the summed pair loss."""
    step = lr / len(centers)
    center_vecs = vec_in[centers]
    ctx_vecs = vec_out[contexts]
    neg_vecs = vec_out[negs]

    pos_score = np.einsum("bd,bd->b", center_vecs, ctx_vecs)
    neg_score = np.einsum("bnd,bd->bn", neg_vecs, center_vecs)
    loss = float(np.logaddexp(0.0, -pos_score).sum() + np.logaddexp(0.0, neg_score).sum())

    g_pos = sigmoid_masked(pos_score) - 1.0
    g_neg = sigmoid_masked(neg_score)

    grad_center = g_pos[:, None] * ctx_vecs + np.einsum("bn,bnd->bd", g_neg, neg_vecs)
    grad_ctx = g_pos[:, None] * center_vecs
    grad_negs = g_neg[..., None] * center_vecs[:, None, :]

    np.add.at(vec_out, contexts, -step * grad_ctx)
    np.add.at(vec_out, negs.reshape(-1), -step * grad_negs.reshape(-1, grad_negs.shape[-1]))
    np.add.at(vec_in, centers, -step * grad_center)
    vec_in[PAD_ID] = 0.0
    vec_out[PAD_ID] = 0.0
    return loss


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
