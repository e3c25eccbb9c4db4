"""Layers used by the note and time-series models.

All layers are stateless functions over explicit parameter containers,
so the same parameters can be shared across many inputs (the per-note
encoder applies one set of weights to every note in a patient file).
Inputs may carry any number of leading batch axes unless noted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, DataError
from .tensor import Tensor, _make, _recording, _sigmoid, concat

# -- parameter containers -----------------------------------------------------


@dataclass
class Conv1dParams:
    """kernels: [K, C_in, C_out], bias: [C_out]."""

    kernels: Tensor
    bias: Tensor


@dataclass
class BatchNormParams:
    """Per-channel scale/shift plus running statistics.

    gamma/beta are trainable; the running statistics are plain arrays
    updated in place during train-mode forwards and read in eval mode.
    """

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.99


@dataclass
class GruDirectionParams:
    """Gate weights for one direction: W_* [D, H], U_* [H, H], b_* [H]."""

    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor

    def all_tensors(self) -> dict[str, Tensor]:
        return {
            "w_z": self.w_z, "u_z": self.u_z, "b_z": self.b_z,
            "w_r": self.w_r, "u_r": self.u_r, "b_r": self.b_r,
            "w_h": self.w_h, "u_h": self.u_h, "b_h": self.b_h,
        }


@dataclass
class BiGruParams:
    fwd: GruDirectionParams
    bwd: GruDirectionParams


@dataclass
class DenseParams:
    """weight: [D, n_out], bias: [n_out]."""

    weight: Tensor
    bias: Tensor


# -- convolution ---------------------------------------------------------------


# bytes of unrolled columns built at a time: small enough to stay in cache
_COLS_BYTES = 4 << 20


def conv1d(x: Tensor, params: Conv1dParams) -> Tensor:
    """Same-length cross-correlation along the lexical axis.

    x: [..., L, C_in] -> [..., L, C_out]. Zero padding of (K-1)/2 on each
    side; kernel size must be odd. out[i] = sum_k x[i + k - K//2] . W[k].

    One tape node: the windows are unrolled into columns
    cols[n, i, k, :] = x[n, i + k - K//2, :] (zero outside the input) and
    multiplied by the flattened kernel in one GEMM per leading index n
    (Chellapilla, Puri & Simard 2006). The leading axes stay a batch axis
    of the matmul instead of being folded into its rows: the per-n GEMMs
    are small enough that OpenBLAS runs them on one thread, which at desk
    sizes costs less CPU time than one large threaded GEMM. Columns are
    built a few leading indices at a time (about `_COLS_BYTES`) and
    rebuilt in the backward pass, so they are never held whole.
    """
    kernels, bias = params.kernels, params.bias
    k_size, c_in, c_out = kernels.shape
    if k_size % 2 == 0:
        raise ConfigurationError(f"kernel size must be odd, got {k_size}")
    if x.shape[-1] != c_in:
        raise ConfigurationError(
            f"input has {x.shape[-1]} channels, kernel expects {c_in}"
        )
    length = x.shape[-2]
    if length < 1:
        raise ConfigurationError("conv1d needs at least one position")
    # tap k reads input rows [src, src + m) into output rows [dst, dst + m)
    taps = []
    for k in range(k_size):
        shift = k - (k_size - 1) // 2
        m = max(length - abs(shift), 0)
        dst = max(-shift, 0)
        taps.append((k, dst, dst + shift, m))
    xs = x.data.reshape(-1, length, c_in)
    per_index = length * k_size * c_in * xs.itemsize
    step = max(1, _COLS_BYTES // per_index)
    chunks = [slice(i, i + step) for i in range(0, len(xs), step)]

    def unroll(part: np.ndarray) -> np.ndarray:
        cols = np.zeros((len(part), length, k_size, c_in))
        for k, dst, src, m in taps:
            cols[:, dst : dst + m, k] = part[:, src : src + m]
        return cols.reshape(len(part), length, k_size * c_in)

    w2 = kernels.data.reshape(k_size * c_in, c_out)
    out = np.empty((len(xs), length, c_out))
    for chunk in chunks:
        np.matmul(unroll(xs[chunk]), w2, out=out[chunk])
    out += bias.data

    def back(g):
        g = g.reshape(-1, length, c_out)
        dx = np.zeros_like(xs) if x.requires_grad else None
        dw = np.zeros_like(w2) if kernels.requires_grad else None
        for chunk in chunks:
            if dx is not None:
                gcols = (g[chunk] @ w2.T).reshape(-1, length, k_size, c_in)
                for k, dst, src, m in taps:
                    dx[chunk, src : src + m] += gcols[:, dst : dst + m, k]
            if dw is not None:
                for cols, g_n in zip(unroll(xs[chunk]), g[chunk]):
                    dw += cols.T @ g_n
        if dx is not None:
            x._accum(dx.reshape(x.shape), fresh=True)
        if dw is not None:
            kernels._accum(dw.reshape(kernels.shape), fresh=True)
        if bias.requires_grad:
            bias._accum(g.sum(axis=(0, 1)), fresh=True)

    return _make(
        out.reshape(x.shape[:-1] + (c_out,)), (x, kernels, bias), "conv1d", back
    )


# -- regularization ------------------------------------------------------------


def _dropout(
    x: Tensor, p: float, training: bool, rng: np.random.Generator | None,
    mask_shape: tuple[int, ...],
) -> Tensor:
    """Inverted dropout under a keep mask of mask_shape, broadcast over x."""
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigurationError("train-mode dropout requires an explicit rng")
    keep = (rng.random(mask_shape) >= p).astype(np.float64)
    return x * (keep / (1.0 - p))


def spatial_dropout(
    x: Tensor, p: float, *, training: bool, rng: np.random.Generator | None = None
) -> Tensor:
    """Drop entire channels (feature maps), inverted-dropout scaling.

    x: [..., L, C]. In train mode each channel of each sample is zeroed
    with probability p and survivors are scaled by 1/(1-p); eval mode is
    the exact identity.
    """
    return _dropout(x, p, training, rng, x.shape[:-2] + (1, x.shape[-1]))


def dropout(
    x: Tensor, p: float, *, training: bool, rng: np.random.Generator | None = None
) -> Tensor:
    """Plain elementwise inverted dropout (used before fusion heads)."""
    return _dropout(x, p, training, rng, x.shape)


# -- batch normalization ---------------------------------------------------------


def batchnorm(x: Tensor, params: BatchNormParams, *, training: bool) -> Tensor:
    """Normalize per channel over all leading axes of [..., L, C].

    Train mode uses batch statistics and updates the running ones by
    exponential moving average (running variance uses the unbiased batch
    variance); eval mode uses the running statistics. Train mode is one
    tape node whose backward is the closed form
    dx = (gamma*g - mean(gamma*g) - xhat * mean(gamma*g * xhat)) / sigma.
    """
    if not training:
        scale = 1.0 / np.sqrt(params.running_var + params.eps)
        xhat = (x - params.running_mean) * scale
        return params.gamma * xhat + params.beta
    channels = x.shape[-1]
    count = int(np.prod(x.shape[:-1]))
    if count < 2:
        raise DataError(
            f"batchnorm train mode needs >= 2 values per channel, got {count}"
        )
    flat = x.data.reshape(count, channels)
    mu = flat.sum(axis=0) * (1.0 / count)
    xhat = flat - mu
    var = np.einsum("nc,nc->c", xhat, xhat) * (1.0 / count)
    sigma = np.sqrt(var + params.eps)
    xhat /= sigma
    mom = params.momentum
    params.running_mean *= mom
    params.running_mean += (1.0 - mom) * mu
    unbiased = var * (count / (count - 1))
    params.running_var *= mom
    params.running_var += (1.0 - mom) * unbiased
    gamma, beta = params.gamma, params.beta
    out = xhat * gamma.data
    out += beta.data

    def back(g):
        g = g.reshape(count, channels)
        dgamma = np.einsum("nc,nc->c", g, xhat)
        dbeta = g.sum(axis=0)
        if gamma.requires_grad:
            gamma._accum(dgamma, fresh=True)
        if beta.requires_grad:
            beta._accum(dbeta, fresh=True)
        if x.requires_grad:
            # mean(gamma*g) = gamma*dbeta/n and mean(gamma*g*xhat) = gamma*dgamma/n
            dx = xhat * (dgamma * (1.0 / count))
            dx -= g
            dx += dbeta * (1.0 / count)
            dx *= -(gamma.data / sigma)
            x._accum(dx.reshape(x.shape), fresh=True)

    return _make(out.reshape(x.shape), (x, gamma, beta), "batchnorm", back)


# -- pooling --------------------------------------------------------------------


def global_avg_pool(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Per-channel mean over (unmasked) positions: [..., L, C] -> [..., C]."""
    if mask is None:
        return x.mean(axis=-2)
    mask = np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=-1)
    if np.any(counts == 0):
        raise DataError("global_avg_pool: some input has every position masked")
    weights = mask.astype(np.float64)[..., None]
    return (x * weights).sum(axis=-2) / counts[..., None]


# -- recurrent layers -------------------------------------------------------------


def bigru(seq: Tensor, params: BiGruParams) -> tuple[Tensor, Tensor]:
    """Bidirectional GRU over [B, T, D] (or [T, D]).

    Returns (outputs [B, T, 2H], final [B, 2H]); per-step outputs are the
    concatenation [h_fwd; h_bwd], and `final` holds the forward state at
    the last step and the backward state at the first. Hidden states
    start at zero. Each direction runs the GRU of Cho et al. (2014):

        z = sigma(x W_z + h U_z + b_z);  r = sigma(x W_r + h U_r + b_r);
        cand = tanh(x W_h + (r*h) U_h + b_h);  h' = (1-z)*h + z*cand.

    `outputs` is one tape node and `final` two slices of it. The two
    directions' weights are stacked on a leading axis of 2, the input
    projection x [W_z|W_r|W_h] + b of every step is computed before the
    recurrence, and one Python loop over steps s updates the stacked
    [2, B, H] state: the forward direction reads time s, the backward
    one time T-1-s. The gates are kept only while the tape records, and
    backpropagation through time is one reversed loop over the same
    stack (Appleyard, Kocisky & Blunsom 2016). Every GEMM is one step's,
    such as [B, D] @ [D, 3H], never one [B*T, D] product, and its
    operands are contiguous: OpenBLAS runs such GEMMs on one thread,
    while a large or transposed one can wake its other threads, which
    then spin through the recurrence and cost CPU time.
    """
    squeeze = seq.data.ndim == 2
    xs = seq.data[None] if squeeze else seq.data
    batch, steps, _ = xs.shape
    if steps == 0:
        raise DataError("bigru: empty sequence")
    dirs = (params.fwd, params.bwd)
    leaves = tuple(t for p in dirs for t in p.all_tensors().values())
    hidden = params.fwd.b_z.shape[0]
    h2 = 2 * hidden
    w = np.empty((2, xs.shape[-1], 3 * hidden))
    u_zr = np.empty((2, hidden, h2))
    u_h = np.empty((2, hidden, hidden))
    b = np.empty((2, 3 * hidden))
    for k, p in enumerate(dirs):
        np.concatenate([p.w_z.data, p.w_r.data, p.w_h.data], axis=1, out=w[k])
        np.concatenate([p.u_z.data, p.u_r.data], axis=1, out=u_zr[k])
        u_h[k] = p.u_h.data
        np.concatenate([p.b_z.data, p.b_r.data, p.b_h.data], out=b[k])
    # step-major inputs, the backward direction time-reversed: step s
    # reads x[:, s] forward and x[:, T-1-s] backward
    x_steps = np.empty((steps, 2, batch, xs.shape[-1]))
    x_steps[:, 0] = xs.transpose(1, 0, 2)
    x_steps[:, 1] = xs[:, ::-1].transpose(1, 0, 2)
    pre = np.matmul(x_steps, w)  # [T, 2, B, 3H], one [B, D] @ [D, 3H] GEMM each
    pre += b[:, None]
    record = _recording((seq,) + leaves)
    states = np.zeros((steps + 1, 2, batch, hidden))  # states[s + 1]: after step s
    gates = []  # (z|r, r*h, cand - h) of each step, while the tape records
    for s in range(steps):
        h = states[s]
        zr = _sigmoid(np.matmul(h, u_zr) + pre[s, :, :, :h2])
        z, r = zr[..., :hidden], zr[..., hidden:]
        rh = r * h
        cand = np.matmul(rh, u_h)
        cand += pre[s, :, :, h2:]
        np.tanh(cand, out=cand)
        diff = cand - h  # h' = (1-z)*h + z*cand = h + z*(cand - h)
        np.add(h, z * diff, out=states[s + 1])
        if record:
            gates.append((zr, rh, diff))
    out = np.empty((batch, steps, h2))
    out[..., :hidden] = states[1:, 0].transpose(1, 0, 2)
    out[..., hidden:] = states[:0:-1, 1].transpose(1, 0, 2)

    def back(g):
        g = g.reshape(batch, steps, h2)
        g_steps = np.empty((steps, 2, batch, hidden))
        g_steps[:, 0] = g[..., :hidden].transpose(1, 0, 2)
        g_steps[:, 1] = g[:, ::-1, hidden:].transpose(1, 0, 2)
        d_pre = np.empty_like(pre)
        d_u_zr = np.zeros_like(u_zr)
        d_u_h = np.zeros_like(u_h)
        u_zr_t = u_zr.transpose(0, 2, 1)
        u_h_t = u_h.transpose(0, 2, 1)
        dh = np.zeros((2, batch, hidden))
        for s in range(steps - 1, -1, -1):
            zr, rh, diff = gates[s]
            z = zr[..., :hidden]
            h = states[s]
            dh += g_steps[s]
            cand = diff + h
            d_a_h = d_pre[s, :, :, h2:]
            np.multiply(dh * z, 1.0 - cand * cand, out=d_a_h)
            d_rh = np.matmul(d_a_h, u_h_t)
            d_u_h += np.matmul(rh.transpose(0, 2, 1), d_a_h)
            d_a_zr = d_pre[s, :, :, :h2]
            np.multiply(dh, diff, out=d_a_zr[..., :hidden])
            np.multiply(d_rh, h, out=d_a_zr[..., hidden:])
            d_a_zr *= zr * (1.0 - zr)
            d_u_zr += np.matmul(h.transpose(0, 2, 1), d_a_zr)
            dh = dh - dh * z + d_rh * zr[..., hidden:] + np.matmul(d_a_zr, u_zr_t)
        if seq.requires_grad:
            dx = np.matmul(d_pre, np.ascontiguousarray(w.transpose(0, 2, 1)))
            dx = dx[:, 0].transpose(1, 0, 2) + dx[::-1, 1].transpose(1, 0, 2)
            seq._accum(dx.reshape(seq.shape), fresh=True)
        x_steps_t = np.ascontiguousarray(x_steps.transpose(0, 1, 3, 2))
        d_w = np.matmul(x_steps_t, d_pre).sum(axis=0)
        d_b = d_pre.sum(axis=(0, 2))
        for k, p in enumerate(dirs):
            grads = {
                "w_z": d_w[k, :, :hidden], "w_r": d_w[k, :, hidden:h2],
                "w_h": d_w[k, :, h2:], "u_z": d_u_zr[k, :, :hidden],
                "u_r": d_u_zr[k, :, hidden:], "u_h": d_u_h[k],
                "b_z": d_b[k, :hidden], "b_r": d_b[k, hidden:h2], "b_h": d_b[k, h2:],
            }
            for name, t in p.all_tensors().items():
                if t.requires_grad:
                    t._accum(grads[name], fresh=True)

    outputs = _make(out[0] if squeeze else out, (seq,) + leaves, "bigru", back)
    final = concat([outputs[..., -1, :hidden], outputs[..., 0, hidden:]], axis=-1)
    return outputs, final


# -- dense head --------------------------------------------------------------------


def dense(x: Tensor, params: DenseParams) -> Tensor:
    return x @ params.weight + params.bias


def dense_sigmoid(x: Tensor, params: DenseParams) -> Tensor:
    """Sigmoid head: [..., D] -> probabilities strictly inside (0, 1).

    float64 sigmoid rounds to exactly 0/1 for |logit| > ~37; the output
    is nudged back into the open interval so downstream log-losses stay
    finite.
    """
    out = dense(x, params).sigmoid().clip(1e-15, 1.0 - 1e-15)
    return out.reshape(out.shape[:-1])


# -- weight decay -------------------------------------------------------------------


def l2_penalty(weights, lam: float) -> Tensor:
    """lam * sum of squares over the given weight tensors, as one tape node.

    Callers pass kernel and recurrent weight matrices only; biases and
    normalization parameters are excluded by convention. The squares are
    summed per weight in the given order, and each weight's gradient is
    c*w + c*w with c = g*lam, so value and gradients carry the same bits
    as the mul/sum/add chain they replace.
    """
    if lam < 0:
        raise ConfigurationError(f"decay coefficient must be >= 0, got {lam}")
    weights = tuple(weights)
    if lam == 0.0 or not weights:
        return Tensor(0.0)
    total = None
    for w in weights:
        term = np.sum(w.data * w.data)
        total = term if total is None else total + term

    def back(g):
        c = g * lam
        for w in weights:
            if w.requires_grad:
                cw = c * w.data
                w._accum(cw + cw, fresh=True)

    return _make(total * lam, weights, "l2_penalty", back)
