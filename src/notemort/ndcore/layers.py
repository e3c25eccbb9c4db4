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
from .tensor import Tensor, _make, _recording, _sigmoid, _unbroadcast, concat

# -- parameter containers -----------------------------------------------------


@dataclass
class Conv1dParams:
    """kernels: [K, C_in, C_out], bias: [C_out]."""

    kernels: Tensor
    bias: Tensor


@dataclass
class BatchNormParams:
    """Per-channel scale/shift plus running statistics.

    gamma/beta are learned parameters; the running statistics are plain
    arrays updated in place during train-mode forwards and read in eval
    mode.
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
# OpenBLAS 0.3.31 with its Haswell kernels multiplies a GEMM of at most
# 100**3 multiply-adds with its small-matrix kernel, which sums in another
# order than its blocked one once the inner dimension spans more than one
# block, and numpy multiplies a one-row matrix by GEMV. A GEMM cut to
# fewer rows stays on the uncut one's side of both lines (`_ConvGemm`),
# so that each of its rows carries the uncut product's bits. The bound
# was measured on that build only: other OpenBLAS CPU kernels and other
# BLAS libraries may switch elsewhere and need it measured again.
_SMALL_GEMM = 100**3


def _min_gemm_rows(rows: int, depth: int, width: int) -> int:
    """The fewest of `rows` that a [rows, depth] @ [depth, width] GEMM
    can be cut to while each row keeps its bits (`_SMALL_GEMM`)."""
    if rows * depth * width <= _SMALL_GEMM:
        return min(rows, 2)
    return min(rows, _SMALL_GEMM // (depth * width) + 1)


class _ConvGemm:
    """The arrays of one same-length conv1d over x [..., L, C_in].

    Zero padding of (K-1)/2 on each side; kernel size must be odd.
    out[i] = sum_k x[i + k - K//2] . W[k]. The windows are unrolled into
    columns cols[n, i, k, :] = x[n, i + k - K//2, :] (zero outside the
    input) and multiplied by the flattened kernel in one GEMM per leading
    index n (Chellapilla, Puri & Simard 2006). Columns are built a few
    leading indices at a time (about `_COLS_BYTES`) and rebuilt in the
    backward pass, so they are never held whole: each pass fills one
    column buffer the size of a chunk, reused by every chunk and dropped
    when the pass returns.

    `rows` [n], when given, asks only for the first rows[n] output rows
    of each leading index, and the forward is then all that may run. A
    chunk of one leading index (at paper shapes one note's columns fill
    `_COLS_BYTES`) unrolls and multiplies only up to its cut, rows[n] but
    never fewer than `_min_gemm_rows`, which reads the input up to
    (K-1)/2 rows further, and its output rows past the cut are 0. A chunk
    of several is not cut: its first rows would be strided views, over
    which the elementwise passes cost more than the skipped rows save (at
    desk shapes, a few dozen notes of 64 rows per chunk). When no chunk
    is cut short of L, the forward runs as without `rows`. Every unroll
    writes every cell of the part of the buffer it uses, the taps' rows
    and the zero border rows of each shifted tap, so the backward can
    also take the GEMM of the input gradient into it.
    """

    def __init__(self, x: np.ndarray, kernels: np.ndarray, rows: np.ndarray | None = None):
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
        self.taps = []
        for k in range(k_size):
            shift = k - (k_size - 1) // 2
            m = max(length - abs(shift), 0)
            dst = max(-shift, 0)
            self.taps.append((k, dst, dst + shift, m))
        self.xs = x.reshape(-1, length, c_in)
        self.w2 = kernels.reshape(k_size * c_in, c_out)
        step = max(1, _COLS_BYTES // (length * k_size * c_in * self.xs.itemsize))
        starts = range(0, len(self.xs), step)
        cuts = [length] * len(starts)
        if rows is not None and step == 1:
            least = _min_gemm_rows(length, k_size * c_in, c_out)
            cuts = [min(max(r, least), length) for r in rows.tolist()]
        # (chunk, its cut: the output rows its GEMMs produce)
        self.spans = [(slice(i, i + step), cut) for i, cut in zip(starts, cuts)]
        # whether any chunk is cut short of L
        self.trimmed = any(cut < length for cut in cuts)
        self.out_shape = (len(self.xs), length, c_out)
        # one pass's column buffer: the largest chunk's columns
        self.cols_shape = (min(step, len(self.xs)), length, k_size * c_in)

    def computed(self, a: np.ndarray) -> list[np.ndarray]:
        """The views of a [n, L, C] over the rows this GEMM computes: a
        itself when no chunk is cut short."""
        if not self.trimmed:
            return [a]
        return [a[chunk, :cut] for chunk, cut in self.spans]

    def _taps(self, cut: int):
        """The taps (k, dst, src, m) cut to output rows [0, cut)."""
        if cut == self.out_shape[1]:
            return self.taps
        return [(k, dst, src, max(min(m, cut - dst), 0)) for k, dst, src, m in self.taps]

    def _unroll(self, part: np.ndarray, buf: np.ndarray, cut: int) -> np.ndarray:
        """The columns of the first `cut` output rows of `part` [n, L, C_in],
        written over the start of buf."""
        n, _, c_in = part.shape
        # contiguous: a chunk is cut only when it holds one note
        cols = buf[:n, :cut]
        taps = cols.reshape(n, cut, len(self.taps), c_in)
        for k, dst, src, m in self._taps(cut):
            taps[:, dst : dst + m, k] = part[:, src : src + m]
            taps[:, :dst, k] = 0.0
            taps[:, dst + m :, k] = 0.0
        return cols

    def forward(self, bias: np.ndarray) -> np.ndarray:
        """The convolution [n, L, C_out], n the product of the leading axes."""
        out = np.empty(self.out_shape)
        buf = np.empty(self.cols_shape)
        for chunk, cut in self.spans:
            np.matmul(self._unroll(self.xs[chunk], buf, cut), self.w2, out=out[chunk, :cut])
        # after all GEMMs: a pass between two of them runs while the idle
        # BLAS worker spins, at twice its CPU cost (`conv1d`)
        for part in self.computed(out):
            part += bias
        if self.trimmed:
            for chunk, cut in self.spans:
                out[chunk, cut:] = 0.0
        return out

    def backward(self, g: np.ndarray, params: Conv1dParams, need_dx: bool) -> np.ndarray | None:
        """Accumulate the kernel and bias gradients of output gradient
        g [n, L, C_out] into `params`; returns the input gradient
        [n, L, C_in] when `need_dx`, else None. Only a GEMM built without
        `rows` has a backward.

        The caller hands over g: when it has the input's shape (C_in ==
        C_out), the input gradient is written over it, each chunk once
        both GEMMs have read that chunk, and g itself is returned.
        """
        length, c_in = self.xs.shape[1:]
        if params.bias.requires_grad:
            params.bias._accum(g.sum(axis=(0, 1)), fresh=True)
        dx = None
        if need_dx:
            dx = g if g.shape == self.xs.shape else np.empty_like(self.xs)
        dw = np.zeros_like(self.w2) if params.kernels.requires_grad else None
        buf = np.empty(self.cols_shape)
        for chunk, _ in self.spans:
            g_part = g[chunk]
            if dw is not None:
                for cols, g_n in zip(self._unroll(self.xs[chunk], buf, length), g_part):
                    dw += cols.T @ g_n
            if dx is not None:
                gcols = np.matmul(g_part, self.w2.T, out=buf[: len(g_part)]).reshape(
                    -1, length, len(self.taps), c_in
                )
                dx_part = dx[chunk]
                dx_part.fill(0.0)
                for k, dst, src, m in self.taps:
                    dx_part[:, src : src + m] += gcols[:, dst : dst + m, k]
        if dw is not None:
            params.kernels._accum(dw.reshape(params.kernels.shape), fresh=True)
        return dx


def conv1d(
    x: Tensor, params: Conv1dParams, *, rows: np.ndarray | None = None,
    residual: bool = False, shortcut: Conv1dParams | None = None,
) -> Tensor:
    """Same-length cross-correlation along the lexical axis, as one tape node.

    x: [..., L, C_in] -> [..., L, C_out], computed by `_ConvGemm`. Each
    pass unrolls the windows into one reused column buffer of about
    `_COLS_BYTES`, and at C_in == C_out the backward writes the input
    gradient over the output gradient it is handed, so it allocates no
    array the size of x. The leading axes stay a batch axis of the
    matmul instead of being folded into its rows, so every GEMM is one
    note's. Such a GEMM is not small
    enough to keep OpenBLAS on one thread at paper shapes
    ([500 x 600] @ [600 x 200]). Measured on 2 vCPUs with OpenBLAS
    0.3.31: one took 0.93 ms at the default thread count and 1.85 ms at
    OPENBLAS_NUM_THREADS=1, and a paper-scale notes-hcr training step
    read 3.1 CPU-s over 1.75 s wall against 2.05 over 2.05 on one
    thread. The idle BLAS worker spins through the numpy passes between
    GEMMs, so each elementwise pass over a conv-sized array costs about
    twice its wall time in CPU seconds.

    With `residual`, the result is an eval-mode residual conv block,
    relu(conv1d(x, params) + s), where `params` has the block's
    batchnorm folded in (`fold_batchnorm`) and s is x (`shortcut` None,
    the identity) or conv1d(x, shortcut) (a 1x1 projection). The
    shortcut add and the ReLU run in place over the convolution's
    output. The block has no backward: it raises ConfigurationError
    where the tape would record it (x or a parameter needs a gradient
    outside `no_grad`). The train-mode block is `conv_block_train`.

    `rows` [n] (residual only), one per leading index (n the product of
    the leading axes), asks for the first rows[n] output rows of each.
    The convolutions may multiply a note only up to their cuts
    (`_ConvGemm`), rows[n] or more: its first rows[n] rows carry the
    bits of the block that computes every row, and its rows past the
    conv's cut are 0.
    """
    parents = (x, params.kernels, params.bias)
    if residual:
        if shortcut is not None:
            parents += (shortcut.kernels, shortcut.bias)
        if _recording(parents):
            raise ConfigurationError(
                "conv1d: the residual block has no backward; run it under no_grad"
            )
        gemm, proj = _block_gemms(x, params, shortcut, rows)
        out = gemm.forward(params.bias.data)
        s = gemm.xs if proj is None else proj.forward(shortcut.bias.data)
        for part, s_part in zip(gemm.computed(out), gemm.computed(s)):
            part += s_part
            np.maximum(part, 0.0, out=part)
        return Tensor(out.reshape(x.shape[:-1] + out.shape[-1:]))
    if rows is not None or shortcut is not None:
        raise ConfigurationError("conv1d: rows and shortcut need residual=True")
    gemm = _ConvGemm(x.data, params.kernels.data)
    out = gemm.forward(params.bias.data)

    def back(g):
        dx = gemm.backward(g.reshape(out.shape), params, x.requires_grad)
        if dx is not None:
            x._accum(dx.reshape(x.shape), fresh=True)

    return _make(out.reshape(x.shape[:-1] + out.shape[-1:]), parents, "conv1d", back)


# -- regularization ------------------------------------------------------------


def _keep_scale(
    p: float, training: bool, rng: np.random.Generator | None, mask_shape: tuple[int, ...]
) -> np.ndarray | None:
    """The inverted-dropout factor keep / (1 - p) under one fresh keep
    mask of mask_shape, or None when dropout is the identity (eval mode
    or p = 0), which draws nothing."""
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    if rng is None:
        raise ConfigurationError("train-mode dropout requires an explicit rng")
    keep = (rng.random(mask_shape) >= p).astype(np.float64)
    return keep / (1.0 - p)


def _channel_mask(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Spatial dropout's mask shape for [..., L, C]: one draw per channel
    of each sample, shared along the lexical axis."""
    return shape[:-2] + (1, shape[-1])


def spatial_dropout(
    x: Tensor, p: float, *, training: bool, rng: np.random.Generator | None = None
) -> Tensor:
    """Drop entire channels (feature maps), inverted-dropout scaling.

    x: [..., L, C]. In train mode each channel of each sample is zeroed
    with probability p and survivors are scaled by 1/(1-p); eval mode is
    the exact identity.
    """
    scale = _keep_scale(p, training, rng, _channel_mask(x.shape))
    return x if scale is None else x * scale


def dropout(
    x: Tensor, p: float, *, training: bool, rng: np.random.Generator | None = None
) -> Tensor:
    """Plain elementwise inverted dropout (used before fusion heads)."""
    scale = _keep_scale(p, training, rng, x.shape)
    return x if scale is None else x * scale


# -- batch normalization ---------------------------------------------------------


def fold_batchnorm(conv: Conv1dParams, norm: BatchNormParams) -> Conv1dParams:
    """The convolution equal to eval-mode batchnorm after `conv`.

    Eval-mode batchnorm is the per-channel map y * scale + shift, with
    scale = gamma / sqrt(running_var + eps) and
    shift = beta - running_mean * scale, so after conv1d(x, conv) it is
    conv1d(x, folded) up to rounding, with W' = W * scale and
    b' = b * scale + shift per output channel (Jacob et al. 2018,
    section 3.2). The folded kernels and bias are constants: no gradient
    reaches the parameters through them.
    """
    scale = norm.gamma.data * (1.0 / np.sqrt(norm.running_var + norm.eps))
    shift = norm.beta.data - norm.running_mean * scale
    return Conv1dParams(
        kernels=Tensor(conv.kernels.data * scale), bias=Tensor(conv.bias.data * scale + shift)
    )


def _normalize(
    flat: np.ndarray, params: BatchNormParams, xhat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Train-mode batchnorm of flat [n, C] by its batch statistics.

    Writes xhat = (flat - mean) / sigma into `xhat` (which may be `flat`
    itself), updates the running statistics by exponential moving
    average (the running variance from the unbiased batch variance), and
    returns sigma and the new array xhat * gamma + beta.
    """
    count = len(flat)
    if count < 2:
        raise DataError(
            f"batchnorm train mode needs >= 2 values per channel, got {count}"
        )
    mu = flat.sum(axis=0) * (1.0 / count)
    np.subtract(flat, mu, out=xhat)
    var = np.einsum("nc,nc->c", xhat, xhat) * (1.0 / count)
    sigma = np.sqrt(var + params.eps)
    xhat /= sigma
    mom = params.momentum
    params.running_mean *= mom
    params.running_mean += (1.0 - mom) * mu
    unbiased = var * (count / (count - 1))
    params.running_var *= mom
    params.running_var += (1.0 - mom) * unbiased
    out = xhat * params.gamma.data
    out += params.beta.data
    return sigma, out


def _normalize_backward(
    g: np.ndarray, xhat: np.ndarray, sigma: np.ndarray, params: BatchNormParams,
    dx: np.ndarray | None,
) -> None:
    """Accumulate the gamma and beta gradients of output gradient g [n, C]
    into `params`, and write the input gradient into `dx` (which may be
    `xhat` itself) unless it is None. The closed form is
    dx = (gamma*g - mean(gamma*g) - xhat * mean(gamma*g * xhat)) / sigma.
    """
    count = len(g)
    dgamma = np.einsum("nc,nc->c", g, xhat)
    dbeta = g.sum(axis=0)
    if params.gamma.requires_grad:
        params.gamma._accum(dgamma, fresh=True)
    if params.beta.requires_grad:
        params.beta._accum(dbeta, fresh=True)
    if dx is not None:
        # mean(gamma*g) = gamma*dbeta/n and mean(gamma*g*xhat) = gamma*dgamma/n
        np.multiply(xhat, dgamma * (1.0 / count), out=dx)
        dx -= g
        dx += dbeta * (1.0 / count)
        dx *= -(params.gamma.data / sigma)


def batchnorm(x: Tensor, params: BatchNormParams, *, training: bool) -> Tensor:
    """Train-mode batchnorm: normalize per channel over all leading axes
    of [..., L, C].

    Uses batch statistics and updates the running ones (`_normalize`),
    as one tape node with the closed-form backward of
    `_normalize_backward`. Eval mode is folded into the preceding
    convolution (`fold_batchnorm`); `training=False` raises.
    """
    if not training:
        raise ConfigurationError(
            "batchnorm runs in train mode only; fold eval mode into the conv with fold_batchnorm"
        )
    flat = x.data.reshape(-1, x.shape[-1])
    xhat = np.empty_like(flat)
    sigma, out = _normalize(flat, params, xhat)

    def back(g):
        dx = np.empty_like(xhat) if x.requires_grad else None
        _normalize_backward(g.reshape(flat.shape), xhat, sigma, params, dx)
        if dx is not None:
            x._accum(dx.reshape(x.shape), fresh=True)

    return _make(out.reshape(x.shape), (x, params.gamma, params.beta), "batchnorm", back)


# -- the residual conv blocks and pooling -------------------------------------------


def _block_gemms(
    x: Tensor, conv: Conv1dParams, shortcut: Conv1dParams | None,
    rows: np.ndarray | None = None,
) -> tuple[_ConvGemm, _ConvGemm | None]:
    """The conv and shortcut-projection (None: identity) GEMMs of a block
    over x, both asked for the same `rows`. Their chunks and cuts need
    not match, but each computes at least the rows asked for."""
    gemm = _ConvGemm(x.data, conv.kernels.data, rows)
    c_out = gemm.out_shape[-1]
    if shortcut is None and x.shape[-1] != c_out:
        raise ConfigurationError(
            f"identity shortcut needs {c_out} input channels, got {x.shape[-1]}"
        )
    if shortcut is None:
        return gemm, None
    return gemm, _ConvGemm(x.data, shortcut.kernels.data, rows)


def conv_block_train(
    x: Tensor, conv: Conv1dParams, norm: BatchNormParams, shortcut: Conv1dParams | None,
    *, p: float, rng: np.random.Generator | None,
) -> Tensor:
    """One train-mode residual conv block as one tape node:
    relu(batchnorm(spatial_dropout(conv1d(x, conv))) + s), where s is x
    (identity shortcut) or conv1d(x, shortcut) (a 1x1 projection).

    x: [..., L, C_in] -> [..., L, C_out]. Values, gradients, running
    statistics and the rng draw carry the bits of that composition. The
    node keeps two conv-sized arrays, xhat and its output, where the
    composition keeps five: the conv output is scaled by the dropout
    factor and normalized in place into xhat, and the affine map, the
    shortcut add and the ReLU run in place on the output. Every row is
    computed: batchnorm's batch statistics read every row, pad rows
    included. The backward allocates no conv-sized array of its own: it
    masks the gradient it is handed in place, turns xhat into the
    gradient of the conv output in place (so it runs at most once per
    node), and at C_in == C_out the conv writes its input gradient over
    xhat and a projection over the masked gradient; the shortcut's
    gradient is added into the conv's input gradient.
    """
    gemm, proj = _block_gemms(x, conv, shortcut)
    c_out = gemm.out_shape[-1]
    scale = _keep_scale(p, True, rng, _channel_mask(gemm.out_shape))
    y = gemm.forward(conv.bias.data)
    if scale is not None:
        y *= scale
    xhat = y.reshape(-1, c_out)
    sigma, out = _normalize(xhat, norm, xhat)
    out += (x.data if proj is None else proj.forward(shortcut.bias.data)).reshape(out.shape)
    np.maximum(out, 0.0, out=out)
    parents = (x, conv.kernels, conv.bias, norm.gamma, norm.beta)
    if shortcut is not None:
        parents += (shortcut.kernels, shortcut.bias)

    def back(g):
        nonlocal xhat
        if xhat is None:
            raise ConfigurationError("conv_block_train: backward ran twice through one node")
        dy, xhat = xhat, None
        g = g.reshape(out.shape)
        np.multiply(g, out > 0.0, out=g)
        _normalize_backward(g, dy, sigma, norm, dy)
        dy = dy.reshape(gemm.out_shape)
        if scale is not None:
            dy *= scale
        dx = gemm.backward(dy, conv, x.requires_grad)
        # the shortcut's input gradient: g itself, or the projection's,
        # which may be written over g
        g = g.reshape(gemm.out_shape)
        if proj is not None:
            g = proj.backward(g, shortcut, x.requires_grad)
        if dx is not None:
            dx += g
            x._accum(dx.reshape(x.shape), fresh=True)

    return _make(out.reshape(x.shape[:-1] + (c_out,)), parents, "conv_block", back)


def global_avg_pool(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Per-channel mean over (unmasked) positions: [..., L, C] -> [..., C].

    With a mask, one tape node with the bits of the composition
    `(x * weights).sum(axis=-2) / counts` (weights: the mask as 0/1).
    """
    if mask is None:
        return x.mean(axis=-2)
    mask = np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=-1)[..., None]
    if np.any(counts == 0):
        raise DataError("global_avg_pool: some input has every position masked")
    weights = mask.astype(np.float64)[..., None]

    def back(g):
        x._accum(_unbroadcast((g / counts)[..., None, :] * weights, x.shape), fresh=True)

    return _make((x.data * weights).sum(axis=-2) / counts, (x,), "global_avg_pool", back)


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

# float64 sigmoid rounds to exactly 0 or 1 beyond |logit| ~37; the head's
# output is clamped this far inside the open interval
HEAD_EPS = 1e-15


def dense_sigmoid(x: Tensor, params: DenseParams) -> Tensor:
    """Sigmoid head: [..., D] -> probabilities strictly inside (0, 1).

    One tape node for x @ weight + bias, the sigmoid, the clamp to
    [HEAD_EPS, 1 - HEAD_EPS] (so downstream log-losses stay finite; no
    gradient flows where it clamps) and the squeeze of the one output
    column.
    Value and backward run the array operations of that matmul / add /
    sigmoid / clip / reshape chain in its order, so they carry its bits.
    An unbatched [D] input (a single stay's `final`) gives a 0-d output.
    """
    weight, bias = params.weight, params.bias
    prob = _sigmoid(x.data @ weight.data + bias.data)

    def back(g):
        kept = (prob >= HEAD_EPS) & (prob <= 1.0 - HEAD_EPS)
        g = g.reshape(prob.shape) * kept * prob * (1.0 - prob)
        if x.requires_grad:
            x._accum(_unbroadcast(g @ weight.data.T, x.shape), fresh=True)
        if weight.requires_grad:
            dw = (np.outer(x.data, g) if x.data.ndim == 1
                  else _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, weight.shape))
            weight._accum(dw, fresh=True)
        if bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.shape), fresh=True)

    out = np.clip(prob, HEAD_EPS, 1.0 - HEAD_EPS)
    return _make(out.reshape(out.shape[:-1]), (x, weight, bias), "dense_sigmoid", back)


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
