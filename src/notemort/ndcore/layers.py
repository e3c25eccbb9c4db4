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


def _column_chunk_notes(length: int, kernels_shape: tuple[int, ...]) -> int:
    """The leading indices (notes) of [..., length, C_in] whose unrolled
    columns a conv1d with kernels [K, C_in, C_out] builds at a time: as
    many as fill `_COLS_BYTES`, at least one."""
    k_size, c_in = kernels_shape[:2]
    return max(1, _COLS_BYTES // (length * k_size * c_in * 8))


class NoteRows:
    """The rows of N notes of L rows that a stack of conv blocks computes,
    and where they lie in the packed [R, C] arrays the blocks pass on.

    Built from the notes' real-token mask [N, L] and the kernel shapes of
    the stack's convs by the one cut rule. Notes are cut only when every
    conv takes one note per column chunk (`_column_chunk_notes`; paper
    shapes). Note n then keeps its rows up to `last`, its last real row
    + 1 (L if it has none), and a margin, at most L rows in all; `reach`
    is the stack's sum of K//2.

    - Eval keeps last + reach rows: no pooled row reads an input row
      further past the last real one.
    - Train keeps last + 2 * end + 1 rows, `end` = 2 * reach. Past `last`
      the input rows are 0 (the PAD embedding) and no pooled row reads
      them, so after each block the tail holds one repeated row but for
      the reach at either end, and so does each block's gradient but for
      twice the reach. The note is compacted: its first counts[n] - end
      rows, then its last `end`, the rows between cut out. Its row
      counts[n] - end - 1 stands for itself and the L - counts[n] rows
      cut out after it, and lies at least `end` >= K//2 rows from both
      ends of the note: `tail` holds each note's standing packed row and
      that extra count (None when no note is cut), by which batchnorm's
      statistics and the gradients weight the row (`conv_block_train`).

    So every count lies in [1, L]. Note n's rows lie at packed rows
    [offsets[n], offsets[n+1]), R = sum(counts): every written row is one
    the blocks compute, and the rows of a note are contiguous (Krell et
    al. 2021 pack sequences so; here each note stays a sequence of its
    own). When no note is cut (`cut` False), R = N * L and `pack` returns
    its argument, the [N, L, C] array.

    A cut note's GEMMs multiply its own rows, which a BLAS may sum in
    another order than a GEMM over every row (Higham 1993): in both modes
    its rows carry the uncut chain's values up to rounding.
    """

    def __init__(self, mask: np.ndarray, kernel_shapes, *, training: bool):
        notes, length = mask.shape
        counts, end = np.full(notes, length), None
        if all(_column_chunk_notes(length, shape) == 1 for shape in kernel_shapes):
            reach = sum(shape[0] // 2 for shape in kernel_shapes)
            last = length - np.argmax(mask[:, ::-1], axis=-1)
            end = 2 * reach if training else None
            counts = np.minimum(last + (reach if end is None else 2 * end + 1), length)
        self.counts, self.length, self.end = counts, length, end
        self.cut = bool(np.any(counts < length))
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        self.size = int(self.offsets[-1])
        self.tail = None
        if self.cut and end is not None:
            self.tail = (self.offsets[:-1] + counts - end - 1, (length - counts).astype(np.float64))

    def pack(self, a: np.ndarray) -> np.ndarray:
        """The packed rows [R, ...] of a [N, L, ...]: each note's first
        counts[n] rows, or a itself when no note is cut. For a compacted
        note these are its rows as laid out (its first counts[n] - end
        rows, then its last `end`) where its rows from the standing one on
        are all equal, as a zero-padded note's tail is."""
        if a.shape[:2] != (len(self.counts), self.length):
            raise ConfigurationError(
                f"a layout of {len(self.counts)} notes of {self.length} rows, not {a.shape[:2]}"
            )
        if not self.cut:
            return a
        return np.concatenate([note[:count] for note, count in zip(a, self.counts.tolist())])


class _ConvGemm:
    """The arrays of one same-length conv1d over the notes of x.

    x is [..., L, C_in] (its leading indices the notes), or the packed
    rows [R, C_in] of the notes `rows` lays out (`NoteRows`). Zero padding
    of (K-1)/2 on each side of each note; kernel size must be odd.
    out[i] = sum_k x[i + k - K//2] . W[k]. The windows are unrolled into
    columns cols[n, i, k, :] = x[n, i + k - K//2, :] (zero outside the
    note) and multiplied by the flattened kernel in one GEMM per note
    (Chellapilla, Puri & Simard 2006). Columns are built a few notes at a
    time (`_column_chunk_notes`) and rebuilt in the backward pass, so they
    are never held whole: each pass fills one column buffer the size of a
    chunk, reused by every chunk and dropped when the pass returns. The
    output, and the input gradient, are [R, C]: every row is written.

    When `rows` cuts a note, the note is a sequence of its own, its
    counts[n] packed rows with zero padding at both ends, and each note is
    its own column chunk, multiplied over its own rows. A compacted note
    (`rows.end`, train mode) is read as laid out: the forward does not
    treat its standing row apart; the backward weights that row's terms
    of the kernel and bias gradients by its multiplicity (`rows.tail`), as
    `conv_block_train` does in batchnorm.

    Every unroll writes every cell of the part of the buffer it uses, the
    taps' rows and the zero border rows of each shifted tap, so the
    backward can also take the GEMM of the input gradient into it.
    """

    def __init__(self, x: np.ndarray, kernels: np.ndarray, rows: NoteRows | None = None):
        k_size, c_in, c_out = kernels.shape
        if k_size % 2 == 0:
            raise ConfigurationError(f"kernel size must be odd, got {k_size}")
        if x.shape[-1] != c_in:
            raise ConfigurationError(
                f"input has {x.shape[-1]} channels, kernel expects {c_in}"
            )
        if rows is None:
            if x.ndim < 2 or x.shape[-2] < 1:
                raise ConfigurationError("conv1d needs at least one position")
            mask = np.ones((int(np.prod(x.shape[:-2])), x.shape[-2]), dtype=bool)
            rows = NoteRows(mask, [kernels.shape], training=False)
        self.x, self.rows = x.reshape(-1, c_in), rows
        if len(self.x) != rows.size:
            raise ConfigurationError(
                f"conv1d: rows must hold one count per note of x, which has {len(self.x)} "
                f"rows where rows lays out {rows.size}"
            )
        length, notes = rows.length, len(rows.counts)
        # tap k reads input rows [src, src + m) into output rows [dst, dst + m)
        self.taps = []
        for k in range(k_size):
            shift = k - (k_size - 1) // 2
            m = max(length - abs(shift), 0)
            dst = max(-shift, 0)
            self.taps.append((k, dst, dst + shift, m))
        self.w2 = kernels.reshape(k_size * c_in, c_out)
        # (its notes, its packed rows, the rows of each note) of each
        # chunk: a cut note is a chunk of its own
        step = 1 if rows.cut else _column_chunk_notes(length, kernels.shape)
        starts = list(range(0, notes, step))
        offsets, counts = rows.offsets.tolist(), rows.counts.tolist()
        self.spans = [(slice(n, stop), slice(offsets[n], offsets[stop]), counts[n])
                      for n, stop in zip(starts, starts[1:] + [notes])]
        # one pass's column buffer: the largest chunk's columns
        cut = max((cut for _, _, cut in self.spans), default=length)
        self.cols_shape = (min(step, notes), cut, k_size * c_in)

    def join(self, out: np.ndarray, proj: _ConvGemm | None, shortcut: Conv1dParams | None) -> None:
        """The residual join of a block whose conv this is, in place over
        out [R, C_out]: relu(out + s), where s is the input (`proj` None)
        or the projection `proj` with the bias of `shortcut`."""
        out += self.x if proj is None else proj.forward(shortcut.bias.data)
        np.maximum(out, 0.0, out=out)

    def _taps(self, cut: int):
        """The taps (k, dst, src, m) of a sequence of `cut` rows: output
        rows [0, cut) from input rows [0, cut)."""
        if cut == self.rows.length:
            return self.taps
        return [(k, dst, src, max(min(m, cut - max(dst, src)), 0)) for k, dst, src, m in self.taps]

    @staticmethod
    def _notes(a: np.ndarray, span: slice, cut: int) -> np.ndarray:
        """A chunk's packed rows of a [R, C] as its notes [n, cut, C]."""
        return a[span].reshape(-1, cut, a.shape[-1])

    def _unroll(self, part: np.ndarray, buf: np.ndarray, cut: int) -> np.ndarray:
        """The columns of the notes part [n, cut, C_in], written over the
        start of buf."""
        n, _, c_in = part.shape
        # contiguous: a chunk is cut only when it holds one note
        cols = buf[:n, :cut]
        taps = cols.reshape(n, cut, len(self.taps), c_in)
        for k, dst, src, m in self._taps(cut):
            taps[:, dst : dst + m, k] = part[:, src : src + m]
            taps[:, :dst, k] = 0.0
            taps[:, dst + m :, k] = 0.0
        return cols

    def _scale(self, a: np.ndarray, keep: np.ndarray) -> None:
        """Multiply each note's rows of a [R, C_out] in place by its row of
        keep [N, 1, C_out]."""
        for notes, span, cut in self.spans:
            part = self._notes(a, span, cut)
            part *= keep[notes]

    def forward(self, bias: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
        """The convolution [R, C_out], multiplied by keep [N, 1, C_out]
        when given (spatial dropout's factor)."""
        out = np.empty((len(self.x), self.w2.shape[1]))
        buf = np.empty(self.cols_shape)
        for _, span, cut in self.spans:
            np.matmul(self._unroll(self._notes(self.x, span, cut), buf, cut), self.w2,
                      out=self._notes(out, span, cut))
        # after all GEMMs: a pass between two of them runs while the idle
        # BLAS worker spins, at twice its CPU cost (`conv1d`)
        out += bias
        if keep is not None:
            self._scale(out, keep)
        return out

    def backward(
        self, g: np.ndarray, params: Conv1dParams, need_dx: bool, keep: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Accumulate the kernel and bias gradients of output gradient
        g [R, C_out] into `params`; returns the input gradient [R, C_in]
        when `need_dx`, else None. With `keep` (the forward's), g is first
        multiplied by it, and both GEMMs of a cut note multiply only its
        channels that keep is not 0 in.

        The caller hands over g: it is multiplied in place, and when it
        has the input's shape (C_in == C_out), the input gradient is
        written over it, each chunk once both GEMMs have read that chunk,
        and g itself is returned.
        """
        c_in = self.x.shape[-1]
        if keep is not None:
            self._scale(g, keep)
        if params.bias.requires_grad:
            params.bias._accum(_row_sum(g, tail=self.rows.tail), fresh=True)
        dx = None
        if need_dx:
            dx = g if g.shape == self.x.shape else np.empty(self.x.shape)
        dw = np.zeros_like(self.w2) if params.kernels.requires_grad else None
        if dw is not None and self.rows.tail is not None:
            # the weighted rows' extra terms, taken before dx overwrites g:
            # their columns are their windows, inside their notes' sequences
            standing, extra = self.rows.tail
            half = len(self.taps) // 2
            windows = self.x[np.add.outer(standing, np.arange(-half, half + 1))]
            dw += windows.reshape(len(standing), -1).T @ (g[standing] * extra[:, None])
        buf = np.empty(self.cols_shape)
        for notes, span, cut in self.spans:
            g_part, w2, kept = self._notes(g, span, cut), self.w2, slice(None)
            if self.rows.cut and keep is not None:
                kept = np.flatnonzero(keep[notes.start, 0])
                g_part, w2 = g_part[..., kept], w2[:, kept]
            if dw is not None:
                for cols, g_n in zip(self._unroll(self._notes(self.x, span, cut), buf, cut), g_part):
                    dw[:, kept] += cols.T @ g_n
            if dx is not None:
                gcols = np.matmul(g_part, w2.T, out=buf[: len(g_part), :cut]).reshape(
                    -1, cut, len(self.taps), c_in
                )
                dx_part = self._notes(dx, span, cut)
                dx_part.fill(0.0)
                for k, dst, src, m in self._taps(cut):
                    dx_part[:, src : src + m] += gcols[:, dst : dst + m, k]
        if dw is not None:
            params.kernels._accum(dw.reshape(params.kernels.shape), fresh=True)
        return dx


def conv1d(
    x: Tensor, params: Conv1dParams, *, rows: NoteRows | None = None,
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

    `rows` (residual only; an eval `NoteRows`) lays out the notes
    of x: when it cuts them, x and the result are their packed rows
    [R, C], and each note is a sequence of its own, its first counts[n]
    rows. Its rows equal, up to rounding (`NoteRows`), those of the block
    over the uncut note with its rows past the cut set to 0.
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
        gemm.join(out, proj, shortcut)
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


def spatial_dropout(
    x: Tensor, p: float, *, training: bool, rng: np.random.Generator | None = None
) -> Tensor:
    """Drop entire channels (feature maps), inverted-dropout scaling.

    x: [..., L, C]. In train mode each channel of each sample is zeroed
    with probability p and survivors are scaled by 1/(1-p); eval mode is
    the exact identity.
    """
    scale = _keep_scale(p, training, rng, x.shape[:-2] + (1, x.shape[-1]))
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


def _row_sum(a: np.ndarray, other: np.ndarray | None = None, tail=None) -> np.ndarray:
    """Per-channel sum over the rows of a [R, C] (of its product with
    `other`), in row order. `tail` (rows, extra), when given, counts row
    rows[i] of a extra[i] times more (`NoteRows.tail`)."""
    total = a.sum(axis=0) if other is None else np.einsum("nc,nc->c", a, other)
    if tail is not None:
        rows, extra = tail
        total += extra @ (a[rows] if other is None else a[rows] * other[rows])
    return total


def _normalize(
    x: np.ndarray, params: BatchNormParams, count: int, out: np.ndarray, tail=None,
) -> np.ndarray:
    """Train-mode batchnorm by batch statistics over `count` rows, held
    by the rows of x [R, C] (`_row_sum` with `tail` counts them).

    Normalizes x in place into xhat = (x - mean) / sigma, writes
    xhat * gamma + beta into `out`, updates the running statistics by
    exponential moving average (the running variance from the unbiased
    batch variance), and returns sigma.
    """
    if count < 2:
        raise DataError(
            f"batchnorm train mode needs >= 2 values per channel, got {count}"
        )
    mu = _row_sum(x, tail=tail) * (1.0 / count)
    x -= mu
    var = _row_sum(x, x, tail) * (1.0 / count)
    sigma = np.sqrt(var + params.eps)
    x /= sigma
    mom = params.momentum
    params.running_mean *= mom
    params.running_mean += (1.0 - mom) * mu
    unbiased = var * (count / (count - 1))
    params.running_var *= mom
    params.running_var += (1.0 - mom) * unbiased
    np.multiply(x, params.gamma.data, out=out)
    out += params.beta.data
    return sigma


def _normalize_backward(
    g: np.ndarray, xhat: np.ndarray, sigma: np.ndarray, params: BatchNormParams,
    count: int, dx: np.ndarray | None, tail=None,
) -> None:
    """Accumulate the gamma and beta gradients of the output gradient
    g [R, C] (laid out as `_normalize`'s x) into `params`, and write the
    input gradient into `dx` (which may be `xhat` itself) unless it is
    None. The closed form is
    dx = (gamma*g - mean(gamma*g) - xhat * mean(gamma*g * xhat)) / sigma.
    """
    dgamma = _row_sum(g, xhat, tail)
    dbeta = _row_sum(g, tail=tail)
    if params.gamma.requires_grad:
        params.gamma._accum(dgamma, fresh=True)
    if params.beta.requires_grad:
        params.beta._accum(dbeta, fresh=True)
    if dx is not None:
        # mean(gamma*g) = gamma*dbeta/n and mean(gamma*g*xhat) = gamma*dgamma/n
        mean_gx, mean_g = dgamma * (1.0 / count), dbeta * (1.0 / count)
        np.multiply(xhat, mean_gx, out=dx)
        dx -= g
        dx += mean_g
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
    xhat = x.data.reshape(-1, x.shape[-1]).copy()
    out = np.empty_like(xhat)
    sigma = _normalize(xhat, params, len(xhat), out)

    def back(g):
        dx = np.empty_like(xhat) if x.requires_grad else None
        _normalize_backward(g.reshape(xhat.shape), xhat, sigma, params, len(xhat), dx)
        if dx is not None:
            x._accum(dx.reshape(x.shape), fresh=True)

    return _make(out.reshape(x.shape), (x, params.gamma, params.beta), "batchnorm", back)


# -- the residual conv blocks and pooling -------------------------------------------


def _block_gemms(
    x: Tensor, conv: Conv1dParams, shortcut: Conv1dParams | None, rows: NoteRows | None = None,
) -> tuple[_ConvGemm, _ConvGemm | None]:
    """The conv and shortcut-projection (None: identity) GEMMs of a block
    over the notes of x, laid out by `rows` (`_ConvGemm`)."""
    gemm = _ConvGemm(x.data, conv.kernels.data, rows)
    c_out = gemm.w2.shape[1]
    if shortcut is None and x.shape[-1] != c_out:
        raise ConfigurationError(
            f"identity shortcut needs {c_out} input channels, got {x.shape[-1]}"
        )
    if shortcut is None:
        return gemm, None
    return gemm, _ConvGemm(x.data, shortcut.kernels.data, gemm.rows)


def conv_block_train(
    x: Tensor, conv: Conv1dParams, norm: BatchNormParams, shortcut: Conv1dParams | None,
    *, p: float, rng: np.random.Generator | None, rows: NoteRows | None = None,
) -> Tensor:
    """One train-mode residual conv block as one tape node:
    relu(batchnorm(spatial_dropout(conv1d(x, conv))) + s), where s is x
    (identity shortcut) or conv1d(x, shortcut) (a 1x1 projection).

    x: [..., L, C_in] -> [..., L, C_out]. Without a cut, values,
    gradients, running statistics and the rng draw carry the bits of that
    composition, and every row is computed: batchnorm's batch statistics
    read every row, pad rows included. The node keeps two conv-sized
    arrays, xhat and its output, where the composition keeps five: the
    conv output is scaled by the dropout factor and normalized in place
    into xhat, and the affine map, the shortcut add and the ReLU run in
    place on the output. The backward allocates no conv-sized array of
    its own: it masks the gradient it is handed in place, turns xhat into
    the gradient of the conv output in place (so it runs at most once per
    node), and at C_in == C_out the conv writes its input gradient over
    xhat and a projection over the masked gradient; the shortcut's
    gradient is added into the conv's input gradient.

    `rows` (a train `NoteRows`) that cuts the notes makes x, the
    output and the input gradient their packed compacted rows [R, C]:
    each note's standing row stands for itself and the L - counts[n] rows
    cut out after it, so x must hold the same value on all of them, and
    so must the gradient this node's output receives. A stack of blocks
    over zero-padded notes keeps that true (`NoteRows` sizes the cut).
    Batchnorm's statistics and backward and the kernel, bias, gamma and
    beta gradients weight that row by its multiplicity: up to rounding,
    the block over the uncut notes, whose statistics read every row.
    When no note is cut short of L, the block runs as without `rows`.
    """
    if rows is not None and rows.cut and rows.end is None:
        raise ConfigurationError("conv_block_train: a cut needs the standing rows of end")
    gemm, proj = _block_gemms(x, conv, shortcut, rows)
    rows = gemm.rows
    c_out = gemm.w2.shape[1]
    count = len(rows.counts) * rows.length
    scale = _keep_scale(p, True, rng, (len(rows.counts), 1, c_out))
    xhat = gemm.forward(conv.bias.data, scale)
    out = np.empty_like(xhat)
    sigma = _normalize(xhat, norm, count, out, rows.tail)
    gemm.join(out, proj, shortcut)
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
        _normalize_backward(g, dy, sigma, norm, count, dy, rows.tail)
        dx = gemm.backward(dy, conv, x.requires_grad, scale)
        # the shortcut's input gradient: g itself, or the projection's,
        # which may be written over g
        if proj is not None:
            g = proj.backward(g, shortcut, x.requires_grad)
        if dx is not None:
            dx += g
            x._accum(dx.reshape(x.shape), fresh=True)

    return _make(out.reshape(x.shape[:-1] + (c_out,)), parents, "conv_block", back)


def global_avg_pool(x: Tensor, mask: np.ndarray, rows: NoteRows | None = None) -> Tensor:
    """Per-channel mean over the positions where `mask` [..., L] is True,
    [..., L, C] -> [..., C]: one tape node with the bits of the composition
    `(x * weights).sum(axis=-2) / counts` (weights: the mask as 0/1).

    When `rows` (`NoteRows`) cuts the notes, x is their packed rows
    [R, C] and mask [N, L]: each note's packed rows are weighted and
    summed in row order, the composition's sums but for the zero terms of
    the rows cut out, and the gradient is 0 on every packed row the mask
    leaves out.
    """
    mask = np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=-1)[..., None]
    if np.any(counts == 0):
        raise DataError("global_avg_pool: some input has every position masked")
    weights = mask.astype(np.float64)[..., None]
    packed = rows is not None and rows.cut
    if packed:
        weights = rows.pack(weights)
        sums = np.empty(counts.shape[:-1] + x.shape[-1:])
        for n, (start, stop) in enumerate(zip(rows.offsets[:-1], rows.offsets[1:])):
            sums[n] = (x.data[start:stop] * weights[start:stop]).sum(axis=0)
    else:
        sums = (x.data * weights).sum(axis=-2)

    def back(g):
        g = g / counts
        if packed:
            dx = np.repeat(g, rows.counts, axis=0)
            dx *= weights
            x._accum(dx, fresh=True)
        else:
            x._accum(_unbroadcast(g[..., None, :] * weights, x.shape), fresh=True)

    return _make(sums / counts, (x,), "global_avg_pool", back)


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
