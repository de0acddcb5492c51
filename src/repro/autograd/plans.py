"""Cached convolution plans (the im2col/col2im raw-speed tier).

Every convolution in the supernet lowers to im2col + GEMM; the backward pass
folds the column gradient back with col2im.  Search-space shapes are
*static*: the same ``(input_shape, kernel, stride, padding, groups)`` tuples
recur on every training step, so the index arithmetic is done once and
cached.  A :class:`ConvPlan` precomputes

* ``gather_index`` — for every ``(kernel tap, output position)`` pair, the
  flat index into one channel plane.  Taps that land in the padding read a
  zero sentinel row appended below the plane, so im2col is one ``take``
  with no ``np.pad`` copy.
* ``matmul_index`` — the same map expanded over a group's input channels and
  transposed to ``(output position, column)``.  The float64 forward gathers
  the columns straight into the ``(g, n*L, k)`` operand ``matmul`` consumes,
  and the backward of a trainable weight gathers them again, through the
  transposed map, into the weight gradient's ``(g, k, n*L)`` operand — a
  block of groups at a time (:meth:`ConvPlan.column_blocks`).
* ``scatter_index`` — the padded-plane map expanded over the channel axis.
  col2im becomes one ``np.bincount`` scatter-add per sample instead of a
  ``kh x kw`` Python loop of strided adds.  It is ``C`` times the size of
  the per-plane ``scatter_taps`` it is expanded from, and depthwise
  backwards never read it (they fold with :meth:`ConvPlan.col2im_outer`),
  so it is built on the first ``col2im`` call.

The float64 contractions (forward, weight gradient, column gradient) are
the ``matmul`` calls numpy's ``einsum(optimize=True)`` makes for the legacy
einsum expressions, on operands with the exact shapes and strides einsum
would pass (:func:`_bmm_lowering`).  BLAS picks its kernel and accumulation
order from those strides, so this is bit-identical to the legacy lowering.
What it removes is einsum's own work: recomputing the contraction path on
every call, and the reshape copy that transposes im2col columns into the
matmul layout — the gather writes that layout directly — and the full
column array: numpy's batched ``matmul`` makes one BLAS call per group, so
gathering and contracting :data:`BLOCK_BYTES` of groups at a time makes the
same BLAS calls on the same strides while the columns stay in cache.  The
output is the same strided view einsum returns (for ``g = 1``, NCHW shape
over NHWC memory): downstream BatchNorm reductions round by memory order,
so a contiguous copy would change results in the last ulp.

Three more pieces complete the tier:

* **Trivial plans** — a 1x1/stride-1/pad-0 convolution (every MBConv
  expand/project pointwise) has an *identity* gather: its columns are the
  input reshaped, and col2im is the inverse reshape.
* **Depthwise fold** — :meth:`ConvPlan.col2im_outer` folds the outer-product
  column gradient tap by tap, without materialising it, and skips taps and
  output rows that land only in the padding.
* **float32** keeps the batched-``matmul`` fast forms over the legacy column
  layout — tolerance-equal, which is that regime's contract — gathered a
  block of groups at a time too (:meth:`ConvPlan.group_columns`).

Bit-identity: im2col is a pure reordering (no arithmetic), and both folds add
each pixel's contributions in exactly the (i, j) ascending order of the
historical loop, so the plan tier is bit-for-bit identical to the
stride-trick/loop/einsum lowering it replaced at float64 — asserted by
``tests/test_conv_plans.py`` against that lowering, kept as the test oracle
``tests/conv_reference.py``, and fenced by the golden-run suites.

This is the only convolution lowering: :mod:`repro.autograd.conv` routes
every ``conv2d`` and ``AvgPool2d`` through it.  Plans are kept in a bounded
LRU keyed on the shape tuple.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from repro.autograd.precision import is_fast_dtype

#: Upper bound on cached plans.  A search space reuses a few dozen shapes;
#: the bound only matters for pathological callers (e.g. a sweep over many
#: resolutions in one process) where old plans are evicted LRU-first.
MAX_PLANS = 128

#: Bytes of gathered im2col columns the contractions hold at a time
#: (at least one group's): half a 2 MiB L2, so each block is gathered and
#: contracted in cache instead of streamed out to DRAM and back.
BLOCK_BYTES = 1 << 20

_lock = threading.Lock()
_cache: "OrderedDict[Tuple, ConvPlan]" = OrderedDict()
_stats = {"hits": 0, "misses": 0}


# ----------------------------------------------------------------------
# einsum's pairwise lowering, replayed as explicit matmul calls
# ----------------------------------------------------------------------
class _Operand(NamedTuple):
    """How one operand of a pairwise contraction reaches ``matmul``."""

    drop: Tuple[int, ...]  # size-1 axes squeezed away
    perm: Tuple[int, ...]  # order of the remaining axes
    spec: str  # the same squeeze + permutation as a one-operand einsum
    shape: Optional[Tuple[int, ...]]  # reshape target, None when there is none


class _Lowering(NamedTuple):
    a: _Operand
    b: _Operand
    out_shape: Optional[Tuple[int, ...]]
    out_perm: Optional[Tuple[int, ...]]
    pure: bool  # no contracted axis: a broadcast multiply instead of matmul


def _operand(term: str, kept: str, shape=None) -> _Operand:
    rest = [ix for ix in term if ix in kept]
    return _Operand(
        tuple(axis for axis, ix in enumerate(term) if ix not in kept),
        tuple(rest.index(ix) for ix in kept),
        f"{term}->{kept}",
        shape,
    )


@functools.lru_cache(maxsize=1024)
def _bmm_lowering(eq: str, shape_a: Tuple[int, ...], shape_b: Tuple[int, ...]) -> _Lowering:
    """The ``matmul`` numpy's ``einsum(eq, a, b, optimize=True)`` makes.

    numpy (``bmm_einsum``) ignores size-1 axes, permutes the operands to
    ``(batch, kept, contracted)`` and ``(batch, contracted, kept)``, fuses
    each group with a reshape (a copy when the permuted view cannot be
    fused), calls ``matmul`` once, and reshapes and transposes the product
    back to the output subscripts.  With no contracted axis it broadcasts
    both operands to the output order and multiplies.  This replays those
    decisions for the convolution equations, where every subscript appears
    in the output or in both operands.
    """
    lhs, out = eq.split("->")
    a_term, b_term = lhs.split(",")
    sizes = {**dict(zip(a_term, shape_a)), **dict(zip(b_term, shape_b))}
    a_live = [ix for ix in a_term if sizes[ix] != 1]
    b_live = [ix for ix in b_term if sizes[ix] != 1]
    con = [ix for ix in a_live if ix in b_live and ix not in out]
    if not con:

        def broadcast(term: str) -> _Operand:
            kept = "".join(ix for ix in out if ix in term)
            return _operand(term, kept, tuple(sizes[ix] if ix in term else 1 for ix in out))

        return _Lowering(broadcast(a_term), broadcast(b_term), None, None, True)

    bat = [ix for ix in a_live if ix in b_live and ix in out]
    a_keep = [ix for ix in a_live if ix not in b_live]
    b_keep = [ix for ix in b_live if ix not in a_live]
    lead = (bat,) if bat else ()

    def fuse(term: str, groups) -> _Operand:
        kept = "".join(ix for group in groups for ix in group)
        if all(len(group) == 1 for group in groups):
            return _operand(term, kept)
        shape = tuple(math.prod(sizes[ix] for ix in group) for group in groups)
        return _operand(term, kept, shape)

    out_groups = lead + (a_keep, b_keep)
    singletons = [ix for ix in out if sizes[ix] == 1]
    out_shape = None
    if singletons or any(len(group) != 1 for group in out_groups):
        out_shape = (1,) * len(singletons) + tuple(
            sizes[ix] for group in out_groups for ix in group
        )
    produced = "".join(singletons + bat + a_keep + b_keep)
    out_perm = None if produced == out else tuple(produced.index(ix) for ix in out)
    return _Lowering(
        fuse(a_term, lead + (a_keep, con)),
        fuse(b_term, lead + (con, b_keep)),
        out_shape,
        out_perm,
        False,
    )


def _is_compact(view: np.ndarray) -> bool:
    """Whether ``view`` is a permutation of a C-contiguous array."""
    return view.transpose(np.argsort(view.strides)[::-1]).flags.c_contiguous


def _prepare(x: np.ndarray, op: _Operand) -> np.ndarray:
    """The array einsum hands ``matmul`` for one operand.

    einsum copies an operand whose size-1 axes it squeezes; the copy keeps
    the source's memory order, so for a compact source the squeezed view has
    the same strides and no copy is made.  Where einsum fuses the legacy
    contiguous im2col columns it copies them; the plan's column gather
    (:meth:`ConvPlan.column_blocks`) writes that copy's C-contiguous layout
    itself, so only columns einsum does not fuse pass through here.
    """
    if op.drop:
        view = np.squeeze(x, axis=op.drop).transpose(op.perm)
        if not _is_compact(view):
            view = np.einsum(op.spec, x)  # einsum's own squeeze copy
    else:
        view = x.transpose(op.perm)
    if op.shape is not None:
        view = view.reshape(op.shape)
    return view


def _bmm(eq: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(eq, a, b, optimize=True)`` as the ``matmul`` it makes.

    ``eq`` lists the operands in the order einsum contracts them, which for
    two operands is the reverse of the order they are written in.
    """
    lowering = _bmm_lowering(eq, a.shape, b.shape)
    a = _prepare(a, lowering.a)
    b = _prepare(b, lowering.b)
    if lowering.pure:
        return np.multiply(a, b)
    return _finish(np.matmul(a, b), lowering)


def _finish(product: np.ndarray, lowering: _Lowering) -> np.ndarray:
    """einsum's reshape and transpose of the ``matmul`` product to the output subscripts."""
    if lowering.out_shape is not None:
        product = product.reshape(lowering.out_shape)
    if lowering.out_perm is not None:
        product = product.transpose(lowering.out_perm)
    return product


def grad_weight_fast(grad_grouped: np.ndarray, cols_grouped: np.ndarray) -> np.ndarray:
    """The float32 weight gradient ``(n,g,o,l) x (n,g,k,l) -> (g,o,k)``.

    Per-sample batched ``matmul`` + sum over the batch axis, ~3x faster than
    the einsum on the depthwise bench geometry (``conv_bwd_weight`` bench
    key); tolerance-equal, which is the float32 regime's contract.
    """
    return np.matmul(grad_grouped, np.swapaxes(cols_grouped, -1, -2)).sum(axis=0)


def _inside(offset: int, stride: int, count: int, size: int) -> Tuple[int, int]:
    """Output positions ``[lo, hi)`` whose tap ``offset + stride * r`` is in ``[0, size)``."""
    lo = max(0, -(offset // stride))
    hi = min(count, (size - 1 - offset) // stride + 1)
    return lo, hi


class ConvPlan:
    """Precomputed index maps for one convolution geometry.

    Parameters mirror the lowering: ``input_shape`` is the full NCHW shape
    (the batch size participates only in the im2col/col2im reshapes, not in
    the index maps, which depend on channels, groups and spatial geometry).
    """

    __slots__ = (
        "input_shape",
        "kernel",
        "stride",
        "padding",
        "groups",
        "out_hw",
        "padded_hw",
        "gather_index",
        "matmul_index",
        "scatter_taps",
        "scatter_index",
        "scatter_bins",
        "trivial",
    )

    def __init__(
        self,
        input_shape: Tuple[int, int, int, int],
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
        groups: int = 1,
    ) -> None:
        n, c, h, w = input_shape
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        out_h = (h + 2 * ph - kh) // sh + 1
        out_w = (w + 2 * pw - kw) // sw + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"convolution output would be empty for input {input_shape}, "
                f"kernel {kernel}, stride {stride}, padding {padding}"
            )
        pad_h, pad_w = h + 2 * ph, w + 2 * pw
        self.input_shape = input_shape
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.out_hw = (out_h, out_w)
        self.padded_hw = (pad_h, pad_w)
        # 1x1/stride-1/pad-0: the gather is the identity permutation, so
        # im2col/col2im are pure reshapes and no index map is built.
        self.trivial = kernel == (1, 1) and stride == (1, 1) and padding == (0, 0)
        self.gather_index = self.matmul_index = self.scatter_taps = self.scatter_index = None
        self.scatter_bins = c * pad_h * pad_w
        if self.trivial:
            return
        length = out_h * out_w
        # (kh, kw, out_h, out_w) input coordinates of every tap, unpadded.
        rows = np.arange(kh)[:, None, None, None] + sh * np.arange(out_h)[None, None, :, None] - ph
        cols = np.arange(kw)[None, :, None, None] + sw * np.arange(out_w)[None, None, None, :] - pw
        inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
        # Padding taps read the first cell of the zero row below the plane.
        taps = np.where(inside, rows * w + cols, h * w).reshape(kh * kw, length)
        self.gather_index = taps.astype(np.intp)
        plane = (h + 1) * w if (ph or pw) else h * w
        group_in = c // groups
        per_group = np.arange(group_in, dtype=np.intp)[:, None, None] * plane + self.gather_index
        self.matmul_index = np.ascontiguousarray(per_group.transpose(2, 0, 1)).reshape(
            length, group_in * kh * kw
        )
        # Every tap's pixel in one padded plane; col2im expands it over the
        # channels on first use.
        self.scatter_taps = ((rows + ph) * pad_w + (cols + pw)).reshape(-1)

    # ------------------------------------------------------------------
    def _source(self, x: np.ndarray, group_major: bool) -> np.ndarray:
        """``x`` as ``(n, g, c/g, rows, w)`` planes (``g`` first if ``group_major``),
        with a zero sentinel row below every plane when the geometry is padded."""
        n, c, h, w = x.shape
        grouped = x.reshape(n, self.groups, c // self.groups, h, w)
        if group_major:
            grouped = grouped.transpose(1, 0, 2, 3, 4)
        if self.padding == (0, 0):
            return np.ascontiguousarray(grouped)
        source = np.empty(grouped.shape[:3] + (h + 1, w), dtype=x.dtype)
        source[..., :h, :] = grouped
        source[..., h, :] = 0
        return source

    def im2col(self, x: np.ndarray) -> np.ndarray:
        """Unfold ``x`` (N, C, H, W) into contiguous (N, C*kh*kw, out_h*out_w) columns.

        Trivial plans skip the gather: the columns of a 1x1/s1/p0 convolution
        *are* the input, so the result is a zero-copy reshape of a contiguous
        input.
        """
        n, c, h, w = x.shape
        if self.trivial:
            return np.ascontiguousarray(x).reshape(n, c, h * w)
        taps, length = self.gather_index.shape
        planes = self._source(x, group_major=False).reshape(n, c, -1)
        return planes.take(self.gather_index, axis=2).reshape(n, c * taps, length)

    def group_columns(self, x: np.ndarray) -> Iterator[Tuple[int, int, np.ndarray]]:
        """The legacy ``(n, b, k, l)`` im2col columns of ``x``, a block of groups at a time.

        Yields ``(g0, g1, cols)``: groups ``[g0, g1)``'s slice of
        ``im2col(x)`` grouped as ``(n, g, k, l)``.  A block holds at most
        :data:`BLOCK_BYTES` (at least one group), as in :meth:`column_blocks`,
        so the whole column array is never held.  A trivial plan's columns
        are a view of ``x``, so they come as one block.
        """
        n, c, h, w = x.shape
        g = self.groups
        length = self.out_hw[0] * self.out_hw[1]
        k = (c // g) * self.kernel[0] * self.kernel[1]
        if self.trivial:
            yield 0, g, np.ascontiguousarray(x).reshape(n, g, k, length)
            return
        step = max(1, BLOCK_BYTES // (n * length * k * x.itemsize))
        planes = self._source(x, group_major=False).reshape(n, g, c // g, -1)
        for g0 in range(0, g, step):
            g1 = min(g0 + step, g)
            cols = planes[:, g0:g1].take(self.gather_index, axis=3)
            yield g0, g1, cols.reshape(n, g1 - g0, k, length)

    def column_blocks(
        self, x: np.ndarray, transposed: bool
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """The fused float64 columns of ``x``, a cache-sized block of groups at a time.

        Yields ``(g0, g1, block)``: groups ``[g0, g1)``'s columns as the
        C-contiguous matmul operand einsum's fusing copy builds, ``(b, n*l,
        k)`` for the forward, or ``(b, k, n*l)`` for the weight gradient when
        ``transposed``.  A block holds at most :data:`BLOCK_BYTES` (at least
        one group), so it is gathered and contracted while it is in cache;
        all blocks share one buffer, so each is valid until the next one is
        yielded.

        Non-trivial plans gather with one ``take`` per block: through
        :attr:`matmul_index` over each sample's plane, or, transposed,
        through a ``(k, n*l)`` map of ``matmul_index`` transposed plus each
        sample's offset, built per call.  A trivial plan's columns are ``x``
        in that layout: a view when ``x`` already has it (the forward of an
        NHWC-strided ``g = 1`` input), else a copy.
        """
        n, c, h, w = x.shape
        g = self.groups
        length = self.out_hw[0] * self.out_hw[1]
        k = (c // g) * self.kernel[0] * self.kernel[1]
        shape = (k, n * length) if transposed else (n * length, k)
        step = max(1, BLOCK_BYTES // (n * length * k * x.itemsize))
        if self.trivial:
            order = (1, 2, 0, 3) if transposed else (1, 0, 3, 2)
            grouped = x.reshape(n, g, k, length).transpose(order)
            for g0 in range(0, g, step):
                g1 = min(g0 + step, g)
                yield g0, g1, np.ascontiguousarray(grouped[g0:g1]).reshape((g1 - g0,) + shape)
            return
        planes = self._source(x, group_major=True).reshape(g, n, -1)
        if transposed:
            # Row (channel, tap), column (sample, position): the forward's
            # per-sample map plus each sample's offset into its group's planes.
            offsets = np.arange(n, dtype=np.intp)[:, None] * planes.shape[2]
            index = (self.matmul_index.T[:, None, :] + offsets).reshape(shape)
            planes = planes.reshape(g, -1)
        else:
            index = self.matmul_index
        buffer = np.empty((min(step, g),) + planes.shape[1:-1] + index.shape, dtype=x.dtype)
        for g0 in range(0, g, step):
            g1 = min(g0 + step, g)
            block = buffer[: g1 - g0]
            # "clip" lets take write into ``block`` unbuffered; every index is in range.
            planes[g0:g1].take(index, axis=-1, out=block, mode="clip")
            yield g0, g1, block.reshape((g1 - g0,) + shape)

    def _contract(self, eq: str, x: np.ndarray, other: np.ndarray, transposed: bool) -> np.ndarray:
        """``_bmm(eq, columns, other)`` over the ``(n, g, k, l)`` columns of ``x``.

        Where einsum fuses the columns, they are gathered and contracted a
        block of groups at a time (:meth:`column_blocks`), each block's
        ``matmul`` writing its slice of the one product einsum's ``matmul``
        returns.  numpy's batched ``matmul`` makes one BLAS call per group,
        and a block slice hands each group's matrices over with the same
        shape and strides, so every BLAS call is the one the whole-batch
        ``matmul`` makes.  For ``g = 1`` the loop runs once.  When a size-1
        axis leaves einsum nothing to fuse (batch 1, one output position, or
        one tap in the forward), einsum hands ``matmul`` strided views of the
        legacy contiguous columns instead, so those are gathered whole.
        """
        n = x.shape[0]
        g = self.groups
        length = self.out_hw[0] * self.out_hw[1]
        k = (x.shape[1] // g) * self.kernel[0] * self.kernel[1]
        lowering = _bmm_lowering(eq, (n, g, k, length), other.shape)
        if lowering.pure or lowering.a.shape is None:
            return _bmm(eq, self.im2col(x).reshape(n, g, k, length), other)
        other = _prepare(other, lowering.b)
        other = other.reshape((g,) + other.shape[-2:])  # g = 1: a leading axis
        rows = k if transposed else n * length
        product = np.empty((g, rows, other.shape[-1]), dtype=np.result_type(x, other))
        for g0, g1, block in self.column_blocks(x, transposed):
            np.matmul(block, other[g0:g1], out=product[g0:g1])
        return _finish(product, lowering)

    def forward(self, x: np.ndarray, weight_grouped: np.ndarray) -> np.ndarray:
        """Forward ``(g, o, k) x (n, g, k, l) -> (n, g, o, l)`` over ``x``'s columns.

        * **float64** — the einsum's strided output view, e.g. NCHW over
          NHWC memory for ``g = 1`` — not a contiguous copy.
        * **float32** — batched ``matmul`` over the legacy columns, a block
          of groups at a time (:meth:`group_columns`), each block writing
          its slice of the product: the per-sample matmuls of the
          whole-array call, so blocking changes no result.
        """
        if is_fast_dtype(weight_grouped, x):
            n = x.shape[0]
            g, o = weight_grouped.shape[:2]
            length = self.out_hw[0] * self.out_hw[1]
            product = np.empty((n, g, o, length), dtype=np.result_type(weight_grouped, x))
            for g0, g1, cols in self.group_columns(x):
                np.matmul(weight_grouped[None, g0:g1], cols, out=product[:, g0:g1])
            return product
        return self._contract("ngkl,gok->ngol", x, weight_grouped, transposed=False)

    def grad_weight(self, grad_grouped: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Weight-gradient contraction ``(n,g,o,l) x (n,g,k,l) -> (g,o,k)``.

        ``x`` is the forward input: only the weight gradient reads a
        convolution's columns, so the forward drops them and the backward
        of a trainable weight gathers them again.

        * **float64** — einsum's own matmul over the same operands, so the
          accumulation order (the golden bit-identity contract) is unchanged.
        * **float32** — :func:`grad_weight_fast` over the legacy columns, a
          block of groups at a time (:meth:`group_columns`).  Each group's
          per-sample matmuls and batch sum are the ones the whole-array call
          makes, so blocking changes no result.
        """
        if is_fast_dtype(grad_grouped, x):
            n, g, o, length = grad_grouped.shape
            k = (x.shape[1] // g) * self.kernel[0] * self.kernel[1]
            product = np.empty((g, o, k), dtype=np.result_type(grad_grouped, x))
            for g0, g1, cols in self.group_columns(x):
                product[g0:g1] = grad_weight_fast(grad_grouped[:, g0:g1], cols)
            return product
        return self._contract("ngkl,ngol->gok", x, grad_grouped, transposed=True)

    def grad_columns(self, weight_grouped: np.ndarray, grad_grouped: np.ndarray) -> np.ndarray:
        """Column gradient ``(g, o, k) x (n, g, o, l) -> (n, g, k, l)``.

        * **one output channel per group** — the o-contraction has a single
          term, so it is an outer product: one rounding per element,
          bit-identical however it is computed, and a broadcast multiply
          beats both einsum and batched matmul.  Safe at float64.
        * **float32** — batched ``matmul`` (tolerance-equal).
        * **float64** — einsum's own matmul (:func:`_bmm`).
        """
        if weight_grouped.shape[1] == 1:
            return np.swapaxes(weight_grouped, -1, -2)[None] * grad_grouped
        if is_fast_dtype(weight_grouped, grad_grouped):
            return np.matmul(np.swapaxes(weight_grouped, -1, -2)[None], grad_grouped)
        return _bmm("ngol,gok->ngkl", grad_grouped, weight_grouped)

    def col2im(self, cols: np.ndarray) -> np.ndarray:
        """Fold (N, C*kh*kw, L) columns back to (N, C, H, W), accumulating.

        One ``np.bincount`` scatter-add per sample replaces the historical
        ``kh x kw`` Python loop; the result is bit-identical (see module
        docstring) and the output keeps the columns' dtype.
        """
        _, c, h, w = self.input_shape
        n = cols.shape[0]  # plans are shared across batch sizes
        if self.trivial:
            # Each pixel receives exactly one contribution; the float64
            # bincount round-trip of a single value is exact at any dtype,
            # so the fold degenerates to the inverse reshape.
            return np.ascontiguousarray(cols).reshape(n, c, h, w)
        ph, pw = self.padding
        pad_h, pad_w = self.padded_hw
        if self.scatter_index is None:
            # Channel-expanded scatter map over the padded planes: bin
            # (channel, padded pixel).  The batch axis is handled by a
            # per-sample bincount, which keeps the index memory O(C * kh * kw * L).
            self.scatter_index = (
                np.arange(c, dtype=np.intp)[:, None] * (pad_h * pad_w) + self.scatter_taps[None, :]
            ).reshape(-1)
        flat_cols = np.ascontiguousarray(cols).reshape(n, -1)
        folded = np.empty((n, self.scatter_bins), dtype=np.float64)
        for sample in range(n):
            folded[sample] = np.bincount(
                self.scatter_index, weights=flat_cols[sample], minlength=self.scatter_bins
            )
        padded = folded.reshape(n, c, pad_h, pad_w)
        if padded.dtype != cols.dtype:
            padded = padded.astype(cols.dtype)
        if ph == 0 and pw == 0:
            return padded
        return padded[:, :, ph : ph + h, pw : pw + w]

    def col2im_outer(self, weight: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Fused fold of an outer-product column gradient (depthwise backward).

        For a depthwise convolution the column gradient is the outer product
        ``weight[c, kh*kw] * grad[n, c, l]`` — materialising it as a full
        ``(N, C*kh*kw, L)`` array just to fold it again is the single
        biggest allocation of the backward pass.  This loops over the
        ``kh*kw`` kernel taps instead, computing each tap's product into one
        reused buffer and adding it into an unpadded channels-*last* image,
        so every add runs over contiguous channel runs.  Each tap is clipped
        to the output positions that land inside the image; taps that land
        only in the padding are skipped.

        Bit-identity with the legacy outer product + loop fold: each product
        is a single rounding, and each image pixel accumulates its taps in
        the same ascending ``(i, j)`` order as the historical loop — only
        padding cells, which the legacy fold discards, are left out.
        """
        n = grad.shape[0]
        c, h, w = self.input_shape[1:]
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        out_h, out_w = self.out_hw
        dtype = np.result_type(weight, grad)
        # (n, out_h, out_w, c): channel axis contiguous for the tap adds.
        grad_t = np.ascontiguousarray(
            grad.reshape(n, c, out_h, out_w).transpose(0, 2, 3, 1), dtype=dtype
        )
        weight_t = np.ascontiguousarray(weight.T, dtype=dtype)  # (kh*kw, c)
        image = np.zeros((n, h, w, c), dtype=dtype)
        product = np.empty_like(grad_t)
        for tap in range(kh * kw):
            i, j = divmod(tap, kw)
            r0, r1 = _inside(i - ph, sh, out_h, h)
            q0, q1 = _inside(j - pw, sw, out_w, w)
            if r0 >= r1 or q0 >= q1:
                continue
            part = product[:, r0:r1, q0:q1]
            np.multiply(weight_t[tap], grad_t[:, r0:r1, q0:q1], out=part)
            top = i - ph + sh * r0
            left = j - pw + sw * q0
            image[:, top : top + sh * (r1 - r0) : sh, left : left + sw * (q1 - q0) : sw] += part
        return np.ascontiguousarray(image.transpose(0, 3, 1, 2))


def get_plan(
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    groups: int = 1,
) -> ConvPlan:
    """The cached :class:`ConvPlan` for a geometry (built on first use).

    The batch size is excluded from the cache key — plans are shared by all
    batch sizes of one (channels, spatial, kernel, groups) geometry, so a
    final odd-sized batch reuses its full-batch plan.
    """
    key = (tuple(input_shape[1:]), tuple(kernel), tuple(stride), tuple(padding), int(groups))
    with _lock:
        plan = _cache.get(key)
        if plan is not None:
            _cache.move_to_end(key)
            _stats["hits"] += 1
            return plan
        _stats["misses"] += 1
    plan = ConvPlan(tuple(input_shape), tuple(kernel), tuple(stride), tuple(padding), int(groups))
    with _lock:
        _cache[key] = plan
        _cache.move_to_end(key)
        while len(_cache) > MAX_PLANS:
            _cache.popitem(last=False)
    return plan


def clear_plan_cache() -> None:
    """Drop all cached plans and reset the hit/miss counters (tests)."""
    with _lock:
        _cache.clear()
        _stats["hits"] = 0
        _stats["misses"] = 0


def plan_cache_info() -> Dict[str, int]:
    """Cache statistics: ``{"size": ..., "hits": ..., "misses": ...}``."""
    with _lock:
        return {"size": len(_cache), "hits": _stats["hits"], "misses": _stats["misses"]}
