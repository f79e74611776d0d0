"""The kernels of a Strang step: the semi-Lagrangian transport gathers
(`_TransportPlan`) and the implicit v-diffusion's tridiagonal
factorization and solve (`_ImplicitDiffusion`), which `solver._StepPlan`
builds once per solve and runs at every step.

Each kernel owns its arrays and makes every view of them when it is
built, so that a call is its ufunc and `take` calls alone, on views it
already holds.  Every array they allocate starts on a 64-byte boundary
(`_aligned`), where numpy's allocator leaves large arrays at 16 mod 64:
a 4096-element float64 multiply takes 1.6-1.8 us with every operand
aligned and 3.1-3.4 us without.

They are a module of their own because compiling the largest module of
the package sets the interpreter's memory high-water mark at import when
the sources are compiled at every start: in `solver`, these kernels made
it the largest by a fifth, and a desk or n2 run's peak RSS rose by about
0.4 MB.  `solver` re-exports `SolverError`, which a diffusion solve raises.
"""

from __future__ import annotations

import math

import numpy as np


class SolverError(RuntimeError):
    """Linear solve failed to reach the requested residual."""


# the boundary every array of a step plan starts on: a cache line, and one
# AVX-512 vector
_ALIGN = 64


def _aligned(shape, dtype=float) -> np.ndarray:
    """An uninitialised array of `shape` whose data starts on a `_ALIGN`-byte
    boundary: a view of a byte buffer at most `_ALIGN` bytes longer."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    skip = -raw.ctypes.data % _ALIGN
    return raw[skip:skip + nbytes].view(dtype).reshape(shape)


def _padded(n: int) -> int:
    """n rounded up to a multiple of 8 doubles, so that the rows of an
    `_aligned` block all start on the boundary."""
    return -(-n // 8) * 8


# ---------------------------------------------------------------------------
# transport: semi-Lagrangian shift along each x axis, as precomputed gathers
# ---------------------------------------------------------------------------

class _TransportPlan:
    """Advect in x by v*tau: one shift per spatial axis, exact per-axis split.

    Along x axis i, with the field viewed as columns of fixed (v, other
    axes), column j moves by d_j = v_i*tau/dx cells: out[k, j] is the
    interpolation of vals[k - d_j, j].  Linear interpolation is a convex
    combination (monotone, and exactly conservative for uniform shifts).
    The cubic variant is the 4-point Lagrange kernel: still exactly
    conservative and exact on moments up to third order, but not monotone;
    it exists for the moment oracle, not for comparison-principle runs.

    Source indices and weights depend only on the grid and tau, so they
    are built once, as arrays of indices into the flattened input of each
    pass, and applied with `take`.  Non-periodic reads outside the box
    point at one zero appended to the flattened input.  On a cell box the
    feet are measured from the parent grid's rows (`grid.box`), so the
    weights are the whole grid's bit for bit; box-local rows would round
    the fractional feet differently.  A tap's weight depends only on the
    (x_i, v_i) plane of its shift: it is stored expanded along the v axes
    and broadcast along the other x axes (n^3 values per tap on an n^4
    grid), which multiplies as fast as a full copy and equals it bit for
    bit.  Indices and weights are written into `_aligned` arrays.

    `inner` (one slice per axis, default every cell) is the box of cells
    whose output is read, and the call returns the output there.  Each
    pass computes only what the passes after it read: on its own x axis
    and the x axes before it `inner`'s rows, on the later x axes every row,
    and on the v axes, along which nothing moves, `inner`'s rows.

    A call writes its result into `out` and works in `scratch`, flat
    buffers of at least one element more than the grid has cells: the
    first holds each tap's gather, the others each pass's input (with the
    appended zero when not periodic).  A periodic first pass reads its
    input in place.  Every view a call uses is made when the plan is
    built, one (input, gather, accumulator, taps) tuple per pass, so a
    call is the taps' `take`, multiply and add calls alone.
    """

    def __init__(self, grid, tau: float, periodic: bool, cubic: bool, inner=None,
                 scratch=None):
        self.periodic = periodic
        dim = grid.dim
        inner = (slice(None),) * 2 * dim if inner is None else inner
        n = grid.n_x
        start = grid.box[0].start
        # the input of the first pass: every x row, `inner`'s v rows
        self.v_rows = (slice(None),) * dim + inner[dim:]
        shape = [n] * dim + [len(range(grid.n_v)[s]) for s in inner[dim:]]
        cells = math.prod(grid.shape) + 1
        self.scratch = list(_aligned((3, _padded(cells)))) if scratch is None else scratch
        gather, *inputs = self.scratch
        in_size = math.prod(shape)
        # the first pass's input when it is copied (not periodic)
        self.first = None if periodic else inputs[0][:in_size + 1]
        self.first_cells = None if periodic else self.first[:-1].reshape(shape)
        self.passes = []
        self.program = []
        for ax in range(dim):
            rows = np.arange(n)[inner[ax]][:, None]
            fi = (rows + start) - grid.v_centers[inner[dim + ax]][None, :] * tau / grid.dx
            foot = np.floor(fi)
            w = fi - foot
            base = foot.astype(np.int64) - start
            if cubic:
                offs = (-1, 0, 1, 2)
                weights = (-w * (w - 1.0) * (w - 2.0) / 6.0,
                           (w * w - 1.0) * (w - 2.0) / 2.0,
                           -w * (w + 1.0) * (w - 2.0) / 2.0,
                           w * (w * w - 1.0) / 6.0)
            else:
                offs = (0, 1)
                weights = (1.0 - w, w)
            size = math.prod(shape)
            out_shape = list(shape)
            out_shape[ax] = len(rows)
            ids = np.arange(size).reshape(shape)[(slice(None),) * ax + (inner[ax],)]
            # the (x_i, v_i) plane of the shift, broadcast over the other axes
            plane = [1] * 2 * dim
            plane[ax] = len(rows)
            plane[dim + ax] = shape[dim + ax]
            # the weights' stored shape: the plane, expanded along every v axis
            stored = [1] * dim + out_shape[dim:]
            stored[ax] = len(rows)
            stride = math.prod(shape[ax + 1:])
            taps = []
            for o, wk in zip(offs, weights):
                src = base + o
                inside = (src >= 0) & (src < n)
                if periodic:
                    src = src % n
                idx = _aligned(out_shape, np.int64)
                np.add(ids, ((src - rows) * stride).reshape(plane), out=idx)
                if not periodic:
                    np.copyto(idx, size, where=~inside.reshape(plane))
                weight = _aligned(stored)
                weight[...] = wk.reshape(plane)
                taps.append((idx, weight))
            out_shape = tuple(out_shape)
            self.passes.append((out_shape, taps))
            # this pass's input (None: the call's), gather and accumulator
            # (None: the call's `out`)
            source = None
            if ax > 0:
                source = inputs[ax % len(inputs)][:size + (not periodic)]
            acc = None
            out_size = math.prod(out_shape)
            if ax < dim - 1:
                acc = inputs[(ax + 1) % len(inputs)][:out_size].reshape(out_shape)
            self.program.append((source, gather[:out_size].reshape(out_shape), acc,
                                 taps[0], tuple(taps[1:])))
            shape = list(out_shape)
        self.out_shape = self.passes[-1][0]

    def __call__(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(self.out_shape)
        if self.periodic:
            flat = values.reshape(-1)
        else:
            np.copyto(self.first_cells, values[self.v_rows])
            flat = self.first
        for source, gather, acc, (idx, w), rest in self.program:
            if source is not None:
                flat = source
            if not self.periodic:
                flat[-1] = 0.0
            if acc is None:
                acc = out
            flat.take(idx, None, gather, "clip")
            np.multiply(w, gather, acc)
            for idx, w in rest:
                flat.take(idx, None, gather, "clip")
                np.multiply(gather, w, gather)
                np.add(acc, gather, acc)
        return out


# ---------------------------------------------------------------------------
# diffusion: implicit divergence-form finite volume along each v axis
# ---------------------------------------------------------------------------

# a Thomas sweep step processes one block of 2^k rows of the v-first layout;
# cyclic reduction runs until a block holds this many cells or every row
# has decoupled (2^k >= n_v)
_BLOCK_CELLS = 1024


def _reduction_depth(grid) -> int:
    """The cyclic-reduction depth k of a v solve on `grid`: the smallest k
    at which a stride block of 2^k rows holds `_BLOCK_CELLS` cells or
    every row has decoupled."""
    slice_cells = grid.n_x**grid.dim * grid.n_v**(grid.dim - 1)
    depth = 0
    while slice_cells << depth < _BLOCK_CELLS and 1 << depth < grid.n_v:
        depth += 1
    return depth


class _ImplicitDiffusion:
    """Backward Euler for div_v(a grad_v .) with harmonic face averages.

    `active` is an optional boolean mask; inactive cells hold their incoming
    values as Dirichlet data for the coupled rows (the kinetic IBVP passes
    zeros there, the anchored re-solve passes parent-field data), which
    keeps the M-matrix structure.  For dim = 2 the two v axes are advanced
    sequentially (splitting within the substep; first order, matching the
    backward Euler substep order).

    Each v axis is a batch of independent tridiagonal systems, one per
    column of fixed (x, other v).  They are solved on the v-first layout,
    an (n_v, cells per v slice) array, so every row operation is one
    vectorised call over a contiguous slab of columns.  The factorization
    runs k parallel cyclic-reduction stages with coupling distances 1, 2,
    ..., 2^(k-1), which split every column into 2^k interleaved systems of
    coupling distance 2^k, then the Thomas elimination of those with
    stride 2^k.  k is `_reduction_depth(grid)` unless `depth` is given:
    the rows a solve eliminates together follow k, so a box that must
    reproduce a larger grid's solve bit for bit takes that grid's.  The
    matrices are
    strictly diagonally dominant M-matrices, so nothing pivots; a Dirichlet
    row (unit diagonal, no coupling) has zero multipliers at every stage
    and returns its data exactly.  The operator keeps the last coefficient
    arrays it was given with their factors and refactors only when the
    coefficients change, so a time-independent coefficient is factored once
    per solve.  Every solve is checked against the residual tolerance
    1e-9 (1 + max|rhs|) of the original tridiagonal system, over the
    columns it solves; the call returns the worst residual over that
    tolerance.

    Per v axis the factors are the diagonal, the couplings below and above
    it (`lower`, `upper`: n_v - 1 rows each), the Thomas multipliers and
    the inverse pivots, and, at depth k > 0, the stage multipliers and the
    eliminated upper coupling.  Without Dirichlet cells row i + 1 couples
    to row i as row i to row i + 1, so `lower` is `upper`, one array; at
    depth 0 the eliminated upper coupling is `upper` itself.  The factor
    arrays are `_aligned` and allocated once, at the first factorization,
    and `_factor` writes each factorization into them in place, so a
    refactor allocates nothing and the views below stay valid.  Each axis is moved
    to the front by a transposition fixed when the operator is built.  The
    factors are built and every solve runs in `scratch`, three flat
    buffers of at least the grid's cell count (four at depth k > 0): the
    v-first right-hand side, the solution and the products that are
    subtracted; the right-hand side becomes the residual.  A call solves in
    place, writing each axis's solution back into the values it was given.
    Every view of the factors and the scratch that a factorization or a
    solve uses is made once, one tuple per cyclic-reduction stage and per
    Thomas block (`_Axis`); the views of the values are made at the first
    call with an array and kept while the calls pass that same array, as
    a step plan's do.

    `inner` (one slice per axis, default every cell) is the box outside
    which every cell is a Dirichlet cell.  A column of v axis a that lies
    outside it on another axis has no free row, and a solve would return
    its data (save that a -0.0 next to a negative value can come back as
    +0.0), so each axis solves only the columns within `inner` on the
    other axes, and the other cells keep their incoming values.
    """

    def __init__(self, grid, dt: float, active=None, depth: int | None = None,
                 inner=None, scratch=None):
        self.grid = grid
        self.r = dt / grid.dv**2
        self.coeffs = None
        self.depth = _reduction_depth(grid) if depth is None else depth
        dim = grid.dim
        inner = (slice(None),) * 2 * dim if inner is None else inner
        self.columns = [inner[:dim + ax] + (slice(None),) + inner[dim + ax + 1:]
                        for ax in range(dim)]
        # the transposition that moves v axis ax to the front, its inverse,
        # and the shape of the moved columns
        self.moves = []
        for ax, columns in enumerate(self.columns):
            perm = (dim + ax,) + tuple(a for a in range(2 * dim) if a != dim + ax)
            shape = [len(range(n)[s]) for s, n in zip(columns, grid.shape)]
            self.moves.append((perm, tuple(np.argsort(perm)), tuple(shape[a] for a in perm)))
        self.dead = None if active is None else [
            ~np.ascontiguousarray(active[c].transpose(perm)).reshape(grid.n_v, -1)
            for c, (perm, _, _) in zip(self.columns, self.moves)]
        cells = math.prod(grid.shape)
        self.scratch = scratch if scratch is not None else list(
            _aligned((3 + (self.depth > 0), _padded(cells))))
        self.axes = None  # built at the first factorization
        self.bound = None  # the values the axes' loads and stores view

    @property
    def factors(self) -> list:
        """Each v axis's factors, (diag, lower, upper, stages, mult, inverse
        pivots, eliminated upper coupling)."""
        return [axis.factors for axis in self.axes]

    def _factor(self, ax, a):
        """Factor v axis `ax` for the coefficient `a` into its buffers, in
        place; returns the axis's factors (`factors`).  The factor arrays are
        allocated at the first factorization, after the first coefficient
        draw, whose temporaries would otherwise stack on them."""
        if self.axes is None:
            self.axes = [_Axis(self, a) for a in range(self.grid.dim)]
        axis = self.axes[ax]
        np.copyto(axis.a_moved, a[self.columns[ax]].transpose(axis.perm))
        # the face coefficients r*har, negated: har = 2 a_i a_(i+1) / (a_i + a_(i+1)),
        # formed in `upper`
        off, diag = axis.upper, axis.diag
        np.multiply(axis.a_lo, 2.0, off)
        np.multiply(off, axis.a_hi, off)
        np.divide(off, np.add(axis.a_lo, axis.a_hi, axis.tmp_lo), off)
        axis.diag_0.fill(0.0)
        np.copyto(axis.diag_hi, off)
        np.add(axis.diag_lo, off, axis.diag_lo)
        np.multiply(diag, self.r, diag)
        np.add(diag, 1.0, diag)
        np.multiply(off, -self.r, off)
        if self.dead is not None:
            dead = self.dead[ax]
            np.copyto(diag, 1.0, where=dead)
            np.copyto(axis.lower, off)
            np.copyto(axis.lower, 0.0, where=dead[1:])
            np.copyto(axis.upper, 0.0, where=dead[:-1])
        # row i reads lo[i] x[i - d] + di[i] x[i] + up[i] x[i + d]; the first
        # d entries of lo and the last d of up are zero at every stage
        di = axis.inv_diag
        np.copyto(di, diag)
        if self.depth:
            axis.lo_0.fill(-self.r * 0.0)
            axis.up_last.fill(-self.r * 0.0)
            np.copyto(axis.lo_hi, axis.lower)
            np.copyto(axis.up_lo, axis.upper)
            if self.dead is not None:
                np.copyto(axis.lo_0, 0.0, where=dead[0])
                np.copyto(axis.up_last, 0.0, where=dead[-1])
            # at distance d, `_hi` drops the first d rows and `_lo` the last d
            for alpha, gamma, lo_hi, lo_lo, up_hi, up_lo, di_hi, di_lo, tmp_hi, tmp_lo \
                    in axis.stage_factors:
                np.negative(lo_hi, alpha)
                np.divide(alpha, di_lo, alpha)
                np.negative(up_lo, gamma)
                np.divide(gamma, di_hi, gamma)
                np.add(di_hi, np.multiply(alpha, up_lo, tmp_hi), di_hi)
                np.add(di_lo, np.multiply(gamma, lo_hi, tmp_lo), di_lo)
                np.copyto(lo_hi, np.multiply(alpha, lo_lo, tmp_hi))
                np.copyto(up_lo, np.multiply(gamma, up_hi, tmp_lo))
        # lo[i] and up[i] now couple rows i + d and i
        for lo, di_prev, mult, up, tmp, di_next in axis.thomas_factors:
            np.divide(lo, di_prev, mult)
            np.subtract(di_next, np.multiply(mult, up, tmp), di_next)
        np.divide(1.0, di, di)
        return axis.factors

    def _bind(self, values):
        """Make the views of `values` that each axis loads and stores."""
        self.bound = values
        for ax, axis in enumerate(self.axes):
            cols = values[self.columns[ax]]
            axis.load = cols.transpose(axis.perm)
            axis.store = cols

    def __call__(self, values: np.ndarray, coeffs) -> tuple:
        """Solve in place: (`values`, now the solution, worst residual over
        its tolerance)."""
        if coeffs is not self.coeffs and (
                self.coeffs is None or not all(map(np.array_equal, coeffs, self.coeffs))):
            for ax, a in enumerate(coeffs):
                self._factor(ax, a)
            self.coeffs = coeffs
        if values is not self.bound:
            self._bind(values)
        worst = 0.0
        for axis in self.axes:
            np.copyto(axis.rhs_moved, axis.load)
            rhs, sol = axis.rhs, axis.sol
            tol = 1e-9 * (1.0 + float(np.maximum(rhs.max(), -rhs.min())))
            np.copyto(axis.start, rhs)
            for x_head, y_head, alpha, x_lo, tmp_hi, x_hi, y_hi, gamma, tmp_lo, y_lo \
                    in axis.stage_solves:
                np.add(x_hi, np.multiply(alpha, x_lo, tmp_hi), y_hi)
                np.copyto(y_head, x_head)
                np.add(y_lo, np.multiply(gamma, x_hi, tmp_lo), y_lo)
            for mult, x_prev, tmp, x_blk in axis.forward:
                np.subtract(x_blk, np.multiply(mult, x_prev, tmp), x_blk)
            x_last, inv_last = axis.last
            np.multiply(x_last, inv_last, x_last)
            for up, x_next, tmp, x_blk, x_piv, inv in axis.backward:
                np.subtract(x_blk, np.multiply(up, x_next, tmp), x_blk)
                np.multiply(x_piv, inv, x_piv)
            # the residual diag*sol - rhs + lower*sol[:-1] + upper*sol[1:], in rhs
            tmp = axis.tmp
            np.subtract(np.multiply(axis.diag, sol, tmp), rhs, rhs)
            np.add(axis.rhs_hi, np.multiply(axis.lower, axis.sol_lo, axis.tmp_hi), axis.rhs_hi)
            np.add(axis.rhs_lo, np.multiply(axis.upper, axis.sol_hi, axis.tmp_lo), axis.rhs_lo)
            err = float(np.maximum(rhs.max(), -rhs.min()))
            if not np.isfinite(err) or err > tol:
                raise SolverError(f"diffusion solve residual {err:.3e} "
                                  f"exceeds tolerance {tol:.3e}")
            worst = max(worst, err / tol)
            np.copyto(axis.store, axis.sol_moved)
        return values, worst


class _Axis:
    """The factor arrays of one v axis of an `_ImplicitDiffusion` and every
    view its factorization and its solve use, made once: per
    cyclic-reduction stage and per Thomas block one tuple of views, which
    `_ImplicitDiffusion._factor` and `__call__` unpack in order.  The
    solution ends in the second scratch buffer after an even number of
    stages, in the fourth after an odd one."""

    def __init__(self, op, ax):
        n, depth = op.grid.n_v, op.depth
        self.perm, inverse, moved = op.moves[ax]
        cols = math.prod(moved) // n
        rhs_buf, sol_buf, tmp_buf = op.scratch[:3]

        def rows(buf):
            return buf[:n * cols].reshape(n, cols)

        def empty(m):
            # a box solved at a larger grid's depth can couple beyond its rows
            return _aligned((max(m, 0), cols))

        # the factorization's input and scratch
        self.a_moved = rhs_buf[:n * cols].reshape(moved)
        a = rows(rhs_buf)
        self.a_lo, self.a_hi = a[:-1], a[1:]
        tmp = self.tmp = rows(tmp_buf)
        self.tmp_lo, self.tmp_hi = tmp[:-1], tmp[1:]
        # the factor arrays; without Dirichlet rows `lower` is `upper`
        diag = self.diag = empty(n)
        self.diag_0, self.diag_lo, self.diag_hi = diag[0], diag[:-1], diag[1:]
        self.upper = empty(n - 1)
        self.lower = self.upper if op.dead is None else empty(n - 1)
        di = self.inv_diag = empty(n)
        d = 1 << depth
        mult = empty(n - d)
        stages = []
        self.stage_factors = []
        if depth:
            # the stage couplings: lo in the (free while factoring) solution
            # buffer, up kept as the eliminated upper coupling
            lo, up = rows(sol_buf), empty(n)
            self.lo_0, self.up_last = lo[0], up[-1]
            self.lo_hi, self.up_lo = lo[1:], up[:-1]
            s = 1
            for _ in range(depth):
                alpha, gamma = empty(n - s), empty(n - s)
                stages.append((s, alpha, gamma))
                self.stage_factors.append((alpha, gamma, lo[s:], lo[:-s], up[s:], up[:-s],
                                           di[s:], di[:-s], tmp[s:], tmp[:-s]))
                s *= 2
            lo, up = lo[d:], up[:n - d]
        else:
            lo, up = self.lower, self.upper
        self.thomas_factors = [(lo[j - d:e - d], di[j - d:e - d], mult[j - d:e - d],
                                up[j - d:e - d], tmp[j:e], di[j:e])
                               for j in range(d, n, d) for e in [min(j + d, n)]]
        self.factors = (diag, self.lower, self.upper, stages, mult, di, up)
        # the solve: the right-hand side, copied into the solution buffer,
        # then each stage from one of two buffers into the other
        self.rhs_moved = self.a_moved
        rhs = self.rhs = a
        self.rhs_lo, self.rhs_hi = rhs[:-1], rhs[1:]
        x = self.start = rows(sol_buf)
        y = rows(op.scratch[3]) if depth else None
        self.stage_solves = []
        for s, alpha, gamma in stages:
            self.stage_solves.append((x[:s], y[:s], alpha, x[:-s], tmp[s:], x[s:], y[s:],
                                      gamma, tmp[:-s], y[:-s]))
            x, y = y, x
        self.forward = [(mult[j - d:e - d], x[j - d:e - d], tmp[j:e], x[j:e])
                        for j in range(d, n, d) for e in [min(j + d, n)]]
        last = (n - 1) // d * d
        self.last = (x[last:], di[last:])
        self.backward = [(up[j:e], x[j + d:e + d], tmp[j:e], x[j:e], x[j:j + d], di[j:j + d])
                         for j in range(last - d, -1, -d) for e in [min(j + d, n - d)]]
        self.sol = x
        self.sol_lo, self.sol_hi = x[:-1], x[1:]
        self.sol_moved = x.reshape(moved).transpose(inverse)
        self.load = self.store = None
