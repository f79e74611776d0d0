"""Time integration of (d_t + v.grad_x) f = div_v(A grad_v f) + g.

The step is a Strang sandwich: half transport, full implicit diffusion
(which carries the source increment dt*g), half transport.  Transport is
semi-Lagrangian in x per fixed v with monotone clamped-linear
interpolation by default; a Lagrange-cubic variant is available where
moment accuracy matters (linear interpolation adds O(v dx) numerical
diffusion in x, the cubic kernel none).  Diffusion is a
divergence-form two-point-flux finite-volume solve along each v axis with
harmonic face averaging of the coefficient, integrated by backward Euler,
so the substep is an M-matrix solve and constants are exact fixed points.

Work that depends only on the grid, dt and the coefficient is done once
per solve, in a step plan (`solve` and `solve_anchored` build one; the
public `step` builds one per call).  The transport's flat gather indices
and interpolation weights are fixed for the solve; a tap's weights are
stored on the (x_i, v_i) plane of its shift expanded along the v axes,
n^3 values on an n^4 grid.  The coefficient arrays and the source
increment dt*g are resampled only when the field's `time_key` changes:
never for a time-independent field, once per time cell for a
cellwise-random one, every step for an oscillatory one or under a
drifting zoom.  The plan takes its increments from the source's
`increments_for(grid, dt)`: a `SourceField` draws dt*g by time key, a
barrier source (`degiorgi.BarrierSource`) returns the increments it
holds.  The diffusion factors its tridiagonal systems in numpy
(cyclic-reduction stages, then a strided Thomas sweep) and refactors only
when the sampled coefficient arrays change; without Dirichlet cells the
coupling below the diagonal is the one above it, stored once.  Each step
then applies the gathers and one factored solve per v axis, whose
residual is checked against 1e-9 (1 + max|rhs|) and recorded in the
ledger as `diff_residual`, the worst residual over that tolerance.  A step
runs in buffers the plan allocates once and allocates no slice-sized
array: on N = 2 a plan holds about 20 slices (the index gathers, four
factor arrays per v axis, the coefficient samples and its buffers), and
its step returns one of them, valid until the next step.  One loop
steps a solve: the generator `march` yields each stored slice in that
buffer as it comes, and `solve` is `march` collected, with the energy
ledger, whose squares are taken in a scratch buffer of the plan.  A
caller that only reduces the slices steps `march` itself and holds no
trajectory (the affine check of `pipeline._bisection`).
`solve_anchored` runs the same step with its Dirichlet ring filled from
the data, on the cell box of the unpinned cells widened by the
transport's reach: only that box is stepped and carried, and each step
fills only the pinned cells inside it.  Its transport weights come from
the parent grid's rows and its diffusion keeps the whole grid's
cyclic-reduction depth, so every value is the whole-grid step's bit for
bit.

Boundary conditions:

* whole_space - periodic in x, conservative zero-flux truncation in v
  (constants remain exact solutions; compactly supported data never sees
  the truncation).
* kinetic_ibvp(R) - the barrier problem on (T, 0) x B(0,R)^2: zero
  Dirichlet on |v| = R, and zero on the inflow part of |x| = R where
  v.x < 0, realized by zeroing semi-Lagrangian feet that trace outside
  the ball (the CFL bound dt <= dx / v_max keeps feet within one cell).
  It is solved on whatever cell box its sources live on: a `PhaseGrid`,
  or the level's `GridWindow`, the cell box of B(R)^2 with one Dirichlet v
  cell past it.  Every cell outside the ball is pinned to zero, and a foot
  that leaves the box reads zero as one that lands on a pinned cell does;
  the window's transport weights come from the parent grid's rows, so the
  transport on the window is bit-equal to the whole grid's on the ball.
  Only the diffusion's elimination order follows the smaller slab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import KeyedSampler
from .degiorgi import LOCAL_ENERGY_LEVELS, BarrierSource, LevelPass
from .fields import PhaseField, Trajectory
from .geometry import PhaseGrid, _CellBox, _bounding_box, dyadic_radius, dyadic_time, \
    face_divergence, grad_v_sq_density, time_quadrature_weights

__all__ = [
    "SolverError",
    "CFLError",
    "StepCountError",
    "BoundaryCondition",
    "WHOLE_SPACE",
    "kinetic_ibvp",
    "step",
    "march",
    "solve",
    "solve_anchored",
    "whole_steps",
    "ring_mask",
    "solve_barrier_ibvp",
    "energy_budget",
    "local_energy_check",
    "comparison_check",
    "second_moments",
    "grad_v_sq_sum",
]


class SolverError(RuntimeError):
    """Linear solve failed to reach the requested residual."""


class CFLError(ValueError):
    """Time step violates the transport bound dt <= dx / v_max."""


class StepCountError(ValueError):
    """A time span is no whole number of steps (`param` = "dt"), or its
    step count is no multiple of the storage stride (`param` =
    "store_every")."""

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


def whole_steps(span: float, dt: float, store_every: int = 1) -> int:
    """The step count of a march over `span` > 0 at step `dt`: span/dt
    rounded, which must be exact to 1e-9 of max(1, span) and divisible by
    `store_every` so the stored slices stay uniform."""
    n_steps = max(1, int(round(span / dt)))
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise StepCountError("dt", f"span {span} is not an integer multiple "
                                   f"of dt = {dt}")
    if n_steps % store_every != 0:
        raise StepCountError("store_every", f"store_every = {store_every} must "
                                            f"divide the step count {n_steps} "
                                            f"(stored slices stay uniform)")
    return n_steps


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in ("whole_space", "kinetic_ibvp"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "kinetic_ibvp" and (self.radius is None or self.radius <= 0):
            raise ValueError("kinetic_ibvp requires a positive ball radius")

    @property
    def periodic_x(self) -> bool:
        return self.kind == "whole_space"


WHOLE_SPACE = BoundaryCondition("whole_space")


def kinetic_ibvp(radius: float) -> BoundaryCondition:
    return BoundaryCondition("kinetic_ibvp", radius=radius)


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
    bit.

    `inner` (one slice per axis, default every cell) is the box of cells
    whose output is read, and the call returns the output there.  Each
    pass computes only what the passes after it read: on its own x axis
    and the x axes before it `inner`'s rows, on the later x axes every row,
    and on the v axes, along which nothing moves, `inner`'s rows.

    A call writes its result into `out` and works in `scratch`, flat
    buffers of at least one element more than the grid has cells: the
    first holds each tap's gather, the others each pass's input (with the
    appended zero when not periodic).  A periodic first pass reads its
    input in place.
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
        self.passes = []
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
            size = int(np.prod(shape))
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
            stride = int(np.prod(shape[ax + 1:]))
            taps = []
            for o, wk in zip(offs, weights):
                src = base + o
                inside = (src >= 0) & (src < n)
                if periodic:
                    src = src % n
                idx = ids + ((src - rows) * stride).reshape(plane)
                if not periodic:
                    idx = np.where(inside.reshape(plane), idx, size)
                taps.append((idx, np.broadcast_to(wk.reshape(plane), stored).copy()))
            self.passes.append((tuple(out_shape), taps))
            shape = out_shape
        cells = int(np.prod(grid.shape)) + 1
        self.scratch = scratch if scratch is not None else [np.empty(cells) for _ in range(3)]

    def __call__(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        gather, *inputs = self.scratch
        src = values[self.v_rows]
        if self.periodic:
            flat = np.ascontiguousarray(src).reshape(-1)
        else:
            flat = inputs[0][:src.size + 1]
            flat[:-1].reshape(src.shape)[...] = src
            flat[-1] = 0.0
        for p, (shape, taps) in enumerate(self.passes):
            size = int(np.prod(shape))
            if p == len(self.passes) - 1:
                acc = np.empty(shape) if out is None else out
                nxt = None
            else:
                nxt = inputs[(p + 1) % len(inputs)][:size + 1]
                acc = nxt[:-1].reshape(shape)
            g = gather[:size].reshape(shape)
            (idx, w), *rest = taps
            flat.take(idx, out=g, mode="clip")
            np.multiply(w, g, out=acc)
            for idx, w in rest:
                flat.take(idx, out=g, mode="clip")
                g *= w
                acc += g
            if nxt is not None:
                if self.periodic:
                    flat = nxt[:-1]
                else:
                    nxt[-1] = 0.0
                    flat = nxt
        return acc


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
    depth 0 the eliminated upper coupling is `upper` itself.  Each axis is
    moved to the front by a transposition fixed when the operator is built.
    The factors are built and every solve runs in `scratch`, three flat
    buffers of at least the grid's cell count (four at depth k > 0): the
    v-first right-hand side, the solution and the products that are
    subtracted; the right-hand side becomes the residual.  A call solves in
    place, writing each axis's solution back into the values it was given.

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
        self.factors = None
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
        cells = int(np.prod(grid.shape))
        self.scratch = scratch if scratch is not None else [
            np.empty(cells) for _ in range(3 + (self.depth > 0))]

    def _v_first(self, arr, ax, buf):
        """The columns of `arr` that v axis `ax` solves, copied into `buf`
        as (n_v, columns) with that axis first."""
        perm, _, moved = self.moves[ax]
        out = buf[:int(np.prod(moved))].reshape(moved)
        out[...] = arr[self.columns[ax]].transpose(perm)
        return out.reshape(self.grid.n_v, -1)

    def _factor(self, ax, a):
        rhs, tmp = self.scratch[0], self.scratch[2]
        a = self._v_first(a, ax, rhs)
        n = len(a)
        # the face coefficients r*har, negated: har = 2 a_i a_(i+1) / (a_i + a_(i+1))
        off = np.multiply(a[:-1], 2.0)
        off *= a[1:]
        off /= np.add(a[:-1], a[1:], out=tmp[:off.size].reshape(off.shape))
        diag = np.zeros(a.shape)
        diag[1:] = off
        diag[:-1] += off
        diag *= self.r
        diag += 1.0
        off *= -self.r
        if self.dead is None:
            lower = upper = off
        else:
            dead = self.dead[ax]
            np.copyto(diag, 1.0, where=dead)
            lower = np.where(dead[1:], 0.0, off)
            upper = np.where(dead[:-1], 0.0, off)
        tmp = tmp[:a.size].reshape(a.shape)
        # row i reads lo[i] x[i - d] + di[i] x[i] + up[i] x[i + d]; the first
        # d entries of lo and the last d of up are zero at every stage
        di = diag.copy()
        stages = []
        d = 1
        if self.depth:
            lo, up = np.empty(a.shape), np.empty(a.shape)
            lo[0] = up[-1] = -self.r * 0.0
            lo[1:] = lower
            up[:-1] = upper
            if self.dead is not None:
                np.copyto(lo[0], 0.0, where=dead[0])
                np.copyto(up[-1], 0.0, where=dead[-1])
            for _ in range(self.depth):
                alpha = np.negative(lo[d:])
                alpha /= di[:-d]
                gamma = np.negative(up[:-d])
                gamma /= di[d:]
                di[d:] += np.multiply(alpha, up[:-d], out=tmp[d:])
                di[:-d] += np.multiply(gamma, lo[d:], out=tmp[:-d])
                lo[d:] = np.multiply(alpha, lo[:-d], out=tmp[d:])
                up[:-d] = np.multiply(gamma, up[d:], out=tmp[:-d])
                stages.append((d, alpha, gamma))
                d *= 2
            lo, up = lo[d:], up[:n - d]
        else:
            lo, up = lower, upper
        # lo[i] and up[i] now couple rows i + d and i
        mult = np.empty_like(di[d:])
        for j in range(d, n, d):
            e = min(j + d, n)
            np.divide(lo[j - d:e - d], di[j - d:e - d], out=mult[j - d:e - d])
            di[j:e] -= np.multiply(mult[j - d:e - d], up[j - d:e - d], out=tmp[j:e])
        np.divide(1.0, di, out=di)
        return diag, lower, upper, stages, mult, di, up

    def _solve(self, x, stages, mult, inv_diag, up):
        """Apply the factors to the v-first right-hand side `x` in place (or,
        after an odd number of stages, in the fourth scratch buffer);
        returns the solution."""
        tmp = self.scratch[2][:x.size].reshape(x.shape)
        if stages:
            y = self.scratch[3][:x.size].reshape(x.shape)
        for d, alpha, gamma in stages:
            y[...] = x
            y[d:] += np.multiply(alpha, x[:-d], out=tmp[d:])
            y[:-d] += np.multiply(gamma, x[d:], out=tmp[:-d])
            x, y = y, x
        n, s = len(x), 1 << len(stages)
        for j in range(s, n, s):
            e = min(j + s, n)
            x[j:e] -= np.multiply(mult[j - s:e - s], x[j - s:e - s], out=tmp[j:e])
        last = (n - 1) // s * s
        x[last:] *= inv_diag[last:]
        for j in range(last - s, -1, -s):
            e = min(j + s, n - s)
            x[j:e] -= np.multiply(up[j:e], x[j + s:e + s], out=tmp[j:e])
            x[j:j + s] *= inv_diag[j:j + s]
        return x

    def __call__(self, values: np.ndarray, coeffs) -> tuple:
        """Solve in place: (`values`, now the solution, worst residual over
        its tolerance)."""
        if coeffs is not self.coeffs and (
                self.coeffs is None or not all(map(np.array_equal, coeffs, self.coeffs))):
            self.factors = [self._factor(ax, a) for ax, a in enumerate(coeffs)]
            self.coeffs = coeffs
        out = values
        rhs_buf, sol_buf, tmp_buf = self.scratch[:3]
        worst = 0.0
        for ax, (diag, lower, upper, *factors) in enumerate(self.factors):
            rhs = self._v_first(out, ax, rhs_buf)
            tol = 1e-9 * (1.0 + float(np.maximum(rhs.max(), -rhs.min())))
            sol = sol_buf[:rhs.size].reshape(rhs.shape)
            sol[...] = rhs
            sol = self._solve(sol, *factors)
            tmp = tmp_buf[:rhs.size].reshape(rhs.shape)
            # the residual diag*sol - rhs + lower*sol[:-1] + upper*sol[1:], in rhs
            np.subtract(np.multiply(diag, sol, out=tmp), rhs, out=rhs)
            rhs[1:] += np.multiply(lower, sol[:-1], out=tmp[1:])
            rhs[:-1] += np.multiply(upper, sol[1:], out=tmp[:-1])
            err = float(np.maximum(rhs.max(), -rhs.min()))
            if not np.isfinite(err) or err > tol:
                raise SolverError(f"diffusion solve residual {err:.3e} "
                                  f"exceeds tolerance {tol:.3e}")
            worst = max(worst, err / tol)
            _, inverse, moved = self.moves[ax]
            out[self.columns[ax]] = sol.reshape(moved).transpose(inverse)
        return out, worst


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _bc_mask(grid: PhaseGrid, bc: BoundaryCondition):
    if bc.kind != "kinetic_ibvp":
        return None
    in_x = grid.rho_x < bc.radius
    in_v = grid.rho_v < bc.radius
    return grid.expand_x(in_x) & grid.expand_v(in_v)


# width in cells of the Dirichlet band `solve_anchored` pins to its data
_ANCHOR_RING = 2

# cells a transport half-step reads on each side of its output cell: the
# CFL bound keeps a foot within half a cell, the linear kernel reads the two
# nodes around it and the cubic kernel one more on each side
_REACH = {"linear": 1, "cubic": 2}


def ring_mask(grid: PhaseGrid) -> np.ndarray:
    """Cells within `_ANCHOR_RING` cells of either end of any x or v axis:
    the band `solve_anchored` pins to its data."""
    mask = np.zeros(grid.shape, dtype=bool)
    for ax in range(2 * grid.dim):
        sl = [slice(None)] * 2 * grid.dim
        sl[ax] = slice(0, _ANCHOR_RING)
        mask[tuple(sl)] = True
        sl[ax] = slice(-_ANCHOR_RING, None)
        mask[tuple(sl)] = True
    return mask


def _anchored_cells(grid: PhaseGrid, interp: str) -> _CellBox:
    """The cells `solve_anchored` steps: those the ring does not pin,
    widened by the transport's reach (`_REACH`) and clipped at the grid.
    The widening stays inside the ring, so a diffusion row of the box is
    either unpinned or a Dirichlet row."""
    if interp not in _REACH:
        raise ValueError(f"interp must be 'linear' or 'cubic', got {interp!r}")
    m = max(_ANCHOR_RING - _REACH[interp], 0)
    return _CellBox(grid, slice(m, grid.n_x - m), slice(m, grid.n_v - m))


def _check_cfl(grid, dt: float):
    limit = grid.dx / grid.v_max
    if dt > limit * (1.0 + 1e-12):
        raise CFLError(f"dt = {dt} exceeds the transport bound dx/v_max = {limit}")


class _StepPlan:
    """What every Strang step of one solve reuses: the half-step transport
    gathers, the implicit diffusion operator with its factors, and the
    coefficient arrays, resampled only when their time key changes, and the
    source's increment sampler (`increments_for`).  Cells
    outside `active` are Dirichlet rows of the diffusion solve, whose
    reduction depth is `depth` when given.  Both substeps compute only what
    the bounding box of `active` (`inner`) needs: the cells outside it take
    the Dirichlet data whatever is computed there.

    A step allocates no array the size of a slice.  The transport and the
    diffusion share three scratch buffers (four at reduction depth k > 0),
    and a step writes the first transport's output (on `inner`) into one
    more buffer and its result into another, which it returns.  That
    result is the plan's: it holds until the next step, which may read it
    as its input.  The buffers are the rows of one block, allocated and
    freed at once: a solve that frees one block of several slices leaves
    glibc's dynamic mmap threshold above a slab of the streamed audits
    (`geometry._SLAB_BYTES`), whose temporaries then reuse heap pages
    instead of faulting in fresh ones.  With one buffer per slice the
    threshold stayed at one slice, and the De Giorgi stage that follows
    the main solve of the N = 2 benchmark run took over three times the
    minor page faults and about a sixth longer."""

    def __init__(self, grid, diffusion, source, dt: float, interp: str,
                 periodic: bool, active=None, depth: int | None = None):
        if interp not in ("linear", "cubic"):
            raise ValueError(f"interp must be 'linear' or 'cubic', got {interp!r}")
        _check_cfl(grid, dt)
        self.dt = dt
        self.active = active
        inner = None if active is None else _bounding_box(active)
        self.inner = (slice(None),) * 2 * grid.dim if inner is None else inner
        depth = _reduction_depth(grid) if depth is None else depth
        cells = int(np.prod(grid.shape))
        block = np.empty((5 + (depth > 0), cells + 1))
        scratch = list(block[2:])
        self.transport = _TransportPlan(grid, 0.5 * dt, periodic, interp == "cubic",
                                        inner, scratch)
        self.implicit = _ImplicitDiffusion(grid, dt, active, depth, inner, scratch)
        self.coefficients = KeyedSampler(diffusion, lambda t: diffusion.sample(grid, t))
        self.increment = None if source is None else source.increments_for(grid, dt)
        moved = [len(range(n)[s]) for s, n in zip(self.inner, grid.shape)]
        self.moved = block[0, :int(np.prod(moved))].reshape(moved)
        self.result = block[1, :cells].reshape(grid.shape)
        # a scratch slice no step holds on to: the caller's until the next step
        self.spare = block[2, :cells].reshape(grid.shape)
        self.active_inner = None if active is None else active[self.inner]

    def restrict(self, values):
        """`values` with zero outside the domain."""
        return values if self.active is None else np.where(self.active, values, 0.0)

    def step(self, values, t, fill=0.0):
        """One Strang step of the boundary problem whose domain is `active`;
        returns the new values (the plan's `result` buffer) and the diffusion
        residual over its bound.

        Cells outside `active` take `fill`, the Dirichlet data at t + dt
        (zero for the kinetic IBVP), and must hold the data at t on entry,
        so that transport reads it at feet outside the domain."""
        t_mid = t + 0.5 * self.dt
        out = self.transport(values, self.moved)
        if self.increment is not None:
            # the increment dt*g rides inside the implicit solve: barrier sources
            # carry stiff div_v structure that must see the same implicit damping
            # as the field itself, or the comparison defect saturates at O(1)
            out += self.increment(t_mid)[self.inner]
        out = self._pinned(out, fill)
        _, residual = self.implicit(out, self.coefficients(t_mid))
        after = self.moved if self.active is not None else self.result
        return self._pinned(self.transport(out, after), fill), residual

    def _pinned(self, inner, fill):
        """The plan's whole box from values on `self.inner`, in `result`:
        those values on the cells of `active`, `fill` on the others."""
        if self.active is None:
            return inner
        out = self.result
        out[...] = fill
        np.copyto(out[self.inner], inner, where=self.active_inner)
        return out


def _bc_plan(grid, diffusion, source, dt, bc: BoundaryCondition, interp) -> _StepPlan:
    return _StepPlan(grid, diffusion, source, dt, interp, bc.periodic_x, _bc_mask(grid, bc))


def step(state: PhaseField, diffusion, source, dt: float, bc: BoundaryCondition,
         interp: str = "linear") -> PhaseField:
    """One Strang step from state.t to state.t + dt."""
    plan = _bc_plan(state.grid, diffusion, source, dt, bc, interp)
    vals, _ = plan.step(plan.restrict(state.values), state.t)
    return PhaseField(state.grid, state.t + dt, vals.copy())


def _ledger_entry(grid, t, vals, diff_residual, square):
    """The energy-ledger entry of `vals`; its squares are formed in the
    slice buffer `square`."""
    return {
        "t": float(t),
        "l2_sq": float(np.sum(np.square(vals, out=square)) * grid.cell_volume),
        "mass": float(np.sum(vals) * grid.cell_volume),
        "min": float(vals.min()),
        "max": float(vals.max()),
        "diff_residual": diff_residual,
    }


def _march_steps(f0: PhaseField, t_end: float, dt: float | None, store_every: int):
    """(dt, step count) of a march from f0.t to t_end."""
    dt = f0.grid.dt if dt is None else float(dt)
    span = t_end - f0.t
    if span <= 0:
        raise ValueError(f"t_end = {t_end} must exceed the initial time {f0.t}")
    return dt, whole_steps(span, dt, store_every)


def march(f0: PhaseField, diffusion, source, t_end: float, bc: BoundaryCondition,
          dt: float | None = None, interp: str = "linear", store_every: int = 1,
          ledger: list | None = None):
    """Step from f0.t to t_end, yielding (t, values) at f0.t and after
    every `store_every`-th step: the one stepping loop, which `solve`
    collects and a caller that reduces each stored slice as it comes
    steps itself.

    The step count is `whole_steps(t_end - f0.t, dt, store_every)`, checked
    at the first slice.  `values` is the step plan's buffer (at f0.t, f0's
    values with zero outside the domain): it holds until the next step,
    so a caller that keeps a slice copies it.  With a `ledger` list, the
    initial entry and one energy-ledger entry per step are appended to it,
    with `diff_residual` the worst diffusion-solve residual of the step
    over its tolerance (0 for the initial entry).
    """
    grid = f0.grid
    dt, n_steps = _march_steps(f0, t_end, dt, store_every)
    plan = _bc_plan(grid, diffusion, source, dt, bc, interp)
    vals = plan.restrict(f0.values)
    if ledger is not None:
        ledger.append(_ledger_entry(grid, f0.t, vals, 0.0, plan.spare))
    yield f0.t, vals
    t = f0.t
    for n in range(n_steps):
        vals, residual = plan.step(vals, t)
        t = f0.t + (n + 1) * dt
        if ledger is not None:
            ledger.append(_ledger_entry(grid, t, vals, residual, plan.spare))
        if (n + 1) % store_every == 0:
            yield t, vals


def solve(f0: PhaseField, diffusion, source, t_end: float, bc: BoundaryCondition,
          dt: float | None = None, interp: str = "linear",
          store_every: int = 1) -> Trajectory:
    """March from f0.t to t_end, storing every `store_every`-th slice: the
    slices of `march` collected, with its energy ledger.

    Identical inputs give bit-identical trajectories.
    """
    _, n_steps = _march_steps(f0, t_end, dt, store_every)
    times = np.empty(n_steps // store_every + 1)
    slices = np.empty(times.shape + f0.grid.shape)
    ledger = []
    for i, (t, vals) in enumerate(march(f0, diffusion, source, t_end, bc, dt, interp,
                                        store_every, ledger)):
        times[i] = t
        slices[i] = vals
    return Trajectory(f0.grid, times, slices, ledger)


def solve_anchored(data, diffusion, source, interp: str = "linear",
                   keep: int | None = None) -> Trajectory:
    """Re-solve the equation with initial and boundary data taken from `data`.

    Starts from the first slice of the data and steps the boundary problem
    whose Dirichlet cells are the band of `_ANCHOR_RING` cells at each end
    of every x and v axis (`ring_mask`), filled with the data's slice at
    every new time level; the re-solve keeps the data's times.  Used by the
    zoom machinery, where the data is an interpolated field and the
    re-solve imposes the equation at the new scale with boundary values
    anchored to the parent field.

    Only the cells a step can change are stepped: the unpinned cells
    widened by the transport's reach, one cell under linear interpolation
    and two under cubic (`_anchored_cells`; under cubic that is the whole
    grid).  The step plan lives on that box and only the box is carried
    from step to step; each step fills the pinned cells inside it with the
    data, and its transport and diffusion compute only what the unpinned
    cells read (`_StepPlan`).  A stored slice is put together from the
    data on the ring and the box inside.  Two rules keep every value the
    whole grid's bit for bit: the transport weights come from the parent
    grid's rows, and the diffusion keeps the whole grid's cyclic-reduction
    depth (the box has fewer cells per v slice, and that count sets the
    depth).  The Dirichlet rows the box drops couple to nothing, and a v
    column whose cells are all pinned is not solved: a solve returns its
    data, save that it can turn a -0.0 next to a negative value into
    +0.0, which only the sign of an exact zero could show.

    `data` is a `Trajectory`, or a zoom sampler (`holder.ZoomSampler`) that
    makes a slice whole (the first, and each stored one) and, at every
    other step, only the pinned cells inside the box.  Only the last
    `keep` slices (default: all) are stored.
    """
    grid = data.grid
    times = data.times.copy()
    cells = _anchored_cells(grid, interp)
    inside = (slice(None),) + cells.box
    if isinstance(data, Trajectory):
        whole = lambda i: data.values[i]
        anchors = iter(data.values[1:][inside])
    else:
        whole, anchors = data.whole, data.anchors(cells.box)
    keep = len(times) if keep is None else keep
    first = len(times) - keep
    dt = float(times[1] - times[0])
    plan = _StepPlan(cells, diffusion, source, dt, interp, False,
                     ~ring_mask(grid)[cells.box], _reduction_depth(grid))
    slices = np.empty((keep,) + grid.shape)
    initial = whole(0)
    if first == 0:
        slices[0] = initial
    vals = initial[cells.box]
    for n, anchor in zip(range(len(times) - 1), anchors):
        # rings carry the parent data at the implicit time level, so the
        # backward-Euler solve sees exact Dirichlet anchors (a linear field
        # with constant coefficient passes through bit-consistently); the
        # slices keep the data's times, so a final slice at t = 0 stays there
        vals, _ = plan.step(vals, float(times[n]), anchor)
        if n + 1 >= first:
            out = slices[n + 1 - first]
            out[...] = whole(n + 1)
            out[cells.box] = vals
    return Trajectory(grid, times[first:], slices)


# ---------------------------------------------------------------------------
# the barrier initial-boundary value problem
# ---------------------------------------------------------------------------

def solve_barrier_ibvp(source: BarrierSource, diffusion, k: int, initial: PhaseField,
                       interp: str = "linear") -> Trajectory:
    """Solve the level-k barrier problem on (T_{k-1}, 0) x B(0, R_{k-1})^2
    with the kinetic inflow boundary condition, from `initial` at T_{k-1}.

    The solve runs on the cell box of the source (`source.grid`): a whole
    grid, or the level window of the `degiorgi.LevelPass` that
    `build_barrier_sources` reads, which holds the ball; the step is the
    source's, whose steps must start at the initial time, the stored
    slice at T_{k-1} up to 1e-9 (`Trajectory.slice_at`).  The comparison
    0 <= F_k <= G_k is a maximum-principle consequence when the
    difference has zero initial defect, so `initial` is the truncated
    field F_k(T_{k-1}, .) (`BarrierSourceReport.fk.field(0)`).
    """
    t_start = dyadic_time(k - 1)
    radius = dyadic_radius(k - 1)
    if abs(initial.t - t_start) > 1e-9:
        raise ValueError(f"initial slice is at t = {initial.t}, "
                         f"the barrier starts at {t_start}")
    if source.t_start != initial.t or len(source.increments) != whole_steps(
            0.0 - initial.t, source.dt):
        raise ValueError(f"the source's {len(source.increments)} steps start at "
                         f"t = {source.t_start}, the barrier's at {initial.t}")
    return solve(initial, diffusion, source, 0.0, kinetic_ibvp(radius), dt=source.dt,
                 interp=interp)


# ---------------------------------------------------------------------------
# energy accounting
# ---------------------------------------------------------------------------

def grad_v_sq_sum(grid: PhaseGrid, vals: np.ndarray) -> float:
    """|| grad_v f ||_L2^2 (the FV seminorm): the cell sum of the density."""
    return float(np.sum(grad_v_sq_density(grid, vals))) * grid.cell_volume


def energy_budget(traj: Trajectory, source, lam: float):
    """Audit the global energy inequality along a trajectory.

    For every stored time t the record compares

        1/2 ||f(t)||^2 + (1/lam) int_{t0}^t ||grad_v f||^2
            <=  1/2 ||f(t0)||^2 + int_{t0}^t ||g|| ||f||

    with right-endpoint quadrature in time (matching the implicit substep).
    Returns (records, min_slack), with min_slack the least slack over the
    stored times after t0 (at t0 the slack is 0 by definition); slack >= 0
    up to scheme tolerance because the discrete step dissipates at least
    the continuous rate.
    """
    grid = traj.grid
    sample = None if source is None else KeyedSampler(
        source, lambda t: source.sample(grid, t))
    records = []
    dissip = 0.0
    work = 0.0
    min_slack = np.inf
    # each slice's squares and its gradient density are formed once, in place
    buf = np.empty(grid.shape)
    for i in range(traj.n_slices):
        t = float(traj.times[i])
        vals = traj.values[i]
        sq = float(np.sum(np.square(vals, out=buf)))
        e_t = 0.5 * sq * grid.cell_volume
        if i == 0:
            e0 = e_t
        else:
            h = float(traj.times[i] - traj.times[i - 1])
            density = grad_v_sq_density(grid, vals, buf)
            dissip += h * (float(np.sum(density)) * grid.cell_volume) / lam
            if source is not None:
                g = sample(t - 0.5 * h)
                g_l2 = float(np.sqrt(np.sum(np.square(g, out=buf)) * grid.cell_volume))
                f_l2 = float(np.sqrt(sq * grid.cell_volume))
                work += h * g_l2 * f_l2
        slack = (e0 + work) - (e_t + dissip)
        if i > 0:
            min_slack = min(min_slack, slack)
        records.append({"t": t, "energy": e_t, "dissipation": dissip,
                        "source_work": work, "slack": slack})
    return records, float(min_slack)


def local_energy_check(level: LevelPass, lam: float, s: float, t: float) -> float:
    """Residual (rhs - lhs) of the level-k cutoff energy inequality for
    (f - C_k)_+ between times s < t, on the trajectory and source of the
    level's pass.

    All six integrals are evaluated by quadrature with the level-k cutoffs:
    lhs is the weighted energy at t plus the (1/lam)-weighted dissipation of
    eta(v) (f - C_k)_+, rhs is the energy at s, the lam |grad eta(v)|^2
    term, the transport term with v . grad eta(x), and the source work.
    They are reductions of the pass's per-slice face-difference cutoff
    sums (`degiorgi.LevelPass.cutoff_sums`), which U_k of the level reads
    too, so k is one of `degiorgi.LOCAL_ENERGY_LEVELS`; the stored slice of
    s must not precede the last one at or before T_k.
    """
    if not s < t + 1e-15:
        raise ValueError(f"need s < t, got s = {s}, t = {t}")
    if level.k not in LOCAL_ENERGY_LEVELS:
        raise ValueError(f"the level-{level.k} pass takes no local energy sums; "
                         f"the levels {LOCAL_ENERGY_LEVELS} do")
    win = level.window
    cv = win.grid.cell_volume
    i_s = win.slice_index(s)
    i_t = win.slice_index(t)
    w_time = time_quadrature_weights(win.times, s, t)
    weighted = np.nonzero(w_time)[0]
    sums = level.cutoff_sums(sorted({i_s, i_t, *weighted.tolist()}))

    energy_t = 0.5 * sums[i_t][0] * cv
    energy_s = 0.5 * sums[i_s][0] * cv
    dissip = 0.0
    grad_pen = 0.0
    transport = 0.0
    source_term = 0.0
    for i in weighted:
        w = float(w_time[i])
        _, grad_sq, slope_sq, drift, work = sums[i]
        dissip += w * grad_sq * cv
        grad_pen += w * slope_sq * cv
        transport += w * 0.5 * drift * cv
        source_term += w * work * cv

    lhs = energy_t + dissip / lam
    rhs = energy_s + lam * grad_pen + transport + source_term
    return rhs - lhs


def comparison_check(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """min(B - A) over all stored nodes; >= 0 means A <= B holds pointwise.
    The minimum is taken slice by slice; a NaN at any node gives NaN."""
    if traj_a.values.shape != traj_b.values.shape:
        raise ValueError(f"trajectory shapes differ: {traj_a.values.shape} "
                         f"vs {traj_b.values.shape}")
    diff = np.empty(traj_a.grid.shape)
    return float(np.min([np.subtract(b, a, out=diff).min()
                         for a, b in zip(traj_a.values, traj_b.values)]))


def second_moments(field: PhaseField):
    """Mass and raw second moments (E[x^2], E[xv], E[v^2]) for dim = 1."""
    grid = field.grid
    if grid.dim != 1:
        raise ValueError("second_moments is a dim = 1 diagnostic")
    f = field.values
    w = f * grid.cell_volume
    mass = float(np.sum(w))
    x = grid.x_centers[:, None]
    v = grid.v_centers[None, :]
    return {
        "mass": mass,
        "xx": float(np.sum(w * x * x)) / mass,
        "xv": float(np.sum(w * x * v)) / mass,
        "vv": float(np.sum(w * v * v)) / mass,
    }
