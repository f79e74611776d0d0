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
and interpolation weights are fixed for the solve: one index array per x
axis gathers the rows every tap of the pass reads, and a tap's weights
are stored on the (x_i, v_i) plane of its shift expanded along the v
axes, n^3 values on an n^4 grid.  The coefficient arrays and the source
increment dt*g are resampled only when the field's `time_key` changes:
once per time cell for a cellwise-random field, every step for an
oscillatory one or under a drifting zoom.  A coefficient whose time key
is None is drawn and factored at the first step and its sample dropped;
a source constant over the grid (kinds zero and constant) is the scalar
dt*g.  The plan takes its increments from the source's
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
array: on N = 2 a plan holds about 15 slices (four factor arrays per v
axis, two step buffers and three scratch buffers, and the index
gathers), and its step returns one of them, valid until the next step.
`march` and `solve_anchored` drop the initial field once its slice is
taken.

The step is bound to its plan.  The plan owns every array a step touches
and makes every view of them when it is built: one tuple of views per
transport tap, per cyclic-reduction stage and per Thomas block, which a
step unpacks into ufunc and `take` calls with a positional `out`
(`kernels`).  A refactor writes the new factors into the plan's factor
arrays in place, so it allocates nothing and the views stay valid.  On
the N = 1 grids the step is bound by that per-call work, not by
arithmetic: a 64^2 step is about 60 calls on 4096-cell arrays, and
building the slices, shapes and reshapes again at every call was a third
of its time.  Every buffer of a plan (the block rows, padded to a
multiple of 8 doubles, the factor arrays, the transport's indices and
weights) and the stored trajectory of `solve` and `solve_anchored` start
on a 64-byte boundary (`kernels._aligned`): a 4096-element float64
multiply takes 1.6-1.8 us with every operand so aligned and 3.1-3.4 us
at 16 mod 64, where numpy's allocator leaves large arrays (90 against
109 us at 18^4 cells).  A step's inputs are the values, the increment at
its time key and the Dirichlet fill.

One loop steps a solve: the generator `march` yields each stored slice in
the step's result buffer as it comes, and `solve` is `march` collected,
with the energy ledger, whose squares are taken in a scratch buffer of
the plan.  A caller that only reduces the slices steps `march` itself
and holds no trajectory (the affine check of `pipeline._bisection`).
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

import math
import time
from dataclasses import dataclass

import numpy as np

from .coefficients import KeyedSampler
from .degiorgi import LOCAL_ENERGY_LEVELS, BarrierSource, LevelPass
from .fields import PhaseField, Trajectory
from .geometry import PhaseGrid, _CellBox, _bounding_box, dyadic_radius, dyadic_time, \
    face_divergence, grad_v_sq_density, time_quadrature_weights
from .kernels import SolverError, _ImplicitDiffusion, _TransportPlan, _aligned, \
    _reduction_depth, _rows

__all__ = [
    "SolverError",
    "CFLError",
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


class CFLError(ValueError):
    """Time step violates the transport bound dt <= dx / v_max."""


def whole_steps(span: float, dt: float) -> int:
    """The step count of a march over `span` > 0 at step `dt`: span/dt
    rounded, which must be exact to 1e-9 of max(1, span)."""
    n_steps = max(1, int(round(span / dt)))
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"span {span} is not an integer multiple of dt = {dt}")
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


class _StepClock:
    """The Strang steps this process has taken and the seconds spent in
    them (`_StepPlan.step`), read before and after each stage of a run for
    its timings (`pipeline._timed`).  Like `getrusage`'s counts it is one
    per process and only grows, so a reader takes differences, and a
    forked process counts its own steps from the parent's totals.
    `plan_bytes` is the largest `_StepPlan.nbytes` of a plan at its first
    step since a reader last set it to 0."""

    def __init__(self):
        self.steps = 0
        self.seconds = 0.0
        self.plan_bytes = 0


STEP_CLOCK = _StepClock()


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
    gathers, the implicit diffusion operator with its factors, the
    coefficient arrays, resampled only when their time key changes (a
    coefficient without a time key is drawn once, at the first step, and
    only its factors are kept), and the source's increment sampler
    (`increments_for`), whose increment may be a scalar.  Cells outside
    `active` are Dirichlet rows of the diffusion solve, whose reduction
    depth is `depth` when given.  Both substeps compute only what the
    bounding box of `active` (`inner`) needs: the cells outside it take
    the Dirichlet data whatever is computed there.

    The plan owns every array a step touches and makes every view of them
    when it is built, so that a step is the ufunc and `take` calls of its
    substeps on views it already holds; its inputs are the values, the
    increment at the step's time key and the Dirichlet fill.  On the N = 1
    grids a step is bound by that per-call work: a 64^2 step is about 60
    calls on 4096-cell arrays.

    A step allocates no array the size of a slice.  The transport and the
    diffusion share three scratch buffers (four at reduction depth k > 0),
    the first of which also holds the transport's gathers and so is
    (n + 1)/n of a slice under linear interpolation, (n + 3)/n under
    cubic, with n the x cells per axis, and a step writes the first
    transport's output (on `inner`) into one more buffer and its result
    into another, which it returns.  That result is the plan's: it holds
    until the next step, which may read it as its input.  The buffers are
    cut from one `_aligned` block (`kernels._rows`), each padded to a
    multiple of 8 doubles so that every one starts on a 64-byte boundary,
    allocated and freed at once: a solve that frees one
    block of several slices leaves glibc's dynamic mmap threshold above
    it, so the slice-sized temporaries of the audits that follow reuse
    heap pages instead of faulting in fresh ones.  On the N = 2 benchmark
    run, in-process on one CPU (`kfplab run --timings`, medians of six
    runs on a 2-vCPU host), the De Giorgi stage that follows the main
    solve took 4,100 minor page faults and 0.18 s; with one buffer per
    row, 32,400 faults and 0.22 s."""

    def __init__(self, grid, diffusion, source, dt: float, interp: str,
                 periodic: bool, active=None, depth: int | None = None):
        if interp not in ("linear", "cubic"):
            raise ValueError(f"interp must be 'linear' or 'cubic', got {interp!r}")
        _check_cfl(grid, dt)
        self.dt = dt
        self.active = active
        self.stepped = False
        inner = None if active is None else _bounding_box(active)
        self.inner = (slice(None),) * 2 * grid.dim if inner is None else inner
        depth = _reduction_depth(grid) if depth is None else depth
        cells = math.prod(grid.shape)
        cubic = interp == "cubic"
        block = _rows([cells, cells, _TransportPlan.gather_size(grid, cubic)]
                      + [cells + 1] * (2 + (depth > 0)))
        scratch = block[2:]
        self.transport = _TransportPlan(grid, 0.5 * dt, periodic, cubic, inner, scratch)
        self.implicit = _ImplicitDiffusion(grid, dt, active, depth, inner, scratch)
        self.coefficients = KeyedSampler(diffusion, lambda t: diffusion.sample(grid, t))
        self.increment = None if source is None else source.increments_for(grid, dt)
        moved = [len(range(n)[s]) for s, n in zip(self.inner, grid.shape)]
        self.moved = block[0][:math.prod(moved)].reshape(moved)
        self.result = block[1].reshape(grid.shape)
        # a scratch slice no step holds on to: the caller's until the next step
        self.spare = block[2][:cells].reshape(grid.shape)
        if active is not None:
            self.active_inner = active[self.inner]
            self.result_inner = self.result[self.inner]

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
        start = time.perf_counter()
        t_mid = t + 0.5 * self.dt
        moved = self.transport(values, self.moved)
        if self.increment is not None:
            # the increment dt*g rides inside the implicit solve: barrier sources
            # carry stiff div_v structure that must see the same implicit damping
            # as the field itself, or the comparison defect saturates at O(1)
            increment = self.increment(t_mid)
            if self.active is not None and np.ndim(increment):
                increment = increment[self.inner]
            np.add(moved, increment, moved)
        if self.active is None:
            _, residual = self.implicit(moved, self._coefficients(t_mid))
            out = self.transport(moved, self.result)
        else:
            out = self._pinned(moved, fill)
            _, residual = self.implicit(out, self._coefficients(t_mid))
            self._pinned(self.transport(out, moved), fill)
        STEP_CLOCK.steps += 1
        STEP_CLOCK.seconds += time.perf_counter() - start
        if not self.stepped:
            self.stepped = True
            STEP_CLOCK.plan_bytes = max(STEP_CLOCK.plan_bytes, self.nbytes)
        return out, residual

    @property
    def nbytes(self) -> int:
        """The bytes of the buffers the plan owns: its block of step and
        scratch buffers, the transport's indices and weights, the
        diffusion's Dirichlet masks and factor arrays, and the coefficient
        sample and source increment it holds."""
        arrays = [self.result, *(self.implicit.dead or ())]
        for _, idx, weights in self.transport.passes:
            arrays += [idx, *weights]
        for diag, lower, upper, stages, mult, inv_diag, up in self.implicit.factors:
            arrays += [diag, lower, upper, mult, inv_diag, up]
            arrays += [a for _, alpha, gamma in stages for a in (alpha, gamma)]
        for sampler in (self.coefficients, self.increment):
            if isinstance(sampler, KeyedSampler) and sampler.value is not None:
                value = sampler.value
                arrays += value if isinstance(value, tuple) else [value]
        roots = {}
        for arr in arrays:
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            roots[id(arr)] = arr.nbytes
        return sum(roots.values())

    def _coefficients(self, t):
        """The coefficient arrays at t for the diffusion solve, or None when
        its factors in place are theirs.  A field whose time key is None
        is constant in time: it is drawn and factored at the first step and
        its sample is dropped, and the steps after it draw nothing."""
        if self.coefficients is None:
            return None
        coeffs = self.coefficients(t)
        if self.coefficients.key is None:
            self.implicit.factor(coeffs)
            self.coefficients = None
            return None
        return coeffs

    def _pinned(self, inner, fill):
        """The plan's whole box from values on `self.inner`, in `result`:
        those values on the cells of `active`, `fill` on the others."""
        np.copyto(self.result, fill)
        np.copyto(self.result_inner, inner, where=self.active_inner)
        return self.result


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


def _march_steps(f0: PhaseField, t_end: float, dt: float | None):
    """(dt, step count) of a march from f0.t to t_end: the step is `dt`,
    or the grid's when None."""
    dt = f0.grid.dt if dt is None else float(dt)
    span = t_end - f0.t
    if span <= 0:
        raise ValueError(f"t_end = {t_end} must exceed the initial time {f0.t}")
    return dt, whole_steps(span, dt)


def march(f0: PhaseField, diffusion, source, t_end: float, bc: BoundaryCondition,
          dt: float | None = None, interp: str = "linear", ledger: list | None = None):
    """Step from f0.t to t_end at step `dt` (default: the grid's),
    yielding (t, values) at f0.t and after every step: the one stepping
    loop, which `solve` collects and a caller that reduces each slice as
    it comes steps itself.

    The step count is `whole_steps(t_end - f0.t, dt)`, checked at the
    first slice.  `values` is the step plan's buffer (at f0.t, f0's values
    with zero outside the domain): it holds until the next step, so a
    caller that keeps a slice copies it.  With a `ledger` list, the
    initial entry and one energy-ledger entry per step are appended to it,
    with `diff_residual` the worst diffusion-solve residual of the step
    over its tolerance (0 for the initial entry).
    """
    grid, t0 = f0.grid, f0.t
    dt, n_steps = _march_steps(f0, t_end, dt)
    plan = _bc_plan(grid, diffusion, source, dt, bc, interp)
    vals = plan.restrict(f0.values)
    # the initial values go at the first step, when `vals` moves to the plan
    f0 = None
    if ledger is not None:
        ledger.append(_ledger_entry(grid, t0, vals, 0.0, plan.spare))
    yield t0, vals
    t = t0
    for n in range(n_steps):
        vals, residual = plan.step(vals, t)
        t = t0 + (n + 1) * dt
        if ledger is not None:
            ledger.append(_ledger_entry(grid, t, vals, residual, plan.spare))
        yield t, vals


def solve(f0: PhaseField, diffusion, source, t_end: float, bc: BoundaryCondition,
          dt: float | None = None, interp: str = "linear") -> Trajectory:
    """March from f0.t to t_end at step `dt` (default: the grid's), storing
    every step: the slices of `march` collected, with its energy ledger,
    in a trajectory whose spacing `dt` is the step.

    Identical inputs give bit-identical trajectories.
    """
    grid = f0.grid
    dt, n_steps = _march_steps(f0, t_end, dt)
    times = np.empty(n_steps + 1)
    slices = _aligned(times.shape + grid.shape)
    ledger = []
    steps = march(f0, diffusion, source, t_end, bc, dt, interp, ledger)
    # the march holds the initial field until its first step, and drops it
    f0 = None
    for i, (t, vals) in enumerate(steps):
        times[i] = t
        slices[i] = vals
    return Trajectory(grid, times, slices, ledger, dt=dt)


def solve_anchored(data, diffusion, source, interp: str = "linear",
                   keep: int | None = None) -> Trajectory:
    """Re-solve the equation with initial and boundary data taken from `data`.

    Starts from the first slice of the data and steps the boundary problem
    whose Dirichlet cells are the band of `_ANCHOR_RING` cells at each end
    of every x and v axis (`ring_mask`), filled with the data's slice at
    every new time level; the re-solve keeps the data's times and steps at
    the data's step (`data.dt`), which its trajectory carries.  Used by the
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

    `data` is a `Trajectory`, or a zoom sampler (`holder.ZoomSampler`),
    whose step is its grid's, that makes a slice whole (the first, and
    each stored one) and, at every other step, only the pinned cells
    inside the box.  Only the last `keep` slices (default: all) are
    stored; they carry the step as their spacing.
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
    dt = data.dt
    plan = _StepPlan(cells, diffusion, source, dt, interp, False,
                     ~ring_mask(grid)[cells.box], _reduction_depth(grid))
    slices = _aligned((keep,) + grid.shape)
    initial = whole(0)
    if first == 0:
        slices[0] = initial
    # the initial slice goes at the first step, when `vals` moves to the plan
    vals, initial = initial[cells.box], None
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
    return Trajectory(grid, times[first:], slices, dt=dt)


# ---------------------------------------------------------------------------
# the barrier initial-boundary value problem
# ---------------------------------------------------------------------------

def solve_barrier_ibvp(source: BarrierSource, diffusion, k: int, initial: PhaseField,
                       interp: str = "linear") -> Trajectory:
    """Solve the level-k barrier problem on (T_{k-1}, 0) x B(0, R_{k-1})^2
    with the kinetic inflow boundary condition, from `initial` at T_{k-1}.

    The solve runs on the cell box of the source (`source.grid`): a whole
    grid, or the level window of the `degiorgi.LevelPass` that
    `build_barrier_sources` reads, which holds the ball.  The step is the
    source's (the window's spacing `dt`, the run's step), and its steps
    must start at the initial time, the stored slice at T_{k-1} up to 1e-9
    (`Trajectory.slice_at`).  The comparison
    0 <= F_k <= G_k is a maximum-principle consequence when the
    difference has zero initial defect, so `initial` is the truncated
    field F_k(T_{k-1}, .) (`BarrierSourceReport.initial`).
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

    with right-endpoint quadrature in time (matching the implicit substep)
    over cells of the trajectory's spacing `traj.dt`.
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
    h = traj.dt
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


def comparison_check(slices_a, slices_b) -> float:
    """min(B - A) over all nodes of two equally long sequences of slices of
    one shape (a trajectory's `values`, or slices formed one at a time);
    >= 0 means A <= B holds pointwise.  The minimum is taken slice by
    slice; a NaN at any node gives NaN."""
    diff, mins = None, []
    for a, b in zip(slices_a, slices_b, strict=True):
        if diff is None:
            diff = np.empty(a.shape)
        if not a.shape == b.shape == diff.shape:
            raise ValueError(f"slice shapes differ: {a.shape} and {b.shape}, "
                             f"the first {diff.shape}")
        mins.append(np.subtract(b, a, out=diff).min())
    return float(np.min(mins))


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
