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
and interpolation weights are fixed for the solve.  The coefficient arrays
and the source increment dt*g are resampled only when the field's
`time_key` changes: never for a time-independent field, once per time cell
for a cellwise-random one, every step for an oscillatory one or under a
drifting zoom.  The diffusion factors its tridiagonal systems in numpy
(cyclic-reduction stages, then a strided Thomas sweep) and refactors only
when the sampled coefficient arrays change.  Each step then applies the
gathers and one factored solve per v axis, whose residual is checked
against 1e-9 (1 + max|rhs|) and recorded in the ledger as `diff_residual`,
the worst residual over that tolerance.  `solve_anchored` runs the same
step with its Dirichlet ring filled from the data trajectory.

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
  that leaves the box reads zero as one that lands on a pinned cell does,
  so the transport on the window is bit-equal to the whole grid's; only
  the diffusion's elimination order follows the smaller slab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import KeyedSampler
from .degiorgi import _cutoff_sums
from .fields import PhaseField, Trajectory
from .geometry import PhaseGrid, dyadic_radius, dyadic_time, DyadicLevel, \
    face_divergence, grad_v_sq_density, time_quadrature_weights

__all__ = [
    "SolverError",
    "CFLError",
    "StepCountError",
    "BoundaryCondition",
    "WHOLE_SPACE",
    "kinetic_ibvp",
    "step",
    "solve",
    "solve_anchored",
    "whole_steps",
    "ring_mask",
    "solve_barrier_ibvp",
    "BarrierSource",
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
    are built once, as field-shaped arrays of indices into the flattened
    field, and applied with `take`.  Non-periodic reads outside the box
    point at one zero appended to the flattened field.
    """

    def __init__(self, grid: PhaseGrid, tau: float, periodic: bool, cubic: bool):
        self.periodic = periodic
        size = int(np.prod(grid.shape))
        ids = np.arange(size).reshape(grid.shape)
        n = grid.n_x
        rows = np.arange(n)[:, None]
        fi = rows - grid.v_centers[None, :] * tau / grid.dx
        base = np.floor(fi).astype(np.int64)
        w = fi - base
        if cubic:
            offs = (-1, 0, 1, 2)
            weights = (-w * (w - 1.0) * (w - 2.0) / 6.0,
                       (w * w - 1.0) * (w - 2.0) / 2.0,
                       -w * (w + 1.0) * (w - 2.0) / 2.0,
                       w * (w * w - 1.0) / 6.0)
        else:
            offs = (0, 1)
            weights = (1.0 - w, w)
        self.passes = []
        for ax in range(grid.dim):
            # the (x_i, v_i) plane of the shift, broadcast over the other axes
            plane = [1] * 2 * grid.dim
            plane[ax] = n
            plane[grid.dim + ax] = grid.n_v
            stride = int(np.prod(grid.shape[ax + 1:]))
            taps = []
            for o, wk in zip(offs, weights):
                src = base + o
                inside = (src >= 0) & (src < n)
                if periodic:
                    src = src % n
                idx = ids + ((src - rows) * stride).reshape(plane)
                if not periodic:
                    idx = np.where(inside.reshape(plane), idx, size)
                taps.append((idx, np.broadcast_to(wk.reshape(plane), grid.shape).copy()))
            self.passes.append(taps)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        out = values
        for taps in self.passes:
            flat = out.ravel()
            if not self.periodic:
                flat = np.concatenate((flat, (0.0,)))
            (idx, w), *rest = taps
            acc = w * flat.take(idx)
            for idx, w in rest:
                acc += w * flat.take(idx)
            out = acc
        return out


# ---------------------------------------------------------------------------
# diffusion: implicit divergence-form finite volume along each v axis
# ---------------------------------------------------------------------------

# a Thomas sweep step processes one block of 2^k rows of the v-first layout;
# cyclic reduction runs until a block holds this many cells or every row
# has decoupled (2^k >= n_v)
_BLOCK_CELLS = 1024


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
    stride 2^k.  k is the smallest depth at which a stride block holds
    `_BLOCK_CELLS` cells or every row has decoupled.  The matrices are
    strictly diagonally dominant M-matrices, so nothing pivots; a Dirichlet
    row (unit diagonal, no coupling) has zero multipliers at every stage
    and returns its data exactly.  The operator keeps the last coefficient
    arrays it was given with their factors and refactors only when the
    coefficients change, so a time-independent coefficient is factored once
    per solve.  Every solve is checked against the residual tolerance
    1e-9 (1 + max|rhs|) of the original tridiagonal system; the call
    returns the worst residual over that tolerance.
    """

    def __init__(self, grid: PhaseGrid, dt: float, active=None):
        self.grid = grid
        self.r = dt / grid.dv**2
        self.active = active
        self.coeffs = None
        self.factors = None
        slice_cells = grid.n_x**grid.dim * grid.n_v**(grid.dim - 1)
        self.depth = 0
        while slice_cells << self.depth < _BLOCK_CELLS and 1 << self.depth < grid.n_v:
            self.depth += 1

    def _v_first(self, arr, ax):
        """`arr` as (n_v, cells per v slice) with v axis `ax` first."""
        return np.ascontiguousarray(
            np.moveaxis(arr, self.grid.dim + ax, 0)).reshape(self.grid.n_v, -1)

    def _factor(self, ax, a):
        a = self._v_first(a, ax)
        am = np.zeros_like(a)
        ap = np.zeros_like(a)
        har = 2.0 * a[:-1] * a[1:] / (a[:-1] + a[1:])
        am[1:] = har
        ap[:-1] = har
        diag = 1.0 + self.r * (am + ap)
        sub = -self.r * am
        sup = -self.r * ap
        if self.active is not None:
            dead = ~self._v_first(self.active, ax)
            diag = np.where(dead, 1.0, diag)
            sub = np.where(dead, 0.0, sub)
            sup = np.where(dead, 0.0, sup)
        # row i reads lo[i] x[i - d] + di[i] x[i] + up[i] x[i + d]; the first
        # d entries of lo and the last d of up are zero at every stage
        lo, di, up = sub.copy(), diag.copy(), sup.copy()
        stages = []
        d = 1
        for _ in range(self.depth):
            alpha = -lo[d:] / di[:-d]
            gamma = -up[:-d] / di[d:]
            di[d:] += alpha * up[:-d]
            di[:-d] += gamma * lo[d:]
            lo[d:] = alpha * lo[:-d]
            up[:-d] = gamma * up[d:]
            stages.append((d, alpha, gamma))
            d *= 2
        n = len(di)
        mult = np.empty_like(di[d:])
        for j in range(d, n, d):
            e = min(j + d, n)
            mult[j - d:e - d] = lo[j:e] / di[j - d:e - d]
            di[j:e] -= mult[j - d:e - d] * up[j - d:e - d]
        return sub, diag, sup, stages, mult, 1.0 / di, up[:n - d]

    @staticmethod
    def _solve(rhs, stages, mult, inv_diag, up):
        """Apply the factors to a v-first right-hand side."""
        x = rhs.copy()
        for d, alpha, gamma in stages:
            y = x.copy()
            y[d:] += alpha * x[:-d]
            y[:-d] += gamma * x[d:]
            x = y
        n, s = len(x), 1 << len(stages)
        for j in range(s, n, s):
            e = min(j + s, n)
            x[j:e] -= mult[j - s:e - s] * x[j - s:e - s]
        last = (n - 1) // s * s
        x[last:] *= inv_diag[last:]
        for j in range(last - s, -1, -s):
            e = min(j + s, n - s)
            x[j:e] -= up[j:e] * x[j + s:e + s]
            x[j:j + s] *= inv_diag[j:j + s]
        return x

    def __call__(self, values: np.ndarray, coeffs) -> tuple:
        if coeffs is not self.coeffs and (
                self.coeffs is None or not all(map(np.array_equal, coeffs, self.coeffs))):
            self.factors = [self._factor(ax, a) for ax, a in enumerate(coeffs)]
            self.coeffs = coeffs
        out = values
        worst = 0.0
        for ax, (sub, diag, sup, *factors) in enumerate(self.factors):
            v_ax = self.grid.dim + ax
            rhs = self._v_first(out, ax)
            sol = self._solve(rhs, *factors)
            res = diag * sol
            res -= rhs
            res[1:] += sub[1:] * sol[:-1]
            res[:-1] += sup[:-1] * sol[1:]
            err = float(np.maximum(res.max(), -res.min()))
            tol = 1e-9 * (1.0 + float(np.maximum(rhs.max(), -rhs.min())))
            if not np.isfinite(err) or err > tol:
                raise SolverError(f"diffusion solve residual {err:.3e} "
                                  f"exceeds tolerance {tol:.3e}")
            worst = max(worst, err / tol)
            moved = np.moveaxis(out, v_ax, 0).shape
            out = np.moveaxis(sol.reshape(moved), 0, v_ax)
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


def _check_cfl(grid: PhaseGrid, dt: float):
    limit = grid.dx / grid.v_max
    if dt > limit * (1.0 + 1e-12):
        raise CFLError(f"dt = {dt} exceeds the transport bound dx/v_max = {limit}")


class _StepPlan:
    """What every Strang step of one solve reuses: the half-step transport
    gathers, the implicit diffusion operator with its factors, and the
    coefficient arrays and source increment dt*g, resampled only when their
    time keys change.  Cells outside `active` are Dirichlet rows of the
    diffusion solve."""

    def __init__(self, grid: PhaseGrid, diffusion, source, dt: float, interp: str,
                 periodic: bool, active=None):
        if interp not in ("linear", "cubic"):
            raise ValueError(f"interp must be 'linear' or 'cubic', got {interp!r}")
        _check_cfl(grid, dt)
        self.dt = dt
        self.active = active
        self.transport = _TransportPlan(grid, 0.5 * dt, periodic, interp == "cubic")
        self.implicit = _ImplicitDiffusion(grid, dt, active)
        self.coefficients = KeyedSampler(diffusion, lambda t: diffusion.sample(grid, t))
        self.increment = None if source is None else KeyedSampler(
            source, lambda t: dt * source.sample(grid, t))

    def restrict(self, values):
        """`values` with zero outside the domain."""
        return values if self.active is None else np.where(self.active, values, 0.0)

    def step(self, values, t, fill=0.0):
        """One Strang step of the boundary problem whose domain is `active`;
        returns the new values and the diffusion residual over its bound.

        Cells outside `active` take `fill`, the Dirichlet data at t + dt
        (zero for the kinetic IBVP), and must hold the data at t on entry,
        so that transport reads it at feet outside the domain."""
        t_mid = t + 0.5 * self.dt
        out = self.transport(values)
        if self.increment is not None:
            # the increment dt*g rides inside the implicit solve: barrier sources
            # carry stiff div_v structure that must see the same implicit damping
            # as the field itself, or the comparison defect saturates at O(1)
            out = out + self.increment(t_mid)
        if self.active is not None:
            out = np.where(self.active, out, fill)
        out, residual = self.implicit(out, self.coefficients(t_mid))
        out = self.transport(out)
        if self.active is not None:
            out = np.where(self.active, out, fill)
        return out, residual


def _bc_plan(grid, diffusion, source, dt, bc: BoundaryCondition, interp) -> _StepPlan:
    return _StepPlan(grid, diffusion, source, dt, interp, bc.periodic_x, _bc_mask(grid, bc))


def step(state: PhaseField, diffusion, source, dt: float, bc: BoundaryCondition,
         interp: str = "linear") -> PhaseField:
    """One Strang step from state.t to state.t + dt."""
    plan = _bc_plan(state.grid, diffusion, source, dt, bc, interp)
    vals, _ = plan.step(plan.restrict(state.values), state.t)
    return PhaseField(state.grid, state.t + dt, vals)


def _ledger_entry(grid, t, vals, diff_residual):
    return {
        "t": float(t),
        "l2_sq": float(np.sum(vals**2) * grid.cell_volume),
        "mass": float(np.sum(vals) * grid.cell_volume),
        "min": float(vals.min()),
        "max": float(vals.max()),
        "diff_residual": diff_residual,
    }


def solve(f0: PhaseField, diffusion, source, t_end: float, bc: BoundaryCondition,
          dt: float | None = None, interp: str = "linear",
          store_every: int = 1) -> Trajectory:
    """March from f0.t to t_end, storing every `store_every`-th slice.

    The step count is `whole_steps(t_end - f0.t, dt, store_every)`;
    identical inputs give bit-identical trajectories.  Each step appends an
    energy-ledger entry, with `diff_residual` the worst diffusion-solve
    residual of the step over its tolerance (0 for the initial entry).
    """
    grid = f0.grid
    dt = grid.dt if dt is None else float(dt)
    span = t_end - f0.t
    if span <= 0:
        raise ValueError(f"t_end = {t_end} must exceed the initial time {f0.t}")
    n_steps = whole_steps(span, dt, store_every)
    plan = _bc_plan(grid, diffusion, source, dt, bc, interp)
    vals = plan.restrict(f0.values)
    times = [f0.t]
    slices = np.empty((n_steps // store_every + 1,) + grid.shape)
    slices[0] = vals
    ledger = [_ledger_entry(grid, f0.t, vals, 0.0)]
    t = f0.t
    for n in range(n_steps):
        vals, residual = plan.step(vals, t)
        t = f0.t + (n + 1) * dt
        ledger.append(_ledger_entry(grid, t, vals, residual))
        if (n + 1) % store_every == 0:
            slices[len(times)] = vals
            times.append(t)
    return Trajectory(grid, np.array(times), slices, ledger)


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

    `data` is a `Trajectory`, or a zoom sampler (`holder.ZoomSampler`)
    that makes the first slice whole and, after that, only the ring cells.
    Only the last `keep` slices (default: all) are stored.
    """
    grid = data.grid
    times = data.times.copy()
    if isinstance(data, Trajectory):
        initial, anchors = data.values[0], iter(data.values[1:])
    else:
        initial, anchors = data.whole(0), data.anchors()
    keep = len(times) if keep is None else keep
    first = len(times) - keep
    dt = float(times[1] - times[0])
    plan = _StepPlan(grid, diffusion, source, dt, interp, False, ~ring_mask(grid))
    slices = np.empty((keep,) + grid.shape)
    vals = initial
    if first == 0:
        slices[0] = vals
    for n, anchor in zip(range(len(times) - 1), anchors):
        # rings carry the parent data at the implicit time level, so the
        # backward-Euler solve sees exact Dirichlet anchors (a linear field
        # with constant coefficient passes through bit-consistently); the
        # slices keep the data's times, so a final slice at t = 0 stays there
        vals, _ = plan.step(vals, float(times[n]), anchor)
        if n + 1 >= first:
            slices[n + 1 - first] = vals
    return Trajectory(grid, times[first:], slices)


# ---------------------------------------------------------------------------
# the barrier initial-boundary value problem
# ---------------------------------------------------------------------------

class BarrierSource:
    """Source S1 + div_v S2 assembled from stored trajectories on one cell
    box (a grid or the level window of `build_barrier_sources`).

    div_v is `geometry.face_divergence`, the adjoint of the face gradient
    with zero boundary faces, so the discrete energy pairing
    (div_v S2, G) = -(S2, grad_v G) mirrors the continuous identity, with
    grad_v the cell gradient of `build_barrier_sources`.  On the window
    the boundary faces sit past the Dirichlet v cell, where S2 vanishes.
    """

    def __init__(self, s1: Trajectory, s2):
        self.s1 = s1
        self.s2 = tuple(s2) if isinstance(s2, (tuple, list)) else (s2,)
        if len(self.s2) != s1.grid.dim:
            raise ValueError(f"need {s1.grid.dim} components for S2, got {len(self.s2)}")

    def time_key(self, t: float) -> float:
        return t

    def sample(self, grid: PhaseGrid, t: float) -> np.ndarray:
        out = self.s1.at_time(t).copy()
        for ax, comp in enumerate(self.s2):
            out += face_divergence(grid, comp.at_time(t), ax)
        return out


def solve_barrier_ibvp(s1: Trajectory, s2, diffusion, k: int, initial: PhaseField,
                       interp: str = "linear") -> Trajectory:
    """Solve the level-k barrier problem on (T_{k-1}, 0) x B(0, R_{k-1})^2
    with the kinetic inflow boundary condition, from `initial` at T_{k-1}.

    The solve runs on the cell box of the sources (`s1.grid`): a whole
    grid, or the level window that `build_barrier_sources` returns, which
    holds the ball; the step is the time spacing of the sources' slices.
    The comparison 0 <= F_k <= G_k is a maximum-principle consequence when
    the difference has zero initial defect, so `initial` is the truncated
    field F_k(T_{k-1}, .) (`BarrierSourceReport.fk.field(0)`).
    """
    t_start = dyadic_time(k - 1)
    radius = dyadic_radius(k - 1)
    if t_start < s1.t_start - 1e-9:
        raise ValueError(f"sources start at t = {s1.t_start}, after T_{k-1} = {t_start}")
    if abs(initial.t - t_start) > 1e-9:
        raise ValueError(f"initial slice is at t = {initial.t}, "
                         f"the barrier starts at {t_start}")
    dt = float(s1.times[1] - s1.times[0])
    src = BarrierSource(s1, s2)
    return solve(initial, diffusion, src, 0.0, kinetic_ibvp(radius), dt=dt, interp=interp)


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
    e0 = 0.5 * float(np.sum(traj.values[0]**2)) * grid.cell_volume
    sample = None if source is None else KeyedSampler(
        source, lambda t: source.sample(grid, t))
    records = []
    dissip = 0.0
    work = 0.0
    min_slack = np.inf
    for i in range(traj.n_slices):
        t = float(traj.times[i])
        vals = traj.values[i]
        e_t = 0.5 * float(np.sum(vals**2)) * grid.cell_volume
        if i > 0:
            h = float(traj.times[i] - traj.times[i - 1])
            dissip += h * grad_v_sq_sum(grid, vals) / lam
            if source is not None:
                g = sample(t - 0.5 * h)
                g_l2 = float(np.sqrt(np.sum(g**2) * grid.cell_volume))
                f_l2 = float(np.sqrt(np.sum(vals**2) * grid.cell_volume))
                work += h * g_l2 * f_l2
        slack = (e0 + work) - (e_t + dissip)
        if i > 0:
            min_slack = min(min_slack, slack)
        records.append({"t": t, "energy": e_t, "dissipation": dissip,
                        "source_work": work, "slack": slack})
    return records, float(min_slack)


def local_energy_check(traj: Trajectory, k: int, lam: float, s: float, t: float,
                       source=None) -> float:
    """Residual (rhs - lhs) of the level-k cutoff energy inequality for
    (f - C_k)_+ between times s < t.

    All six integrals are evaluated by quadrature with the level-k cutoffs:
    lhs is the weighted energy at t plus the (1/lam)-weighted dissipation of
    eta(v) (f - C_k)_+, rhs is the energy at s, the lam |grad eta(v)|^2
    term, the transport term with v . grad eta(x), and the source work.
    They are reductions of the same per-slice face-difference cutoff sums as
    U_k (`degiorgi.truncation_energy`), taken on the level window from s.
    """
    if not s < t + 1e-15:
        raise ValueError(f"need s < t, got s = {s}, t = {t}")
    level = DyadicLevel(k)
    traj = traj.window(s, level.outer_radius)
    cv = traj.grid.cell_volume
    i_s = traj.slice_index(s)
    i_t = traj.slice_index(t)
    w_time = time_quadrature_weights(traj.times, s, t)
    weighted = np.nonzero(w_time)[0]
    sums = _cutoff_sums(traj, level, sorted({i_s, i_t, *weighted.tolist()}), source)

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
    """min(B - A) over all stored nodes; >= 0 means A <= B holds pointwise."""
    if traj_a.values.shape != traj_b.values.shape:
        raise ValueError(f"trajectory shapes differ: {traj_a.values.shape} "
                         f"vs {traj_b.values.shape}")
    return float(np.min(traj_b.values - traj_a.values))


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
