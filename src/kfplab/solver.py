"""Time integration of (d_t + v.grad_x) f = div_v(A grad_v f) + g.

The step is a Strang sandwich: half transport, full implicit diffusion,
half transport, then the source increment dt*g.  Transport is
semi-Lagrangian in x per fixed v with monotone clamped-linear
interpolation by default; a Lagrange-cubic variant is available where
moment accuracy matters (linear interpolation adds O(v dx) numerical
diffusion in x, the cubic kernel none).  Diffusion is a
divergence-form two-point-flux finite-volume solve along each v axis with
harmonic face averaging of the coefficient, integrated by backward Euler,
so the substep is an M-matrix solve and constants are exact fixed points.

Boundary conditions:

* whole_space - periodic in x, conservative zero-flux truncation in v
  (constants remain exact solutions; compactly supported data never sees
  the truncation).
* kinetic_ibvp(R) - the barrier problem on (T, 0) x B(0,R)^2: zero
  Dirichlet on |v| = R, and zero on the inflow part of |x| = R where
  v.x < 0, realized by zeroing semi-Lagrangian feet that trace outside
  the ball (the CFL bound dt <= dx / v_max keeps feet within one cell).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import PhaseField, Trajectory
from .geometry import PhaseGrid, dyadic_radius, dyadic_time, DyadicLevel, \
    time_quadrature_weights

__all__ = [
    "SolverError",
    "CFLError",
    "BoundaryCondition",
    "WHOLE_SPACE",
    "kinetic_ibvp",
    "step",
    "solve",
    "solve_anchored",
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


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str
    radius: float | None = None
    periodic_x: bool = True

    def __post_init__(self):
        if self.kind not in ("whole_space", "kinetic_ibvp"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "kinetic_ibvp" and (self.radius is None or self.radius <= 0):
            raise ValueError("kinetic_ibvp requires a positive ball radius")


WHOLE_SPACE = BoundaryCondition("whole_space")


def kinetic_ibvp(radius: float) -> BoundaryCondition:
    return BoundaryCondition("kinetic_ibvp", radius=radius, periodic_x=False)


# ---------------------------------------------------------------------------
# transport: semi-Lagrangian shift along one axis
# ---------------------------------------------------------------------------

def _shift_columns(vals, d, periodic, cubic):
    """Shift column j of vals (2d, shape (n, m)) so out[i, j] = vals[i - d[j], j].

    Linear interpolation is a convex combination (monotone, and exactly
    conservative for uniform shifts).  The cubic variant is the 4-point
    Lagrange kernel: still exactly conservative and exact on moments up to
    third order, but not monotone; it exists for the moment oracle, not
    for comparison-principle runs.  Non-periodic gathers read zero outside.
    """
    n, m = vals.shape
    fi = np.arange(n)[:, None] - d[None, :]
    base = np.floor(fi).astype(np.int64)
    w = fi - base
    cols = np.broadcast_to(np.arange(m)[None, :], (n, m))
    if cubic:
        offs = (-1, 0, 1, 2)
        weights = (-w * (w - 1.0) * (w - 2.0) / 6.0,
                   (w * w - 1.0) * (w - 2.0) / 2.0,
                   -w * (w + 1.0) * (w - 2.0) / 2.0,
                   w * (w * w - 1.0) / 6.0)
    else:
        offs = (0, 1)
        weights = (1.0 - w, w)
    if periodic:
        gathered = [vals[(base + o) % n, cols] for o in offs]
    else:
        pad = 3
        vp = np.zeros((n + 2 * pad, m))
        vp[pad:pad + n] = vals
        top = n + 2 * pad - 1
        gathered = [vp[np.clip(base + o + pad, 0, top), cols] for o in offs]
    out = weights[0] * gathered[0]
    for wk, g in zip(weights[1:], gathered[1:]):
        out = out + wk * g
    return out


def _transport(values, grid: PhaseGrid, tau, periodic, cubic):
    """Advect in x by v*tau: one shift per spatial axis, exact per-axis split."""
    dim = grid.dim
    d_idx = grid.v_centers * tau / grid.dx
    out = values
    for ax in range(dim):
        v_ax = dim + ax
        moved = np.moveaxis(out, (ax, v_ax), (0, 1))
        lead = moved.shape[:2]
        rest = int(np.prod(moved.shape[2:], dtype=int)) if moved.ndim > 2 else 1
        flat = moved.reshape(lead[0], lead[1] * rest)
        d = np.repeat(d_idx, rest)
        shifted = _shift_columns(flat, d, periodic, cubic)
        out = np.moveaxis(shifted.reshape(moved.shape), (0, 1), (ax, v_ax))
    return out


# ---------------------------------------------------------------------------
# diffusion: implicit divergence-form finite volume along each v axis
# ---------------------------------------------------------------------------

def _thomas(sub, diag, sup, rhs):
    """Tridiagonal solve along the last axis, batched over leading axes."""
    n = rhs.shape[-1]
    c = np.empty_like(rhs)
    d = np.empty_like(rhs)
    c[..., 0] = sup[..., 0] / diag[..., 0]
    d[..., 0] = rhs[..., 0] / diag[..., 0]
    for i in range(1, n):
        denom = diag[..., i] - sub[..., i] * c[..., i - 1]
        c[..., i] = sup[..., i] / denom
        d[..., i] = (rhs[..., i] - sub[..., i] * d[..., i - 1]) / denom
    out = np.empty_like(rhs)
    out[..., -1] = d[..., -1]
    for i in range(n - 2, -1, -1):
        out[..., i] = d[..., i] - c[..., i] * out[..., i + 1]
    return out


def _coefficient_grid(diffusion, grid: PhaseGrid, t):
    """Diagonal coefficient arrays on cell centers, one per v axis."""
    if grid.dim == 1:
        a = diffusion.scalar(t, grid.x_centers[:, None], grid.v_centers[None, :])
        return (np.broadcast_to(a, grid.shape),)
    xs = (grid.x_centers[:, None, None, None], grid.x_centers[None, :, None, None])
    vs = (grid.v_centers[None, None, :, None], grid.v_centers[None, None, None, :])
    return tuple(np.broadcast_to(a, grid.shape) for a in diffusion.diagonal(t, xs, vs))


def _diffuse(values, grid: PhaseGrid, coeffs, dt, active=None, check_residual=True):
    """Backward Euler for div_v(a grad_v .) with harmonic face averages.

    `active` is an optional boolean mask; inactive cells hold their incoming
    values as Dirichlet data for the coupled rows (the kinetic IBVP passes
    zeros there, the anchored re-solve passes parent-field data), which
    keeps the M-matrix structure.  For dim = 2 the two v axes are advanced
    sequentially (splitting within the substep; first order, matching the
    backward Euler substep order).
    """
    dim = grid.dim
    r = dt / grid.dv**2
    out = values
    for ax in range(dim):
        v_ax = dim + ax
        f = np.moveaxis(out, v_ax, -1)
        a = np.moveaxis(coeffs[ax], v_ax, -1)
        am = np.zeros_like(a)
        ap = np.zeros_like(a)
        har = 2.0 * a[..., :-1] * a[..., 1:] / (a[..., :-1] + a[..., 1:])
        am[..., 1:] = har
        ap[..., :-1] = har
        diag = 1.0 + r * (am + ap)
        sub = -r * am
        sup = -r * ap
        rhs = f.copy()
        if active is not None:
            act = np.moveaxis(active, v_ax, -1)
            dead = ~act
            diag = np.where(dead, 1.0, diag)
            sub = np.where(dead, 0.0, sub)
            sup = np.where(dead, 0.0, sup)
        sol = _thomas(sub, diag, sup, rhs)
        if check_residual:
            res = diag * sol + sub * np.roll(sol, 1, axis=-1) \
                + sup * np.roll(sol, -1, axis=-1)
            res[..., 0] = diag[..., 0] * sol[..., 0] + sup[..., 0] * sol[..., 1]
            res[..., -1] = diag[..., -1] * sol[..., -1] + sub[..., -1] * sol[..., -2]
            err = float(np.max(np.abs(res - rhs)))
            scale = 1.0 + float(np.max(np.abs(rhs)))
            if not np.isfinite(err) or err > 1e-9 * scale:
                raise SolverError(f"diffusion solve residual {err:.3e} "
                                  f"exceeds tolerance {1e-9 * scale:.3e}")
        out = np.moveaxis(sol, -1, v_ax)
    return out


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _bc_mask(grid: PhaseGrid, bc: BoundaryCondition):
    if bc.kind != "kinetic_ibvp":
        return None
    in_x = grid.rho_x < bc.radius
    in_v = grid.rho_v < bc.radius
    return grid.expand_x(in_x) & grid.expand_v(in_v)


def _check_cfl(grid: PhaseGrid, dt: float):
    limit = grid.dx / grid.v_max
    if dt > limit * (1.0 + 1e-12):
        raise CFLError(f"dt = {dt} exceeds the transport bound dx/v_max = {limit}")


def step(state: PhaseField, diffusion, source, dt: float, bc: BoundaryCondition,
         interp: str = "linear") -> PhaseField:
    """One Strang step from state.t to state.t + dt."""
    mask = _bc_mask(state.grid, bc)
    vals = _step_values(state.values, state.grid, state.t, diffusion, source,
                        dt, bc, mask, interp)
    return PhaseField(state.grid, state.t + dt, vals)


def _step_values(values, grid, t, diffusion, source, dt, bc, mask, interp):
    _check_cfl(grid, dt)
    cubic = interp == "cubic"
    periodic = bc.periodic_x
    t_mid = t + 0.5 * dt
    out = values
    if mask is not None:
        out = np.where(mask, out, 0.0)
    out = _transport(out, grid, 0.5 * dt, periodic, cubic)
    if mask is not None:
        out = np.where(mask, out, 0.0)
    if source is not None:
        # the increment dt*g rides inside the implicit solve: barrier sources
        # carry stiff div_v structure that must see the same implicit damping
        # as the field itself, or the comparison defect saturates at O(1)
        src = source.sample(grid, t_mid)
        out = out + dt * (np.where(mask, src, 0.0) if mask is not None else src)
    coeffs = _coefficient_grid(diffusion, grid, t_mid)
    out = _diffuse(out, grid, coeffs, dt, active=mask)
    out = _transport(out, grid, 0.5 * dt, periodic, cubic)
    if mask is not None:
        out = np.where(mask, out, 0.0)
    return out


def _ledger_entry(grid, t, vals):
    return {
        "t": float(t),
        "l2_sq": float(np.sum(vals**2) * grid.cell_volume),
        "mass": float(np.sum(vals) * grid.cell_volume),
        "min": float(vals.min()),
        "max": float(vals.max()),
    }


def solve(f0: PhaseField, diffusion, source, t_end: float, bc: BoundaryCondition,
          dt: float | None = None, interp: str = "linear",
          store_every: int = 1) -> Trajectory:
    """March from f0.t to t_end, storing every `store_every`-th slice.

    The step count is rounded from (t_end - f0.t)/dt; identical inputs give
    bit-identical trajectories.  Each step appends an energy-ledger entry.
    """
    grid = f0.grid
    dt = grid.dt if dt is None else float(dt)
    span = t_end - f0.t
    if span <= 0:
        raise ValueError(f"t_end = {t_end} must exceed the initial time {f0.t}")
    n_steps = max(1, int(round(span / dt)))
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"span {span} is not an integer multiple of dt = {dt}")
    if n_steps % store_every != 0:
        raise ValueError(f"store_every = {store_every} must divide the "
                         f"step count {n_steps} (stored slices stay uniform)")
    mask = _bc_mask(grid, bc)
    vals = f0.values if mask is None else np.where(mask, f0.values, 0.0)
    times = [f0.t]
    slices = [vals.copy()]
    ledger = [_ledger_entry(grid, f0.t, vals)]
    t = f0.t
    for n in range(n_steps):
        vals = _step_values(vals, grid, t, diffusion, source, dt, bc, mask, interp)
        t = f0.t + (n + 1) * dt
        ledger.append(_ledger_entry(grid, t, vals))
        if (n + 1) % store_every == 0 or n == n_steps - 1:
            times.append(t)
            slices.append(vals.copy())
    return Trajectory(grid, np.array(times), np.stack(slices), ledger)


def solve_anchored(data: Trajectory, diffusion, source, ring: int = 2,
                   interp: str = "linear") -> Trajectory:
    """Re-solve the equation with initial and boundary data taken from `data`.

    Starts from the first stored slice and, after every step, overwrites the
    outermost `ring` cells of each x and v axis with the data trajectory
    (time-interpolated).  Used by the zoom machinery, where `data` is an
    interpolated field and the re-solve imposes the equation at the new
    scale with boundary values anchored to the parent field.
    """
    grid = data.grid
    dt = float(data.times[1] - data.times[0])
    ring_mask = np.zeros(grid.shape, dtype=bool)
    for ax in range(2 * grid.dim):
        sl = [slice(None)] * 2 * grid.dim
        sl[ax] = slice(0, ring)
        ring_mask[tuple(sl)] = True
        sl[ax] = slice(-ring, None)
        ring_mask[tuple(sl)] = True
    interior = ~ring_mask
    vals = data.values[0].copy()
    times = [float(data.times[0])]
    slices = [vals.copy()]
    t = times[0]
    cubic = interp == "cubic"
    for n in range(len(data.times) - 1):
        _check_cfl(grid, dt)
        t_next = float(data.times[0]) + (n + 1) * dt
        t_mid = t + 0.5 * dt
        out = _transport(vals, grid, 0.5 * dt, False, cubic)
        if source is not None:
            out = out + dt * source.sample(grid, t_mid)
        # rings carry the parent data at the implicit time level, so the
        # backward-Euler solve sees exact Dirichlet anchors (a linear field
        # with constant coefficient passes through bit-consistently)
        out = np.where(ring_mask, data.at_time(t_next), out)
        coeffs = _coefficient_grid(diffusion, grid, t_mid)
        out = _diffuse(out, grid, coeffs, dt, active=interior)
        out = _transport(out, grid, 0.5 * dt, False, cubic)
        vals = np.where(ring_mask, data.at_time(t_next), out)
        t = t_next
        times.append(t)
        slices.append(vals.copy())
    return Trajectory(grid, np.array(times), np.stack(slices))


# ---------------------------------------------------------------------------
# the barrier initial-boundary value problem
# ---------------------------------------------------------------------------

class BarrierSource:
    """Source S1 + div_v S2 assembled from stored trajectories.

    div_v is the adjoint of the face gradient: components are averaged to
    faces and differenced back to cells with zero boundary faces, so the
    discrete energy pairing (div_v S2, G) = -(S2, grad_v G) mirrors the
    continuous identity.
    """

    def __init__(self, s1: Trajectory, s2):
        self.s1 = s1
        self.s2 = tuple(s2) if isinstance(s2, (tuple, list)) else (s2,)
        if len(self.s2) != s1.grid.dim:
            raise ValueError(f"need {s1.grid.dim} components for S2, got {len(self.s2)}")

    def sample(self, grid: PhaseGrid, t: float) -> np.ndarray:
        out = self.s1.at_time(t).copy()
        for ax, comp in enumerate(self.s2):
            out += _face_divergence(grid, comp.at_time(t), ax)
        return out


def _face_divergence(grid: PhaseGrid, comp: np.ndarray, ax: int) -> np.ndarray:
    v_ax = grid.dim + ax
    s = np.moveaxis(comp, v_ax, -1)
    n = s.shape[-1]
    flux = np.zeros(s.shape[:-1] + (n + 1,))
    flux[..., 1:n] = 0.5 * (s[..., :-1] + s[..., 1:])
    div = (flux[..., 1:] - flux[..., :-1]) / grid.dv
    return np.moveaxis(div, -1, v_ax)


def solve_barrier_ibvp(s1: Trajectory, s2, diffusion, k: int,
                       interp: str = "linear",
                       initial: PhaseField | None = None) -> Trajectory:
    """Solve the level-k barrier problem on (T_{k-1}, 0) x B(0, R_{k-1})^2
    with the kinetic inflow boundary condition.

    Initial data defaults to zero.  The comparison 0 <= F_k <= G_k rests on
    the difference having zero initial defect, which literal zero data
    provides only when the truncated field already vanishes at T_{k-1};
    passing `initial` = F_k(T_{k-1}, .) keeps the comparison a genuine
    maximum-principle consequence for arbitrary runs.
    """
    grid = s1.grid
    t_start = dyadic_time(k - 1)
    radius = dyadic_radius(k - 1)
    if t_start < grid.t_span[0] - 1e-9:
        raise ValueError(f"grid time span {grid.t_span} does not cover T_{k-1}")
    dt = float(s1.times[1] - s1.times[0])
    if initial is None:
        f0 = PhaseField.constant(grid, t_start, 0.0)
    else:
        if abs(initial.t - t_start) > 1e-9:
            raise ValueError(f"initial slice is at t = {initial.t}, "
                             f"the barrier starts at {t_start}")
        f0 = initial
    src = BarrierSource(s1, s2)
    return solve(f0, diffusion, src, 0.0, kinetic_ibvp(radius), dt=dt, interp=interp)


# ---------------------------------------------------------------------------
# energy accounting
# ---------------------------------------------------------------------------

def grad_v_sq_sum(grid: PhaseGrid, vals: np.ndarray) -> float:
    """Discrete || grad_v f ||_L2^2 by face differences (the FV seminorm)."""
    total = 0.0
    for ax in range(grid.dim):
        v_ax = grid.dim + ax
        d = np.diff(vals, axis=v_ax) / grid.dv
        total += float(np.sum(d * d))
    return total * grid.cell_volume


def energy_budget(traj: Trajectory, source, lam: float):
    """Audit the global energy inequality along a trajectory.

    For every stored time t the record compares

        1/2 ||f(t)||^2 + (1/lam) int_{t0}^t ||grad_v f||^2
            <=  1/2 ||f(t0)||^2 + int_{t0}^t ||g|| ||f||

    with right-endpoint quadrature in time (matching the implicit substep).
    Returns (records, min_slack); slack >= 0 up to scheme tolerance because
    the discrete step dissipates at least the continuous rate.
    """
    grid = traj.grid
    e0 = 0.5 * float(np.sum(traj.values[0]**2)) * grid.cell_volume
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
                g = source.sample(grid, t - 0.5 * h)
                g_l2 = float(np.sqrt(np.sum(g**2) * grid.cell_volume))
                f_l2 = float(np.sqrt(np.sum(vals**2) * grid.cell_volume))
                work += h * g_l2 * f_l2
        slack = (e0 + work) - (e_t + dissip)
        min_slack = min(min_slack, slack)
        records.append({"t": t, "energy": e_t, "dissipation": dissip,
                        "source_work": work, "slack": slack})
    return records, float(min_slack)


def local_energy_check(traj: Trajectory, k: int, c: float, lam: float,
                       s: float, t: float, source=None) -> float:
    """Residual (rhs - lhs) of the cutoff energy inequality between times s < t.

    All six integrals are evaluated by quadrature with the level-k cutoffs:
    lhs is the weighted energy at t plus the (1/lam)-weighted dissipation of
    eta(v) (f-c)_+, rhs is the energy at s, the lam |grad eta(v)|^2 term,
    the transport term with v . grad eta(x), and the source work.
    """
    if not s < t + 1e-15:
        raise ValueError(f"need s < t, got s = {s}, t = {t}")
    grid = traj.grid
    level = DyadicLevel(k)
    eta_x = level.eta(grid.rho_x)
    eta_v = level.eta(grid.rho_v)
    eta_v_slope = level.eta_slope(grid.rho_v)
    wx = grid.expand_x(eta_x)
    wv = grid.expand_v(eta_v)
    cv = grid.cell_volume

    # v . grad eta_k(x) summed over axes, with the radial direction x/|x|
    vdot = np.zeros(grid.shape)
    slope_x = level.eta_slope(grid.rho_x)
    rho_safe = np.where(grid.rho_x > 0, grid.rho_x, 1.0)
    for ax in range(grid.dim):
        xa = grid.axis_coord("x", ax)
        va = grid.axis_coord("v", ax)
        vdot += grid.expand_x(slope_x * xa / rho_safe) * grid.expand_v(va)

    def positive_part(i):
        return np.maximum(traj.values[i] - c, 0.0)

    i_s = traj.slice_index(s)
    i_t = traj.slice_index(t)
    energy_t = 0.5 * float(np.sum(wx * wv**2 * positive_part(i_t) ** 2)) * cv
    energy_s = 0.5 * float(np.sum(wx * wv**2 * positive_part(i_s) ** 2)) * cv

    w_time = time_quadrature_weights(traj.times, s, t)
    dissip = 0.0
    grad_pen = 0.0
    transport = 0.0
    source_term = 0.0
    for i in np.nonzero(w_time)[0]:
        w = float(w_time[i])
        fk = positive_part(i)
        prod = grid.expand_v(eta_v) * fk
        gsq = np.zeros(grid.shape)
        for ax in range(grid.dim):
            gsq += np.gradient(prod, grid.dv, axis=grid.dim + ax) ** 2
        dissip += w * float(np.sum(wx * gsq)) * cv
        grad_pen += w * float(np.sum(wx * fk**2 * grid.expand_v(eta_v_slope) ** 2)) * cv
        transport += w * 0.5 * float(np.sum(wv**2 * fk**2 * vdot)) * cv
        if source is not None:
            g = source.sample(grid, float(traj.times[i]))
            source_term += w * float(np.sum(g * fk * wx * wv**2)) * cv

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
