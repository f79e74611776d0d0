"""Dyadic truncation energies, level-set bounds, barrier sources, and the
nonlinear iteration that forces the local L-infinity bound.

The ladder truncates f at the rising heights C_k = (1 - 2^-k)/2, measures
the cutoff-weighted energies

    U_k = sup_{T_k <= t <= 0} 1/2 int eta_k(x) eta_k(v)^2 f_k^2
          + (1/lam) int_{T_k}^0 int eta_k(x) |grad_v(eta_k(v) f_k)|^2,

and audits the chain of inequalities that closes the loop: the
Bienayme-Chebyshev level-set bound, the barrier-source norms, the
superlinear recursion U_k <= C 2^{6k} U_{k-2}^alpha, and the smallness
threshold kappa.  kappa underflows 64-bit floats for realistic constants
(the exponent is 2 alpha/(alpha-1)^2 = 180 for N = 1, q = inf), so every
constant that can be astronomically small is carried in log10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefficients import KeyedSampler
from .fields import PhaseField, Trajectory
from .geometry import (
    DyadicLevel,
    GeometryError,
    SliceIntegral,
    ball_volume,
    cell_grad_v,
    cylinder_integral,
    cylinder_node_extrema,
    cylinder_nodes,
    dyadic_time,
    dyadic_truncation,
    face_divergence,
    grad_v_sq_density,
    level_set_measure,
    make_cylinder,
    time_quadrature_weights,
)

__all__ = [
    "LOCAL_ENERGY_LEVELS",
    "LevelPass",
    "TruncationReport",
    "ChebyshevReport",
    "BarrierSource",
    "BarrierSourceReport",
    "IterationConstants",
    "GateReport",
    "truncate",
    "truncation_energy",
    "grad_v_sq_trajectory",
    "chebyshev_audit",
    "build_barrier_sources",
    "cutoff_fields",
    "recursion_audit",
    "kappa_log10",
    "geometric_iteration",
    "exponent_sum_identity",
    "linfty_gate",
    "empirical_kappa",
]


def truncate(traj: Trajectory, k: int) -> Trajectory:
    """The truncated field f_k = (f - C_k)_+ for k >= 0."""
    c = dyadic_truncation(k)
    return traj.map_values(lambda v: np.maximum(v - c, 0.0))


def grad_v_sq_trajectory(traj: Trajectory) -> Trajectory:
    """|grad_v f|^2 slice-wise, the face-difference cell density."""
    return traj.map_values(lambda values: grad_v_sq_density(traj.grid, values))


# the truncation levels whose cutoff energy inequality the run checks
# (`solver.local_energy_check`); their passes take all five cutoff sums
LOCAL_ENERGY_LEVELS = (1, 2, 3)


class LevelPass:
    """Every integral of level k's truncation f_k = (f - C_k)_+ that the
    level's audits read, from one walk of the level window.

    The window is `Trajectory.window` of level k: the stored slices from
    the last one at or before T_{k-1} (up to roundoff), on the cell box of
    B(R_{k-1})^2 with one extra v cell, outside which every level-k
    integrand vanishes.  The level-k barrier reads the same window, the
    `source` kept here and the norms of Q_{k-1} (`build_barrier_sources`).
    The pass takes its stored slices once, in time order, and forms f_k and
    the face-difference density |grad_v f_k|^2 of each once, for the
    `geometry.SliceIntegral`s of `fk_l2` and `grad_l2`, ||f_k|| and
    ||grad_v f_k|| in L2 of (Q_k, Q_{k-1}).  The level set `level_set`,
    |{f > C_k} cap Q_{k-1}|, and the Chebyshev bound's integral `prev_sq`,
    int_{Q_{k-1}} f_{k-1}^2 (None at k = 0), read the stored slices
    themselves: `level_set_measure` and `cylinder_integral` sum them after
    the walk, over views of the window.

    From the last slice at or before T_k on (window index `first`, by the
    same rule, `Trajectory.slice_at`), where U_k and the local energy
    inequality read, each slice also gives the raw cell sums of the
    cutoff-energy integrands (`cutoff_sums`):

        eta_x eta_v^2 f_k^2,   eta_x |grad_v(eta_v f_k)|^2,
        eta_x f_k^2 |grad eta_v|^2,   eta_v^2 f_k^2 v.grad eta_x,
        g f_k eta_x eta_v^2  (0.0 without a source).

    U_k reads the first two; the last three, which only the local energy
    inequality reads, are taken on the levels of `LOCAL_ENERGY_LEVELS`.
    Each integrand is formed in one of three slice buffers of the pass, in
    the association order of its formula above, read left to right.

    Slice indices are those of the window (`window`, a read-only view).
    """

    def __init__(self, traj: Trajectory, k: int, source=None):
        level = DyadicLevel(k)
        if traj.times[0] > level.t_start + 1e-9:
            raise GeometryError(
                f"trajectory starts at {traj.times[0]}, after T_{k} = {level.t_start}")
        self.k = k
        self.source = source
        self.window = win = traj.window(dyadic_time(k - 1), level.outer_radius)
        self.first = win.slice_at(level.t_start)
        cells = win.grid
        c = level.truncation
        eta_x, eta_v = level.cutoffs(cells)
        eta_v_sq = eta_v**2
        local = k in LOCAL_ENERGY_LEVELS
        if local:
            slope_sq = cells.expand_v(level.eta_slope(cells.rho_v)) ** 2
            vdot = level.v_dot_grad_eta_x(cells)
            sample = None if source is None else KeyedSampler(
                source, lambda t: source.sample(cells, t))
        regions = (level.cylinder(), level.outer_cylinder())
        # the squares are taken in place, in the integral's own cell buffer
        fk_sq = [SliceIntegral(win, lambda v, _: np.square(v, out=v), q) for q in regions]
        grad_sq = [SliceIntegral(win, lambda v, _: v, q) for q in regions]
        fk, density, buf = np.empty((3,) + cells.shape)
        self._sums = []
        for i, f in enumerate(win.values):
            np.maximum(np.subtract(f, c, out=fk), 0.0, out=fk)
            for integral in fk_sq:
                integral.add(i, fk)
            grad_v_sq_density(cells, fk, density)
            for integral in grad_sq:
                integral.add(i, density)
            if i < self.first:
                continue
            grad_v_sq_density(cells, np.multiply(eta_v, fk, out=buf), density)
            density *= eta_x
            grad = float(np.sum(density))
            work = 0.0
            if local and source is not None:
                np.multiply(sample(float(win.times[i])), fk, out=buf)
                buf *= eta_x
                buf *= eta_v_sq
                work = float(np.sum(buf))
            fk_fk = np.square(fk, out=fk)
            np.multiply(eta_x, eta_v_sq, out=buf)
            buf *= fk_fk
            sums = (float(np.sum(buf)), grad)
            if local:
                np.multiply(eta_x, fk_fk, out=buf)
                buf *= slope_sq
                slope = float(np.sum(buf))
                np.multiply(eta_v_sq, fk_fk, out=buf)
                buf *= vdot
                sums += (slope, float(np.sum(buf)), work)
            self._sums.append(sums)
        # the buffers go before the level set and f_{k-1}^2 take theirs
        fk = density = buf = fk_fk = None
        self.fk_l2 = tuple(math.sqrt(integral.value()) for integral in fk_sq)
        self.grad_l2 = tuple(math.sqrt(integral.value()) for integral in grad_sq)
        self.level_set = level_set_measure(win, lambda f: f > c, regions[1])
        c_prev = None if k == 0 else dyadic_truncation(k - 1)
        # f_{k-1}^2 in place: the cell buffer is the integral's own
        self.prev_sq = None if k == 0 else cylinder_integral(
            win, lambda f: np.square(np.maximum(np.subtract(f, c_prev, out=f), 0.0, out=f),
                                     out=f), regions[1])

    def cutoff_sums(self, slices) -> dict:
        """{i: the cutoff sums of window slice i} for the slices asked for,
        each from the last one at or before T_k on: all five on the levels
        of `LOCAL_ENERGY_LEVELS`, the first two on the others."""
        slices = [int(i) for i in slices]
        if slices and min(slices) < self.first:
            raise ValueError(f"slice {min(slices)} of the level-{self.k} window is "
                             f"before T_{self.k}'s slice {self.first}")
        return {i: self._sums[i - self.first] for i in slices}


@dataclass
class TruncationReport:
    k: int
    energy: float                # U_k
    sup_term: float
    dissipation_term: float
    level_set: float             # |{f_k > 0} cap Q_{k-1}|
    fk_l2_inner: float           # ||f_k||_{L2(Q_k)}
    fk_l2_outer: float           # ||f_k||_{L2(Q_{k-1})}
    grad_l2_inner: float
    grad_l2_outer: float


def truncation_energy(level: LevelPass, lam: float) -> TruncationReport:
    """U_k of the level's pass: the discrete sup over the stored slices in
    [T_k, 0] plus the trapezoid time-quadrature of the weighted dissipation,
    with |grad_v (eta_k(v) f_k)|^2 the face-difference cell density.  Both
    are read from the pass's cutoff sums, and the level set and the f_k
    norms of Q_k and Q_{k-1} are the pass's reducers."""
    t_k = dyadic_time(level.k)
    times = level.window.times
    cv = level.window.grid.cell_volume
    w = time_quadrature_weights(times, t_k, 0.0)
    sup_term = 0.0
    dissipation = 0.0
    for i, (energy, grad_sq, *_) in level.cutoff_sums(
            np.nonzero(times >= t_k - 1e-12)[0]).items():
        sup_term = max(sup_term, 0.5 * energy * cv)
        if w[i] > 0.0:
            dissipation += float(w[i]) * grad_sq * cv
    (fk_in, fk_out), (grad_in, grad_out) = level.fk_l2, level.grad_l2
    return TruncationReport(level.k, sup_term + dissipation / lam, sup_term,
                            dissipation / lam, level.level_set,
                            fk_in, fk_out, grad_in, grad_out)


@dataclass
class ChebyshevReport:
    k: int
    measure: float               # |{f_k > 0} cap Q_{k-1}|
    integral: float              # int_{Q_{k-1}} f_{k-1}^2
    bound: float                 # 2^{2k+2} * integral
    margin: float                # bound - measure (exact discretely, >= 0)
    chained_bound: float | None  # 3 * 2^{2k+1} * U_{k-1} when U supplied
    chained_margin: float | None

    @property
    def slack(self) -> float:
        """The margin with its roundoff tolerance; >= 0 iff the bound holds."""
        return self.margin + 1e-12 * max(1.0, self.bound)

    @property
    def passed(self) -> bool:
        return self.slack >= 0.0


def chebyshev_audit(level: LevelPass, u_prev: float | None = None) -> ChebyshevReport:
    """Level-set measure against the Chebyshev bound at the level k >= 1
    of the pass.

    Both sides use the same midpoint cell rule, so a counted cell has
    f_{k-1} > 2^{-k-1} at its center and the inequality

        |{f_k > 0} cap Q_{k-1}| <= 2^{2k+2} int_{Q_{k-1}} f_{k-1}^2

    holds exactly on the quadrature, not just up to tolerance.  When the
    previous truncation energy is supplied, the chained bound
    3 * 2^{2k+1} U_{k-1} is reported as well (its constant presumes the
    continuous sup bound, so only the margin is recorded, not asserted).

    Both sides are reducers of the level's pass (`level_set`, `prev_sq`):
    the same cells of the level window summed in the same order.
    """
    k = level.k
    if k < 1:
        raise ValueError(f"chebyshev audit requires a pass of level k >= 1, got {k}")
    integral = level.prev_sq
    bound = 2.0 ** (2 * k + 2) * integral
    chained = chained_margin = None
    if u_prev is not None:
        chained = 3.0 * 2.0 ** (2 * k + 1) * u_prev
        chained_margin = chained - bound
    return ChebyshevReport(k, level.level_set, integral, bound, bound - level.level_set,
                           chained, chained_margin)


# ---------------------------------------------------------------------------
# barrier sources
# ---------------------------------------------------------------------------

class BarrierSource:
    """The barrier problem's source S1 + div_v S2 as its solve reads it: per
    step n from `t_start`, the increment dt (S1 + div_v S2) at the step's
    midpoint t_start + n dt + dt/2, on one cell box (a grid or the level
    window of `build_barrier_sources`).

    S1 and each S2 component are interpolated linearly in time between the
    stored slices around the midpoint (`Trajectory.at_time`'s formula), so
    only the increments are kept, one slice per step, and not S1 and the N
    components of S2 at every stored time.  div_v is
    `geometry.face_divergence`, the adjoint of the face gradient with zero
    boundary faces, so the discrete energy pairing (div_v S2, G) =
    -(S2, grad_v G) mirrors the continuous identity, with grad_v the cell
    gradient of `build_barrier_sources`.  On the window the boundary faces
    sit past the Dirichlet v cell, where S2 vanishes.
    """

    def __init__(self, grid, t_start: float, dt: float, n_steps: int):
        self.grid = grid
        self.t_start = t_start
        self.dt = dt
        self.increments = np.empty((n_steps,) + grid.shape)

    @classmethod
    def from_trajectories(cls, s1: Trajectory, s2, t_start: float | None = None):
        """The increments of the steps from `t_start` (default: the first
        stored time) to t = 0, at the spacing of s1's stored slices
        (`Trajectory.dt`), which must hold every step's midpoint."""
        s2 = tuple(s2) if isinstance(s2, (tuple, list)) else (s2,)
        t_start = s1.t_start if t_start is None else t_start
        times, dt = s1.times, s1.dt
        src = cls(s1.grid, t_start, dt, int(round((0.0 - t_start) / dt)))
        at = lambda j: (s1.values[j], [comp.values[j] for comp in s2])
        for n in range(len(src.increments)):
            t_mid = src.midpoint(n)
            if not times[0] < t_mid < times[-1]:
                raise ValueError(f"step {n}'s midpoint {t_mid} is outside the stored "
                                 f"times [{times[0]}, {times[-1]}]")
            j = int(np.searchsorted(times, t_mid)) - 1
            src.set_step(n, times[j:j + 2], at(j), at(j + 1))
        return src

    def midpoint(self, n: int) -> float:
        """The time at which step n samples S1 and S2."""
        return self.t_start + n * self.dt + 0.5 * self.dt

    def set_step(self, n: int, times, prev, cur):
        """Fill step n's increment from (S1, S2) at the two stored `times`
        around its midpoint: `prev` and `cur` are (S1, S2) slice pairs, with
        S2 one array per v axis.  The increment is dt times the lerp
        (1 - w) a + w b of S1 plus the divergence of each S2 component's
        lerp, added in that order; it is formed in place, with two slice
        buffers for the lerps and divergences."""
        if len(prev[1]) != self.grid.dim or len(cur[1]) != self.grid.dim:
            raise ValueError(f"need {self.grid.dim} components for S2, "
                             f"got {len(prev[1])} and {len(cur[1])}")
        w = (self.midpoint(n) - times[0]) / (times[1] - times[0])
        out = self.increments[n]
        s2_lerp, part = np.empty((2,) + self.grid.shape)

        def lerp(a, b, into):
            np.multiply(a, 1.0 - w, out=into)
            into += np.multiply(b, w, out=part)
            return into

        lerp(prev[0], cur[0], out)
        for ax, (a, b) in enumerate(zip(prev[1], cur[1])):
            out += face_divergence(self.grid, lerp(a, b, s2_lerp), ax, part)
        out *= self.dt

    def increments_for(self, grid, dt: float):
        """The step plan's increment sampler: the increment of the step whose
        midpoint is t."""
        if grid.shape != self.grid.shape or dt != self.dt:
            raise ValueError(f"the barrier source has steps of {self.dt} on "
                             f"{self.grid.shape}, the solve {dt} on {grid.shape}")
        return lambda t: self.increments[int(round((t - self.t_start) / dt - 0.5))]


@dataclass
class BarrierSourceReport:
    """The level-k barrier source on the level window from T_{k-1} and the
    field F_k it acts on at T_{k-1}, with the L2(Q_{k-1}) norms of
    `build_barrier_sources` and the ladder budgets they must meet.  S1 and
    S2 are not kept: the source holds the barrier solve's increments, and
    their norms were taken as they were assembled.  Of F_k only the slice
    at T_{k-1}, where the barrier starts, is kept; a reader of the others
    forms them one at a time from the window (`cutoff_fields`)."""

    k: int
    source: BarrierSource        # dt (S1 + div_v S2) per barrier step, on the window
    initial: PhaseField          # F_k = f_k eta_k(x) eta_k(v)^2 at T_{k-1}, on its cells
    s1_l2: float
    s2_l2: float
    fk_l2: float
    grad_fk_l2: float
    g_ind_l2: float
    s2_bound: float              # 2^{k+3} lam ||f_k||, the ladder budget
    s2_bound_actual: float       # same with the implementation's slope constant
    s1_bound: float


def _cutoff_field(fk, eta_x, eta_v_sq, out):
    """F_k = f_k eta_k(x) eta_k(v)^2 of one slice's f_k, formed in `out`
    in that order: the one formula of the field the level-k barrier starts
    from and dominates (`build_barrier_sources`, `cutoff_fields`)."""
    np.multiply(fk, eta_x, out=out)
    out *= eta_v_sq
    return out


def cutoff_fields(level: LevelPass):
    """F_k (`_cutoff_field`) at each stored slice of the level's window,
    in time order, the first bit for bit the report's
    `BarrierSourceReport.initial`: each is formed from its stored slice in
    a buffer of the generator, overwritten at the next slice."""
    dyadic = DyadicLevel(level.k)
    cells = level.window.grid
    c = dyadic.truncation
    eta_x, eta_v = dyadic.cutoffs(cells)
    eta_v_sq = eta_v**2
    fk, out = np.empty((2,) + cells.shape)
    for f in level.window.values:
        np.maximum(np.subtract(f, c, out=fk), 0.0, out=fk)
        yield _cutoff_field(fk, eta_x, eta_v_sq, out)


def _source_sampler(level: LevelPass):
    """The pass's source drawn on its window by time key (`KeyedSampler`),
    None without a source."""
    source, cells = level.source, level.window.grid
    return None if source is None else KeyedSampler(
        source, lambda t: source.sample(cells, t))


def _barrier_slices(level: LevelPass, diffusion, sample=None):
    """(f_k, S1, S2) at each stored slice of the level's window, in time
    order, with S2 one array per v axis:

        S1 = g 1_{f > C_k} eta_k(x) eta_k(v)^2 + f_k eta_k(v)^2 v.grad eta_k(x)
             - 2 eta_k(x) eta_k(v) a . grad_v f_k . grad eta_k(v),
        S2 = -2 eta_k(x) eta_k(v) f_k a grad eta_k(v),

    with g the pass's source, drawn by `sample` (default: a sampler of its
    own, `_source_sampler`).  The coefficient and the source are sampled
    only when their time keys change.  S1 and S2 are new arrays per slice,
    each formed in place in the association order of its formula read left
    to right; f_k is a buffer of the generator, overwritten at the next
    slice."""
    win, source, dyadic = level.window, level.source, DyadicLevel(level.k)
    cells = win.grid
    c = dyadic.truncation
    eta_x, eta_v = dyadic.cutoffs(cells)
    eta_v_sq = eta_v**2
    two_eta_x, minus_two_eta_x = 2.0 * eta_x, -2.0 * eta_x
    vdot = dyadic.v_dot_grad_eta_x(cells)
    grad_eta_v = [cells.expand_v(g) for g in dyadic.grad_eta(cells, "v")]
    coefficients = KeyedSampler(diffusion, lambda t: diffusion.sample(cells, t))
    if sample is None:
        sample = _source_sampler(level)
    fk, cross, buf = np.empty((3,) + cells.shape)
    ind = np.empty(cells.shape, dtype=bool)
    for i in range(win.n_slices):
        t = float(win.times[i])
        f = win.values[i]
        np.maximum(np.subtract(f, c, out=fk), 0.0, out=fk)
        a_diag = coefficients(t)
        s1 = np.empty(cells.shape)
        s2 = tuple(np.empty(cells.shape) for _ in range(cells.dim))
        # the sum over the axes of a_ax (grad_v f_k)_ax (grad eta_v)_ax, from 0.0
        cross.fill(0.0)
        for ax, comp in enumerate(s2):
            term = cell_grad_v(cells, fk, ax, buf)
            term *= a_diag[ax]
            term *= grad_eta_v[ax]
            cross += term
            np.multiply(minus_two_eta_x, eta_v, out=comp)
            comp *= fk
            comp *= a_diag[ax]
            comp *= grad_eta_v[ax]
        if source is not None:
            np.multiply(sample(t), np.greater(f, c, out=ind), out=s1)
            s1 *= eta_x
            s1 *= eta_v_sq
        else:
            # no source: its term is 0.0 times the indicator and the cutoffs
            s1.fill(0.0)
        np.multiply(fk, eta_v_sq, out=buf)
        buf *= vdot
        s1 += buf
        np.multiply(two_eta_x, eta_v, out=buf)
        buf *= cross
        s1 -= buf
        yield fk, s1, s2


def build_barrier_sources(level: LevelPass, diffusion) -> BarrierSourceReport:
    """Assemble the barrier source S1 + div_v S2 of the pass's level k >= 1
    (`_barrier_slices`), both parts supported in Q_{k-1} through the cutoff
    factors.  Cutoff gradients are analytic; grad_v f_k is the cell
    gradient of the truncated field (`geometry.cell_grad_v`).  The report
    carries the L2(Q_{k-1}) norms of S1 and S2, the ladder bounds they must
    satisfy, the barrier solve's source and the slice at T_{k-1} of the
    truncated cutoff field F_k = f_k eta_k(x) eta_k(v)^2, which the barrier
    starts from and dominates.

    Everything lives on the pass's level window (`LevelPass.window`): the
    stored slices from the one at T_{k-1}, where the barrier problem
    starts, on the cell box of B(R_{k-1})^2 with one extra v cell.  On the
    whole grid it would be zero outside that box, and the face differences
    on it equal the whole grid's wherever a cutoff factor is non-zero.
    S1 and S2 are assembled one stored slice at a time, with the pass's
    source: their norms are summed as they come (`geometry.SliceIntegral`),
    and each step's increment dt (S1 + div_v S2) at its midpoint is kept
    (`BarrierSource`), not S1 and S2 themselves.

    ||f_k|| and ||grad_v f_k|| in L2(Q_{k-1}), which the ladder budgets
    read, are the pass's (`fk_l2[1]`, `grad_l2[1]`), reduced over the same
    cells.  The S1 budget's ||g 1_{f > C_k}|| in L2(Q_{k-1}) is summed in
    the same walk by one more `SliceIntegral` of the stored slices: g is
    sampled at each time cell's midpoint and the indicator taken on the
    cell's midpoint value of f.  S1 and that norm draw g from one sampler:
    the time cell before each stored slice is summed before the slice's
    S1 is formed, so the sampler sees its times in order and draws each
    time key of the walk once.
    """
    k = level.k
    if k < 1:
        raise ValueError(f"barrier sources require a pass of level k >= 1, got {k}")
    dyadic = DyadicLevel(k)
    win, source = level.window, level.source
    cells = win.grid
    times = win.times
    c = dyadic.truncation
    q_out = dyadic.outer_cylinder()
    sq = lambda v, _: np.square(v, out=v)
    s1_sq = SliceIntegral(win, sq, q_out)
    s2_sq = [SliceIntegral(win, sq, q_out) for _ in range(cells.dim)]
    g_ind_sq = None
    sample = _source_sampler(level)
    if source is not None:
        box, mask = q_out.space_box(cells)
        above = np.empty(mask.shape, dtype=bool)

        def g_ind_cell(f_mid, t):
            """g^2 1_{f > C_k} of a time cell, in its cell buffer: g at the
            cell's midpoint time, the indicator on f's midpoint value."""
            np.greater(f_mid, c, out=above)
            np.square(sample(t)[box], out=f_mid)
            f_mid *= above
            return f_mid

        g_ind_sq = SliceIntegral(win, g_ind_cell, q_out)
    eta_x, eta_v = dyadic.cutoffs(cells)
    eta_v_sq = eta_v**2
    initial = np.empty(cells.shape)
    barrier = BarrierSource(cells, float(times[0]), win.dt, win.n_slices - 1)
    walk = _barrier_slices(level, diffusion, sample)
    last = None
    for i in range(win.n_slices):
        if g_ind_sq is not None:
            # time cell i - 1, whose midpoint precedes t_i, before S1 at t_i
            g_ind_sq.add(i, win.values[i])
        fk, s1, s2 = next(walk)
        if i == 0:
            _cutoff_field(fk, eta_x, eta_v_sq, initial)
        s1_sq.add(i, s1)
        for comp, integral in zip(s2, s2_sq):
            integral.add(i, comp)
        if last is not None:
            # the step from slice i - 1 to slice i reads S1 and S2 between them
            barrier.set_step(i - 1, times[i - 1:i + 1], last, (s1, s2))
        last = (s1, s2)
    walk = last = fk = s1 = s2 = None
    initial = PhaseField(cells, float(times[0]), initial)

    s1_l2 = math.sqrt(s1_sq.value())
    s2_l2 = math.sqrt(sum(integral.value() for integral in s2_sq))
    fk_l2, grad_l2 = level.fk_l2[1], level.grad_l2[1]
    g_ind = 0.0 if g_ind_sq is None else math.sqrt(g_ind_sq.value())
    lam = diffusion.lam
    s2_budget = 2.0 ** (k + 3) * lam * fk_l2
    s2_actual = 2.0 * lam * dyadic.max_slope * fk_l2
    s1_budget = (g_ind + 2.0 ** (k + 2) * dyadic.outer_radius * fk_l2
                 + 2.0 ** (k + 3) * lam * grad_l2)
    return BarrierSourceReport(k, barrier, initial, s1_l2, s2_l2, fk_l2, grad_l2, g_ind,
                               s2_budget, s2_actual, s1_budget)


# ---------------------------------------------------------------------------
# iteration constants and kappa
# ---------------------------------------------------------------------------

@dataclass
class IterationConstants:
    """All constants of the nonlinear iteration, in one auditable bundle.

    With the Sobolev exponent 1/p = 1/2 - 1/(6N+3) and r = q, the
    recursion exponent is alpha = 1 + 1/(6N+3) - 2/q > 1, which requires
    q > 12N + 6 (q = inf is allowed and gives the cleanest numbers).
    K_S and C_N are configuration inputs (placeholder 1.0); `a_const` is
    the front factor of the summarized source/barrier bounds, placeholder
    1.0, with the explicit assembly recorded by `assembled_a`.
    """

    N: int
    lam: float
    gamma: float
    q: float = np.inf
    K_S: float = 1.0
    C_N: float = 1.0
    a_const: float = 1.0

    def __post_init__(self):
        if self.N not in (1, 2):
            raise ValueError(f"N must be 1 or 2, got {self.N}")
        if self.lam <= 1:
            raise ValueError("lam must exceed 1")
        if not self.q > 12 * self.N + 6:
            raise ValueError(f"q must exceed 12N+6 = {12 * self.N + 6}, got {self.q}")

    @property
    def p(self) -> float:
        return 1.0 / (0.5 - 1.0 / (6 * self.N + 3))

    @property
    def r(self) -> float:
        return self.q

    @property
    def alpha(self) -> float:
        return 1.0 + 1.0 / (6 * self.N + 3) - 2.0 / self.q

    @property
    def q_measure(self) -> float:
        """|Q[3/2]| in the ambient dimension."""
        return 1.5 * ball_volume(self.N, 1.5) ** 2

    @property
    def c_const(self) -> float:
        """c = 8(1 + 2 lam) + gamma |Q[3/2]|^(1/2), the U_0 budget."""
        return 8.0 * (1.0 + 2.0 * self.lam) + self.gamma * math.sqrt(self.q_measure)

    @property
    def b_sq(self) -> float:
        return self.a_const * self.a_const * (1.0 + (6.0 + 5.0 * self.lam) * self.C_N)

    @property
    def big_c(self) -> float:
        c = self.c_const
        c2q = 1.0 if np.isinf(self.q) else c ** (2.0 / self.q)
        return (12.0 * self.K_S * self.K_S * (1.0 + 2.0 * self.lam)
                * c ** (1.0 / (6 * self.N + 3)) * (1.0 + c2q) * self.b_sq
                + 3.0 * self.K_S * math.sqrt(1.0 + c2q)
                * math.sqrt(self.b_sq) * self.gamma)

    @property
    def rho(self) -> float:
        return 2.0**12 * (1.0 + self.big_c)

    def assembled_a(self) -> dict:
        """Explicit assembly of the front factor `a` from the coefficient
        bounds of the barrier-source / barrier-energy chain, recorded for
        audit: a^2 = max(sublinear coefficient, linear coefficient).  The
        powers are products, so a huge lam saturates them to inf."""
        lam = self.lam
        g_bar = self.gamma * math.sqrt(self.q_measure)
        coef_sublinear = 2.0 * (60.0 + 9.0 * lam) * g_bar * g_bar
        coef_linear = (144.0 * (27.0 + 24.0 * lam * lam * lam)
                       + 24.0 * (27.0 * lam + 24.0 * lam * lam * lam * lam)
                       + 16.0 * (27.0 + 16.0 * lam * lam * lam)
                       + 192.0 * lam * lam)
        return {
            "g_bar": g_bar,
            "coef_sublinear": coef_sublinear,
            "coef_linear": coef_linear,
            "a": math.sqrt(max(coef_sublinear, coef_linear)),
        }


def kappa_log10(constants: IterationConstants) -> float:
    """log10 of the smallness threshold

        kappa = min(1/2, rho^{-2 alpha/(alpha-1)^2} / c^2).

    Returned in log space: for N = 1, q = inf the exponent is exactly 180
    and kappa is far below the smallest positive float64.
    """
    alpha = constants.alpha
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    expo = 2.0 * alpha / (alpha - 1.0) ** 2
    log_branch = -expo * math.log10(constants.rho) - 2.0 * math.log10(constants.c_const)
    return min(math.log10(0.5), log_branch)


# ---------------------------------------------------------------------------
# the superlinear recursion
# ---------------------------------------------------------------------------

def recursion_audit(energies, constants: IterationConstants, c_fit: float | None = None):
    """Check U_k <= C 2^{6k} U_{k-2}^alpha for the computed energies.

    Margins are reported in log10; an entry passes when its `slack`, the
    margin with a 1e-9 roundoff tolerance, is nonnegative (or vacuously,
    when U_k = 0, with an infinite slack).  `c_fit` overrides the assembled
    constant C, e.g. with an empirically fitted value.
    """
    u = [float(x) for x in energies]
    if len(u) < 3:
        raise ValueError("recursion audit needs energies for k = 0..K with K >= 2")
    big_c = constants.big_c if c_fit is None else c_fit
    alpha = constants.alpha
    rows = []
    for k in range(2, len(u)):
        if u[k] <= 0.0:
            margin = math.inf
        elif u[k - 2] <= 0.0:
            margin = -math.inf
        else:
            margin = math.log10(big_c) + 6 * k * math.log10(2.0) \
                + alpha * math.log10(u[k - 2]) - math.log10(u[k])
        slack = margin + 1e-9
        rows.append({"k": k, "passed": slack >= 0.0, "vacuous": u[k] <= 0.0,
                     "log_margin": margin, "slack": slack})
    return rows


def exponent_sum_identity(alpha: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of sum_{j=0}^{k-1} alpha^j (k - j)
    = (alpha(alpha^k - 1) - k(alpha - 1)) / (alpha - 1)^2, in exact rationals."""
    alpha = Fraction(alpha)
    direct = sum((alpha**j) * (k - j) for j in range(k))
    closed = (alpha * (alpha**k - 1) - k * (alpha - 1)) / (alpha - 1) ** 2
    return direct, closed


def geometric_iteration(v0: float | None, rho: float, alpha: float, k_max: int,
                        v0_log10: float | None = None):
    """Iterate V_k = rho^k V_{k-1}^alpha in log10 and verify the closed-form
    envelope V_k <= (rho^{alpha/(alpha-1)^2} V_0)^{alpha^k} at every k.

    Pass `v0_log10` for starting values below float range (the decay
    threshold rho^{-alpha/(alpha-1)^2} is ~1e-325 already for rho = 2^12,
    alpha = 10/9)."""
    if rho <= 1.0 or alpha <= 1.0:
        raise ValueError("geometric iteration needs rho > 1 and alpha > 1")
    if v0_log10 is None:
        if v0 <= 0.0:
            return {"log10_v": [-math.inf] * (k_max + 1), "log10_bound": None,
                    "envelope_ok": True, "threshold_log10": None, "decays": True}
        v0_log10 = math.log10(v0)
    log_rho = math.log10(rho)
    log_v = [v0_log10]
    for k in range(1, k_max + 1):
        log_v.append(k * log_rho + alpha * log_v[-1])
    base = alpha / (alpha - 1.0) ** 2 * log_rho + log_v[0]
    bounds = [base * alpha**k for k in range(k_max + 1)]
    envelope_ok = all(lv <= b + 1e-9 * max(1.0, abs(b))
                      for lv, b in zip(log_v[1:], bounds[1:]))
    threshold = -alpha / (alpha - 1.0) ** 2 * log_rho
    return {
        "log10_v": log_v,
        "log10_bound": bounds,
        "envelope_ok": envelope_ok,
        "threshold_log10": threshold,
        "decays": log_v[0] < threshold,
    }


# ---------------------------------------------------------------------------
# the L-infinity gate
# ---------------------------------------------------------------------------

@dataclass
class GateReport:
    premise_log10: float
    kappa_log10: float
    premise_holds: bool
    conclusion_sup: float
    conclusion_slack: float      # 1/2 + roundoff - sup; -inf with no node
    resolution_limited: bool

    @property
    def conclusion_holds(self) -> bool:
        return self.conclusion_slack >= 0.0

    @property
    def implication_holds(self) -> bool:
        return (not self.premise_holds) or self.conclusion_holds

    @property
    def margin(self) -> float:
        """The conclusion's slack when the premise holds; nan when it does
        not, and the implication holds without a check."""
        return self.conclusion_slack if self.premise_holds else math.nan


# the gate's conclusion bound 1/2, with its roundoff slack
_CONCLUSION_BOUND = 0.5 + 1e-12


def _premise_log10(traj: Trajectory, region, slices=None) -> float:
    """log10 int_region f_+^2 (-inf when the integral is 0) of the stored
    slices of `traj`, or of `slices`, the stored slices of a run on its
    cells and times, fed one at a time."""
    integral = SliceIntegral(traj, _positive_sq, region)
    for i, values in enumerate(traj.values if slices is None else slices):
        integral.add(i, values)
    value = integral.value()
    return math.log10(value) if value > 0 else -math.inf


def _positive_sq(f, _):
    """f_+^2, in place, of a time cell's midpoint values."""
    return np.square(np.maximum(f, 0.0, out=f), out=f)


def _conclusion_cylinder(traj: Trajectory, r: float):
    """(Q[r], False), or (the smallest node-resolving cylinder, True) when
    Q[r] is below grid resolution."""
    grid = traj.grid
    min_r = max(1.5 * grid.dx, 1.5 * grid.dv, 1.5 * traj.dt)
    if r < min_r:
        return make_cylinder(min_r), True
    return make_cylinder(r), False


def linfty_gate(traj: Trajectory, kappa_log: float, zoomed: bool = False,
                omega: float | None = None) -> GateReport:
    """Check the smallness gate: int f_+^2 over the premise cylinder below
    kappa implies f <= 1/2 on the conclusion cylinder.

    Plain form: premise Q[3/2], conclusion Q[1/2].  Zoomed form: premise
    Q[omega/2], conclusion Q[omega^3/54]; when the conclusion cylinder is
    below grid resolution the smallest node-resolving cylinder is used and
    flagged.
    """
    if zoomed:
        if omega is None:
            raise ValueError("zoomed gate requires omega")
        premise_region = make_cylinder(omega / 2.0)
        conclusion_r = omega**3 / 54.0
    else:
        premise_region = make_cylinder(1.5)
        conclusion_r = 0.5
    premise_log = _premise_log10(traj, premise_region)
    region, resolution_limited = _conclusion_cylinder(traj, conclusion_r)
    _, sup, count = cylinder_node_extrema(traj, region)
    slack = _CONCLUSION_BOUND - sup if count > 0 else -math.inf
    return GateReport(premise_log, kappa_log, premise_log < kappa_log, sup,
                      slack, resolution_limited)


def empirical_kappa(traj: Trajectory, unit: Trajectory, a0: float):
    """The empirical threshold of the plain gate over the initial amplitude:
    (log10 kappa_emp, a*), with a* the largest amplitude whose run still
    satisfies the gate's conclusion and kappa_emp the premise integral of
    that run.

    The scheme is affine in the initial data, so the run from amplitude a
    is traj + (a - a0) unit, where `traj` is the run from a0 and `unit` the
    source-free run from amplitude 1.  On each conclusion node n the
    conclusion T_n + (a - a0) U_n <= 1/2 is affine in a, so the passing
    amplitudes form an interval, and its upper end is

        a* = a0 + min over U_n > 0 of (1/2 - T_n) / U_n.

    (-inf, -inf) when the conclusion fails already at amplitude 1e-3;
    (inf, inf) when no conclusion node has U_n > 0.  The assembled
    threshold is sufficient, never necessary, so kappa_log10 <= kappa_emp
    is the expected outcome.

    The premise integral of the run from a* streams: its stored slices
    traj_i + (a* - a0) unit_i are formed one at a time in one slice buffer
    and fed to the integral's `geometry.SliceIntegral`.
    """
    region, _ = _conclusion_cylinder(traj, 0.5)
    t_n = cylinder_nodes(traj, region)
    u_n = cylinder_nodes(unit, region)
    if t_n.size == 0 or np.max(t_n + (1e-3 - a0) * u_n) > _CONCLUSION_BOUND:
        return -math.inf, -math.inf
    rising = u_n > 0
    if not rising.any():
        return math.inf, math.inf
    amp = a0 + float(np.min((_CONCLUSION_BOUND - t_n[rising]) / u_n[rising]))
    return _premise_log10(traj, make_cylinder(1.5), _superposed(traj, unit, amp - a0)), amp


def _superposed(traj: Trajectory, unit: Trajectory, scale: float):
    """The stored slices traj_i + scale unit_i, one at a time, each written
    into one slice buffer (valid until the next)."""
    out = np.empty(traj.grid.shape)
    for f, u in zip(traj.values, unit.values):
        np.multiply(u, scale, out=out)
        out += f
        yield out
