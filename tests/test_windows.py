"""Level-window audits against the whole-grid versions they replaced.

The references below are the full-grid forms of `cylinder_integral`,
`truncation_energy`, `build_barrier_sources` and `local_energy_check`:
they sweep every stored slice and every cell of the phase box, and take
their v differences with `np.diff` here, on the scheme's faces.  The
windowed audits must agree with them to 1e-12 relative, and the barrier
sources cell for cell, on N = 1 and N = 2 grids of odd and even size, at
an amplitude whose truncations (and so the barrier fields) are non-zero.
"""

import collections
import math
import warnings

import numpy as np
import pytest

from kfplab import averaging, solver
from kfplab.coefficients import DiffusionField, KeyedSampler, SourceField, build_diffusion, \
    build_source
from kfplab.config import parse_config
from kfplab.degiorgi import LOCAL_ENERGY_LEVELS, BarrierSource, LevelPass, _barrier_slices, \
    build_barrier_sources, chebyshev_audit, truncate, truncation_energy
from kfplab.fields import PhaseField, Trajectory
from kfplab.geometry import (
    Cylinder,
    DyadicLevel,
    GridWindow,
    PhaseGrid,
    SliceIntegral,
    cylinder_integral,
    cylinder_node_extrema,
    dyadic_time,
    face_divergence,
    grad_v_sq_density,
    hat_cylinder,
    level_set_measure,
    make_cylinder,
    time_quadrature_weights,
)
from kfplab.pipeline import build_coefficient, build_grid, build_source_field, \
    solve_initial
from kfplab.solver import WHOLE_SPACE, kinetic_ibvp, local_energy_check, solve

REL = 1e-12


# --- whole-grid references ------------------------------------------------------

def _to_cells(faces, axis):
    """Half of each interior face value onto each of its two cells."""
    pad_lo = [(0, 0)] * faces.ndim
    pad_hi = list(pad_lo)
    pad_lo[axis], pad_hi[axis] = (0, 1), (1, 0)
    return 0.5 * np.pad(faces, pad_lo) + 0.5 * np.pad(faces, pad_hi)


def _face_diff(grid, values, ax):
    return np.diff(values, axis=values.ndim - grid.dim + ax) / grid.dv


def _grad_sq_cells(grid, values):
    """|grad_v|^2 per cell: the squared face differences onto the cells."""
    out = np.zeros(values.shape)
    for ax in range(grid.dim):
        out += _to_cells(_face_diff(grid, values, ax) ** 2,
                         values.ndim - grid.dim + ax)
    return out


def _grad_sq_reference(traj):
    return Trajectory(traj.grid, traj.times.copy(), _grad_sq_cells(traj.grid, traj.values))


def _cells_reference(traj, region):
    mid = 0.5 * (traj.times[:-1] + traj.times[1:])
    idx = np.nonzero(region.contains_time(mid))[0]
    vals = 0.5 * (traj.values[idx] + traj.values[idx + 1])
    return vals, region.space_mask(traj.grid), idx.size


def _cylinder_integral_reference(traj, func, region):
    vals, mask, n_cells = _cells_reference(traj, region)
    if n_cells == 0:
        return 0.0
    dt_cell = float(traj.times[1] - traj.times[0])
    return float(np.sum(func(vals) * mask)) * dt_cell * traj.grid.cell_volume


def _level_set_measure_reference(traj, predicate, region):
    vals, mask, n_cells = _cells_reference(traj, region)
    if n_cells == 0:
        return 0.0
    dt_cell = float(traj.times[1] - traj.times[0])
    return int(np.count_nonzero(predicate(vals) & mask)) * dt_cell * traj.grid.cell_volume


def _truncation_energy_reference(traj, k, lam):
    grid = traj.grid
    level = DyadicLevel(k)
    eta_x = grid.expand_x(level.eta(grid.rho_x))
    eta_v = grid.expand_v(level.eta(grid.rho_v))
    c = level.truncation
    cv = grid.cell_volume
    w = time_quadrature_weights(traj.times, level.t_start, 0.0)
    sup_term = 0.0
    dissipation = 0.0
    for i in np.nonzero((traj.times >= level.t_start - 1e-12))[0]:
        fk = np.maximum(traj.values[i] - c, 0.0)
        sup_term = max(sup_term, 0.5 * float(np.sum(eta_x * eta_v**2 * fk**2)) * cv)
        if w[i] > 0.0:
            gsq = _grad_sq_cells(grid, eta_v * fk)
            dissipation += float(w[i]) * float(np.sum(eta_x * gsq)) * cv
    fk_traj = truncate(traj, k)
    gk_traj = _grad_sq_reference(fk_traj)
    q_in = level.cylinder()
    q_out = level.outer_cylinder()
    sq = lambda v: v**2
    ident = lambda v: v
    return {
        "energy": sup_term + dissipation / lam,
        "sup_term": sup_term,
        "dissipation_term": dissipation / lam,
        "level_set": _level_set_measure_reference(traj, lambda f: f > c, q_out),
        "fk_l2_inner": math.sqrt(_cylinder_integral_reference(fk_traj, sq, q_in)),
        "fk_l2_outer": math.sqrt(_cylinder_integral_reference(fk_traj, sq, q_out)),
        "grad_l2_inner": math.sqrt(_cylinder_integral_reference(gk_traj, ident, q_in)),
        "grad_l2_outer": math.sqrt(_cylinder_integral_reference(gk_traj, ident, q_out)),
    }


def _build_barrier_sources_reference(traj, k, diffusion, source):
    grid = traj.grid
    level = DyadicLevel(k)
    c = level.truncation
    eta_x = grid.expand_x(level.eta(grid.rho_x))
    eta_v = grid.expand_v(level.eta(grid.rho_v))
    rho_v_safe = np.where(grid.rho_v > 0, grid.rho_v, 1.0)
    slope_v = level.eta_slope(grid.rho_v)
    vdot = level.v_dot_grad_eta_x(grid)
    grad_eta_v = [grid.expand_v(slope_v * grid.axis_coord("v", ax) / rho_v_safe)
                  for ax in range(grid.dim)]
    n = traj.n_slices
    s1_vals = np.zeros((n,) + grid.shape)
    s2_vals = [np.zeros((n,) + grid.shape) for _ in range(grid.dim)]
    xs, vs = grid.coords()
    for i in range(n):
        t = float(traj.times[i])
        f = traj.values[i]
        fk = np.maximum(f - c, 0.0)
        ind = f > c
        a_diag = tuple(np.broadcast_to(a, grid.shape)
                       for a in diffusion.diagonal(t, xs, vs))
        g = source.sample(grid, t) if source is not None else 0.0
        cross = np.zeros(grid.shape)
        for ax in range(grid.dim):
            dfk = _to_cells(_face_diff(grid, fk, ax), grid.dim + ax)
            cross += a_diag[ax] * dfk * grad_eta_v[ax]
            s2_vals[ax][i] = -2.0 * eta_x * eta_v * fk * a_diag[ax] * grad_eta_v[ax]
        s1_vals[i] = (g * ind * eta_x * eta_v**2
                      + fk * eta_v**2 * vdot
                      - 2.0 * eta_x * eta_v * cross)
    s1 = Trajectory(grid, traj.times.copy(), s1_vals)
    s2 = tuple(Trajectory(grid, traj.times.copy(), sv) for sv in s2_vals)
    q_out = level.outer_cylinder()
    sq = lambda v: v**2
    fk_traj = truncate(traj, k)
    g_ind = 0.0
    if source is not None:
        mids = 0.5 * (traj.times[:-1] + traj.times[1:])
        mask = q_out.space_mask(grid)
        dt_cell = float(traj.times[1] - traj.times[0])
        for i in np.nonzero(q_out.contains_time(mids))[0]:
            f_mid = 0.5 * (traj.values[i] + traj.values[i + 1])
            g = source.sample(grid, float(mids[i]))
            g_ind += float(np.sum((g**2) * (f_mid > c) * mask)) * dt_cell * grid.cell_volume
    return {
        "s1": s1,
        "s2": s2,
        "s1_l2": math.sqrt(_cylinder_integral_reference(s1, sq, q_out)),
        "s2_l2": math.sqrt(sum(_cylinder_integral_reference(comp, sq, q_out)
                               for comp in s2)),
        "fk_l2": math.sqrt(_cylinder_integral_reference(fk_traj, sq, q_out)),
        "grad_fk_l2": math.sqrt(_cylinder_integral_reference(
            _grad_sq_reference(fk_traj), lambda v: v, q_out)),
        "g_ind_l2": math.sqrt(g_ind),
    }


class _BarrierSourceReference:
    """The barrier source as the barrier solve sampled it before it kept
    only its increments: S1 + div_v S2 at any t, interpolated in time from
    whole S1 and S2 trajectories, which the step plan multiplies by dt at
    each step's midpoint (time key t: sampled at every step)."""

    def __init__(self, s1, s2):
        self.s1 = s1
        self.s2 = tuple(s2)

    def time_key(self, t):
        return t

    def sample(self, grid, t):
        out = self.s1.at_time(t).copy()
        for ax, comp in enumerate(self.s2):
            out += face_divergence(grid, comp.at_time(t), ax)
        return out

    def increments_for(self, grid, dt):
        return KeyedSampler(self, lambda t: dt * self.sample(grid, t))


def _barrier_reference(s1, s2, diffusion, k, initial, interp):
    """The level-k barrier solved with `_BarrierSourceReference`."""
    dt = float(s1.times[1] - s1.times[0])
    return solve(initial, diffusion, _BarrierSourceReference(s1, s2), 0.0,
                 kinetic_ibvp(DyadicLevel(k).outer_radius), dt=dt, interp=interp)


def _local_energy_check_reference(traj, k, c, lam, s, t, source=None):
    """(residual, scale): the residual rhs - lhs and the largest of its
    six terms, the scale its roundoff is relative to."""
    grid = traj.grid
    level = DyadicLevel(k)
    eta_x = level.eta(grid.rho_x)
    eta_v = level.eta(grid.rho_v)
    eta_v_slope = level.eta_slope(grid.rho_v)
    wx = grid.expand_x(eta_x)
    wv = grid.expand_v(eta_v)
    cv = grid.cell_volume
    vdot = level.v_dot_grad_eta_x(grid)

    def positive_part(i):
        return np.maximum(traj.values[i] - c, 0.0)

    i_s = traj.slice_index(s)
    i_t = traj.slice_index(t)
    energy_t = 0.5 * float(np.sum(wx * wv**2 * positive_part(i_t) ** 2)) * cv
    energy_s = 0.5 * float(np.sum(wx * wv**2 * positive_part(i_s) ** 2)) * cv
    w_time = time_quadrature_weights(traj.times, s, t)
    dissip = grad_pen = transport = source_term = 0.0
    for i in np.nonzero(w_time)[0]:
        w = float(w_time[i])
        fk = positive_part(i)
        gsq = _grad_sq_cells(grid, grid.expand_v(eta_v) * fk)
        dissip += w * float(np.sum(wx * gsq)) * cv
        grad_pen += w * float(np.sum(wx * fk**2 * grid.expand_v(eta_v_slope) ** 2)) * cv
        transport += w * 0.5 * float(np.sum(wv**2 * fk**2 * vdot)) * cv
        if source is not None:
            g = source.sample(grid, float(traj.times[i]))
            source_term += w * float(np.sum(g * fk * wx * wv**2)) * cv
    terms = (energy_t, dissip / lam, energy_s, lam * grad_pen, transport, source_term)
    residual = energy_s + lam * grad_pen + transport + source_term - (energy_t + dissip / lam)
    return residual, max(abs(x) for x in terms)


# --- runs with non-zero truncations ---------------------------------------------

# (dim, n_t, n_x, v_max, n_v): N = 1 at 24^2 and 64^2, N = 2 at 13^4 and 18^4,
# and an N = 1 grid whose v box ends just past |v| = R_0 = 1, so that the
# level-1 window's extra v cell lands on the grid edge and the level-0
# window's is clipped there
GRIDS = {
    "24": (1, 24, 24, 1.5, 24),
    "64": (1, 48, 64, 1.5, 64),
    "13x4": (2, 12, 13, 1.5, 13),
    "18x4": (2, 18, 18, 1.5, 18),
    "clip": (1, 24, 23, 1.05, 21),
}


def _initial(grid, amplitude):
    def fn(*coords):
        xs, vs = coords[:grid.dim], coords[grid.dim:]
        out = amplitude * np.ones(())
        for x in xs:
            out = out * (0.6 + 0.4 * np.cos(np.pi * x / 1.5))
        for v in vs:
            out = out * np.exp(-v * v / 0.5)
        return out
    return PhaseField.from_function(grid, grid.t_span[0], fn)


@pytest.fixture(scope="module", params=sorted(GRIDS))
def run(request):
    dim, n_t, n_x, v_max, n_v = GRIDS[request.param]
    grid = PhaseGrid(dim, (-1.5, 0.0), n_t, 1.5, n_x, v_max, n_v)
    diffusion = build_diffusion(dim, 2.0, "cellwise_random", seed=3,
                                low=0.6, high=1.6, cell=0.25)
    source = build_source(dim, "noise", bound=0.3, seed=5, cell=0.25)
    traj = solve(_initial(grid, 3.0), diffusion, source, 0.0, WHOLE_SPACE)
    return {"name": request.param, "traj": traj, "diffusion": diffusion,
            "source": source, "lam": 2.0}


def _close(got, expected, scale=None):
    scale = max(abs(expected), abs(got)) if scale is None else scale
    return abs(got - expected) <= REL * scale


# --- the window itself ----------------------------------------------------------------

def test_window_is_a_read_only_view_with_sliced_arrays(run):
    traj = run["traj"]
    grid = traj.grid
    for k in range(4):
        level = DyadicLevel(k)
        win = traj.window(dyadic_time(k - 1), level.outer_radius)
        cells = win.grid
        assert isinstance(cells, GridWindow)
        assert np.shares_memory(win.values, traj.values)
        assert not win.values.flags.writeable
        with pytest.raises(ValueError):
            win.values[0] = 0.0
        assert traj.values.flags.writeable
        # first slice: the last stored one at or before T_{k-1}
        i0 = np.nonzero(traj.times <= dyadic_time(k - 1))[0]
        i0 = i0[-1] if i0.size else 0
        assert np.array_equal(win.times, traj.times[i0:])
        assert np.array_equal(win.values, traj.values[(slice(i0, None),) + cells.box])
        assert np.array_equal(cells.rho_x, grid.rho_x[cells.box[:grid.dim]])
        assert np.array_equal(cells.rho_v, grid.rho_v[cells.box[grid.dim:]])
        assert np.array_equal(cells.x_centers, grid.x_centers[cells.box[0]])
        assert np.array_equal(cells.v_centers, grid.v_centers[cells.box[-1]])
        # every cell of the level's outer ball is inside the window
        in_ball = level.outer_cylinder().space_mask(grid)
        outside = in_ball.copy()
        outside[cells.box] = False
        assert in_ball.any() and not outside.any()


def test_window_margin_clips_at_grid_edge():
    grid = PhaseGrid(1, (-1.5, 0.0), 24, 1.5, 23, 1.05, 21)
    cells = GridWindow(grid, DyadicLevel(1).outer_radius)
    xs, vs = cells.box
    assert (xs.start, xs.stop) == (4, 19)          # |x| < 1 on 23 cells of 3/23
    assert (vs.start, vs.stop) == (0, grid.n_v)    # |v| < 1 on cells 1..19, +1 cell
    # |v| < 3/2 holds every cell, so the margin cell is clipped
    assert GridWindow(grid, DyadicLevel(0).outer_radius).box[1] == slice(0, grid.n_v)
    # at k = 0 on the default box the window is the whole grid
    whole = GridWindow(PhaseGrid(2, (-1.5, 0.0), 12, 1.5, 13, 1.5, 13),
                       DyadicLevel(0).outer_radius)
    assert whole.box == (slice(0, 13),) * 4


# --- the audits against their references --------------------------------------------

def test_cylinder_integral_matches_reference(run):
    """Every entry to the one midpoint-cell reducer against the whole-array
    references: one region, and `SliceIntegral` fed one stored slice at a
    time.  Measures are counts, so equal."""
    traj = run["traj"]
    regions = [make_cylinder(DyadicLevel(k).outer_radius) for k in range(4)]
    regions += [make_cylinder(0.125), hat_cylinder(),
                Cylinder(-0.9, -0.2, 0.7)]
    funcs = [lambda f: f**2, lambda f: np.maximum(f - 0.25, 0.0) ** 2, np.abs]
    for region in regions:
        for func in funcs:
            expected = _cylinder_integral_reference(traj, func, region)
            assert _close(cylinder_integral(traj, func, region), expected), region
            streamed = SliceIntegral(traj, func, region)
            for i, values in enumerate(traj.values):
                streamed.add(i, values)
            assert _close(streamed.value(), expected), region
        for level in (0.25, 0.5, 1.0):
            pred = lambda f: f > level
            assert level_set_measure(traj, pred, region) \
                == _level_set_measure_reference(traj, pred, region)
        times = region.contains_time(traj.times)
        mask = region.space_mask(traj.grid)
        if times.any() and mask.any():
            vals = traj.values[times][:, mask]
            assert cylinder_node_extrema(traj, region) == (
                float(vals.min()), float(vals.max()), int(vals.size))


def _level_pass(traj, k, laid_out, source=None):
    """`LevelPass` of level k of `traj` laid out by `laid_out`, whose
    reducers and cutoff sums are those of the pass of `traj` as solved,
    bit for bit."""
    laid = laid_out(traj)
    level = LevelPass(laid, k, source)
    if laid is not traj:
        solved = LevelPass(traj, k, source)
        assert (level.fk_l2, level.grad_l2, level.level_set, level.prev_sq) \
            == (solved.fk_l2, solved.grad_l2, solved.level_set, solved.prev_sq), k
        slices = range(level.first, level.window.n_slices)
        assert level.cutoff_sums(slices) == solved.cutoff_sums(slices), k
    return level


def _pass_reducers_match_window_maps(level, source):
    """Each reducer of the pass against the same reducer of whole-array maps
    of its window, and the cutoff sums against each slice's on the window:
    bit for bit."""
    k, win = level.k, level.window
    cells = win.grid
    lvl = DyadicLevel(k)
    c = lvl.truncation
    fk = win.map_values(lambda v: np.maximum(v - c, 0.0))
    gk = fk.map_values(lambda v: grad_v_sq_density(cells, v))
    regions = (lvl.cylinder(), lvl.outer_cylinder())
    assert level.fk_l2 == tuple(math.sqrt(cylinder_integral(fk, lambda v: v**2, q))
                                for q in regions)
    assert level.grad_l2 == tuple(math.sqrt(cylinder_integral(gk, lambda v: v, q))
                                  for q in regions)
    assert level.level_set == level_set_measure(win, lambda f: f > c, regions[1])
    if k >= 1:
        c_prev = DyadicLevel(k - 1).truncation
        assert level.prev_sq == cylinder_integral(
            win, lambda f: np.maximum(f - c_prev, 0.0) ** 2, regions[1])
    eta_x = cells.expand_x(lvl.eta(cells.rho_x))
    eta_v = cells.expand_v(lvl.eta(cells.rho_v))
    slope_sq = cells.expand_v(lvl.eta_slope(cells.rho_v)) ** 2
    vdot = lvl.v_dot_grad_eta_x(cells)
    slices = range(level.first, win.n_slices)
    for i, sums in level.cutoff_sums(slices).items():
        # the pass sums each slice's integrands in C-ordered buffers
        f = np.ascontiguousarray(fk.values[i])
        g = 0.0 if source is None else float(np.sum(
            source.sample(cells, float(win.times[i])) * f * eta_x * eta_v**2))
        expected = (float(np.sum(eta_x * eta_v**2 * f**2)),
                    float(np.sum(eta_x * grad_v_sq_density(cells, eta_v * f))),
                    float(np.sum(eta_x * f**2 * slope_sq)),
                    float(np.sum(eta_v**2 * f**2 * vdot)), g)
        # the slope, drift and source-work sums only on the local energy levels
        assert sums == expected[:5 if k in LOCAL_ENERGY_LEVELS else 2], (k, i)
    assert win.times[level.first] <= lvl.t_start < win.times[level.first + 1]


def test_truncation_energy_matches_reference(run, laid_out):
    traj, lam, source = run["traj"], run["lam"], run["source"]
    for k in range(4):
        level = _level_pass(traj, k, laid_out, source)
        _pass_reducers_match_window_maps(level, source)
        got = truncation_energy(level, lam)
        expected = _truncation_energy_reference(traj, k, lam)
        assert got.level_set == expected["level_set"]
        for name, value in expected.items():
            assert _close(getattr(got, name), value), (k, name)
    assert truncation_energy(LevelPass(traj, 1), lam).energy > 0.0


def test_chebyshev_counts_the_truncation_level_set(laid_out):
    # N = 2, 18^4 cells, n_t = 18: the slice spacing 1/12 is not a binary
    # fraction, so times[1] - times[0] of the whole trajectory and of a level
    # window differ in the last bits; the audit takes {f_k > 0} in Q_{k-1}
    # and its integral from the level's pass, which sums them on the window
    cfg = parse_config("grid.dim = 2\ngrid.n_t = 18\ngrid.n_x = 18\ngrid.n_v = 18\n"
                       "diagnostics.omega = 0.25\ncoeff.kind = cellwise_random\n"
                       "initial.kind = bump\ninitial.amplitude = 3.0\n"
                       "source.kind = bump\nsource.bound = 1.0\nrun.seed = 2\n")
    grid = build_grid(cfg)
    traj = solve_initial(cfg, grid, build_coefficient(cfg), build_source_field(cfg))
    measures = []
    for k in range(1, 5):
        level = DyadicLevel(k)
        window = traj.window(dyadic_time(k - 1), level.outer_radius)
        rep = chebyshev_audit(_level_pass(traj, k, laid_out))
        recount = level_set_measure(window, lambda f: f > level.truncation,
                                    level.outer_cylinder())
        c_prev = DyadicLevel(k - 1).truncation
        integral = cylinder_integral(window, lambda f: np.maximum(f - c_prev, 0.0) ** 2,
                                     level.outer_cylinder())
        assert rep.measure == recount
        assert rep.integral == integral
        assert rep.margin >= 0.0
        measures.append(rep.measure)
    assert max(measures) > 0.0


@pytest.mark.parametrize("with_source", [True, False])
def test_barrier_sources_match_reference(run, with_source):
    traj, diffusion = run["traj"], run["diffusion"]
    source = run["source"] if with_source else None
    for k in (1, 2):
        level = LevelPass(traj, k, source)
        got = build_barrier_sources(level, diffusion)
        expected = _build_barrier_sources_reference(traj, k, diffusion, source)
        cells = got.fk.grid
        assert cells.box == GridWindow(traj.grid, DyadicLevel(k).outer_radius).box
        # the sources start at the slice at T_{k-1}, where the barrier does,
        # on the pass's own window
        i0 = traj.slice_index(dyadic_time(k - 1))
        assert cells is level.window.grid
        assert np.array_equal(got.fk.times, traj.times[i0:])
        assert got.source.t_start == traj.times[i0]
        assert got.source.increments.shape == (traj.n_slices - i0 - 1,) + cells.shape
        slices = list(_barrier_slices(level, diffusion))
        assert len(slices) == traj.n_slices - i0
        for j, ref in enumerate((expected["s1"],) + expected["s2"]):
            # the whole-grid reference is exactly zero outside the window's box
            outside = ref.values.copy()
            outside[(slice(None),) + cells.box] = 0.0
            assert not outside.any(), k
            for i, (_, s1, s2) in enumerate(slices):
                assert np.array_equal(((s1,) + s2)[j],
                                      ref.values[i0 + i][cells.box]), (k, i)
        # each step's increment is the one the barrier solve sampled from whole
        # window trajectories of S1 and S2
        cut = lambda ref: Trajectory(cells, traj.times[i0:].copy(),
                                     ref.values[i0:][(slice(None),) + cells.box])
        sampled = _BarrierSourceReference(cut(expected["s1"]),
                                          [cut(c) for c in expected["s2"]])
        dt = got.source.dt
        for n, inc in enumerate(got.source.increments):
            t_mid = float(traj.times[i0]) + n * dt + 0.5 * dt
            assert np.array_equal(inc, dt * sampled.sample(cells, t_mid)), (k, n)
        for name in ("s1_l2", "s2_l2", "fk_l2", "grad_fk_l2", "g_ind_l2"):
            assert _close(getattr(got, name), expected[name]), (k, name)
        if not with_source:
            assert got.g_ind_l2 == 0.0
    assert build_barrier_sources(LevelPass(traj, 1, source), diffusion).s1_l2 > 0.0


@pytest.mark.parametrize("with_source", [True, False])
def test_local_energy_check_matches_reference(run, with_source, laid_out):
    traj, lam = run["traj"], run["lam"]
    source = run["source"] if with_source else None
    scales = []
    for k in (1, 2, 3):
        c = DyadicLevel(k).truncation
        t_k = dyadic_time(k)
        level = _level_pass(traj, k, laid_out, source)
        for s, t in ((t_k, 0.0), (t_k, 0.5 * t_k), (0.5 * t_k, 0.0)):
            got = local_energy_check(level, lam, s, t)
            expected, scale = _local_energy_check_reference(traj, k, c, lam, s, t, source)
            assert _close(got, expected, scale), (k, s, t)
            scales.append(scale)
        # the pass sums the cutoffs from the last slice at or before T_k on
        if level.first > 0:
            with pytest.raises(ValueError, match="before T_"):
                local_energy_check(level, lam, float(level.window.times[level.first - 1]), 0.0)
    assert max(scales) > 0.0


def test_each_window_slice_is_truncated_once_per_level(run, monkeypatch):
    """The level pass and every audit that reads it (U_k, Chebyshev, the
    local energy inequality) form f_k = (f - C_k)_+ of each stored slice of
    the level window once: every np.maximum call is counted against the
    slices it truncates, whole arrays of slices included."""
    traj, lam, source = run["traj"], run["lam"], run["source"]
    maximum = np.maximum
    for k in range(5):
        lvl = DyadicLevel(k)
        win = traj.window(dyadic_time(k - 1), lvl.outer_radius)
        shape = win.grid.shape
        wanted = {(f - lvl.truncation).tobytes() for f in win.values}
        assert len(wanted) == win.n_slices
        seen = collections.Counter()

        def counting(a, *args, **kwargs):
            a = np.asarray(a)
            if a.shape[a.ndim - len(shape):] == shape:
                seen.update(piece.tobytes() for piece in a.reshape((-1,) + shape))
            return maximum(a, *args, **kwargs)

        monkeypatch.setattr(np, "maximum", counting)
        level = LevelPass(traj, k, source)
        truncation_energy(level, lam)
        if k >= 1:
            chebyshev_audit(level)
        if k in (1, 2, 3):
            local_energy_check(level, lam, lvl.t_start, 0.0)
        monkeypatch.undo()
        assert [seen[key] for key in wanted] == [1] * win.n_slices, k


# --- keyed diagnostic sampling ----------------------------------------------------------

def test_diagnostics_sample_once_per_time_key(monkeypatch):
    grid = PhaseGrid(1, (-1.5, 0.0), 24, 1.5, 24, 1.5, 24)
    diffusion = build_diffusion(1, 2.0, "cellwise_random", seed=3,
                                low=0.6, high=1.6, cell=0.25)
    source = build_source(1, "noise", bound=0.3, seed=5, cell=0.25)
    traj = solve(_initial(grid, 3.0), diffusion, source, 0.0, WHOLE_SPACE)
    calls = {"sample": [], "diagonal": []}
    # the time is sample(grid, t)'s second argument and diagonal(t, xs, vs)'s first
    for cls, name, t_arg in ((SourceField, "sample", 1), (DiffusionField, "diagonal", 0)):
        original = getattr(cls, name)

        def counted(self, *args, _original=original, _name=name, _t=t_arg):
            calls[_name].append(self.time_key(args[_t]))
            return _original(self, *args)
        monkeypatch.setattr(cls, name, counted)

    def distinct(keys):
        return sum(1 for i, key in enumerate(keys) if i == 0 or key != keys[i - 1])

    level = LevelPass(traj, 1, source)
    for audit in (lambda: solver.energy_budget(traj, source, 2.0),
                  lambda: local_energy_check(LevelPass(traj, 1, source), 2.0, -0.75, 0.0),
                  lambda: build_barrier_sources(level, diffusion)):
        calls["sample"].clear()
        calls["diagonal"].clear()
        audit()
        for keys in calls.values():
            # one draw per run of equal keys, and fewer draws than slices
            assert len(keys) == distinct(keys)
        assert 0 < len(calls["sample"]) < traj.n_slices
    # build_barrier_sources: diagonal per slice key, source per slice and per cell mid
    assert 0 < len(calls["diagonal"]) < traj.n_slices


# --- the barrier stage on the window ---------------------------------------------------

def _from_slice(traj, i0):
    return Trajectory(traj.grid, traj.times[i0:].copy(), traj.values[i0:])


def _embed(traj, parent):
    """A window trajectory zero-extended to its parent grid."""
    values = np.zeros((traj.n_slices,) + parent.shape)
    values[(slice(None),) + traj.grid.box] = traj.values
    return Trajectory(parent, traj.times.copy(), values)


def _cutoff_field(traj, k):
    """F_k = (f - C_k)_+ eta_k(x) eta_k(v)^2 on the trajectory's own cells."""
    cells = traj.grid
    level = DyadicLevel(k)
    return Trajectory(cells, traj.times.copy(),
                      np.maximum(traj.values - level.truncation, 0.0)
                      * cells.expand_x(level.eta(cells.rho_x))
                      * cells.expand_v(level.eta(cells.rho_v)) ** 2)


@pytest.mark.parametrize("interp", ["linear", "cubic"])
def test_barrier_solve_on_window_matches_whole_grid(run, interp):
    traj, diffusion, source = run["traj"], run["diffusion"], run["source"]
    grid = traj.grid
    for k in (1, 2):
        i0 = traj.slice_index(dyadic_time(k - 1))
        rep = build_barrier_sources(LevelPass(traj, k, source), diffusion)
        cells = rep.fk.grid
        window = traj.window(rep.fk.t_start, DyadicLevel(k).outer_radius)
        f_win = _cutoff_field(window, k)
        f_whole = _cutoff_field(_from_slice(traj, i0), k)
        assert np.array_equal(f_win.values, f_whole.values[(slice(None),) + cells.box])
        assert np.array_equal(_embed(f_win, grid).values, f_whole.values)
        assert f_whole.values.max() > 0.0
        # the report's F_k is the same field on the same cells and times
        assert rep.fk.grid.box == cells.box
        assert np.array_equal(rep.fk.times, f_whole.times)
        assert np.array_equal(rep.fk.values, f_whole.values[(slice(None),) + cells.box])

        g_win = solver.solve_barrier_ibvp(rep.source, diffusion, k, interp=interp,
                                          initial=f_win.field(0))
        shape = (traj.n_slices - i0,) + cells.shape
        assert rep.fk.values.shape == g_win.values.shape == shape
        assert rep.source.increments.shape == (shape[0] - 1,) + cells.shape

        ref = _build_barrier_sources_reference(traj, k, diffusion, source)
        s1_whole = _from_slice(ref["s1"], i0)
        s2_whole = tuple(_from_slice(c, i0) for c in ref["s2"])
        # the lean solve is the one that sampled whole S1 and S2 window
        # trajectories at every step, bit for bit
        cut = lambda t: Trajectory(cells, t.times, t.values[(slice(None),) + cells.box])
        assert np.array_equal(g_win.values, _barrier_reference(
            cut(s1_whole), [cut(c) for c in s2_whole], diffusion, k,
            f_win.field(0), interp).values), k
        g_whole = solver.solve_barrier_ibvp(
            BarrierSource.from_trajectories(s1_whole, s2_whole),
            diffusion, k, interp=interp, initial=f_whole.field(0))
        assert np.array_equal(g_win.times, g_whole.times)
        # the whole-grid barrier is pinned to zero outside the window's box
        outside = g_whole.values.copy()
        outside[(slice(None),) + cells.box] = 0.0
        assert not outside.any(), k
        scale = float(np.max(np.abs(g_whole.values)))
        assert scale > 0.0
        embedded = _embed(g_win, grid)
        assert np.max(np.abs(embedded.values - g_whole.values)) <= REL * scale, k
        assert _close(solver.comparison_check(f_win, g_win),
                      solver.comparison_check(f_whole, g_whole), scale), k


def test_window_spectra_match_zero_extension(run):
    traj = run["traj"]
    for k in (1, 2):
        window = _cutoff_field(traj.window(dyadic_time(k - 1),
                                           DyadicLevel(k).outer_radius), k)
        got = averaging.SpectralField.from_trajectory(window, warn_boundary=False)
        expected = averaging.SpectralField.from_trajectory(
            _embed(window, traj.grid), warn_boundary=False)
        assert expected.l2_sq > 0.0
        assert _close(got.l2_sq, expected.l2_sq)
        # the window warns of support on the grid's edge exactly when its zero
        # extension does (tapered to 0 at both ends in time, so that the time
        # axis does not warn for both): its own edges inside the grid are not
        # the grid's
        taper = np.ones(window.n_slices)
        taper[[0, -1]] = 0.0
        tapered = Trajectory(window.grid, window.times,
                             window.values * taper.reshape((-1,) + (1,) * 2 * traj.grid.dim))
        warned = []
        for field in (tapered, _embed(tapered, traj.grid)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                averaging.SpectralField.from_trajectory(field)
            warned.append(len(caught))
        assert warned[0] == warned[1], k
        for group in ("t", "x", "v"):
            (k_sq, power), (k_sq_ref, power_ref) = (got.marginals[group],
                                                    expected.marginals[group])
            assert np.array_equal(k_sq, k_sq_ref)
            assert power.shape == power_ref.shape
            assert np.max(np.abs(power - power_ref)) <= REL * np.max(power_ref), group
            for s in (0.0, 1.0 / 3.0, 1.0):
                assert _close(got.frac_norm(group, s), expected.frac_norm(group, s))
