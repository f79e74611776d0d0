"""Streamed reductions and the streamed oscillation ladder.

Cylinder integrals and level-set measures read a trajectory one time
cell at a time, spectral marginals one index at a time, and the
oscillation ladder zooms through one `ZoomSampler` and keeps only the
slices it reads next.  The tests below pin three things: the streamed
ladder is the materialised zoom + re-solve loop bit for bit; every
reduction is a left-to-right sum of per-cell sums, bit for bit, whatever
the trajectory's size; and none of the streamed audits builds a temporary
the size of the trajectory.  Beside them, the
step plan is held to its slices: it holds each once, a refactoring step
allocates none, and every buffer starts on a 64-byte boundary.
"""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from kfplab import holder, pipeline, solver
from kfplab.averaging import SpectralField
from kfplab.coefficients import build_diffusion
from kfplab.config import parse_config
from kfplab.degiorgi import LevelPass, build_barrier_sources, linfty_gate, truncation_energy
from kfplab.fields import PhaseField, Trajectory
from kfplab.geometry import (
    DyadicLevel,
    GridWindow,
    PhaseGrid,
    cylinder_integral,
    cylinder_node_extrema,
    dyadic_time,
    grad_v_sq_density,
    hat_cylinder,
    level_set_measure,
    make_cylinder,
)
from kfplab.holder import ScalingMap, _ladder_keep, _line_fit, oscillation, \
    oscillation_ladder
from kfplab.pipeline import build_coefficient, build_grid, build_source_field, \
    solve_initial
from kfplab.solver import solve_anchored


# --- the ladder against the materialised loop ------------------------------------

def _lerp_reference(values, axis, idx):
    """1-d linear interpolation at snapped fractional node indices on the
    whole array, holding the edge values beyond the end nodes."""
    rounded = np.round(idx)
    idx = np.where(np.abs(idx - rounded) < 1e-9, rounded, idx)
    n = values.shape[axis]
    lo = np.floor(idx)
    shape = [1] * values.ndim
    shape[axis] = len(idx)
    w = (idx - lo).reshape(shape)
    lo = lo.astype(np.int64)
    a = np.take(values, np.clip(lo, 0, n - 1), axis=axis)
    b = np.take(values, np.clip(lo + 1, 0, n - 1), axis=axis)
    return (1.0 - w) * a + w * b


def _whole_slice_zoom(traj, smap, zoom_grid):
    """The materialised zoom: every zoom slice interpolated in time on the
    whole grid, then along each x and v axis in turn."""
    grid = traj.grid
    dt_slice = traj.dt
    out = np.empty((len(zoom_grid.times),) + zoom_grid.shape)
    ys, xis = zoom_grid.coords()
    for i, s in enumerate(zoom_grid.times):
        t, xs, vs = smap.apply_coords(float(s), ys, xis)
        slab = _lerp_reference(traj.values, 0,
                               np.atleast_1d((t - traj.times[0]) / dt_slice))[0]
        for ax, (c, half, h) in enumerate(
                [(c, grid.x_max, grid.dx) for c in xs]
                + [(c, grid.v_max, grid.dv) for c in vs]):
            slab = _lerp_reference(slab, ax, (np.asarray(c).ravel() + half) / h - 0.5)
        out[i] = slab
    return Trajectory(zoom_grid, zoom_grid.times.copy(), out)


def _ladder_reference(traj, diffusion, source, omega, n_levels):
    """(ladder, ladder_inner, mu_emp) of the loop over whole zoomed data and
    whole re-solves."""
    dim = traj.grid.dim
    smap = ScalingMap(omega * omega / 27.0, 0.0, (0.0,) * dim, (0.0,) * dim)
    region, inner_region = make_cylinder(omega / 2.0), make_cylinder(omega**3 / 54.0)
    ladder, inner = [], []
    current, a_cur, g_cur = traj, diffusion, source
    for level in range(n_levels + 1):
        ladder.append(oscillation(current, region))
        osc_inner = math.nan
        if inner_region.intersects_grid(current.grid, current.times):
            lo, hi, count = cylinder_node_extrema(current, inner_region)
            if count > 0:
                osc_inner = hi - lo
        inner.append(osc_inner)
        if level == n_levels:
            break
        data = _whole_slice_zoom(current, smap, current.grid.unit_scale())
        a_cur = a_cur.transformed(smap)
        g_cur = None if g_cur is None else g_cur.transformed(smap, smap.eps**2)
        current = solve_anchored(data, a_cur, g_cur)
    floor = 1e-12 * max(1.0, float(np.max(np.abs(traj.values))))
    entries = [(n, math.log10(v)) for n, v in enumerate(ladder) if v > floor]
    mu = 10.0 ** _line_fit(entries)[0] if len(entries) >= 2 else math.nan
    return ladder, inner, mu


LADDER_CONFIGS = {
    # the desk run on a small grid: a noise source, omega = 0.4, whose
    # Q[omega/2] holds four stored slices
    "n1": "run.seed = 2\ngrid.n_t = 24\ngrid.n_x = 24\ngrid.n_v = 24\n"
          "coeff.kind = checkerboard\nsource.kind = noise\nsource.bound = 0.3\n"
          "initial.amplitude = 0.8\ndiagnostics.omega = 0.4\n",
    # the n2 benchmark run (odd or coarser N = 2 grids put one node or one
    # slice in Q[omega/2], and their ladders are 0)
    "n2": "run.seed = 1\ngrid.dim = 2\ngrid.n_t = 18\ngrid.n_x = 18\ngrid.n_v = 18\n"
          "coeff.kind = checkerboard\ndiagnostics.omega = 0.25\n",
}


@pytest.mark.parametrize("name", sorted(LADDER_CONFIGS))
def test_streamed_ladder_is_the_materialised_loop_bit_for_bit(name):
    cfg = parse_config(LADDER_CONFIGS[name])
    grid = build_grid(cfg)
    diffusion, source = build_coefficient(cfg), build_source_field(cfg)
    traj = solve_initial(cfg, grid, diffusion, source)
    # the normalized field lives on the cells of B(0,1)^2; the reference
    # scales the whole trajectory
    window, source, big_l = holder.normalize_pair(traj, source, 0.01)
    assert window.grid.shape != grid.shape
    whole = traj.map_values(lambda v: v / big_l)
    ladder, inner, mu = _ladder_reference(whole, diffusion, source, cfg.omega, 3)
    for data in (window, whole):
        report = oscillation_ladder(data, diffusion, source, cfg.omega, n_levels=3)
        assert report.ladder == ladder
        assert np.array_equal(report.ladder_inner, inner, equal_nan=True)
        assert report.mu_emp == mu or (math.isnan(report.mu_emp) and math.isnan(mu))
        assert not report.degenerate


@pytest.mark.parametrize("dim,n,n_t,omega,kept", [
    (2, 18, 18, 0.25, 2),     # n2: the next zoom's two slices hold Q[omega/2]'s
    (1, 64, 48, 0.4, 7),      # desk: Q[omega/2] = (-0.2, 0] holds 7 slices
])
def test_ladder_keeps_the_slices_it_reads(dim, n, n_t, omega, kept):
    unit = PhaseGrid(dim, (-1.5, 0.0), n_t, 1.5, n, 1.5, n).unit_scale()
    regions = (make_cylinder(omega / 2.0), make_cylinder(omega**3 / 54.0))
    smap = ScalingMap(omega * omega / 27.0, 0.0, (0.0,) * dim, (0.0,) * dim)
    assert _ladder_keep(unit, regions, smap) == kept
    assert _ladder_keep(unit, regions[1:], smap) == 2  # the preimage alone


# --- one summation order -------------------------------------------------------

def _field(grid, seed):
    """Random values in [-0.2, 1.2] times a bump that vanishes at the box
    edges, so every truncation level and level set is non-empty."""
    rng = np.random.default_rng(seed)
    xs, vs = grid.coords()
    bump = 1.0
    for c in xs + vs:
        bump = bump * np.cos(0.5 * np.pi * c / 1.5)
    values = rng.uniform(-0.2, 1.2, size=(len(grid.times),) + grid.shape) * bump
    return Trajectory(grid, grid.times, values)


def _cell_by_cell(traj, func, region):
    """The midpoint-cell integral summed one time cell at a time: each
    cell's midpoint values on the region's bounding box, `func` and the
    mask applied and one `np.sum` taken, the cells' sums added left to
    right in time."""
    times = traj.times
    box, mask = region.space_box(traj.grid)
    total = 0.0
    for j in np.nonzero(region.contains_time(0.5 * (times[:-1] + times[1:])))[0]:
        vals = func(0.5 * (traj.values[j][box] + traj.values[j + 1][box])) * mask
        total += float(np.count_nonzero(vals) if vals.dtype == bool else np.sum(vals))
    return total * float(times[1] - times[0]) * traj.grid.cell_volume


@pytest.mark.parametrize("dim,n,n_t", [(1, 64, 48), (1, 24, 24), (2, 9, 12)])
def test_every_reduction_sums_one_time_cell_at_a_time(dim, n, n_t):
    """Cylinder integrals, level-set measures, the level pass's reducers and
    `SpectralField.l2_sq` are, bit for bit, left-to-right sums of per-cell
    (per-slice) `np.sum`s, whatever the trajectory's size: a desk-sized
    N = 1 trajectory, 49 stored slices of 64^2 cells, and two small ones,
    N = 1 and N = 2."""
    grid = PhaseGrid(dim, (-1.5, 0.0), n_t, 1.5, n, 1.5, n)
    traj = _field(grid, seed=1)
    sq, pos = (lambda v: v**2), (lambda f: f > 0.5)
    for region in (make_cylinder(1.5), make_cylinder(1.0), hat_cylinder(),
                   DyadicLevel(2).outer_cylinder()):
        assert cylinder_integral(traj, sq, region) == _cell_by_cell(traj, sq, region)
        assert level_set_measure(traj, pos, region) == _cell_by_cell(traj, pos, region)
    for k in (0, 1, 2, 3):
        level = DyadicLevel(k)
        win = traj.window(dyadic_time(k - 1), level.outer_radius)
        fk = win.map_values(lambda v: np.maximum(v - level.truncation, 0.0))
        gk = fk.map_values(lambda v: grad_v_sq_density(win.grid, v))
        regions = (level.cylinder(), level.outer_cylinder())
        got = LevelPass(traj, k)
        assert got.fk_l2 == tuple(math.sqrt(_cell_by_cell(fk, sq, q)) for q in regions)
        assert got.grad_l2 == tuple(math.sqrt(_cell_by_cell(gk, lambda v: v, q))
                                    for q in regions)
        assert got.level_set == _cell_by_cell(win, lambda f: f > level.truncation,
                                              regions[1]) > 0.0
        if k >= 1:
            c_prev = DyadicLevel(k - 1).truncation
            assert got.prev_sq == _cell_by_cell(
                win, lambda f: np.maximum(f - c_prev, 0.0) ** 2, regions[1])
    l2_sq = 0.0
    for values in traj.values:
        l2_sq += float(np.sum(values * values))
    assert SpectralField.from_trajectory(traj, warn_boundary=False).l2_sq == l2_sq


def test_level_pass_is_each_cylinder_integral_bit_for_bit(laid_out):
    """`LevelPass` feeds the f_k and |grad_v f_k|^2 integrals of Q_k and
    Q_{k-1} from one walk that truncates and differences each stored slice
    once, and each value is `cylinder_integral` of the whole-array map of
    its window bit for bit, however the stored slices are laid out."""
    grid = PhaseGrid(2, (-1.5, 0.0), 12, 1.5, 9, 1.5, 9)
    traj = laid_out(_field(grid, seed=4))
    for k in (1, 2):
        level = DyadicLevel(k)
        win = traj.window(dyadic_time(k - 1), level.outer_radius)
        fk = win.map_values(lambda v: np.maximum(v - level.truncation, 0.0))
        gk = fk.map_values(lambda v: grad_v_sq_density(win.grid, v))
        regions = (level.cylinder(), level.outer_cylinder())
        got = LevelPass(traj, k)
        assert got.fk_l2 == tuple(math.sqrt(cylinder_integral(fk, lambda v: v**2, q))
                                  for q in regions)
        assert got.grad_l2 == tuple(math.sqrt(cylinder_integral(gk, lambda v: v, q))
                                    for q in regions)
        assert min(got.fk_l2 + got.grad_l2) > 0.0


# --- memory ------------------------------------------------------------------------

def _rise(fn, *args, **kwargs):
    """tracemalloc's peak above the allocation at the call's entry, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


BOUND = 0.75


def test_streamed_audits_stay_below_a_fraction_of_the_trajectory():
    """The streamed audits hold slices, not trajectories.

    On N = 2 at 13^4 cells and 97 stored slices (21.1 MiB), each audit's
    tracemalloc rise above its entry must stay below BOUND = 0.75 of the
    trajectory's bytes.  Measured here: `truncation_energy` with its
    `LevelPass` at k = 0 0.09 (the cell buffers of the four f_k reducers,
    two of them on the whole grid, and the pass's three slice buffers;
    0.52 when each reducer held a slab of 18 time cells), `linfty_gate`
    0.02 (one cell buffer, f_+^2 taken in place; 0.19 with a slab),
    `SpectralField.from_trajectory` 0.03 (one slice's squares for `l2_sq`;
    its Gram products hold little more than each group's Gram matrix; 0.19
    with a slab's squares), `oscillation_ladder` 0.30 (its re-solve's
    step plan on the inner cell box and kept slices) and `theta_sequence`
    on the field halved, below 1, 0.135 (one level set's cell buffer at a
    time; 1.16 when it formed each level f_k and its difference on the
    cells of B(0,1)^2).  With the whole-trajectory temporaries these
    streams replaced, the first four rose 4.97, 2.97, 6.47 and 3.31
    trajectories.
    """
    grid = PhaseGrid(2, (-1.5, 0.0), 96, 1.5, 13, 1.5, 13)
    traj = _field(grid, seed=3)
    halved = traj.map_values(lambda v: 0.5 * v)
    diffusion = build_diffusion(2, 2.0, "constant", value=1.0)
    size = traj.values.nbytes
    rises = {
        "truncation_energy": _rise(lambda: truncation_energy(LevelPass(traj, 0), 2.0)),
        "linfty_gate": _rise(linfty_gate, traj, -5.0),
        "from_trajectory": _rise(SpectralField.from_trajectory, traj,
                                 warn_boundary=False),
        "oscillation_ladder": _rise(oscillation_ladder, traj, diffusion, None, 0.25),
        "theta_sequence": _rise(holder.theta_sequence, halved, 0.25, 3),
    }
    for name, rise in rises.items():
        assert rise < BOUND * size, (name, rise / size)


BISECTION_CONFIG = ("run.seed = 2\ngrid.n_t = 96\ngrid.n_x = 24\ngrid.n_v = 24\n"
                    "coeff.kind = checkerboard\nsource.kind = noise\nsource.bound = 0.3\n"
                    "initial.amplitude = 0.8\n")


def test_bisection_holds_the_unit_run_and_no_other_trajectory():
    """`pipeline._bisection` (the unit solve, `empirical_kappa` and the
    affine check) keeps the unit run and streams the rest.

    On a 24^2 desk-like run with 97 stored slices, the tracemalloc rise
    above the call's entry must stay below 1.6 trajectories.  Measured:
    1.48, of which the unit run with its energy ledger holds 1.08 and a
    step plan 0.26 (the direct run's, while the unit run is held); the
    premise's cell buffer and the one slice buffer of the superposed run
    and of the affine gap are the rest.  When the premise integral held
    the whole trajectory as one slab it rose 2.33; when the run at a* and
    the gap were whole arrays, and the direct run was solved whole, 3.14.
    """
    cfg = parse_config(BISECTION_CONFIG)
    grid = build_grid(cfg)
    diffusion, source = build_coefficient(cfg), build_source_field(cfg)
    traj = solve_initial(cfg, grid, diffusion, source)
    rise = _rise(pipeline._bisection, cfg, traj, diffusion, source)
    assert rise < 1.6 * traj.values.nbytes, rise / traj.values.nbytes
    kappa_emp, defect = pipeline._bisection(cfg, traj, diffusion, source)
    assert math.isfinite(kappa_emp) and defect <= pipeline.AFFINE_TOLERANCE


N2_CONFIG = ("run.seed = 2\ncoeff.kind = checkerboard\nsource.kind = zero\n"
             "grid.dim = 2\ngrid.n_t = 18\ngrid.n_x = 18\ngrid.n_v = 18\n"
             "diagnostics.omega = 0.25\ndiagnostics.bisection = false\n")
MIB = float(2**20)


def test_step_plan_and_barrier_audit_hold_each_slice_once():
    """The N = 2 step plan and the level-1 barrier audit by tracemalloc.

    On the benchmark's N = 2 run (18^4 cells, a slice is 0.80 MiB):

    * `_StepPlan` built and stepped once peaks at most 16.2 MiB above its
      entry; measured 14.7.  The plan holds 12.1 (15.2 slices): the
      diffusion factors 6.2, its block of two step buffers, the gather
      buffer (19/18 of a slice) and two scratch buffers 4.1, the
      transport's two index gathers 1.7 (one per pass, of the output rows
      and the one row after them) and its weights 0.2.  The rest is the
      first step's draw of the checkerboard coefficient, 1.6 and its
      temporaries, which the plan drops once factored.  The source is
      zero: its increment is the scalar 0.0.  It peaked at 16.2 when a
      pass gathered each tap (four index gathers, 3.4) and the plan kept
      the coefficient sample and an all-zero increment slice; at 23.9
      when a plan held full-size weights, a lower and an upper coupling
      and an upper copy, and every step allocated its temporaries.
    * A later step rises at most 0.4 MiB (half a slice); measured 0.05,
      against 4.8 (six slices).
    * `pipeline._barrier_audit` at k = 1 rises at most 10.9 MiB; measured
      9.9, in the barrier solve, where the source's increments (2.6, a
      window slice is 0.22 MiB, 13 slices from T_0), F_k at T_0, the
      barrier trajectory (2.8) and the solve's step plan are alive.  The
      report keeps F_k at T_0 alone, and the comparison forms F_k slice by
      slice.  It rose 12.6 when F_k lived through the solve, 14.8 when the
      S1 and S2 norms held slabs of stored slices, 15.7 when S1, S2, their
      squares and the increments were built in fresh temporaries, and 19.7
      when the report kept S1, both S2 components and F_k.
    * `build_barrier_sources` alone rises at most 8.0 MiB; measured 7.2,
      with the increments, the walk's slice buffers and the cell buffers
      of the S1 and S2 norms alive.  It rose 9.8 when the report kept F_k
      at every slice of the window.
    """
    cfg = parse_config(N2_CONFIG)
    grid = build_grid(cfg)
    diffusion = build_coefficient(cfg)
    source = build_source_field(cfg)
    f0 = pipeline.build_initial(cfg, grid)
    state = {}

    def first():
        state["plan"] = solver._StepPlan(grid, diffusion, source, grid.dt, cfg.interp, True)
        state["vals"], _ = state["plan"].step(f0.values, f0.t)

    def later():
        state["plan"].step(state["vals"], f0.t + grid.dt)

    rises = {"plan and first step": _rise(first), "later step": _rise(later)}
    del state
    traj = solve_initial(cfg, grid, diffusion, source)
    rises["barrier audit"] = _rise(pipeline._barrier_audit, cfg,
                                   LevelPass(traj, 1, source), diffusion)
    rises["barrier sources"] = _rise(build_barrier_sources, LevelPass(traj, 1, source),
                                     diffusion)
    bounds = {"plan and first step": 16.2, "later step": 0.4, "barrier audit": 10.9,
              "barrier sources": 8.0}
    for name, rise in rises.items():
        assert rise < bounds[name] * MIB, (name, rise / MIB)


def _plan_buffers(plan):
    """Every array a step plan owns: its block rows, the transport's index
    gather and tap weights of each pass, and the diffusion's factor
    arrays."""
    yield from (plan.moved, plan.result, plan.spare, *plan.transport.scratch)
    for _, idx, weights in plan.transport.passes:
        yield from (idx, *weights)
    for diag, lower, upper, stages, mult, inv_diag, up in plan.implicit.factors:
        yield from (diag, lower, upper, mult, inv_diag, up)
        for _, alpha, gamma in stages:
            yield from (alpha, gamma)


def test_a_refactoring_step_allocates_nothing_and_plan_buffers_are_aligned():
    """The step plan factors in place, and owns 64-byte-aligned buffers.

    On the benchmark's N = 2 grid (18^4 cells, a slice is 0.80 MiB) with
    an oscillatory coefficient, which the plan refactors at every step, a
    later step must rise at most half a slice under tracemalloc.  The
    coefficient samples are drawn before the step: the field's draw of its
    two components rises 3.0 slices, and is the field's, not the step's.
    Measured 0.13 slices (the bool arrays of the comparison of the new
    samples with the factored ones); 7.8 when each refactor built a new
    factor set.  Every buffer of the whole-space plan, of a kinetic IBVP
    plan on a level window and of an anchored-box plan, and the stored
    slices of `solve` and `solve_anchored`, start on a 64-byte boundary.
    """
    grid = PhaseGrid(2, (-1.5, 0.0), 18, 1.5, 18, 1.5, 18)
    a = build_diffusion(2, 2.0, "oscillatory", mid=1.0, amplitude=0.4, frequency=1.3)
    plan = solver._StepPlan(grid, a, None, grid.dt, "linear", True)
    t = [-1.5 + n * grid.dt for n in range(4)]
    samples = iter([a.sample(grid, s + 0.5 * grid.dt) for s in t])
    plan.coefficients.draw = lambda _: next(samples)
    vals, _ = plan.step(np.random.default_rng(0).uniform(-1.0, 1.0, grid.shape), t[0])
    vals, _ = plan.step(vals, t[1])
    factors = [arr.copy() for arr in plan.implicit.factors[0][:3]]
    rise = _rise(plan.step, vals, t[2])
    assert rise < 0.5 * vals.nbytes, rise / vals.nbytes
    # the step refactored, into the same arrays
    assert not np.array_equal(factors[0], plan.implicit.factors[0][0])

    small = PhaseGrid(1, (-1.5, 0.0), 24, 1.5, 25, 1.5, 23)
    b = build_diffusion(1, 2.0, "cellwise_random", low=0.6, high=1.6, cell=0.25)
    window, cells = GridWindow(grid, 1.0), solver._anchored_cells(small, "linear")
    ibvp = solver._bc_plan(window, a, None, grid.dt, solver.kinetic_ibvp(1.0), "cubic")
    anchored = solver._StepPlan(cells, b, None, small.dt, "linear", False,
                                ~solver.ring_mask(small)[cells.box],
                                solver._reduction_depth(small))
    for p in (plan, ibvp, anchored):
        for arr in _plan_buffers(p):
            assert arr.size == 0 or arr.ctypes.data % 64 == 0, arr.shape
    f0 = PhaseField(small, -1.5, np.random.default_rng(1).normal(size=small.shape))
    traj = solver.solve(f0, b, None, 0.0, solver.WHOLE_SPACE)
    anchored = solve_anchored(traj, b, None)
    for values in (traj.values, anchored.values, solve_anchored(traj, b, None, keep=2).values):
        assert values.ctypes.data % 64 == 0


def _owned_bytes(arrays):
    """The bytes of the distinct buffers under `arrays`."""
    roots = {}
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        roots[id(arr)] = arr.nbytes
    return sum(roots.values())


@pytest.mark.parametrize("kind,params,kept", [
    ("checkerboard", dict(values=(0.6, 1.5), cell=0.25), False),
    ("cellwise_random", dict(low=0.6, high=1.6, cell=0.25), True),
])
def test_a_plan_drops_the_sample_of_a_coefficient_constant_in_time(kind, params, kept):
    """A checkerboard coefficient has no time key: the plan draws it at its
    first step, factors it, and drops the sample, which is then freed, and
    draws nothing at the steps after.  A cellwise_random one is drawn again
    at each new time cell, and the plan keeps its last sample to compare
    the next with.  `_StepPlan.nbytes` counts every buffer of the plan once,
    the kept sample among them."""
    grid = PhaseGrid(2, (-1.5, 0.0), 12, 1.5, 8, 1.5, 8)
    a = build_diffusion(2, 2.0, kind, seed=2, **params)
    drawn = []
    sample = a.sample

    def recorded(cells, t):
        arrays = sample(cells, t)
        drawn.append([weakref.ref(arr) for arr in arrays])
        return arrays

    a.sample = recorded
    plan = solver._StepPlan(grid, a, None, grid.dt, "linear", True)
    vals, _ = plan.step(np.random.default_rng(0).uniform(-1.0, 1.0, grid.shape), -1.5)
    gc.collect()
    assert len(drawn) == 1
    assert all((ref() is not None) is kept for ref in drawn[0])
    for n in range(1, 6):
        vals, _ = plan.step(vals, -1.5 + n * grid.dt)
    assert (len(drawn) > 1) is kept
    buffers = _owned_bytes(_plan_buffers(plan))
    held = 2 * vals.nbytes if kept else 0
    assert plan.nbytes == buffers + held
