"""Streamed reductions and the streamed oscillation ladder.

Cylinder integrals, level-set measures and spectral marginals read a
trajectory slab by slab (`geometry._SLAB_BYTES`), and the oscillation
ladder zooms through one `ZoomSampler` and keeps only the slices it reads
next.  The tests below pin three things: the streamed ladder is the
materialised zoom + re-solve loop bit for bit; the reductions do not
depend on the slab size beyond summation order; and none of the streamed
audits builds a temporary the size of the trajectory.
"""

import math
import tracemalloc

import numpy as np
import pytest

from kfplab import geometry, holder, pipeline, solver
from kfplab.averaging import SpectralField
from kfplab.coefficients import build_diffusion
from kfplab.config import parse_config
from kfplab.degiorgi import LevelPass, chebyshev_audit, linfty_gate, truncation_energy
from kfplab.fields import Trajectory
from kfplab.geometry import (
    DyadicLevel,
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
    dt_slice = float(traj.times[1] - traj.times[0])
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
    times = PhaseGrid(dim, (-1.5, 0.0), n_t, 1.5, n, 1.5, n).unit_scale().times
    regions = (make_cylinder(omega / 2.0), make_cylinder(omega**3 / 54.0))
    smap = ScalingMap(omega * omega / 27.0, 0.0, (0.0,) * dim, (0.0,) * dim)
    assert _ladder_keep(times, regions, smap) == kept
    assert _ladder_keep(times[:], regions[1:], smap) == 2  # the preimage alone


# --- slab invariance -------------------------------------------------------------

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


def _streamed(traj):
    """Every streamed reduction of the trajectory, in one dict."""
    regions = [make_cylinder(1.5), make_cylinder(1.0), make_cylinder(0.5),
               DyadicLevel(2).outer_cylinder(), hat_cylinder()]
    out = {}
    for region in regions:
        key = str(region)
        out["int", key, "sq"] = cylinder_integral(traj, lambda v: v**2, region)
        out["measure", key, "pos"] = level_set_measure(traj, lambda f: f > 0.5, region)
    # the truncations and gradient densities of the level passes
    for k in (0, 1, 2):
        level = LevelPass(traj, k)
        out["int", k, "trunc"], out["int", k, "trunc_outer"] = level.fk_l2
        out["int", k, "grad"], out["int", k, "grad_outer"] = level.grad_l2
        out["measure", k, "level_set"] = level.level_set
    spec = SpectralField.from_trajectory(traj, warn_boundary=False)
    out["l2"] = spec.l2_norm()
    for group in ("t", "x", "v"):
        for s in (0.0, 1.0 / 3.0, 1.0):
            out["frac", group, s] = spec.frac_norm(group, s)
    return out


@pytest.mark.parametrize("dim,n,n_t", [(1, 24, 24), (2, 9, 12)])
def test_streamed_reductions_do_not_depend_on_the_slab(monkeypatch, dim, n, n_t):
    grid = PhaseGrid(dim, (-1.5, 0.0), n_t, 1.5, n, 1.5, n)
    traj = _field(grid, seed=n)
    assert len(geometry._slabs(n_t, traj.values[0].nbytes)) == 1
    one = _streamed(traj)
    # one slice per cylinder slab, one index per spectral slab
    monkeypatch.setattr(geometry, "_SLAB_BYTES", 1)
    many = _streamed(traj)
    assert one.keys() == many.keys()
    for key, value in one.items():
        if key[0] == "measure":
            assert many[key] == value, key
        else:
            assert abs(many[key] - value) <= 1e-14 * abs(value), key
    assert one["measure", "Q[1.0]", "pos"] > 0.0
    # both sides of the Chebyshev bound are summed over the same slabs
    for k in (1, 2, 3):
        rep = chebyshev_audit(LevelPass(traj, k))
        assert rep.measure > 0.0
        assert rep.margin >= 0.0, k


@pytest.mark.parametrize("slab_slices", [None, 1, 3])
def test_level_pass_is_each_cylinder_integral_bit_for_bit(monkeypatch, slab_slices):
    """`LevelPass` feeds the f_k and |grad_v f_k|^2 integrals of Q_k and
    Q_{k-1} from one walk that truncates and differences each stored slice
    once, and each value is `cylinder_integral` of the whole-array map of
    its window bit for bit.  At one slab, a slab per slice, and slabs that
    cut the regions' time cells apart."""
    grid = PhaseGrid(2, (-1.5, 0.0), 12, 1.5, 9, 1.5, 9)
    traj = _field(grid, seed=4)
    for k in (1, 2):
        level = DyadicLevel(k)
        win = traj.window(dyadic_time(k - 1), level.outer_radius)
        if slab_slices is not None:
            monkeypatch.setattr(geometry, "_SLAB_BYTES", slab_slices * win.values[0].nbytes)
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
    """The streamed audits hold slabs, not trajectories.

    On N = 2 at 13^4 cells and 97 stored slices (21.1 MiB, six cylinder
    slabs of 18 time cells), each audit's tracemalloc rise above its entry
    must stay below BOUND = 0.75 of the trajectory's bytes.  Measured
    here: `truncation_energy` with its `LevelPass` at k = 0 0.55 (the
    slabs of the four f_k reducers at once, two of them on the whole grid,
    and one stored slice's arrays; 0.45 when each reducer had a pass of
    its own), `linfty_gate` 0.38,
    `SpectralField.from_trajectory` 0.19 (one slab's squares for `l2_sq`;
    its Gram products hold little more than each group's Gram matrix) and
    `oscillation_ladder` 0.30 (its re-solve's step plan on the inner cell
    box and kept slices).  With the whole-trajectory
    temporaries these streams replaced, the same calls rose 4.97, 2.97,
    6.47 and 3.31 trajectories.
    """
    grid = PhaseGrid(2, (-1.5, 0.0), 96, 1.5, 13, 1.5, 13)
    traj = _field(grid, seed=3)
    assert len(geometry._slabs(96, traj.values[0].nbytes)) >= 6
    diffusion = build_diffusion(2, 2.0, "constant", value=1.0)
    size = traj.values.nbytes
    rises = {
        "truncation_energy": _rise(lambda: truncation_energy(LevelPass(traj, 0), 2.0)),
        "linfty_gate": _rise(linfty_gate, traj, -5.0),
        "from_trajectory": _rise(SpectralField.from_trajectory, traj,
                                 warn_boundary=False),
        "oscillation_ladder": _rise(oscillation_ladder, traj, diffusion, None, 0.25),
    }
    for name, rise in rises.items():
        assert rise < BOUND * size, (name, rise / size)


N2_CONFIG = ("run.seed = 2\ncoeff.kind = checkerboard\nsource.kind = zero\n"
             "grid.dim = 2\ngrid.n_t = 18\ngrid.n_x = 18\ngrid.n_v = 18\n"
             "diagnostics.omega = 0.25\ndiagnostics.bisection = false\n")
MIB = float(2**20)


def test_step_plan_and_barrier_audit_hold_each_slice_once():
    """The N = 2 step plan and the level-1 barrier audit by tracemalloc.

    On the benchmark's N = 2 run (18^4 cells, a slice is 0.80 MiB):

    * `_StepPlan` built and stepped once peaks at most 17.6 MiB (22
      slices) above its entry; measured 16.1: the transport's index
      gathers 3.2, the diffusion factors 6.2, the coefficient samples 1.6,
      three scratch buffers and the two step buffers 4.0.  When a plan
      held full-size weights, a lower and an upper coupling and an upper
      copy, and every step allocated its temporaries, it peaked at 23.9.
    * A later step rises at most 0.4 MiB (half a slice); measured 0.05,
      against 4.8 (six slices).
    * `pipeline._barrier_audit` at k = 1 rises at most 17.5 MiB; measured
      16.0, in `build_barrier_sources`, where F_k, the barrier's
      increments and the slabs of the S1 and S2 norms are alive.  When the
      report kept S1, both S2 components and F_k, it rose 19.7.
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
    bounds = {"plan and first step": 17.6, "later step": 0.4, "barrier audit": 17.5}
    for name, rise in rises.items():
        assert rise < bounds[name] * MIB, (name, rise / MIB)
