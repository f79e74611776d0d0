import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kfplab.coefficients import build_diffusion, build_source
from kfplab.fields import PhaseField, Trajectory
from kfplab.geometry import (
    GeometryError,
    PhaseGrid,
    cylinder_node_extrema,
    hat_union_unit,
    level_set_measure,
    make_cylinder,
)
from kfplab.holder import (
    ScalingMap,
    holder_fit,
    isoperimetric_probe,
    lemma_constants,
    modulus_from_constants,
    normalize_pair,
    oscillation,
    oscillation_ladder,
    theta_sequence,
    zoom,
    zoom_residual,
)
from kfplab.solver import WHOLE_SPACE, solve


@pytest.fixture(scope="module")
def grid():
    return PhaseGrid(1, (-1.5, 0.0), 48, 1.5, 48, 1.5, 48)


# --- the scaling map -----------------------------------------------------------

def test_scaling_map_composition_matches_pointwise():
    rng = np.random.default_rng(0)
    m1 = ScalingMap(0.6, 0.2, (0.1,), (-0.3,))
    m2 = ScalingMap(0.5, -0.4, (0.25,), (0.7,))
    comp = m1.compose(m2)
    assert comp.eps == pytest.approx(0.3, abs=1e-15)
    for _ in range(20):
        s = rng.uniform(-1, 0)
        y = (rng.uniform(-1, 1),)
        xi = (rng.uniform(-1, 1),)
        t_in, x_in, v_in = m2.apply_coords(s, y, xi)
        t_a, x_a, v_a = m1.apply_coords(t_in, x_in, v_in)
        t_b, x_b, v_b = comp.apply_coords(s, y, xi)
        assert t_a == pytest.approx(t_b, abs=1e-14)
        assert x_a[0] == pytest.approx(x_b[0], abs=1e-14)
        assert v_a[0] == pytest.approx(v_b[0], abs=1e-14)


def test_scaling_map_semigroup_at_origin():
    m1 = ScalingMap(0.5)
    m2 = ScalingMap(0.25)
    comp = m1.compose(m2)
    assert comp.eps == 0.125
    assert comp.t0 == 0.0 and comp.x0 == (0.0,) and comp.v0 == (0.0,)


def test_scaling_map_rejects_bad_eps():
    with pytest.raises(ValueError):
        ScalingMap(0.0)
    with pytest.raises(ValueError):
        ScalingMap(-1.0)


# --- zooming ---------------------------------------------------------------------

def test_zoom_identity_is_bit_equal(grid):
    rng = np.random.default_rng(1)
    vals = rng.uniform(-1, 1, (len(grid.times),) + grid.shape)
    traj = Trajectory(grid, grid.times, vals)
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    g = build_source(1, "zero")
    triple = zoom(traj, ScalingMap(1.0), a, g, zoom_grid=grid)
    assert np.array_equal(triple.data.values, traj.values)


def test_zoom_constant_field(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.37)
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    triple = zoom(traj, ScalingMap(0.4), a, None)
    assert np.allclose(triple.data.values, 0.37, atol=1e-14)


def test_zoom_composition_exact_on_multilinear_fields(grid):
    # trilinear interpolation reproduces multilinear fields exactly, so the
    # two-step zoom equals the one-step zoom with the product factor
    def fn(t, x, v):
        return 0.3 + 0.8 * t - 1.1 * x + 0.5 * v + 0.7 * x * v + 0.2 * t * v

    traj = Trajectory.from_function(grid, grid.times, fn)
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    g = build_source(1, "zero")
    t1 = zoom(traj, ScalingMap(0.5), a, g)
    t2 = zoom(t1.data, ScalingMap(0.5), t1.diffusion, t1.source)
    direct = zoom(traj, ScalingMap(0.25), a, g)
    assert np.max(np.abs(t2.data.values - direct.data.values)) < 1e-13


def test_zoom_identity_then_scale_matches_direct(grid):
    rng = np.random.default_rng(2)
    vals = rng.uniform(-1, 1, (len(grid.times),) + grid.shape)
    traj = Trajectory(grid, grid.times, vals)
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    g = build_source(1, "zero")
    ident = zoom(traj, ScalingMap(1.0), a, g, zoom_grid=grid)
    once = zoom(ident.data, ScalingMap(0.5), ident.diffusion, ident.source)
    direct = zoom(traj, ScalingMap(0.5), a, g)
    assert np.array_equal(once.data.values, direct.data.values)


def test_zoom_preimage_escape_reports_domain(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.0)
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    with pytest.raises(GeometryError, match="outside"):
        zoom(traj, ScalingMap(1.3), a, None)


def test_zoom_source_gains_eps_squared(grid):
    g = build_source(1, "constant", bound=1.0)
    traj = Trajectory.from_constant(grid, grid.times, 0.0)
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    triple = zoom(traj, ScalingMap(0.5), a, g)
    sample = triple.source.sample(grid, -0.5)
    assert np.allclose(sample, 0.25, atol=1e-15)


def test_zoom_coefficient_composes_without_scaling(grid):
    a = build_diffusion(1, 2.0, "checkerboard", values=(0.6, 1.5), cell=0.25)
    traj = Trajectory.from_constant(grid, grid.times, 0.0)
    smap = ScalingMap(0.5)
    triple = zoom(traj, smap, a, None)
    t, x, v = -0.3, 0.4, 0.7
    tt, xs, vs = smap.apply_coords(t, (np.asarray(x),), (np.asarray(v),))
    expect = a.scalar(tt, xs[0], vs[0])
    got = triple.diffusion.scalar(t, np.asarray(x), np.asarray(v))
    assert float(got) == pytest.approx(float(expect), abs=1e-15)
    assert triple.diffusion.lam == a.lam


def test_zoom_residual_small_for_solver_output(grid):
    a = build_diffusion(1, 2.0, "checkerboard", values=(0.6, 1.5), cell=0.25)
    g = build_source(1, "zero")
    x = grid.x_centers[:, None]
    v = grid.v_centers[None, :]
    f0 = PhaseField(grid, -1.5, 0.5 * np.cos(np.pi * x / 1.5) * np.exp(-4 * v**2))
    traj = solve(f0, a, g, 0.0, WHOLE_SPACE)
    triple = zoom(traj, ScalingMap(1.0), a, g, zoom_grid=grid)
    out = zoom_residual(triple)
    assert out["rel_residual"] < 0.02


# --- oscillation -----------------------------------------------------------------

def test_oscillation_constant_and_linear(grid):
    const = Trajectory.from_constant(grid, grid.times, 0.4)
    assert oscillation(const, make_cylinder(0.5)) == 0.0
    lin = Trajectory.from_function(grid, grid.times, lambda t, x, v: v + 0 * x)
    r = 0.5
    osc = oscillation(lin, make_cylinder(r))
    assert osc == pytest.approx(2 * r, abs=2 * grid.dv)


def test_oscillation_matches_exhaustive_scan(grid):
    rng = np.random.default_rng(3)
    traj = Trajectory(grid, grid.times,
                      rng.uniform(-1, 1, (len(grid.times),) + grid.shape))
    region = make_cylinder(0.8)
    got = oscillation(traj, region)
    # brute-force node scan
    best_hi, best_lo = -np.inf, np.inf
    for i, t in enumerate(traj.times):
        if not (-0.8 < t <= 0.0):
            continue
        for jx, xc in enumerate(grid.x_centers):
            if abs(xc) >= 0.8:
                continue
            for jv, vc in enumerate(grid.v_centers):
                if abs(vc) >= 0.8:
                    continue
                val = traj.values[i, jx, jv]
                best_hi = max(best_hi, val)
                best_lo = min(best_lo, val)
    assert got == pytest.approx(best_hi - best_lo, abs=1e-15)


def test_oscillation_empty_region_errors(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.0)
    with pytest.raises(GeometryError):
        oscillation(traj, make_cylinder(1e-6))


def test_oscillation_subadditive_under_inclusion(grid):
    rng = np.random.default_rng(4)
    traj = Trajectory(grid, grid.times,
                      rng.uniform(-1, 1, (len(grid.times),) + grid.shape))
    small = oscillation(traj, make_cylinder(0.4))
    big = oscillation(traj, make_cylinder(1.2))
    assert small <= big + 1e-15


# --- the ladder ------------------------------------------------------------------

def test_ladder_linear_field_calibration(grid):
    # F(s, y, xi) = xi scales by exactly eps per zoom, so the fitted
    # contraction factor is omega^2/27
    omega = 0.4
    traj = Trajectory.from_function(grid, grid.times, lambda t, x, v: v + 0 * x)
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    g = build_source(1, "zero")
    report = oscillation_ladder(traj, a, g, omega, n_levels=3)
    assert not report.degenerate
    assert report.mu_emp == pytest.approx(omega**2 / 27.0, abs=1e-3)
    assert report.fit_r2 > 0.9999


def test_ladder_constant_field_degenerate(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.2)
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    report = oscillation_ladder(traj, a, None, 0.4, n_levels=2)
    assert report.degenerate


def test_ladder_rejects_bad_omega(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.0)
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    with pytest.raises(ValueError):
        oscillation_ladder(traj, a, None, 0.6, n_levels=1)   # >= 1/2 for N=1


# --- the theta sequence -------------------------------------------------------------

def test_theta_sequence_fixed_point(grid):
    traj = Trajectory.from_constant(grid, grid.times, 1.0)
    rep = theta_sequence(traj, 0.25, 3)
    # every level is 1 again, so no level reaches 0 anywhere
    assert rep.measures == [0.0] * 4
    assert rep.monotone


def test_theta_sequence_measures_follow_the_affine_map(grid):
    # f = 0.8, theta = 1/4: f_1 = (0.8 - 1)/theta + 1 = 0.2 > 0, f_2 = -2.2 <= 0
    traj = Trajectory.from_constant(grid, grid.times, 0.8)
    rep = theta_sequence(traj, 0.25, 2)
    whole = level_set_measure(traj, lambda f: f > 0.0, hat_union_unit())
    assert whole > 0.0
    assert rep.measures == [0.0, 0.0, whole]


def test_theta_sequence_monotone_and_measures(grid):
    rng = np.random.default_rng(5)
    vals = rng.uniform(-0.5, 1.0, (len(grid.times),) + grid.shape)
    traj = Trajectory(grid, grid.times, vals)
    rep = theta_sequence(traj, 0.3, 4)
    assert rep.monotone
    assert rep.measures_nondecreasing


def test_theta_sequence_bounds_f_on_the_hat_union_only(grid):
    # normalize_pair bounds f <= 1 on (-3/2, 0) x B(0,1)^2 and nowhere else
    traj = Trajectory.from_function(
        grid, grid.times, lambda t, x, v: 0.5 + 2.0 * (np.abs(x) > 1.2) + 0 * v)
    rep = theta_sequence(traj, 0.25, 2)
    assert rep.monotone
    assert rep.measures_nondecreasing
    with pytest.raises(ValueError, match="hat union"):
        theta_sequence(traj.map_values(lambda f: f + 1.0), 0.25, 1)


def _whole_grid_theta_sequence(traj, theta, k_max):
    """The theta ladder built on every cell of the grid: each whole level
    and each whole difference, queried on the hat union."""
    region = hat_union_unit()
    prev = traj
    measures = [level_set_measure(traj, lambda f: f <= 0.0, region)]
    rises = []
    for _ in range(k_max):
        nxt = prev.map_values(lambda v: (v - 1.0) / theta + 1.0)
        rises.append(cylinder_node_extrema(
            Trajectory(prev.grid, prev.times, nxt.values - prev.values), region)[1])
        measures.append(level_set_measure(nxt, lambda f: f <= 0.0, region))
        prev = nxt
    return measures, all(r <= 1e-12 for r in rises)


@pytest.mark.parametrize("dim,t_min,n_t,n", [
    (1, -1.5, 48, 48),
    (1, -2.0, 18, 20),    # slices before -3/2, a slice spacing of 1/9
    (2, -1.5, 18, 18),    # the n2 benchmark grid
    (2, -1.7, 12, 13),
])
def test_theta_sequence_window_matches_whole_grid(dim, t_min, n_t, n):
    grid = PhaseGrid(dim, (t_min, 0.0), n_t, 1.5, n, 1.5, n)
    rng = np.random.default_rng(dim * 100 + n)
    vals = rng.uniform(-0.6, 1.0, (len(grid.times),) + grid.shape)
    # over 1 off the hat union, which the ladder never reads
    vals[:, np.broadcast_to(grid.expand_x(grid.rho_x > 1.2), grid.shape)] = 3.0
    # values whose image lands on the level f_k = 0 (theta = 1/4: 0.75 -> 0)
    vals[vals > 0.9] = 0.75
    traj = Trajectory(grid, grid.times, vals)
    rep = theta_sequence(traj, 0.25, 4)
    measures, monotone = _whole_grid_theta_sequence(traj, 0.25, 4)
    assert rep.measures == measures
    assert rep.monotone == monotone
    assert 0.0 < measures[0] < measures[-1]


@given(theta=st.floats(0.05, 0.45), shift=st.floats(-0.5, 0.9))
def test_theta_sequence_monotone_property(theta, shift):
    grid = PhaseGrid(1, (-1.5, 0.0), 8, 1.0, 8, 1.0, 8)
    traj = Trajectory.from_function(
        grid, grid.times,
        lambda t, x, v: np.clip(shift + 0.4 * np.sin(3 * x) * np.cos(2 * v),
                                None, 1.0))
    rep = theta_sequence(traj, theta, 3)
    assert rep.monotone
    assert rep.measures_nondecreasing


@given(mu=st.floats(0.01, 0.99), omega=st.floats(0.05, 0.45))
def test_modulus_positive_property(mu, omega):
    sigma = modulus_from_constants(mu, omega)
    assert sigma > 0.0
    # contraction strengthens the exponent at fixed omega
    assert modulus_from_constants(mu * 0.5, omega) > sigma


def test_theta_sequence_validates_inputs(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.5)
    with pytest.raises(ValueError):
        theta_sequence(traj, 0.6, 2)
    bad = Trajectory.from_constant(grid, grid.times, 1.5)
    with pytest.raises(ValueError):
        theta_sequence(bad, 0.25, 2)


# --- the isoperimetric probe ----------------------------------------------------------

def test_probe_all_negative_field(grid):
    traj = Trajectory.from_constant(grid, grid.times, -1.0)
    rep = isoperimetric_probe(traj, 0.25, 0.4, eta_iso_log10=-10.0, alpha_iso=1.0)
    assert rep.m_below == pytest.approx(rep.hat_measure, abs=1e-12)
    assert rep.m_top == 0.0
    assert rep.m_middle == 0.0
    assert rep.first_alternative           # log10(0) = -inf below any threshold
    assert not rep.flipped


def test_probe_ramp_measures_match_exhaustive_scan(grid):
    def fn(t, x, v):
        return np.clip(-1.0 - 1.5 * t, -1.0, 1.0) + 0 * x + 0 * v

    traj = Trajectory.from_function(grid, grid.times, fn)
    theta, omega = 0.25, 0.4
    rep = isoperimetric_probe(traj, theta, omega, eta_iso_log10=-10.0,
                              alpha_iso=0.25)
    assert rep.m_below > 0 and rep.m_top > 0 and rep.m_middle > 0
    # independent cell enumeration for the middle set
    union = hat_union_unit()
    mids = 0.5 * (traj.times[:-1] + traj.times[1:])
    count = 0
    mask = union.space_mask(grid)
    for i, tm in enumerate(mids):
        if not (-1.5 < tm <= 0.0):
            continue
        vals = 0.5 * (traj.values[i] + traj.values[i + 1])
        count += int(np.count_nonzero((vals > 0) & (vals < 1 - theta) & mask))
    dt_cell = float(traj.times[1] - traj.times[0])
    assert rep.m_middle == pytest.approx(count * dt_cell * grid.cell_volume,
                                         abs=1e-12)


def test_probe_flips_sign_when_needed(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.9)   # mostly positive
    rep = isoperimetric_probe(traj, 0.25, 0.4, eta_iso_log10=-10.0, alpha_iso=1.0)
    assert rep.flipped


@pytest.mark.parametrize("dim,n", [(1, 48), (2, 11)])
def test_probe_flip_measures_the_negated_field_bit_for_bit(dim, n):
    """A field with |f| <= 1, below 0 on less than half of the hat
    cylinder: the probe flips, and its three measures are those of the
    probe on -f, which does not flip, bit for bit."""
    grid = PhaseGrid(dim, (-1.5, 0.0), 24, 1.5, n, 1.5, n)

    def fn(t, *coords):
        return 0.2 - 0.8 * np.cos(3.0 * t + sum((2.0 + a) * c for a, c in enumerate(coords)))

    traj = Trajectory.from_function(grid, grid.times, fn)
    assert float(np.max(np.abs(traj.values))) <= 1.0
    probe = lambda tr: isoperimetric_probe(tr, 0.45, 0.25, eta_iso_log10=-10.0,
                                           alpha_iso=0.25)
    rep, neg = probe(traj), probe(traj.map_values(np.negative))
    assert rep.flipped and not neg.flipped
    assert (rep.m_below, rep.m_top, rep.m_middle) == (neg.m_below, neg.m_top, neg.m_middle)
    assert min(rep.m_below, rep.m_top, rep.m_middle) > 0.0


def test_probe_requires_f_below_one(grid):
    traj = Trajectory.from_constant(grid, grid.times, 1.2)
    with pytest.raises(ValueError):
        isoperimetric_probe(traj, 0.25, 0.4, eta_iso_log10=-10.0, alpha_iso=1.0)


# --- normalization, lemma constants, the fit -------------------------------------------

def test_normalize_trivial_and_reference(grid):
    zero = Trajectory.from_constant(grid, grid.times, 0.0)
    scaled, src, big_l = normalize_pair(zero, None, beta=0.1)
    assert big_l == 1.0

    ramp = Trajectory.from_function(grid, grid.times,
                                    lambda t, x, v: np.sign(x) * (abs(x) < 0.9))
    g = build_source(1, "constant", bound=0.1)
    scaled, src, big_l = normalize_pair(ramp, g, beta=0.1)
    assert big_l == pytest.approx(4.0, rel=1e-12)     # (1+1)(1+1)
    assert float(np.max(np.abs(scaled.values))) <= 1.0 + 1e-12
    assert abs(src.scale) * src.bound <= 0.1 * big_l  # |g/L| <= beta after scaling
    assert float(np.max(np.abs(src.sample(grid, -1.0)))) <= 0.1


def test_lemma_constants_relations():
    out = lemma_constants(0.4, 2.0, 1, 0.25, 1.0)
    # half the hat cylinder is 1, Q[1] is 4: the pigeonhole load is 5
    assert out["k_star"] == 6
    assert out["beta"] == pytest.approx(0.25**7, rel=1e-12)
    assert out["mu_guaranteed"] == pytest.approx(1.0 - 0.25**9, rel=1e-12)
    assert out["eta_iso_log10"] < -1000.0     # theory-faithful threshold is tiny


def test_holder_fit_sqrt_profile(grid):
    v0 = grid.v_centers[24]
    traj = Trajectory.from_function(
        grid, grid.times, lambda t, x, v: np.sqrt(np.abs(v - v0)) + 0 * x)
    # radii on node multiples of dv = 1/16, so the discrete sup is exactly
    # sqrt(r) and the quantization does not skew the slope
    fit = holder_fit(traj, base=(0.0, (0.0,), (v0,)),
                     radii=[0.5, 0.375, 0.25, 0.125, 0.0625])
    assert fit["sigma"] == pytest.approx(0.5, abs=0.05)
    assert fit["r2"] > 0.99


def test_holder_fit_degenerate_and_validation(grid):
    flat = Trajectory.from_constant(grid, grid.times, 0.3)
    fit = holder_fit(flat)
    assert fit["degenerate"]
    with pytest.raises(ValueError):
        holder_fit(flat, radii=[0.1, 0.2])


def _holder_sups_reference(traj, base, radii):
    """The per-radius sups of `holder_fit` over the whole trajectory, with
    full-size distance and deviation arrays (the form the boxed fit
    replaced)."""
    grid = traj.grid
    t0, x0, v0 = base
    it = traj.slice_index(t0)
    ix = [int(np.argmin(np.abs(grid.x_centers - c))) for c in np.atleast_1d(x0)]
    iv = [int(np.argmin(np.abs(grid.v_centers - c))) for c in np.atleast_1d(v0)]
    f0 = traj.values[(it,) + tuple(ix) + tuple(iv)]
    t0 = float(traj.times[it])
    x0 = tuple(grid.x_centers[i] for i in ix)
    v0 = tuple(grid.v_centers[i] for i in iv)
    speed = 1.0 + float(np.linalg.norm(np.atleast_1d(v0)))
    xs, vs = grid.coords()
    dist = (speed * np.abs(traj.times - t0)).reshape((-1,) + (1,) * 2 * grid.dim)
    dist = (dist + np.sqrt(sum((c - c0) ** 2 for c, c0 in zip(xs, x0)))
            + np.sqrt(sum((c - c0) ** 2 for c, c0 in zip(vs, v0))))
    dev = np.abs(traj.values - f0)
    sups = []
    for r in radii:
        sel = dist <= r
        sups.append(float(dev[sel].max()) if sel.any() else math.nan)
    return sups


@pytest.mark.parametrize("dim,n_t,n", [(1, 24, 24), (1, 48, 48), (2, 12, 13)])
def test_holder_fit_box_matches_whole_trajectory_reference(dim, n_t, n):
    grid = PhaseGrid(dim, (-1.5, 0.0), n_t, 1.5, n, 1.5, n)
    diffusion = build_diffusion(dim, 2.0, "cellwise_random", seed=3,
                                low=0.6, high=1.6, cell=0.25)
    source = build_source(dim, "noise", bound=0.3, seed=5, cell=0.25)
    rng = np.random.default_rng(dim * 100 + n)
    f0 = PhaseField(grid, -1.5, rng.uniform(-1.0, 1.0, grid.shape))
    traj = solve(f0, diffusion, source, 0.0, WHOLE_SPACE)
    c = grid.x_centers
    radii_sets = [
        [0.4, 0.2828, 0.2, 0.1414, 0.1, 0.0707, 0.05],     # the pipeline's default
        [0.5, 0.375, 0.25, 0.125, 0.0625],
        [5.0, 1.0, 0.3, 0.01],                            # past the box, below a cell
    ]
    bases = [
        (0.0, (0.0,) * dim, (0.0,) * dim),
        (0.0, (c[n // 3],) * dim, (c[2 * n // 5],) * dim),
        (0.0, (c[5 * n // 8],) * dim, (c[3 * n // 4],) * dim),
        (-0.75, (c[0],) * dim, (c[-1],) * dim),           # at the box corner
        (-1.5, (c[1], c[-2])[:dim], (c[-1], c[2])[:dim]),  # per-axis, first slice
    ]
    for radii in radii_sets:
        for base in bases:
            fit = holder_fit(traj, base=base, radii=radii)
            expected = _holder_sups_reference(traj, base, radii)
            assert len(fit["sups"]) == len(expected)
            for got, want in zip(fit["sups"], expected):
                assert got == want or (math.isnan(got) and math.isnan(want)), \
                    (radii, base)


def test_zoom_dim2_identity_and_constant():
    grid2 = PhaseGrid(2, (-1.0, 0.0), 8, 1.0, 8, 1.0, 8)
    rng = np.random.default_rng(9)
    traj = Trajectory(grid2, grid2.times,
                      rng.uniform(-1, 1, (len(grid2.times),) + grid2.shape))
    a2 = build_diffusion(2, 2.0, "constant", value=1.0)
    ident = zoom(traj, ScalingMap(1.0, 0.0, (0.0, 0.0), (0.0, 0.0)), a2, None,
                 zoom_grid=grid2)
    assert np.array_equal(ident.data.values, traj.values)
    const = Trajectory.from_constant(grid2, grid2.times, 0.4)
    small = zoom(const, ScalingMap(0.5, 0.0, (0.0, 0.0), (0.0, 0.0)), a2, None,
                 zoom_grid=PhaseGrid(2, (-1.0, 0.0), 8, 1.0, 8, 1.0, 8))
    assert np.allclose(small.data.values, 0.4, atol=1e-14)


def test_modulus_values_and_monotonicity():
    omega = 0.4
    assert modulus_from_constants(omega**2 / 27.0, omega) == pytest.approx(1.0,
                                                                           rel=1e-12)
    expect = math.log(0.9) / math.log(0.16 / 27.0)
    assert modulus_from_constants(0.9, 0.4) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.02054, abs=1e-5)
    sigmas = [modulus_from_constants(mu, 0.4) for mu in (0.9, 0.7, 0.5, 0.3)]
    assert all(b > a for a, b in zip(sigmas, sigmas[1:]))
    assert modulus_from_constants(0.999999, 0.4) < 1e-4   # mu -> 1 gives sigma -> 0
    with pytest.raises(ValueError):
        modulus_from_constants(1.1, 0.4)
