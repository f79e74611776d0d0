import numpy as np
import pytest
from hypothesis import given, strategies as st

from kfplab.fields import Trajectory
from kfplab.geometry import (
    Cylinder,
    DyadicLevel,
    GeometryError,
    PhaseGrid,
    ball_volume,
    cell_grad_v,
    cutoff_eval,
    cutoff_slope,
    cylinder_integral,
    cylinder_node_extrema,
    dyadic_params,
    dyadic_radius,
    dyadic_time,
    face_divergence,
    grad_v_sq_density,
    hat_cylinder,
    hat_union_unit,
    level_set_measure,
    make_cylinder,
)
from kfplab.solver import grad_v_sq_sum


# --- cylinders ---------------------------------------------------------------

def test_standard_cylinder_measures():
    assert make_cylinder(1.5).measure(1) == pytest.approx(13.5, abs=1e-14)
    assert make_cylinder(1.0).measure(1) == pytest.approx(4.0, abs=1e-14)
    assert hat_cylinder().measure(1) == pytest.approx(2.0, abs=1e-14)
    # dim 2: r * (pi r^2)^2
    assert make_cylinder(1.0).measure(2) == pytest.approx(np.pi**2, rel=1e-14)


def test_cylinder_rejects_bad_radius():
    with pytest.raises(GeometryError):
        make_cylinder(0.0)
    with pytest.raises(GeometryError):
        make_cylinder(-1.0)


def test_measure_monotone_in_radius():
    radii = [0.25, 0.5, 1.0, 1.25, 1.5]
    measures = [make_cylinder(r).measure(1) for r in radii]
    assert all(b > a for a, b in zip(measures, measures[1:]))


def test_measure_additive_under_time_splitting():
    r = 1.2
    whole = make_cylinder(r)
    early = Cylinder(-r, -0.4, radius=r)
    late = Cylinder(-0.4, 0.0, radius=r)
    assert early.measure(1) + late.measure(1) == pytest.approx(whole.measure(1), abs=1e-14)


def test_hat_union_covers_both_pieces():
    u = hat_union_unit()
    assert u.measure(1) == pytest.approx(hat_cylinder().measure(1)
                                         + make_cylinder(1.0).measure(1), abs=1e-14)


# --- dyadic sequences --------------------------------------------------------

def test_dyadic_params_exact_values():
    assert dyadic_params(0) == (-1.0, 1.0, 0.0)
    assert dyadic_params(1) == (-0.75, 0.75, 0.25)
    t, r, c = dyadic_params(60)
    assert t == pytest.approx(-0.5, abs=1e-15)
    assert r == pytest.approx(0.5, abs=1e-15)
    assert c == pytest.approx(0.5, abs=1e-15)


def test_dyadic_radius_allows_minus_one_only():
    assert dyadic_radius(-1) == 1.5
    assert dyadic_time(-1) == -1.5
    with pytest.raises(GeometryError):
        dyadic_params(-1)
    with pytest.raises(GeometryError):
        dyadic_radius(-2)


def test_dyadic_recurrences_exact():
    for k in range(0, 20):
        assert dyadic_time(k + 1) - dyadic_time(k) == 2.0 ** (-k - 2)
        assert dyadic_radius(k) - dyadic_radius(k + 1) == 2.0 ** (-k - 2)
    for k in range(1, 20):
        gap = DyadicLevel(k).truncation - DyadicLevel(k - 1).truncation
        assert gap == 2.0 ** (-k - 1)


# --- cutoffs -----------------------------------------------------------------

def test_cutoff_plateau_and_support():
    lev = DyadicLevel(1)
    assert cutoff_eval(lev, 0.0) == 1.0
    assert cutoff_eval(lev, 0.75) == 1.0          # closed ball of radius R_1
    assert cutoff_eval(lev, 1.01) == 0.0          # outside B_0
    assert 0.0 < cutoff_eval(lev, 0.9) < 1.0      # transition annulus


def test_cutoff_point_evaluation_uses_norm():
    lev = DyadicLevel(2)
    assert cutoff_eval(lev, [0.4, 0.3]) == 1.0      # |p| = 0.5 < R_2 = 0.625
    assert cutoff_eval(lev, [0.6, 0.45]) == 0.0     # |p| = 0.75 = R_1 boundary


def test_cutoff_slope_bound_with_margin():
    for k in (0, 1, 2, 3):
        lev = DyadicLevel(k)
        rho = np.linspace(0.0, 2.0, 20001)
        slopes = np.abs(lev.eta_slope(rho))
        assert slopes.max() <= lev.slope_bound
        # the quintic profile peaks at (15/8) 2^{k+1} = (15/16) of the budget
        assert slopes.max() == pytest.approx(0.9375 * lev.slope_bound, rel=1e-3)


def test_cutoff_slope_matches_finite_difference():
    lev = DyadicLevel(1)
    rho = np.linspace(0.7, 1.05, 501)
    h = 1e-6
    fd = (lev.eta(rho + h) - lev.eta(rho - h)) / (2 * h)
    assert np.max(np.abs(fd - lev.eta_slope(rho))) < 1e-6


@pytest.mark.parametrize("dim", [1, 2])
def test_v_dot_grad_eta_x_matches_finite_difference(dim):
    grid = PhaseGrid(dim, (-1.0, 0.0), 4, 1.5, 15, 1.5, 8)
    lev = DyadicLevel(1)
    xs, vs = grid.coords()
    h = 1e-6

    def eta_shifted(axis, step):
        return lev.eta(np.sqrt(sum((x + (step if b == axis else 0.0)) ** 2
                                   for b, x in enumerate(xs))))

    ref = sum(vs[a] * (eta_shifted(a, h) - eta_shifted(a, -h)) / (2 * h)
              for a in range(dim))
    got = lev.v_dot_grad_eta_x(grid)
    assert got.shape == grid.shape
    assert np.max(np.abs(got)) > 1.0          # the annulus is resolved
    assert np.max(np.abs(got - ref)) < 1e-5


def test_cutoff_sandwich_on_grid_nodes(grid64):
    for k in (1, 2, 3):
        lev = DyadicLevel(k)
        eta = lev.eta(grid64.rho_v)
        inner = (grid64.rho_v <= lev.radius).astype(float)
        outer = (grid64.rho_v <= lev.outer_radius).astype(float)
        assert np.all(inner <= eta + 1e-15)
        assert np.all(eta <= outer + 1e-15)


def test_cutoff_profile_is_c2_at_joints():
    lev = DyadicLevel(1)
    h = 1e-5
    for joint in (lev.radius, lev.outer_radius):
        s_in = cutoff_slope(joint - h, lev.radius, lev.outer_radius)
        s_out = cutoff_slope(joint + h, lev.radius, lev.outer_radius)
        assert abs(s_in - s_out) < 1e-3   # slope continuous across the joint


# --- level-set measures ------------------------------------------------------

def test_level_set_measure_full_and_empty(grid48):
    ones = Trajectory.from_constant(grid48, grid48.times, 1.0)
    neg = Trajectory.from_constant(grid48, grid48.times, -1.0)
    q1 = make_cylinder(1.0)
    assert level_set_measure(ones, lambda f: f > 0, q1) == pytest.approx(4.0, abs=1e-12)
    assert level_set_measure(neg, lambda f: f > 0, q1) == 0.0


def test_level_set_measure_against_monte_carlo(grid48):
    rng = np.random.default_rng(11)

    def fn(t, x, v):
        return (np.sin(3 * x + 2 * t) * np.cos(2 * v)
                + 0.3 * np.sin(7 * x * v))

    traj = Trajectory.from_function(grid48, grid48.times, fn)
    region = make_cylinder(1.0)
    measured = level_set_measure(traj, lambda f: f > 0.2, region)

    # Monte-Carlo oracle: uniform points, evaluated through the same
    # cell-indicator rule (nearest cell, midpoint-in-time averaged value)
    n_mc = 200_000
    ts = rng.uniform(-1.0, 0.0, n_mc)
    xs = rng.uniform(-1.0, 1.0, n_mc)
    vs = rng.uniform(-1.0, 1.0, n_mc)
    dt_cell = grid48.times[1] - grid48.times[0]
    it = np.clip(((ts - grid48.times[0]) / dt_cell).astype(int), 0,
                 len(grid48.times) - 2)
    ix = np.clip(((xs + grid48.x_max) / grid48.dx).astype(int), 0, grid48.n_x - 1)
    iv = np.clip(((vs + grid48.v_max) / grid48.dv).astype(int), 0, grid48.n_v - 1)
    vals = 0.5 * (traj.values[it, ix, iv] + traj.values[it + 1, ix, iv])
    hits = vals > 0.2
    p = hits.mean()
    mc = p * region.measure(1)
    mc_err = region.measure(1) * np.sqrt(p * (1 - p) / n_mc)
    cell_vol = dt_cell * grid48.cell_volume
    assert abs(measured - mc) <= 2.0 * (mc_err + cell_vol)


@given(c1=st.floats(-1.0, 1.0), gap=st.floats(0.0, 1.0))
def test_level_set_measure_monotone_in_threshold(c1, gap):
    grid = PhaseGrid(1, (-1.0, 0.0), 8, 1.0, 16, 1.0, 16)
    traj = Trajectory.from_function(
        grid, grid.times, lambda t, x, v: np.sin(5 * x) + v + 0.5 * t)
    region = make_cylinder(0.75)
    hi = level_set_measure(traj, lambda f: f > c1 + gap, region)
    lo = level_set_measure(traj, lambda f: f > c1, region)
    assert hi <= lo + 1e-15


def test_level_set_region_outside_domain(grid48):
    traj = Trajectory.from_constant(grid48, grid48.times, 1.0)
    # no cell centre of the even 48-cell grid lies within half a cell of 0
    tiny = Cylinder(-1.0, 0.0, radius=0.49 * grid48.dx)
    assert not tiny.intersects_grid(grid48, grid48.times)
    with pytest.raises(GeometryError):
        level_set_measure(traj, lambda f: f > 0, tiny)


def test_cylinder_integral_constant_field(grid48):
    traj = Trajectory.from_constant(grid48, grid48.times, 2.0)
    val = cylinder_integral(traj, lambda f: f**2, make_cylinder(1.0))
    assert val == pytest.approx(4.0 * 4.0, abs=1e-12)


def test_cylinder_node_extrema(grid48):
    traj = Trajectory.from_function(grid48, grid48.times,
                                    lambda t, x, v: v + 0 * x)
    lo, hi, count = cylinder_node_extrema(traj, make_cylinder(1.0))
    assert count > 0
    assert hi - lo == pytest.approx(2.0, abs=2 * grid48.dv)


# --- grids -------------------------------------------------------------------

def test_grid_invariants():
    with pytest.raises(GeometryError):
        PhaseGrid(1, (-1.0, 0.0), 3, 1.5, 64, 1.5, 64)
    with pytest.raises(GeometryError):
        PhaseGrid(1, (0.0, 0.0), 8, 1.5, 16, 1.5, 16)
    with pytest.raises(GeometryError):
        PhaseGrid(3, (-1.0, 0.0), 8, 1.5, 16, 1.5, 16)
    g = PhaseGrid(2, (-1.0, 0.0), 8, 1.0, 8, 2.0, 12)
    assert g.shape == (8, 8, 12, 12)
    assert g.dx > 0 and g.dv > 0 and g.dt > 0
    assert ball_volume(2, 1.0) == pytest.approx(np.pi)


def test_odd_grid_has_center_node():
    g = PhaseGrid(1, (-1.0, 0.0), 8, 1.0, 15, 1.0, 15)
    assert abs(g.x_centers[7]) < 1e-15
    assert abs(g.v_centers[7]) < 1e-15


# --- the discrete v-calculus ---------------------------------------------------------

CALCULUS_GRIDS = {1: PhaseGrid(1, (-1.5, 0.0), 8, 1.5, 12, 1.5, 17),
                  2: PhaseGrid(2, (-1.5, 0.0), 8, 1.5, 6, 1.5, 9)}


@pytest.mark.parametrize("dim", [1, 2])
def test_cell_gradient_is_negative_adjoint_of_face_divergence(dim):
    grid = CALCULUS_GRIDS[dim]
    rng = np.random.default_rng(11 + dim)
    s = rng.normal(size=grid.shape)
    g = rng.normal(size=grid.shape)
    for ax in range(dim):
        lhs = float(np.sum(s * cell_grad_v(grid, g, ax)))
        rhs = -float(np.sum(face_divergence(grid, s, ax) * g))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        # in the interior the cell gradient is the centered difference
        inner = [slice(None)] * g.ndim
        inner[dim + ax] = slice(1, -1)
        inner = tuple(inner)
        assert np.allclose(cell_grad_v(grid, g, ax)[inner],
                           np.gradient(g, grid.dv, axis=dim + ax)[inner],
                           rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_grad_v_sq_density_sums_to_face_seminorm(dim):
    grid = CALCULUS_GRIDS[dim]
    rng = np.random.default_rng(21 + dim)
    f = rng.normal(size=(3,) + grid.shape)
    density = grad_v_sq_density(grid, f)
    assert density.shape == f.shape and np.all(density >= 0.0)
    for i in range(3):
        expected = grad_v_sq_sum(grid, f[i]) / grid.cell_volume
        assert float(np.sum(density[i])) == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(density[i], grad_v_sq_density(grid, f[i]))
