import math

import numpy as np
import pytest

from kfplab.averaging import (
    SpectralField,
    averaging_estimate_audit,
    frac_norm,
    interpolation_audit,
    velocity_average,
)
from kfplab.fields import Trajectory
from kfplab.geometry import DyadicLevel, PhaseGrid, dyadic_time


@pytest.fixture(scope="module")
def grid():
    return PhaseGrid(1, (-1.0, 0.0), 16, 1.0, 32, 1.0, 32)


def mode_trajectory(grid, m_v, m_x=0, m_t=0):
    """A pure Fourier mode of the unpadded box (used with pad = 1)."""
    lt = grid.times[-1] - grid.times[0] + (grid.times[1] - grid.times[0])

    def fn(t, x, v):
        return (np.sin(2 * np.pi * m_v * (v + grid.v_max) / (2 * grid.v_max))
                * np.cos(2 * np.pi * m_x * (x + grid.x_max) / (2 * grid.x_max))
                * np.cos(2 * np.pi * m_t * (t - grid.times[0]) / lt)
                + 0 * x)

    # drop the duplicate final slice so the time axis is exactly periodic
    times = grid.times[:-1]
    return Trajectory(grid, times, Trajectory.from_function(grid, times, fn).values)


def test_plancherel_random_field(grid):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(8,) + grid.shape)
    vals[:, :3] = vals[:, -3:] = 0.0   # keep support off the box edge
    vals[..., :3] = vals[..., -3:] = 0.0
    traj = Trajectory(grid, grid.times[:8], vals)
    sf = SpectralField.from_trajectory(traj, warn_boundary=False)
    dt_slice = grid.times[1] - grid.times[0]
    direct = math.sqrt(np.sum(vals**2) * dt_slice * grid.cell_volume)
    assert sf.l2_norm() == pytest.approx(direct, rel=1e-12)
    assert sf.frac_norm("v", 0.0) == pytest.approx(direct, rel=1e-12)
    assert sf.frac_norm("t", 0.0) == pytest.approx(direct, rel=1e-12)


def padded_fft_norm(vals, spacings, axes, pad, s):
    """Reference: the multiplier |k_axes|^s on the full zero-padded fftn."""
    shape = tuple(pad * n for n in vals.shape)
    power = np.abs(np.fft.fftn(vals, s=shape, axes=range(vals.ndim))) ** 2
    k_sq = np.zeros((1,) * vals.ndim)
    for ax in axes:
        n = shape[ax]
        k_ax = 2.0 * np.pi * np.abs(np.fft.fftfreq(n) * n) / (spacings[ax] * n)
        k_sq = k_sq + np.expand_dims(k_ax**2, [a for a in range(vals.ndim) if a != ax])
    return math.sqrt(np.sum(k_sq**s * power) / power.size * np.prod(spacings))


SHAPES = {"N=1 odd": (7, 9, 11), "N=1 even": (6, 10, 12),
          "N=2 odd": (5, 5, 7, 7, 5), "N=2 even": (4, 6, 4, 6, 4)}


def random_spectral_case(shape, seed=3):
    rng = np.random.default_rng(seed)
    dim = (len(shape) - 1) // 2
    spacings = tuple(rng.uniform(0.05, 0.3, size=len(shape)))
    groups = {"t": (0,), "x": tuple(range(1, 1 + dim)),
              "v": tuple(range(1 + dim, 1 + 2 * dim))}
    return rng.normal(size=shape), spacings, groups


@pytest.mark.parametrize("pad", [1, 2])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_marginal_norms_match_full_padded_fft(shape, pad):
    vals, spacings, groups = random_spectral_case(shape)
    sf = SpectralField.from_values(vals, spacings, groups, pad=pad,
                                   warn_boundary=False)
    for group, axes in groups.items():
        for s in (0.0, 1.0 / 3.0, 1.0):
            ref = padded_fft_norm(vals, spacings, axes, pad, s)
            assert sf.frac_norm(group, s) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("pad", [1, 2])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_plancherel_against_physical_space(shape, pad):
    vals, spacings, groups = random_spectral_case(shape, seed=4)
    sf = SpectralField.from_values(vals, spacings, groups, pad=pad,
                                   warn_boundary=False)
    direct = math.sqrt(np.sum(vals**2) * np.prod(spacings))
    assert sf.l2_norm() == pytest.approx(direct, rel=1e-12)
    for group in groups:
        assert sf.frac_norm(group, 0.0) == pytest.approx(direct, rel=1e-12)


def test_single_mode_frac_norm_analytic(grid):
    m = 3
    traj = mode_trajectory(grid, m_v=m)
    sf = SpectralField.from_trajectory(traj, pad=1, warn_boundary=False)
    l_v = 2.0 * grid.v_max
    expect = (2.0 * np.pi * m / l_v) ** (1.0 / 3.0) * sf.l2_norm()
    assert sf.frac_norm("v", 1.0 / 3.0) == pytest.approx(expect, rel=1e-12)
    # the x and t spectra are a single mode too (m = 0): their fractional
    # norms vanish because the zero mode maps to zero
    assert sf.frac_norm("x", 1.0 / 3.0) == pytest.approx(0.0, abs=1e-12)


def test_zero_field_norms(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.0)
    sf = SpectralField.from_trajectory(traj, warn_boundary=False)
    norms = [sf.l2_norm()] + [sf.frac_norm(group, s) for group in ("t", "x", "v")
                              for s in (0.0, 1.0 / 3.0, 1.0)]
    # +0.0, not -0.0: the barrier rows of a run with a zero barrier print them
    assert all(n == 0.0 and math.copysign(1.0, n) == 1.0 for n in norms)


def test_frac_norm_reads_a_sum_rounded_below_zero_as_zero():
    # an empty mode's marginal may come out a rounding error below zero
    k_sq, power = np.array([0.0, 4.0]), np.array([0.0, -1e-30])
    sf = SpectralField(power.copy(), {"v": (k_sq, power)}, 0.0, 1.0)
    for s in (0.0, 1.0 / 3.0, 1.0):
        norm = sf.frac_norm("v", s)
        assert norm == 0.0 and math.copysign(1.0, norm) == 1.0


# --- the autocorrelation path against an independent padded fftn ------------------

@pytest.mark.parametrize("pad", [1, 2])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_autocorrelation_marginals_match_padded_fftn(shape, pad, padded_fftn_check):
    # pad = 1 wraps every lag; on N = 2 the x group sits between t and v
    vals, spacings, groups = random_spectral_case(shape, seed=5)
    sf = SpectralField.from_values(vals, spacings, groups, pad=pad,
                                   warn_boundary=False)
    padded_fftn_check(sf, vals, spacings, groups, pad)


@pytest.mark.parametrize("pad", [1, 2])
@pytest.mark.parametrize("shape", [SHAPES["N=1 odd"], SHAPES["N=2 even"]],
                         ids=["N=1", "N=2"])
def test_autocorrelation_marginals_in_a_larger_box(shape, pad, padded_fftn_check):
    vals, spacings, groups = random_spectral_case(shape, seed=6)
    box = tuple(n + 3 for n in shape)
    sf = SpectralField.from_values(vals, spacings, groups, pad=pad,
                                   warn_boundary=False, box=box)
    padded_fftn_check(sf, vals, spacings, groups, pad, box=box)


def test_from_values_rejects_groups_it_cannot_correlate():
    vals, spacings, _ = random_spectral_case(SHAPES["N=2 odd"])
    with pytest.raises(ValueError, match="consecutive"):
        SpectralField.from_values(vals, spacings, {"x": (1, 3)}, warn_boundary=False)
    with pytest.raises(ValueError, match="shorter"):
        SpectralField.from_values(vals, spacings, {"t": (0,)}, pad=1,
                                  warn_boundary=False, box=(4,) + vals.shape[1:])


def _window_case(seed=7):
    """A random N = 2 trajectory and its level-1 window, a strided view."""
    grid = PhaseGrid(2, (-1.5, 0.0), 8, 1.5, 9, 1.5, 10)
    rng = np.random.default_rng(seed)
    traj = Trajectory(grid, grid.times, rng.normal(size=(len(grid.times),) + grid.shape))
    window = traj.window(dyadic_time(0), DyadicLevel(1).outer_radius)
    assert not window.values.flags.c_contiguous
    assert np.shares_memory(window.values, traj.values)
    spacings = (float(grid.times[1] - grid.times[0]),) + (grid.dx,) * 2 + (grid.dv,) * 2
    groups = {"t": (0,), "x": (1, 2), "v": (3, 4)}
    return window, spacings, groups, (window.n_slices,) + grid.shape


def test_autocorrelation_marginals_of_a_window_view(padded_fftn_check):
    window, spacings, groups, box = _window_case()
    assert window.values.shape[1:] != box[1:]
    # every group sums one Gram product per index of its first other axis,
    # t over x_1, x and v over t, and each sum has several
    assert min(window.n_slices, window.values.shape[1]) > 1
    sf = SpectralField.from_trajectory(window, warn_boundary=False)
    padded_fftn_check(sf, window.values, spacings, groups, 2, box=box)


def test_spectra_do_not_depend_on_the_layout(padded_fftn_check, laid_out):
    """Each slice's squares and each index's Gram product are taken on
    buffers of their own, so `l2_sq` is the same sum bit for bit however
    the stored slices are laid out, and the marginals match the reference."""
    window, spacings, groups, box = _window_case(seed=8)
    whole = Trajectory(window.grid, window.times, np.array(window.values))
    laid = laid_out(whole)
    sf = SpectralField.from_trajectory(laid, warn_boundary=False)
    padded_fftn_check(sf, laid.values, spacings, groups, 2, box=box)
    assert sf.l2_sq == SpectralField.from_trajectory(whole, warn_boundary=False).l2_sq


def test_interpolation_equality_single_mode(grid):
    traj = mode_trajectory(grid, m_v=2)
    sf = SpectralField.from_trajectory(traj, pad=1, warn_boundary=False)
    lhs, rhs = interpolation_audit(sf)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_interpolation_strict_inequality_two_modes(grid):
    # equal-weight modes m = 1 and m = 4: compute both sides directly from
    # the two-term spectra and compare with the module
    l_v = 2.0 * grid.v_max
    w1, w4 = 2 * np.pi * 1 / l_v, 2 * np.pi * 4 / l_v
    traj1 = mode_trajectory(grid, m_v=1)
    traj4 = mode_trajectory(grid, m_v=4)
    combined = Trajectory(grid, traj1.times, traj1.values + traj4.values)
    sf = SpectralField.from_trajectory(combined, pad=1, warn_boundary=False)
    lhs, rhs = interpolation_audit(sf)
    n_sq = SpectralField.from_trajectory(traj1, pad=1,
                                         warn_boundary=False).l2_norm() ** 2
    lhs_direct = math.sqrt(w1 ** (2 / 3) * n_sq + w4 ** (2 / 3) * n_sq)
    l2_direct = math.sqrt(2 * n_sq)
    dv_direct = math.sqrt(w1**2 * n_sq + w4**2 * n_sq)
    rhs_direct = l2_direct ** (2 / 3) * dv_direct ** (1 / 3)
    assert lhs == pytest.approx(lhs_direct, rel=1e-10)
    assert rhs == pytest.approx(rhs_direct, rel=1e-10)
    assert lhs < rhs * (1.0 - 1e-3)


def test_interpolation_inequality_random_fields(grid):
    rng = np.random.default_rng(5)
    for _ in range(5):
        vals = rng.normal(size=(8,) + grid.shape)
        vals[:, :2] = vals[:, -2:] = 0.0
        vals[..., :2] = vals[..., -2:] = 0.0
        traj = Trajectory(grid, grid.times[:8], vals)
        lhs, rhs = interpolation_audit(traj, warn_boundary=False)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_frac_norm_monotone_in_order(grid):
    # every occupied frequency has |2 pi m / L| >= 2 pi / 2 > 1, so the
    # norm is nondecreasing in the fractional order
    traj = mode_trajectory(grid, m_v=2)
    combined = Trajectory(grid, traj.times,
                          traj.values + mode_trajectory(grid, m_v=5).values)
    sf = SpectralField.from_trajectory(combined, pad=1, warn_boundary=False)
    orders = [0.2, 0.4, 0.6, 0.8, 1.0]
    norms = [sf.frac_norm("v", s) for s in orders]
    assert all(b >= a for a, b in zip(norms, norms[1:]))


def test_frac_norm_validates_order(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.0)
    with pytest.raises(ValueError):
        frac_norm(traj, "v", 1.5)
    with pytest.raises(ValueError):
        frac_norm(traj, "w", 0.5)


def test_boundary_support_warns(grid):
    vals = np.ones((4,) + grid.shape)
    traj = Trajectory(grid, grid.times[:4], vals)
    with pytest.warns(UserWarning, match="alias"):
        SpectralField.from_trajectory(traj)


def test_averaging_estimate_audit_degenerate(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.0)
    sf = SpectralField.from_trajectory(traj, warn_boundary=False)
    est = averaging_estimate_audit(sf, 0.0, 0.0, 2.0, 1.0)
    assert est.degenerate
    assert math.isnan(est.ratio)


def test_velocity_average_recovers_v_independent_profile(grid):
    def fn(t, x, v):
        return np.sin(2 * np.pi * x / 2.0) + 0 * v

    traj = Trajectory.from_function(grid, grid.times, fn)
    phi = np.maximum(1 - (grid.v_centers / 0.8) ** 2, 0.0) ** 2
    phi /= phi.sum() * grid.dv          # discrete integral feeds through exactly
    out = velocity_average(traj, phi)
    profile = np.sin(2 * np.pi * grid.x_centers / 2.0)
    for i in range(len(grid.times)):
        assert np.max(np.abs(out["average"][i] - profile)) < 1e-12


def test_velocity_average_odd_even_cancellation(grid):
    traj = Trajectory.from_function(grid, grid.times, lambda t, x, v: v + 0 * x)
    phi = np.maximum(1 - (grid.v_centers / 0.8) ** 2, 0.0) ** 2
    out = velocity_average(traj, phi)
    assert np.max(np.abs(out["average"])) < 1e-12


def test_velocity_average_smoothing_gain_on_transport_data(grid):
    # free-streaming data rough in x: f(t,x,v) = profile(x - v t); the
    # v-average mixes phases and is smoother in x than f itself
    def fn(t, x, v):
        return np.tanh(np.sin(2 * np.pi * (x - v * t) / 2.0) / 0.1)

    traj = Trajectory.from_function(grid, grid.times, fn)
    phi = np.maximum(1 - (grid.v_centers / 0.9) ** 2, 0.0) ** 2
    out = velocity_average(traj, phi)
    assert out["gain"] > 1.0


def test_velocity_average_requires_compact_phi(grid):
    traj = Trajectory.from_constant(grid, grid.times, 1.0)
    with pytest.raises(ValueError):
        velocity_average(traj, np.ones(grid.v_shape))


def test_velocity_average_dim2_smoke():
    g2 = PhaseGrid(2, (-1.0, 0.0), 8, 1.0, 8, 1.0, 8)
    traj = Trajectory.from_function(
        g2, g2.times, lambda t, x1, x2, v1, v2: np.sin(np.pi * x1) + 0 * v1 * v2 * x2)
    inner = np.maximum(1 - (g2.v_centers / 0.7) ** 2, 0.0)
    phi = inner[:, None] * inner[None, :]
    phi /= phi.sum() * g2.dv**2
    out = velocity_average(traj, phi)
    profile = np.sin(np.pi * g2.x_centers)[:, None] * np.ones((1, 8))
    assert np.max(np.abs(out["average"][0] - profile)) < 1e-12


def test_velocity_average_dim2_checks_every_v_edge():
    g2 = PhaseGrid(2, (-1.0, 0.0), 8, 1.0, 8, 1.0, 8)
    traj = Trajectory.from_constant(g2, g2.times, 1.0)
    inner = np.maximum(1 - (g2.v_centers / 0.7) ** 2, 0.0)
    phi = inner[:, None] * np.ones((1, 8))     # non-zero on the v_2 edges
    for candidate in (phi, phi.T):
        with pytest.raises(ValueError, match="compactly supported"):
            velocity_average(traj, candidate)
