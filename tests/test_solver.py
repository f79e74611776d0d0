import numpy as np
import pytest

from kfplab.coefficients import build_diffusion, build_source
from kfplab.degiorgi import BarrierSource, LevelPass
from kfplab.fields import PhaseField, Trajectory
from kfplab.geometry import PhaseGrid, DyadicLevel
from kfplab.solver import (
    CFLError,
    WHOLE_SPACE,
    BoundaryCondition,
    kinetic_ibvp,
    _ImplicitDiffusion,
    _TransportPlan,
    comparison_check,
    energy_budget,
    local_energy_check,
    second_moments,
    solve,
    solve_barrier_ibvp,
    step,
)


@pytest.fixture(scope="module")
def grid():
    return PhaseGrid(1, (-1.5, 0.0), 48, 1.5, 64, 1.5, 64)


@pytest.fixture(scope="module")
def rough_a():
    return build_diffusion(1, 2.0, "checkerboard", values=(0.6, 1.5), cell=0.25)


@pytest.fixture(scope="module")
def zero_g():
    return build_source(1, "zero")


# --- exact fixed points and forced growth ------------------------------------

def test_constants_are_fixed_points(grid, rough_a, zero_g):
    f = PhaseField.constant(grid, -1.5, 0.7)
    out = step(f, rough_a, zero_g, grid.dt, WHOLE_SPACE)
    assert np.max(np.abs(out.values - 0.7)) < 1e-12
    traj = solve(f, rough_a, zero_g, 0.0, WHOLE_SPACE)
    assert np.max(np.abs(traj.values[-1] - 0.7)) < 1e-12


def test_homogeneous_source_gives_linear_growth(grid, rough_a):
    g1 = build_source(1, "constant", bound=1.0)
    f = PhaseField.constant(grid, -1.5, 0.0)
    traj = solve(f, rough_a, g1, 0.0, WHOLE_SPACE)
    for i, t in enumerate(traj.times):
        assert np.max(np.abs(traj.values[i] - (t + 1.5))) < 1e-12


# --- maximum principle and conservation --------------------------------------

def test_diffusion_substep_maximum_principle(grid, rough_a):
    rng = np.random.default_rng(0)
    vals = rng.uniform(-1.0, 2.0, grid.shape)
    coeffs = rough_a.sample(grid, -0.5)
    out, _ = _ImplicitDiffusion(grid, grid.dt)(vals.copy(), coeffs)  # solves in place
    assert out.max() <= vals.max() + 1e-13
    assert out.min() >= vals.min() - 1e-13


def test_step_maximum_principle_linear_interp(grid, rough_a, zero_g):
    rng = np.random.default_rng(1)
    f = PhaseField(grid, -1.5, rng.uniform(-0.5, 1.0, grid.shape))
    out = step(f, rough_a, zero_g, grid.dt, WHOLE_SPACE)
    assert out.values.max() <= f.values.max() + 1e-13
    assert out.values.min() >= f.values.min() - 1e-13


def test_transport_conserves_mass_periodic(grid):
    rng = np.random.default_rng(2)
    vals = rng.uniform(0.0, 1.0, grid.shape)
    out = _TransportPlan(grid, 0.5 * grid.dt, periodic=True, cubic=False)(vals)
    assert np.sum(out) == pytest.approx(np.sum(vals), rel=1e-13)
    out_c = _TransportPlan(grid, 0.5 * grid.dt, periodic=True, cubic=True)(vals)
    assert np.sum(out_c) == pytest.approx(np.sum(vals), rel=1e-13)


def test_cfl_violation_raises(grid, rough_a, zero_g):
    f = PhaseField.constant(grid, -1.5, 0.0)
    with pytest.raises(CFLError):
        step(f, rough_a, zero_g, 10.0 * grid.dt, WHOLE_SPACE)


def test_solve_is_deterministic(grid, rough_a):
    g = build_source(1, "noise", bound=0.3, cell=0.25, seed=5)
    x = grid.x_centers[:, None]
    v = grid.v_centers[None, :]
    f0 = PhaseField(grid, -1.5, 0.5 * np.sin(2 * np.pi * x / 3) * np.exp(-4 * v**2))
    t1 = solve(f0, rough_a, g, 0.0, WHOLE_SPACE)
    t2 = solve(f0, rough_a, g, 0.0, WHOLE_SPACE)
    assert np.array_equal(t1.values, t2.values)


@pytest.mark.parametrize("interp", ["linear", "cubic"])
@pytest.mark.parametrize("kind", ["modes", "bump", "point"])
def test_solve_is_affine_in_initial_data(rough_a, interp, kind):
    # the identity the pipeline's bisection rests on:
    # solve(a u, g) = solve(0, g) + a solve(u, None)
    from kfplab.config import RunConfig
    from kfplab.pipeline import build_initial
    small = PhaseGrid(1, (-1.5, 0.0), 24, 1.5, 24, 1.5, 24)
    g = build_source(1, "noise", bound=0.3, cell=0.25, seed=5)
    cfg = RunConfig(seed=3, initial_kind=kind)

    def run(amplitude, source):
        f0 = build_initial(cfg, small, amplitude=amplitude)
        return solve(f0, rough_a, source, 0.0, WHOLE_SPACE, interp=interp).values

    forced = run(0.0, g)
    unit = run(1.0, None)
    for a in (0.01, 0.7, 3.3):
        direct = run(a, g)
        defect = np.max(np.abs(forced + a * unit - direct))
        assert defect <= 1e-12 * np.max(np.abs(direct))


# --- the Kolmogorov moment oracle ---------------------------------------------

def kolmogorov_moment_oracle(t_values):
    """Integrate d(m_vv)/dt = 2, d(m_xv)/dt = m_vv, d(m_xx)/dt = 2 m_xv
    from zero initial moments with fine explicit steps (independent of the
    closed forms 2t, t^2, 2t^3/3 it reproduces)."""
    out = {}
    m_xx = m_xv = m_vv = 0.0
    t = 0.0
    h = 1e-5
    targets = sorted(t_values)
    for target in targets:
        while t < target - h / 2:
            m_xx += h * 2 * (m_xv + h / 2 * m_vv)    # midpoint
            m_xv += h * (m_vv + h)
            m_vv += h * 2
            t += h
        out[target] = (m_xx, m_xv, m_vv)
    return out


def test_kolmogorov_moments_match_oracle():
    t_end = 0.25
    grid = PhaseGrid(1, (0.0, t_end), 48, 3.5, 95, 6.0, 95)
    ident = build_diffusion(1, 2.0, "constant", value=1.0)
    gz = build_source(1, "zero")
    vals = np.zeros(grid.shape)
    vals[47, 47] = 1.0 / grid.cell_volume
    traj = solve(PhaseField(grid, 0.0, vals), ident, gz, t_end, WHOLE_SPACE,
                 dt=t_end / 48, interp="cubic")
    m = second_moments(traj.field(traj.n_slices - 1))
    oracle = kolmogorov_moment_oracle([t_end])[t_end]
    assert m["xx"] == pytest.approx(oracle[0], rel=0.02)
    assert m["xv"] == pytest.approx(oracle[1], rel=0.02)
    assert m["vv"] == pytest.approx(oracle[2], rel=0.02)
    assert m["mass"] == pytest.approx(1.0, rel=1e-12)


def test_kolmogorov_against_sde_monte_carlo():
    # independent stochastic oracle: dX = V dt, dV = sqrt(2) dW
    t_end = 0.25
    rng = np.random.default_rng(123)
    n_paths, n_steps = 200_000, 250
    h = t_end / n_steps
    x = np.zeros(n_paths)
    v = np.zeros(n_paths)
    for _ in range(n_steps):
        x += v * h
        v += np.sqrt(2 * h) * rng.standard_normal(n_paths)
    grid = PhaseGrid(1, (0.0, t_end), 48, 3.5, 95, 6.0, 95)
    ident = build_diffusion(1, 2.0, "constant", value=1.0)
    vals = np.zeros(grid.shape)
    vals[47, 47] = 1.0 / grid.cell_volume
    traj = solve(PhaseField(grid, 0.0, vals), ident, build_source(1, "zero"),
                 t_end, WHOLE_SPACE, dt=t_end / 48, interp="cubic")
    m = second_moments(traj.field(traj.n_slices - 1))
    for key, sample in (("xx", x * x), ("vv", v * v), ("xv", x * v)):
        mc = sample.mean()
        se = sample.std() / np.sqrt(n_paths)
        assert abs(m[key] - mc) < 4 * se + 1e-4


def test_unknown_interp_is_rejected(grid, rough_a, zero_g):
    # any name but "linear" and "cubic" is an error, not linear transport
    f = PhaseField.constant(grid, -1.5, 0.7)
    with pytest.raises(ValueError, match="interp"):
        solve(f, rough_a, zero_g, 0.0, WHOLE_SPACE, interp="Cubic")
    with pytest.raises(ValueError, match="interp"):
        step(f, rough_a, zero_g, grid.dt, WHOLE_SPACE, interp="spline")


# --- barrier problem -----------------------------------------------------------

def test_barrier_zero_sources_zero_solution(grid, rough_a):
    zeros = Trajectory.from_constant(grid, grid.times, 0.0)
    g = solve_barrier_ibvp(BarrierSource.from_trajectories(zeros, zeros, -1.0), rough_a, 1,
                           PhaseField.constant(grid, -1.0, 0.0))
    assert np.all(g.values == 0.0)


def test_barrier_source_needs_every_midpoint_stored(grid):
    # the stored slices end before the last steps' midpoints: no clamping
    early = Trajectory.from_constant(grid, grid.times[grid.times <= -0.5], 1.0)
    with pytest.raises(ValueError, match="midpoint"):
        BarrierSource.from_trajectories(early, early, -1.0)


def test_barrier_positive_source_nonnegative(grid, rough_a):
    s1 = Trajectory.from_function(
        grid, grid.times,
        lambda t, x, v: np.exp(-4 * (x**2 + v**2)) * np.ones_like(x + v))
    zeros = Trajectory.from_constant(grid, grid.times, 0.0)
    g = solve_barrier_ibvp(BarrierSource.from_trajectories(s1, zeros, -1.0), rough_a, 1,
                           PhaseField.constant(grid, -1.0, 0.0))
    assert g.values.min() >= -1e-10


def test_barrier_boundary_stays_zero(grid, rough_a):
    s1 = Trajectory.from_constant(grid, grid.times, 1.0)
    zeros = Trajectory.from_constant(grid, grid.times, 0.0)
    g = solve_barrier_ibvp(BarrierSource.from_trajectories(s1, zeros, -1.0), rough_a, 1,
                           PhaseField.constant(grid, -1.0, 0.0))
    radius = DyadicLevel(1).outer_radius
    outside = (grid.expand_x(grid.rho_x >= radius)
               | grid.expand_v(grid.rho_v >= radius))
    assert np.all(g.values[:, outside] == 0.0)


# --- energy accounting ---------------------------------------------------------

def test_energy_decays_without_source(grid, rough_a, zero_g):
    x = grid.x_centers[:, None]
    v = grid.v_centers[None, :]
    f0 = PhaseField(grid, -1.5, 0.8 * np.sin(np.pi * x / 1.5) * np.exp(-4 * v**2))
    traj = solve(f0, rough_a, zero_g, 0.0, WHOLE_SPACE)
    records, min_slack = energy_budget(traj, zero_g, 2.0)
    energies = [r["energy"] for r in records]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert min_slack >= -1e-10


def test_energy_constant_field_zero_dissipation(grid, rough_a, zero_g):
    f0 = PhaseField.constant(grid, -1.5, 0.5)
    traj = solve(f0, rough_a, zero_g, 0.0, WHOLE_SPACE)
    records, _ = energy_budget(traj, zero_g, 2.0)
    # constants pass through the linear solves to roundoff, so the face
    # differences carry only machine dust
    assert records[-1]["dissipation"] < 1e-24


def test_boundary_periodicity_follows_kind():
    assert WHOLE_SPACE.periodic_x
    assert not kinetic_ibvp(1.0).periodic_x
    with pytest.raises(TypeError):
        BoundaryCondition("kinetic_ibvp", radius=1.0, periodic_x=True)


def test_local_energy_trivial_cases(grid, rough_a, zero_g):
    f0 = PhaseField.constant(grid, -1.5, 0.1)
    traj = solve(f0, rough_a, zero_g, 0.0, WHOLE_SPACE)
    # f below the truncation level C_2 = 0.375: every term vanishes
    res = local_energy_check(LevelPass(traj, 2, zero_g), 2.0, -0.625, 0.0)
    assert res == 0.0
    # degenerate interval s = t: both sides equal, on data above C_1 = 0.25
    # so that the energies compared are non-zero
    above = solve(PhaseField.constant(grid, -1.5, 0.5), rough_a, zero_g, 0.0,
                  WHOLE_SPACE)
    assert above.values.min() > DyadicLevel(1).truncation
    res = local_energy_check(LevelPass(above, 1, zero_g), 2.0, -0.25, -0.25)
    assert abs(res) < 1e-14


def test_comparison_check(grid):
    a = Trajectory.from_constant(grid, grid.times, 0.3)
    b = Trajectory.from_constant(grid, grid.times, 1.3)
    assert comparison_check(a.values, a.values) == 0.0
    assert comparison_check(a.values, b.values) == pytest.approx(1.0, abs=1e-15)
    # slices formed one at a time give the same minimum
    assert comparison_check((s.copy() for s in a.values), b.values) == \
        comparison_check(a.values, b.values)
    # a NaN in a later slice is not lost behind a finite first minimum
    nan_b = b.values.copy()
    nan_b[-1, 0, 0] = np.nan
    assert np.isnan(comparison_check(a.values, nan_b))
    small = PhaseGrid(1, (-1.0, 0.0), 8, 1.0, 8, 1.0, 8)
    c = Trajectory.from_constant(small, small.times, 0.0)
    with pytest.raises(ValueError, match="shapes differ"):
        comparison_check(a.values, c.values)
    # a shorter sequence is an error, not a minimum over the common slices
    with pytest.raises(ValueError):
        comparison_check(a.values, b.values[:-1])
    with pytest.raises(ValueError):
        comparison_check(iter(a.values[:-1]), b.values)


def test_face_divergence_is_adjoint_of_face_gradient(grid):
    # the pairing sum div_v(S) . G = - sum S_face . (G_{i+1} - G_i)/dv holds
    # exactly: boundary faces carry zero flux by construction
    from kfplab.geometry import face_divergence
    rng = np.random.default_rng(6)
    s = rng.normal(size=grid.shape)
    g = rng.normal(size=grid.shape)
    div = face_divergence(grid, s, 0)
    lhs = np.sum(div * g) * grid.dv
    faces = 0.5 * (s[:, :-1] + s[:, 1:])
    rhs = -np.sum(faces * np.diff(g, axis=1))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_solve_records_energy_ledger(grid, rough_a, zero_g):
    f0 = PhaseField.constant(grid, -1.5, 0.2)
    traj = solve(f0, rough_a, zero_g, 0.0, WHOLE_SPACE)
    assert len(traj.ledger) == 49
    entry = traj.ledger[10]
    assert set(entry) == {"t", "l2_sq", "mass", "min", "max", "diff_residual"}
    assert entry["mass"] == pytest.approx(0.2 * 9.0, rel=1e-12)


def test_trajectory_carries_the_step(grid, rough_a, zero_g):
    # a solve stores every step, and its trajectory, windows and maps carry
    # the step as their spacing, not a difference of two stored times
    f0 = PhaseField.constant(grid, -1.5, 0.2)
    traj = solve(f0, rough_a, zero_g, 0.0, WHOLE_SPACE, dt=grid.dt / 2)
    assert traj.n_slices == 97 and len(traj.ledger) == 97
    assert traj.times[0] == -1.5 and traj.times[-1] == 0.0
    assert traj.dt == grid.dt / 2
    win = traj.window(-1.0, 1.0)
    assert win.dt == traj.dt and win.map_values(lambda v: 2.0 * v).dt == traj.dt
    assert Trajectory(grid, [0.0, 0.5, 1.0], np.zeros((3,) + grid.shape)).dt == 0.5


@pytest.mark.parametrize("t_min, n_t", [(-1.5, 18), (-1.4, 21), (-1.0, 18), (-1.5, 48)])
def test_trajectory_on_the_grid_times_carries_the_grid_step(t_min, n_t):
    # the first spacing of t0 + dt * arange is not dt when dt is no binary
    # fraction: 0.08333333333333326 against 0.08333333333333333 at (-1.5, 18)
    grid = PhaseGrid(1, (t_min, 0.0), n_t, 1.0, 8, 1.0, 8)
    made = [Trajectory(grid, grid.times, np.zeros((n_t + 1,) + grid.shape)),
            Trajectory.from_constant(grid, grid.times, 0.0),
            Trajectory.from_function(grid, grid.times, lambda t, x, v: t + 0 * x * v),
            Trajectory.from_constant(grid, grid.times[3:], 0.0)]
    assert [traj.dt for traj in made] == [grid.dt] * len(made)
    assert made[0].window(-0.5, 0.5).dt == grid.dt


# --- dim 2 smoke ---------------------------------------------------------------

def test_dim2_constants_and_mass():
    g2 = PhaseGrid(2, (-0.5, 0.0), 8, 1.5, 12, 1.5, 12)
    a2 = build_diffusion(2, 2.0, "checkerboard", values=(0.7, 1.4), cell=0.3)
    gz = build_source(2, "zero")
    f = PhaseField.constant(g2, -0.5, 0.4)
    traj = solve(f, a2, gz, 0.0, WHOLE_SPACE)
    assert np.max(np.abs(traj.values[-1] - 0.4)) < 1e-12

    rng = np.random.default_rng(4)
    vals = rng.uniform(0, 1, g2.shape)
    out = _TransportPlan(g2, 0.5 * g2.dt, periodic=True, cubic=False)(vals)
    assert np.sum(out) == pytest.approx(np.sum(vals), rel=1e-13)


def test_dim2_kolmogorov_moments():
    # identity coefficient in 2d: each axis pair carries the same moment
    # triple as the 1d kernel, and the axes stay uncorrelated
    t_end = 0.2
    n = 25
    g2 = PhaseGrid(2, (0.0, t_end), 16, 1.6, n, 3.2, n)
    a2 = build_diffusion(2, 2.0, "constant", value=1.0)
    gz = build_source(2, "zero")
    vals = np.zeros(g2.shape)
    vals[n // 2, n // 2, n // 2, n // 2] = 1.0 / g2.cell_volume
    traj = solve(PhaseField(g2, 0.0, vals), a2, gz, t_end, WHOLE_SPACE,
                 dt=t_end / 16, interp="cubic")
    f = traj.values[-1] * g2.cell_volume
    mass = float(f.sum())
    assert mass == pytest.approx(1.0, rel=1e-12)
    x1 = g2.x_centers[:, None, None, None]
    x2 = g2.x_centers[None, :, None, None]
    v1 = g2.v_centers[None, None, :, None]
    v2 = g2.v_centers[None, None, None, :]
    for xa, va in ((x1, v1), (x2, v2)):
        assert float((f * va * va).sum()) == pytest.approx(2 * t_end, rel=0.02)
        assert float((f * xa * va).sum()) == pytest.approx(t_end**2, rel=0.02)
        assert float((f * xa * xa).sum()) == pytest.approx(2 * t_end**3 / 3,
                                                           rel=0.02)
    # cross-axis moments vanish (independent axes)
    assert abs(float((f * v1 * v2).sum())) < 1e-10
    assert abs(float((f * x1 * v2).sum())) < 1e-10


def test_dim2_barrier_smoke():
    g2 = PhaseGrid(2, (-1.5, 0.0), 12, 1.5, 10, 1.5, 10)
    a2 = build_diffusion(2, 2.0, "constant", value=1.0)
    zeros = Trajectory.from_constant(g2, g2.times, 0.0)
    start = PhaseField.constant(g2, -1.0, 0.0)
    g = solve_barrier_ibvp(BarrierSource.from_trajectories(zeros, (zeros, zeros), -1.0),
                           a2, 1, start)
    assert np.all(g.values == 0.0)
    s1 = Trajectory.from_function(
        g2, g2.times,
        lambda t, x1, x2, v1, v2: np.exp(-4 * (x1**2 + x2**2 + v1**2 + v2**2)))
    g = solve_barrier_ibvp(BarrierSource.from_trajectories(s1, (zeros, zeros), -1.0),
                           a2, 1, start)
    assert g.values.min() >= -1e-10
    assert g.values.max() > 0.0
