import math
from fractions import Fraction

import numpy as np
import pytest

from kfplab.coefficients import build_diffusion, build_source
from kfplab.degiorgi import (
    IterationConstants,
    LevelPass,
    _barrier_slices,
    build_barrier_sources,
    chebyshev_audit,
    empirical_kappa,
    grad_v_sq_trajectory,
    exponent_sum_identity,
    geometric_iteration,
    kappa_log10,
    linfty_gate,
    recursion_audit,
    truncate,
    truncation_energy,
)
from kfplab.fields import PhaseField, Trajectory
from kfplab.geometry import DyadicLevel, PhaseGrid, cylinder_integral, dyadic_time, \
    face_divergence, level_set_measure, make_cylinder
from kfplab.solver import WHOLE_SPACE, solve


@pytest.fixture(scope="module")
def grid():
    return PhaseGrid(1, (-1.5, 0.0), 48, 1.5, 48, 1.5, 48)


# --- truncation ---------------------------------------------------------------

def test_truncate_levels(grid):
    traj = Trajectory.from_function(grid, grid.times,
                                    lambda t, x, v: 0.3 + 0 * x + 0 * v)
    t0 = truncate(traj, 0)
    assert np.all(t0.values == 0.3)     # C_0 = 0: plain positive part
    t1 = truncate(traj, 1)
    assert np.allclose(t1.values, 0.05, atol=1e-15)
    t3 = truncate(traj, 3)              # C_3 = 0.4375 > 0.3
    assert np.all(t3.values == 0.0)


def test_truncation_nesting_exact(grid):
    rng = np.random.default_rng(7)
    traj = Trajectory(grid, grid.times,
                      rng.uniform(-0.2, 0.8, (len(grid.times),) + grid.shape))
    for k in (1, 2, 3):
        fk = truncate(traj, k).values
        f_prev = truncate(traj, k - 1).values
        inside = fk > 0
        assert np.all(f_prev[inside] > 2.0 ** (-k - 1) - 1e-15)


def test_masked_gradient_inequality_away_from_boundary(grid):
    """|D f_k| <= |D f_{k-1}| on the two-point stencil's faces.  f_k is
    (f_{k-1} - 2^{-k-1})_+, a 1-Lipschitz function of f_{k-1}, and a face
    difference sees only its own two cells, so no face straddling a level
    set needs masking: the inequality holds on every face, and with it on
    the |grad_v|^2 cell density, a positive combination of the faces."""
    rng = np.random.default_rng(8)
    traj = Trajectory(grid, grid.times,
                      rng.uniform(0.0, 0.6, (len(grid.times),) + grid.shape))
    k = 1
    fk = truncate(traj, k)
    fp = truncate(traj, k - 1)
    gk = np.abs(np.diff(fk.values, axis=2)) / grid.dv
    gp = np.abs(np.diff(fp.values, axis=2)) / grid.dv
    assert np.all(gk <= gp + 1e-12)
    assert np.any(gk < gp - 1.0)         # the truncation does cut faces
    assert np.all(grad_v_sq_trajectory(fk).values
                  <= grad_v_sq_trajectory(fp).values + 1e-12)


def test_truncation_energy_zero_field(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.0)
    rep = truncation_energy(LevelPass(traj, 1), 2.0)
    assert rep.energy == 0.0
    assert rep.level_set == 0.0


def test_truncation_energy_constant_field_oracle(grid):
    """f = 1: U_k has the closed form
    sup-term 1/2 sum eta_x eta_v^2 Cbar^2 plus (1/lam)|T_k| times
    sum_x eta_x times the sum over the n - 1 v faces of |D_v eta_v|^2 Cbar^2
    (each face's square is split onto its two cells), computed here
    directly."""
    lam = 2.0
    traj = Trajectory.from_constant(grid, grid.times, 1.0)
    for k in (1, 2):
        rep = truncation_energy(LevelPass(traj, k), lam)
        lev = DyadicLevel(k)
        cbar = 1.0 - lev.truncation
        eta_x = lev.eta(grid.rho_x)
        eta_v = lev.eta(grid.rho_v)
        cv = grid.cell_volume
        sup_expect = 0.5 * np.sum(eta_x[:, None] * eta_v[None, :] ** 2) * cbar**2 * cv
        d_eta = np.diff(eta_v * cbar) / grid.dv
        diss_expect = (abs(lev.t_start) / lam
                       * np.sum(eta_x) * np.sum(d_eta**2) * cv)
        assert rep.sup_term == pytest.approx(sup_expect, rel=1e-10)
        assert rep.dissipation_term == pytest.approx(diss_expect, rel=1e-10)
        assert rep.energy == pytest.approx(sup_expect + diss_expect, rel=1e-10)


def test_truncation_energy_checkerboard_oracle(grid):
    """Stationary f = 1 + eps (-1)^{i_v}: the U_k dissipation is
    (1/lam)|T_k| sum_x eta_x times the sum over the v faces of
    |D_v(eta_v f_k)|^2.  The face differences see the checkerboard, which
    the scheme dissipates; a centered difference would not."""
    lam, eps = 2.0, 0.1
    sign = (-1.0) ** np.arange(grid.n_v)
    traj = Trajectory(grid, grid.times, np.broadcast_to(
        1.0 + eps * sign[None, :], (len(grid.times),) + grid.shape).copy())
    for k in (1, 2):
        lev = DyadicLevel(k)
        eta_x = lev.eta(grid.rho_x)
        f_k = np.maximum(1.0 + eps * sign - lev.truncation, 0.0)
        d = np.diff(lev.eta(grid.rho_v) * f_k) / grid.dv
        expect = (abs(lev.t_start) / lam * np.sum(eta_x) * np.sum(d**2)
                  * grid.cell_volume)
        rep = truncation_energy(LevelPass(traj, k), lam)
        assert rep.dissipation_term == pytest.approx(expect, rel=1e-10)


def test_barrier_and_truncation_norms_agree(rough_run):
    # the barrier sources take ||f_k|| and ||grad_v f_k|| over Q_{k-1} from
    # the level's pass: they are the norms of the sources' own window
    traj = rough_run["trajectory"]
    for k in (1, 2):
        level = LevelPass(traj, k, rough_run["source"])
        trunc = truncation_energy(level, rough_run["lam"])
        barrier = build_barrier_sources(level, rough_run["diffusion"])
        window = traj.window(float(barrier.fk.times[0]), DyadicLevel(k).outer_radius)
        fk = truncate(window, k)
        q_out = DyadicLevel(k).outer_cylinder()
        fk_l2 = math.sqrt(cylinder_integral(fk, lambda v: v**2, q_out))
        grad_l2 = math.sqrt(cylinder_integral(grad_v_sq_trajectory(fk), lambda v: v, q_out))
        assert level.fk_l2[1] > 0.0 and level.grad_l2[1] > 0.0
        assert (barrier.fk_l2, barrier.grad_fk_l2) == (level.fk_l2[1], level.grad_l2[1])
        assert (trunc.fk_l2_outer, trunc.grad_l2_outer) == (level.fk_l2[1],
                                                            level.grad_l2[1])
        assert fk_l2 == pytest.approx(level.fk_l2[1], rel=1e-12)
        assert grad_l2 == pytest.approx(level.grad_l2[1], rel=1e-12)
    # level 0 has no barrier
    with pytest.raises(ValueError, match="k >= 1, got 0"):
        build_barrier_sources(LevelPass(traj, 0, rough_run["source"]),
                              rough_run["diffusion"])


def test_truncation_energy_monotone_range_for_constants():
    """On this 96^2 grid the face-difference U_k chain of order-one
    constant (stationary) data is nonincreasing through k = 2 and reverses
    at k = 3 (U_2 = 3.982, U_3 = 4.619).  Where it reverses depends on the
    grid, since the cutoff-slope energy grows like 2^k: at 48^2 the same
    chain reverses only at k = 4 (U_3 = 1.908, U_4 = 2.877).  The ladder's
    monotonicity is a small-data property."""
    grid = PhaseGrid(1, (-1.5, 0.0), 48, 1.5, 96, 1.5, 96)
    traj = Trajectory.from_constant(grid, grid.times, 1.0)
    us = [truncation_energy(LevelPass(traj, k), 2.0).energy for k in range(4)]
    assert all(b <= a for a, b in zip(us[:3], us[1:3]))
    assert us[3] > us[2]


def test_truncation_energy_monotone_on_solver_run(rough_run):
    traj = rough_run["trajectory"]
    energies = [truncation_energy(LevelPass(traj, k), rough_run["lam"]).energy
                for k in range(5)]
    assert energies[0] > 0
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-9 * (1 + energies[0])


# --- Chebyshev ------------------------------------------------------------------

def _chebyshev(traj, k, u_prev=None):
    """`chebyshev_audit` of the level-k pass."""
    return chebyshev_audit(LevelPass(traj, k), u_prev)


def test_chebyshev_zero_field(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.0)
    rep = _chebyshev(traj, 1)
    assert rep.measure == 0.0 and rep.bound == 0.0
    assert rep.passed


def test_chebyshev_constant_just_above_level(grid):
    # f = C_k + delta: every cell of Q_{k-1} counts, and the bound is
    # 2^{2k+2} (2^{-k-1} + delta)^2 times the same discrete measure
    k = 2
    delta = 0.01
    c_k = DyadicLevel(k).truncation
    traj = Trajectory.from_constant(grid, grid.times, c_k + delta)
    rep = _chebyshev(traj, k)
    factor = (2.0 ** (k + 1) * (2.0 ** (-k - 1) + delta)) ** 2
    assert rep.bound == pytest.approx(factor * rep.measure, rel=1e-12)
    assert rep.passed
    # at delta = 0 the level set {f_k > 0} is empty (strict inequality)
    traj0 = Trajectory.from_constant(grid, grid.times, c_k)
    rep0 = _chebyshev(traj0, k)
    assert rep0.measure == 0.0 and rep0.passed


def test_chebyshev_exact_on_solver_run(rough_run):
    traj = rough_run["trajectory"]
    for k in (1, 2, 3, 4):
        u_prev = truncation_energy(LevelPass(traj, k - 1), rough_run["lam"]).energy
        rep = _chebyshev(traj, k, u_prev)
        assert rep.passed
        assert rep.margin >= -1e-12


def test_chebyshev_requires_k_ge_1(grid):
    traj = Trajectory.from_constant(grid, grid.times, 0.0)
    with pytest.raises(ValueError):
        _chebyshev(traj, 0)


# --- barrier sources -------------------------------------------------------------

def test_barrier_sources_vanish_below_level(grid):
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    g = build_source(1, "zero")
    traj = Trajectory.from_constant(grid, grid.times, 0.1)   # below C_1
    level = LevelPass(traj, 1, g)
    rep = build_barrier_sources(level, a)
    for _, s1, s2 in _barrier_slices(level, a):
        assert np.all(s1 == 0.0) and all(np.all(c == 0.0) for c in s2)
    assert np.all(rep.source.increments == 0.0)
    assert rep.s1_l2 == rep.s2_l2 == 0.0


def test_barrier_sources_constant_field_oracle(grid):
    """f = 1, g = 0, A = I: S2 = -2 eta_x eta_v (1 - C_k) grad eta_v and S1
    keeps only the transport-cutoff term (grad_v f_k = 0).  The sources are
    returned on the level window, from T_{k-1}; the whole-grid oracle is
    zero outside its box."""
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    g = build_source(1, "zero")
    traj = Trajectory.from_constant(grid, grid.times, 1.0)
    k = 1
    level = LevelPass(traj, k, g)
    rep = build_barrier_sources(level, a)
    lev = DyadicLevel(k)
    window = level.window
    _, s1, (s2,) = next(_barrier_slices(level, a))
    cbar = 1.0 - lev.truncation
    eta_x = lev.eta(grid.rho_x)[:, None]
    eta_v = lev.eta(grid.rho_v)[None, :]
    slope_v = (lev.eta_slope(grid.rho_v) * np.sign(grid.v_centers))[None, :]
    slope_x = (lev.eta_slope(grid.rho_x) * np.sign(grid.x_centers))[:, None]
    s2_expect = -2.0 * eta_x * eta_v * cbar * slope_v
    s1_expect = cbar * eta_v**2 * grid.v_centers[None, :] * slope_x
    box = rep.fk.grid.box
    assert window.grid.box == box
    assert rep.fk.t_start == rep.source.t_start == dyadic_time(k - 1)
    for expect in (s1_expect, s2_expect):
        outside = expect.copy()
        outside[box] = 0.0
        assert not outside.any()
    assert np.max(np.abs(s2 - s2_expect[box])) < 1e-10
    assert np.max(np.abs(s1 - s1_expect[box])) < 1e-10
    # f is constant in time: every increment is dt (S1 + div_v S2)
    inc = rep.source.dt * (s1_expect + face_divergence(grid, s2_expect, 0))[box]
    assert np.max(np.abs(rep.source.increments - inc)) < 1e-10 * rep.source.dt


def test_barrier_source_norm_bounds(rough_run):
    traj = rough_run["trajectory"]
    for k in (1, 2):
        rep = build_barrier_sources(LevelPass(traj, k, rough_run["source"]),
                                    rough_run["diffusion"])
        assert rep.s2_l2 <= rep.s2_bound + 1e-9 * max(1.0, rep.s2_bound)
        assert rep.s1_l2 <= rep.s1_bound + 1e-9 * max(1.0, rep.s1_bound)
        assert rep.s2_bound_actual <= rep.s2_bound + 1e-12


# --- iteration constants and kappa ------------------------------------------------

def test_constants_chain_for_reference_values():
    c = IterationConstants(1, 2.0, 1.0, q=np.inf)
    # exponents via exact rationals
    alpha = Fraction(1) + Fraction(1, 9)
    assert c.alpha == pytest.approx(float(alpha), abs=1e-15)
    expo = 2 * alpha / (alpha - 1) ** 2
    assert expo == 180
    assert 2.0 * c.alpha / (c.alpha - 1.0) ** 2 == pytest.approx(180.0, rel=1e-12)
    # c = 8(1+2 lam) + gamma |Q[3/2]|^(1/2), with the measure from geometry
    assert c.c_const == pytest.approx(40.0 + math.sqrt(make_cylinder(1.5).measure(1)),
                                      rel=1e-14)
    assert c.p == pytest.approx(18.0 / 7.0, rel=1e-14)
    assert c.rho > 1.0
    # kappa in log space, capped by log10(1/2)
    kl = kappa_log10(c)
    assert kl <= math.log10(0.5)
    assert kl == pytest.approx(-180.0 * math.log10(c.rho)
                               - 2.0 * math.log10(c.c_const), rel=1e-12)


def test_constants_reject_small_q():
    with pytest.raises(ValueError):
        IterationConstants(1, 2.0, 1.0, q=18.0)
    IterationConstants(1, 2.0, 1.0, q=19.0)   # just above 12N+6


def test_constants_finite_q_chain():
    c = IterationConstants(1, 2.0, 1.0, q=20.0)
    assert c.alpha == pytest.approx(1.0 + 1.0 / 9.0 - 0.1, rel=1e-14)
    assert c.r == 20.0
    kl = kappa_log10(c)
    # the exponent blows up as alpha -> 1, so kappa collapses much further
    assert kl < kappa_log10(IterationConstants(1, 2.0, 1.0, q=np.inf))
    # dim 2 needs q > 30
    with pytest.raises(ValueError):
        IterationConstants(2, 2.0, 1.0, q=30.0)
    c2 = IterationConstants(2, 2.0, 1.0, q=np.inf)
    assert c2.alpha == pytest.approx(1.0 + 1.0 / 15.0, rel=1e-14)


def test_truncation_machinery_dim2_smoke():
    grid2 = PhaseGrid(2, (-1.5, 0.0), 12, 1.5, 12, 1.5, 12)
    rng = np.random.default_rng(2)
    vals = rng.uniform(0.0, 0.7, (len(grid2.times),) + grid2.shape)
    traj = Trajectory(grid2, grid2.times, vals)
    energies = [truncation_energy(LevelPass(traj, k), 2.0).energy for k in (0, 1)]
    assert energies[0] > 0
    rep = _chebyshev(traj, 1)
    assert rep.passed
    assert rep.measure <= rep.bound + 1e-12


def test_assembled_a_recorded():
    c = IterationConstants(1, 2.0, 1.0, q=np.inf)
    rec = c.assembled_a()
    assert set(rec) == {"g_bar", "coef_sublinear", "coef_linear", "a"}
    assert rec["a"] == pytest.approx(
        math.sqrt(max(rec["coef_sublinear"], rec["coef_linear"])), rel=1e-14)
    assert rec["g_bar"] == pytest.approx(math.sqrt(13.5), rel=1e-14)


# --- recursion audit ----------------------------------------------------------------

def test_recursion_audit_vacuous_on_zero():
    c = IterationConstants(1, 2.0, 1.0, q=np.inf)
    rows = recursion_audit([0.0] * 5, c)
    assert all(r["passed"] and r["vacuous"] for r in rows)


def test_recursion_audit_power_sequence_margins():
    c = IterationConstants(1, 2.0, 0.0, q=np.inf)
    u = [2.0 ** (-7 * k) for k in range(6)]
    rows = recursion_audit(u, c, c_fit=1.0)
    alpha = c.alpha
    for r in rows:
        k = r["k"]
        expect = (6 * k + alpha * (-7 * (k - 2)) + 7 * k) * math.log10(2.0)
        assert r["log_margin"] == pytest.approx(expect, rel=1e-12)


# --- geometric iteration -------------------------------------------------------------

def test_exponent_sum_identity_exact():
    for alpha in (Fraction(3, 2), Fraction(2), Fraction(10, 9)):
        for k in range(1, 21):
            direct, closed = exponent_sum_identity(alpha, k)
            assert direct == closed


def test_exponent_sum_small_case():
    direct, closed = exponent_sum_identity(Fraction(2), 3)
    assert direct == 11 and closed == 11


def test_geometric_iteration_decay_and_envelope():
    out = geometric_iteration(0.2, 2.0, 2.0, 30)
    assert out["envelope_ok"] and out["decays"]
    logs = out["log10_v"]
    # doubly exponential decay: log V_k / 2^k converges to the negative
    # constant log V_0 + log(rho) sum j 2^-j = log 0.2 + 2 log 2 ~ -0.097
    ratios = [logs[k] / 2.0**k for k in range(6, 31)]
    limit = math.log10(0.2) + 2.0 * math.log10(2.0)
    assert all(r < -0.05 for r in ratios)
    assert ratios[-1] == pytest.approx(limit, rel=1e-6)

    # the (2^12, 10/9) threshold is rho^{-90} ~ 1e-325, below float range,
    # so the starting value goes in as a log
    big = geometric_iteration(None, 2.0**12, 10.0 / 9.0, 40, v0_log10=-400.0)
    assert big["envelope_ok"] and big["decays"]
    assert big["threshold_log10"] == pytest.approx(-90.0 * math.log10(2.0**12),
                                                   rel=1e-12)
    assert big["log10_v"][-1] < big["log10_v"][0]


def test_geometric_iteration_boundary_case():
    rho, alpha = 2.0, 2.0
    v0 = rho ** (-alpha / (alpha - 1.0) ** 2)    # exactly the threshold
    out = geometric_iteration(v0, rho, alpha, 10)
    assert out["envelope_ok"]
    assert all(lv <= 1e-9 for lv in out["log10_v"])  # V_k <= 1 throughout


def test_geometric_iteration_rejects_bad_parameters():
    with pytest.raises(ValueError):
        geometric_iteration(0.1, 0.5, 2.0, 5)
    with pytest.raises(ValueError):
        geometric_iteration(0.1, 2.0, 1.0, 5)


# --- the gate --------------------------------------------------------------------

def test_gate_trivial_cases(grid):
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    gz = build_source(1, "zero")
    kl = kappa_log10(IterationConstants(1, 2.0, 0.0, q=np.inf))
    f_neg = PhaseField.constant(grid, -1.5, -0.3)
    traj = solve(f_neg, a, gz, 0.0, WHOLE_SPACE)
    gate = linfty_gate(traj, kl)
    assert gate.premise_holds and gate.conclusion_holds

    f_one = PhaseField.constant(grid, -1.5, 1.0)
    traj1 = solve(f_one, a, gz, 0.0, WHOLE_SPACE)
    gate1 = linfty_gate(traj1, kl)
    assert not gate1.premise_holds          # integral far above the assembled kappa
    assert gate1.implication_holds          # vacuously


def test_zoomed_gate_resolution_flag(grid):
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    gz = build_source(1, "zero")
    omega = 0.4
    kl = kappa_log10(IterationConstants(1, 2.0, omega**2 / 9.0, q=np.inf))
    eta_log = 6.0 * math.log10(omega / 3.0) + kl
    f = PhaseField.constant(grid, -1.5, -0.2)
    traj = solve(f, a, gz, 0.0, WHOLE_SPACE)
    gate = linfty_gate(traj, eta_log, zoomed=True, omega=omega)
    # premise integral is 0 (f stays negative), so the tiny threshold holds
    assert gate.premise_holds and gate.conclusion_holds
    # Q[omega^3/54] is subgrid at desk scale: evaluated on the smallest
    # node-resolving cylinder and flagged
    assert gate.resolution_limited


def test_empirical_kappa_dominates_assembled_kappa(grid):
    a = build_diffusion(1, 2.0, "checkerboard", values=(0.6, 1.5), cell=0.25)
    gz = build_source(1, "zero")
    kl = kappa_log10(IterationConstants(1, 2.0, 0.0, q=np.inf))
    x = grid.x_centers[:, None]
    v = grid.v_centers[None, :]
    profile = np.cos(np.pi * x / 1.5) * np.exp(-4 * v**2)

    def run_fn(amp):
        return solve(PhaseField(grid, -1.5, amp * profile), a, gz, 0.0,
                     WHOLE_SPACE)

    kappa_emp, amp = empirical_kappa(run_fn(0.4), run_fn(1.0), 0.4)
    assert kappa_emp > kl
    assert amp > 0


def test_empirical_kappa_closed_form_on_constants(grid):
    # T = 0.1, U = 1 and a0 = 0: the run at a is the constant 0.1 + a, so
    # a* = 1/2 - 0.1 (+ the gate's 1e-12 slack) and the premise is
    # int_{Q[3/2]} (1/2)^2 on the cell rule
    const = lambda value: Trajectory.from_constant(grid, grid.times, value)
    kappa_emp, amp = empirical_kappa(const(0.1), const(1.0), 0.0)
    assert amp == pytest.approx(0.4, abs=1e-11)
    premise = 0.25 * level_set_measure(const(1.0), lambda f: f > 0,
                                       make_cylinder(1.5))
    assert kappa_emp == pytest.approx(math.log10(premise), rel=1e-10)


def test_empirical_kappa_infinite_branches(grid):
    const = lambda value: Trajectory.from_constant(grid, grid.times, value)
    # the conclusion fails already at amplitude 1e-3
    assert empirical_kappa(const(1.0), const(0.0), 0.4) == (-math.inf, -math.inf)
    # no conclusion node rises with the amplitude: every amplitude passes
    assert empirical_kappa(const(0.0), const(-1.0), 0.4) == (math.inf, math.inf)


def test_assembled_a_saturates_for_huge_gamma():
    # g_bar^2 overflows: the front factor is inf, not an OverflowError
    assert IterationConstants(1, 2.0, 1e300).assembled_a()["a"] == math.inf
