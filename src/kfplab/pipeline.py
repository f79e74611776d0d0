"""The run pipeline: solve, then every diagnostic, then reports on disk.

A run is fully determined by its configuration (seeds included); repeated
runs write byte-identical artifacts.  Each verdict is one `Audit` record,
built where its check is made; `SWEEP_AUDITS` names them all, in the order
of the sweep's columns.  The kappa ordering compares the assembled
threshold with kappa_emp, in closed form from the main run and one
unit-amplitude run, its superposition checked against a direct run
(`_bisection`).  The bisection keeps the unit run and streams the rest:
the premise integral at a* reads the superposed slices one at a time, and
the direct run is stepped by `solver.march` and compared slice by slice as
it comes.

After the main solve the audits form two independent stages that read only
the trajectory, the coefficient, the source and the configuration: the De
Giorgi stage (energy, local energy, truncation and Chebyshev, the barrier
stage, the constants, the recursion, the gate and kappa_emp) and the
Hoelder stage (normalization, oscillation ladder, probe, theta sequence and
Hoelder fit).  When the process may use more than one CPU, the Hoelder
stage runs in one forked process while the De Giorgi stage runs in the
caller; otherwise the two run in that order in-process.  Both paths call
the same two functions, so the artifacts are byte-identical, and a failure
raises the serial path's exception.  The fork is kept for its memory: in
alternating pairs of `perfbench/run.py` runs on a shared 2-vCPU host,
forked against in-process, the forked run's peak RSS was lower in every
pair (desk 43.2 vs 45.5-45.8 MB, n2 70.0-70.1 vs 76.3-76.5 MB), while its
wall time won only while the host ran both processes at once: desk 0.539
vs 0.650 s (forked lower in 4 of 6 pairs) in one check, 0.496 vs 0.430 s
(0 of 6) in a later one, and n2 0.388 vs 0.583 s (5 of 6) against 0.441
vs 0.405 s (1 of 6).  A sweep's pool workers run both stages in-process
either way.

Every run steps at its grid's dt = -t_min / n_t and stores every step, so
the main trajectory's spacing, the barrier's step and every audit's time
cell are that one dt.
"""

from __future__ import annotations

import csv
import io
import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from . import averaging, degiorgi, holder, solver
from .coefficients import DiffusionField, SourceField, source_lq_norm
from .config import ConfigError, RunConfig, config_to_text, format_value
from .fields import PhaseField, Trajectory
from .geometry import DyadicLevel, PhaseGrid, dyadic_time
from .snapshots import export_snapshot

__all__ = ["Audit", "RunResult", "build_grid", "build_coefficient",
           "build_source_field", "build_initial", "solve_initial", "run_pipeline",
           "sweep", "worker_count", "write_incomplete_manifest"]

MANIFEST_VERSION = 1
# bound on max|superposed - direct| / (1 + max|direct|) at the amplitude
# that sets kappa_emp; the superposition is exact up to roundoff
AFFINE_TOLERANCE = 1e-12

CSV_COLUMNS = {
    "energy": ["t", "energy", "dissipation", "source_work", "slack"],
    "truncation": ["k", "energy", "sup_term", "dissipation_term", "level_set",
                   "fk_l2_inner", "fk_l2_outer", "grad_l2_inner", "grad_l2_outer"],
    "chebyshev": ["k", "measure", "integral", "bound", "margin",
                  "chained_bound", "chained_margin"],
    "local_energy": ["k", "s", "t", "residual"],
    "barrier": ["k", "s1_l2", "s2_l2", "s2_bound", "s1_bound", "comparison_min",
                "f_linf", "plancherel_defect", "interp_lhs", "interp_rhs",
                "averaging_lhs", "averaging_rhs_unit", "averaging_ratio"],
    "ladder": ["level", "osc", "osc_inner"],
    "recursion": ["k", "log_margin", "passed", "vacuous"],
    "theta": ["k", "m_k"],
}


def worker_count() -> int:
    """Sweep worker processes from KFPLAB_WORKERS (default 1)."""
    raw = os.environ.get("KFPLAB_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"KFPLAB_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_grid(cfg: RunConfig) -> PhaseGrid:
    return PhaseGrid(cfg.dim, (cfg.t_min, 0.0), cfg.n_t, cfg.x_max, cfg.n_x,
                     cfg.v_max, cfg.n_v)


def build_coefficient(cfg: RunConfig) -> DiffusionField:
    kind = cfg.coeff_kind
    params = {}
    if kind == "constant":
        params["value"] = cfg.coeff_value
    elif kind == "checkerboard":
        params["values"] = (cfg.coeff_low, cfg.coeff_high)
        params["cell"] = cfg.coeff_cell
    elif kind == "cellwise_random":
        params["low"] = cfg.coeff_low
        params["high"] = cfg.coeff_high
        params["cell"] = cfg.coeff_cell
    elif kind == "oscillatory":
        params["mid"] = cfg.coeff_mid
        params["amplitude"] = cfg.coeff_amplitude
        params["frequency"] = cfg.coeff_frequency
    return DiffusionField(cfg.dim, cfg.lam, kind, params, seed=cfg.seed * 7 + 1)


def build_source_field(cfg: RunConfig) -> SourceField:
    return SourceField(cfg.dim, cfg.source_kind, cfg.source_bound, cfg.source_cell,
                       seed=cfg.seed * 13 + 5)


def build_initial(cfg: RunConfig, grid: PhaseGrid,
                  amplitude: float | None = None) -> PhaseField:
    """Seeded initial data: random x-modes with a localized v profile, a
    smooth bump, or a point mass at the center cell."""
    amp = cfg.initial_amplitude if amplitude is None else amplitude
    rng = np.random.default_rng(cfg.seed * 31 + 17)
    if cfg.initial_kind == "point":
        vals = np.zeros(grid.shape)
        idx = tuple([grid.n_x // 2] * grid.dim + [grid.n_v // 2] * grid.dim)
        vals[idx] = amp / grid.cell_volume
        return PhaseField(grid, grid.t_span[0], vals)
    if cfg.initial_kind == "bump":
        from .geometry import cutoff_value
        px = cutoff_value(grid.rho_x, 0.4 * grid.x_max, 0.8 * grid.x_max)
        pv = cutoff_value(grid.rho_v, 0.3 * grid.v_max, 0.7 * grid.v_max)
        vals = amp * grid.expand_x(px) * grid.expand_v(pv)
        return PhaseField(grid, grid.t_span[0], vals)
    # modes: periodic random profile in x, Gaussian-localized in v
    profile = np.zeros(grid.x_shape)
    for ax in range(grid.dim):
        coord = grid.axis_coord("x", ax)
        axis_profile = np.zeros_like(coord)
        for m in range(1, cfg.initial_modes + 1):
            c, s = rng.normal(size=2)
            axis_profile += (c * np.cos(np.pi * m * coord / grid.x_max)
                             + s * np.sin(np.pi * m * coord / grid.x_max))
        profile = profile + axis_profile
    peak = float(np.max(np.abs(profile)))
    if peak > 0:
        profile = profile / peak
    w = cfg.initial_v_width
    pv = np.exp(-grid.rho_v**2 / (2.0 * w * w))
    vals = amp * grid.expand_x(profile) * grid.expand_v(pv)
    return PhaseField(grid, grid.t_span[0], vals)


def _initial_run(step, cfg: RunConfig, grid: PhaseGrid, diffusion, source,
                 amplitude: float | None = None):
    """`step`, `solver.solve` or `solver.march`, of the whole-space run
    from `build_initial(cfg, grid, amplitude)`."""
    return step(build_initial(cfg, grid, amplitude), diffusion, source, 0.0,
                solver.WHOLE_SPACE, interp=cfg.interp)


def solve_initial(cfg: RunConfig, grid: PhaseGrid, diffusion, source,
                  amplitude: float | None = None) -> Trajectory:
    """The whole-space run from `build_initial(cfg, grid, amplitude)`."""
    return _initial_run(solver.solve, cfg, grid, diffusion, source, amplitude)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Audit:
    """One verdict of a run: its `name`, whether it `passed`, and its
    `margin`, the worst slack of the verdict's inequality with its
    tolerance included.

    The margin is >= 0 when the verdict held and < 0 when it failed; a
    strict inequality that fails at equality reads 0.  For a conjunction
    (`spectral`, `kappa_order`, `mu_contraction`, `sigma_positive`) it is
    the smaller part's.  It is inf where every check is vacuous
    (`recursion` when every U_k it bounds is 0, `comparison` and `spectral`
    without barrier levels), and nan only where the verdict passes without
    a numeric check: `kappa_order` with bisection off, `mu_contraction` on
    a degenerate ladder, `sigma_positive` on a degenerate fit,
    `gate_implication` when its premise fails, and `theta_monotone`, whose
    checks are boolean."""

    name: str
    passed: bool
    margin: float


def _least(name: str, slacks) -> Audit:
    """The audit of a verdict that holds when every slack is >= 0; its
    margin is the least slack (inf for none; nan, which fails, when one is
    nan)."""
    worst = float(np.min(slacks, initial=math.inf))
    return Audit(name, worst >= 0.0, worst)


@dataclass
class RunResult:
    """A run's audits, metrics and tables, which its artifacts hold, and
    its `timings`, which they do not: per stage ("main_solve", "degiorgi",
    "holder") the wall time, this process's `getrusage` maximum RSS when
    the stage ended, the minor page faults and the Strang steps the stage
    took in its process with their mean time, the size of the largest step
    plan it built, and whether it ran in a forked process (`_timed`)."""

    config: RunConfig
    audits: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def verdicts(self) -> dict:
        """{name: passed} of the audits."""
        return {a.name: a.passed for a in self.audits}

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.audits)


def _scheme_tolerance(grid: PhaseGrid, scale: float) -> float:
    return (grid.dt + grid.dx + grid.dv) * max(1e-12, scale)


def _abs_max(values: np.ndarray) -> float:
    """max|values| as max(max, -min), without an array of |values|; abs
    turns the -0.0 of an all-zero array into the 0.0 that |values| gives."""
    return abs(float(np.maximum(values.max(), -values.min())))


def _barrier_audit(cfg: RunConfig, level: degiorgi.LevelPass, diffusion):
    """The barrier of the pass's level k: its sources (with the pass's
    window, source and f_k norms), the barrier solve from the truncated
    field at T_{k-1}, the comparison and the spectral audits.

    Everything runs on the pass's level window, the slices from T_{k-1}
    on the cell box of B(R_{k-1})^2, outside which every field of the
    stage is zero.  Returns the `barrier.csv` row, the final barrier slice
    on the whole grid, the level's metrics, and the slack (`_least`) of the
    comparison and those of the spectral audits, Plancherel and the
    interpolation inequality.  The report keeps F_k at T_{k-1}, where the
    barrier starts, and goes before the barrier solve: the comparison and
    max|F_k| read F_k formed one slice at a time (`degiorgi.cutoff_fields`).
    The source goes once the comparison is taken, before the spectra, and
    the barrier when the call returns.
    """
    k = level.k
    grid = level.window.grid.parent
    rep = degiorgi.build_barrier_sources(level, diffusion)
    source, initial, s1_l2, s2_l2 = rep.source, rep.initial, rep.s1_l2, rep.s2_l2
    row = [k, s1_l2, s2_l2, rep.s2_bound, rep.s1_bound]
    del rep
    g_traj = solver.solve_barrier_ibvp(source, diffusion, k, interp=cfg.interp,
                                       initial=initial)
    del source, initial
    f_highs = []

    def fk_slices():
        """F_k slice by slice, taking max|F_k| of each on the way."""
        for fk in degiorgi.cutoff_fields(level):
            f_highs.append(_abs_max(fk))
            yield fk

    # G_k starts from F_k, so G_k - F_k = 0 on the first slice and the
    # minimum over the window is the whole grid's, whose other nodes hold 0
    comp_min = solver.comparison_check(fk_slices(), g_traj.values)
    f_linf = float(np.max(f_highs))
    comparison = comp_min + 10.0 * _scheme_tolerance(grid, f_linf)
    row += [comp_min, f_linf]

    spec = averaging.SpectralField.from_trajectory(g_traj, warn_boundary=False)
    l2 = spec.l2_norm()
    plancherel_defect = abs(spec.frac_norm("v", 0.0) - l2)
    lhs, rhs = averaging.interpolation_audit(spec)
    est = averaging.averaging_estimate_audit(spec, s1_l2, s2_l2,
                                             cfg.lam, DyadicLevel(k).radius)
    spectral = [1e-12 * max(1.0, l2) - plancherel_defect,
                rhs * (1.0 + 1e-12) + 1e-15 - lhs]
    row += [plancherel_defect, lhs, rhs, est.lhs, est.rhs_unit, est.ratio]
    final = np.zeros(grid.shape)
    final[g_traj.grid.box] = g_traj.values[-1]
    metrics = {f"comparison_min_k{k}": comp_min, f"averaging_ratio_k{k}": est.ratio}
    return (row, PhaseField(grid, float(g_traj.times[-1]), final), metrics,
            comparison, spectral)


def run_pipeline(cfg: RunConfig, out_dir=None) -> RunResult:
    cfg.validate()
    grid = build_grid(cfg)
    diffusion = build_coefficient(cfg)
    source = build_source_field(cfg)
    timings = {}
    traj, timings["main_solve"] = _timed(solve_initial, cfg, grid, diffusion, source)

    stage_args = (cfg, traj, diffusion, source)
    if _can_overlap():
        degiorgi_out, holder_out = _overlapped_stages(stage_args)
    else:
        degiorgi_out = _timed(_degiorgi_stage, *stage_args)
        holder_out = _timed(_holder_stage, *stage_args)
    ((degiorgi_part, barrier_finals), timings["degiorgi"]) = degiorgi_out
    holder_part, timings["holder"] = holder_out
    result = RunResult(cfg, timings=timings)
    for tables, metrics, audits in (degiorgi_part, holder_part):
        result.tables.update(tables)
        result.metrics.update(metrics)
        result.audits += audits
    if out_dir is not None:
        _write_outputs(cfg, result, traj, barrier_finals, out_dir)
    return result


def _degiorgi_stage(cfg: RunConfig, traj: Trajectory, diffusion, source):
    """The L-infinity chain on the solution: energy, local energy,
    truncation energies and Chebyshev, the barrier stage, the iteration
    constants, the recursion, the gate and, when bisection is on, kappa_emp
    with its affine check (a unit solve and a streamed direct run,
    `_bisection`).

    Returns ((tables, metrics, audits), barrier_finals).
    """
    grid = traj.grid
    tables, metrics, audits = {}, {}, []

    # --- global energy inequality ------------------------------------------
    records, min_slack = solver.energy_budget(traj, source, cfg.lam)
    e0 = records[0]["energy"]
    tables["energy"] = [[r["t"], r["energy"], r["dissipation"], r["source_work"],
                         r["slack"]] for r in records]
    tol_energy = 1e-8 * (1.0 + e0)
    metrics["energy_min_slack"] = min_slack
    metrics["energy_tolerance"] = tol_energy
    audits.append(_least("energy_slack", [min_slack + tol_energy]))

    # --- one pass per truncation level, read by every level-k audit below --
    passes = {k: degiorgi.LevelPass(traj, k, source)
              for k in sorted({*range(cfg.levels + 1), *degiorgi.LOCAL_ENERGY_LEVELS,
                               *cfg.barrier_levels})}

    # --- local energy inequality -------------------------------------------
    local_rows = []
    f_scale = _abs_max(traj.values)
    tol_local = 10.0 * _scheme_tolerance(grid, f_scale**2)
    for k in degiorgi.LOCAL_ENERGY_LEVELS:
        t_k = dyadic_time(k)
        for (s, t) in ((t_k, 0.0), (t_k, 0.5 * t_k), (0.5 * t_k, 0.0)):
            res = solver.local_energy_check(passes[k], cfg.lam, s, t)
            local_rows.append([k, s, t, res])
    tables["local_energy"] = local_rows
    metrics["local_energy_min"] = min(r[3] for r in local_rows)
    metrics["local_energy_tolerance"] = tol_local
    audits.append(_least("local_energy", [r[3] + tol_local for r in local_rows]))

    # --- truncation energies and the Chebyshev audit ------------------------
    ladder = [degiorgi.truncation_energy(passes[k], cfg.lam)
              for k in range(cfg.levels + 1)]
    energies = [r.energy for r in ladder]
    tables["truncation"] = [[r.k, r.energy, r.sup_term, r.dissipation_term,
                             r.level_set, r.fk_l2_inner, r.fk_l2_outer,
                             r.grad_l2_inner, r.grad_l2_outer] for r in ladder]
    mono_tol = 1e-9 * (1.0 + energies[0])
    audits.append(_least("u_monotone", [a + mono_tol - b
                                        for a, b in zip(energies, energies[1:])]))
    metrics["u0"] = energies[0]

    cheb = [degiorgi.chebyshev_audit(passes[k], energies[k - 1])
            for k in range(1, cfg.levels + 1)]
    tables["chebyshev"] = [[r.k, r.measure, r.integral, r.bound, r.margin,
                            r.chained_bound, r.chained_margin] for r in cheb]
    audits.append(_least("chebyshev", [r.slack for r in cheb]))

    # --- barrier comparison and spectral audits ------------------------------
    barrier_rows, barrier_finals, comparison, spectral = [], [], [], []
    for k in cfg.barrier_levels:
        row, final, level_metrics, comp, spec = _barrier_audit(cfg, passes[k],
                                                               diffusion)
        barrier_rows.append(row)
        barrier_finals.append((k, final))
        metrics.update(level_metrics)
        comparison.append(comp)
        spectral += spec
    tables["barrier"] = barrier_rows
    audits += [_least("comparison", comparison), _least("spectral", spectral)]

    # --- iteration constants, recursion, gate --------------------------------
    gamma = cfg.gamma
    if gamma is None:
        gamma = source_lq_norm(source, grid, q=cfg.q_constants)
    consts = degiorgi.IterationConstants(cfg.dim, cfg.lam, gamma,
                                         q=cfg.q_constants, K_S=cfg.k_s,
                                         C_N=cfg.c_n, a_const=cfg.a_const)
    kappa_log = degiorgi.kappa_log10(consts)
    metrics["gamma"] = gamma
    metrics["alpha"] = consts.alpha
    metrics["c_const"] = consts.c_const
    metrics["big_c"] = consts.big_c
    metrics["rho"] = consts.rho
    metrics["kappa_log10"] = kappa_log
    assembled = consts.assembled_a()
    metrics["a_assembled"] = assembled["a"]

    rec_rows = degiorgi.recursion_audit(energies, consts)
    tables["recursion"] = [[r["k"], r["log_margin"], r["passed"], r["vacuous"]]
                           for r in rec_rows]
    audits.append(_least("recursion", [r["slack"] for r in rec_rows]))

    gate = degiorgi.linfty_gate(traj, kappa_log)
    metrics["gate_premise_log10"] = gate.premise_log10
    metrics["gate_conclusion_sup"] = gate.conclusion_sup
    metrics["gate_resolution_limited"] = gate.resolution_limited
    audits.append(Audit("gate_implication", gate.implication_holds, gate.margin))

    kappa_emp = defect = math.nan
    if cfg.run_bisection:
        kappa_emp, defect = _bisection(cfg, traj, diffusion, source)
    metrics["kappa_emp_log10"] = kappa_emp
    metrics["kappa_affine_defect"] = defect
    audits.append(Audit("kappa_order", bool(not cfg.run_bisection or (
        kappa_log <= kappa_emp and defect <= AFFINE_TOLERANCE)),
        float(min(kappa_emp - kappa_log, AFFINE_TOLERANCE - defect))))
    return (tables, metrics, audits), barrier_finals


def _bisection(cfg: RunConfig, traj: Trajectory, diffusion, source):
    """(log10 kappa_emp, affine defect): the empirical threshold of the
    plain gate from the run and one source-free unit-amplitude run, and
    the check of the superposition it rests on.

    The step is linear in f (transport is a fixed gather, diffusion one
    linear solve with f-independent coefficients) plus g, and the initial
    data is the amplitude times a fixed profile, so the run from amplitude
    a is traj + (a - a0) unit.  One direct run at a* (at 1e-3 when a* is
    infinite) checks that superposition: the defect is
    max|traj + (a* - a0) unit - direct| / (1 + max|direct|) over the
    stored slices.  The direct run is stepped by `solver.march` and each
    stored slice compared as it comes, in one slice buffer, so neither the
    superposed run nor the direct one is held: beside the run, the unit
    run is the one trajectory the bisection keeps.
    """
    grid = traj.grid
    a0 = cfg.initial_amplitude
    unit = solve_initial(cfg, grid, diffusion, None, amplitude=1.0)
    kappa_emp, amp = degiorgi.empirical_kappa(traj, unit, a0)
    amp = amp if math.isfinite(amp) else 1e-3
    gap = np.empty(grid.shape)
    gaps, scales = [], []
    direct_run = _initial_run(solver.march, cfg, grid, diffusion, source, amp)
    for i, (_, direct) in enumerate(direct_run):
        np.multiply(unit.values[i], amp - a0, out=gap)
        gap += traj.values[i]
        gap -= direct
        gaps.append(_abs_max(gap))
        scales.append(_abs_max(direct))
    return kappa_emp, float(np.max(gaps)) / (1.0 + float(np.max(scales)))


def _holder_stage(cfg: RunConfig, traj: Trajectory, diffusion, source):
    """The oscillation chain on the solution: the normalization, the
    oscillation ladder, the isoperimetric probe, the theta sequence and the
    Hoelder fit.

    Returns (tables, metrics, audits).
    """
    grid = traj.grid
    tables, metrics = {}, {}

    # --- oscillation ladder, probe, Hoelder fit ------------------------------
    lemma = holder.lemma_constants(cfg.omega, cfg.lam, cfg.dim, cfg.theta,
                                   cfg.alpha_iso)
    beta = cfg.beta if cfg.beta is not None else lemma["beta"]
    norm_traj, norm_source, big_l = holder.normalize_pair(traj, source, beta)
    metrics["normalization_l"] = big_l
    metrics["beta"] = beta
    metrics["k_star"] = lemma["k_star"]
    metrics["mu_guaranteed"] = lemma["mu_guaranteed"]

    ladder = holder.oscillation_ladder(norm_traj, diffusion, norm_source,
                                       cfg.omega, n_levels=cfg.ladder_levels,
                                       interp=cfg.interp)
    tables["ladder"] = [[i, osc, inner] for i, (osc, inner) in
                        enumerate(zip(ladder.ladder, ladder.ladder_inner))]
    metrics["mu_emp"] = ladder.mu_emp
    metrics["ladder_r2"] = ladder.fit_r2
    # a degenerate ladder's mu_emp, and so its margin, is nan
    mu = ladder.mu_emp
    audits = [Audit("mu_contraction", bool(ladder.degenerate or 0.0 < mu < 1.0),
                    float(min(mu, 1.0 - mu)))]
    metrics["sigma_from_mu"] = ladder.sigma_emp

    probe = holder.isoperimetric_probe(norm_traj, cfg.theta, cfg.omega,
                                       lemma["eta_iso_log10"], cfg.alpha_iso)
    metrics["probe_m_below"] = probe.m_below
    metrics["probe_m_top"] = probe.m_top
    metrics["probe_m_middle"] = probe.m_middle
    metrics["probe_verdict"] = probe.verdict

    theta_rep = holder.theta_sequence(norm_traj, cfg.theta, 3)
    tables["theta"] = [[k, m] for k, m in enumerate(theta_rep.measures)]
    audits.append(Audit("theta_monotone", bool(theta_rep.monotone
                                               and theta_rep.measures_nondecreasing),
                        math.nan))

    # fit at a few generic (off-symmetry-axis) base nodes; keep the best fit
    bases = [
        (0.0, (grid.x_centers[grid.n_x // 3],) * grid.dim,
         (grid.v_centers[2 * grid.n_v // 5],) * grid.dim),
        (0.0, (grid.x_centers[grid.n_x // 2],) * grid.dim,
         (grid.v_centers[grid.n_v // 2],) * grid.dim),
        (0.0, (grid.x_centers[5 * grid.n_x // 8],) * grid.dim,
         (grid.v_centers[3 * grid.n_v // 4],) * grid.dim),
    ]
    fit = {"sigma": math.nan, "C": math.nan, "r2": -math.inf, "degenerate": True}
    for base in bases:
        cand = holder.holder_fit(traj, base=base, radii=list(cfg.holder_radii))
        if cand["degenerate"]:
            continue
        if fit["degenerate"] or cand["r2"] > fit["r2"]:
            fit = cand
    metrics["sigma_emp"] = fit["sigma"]
    metrics["holder_r2"] = fit["r2"] if np.isfinite(fit["r2"]) else math.nan
    metrics["holder_c"] = fit["C"]
    # a degenerate fit's sigma and r2, and so its margin, are nan
    audits.append(Audit("sigma_positive", bool(fit["degenerate"] or
                                               (fit["sigma"] > 0 and fit["r2"] > 0.9)),
                        float(min(fit["sigma"], fit["r2"] - 0.9))))
    return tables, metrics, audits


def _can_overlap() -> bool:
    """Whether the Hoelder stage may run in a forked process while the De
    Giorgi stage runs in this one: the affinity mask holds more than one
    CPU, the fork start method exists, and this process is not itself a
    multiprocessing child (a sweep pool worker, whose pool already keeps
    every CPU busy)."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or len(affinity(0)) < 2:
        return False
    # imported here, as in `sweep`, so that importing kfplab never pays for it
    import multiprocessing
    return ("fork" in multiprocessing.get_all_start_methods()
            and multiprocessing.parent_process() is None)


def _timed(fn, *args, forked: bool = False):
    """(fn(*args), timing): the call's wall time, this process's
    `getrusage` maximum RSS in MiB when it returned, the minor page faults
    this process took during the call, the Strang steps it took
    (`solver.STEP_CLOCK`) with their mean time in microseconds (None
    without steps), the MiB owned by the largest step plan it built
    (`solver._StepPlan.nbytes`, 0 without steps), and `forked`."""
    clock = solver.STEP_CLOCK
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    steps, step_s = clock.steps, clock.seconds
    clock.plan_bytes = 0
    start = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    steps, step_s = clock.steps - steps, clock.seconds - step_s
    return out, {"wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024.0,
                 "minflt": usage.ru_minflt - faults, "steps": steps,
                 "step_us": 1e6 * step_s / steps if steps else None,
                 "plan_mb": clock.plan_bytes / 2.0**20, "forked": forked}


def _holder_child(conn, stage_args):
    """The forked process: send the Hoelder stage's dicts with the stage's
    timing in this process, or nothing when the stage raises; the parent
    then re-runs it and raises the error itself, so no exception is
    pickled."""
    try:
        conn.send(_timed(_holder_stage, *stage_args, forked=True))
    except Exception:  # noqa: BLE001 - reported by the parent's re-run
        pass
    finally:
        conn.close()


def _overlapped_stages(stage_args):
    """Run the Hoelder stage in a forked process during the De Giorgi stage.

    The child inherits the trajectory through fork; only its small result
    dicts come back over the pipe.  A stage that fails in the child, or a
    child that dies without replying, is re-run here (both stages are
    deterministic), so its exception is the serial path's.  When the De
    Giorgi stage raises, the child is terminated.  The child is joined on
    every path.  Returns the two stages' results, each with its `_timed`
    timing.
    """
    import multiprocessing
    # fork, not spawn: the child shares the stored trajectory instead of
    # receiving it pickled, and imports nothing again
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_holder_child, args=(writer, stage_args),
                        daemon=True)
    child.start()
    writer.close()
    try:
        degiorgi_out = _timed(_degiorgi_stage, *stage_args)
        try:
            holder_part = reader.recv()
        except EOFError:
            holder_part = None
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        reader.close()
    if holder_part is None:
        holder_part = _timed(_holder_stage, *stage_args)
    return degiorgi_out, holder_part


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _write_csv(path, columns, rows):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def _manifest_header(status: str) -> str:
    return f"manifest.version = {MANIFEST_VERSION}\nmanifest.status = {status}\n"


def manifest_text(cfg: RunConfig, result: RunResult) -> str:
    out = io.StringIO()
    out.write(_manifest_header("complete"))
    for name, cols in sorted(CSV_COLUMNS.items()):
        out.write(f"csv.{name} = {';'.join(cols)}\n")
    for line in config_to_text(cfg).splitlines():
        out.write(f"config.{line}\n")
    for key in sorted(result.metrics):
        out.write(f"metric.{key} = {format_value(result.metrics[key])}\n")
    audits = sorted(result.audits, key=lambda a: a.name)
    out.writelines(f"margin.{a.name} = {format_value(a.margin)}\n" for a in audits)
    out.writelines(f"verdict.{a.name} = {format_value(a.passed)}\n" for a in audits)
    out.write(f"verdict.all = {format_value(result.passed)}\n")
    return out.getvalue()


def write_incomplete_manifest(out_dir, exc: Exception):
    """Flag a run that raised: the manifest names the error, no verdicts."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="ascii") as fh:
        fh.write(_manifest_header("incomplete") + f"manifest.error = {exc!r}\n")


def _write_outputs(cfg: RunConfig, result: RunResult, traj: Trajectory,
                   barrier_finals, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for name, rows in result.tables.items():
        _write_csv(os.path.join(out_dir, f"{name}.csv"), CSV_COLUMNS[name], rows)
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="ascii") as fh:
        fh.write(manifest_text(cfg, result))
    if cfg.write_snapshots:
        export_snapshot(traj.field(0), os.path.join(out_dir, "field_initial.snap"))
        export_snapshot(traj.field(traj.n_slices - 1),
                        os.path.join(out_dir, "field_final.snap"))
        for k, fld in barrier_finals:
            export_snapshot(fld, os.path.join(out_dir, f"barrier_k{k}_final.snap"))


# ---------------------------------------------------------------------------
# ensemble sweeps
# ---------------------------------------------------------------------------

SWEEP_AUDITS = ["energy_slack", "u_monotone", "chebyshev", "local_energy",
                "comparison", "spectral", "recursion", "gate_implication",
                "kappa_order", "mu_contraction", "sigma_positive",
                "theta_monotone"]
SWEEP_COLUMNS = (["run", "seed", "coeff_kind", "source_kind"] + SWEEP_AUDITS
                 + ["mu_emp", "sigma_emp", "kappa_emp_log10", "all_passed"])


def _sweep_one(job):
    """Run one ensemble member; returns (index, RunResult or None).

    A run that raises gets an incomplete manifest naming the error, and
    the error itself stays in the process that ran it, so a pool worker
    never has to pickle an arbitrary exception.
    """
    idx, cfg, out_root = job
    sub = None if out_root is None else os.path.join(out_root, f"run_{idx:04d}")
    try:
        return idx, run_pipeline(cfg, out_dir=sub)
    except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
        if sub is not None:
            write_incomplete_manifest(sub, exc)
        return idx, None


def sweep(configs, out_root=None, workers: int | None = None):
    """Run an ensemble of configurations independently and aggregate.

    Individual failures are recorded (status incomplete) and the sweep
    continues.  With more than one worker (KFPLAB_WORKERS) the runs go to
    a pool of forked processes, at most one per run.  Each run writes only
    its own run_XXXX directory and the aggregate is ordered by run index,
    so the outputs are byte-identical at any worker count.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("empty ensemble")
    workers = worker_count() if workers is None else workers
    workers = min(workers, len(configs))
    jobs = [(idx, cfg, out_root) for idx, cfg in enumerate(configs)]
    if workers > 1:
        # imported here so that runs and one-worker sweeps never pay for it;
        # fork, not spawn, because a spawned worker re-imports numpy and
        # kfplab, and the pool forks all its workers before it starts a thread
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            outcomes = list(pool.map(_sweep_one, jobs))
    else:
        outcomes = [_sweep_one(job) for job in jobs]
    outcomes.sort(key=lambda o: o[0])

    rows = []
    results = []
    for (idx, res), cfg in zip(outcomes, configs):
        results.append(res)
        if res is None:
            rows.append([idx, cfg.seed, cfg.coeff_kind, cfg.source_kind]
                        + ["error"] * (len(SWEEP_COLUMNS) - 5) + [False])
            continue
        m = res.metrics
        rows.append([idx, cfg.seed, cfg.coeff_kind, cfg.source_kind]
                    + [res.verdicts[name] for name in SWEEP_AUDITS]
                    + [m["mu_emp"], m["sigma_emp"], m["kappa_emp_log10"],
                       res.passed])
    complete = [res.verdicts for res in results if res is not None]
    pass_rates = {name: sum(v[name] for v in complete) / len(complete)
                  if complete else 0.0 for name in SWEEP_AUDITS}

    if out_root is not None:
        os.makedirs(out_root, exist_ok=True)
        _write_csv(os.path.join(out_root, "sweep.csv"), SWEEP_COLUMNS, rows)
        with open(os.path.join(out_root, "sweep_summary.txt"), "w",
                  encoding="ascii") as fh:
            fh.write(f"runs = {len(rows)}\n")
            fh.write(f"complete = {len(complete)}\n")
            for name in SWEEP_AUDITS:
                fh.write(f"pass_rate.{name} = {format_value(pass_rates[name])}\n")
    return results, rows, pass_rates
