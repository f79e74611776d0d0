import csv
import filecmp
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import kfplab
from kfplab import averaging, degiorgi, holder, pipeline, solver
from kfplab.cli import main as cli_main
from kfplab.config import parse_config
from kfplab.degiorgi import empirical_kappa, linfty_gate
from kfplab.geometry import GridWindow, dyadic_radius, dyadic_time
from kfplab.pipeline import (
    CSV_COLUMNS,
    build_coefficient,
    build_grid,
    build_source_field,
    run_pipeline,
    solve_initial,
)

SMALL_CONFIG = """
run.seed = 2
grid.n_t = 24
grid.n_x = 24
grid.n_v = 24
coeff.kind = checkerboard
"""
# the amplitude-3 run of test_barrier_audits_see_nonzero_fields: its
# truncations (f - C_k)_+ eta, and so its barrier fields, are non-zero
BARRIER_CONFIG = SMALL_CONFIG + "initial.amplitude = 3.0\ndiagnostics.bisection = false\n"
# the desk benchmark's run on the small grid: a noise source, bisection on
DESK_CONFIG = SMALL_CONFIG + "source.kind = noise\nsource.bound = 0.3\n" \
                             "initial.amplitude = 0.8\n"
# the same at amplitude 30: every truncation level, both barriers and the
# bisection's runs are non-zero, where at amplitude 0.8 every field beyond
# k = 0 is zero
DESK_AMP30_CONFIG = DESK_CONFIG.replace("initial.amplitude = 0.8", "initial.amplitude = 30.0")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the overlapped path forks")


def test_affine_bisection_matches_direct_solves():
    cfg = parse_config(SMALL_CONFIG + "source.kind = noise\nsource.bound = 0.3\n"
                                      "initial.amplitude = 0.8\n")
    res = run_pipeline(cfg)
    kl = res.metrics["kappa_log10"]
    grid = build_grid(cfg)
    diffusion = build_coefficient(cfg)
    source = build_source_field(cfg)
    traj = solve_initial(cfg, grid, diffusion, source)
    unit = solve_initial(cfg, grid, diffusion, None, amplitude=1.0)
    kappa_emp, amp = empirical_kappa(traj, unit, cfg.initial_amplitude)
    assert 1e-3 < amp < math.inf

    def gate_at(a):
        return linfty_gate(solve_initial(cfg, grid, diffusion, source, a), kl)

    # a* is the largest passing amplitude, to the direct solves' roundoff
    assert gate_at(amp * (1 - 1e-6)).conclusion_holds
    assert not gate_at(amp * (1 + 1e-6)).conclusion_holds
    assert kappa_emp == pytest.approx(gate_at(amp).premise_log10,
                                      rel=1e-12, abs=1e-12)
    assert res.metrics["kappa_emp_log10"] == kappa_emp
    assert res.metrics["kappa_affine_defect"] <= 1e-12
    assert res.verdicts["kappa_order"]


def test_bisection_off_reports_no_defect():
    res = run_pipeline(parse_config(SMALL_CONFIG + "diagnostics.bisection = false\n"))
    assert np.isnan(res.metrics["kappa_emp_log10"])
    assert np.isnan(res.metrics["kappa_affine_defect"])


def test_energy_slack_and_gate_resolution_metrics():
    res = run_pipeline(parse_config(SMALL_CONFIG + "diagnostics.bisection = false\n"))
    slacks = [row[-1] for row in res.tables["energy"]]
    # the slack at t0 is 0 by definition, so the metric is taken after it
    assert slacks[0] == 0.0
    assert res.metrics["energy_min_slack"] == min(slacks[1:]) > 0.0
    assert res.verdicts["energy_slack"]
    assert res.metrics["gate_resolution_limited"] is False
    # 8 cells of width 0.375 cannot resolve Q[1/2]: the gate's fallback cylinder
    coarse = run_pipeline(parse_config(
        SMALL_CONFIG + "grid.n_t = 12\ngrid.n_x = 8\ngrid.n_v = 8\n"
                       "diagnostics.bisection = false\n"))
    assert coarse.metrics["gate_resolution_limited"] is True


def test_barrier_audits_see_nonzero_fields(monkeypatch, padded_fftn_check):
    # at amplitude 3 the truncations (f - C_k)_+ eta are non-zero, so the
    # comparison and spectral audits check real barrier data
    spectra = []
    barriers = []
    from_trajectory = averaging.SpectralField.from_trajectory
    solve_barrier_ibvp = solver.solve_barrier_ibvp

    def recording(cls, *args, **kwargs):
        spectra.append(from_trajectory(*args, **kwargs))
        return spectra[-1]

    def solving(source, diffusion, k, **kwargs):
        barriers.append((k, source, solve_barrier_ibvp(source, diffusion, k, **kwargs)))
        return barriers[-1][-1]
    monkeypatch.setattr(averaging.SpectralField, "from_trajectory",
                        classmethod(recording))
    monkeypatch.setattr(solver, "solve_barrier_ibvp", solving)
    cfg = parse_config(SMALL_CONFIG + "initial.amplitude = 3.0\n"
                                      "diagnostics.bisection = false\n")
    res = run_pipeline(cfg)

    # the barrier stage runs on the level window from T_{k-1}: sources and
    # barrier are (slices from T_{k-1}, *window shape), smaller than the grid
    grid = build_grid(cfg)
    times = grid.times
    assert [k for k, _, _ in barriers] == list(cfg.barrier_levels)
    for k, src, g in barriers:
        cells = GridWindow(grid, dyadic_radius(k - 1))
        shape = (int(np.count_nonzero(times >= dyadic_time(k - 1))),) + cells.shape
        assert src.grid.box == cells.box
        # one increment per barrier step
        assert g.values.shape == shape
        assert src.increments.shape == (shape[0] - 1,) + shape[1:]
        assert math.prod(cells.shape) < math.prod(grid.shape)

    col = {name: j for j, name in enumerate(CSV_COLUMNS["barrier"])}
    row = res.tables["barrier"][0]
    assert row[col["k"]] == 1
    assert row[col["f_linf"]] > 0
    assert row[col["s1_l2"]] > 0
    l2 = spectra[0].l2_norm()
    assert l2 > 0
    assert row[col["plancherel_defect"]] <= 1e-12 * max(1.0, l2)
    assert res.verdicts["comparison"]
    assert res.verdicts["spectral"]
    # the barriers' spectra are an independent padded fftn's, the window
    # zero-extended to the grid (a circular shift leaves every marginal)
    assert len(spectra) == len(barriers)
    for spec, (_, _, g) in zip(spectra, barriers):
        spacings = (float(g.times[1] - g.times[0]), grid.dx, grid.dv)
        padded_fftn_check(spec, g.values, spacings, {"t": (0,), "x": (1,), "v": (2,)},
                          2, box=(g.n_slices,) + grid.shape)


def test_barrier_artifacts_byte_identical_across_cli_runs(tmp_path):
    # the only tier-1 run in which the barrier path meets non-zero data twice
    cfg_path = tmp_path / "barrier.cfg"
    cfg_path.write_text(BARRIER_CONFIG)
    assert cli_main(["run", str(cfg_path), "-o", str(tmp_path / "a")]) == 0
    assert cli_main(["run", str(cfg_path), "-o", str(tmp_path / "b")]) == 0
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    assert "barrier_k1_final.snap" in names
    for name in names:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name
    with open(tmp_path / "a" / "barrier.csv", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["f_linf"]) > 0.0
    assert float(rows[0]["s1_l2"]) > 0.0


def test_a_barrier_level_beyond_the_truncation_ladder_gets_its_own_report():
    # the barrier budgets read the f_k norms of the level's pass; level 3
    # lies beyond a ladder of levels 0..2, so it has a pass and no
    # truncation report
    cfg = parse_config(BARRIER_CONFIG + "diagnostics.levels = 2\n"
                                        "diagnostics.barrier_levels = 1, 3\n")
    res = run_pipeline(cfg)
    assert [row[0] for row in res.tables["truncation"]] == [0, 1, 2]
    assert [row[0] for row in res.tables["barrier"]] == [1, 3]
    traj = solve_initial(cfg, build_grid(cfg), build_coefficient(cfg),
                         build_source_field(cfg))
    rep = degiorgi.build_barrier_sources(
        degiorgi.LevelPass(traj, 3, build_source_field(cfg)), build_coefficient(cfg))
    col = CSV_COLUMNS["barrier"].index("s1_bound")
    assert res.tables["barrier"][1][col] == rep.s1_bound


def test_a_level_pass_and_its_barrier_start_at_the_same_stored_slice():
    # on this grid T_0 = -1 is stored at -0.9999999999999999: the level-1
    # window starts there, not one slice earlier, and the barrier with it
    cfg = parse_config(BARRIER_CONFIG + "grid.t_min = -1.4\ngrid.n_t = 21\n"
                                        "diagnostics.barrier_levels = 1\n")
    diffusion, source = build_coefficient(cfg), build_source_field(cfg)
    traj = solve_initial(cfg, build_grid(cfg), diffusion, source)
    i0 = traj.slice_index(dyadic_time(0))
    assert traj.times[i0] > dyadic_time(0)
    level = degiorgi.LevelPass(traj, 1, source)
    rep = degiorgi.build_barrier_sources(level, diffusion)
    assert level.window.times[0] == rep.initial.t == rep.source.t_start == traj.times[i0]
    assert len(rep.source.increments) == traj.n_slices - i0 - 1
    assert rep.fk_l2 > 0.0


@pytest.mark.parametrize("kind", ["checkerboard", "cellwise_random", "constant"])
def test_the_sup_term_of_u_k_does_not_increase_with_k(kind):
    """sup_t 1/2 int eta_k(x) eta_k(v)^2 f_k^2 over the slices from T_k is
    non-increasing in k: f_k <= f_{k-1} and eta_k <= eta_{k-1} cell by
    cell, and the slices from T_k are among those from T_{k-1}.  The cell
    sums of two levels run over different level windows, and so round
    apart: the roundoff tolerance is 1e-12 of the previous level's term.
    At amplitude 1e3 on 24^2 cells U_k is not monotone (`u_monotone`
    fails on all three coefficient kinds): its dissipation term grows with
    the cutoff slopes, which grow like 2^k."""
    cfg = parse_config(f"grid.n_t = 24\ngrid.n_x = 24\ngrid.n_v = 24\ncoeff.kind = {kind}\n"
                       "initial.amplitude = 1000.0\ndiagnostics.bisection = false\n")
    rows = run_pipeline(cfg).tables["truncation"]
    sup = [row[CSV_COLUMNS["truncation"].index("sup_term")] for row in rows]
    assert len(sup) == cfg.levels + 1 and sup[-1] > 0.0
    for k in range(1, len(sup)):
        assert sup[k] <= sup[k - 1] * (1.0 + 1e-12), (k, sup)


# the desk run that exercises every level and passes every verdict, and the
# amplitude-1e3 run on 24^2 cells, bisection off, whose u_monotone fails
@pytest.mark.parametrize("text,exit_code", [
    ("run.seed = 4\ncoeff.kind = cellwise_random\nsource.kind = noise\n"
     "source.bound = 0.3\ninitial.amplitude = 30\n", 0),
    ("grid.n_t = 24\ngrid.n_x = 24\ngrid.n_v = 24\ninitial.amplitude = 1000\n"
     "diagnostics.bisection = false\n", 1),
], ids=["desk_amp30", "amp1e3_24"])
def test_every_margin_agrees_with_its_verdict(tmp_path, text, exit_code):
    cfg = parse_config(text)
    res = run_pipeline(cfg)
    m = res.metrics
    assert sorted(a.name for a in res.audits) == sorted(pipeline.SWEEP_AUDITS)
    level_set = CSV_COLUMNS["truncation"].index("level_set")
    assert all(r[level_set] > 0.0 for r in res.tables["truncation"])
    # the cases the Audit docstring names, where a verdict passes unchecked
    unchecked = {"kappa_order": not cfg.run_bisection,
                 "mu_contraction": math.isnan(m["mu_emp"]),
                 "sigma_positive": math.isnan(m["sigma_emp"]),
                 "gate_implication": m["gate_premise_log10"] >= m["kappa_log10"],
                 "theta_monotone": True}
    for a in res.audits:
        if math.isnan(a.margin):
            assert a.passed and unchecked.get(a.name), a
        else:
            assert a.margin >= 0.0 if a.passed else a.margin <= 0.0, a
    if exit_code:
        failed = [a for a in res.audits if not a.passed]
        assert [a.name for a in failed] == ["u_monotone"]
        assert failed[0].margin == pytest.approx(-156.43, rel=1e-4)
    else:
        assert res.passed
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert cli_main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == exit_code
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    for a in res.audits:
        assert f"margin.{a.name} = {a.margin!r}\n" in manifest


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the benchmark runs one BLAS thread and the tests the default; the
    # spectra's Gram products must give the same bits at either count
    cfg_path = tmp_path / "barrier.cfg"
    cfg_path.write_text(BARRIER_CONFIG)
    src = os.path.dirname(os.path.dirname(os.path.abspath(kfplab.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=path)
        subprocess.run([sys.executable, "-m", "kfplab.cli", "run", str(cfg_path),
                        "-o", str(tmp_path / threads)], env=env, check=True, timeout=600)
    assert "barrier.csv" in _same_files(tmp_path / "1", tmp_path / "2")
    with open(tmp_path / "1" / "barrier.csv", encoding="ascii") as fh:
        assert float(next(csv.DictReader(fh))["interp_lhs"]) > 0.0


# --- the overlapped stages ---------------------------------------------------------

def _cli_run(tmp_path, text, name, overlap, monkeypatch):
    """`kfplab run` with the Hoelder stage forked (overlap) or in-process."""
    monkeypatch.setattr(pipeline, "_can_overlap", lambda: overlap)
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(text)
    code = cli_main(["run", str(cfg_path), "-o", str(tmp_path / name)])
    assert multiprocessing.active_children() == []
    return code


def _same_files(a, b):
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), name
    return names


def _record_pid(monkeypatch, path):
    """Wrap `holder.theta_sequence` to log the pid of each process that runs it."""
    theta_sequence = holder.theta_sequence

    def recording(*args, **kwargs):
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return theta_sequence(*args, **kwargs)
    monkeypatch.setattr(holder, "theta_sequence", recording)


def _csv_rows(path):
    with open(path, encoding="ascii") as fh:
        return list(csv.DictReader(fh))


@needs_fork
@pytest.mark.parametrize("text,exercised", [(DESK_CONFIG, False), (BARRIER_CONFIG, False),
                                            (DESK_AMP30_CONFIG, True)],
                         ids=["desk", "barrier", "desk_amp30"])
def test_serial_and_overlapped_paths_write_identical_artifacts(tmp_path, monkeypatch,
                                                               text, exercised):
    pids = tmp_path / "pids"
    _record_pid(monkeypatch, pids)
    assert _cli_run(tmp_path, text, "serial", False, monkeypatch) == 0
    assert _cli_run(tmp_path, text, "overlap", True, monkeypatch) == 0
    serial_pid, overlap_pid = (int(p) for p in pids.read_text().split())
    assert serial_pid == os.getpid() != overlap_pid
    names = _same_files(tmp_path / "serial", tmp_path / "overlap")
    assert {"theta.csv", "ladder.csv", "barrier.csv", "manifest.txt"} <= set(names)
    if exercised:
        # every level pass and both barriers were compared on non-zero fields
        assert all(float(r["level_set"]) > 0.0
                   for r in _csv_rows(tmp_path / "serial" / "truncation.csv"))
        assert all(float(r["s1_l2"]) > 0.0 and float(r["s2_l2"]) > 0.0
                   for r in _csv_rows(tmp_path / "serial" / "barrier.csv"))


def test_timed_counts_the_page_faults_of_the_call():
    # a fresh 32 MiB array is mapped and touched inside the call
    _, timing = pipeline._timed(lambda: float(np.ones(1 << 22).sum()))
    assert timing["minflt"] > 0 and timing["forked"] is False


@pytest.mark.parametrize("overlap", [False, pytest.param(True, marks=needs_fork)],
                         ids=["serial", "overlap"])
def test_timings_flag_leaves_the_run_directory_byte_identical(tmp_path, monkeypatch,
                                                               overlap):
    assert _cli_run(tmp_path, BARRIER_CONFIG, "plain", overlap, monkeypatch) == 0
    monkeypatch.setattr(pipeline, "_can_overlap", lambda: overlap)
    cfg_path = tmp_path / "timed.cfg"
    cfg_path.write_text(BARRIER_CONFIG)
    timings_path = tmp_path / "timings.json"
    assert cli_main(["run", str(cfg_path), "-o", str(tmp_path / "timed"),
                     "--timings", str(timings_path)]) == 0
    _same_files(tmp_path / "plain", tmp_path / "timed")
    timings = json.loads(timings_path.read_text())
    assert sorted(timings) == ["degiorgi", "holder", "main_solve"]
    for stage in timings.values():
        assert stage["wall_s"] > 0.0 and stage["maxrss_mb"] > 0.0
        assert isinstance(stage["minflt"], int) and stage["minflt"] >= 0
    assert timings["holder"]["forked"] is overlap
    assert timings["degiorgi"]["forked"] is timings["main_solve"]["forked"] is False


@pytest.mark.parametrize("overlap", [False, pytest.param(True, marks=needs_fork)],
                         ids=["serial", "overlap"])
def test_timings_count_the_strang_steps_of_each_stage(monkeypatch, overlap):
    """Each stage's `steps` counts the Strang steps taken in its process,
    the forked Hoelder stage's included: n_t in the main solve; the
    bisection's unit and direct runs (n_t each) and the barrier IBVPs from
    T_(k-1) to 0 in the De Giorgi stage; n_t per ladder level in the
    Hoelder stage."""
    monkeypatch.setattr(pipeline, "_can_overlap", lambda: overlap)
    cfg = parse_config(DESK_CONFIG)
    assert cfg.run_bisection and cfg.barrier_levels
    grid = build_grid(cfg)
    n_t = solver.whole_steps(-cfg.t_min, grid.dt)
    barrier = sum(solver.whole_steps(-dyadic_time(k - 1), grid.dt)
                  for k in cfg.barrier_levels)
    timings = run_pipeline(cfg).timings
    assert timings["holder"]["forked"] is overlap
    assert timings["main_solve"]["steps"] == n_t
    assert timings["degiorgi"]["steps"] == 2 * n_t + barrier
    assert timings["holder"]["steps"] == cfg.ladder_levels * n_t
    for stage in timings.values():
        assert stage["step_us"] > 0.0 and stage["plan_mb"] > 0.0
    # the main solve builds one plan, on the run's grid
    plan = solver._StepPlan(grid, build_coefficient(cfg), build_source_field(cfg), grid.dt,
                            cfg.interp, True)
    plan.step(np.zeros(grid.shape), grid.t_span[0])
    assert timings["main_solve"]["plan_mb"] == plan.nbytes / 2.0**20
    _, timing = pipeline._timed(lambda: None)
    assert timing["steps"] == 0 and timing["step_us"] is None and timing["plan_mb"] == 0.0


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@needs_fork
@pytest.mark.parametrize("module,name,exc", [
    (holder, "theta_sequence", ValueError("theta ladder failed")),     # forked stage
    (degiorgi, "chebyshev_audit", RuntimeError("chebyshev failed")),   # parent stage
], ids=["holder_stage", "degiorgi_stage"])
def test_overlapped_failures_match_the_serial_path(tmp_path, monkeypatch, module, name,
                                                   exc):
    monkeypatch.setattr(module, name, _raising(exc))
    cfg = parse_config(DESK_CONFIG)
    errors = []
    for overlap in (False, True):
        monkeypatch.setattr(pipeline, "_can_overlap", lambda: overlap)
        with pytest.raises(type(exc)) as info:
            run_pipeline(cfg)
        errors.append(info.value)
        assert multiprocessing.active_children() == []
    assert [type(e) for e in errors] == [type(exc)] * 2
    assert str(errors[0]) == str(errors[1]) == str(exc)

    # the CLI flags both runs incomplete with the same manifest and exit code 3
    for label, overlap in (("serial", False), ("overlap", True)):
        assert _cli_run(tmp_path, DESK_CONFIG, label, overlap, monkeypatch) == 3
    _same_files(tmp_path / "serial", tmp_path / "overlap")
    manifest = (tmp_path / "overlap" / "manifest.txt").read_text()
    assert "manifest.status = incomplete\n" in manifest
    assert f"manifest.error = {exc!r}\n" in manifest


@needs_fork
def test_a_child_that_dies_is_rerun_in_process(tmp_path, monkeypatch):
    theta_sequence = holder.theta_sequence

    def dying(*args, **kwargs):
        if multiprocessing.parent_process() is not None:
            os._exit(1)  # no reply, no cleanup: EOF on the pipe
        return theta_sequence(*args, **kwargs)
    monkeypatch.setattr(holder, "theta_sequence", dying)
    assert _cli_run(tmp_path, BARRIER_CONFIG, "serial", False, monkeypatch) == 0
    assert _cli_run(tmp_path, BARRIER_CONFIG, "overlap", True, monkeypatch) == 0
    _same_files(tmp_path / "serial", tmp_path / "overlap")


@needs_fork
def test_interrupt_terminates_and_joins_the_child(monkeypatch):
    monkeypatch.setattr(pipeline, "_can_overlap", lambda: True)
    monkeypatch.setattr(degiorgi, "chebyshev_audit", _raising(KeyboardInterrupt()))
    # a forked stage that would outlast the test unless it is terminated
    monkeypatch.setattr(holder, "normalize_pair", lambda *args: time.sleep(120))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(parse_config(BARRIER_CONFIG))
    assert time.monotonic() - start < 60
    assert multiprocessing.active_children() == []


def _probe_in_child(conn):
    conn.send(pipeline._can_overlap())
    conn.close()


@needs_fork
def test_overlap_probe(monkeypatch):
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else 1
    assert pipeline._can_overlap() == (cpus > 1)
    # a multiprocessing child, such as a sweep pool worker, stays serial
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_probe_in_child, args=(writer,))
    child.start()
    writer.close()
    assert reader.poll(60)
    assert reader.recv() is False
    child.join(60)
    assert not child.is_alive()
    # one CPU in the affinity mask: serial
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pipeline._can_overlap() is False
