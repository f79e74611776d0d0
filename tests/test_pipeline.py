import csv
import filecmp
import math
import os

import numpy as np
import pytest

from kfplab import averaging, solver
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


def test_barrier_audits_see_nonzero_fields(monkeypatch):
    # at amplitude 3 the truncations (f - C_k)_+ eta are non-zero, so the
    # comparison and spectral audits check real barrier data
    spectra = []
    barriers = []
    from_trajectory = averaging.SpectralField.from_trajectory
    solve_barrier_ibvp = solver.solve_barrier_ibvp

    def recording(cls, *args, **kwargs):
        spectra.append(from_trajectory(*args, **kwargs))
        return spectra[-1]

    def solving(s1, s2, diffusion, k, **kwargs):
        barriers.append((k, s1, solve_barrier_ibvp(s1, s2, diffusion, k, **kwargs)))
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
    for k, s1, g in barriers:
        cells = GridWindow(grid, dyadic_radius(k - 1))
        shape = (int(np.count_nonzero(times >= dyadic_time(k - 1))),) + cells.shape
        assert s1.grid.box == cells.box
        assert s1.values.shape == g.values.shape == shape
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
