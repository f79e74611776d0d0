import dataclasses
import filecmp
import json
import os
import pathlib

import numpy as np
import pytest

from kfplab import pipeline
from kfplab.cli import main as cli_main
from kfplab.config import ConfigError, config_to_text, parse_config, \
    parse_sweep_config
from kfplab.fields import PhaseField
from kfplab.geometry import PhaseGrid
from kfplab.pipeline import SWEEP_AUDITS, worker_count
from kfplab.snapshots import SnapshotError, export_snapshot, import_snapshot
from kfplab.solver import SolverError

FAST_CONFIG = """
run.seed = 2
grid.n_t = 24
grid.n_x = 32
grid.n_v = 32
coeff.kind = checkerboard
initial.amplitude = 0.6
diagnostics.levels = 2
diagnostics.barrier_levels = 1
diagnostics.ladder_levels = 2
diagnostics.bisection = false
"""


# --- configuration -------------------------------------------------------------

def test_config_roundtrip():
    cfg = parse_config(FAST_CONFIG)
    text = config_to_text(cfg)
    cfg2 = parse_config(text)
    assert config_to_text(cfg2) == text


def test_config_rejects_small_q():
    with pytest.raises(ConfigError, match="12N\\+6"):
        parse_config("diagnostics.q = 10\n")


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config("grid.n_y = 12\n")


def test_config_rejects_source_q():
    # the iteration constants read diagnostics.q; source.q is not a field
    with pytest.raises(ConfigError, match="unknown field 'source.q'"):
        parse_config("source.q = 2\n")
    assert "source.q" not in config_to_text(parse_config(FAST_CONFIG))


def test_config_rejects_bad_line():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")


def test_config_range_validation():
    with pytest.raises(ConfigError, match="omega"):
        parse_config("diagnostics.omega = 0.7\n")
    with pytest.raises(ConfigError, match="theta"):
        parse_config("diagnostics.theta = 0.5\n")
    with pytest.raises(ConfigError, match="coeff"):
        parse_config("coeff.kind = constant\ncoeff.value = 3.0\n")
    # the step 1.5/24 = 0.0625 is over the transport bound dx/v_max = 1/32
    with pytest.raises(ConfigError, match="field 'grid.n_t': the step .* violates "
                                          "the transport bound"):
        parse_config("grid.n_t = 24\n")


@pytest.mark.parametrize("line, path", [
    ("diagnostics.beta = 0", "diagnostics.beta"),
    ("diagnostics.beta = -1", "diagnostics.beta"),
    ("diagnostics.gamma = -100", "diagnostics.gamma"),
    ("diagnostics.c_n = -5", "diagnostics.c_n"),
    ("diagnostics.k_s = 0", "diagnostics.k_s"),
    ("diagnostics.a = 0", "diagnostics.a"),
    # the derived source budget beta = theta^(load + 2) underflows to 0.0
    ("diagnostics.alpha_iso = 1e-9", "diagnostics.alpha_iso"),
    ("diagnostics.levels = 1", "diagnostics.levels"),
    ("grid.v_max = -1", "grid.v_max"),
])
def test_config_rejects_values_the_pipeline_cannot_run(line, path):
    with pytest.raises(ConfigError, match=f"field '{path}'"):
        parse_config(FAST_CONFIG + line + "\n")


def test_config_rejects_barrier_start_between_slices():
    # dt = 0.03 on the default grid: T_0 = -1 is no stored slice time
    with pytest.raises(ConfigError, match="grid.n_t"):
        parse_config("grid.n_t = 50\n")
    with pytest.raises(ConfigError, match="grid.t_min"):
        parse_config("grid.t_min = -0.9\n")


@pytest.mark.parametrize("line", ["solver.dt = 0.015", "solver.store_every = 2"])
def test_config_rejects_the_step_knobs(line, tmp_path, capsys):
    # a run steps at the grid's dt and stores every step: no key sets either
    with pytest.raises(ConfigError, match=f"unknown field '{line.split()[0]}'"):
        parse_config(line + "\n")
    cfg_path = tmp_path / "knob.cfg"
    cfg_path.write_text(line + "\n")
    assert cli_main(["run", str(cfg_path)]) == 2
    assert line.split()[0] in capsys.readouterr().err


def test_sweep_keys_returned_by_the_parser():
    text = "sweep.seeds = 1..3\nsweep.kinds = constant\nrun.seed = 4\n"
    cfg, keys = parse_sweep_config(text)
    assert keys == {"sweep.seeds": "1..3", "sweep.kinds": "constant"}
    assert cfg.seed == 4
    assert config_to_text(parse_config(text)) == config_to_text(cfg)


def test_config_rejects_oscillation_cylinder_between_cells():
    n2 = "grid.dim = 2\ngrid.n_t = 18\ndiagnostics.omega = 0.25\n"
    # no cell centre of an even 16-cell axis lies within Q[0.125]
    with pytest.raises(ConfigError, match="grid.n_x"):
        parse_config(n2 + "grid.n_x = 16\ngrid.n_v = 16\n")
    parse_config(n2 + "grid.n_x = 18\ngrid.n_v = 18\n")


def test_config_comments_and_lists():
    cfg = parse_config("# a comment\ndiagnostics.barrier_levels = 1, 2, 3\n")
    assert cfg.barrier_levels == (1, 2, 3)


def test_pipeline_with_finite_q():
    from kfplab.pipeline import run_pipeline
    cfg = parse_config(FAST_CONFIG + "diagnostics.q = 20\nsource.kind = noise\n"
                                     "source.bound = 0.3\n")
    res = run_pipeline(cfg)
    assert res.passed
    assert res.metrics["alpha"] == pytest.approx(1.0 + 1.0 / 9.0 - 0.1, rel=1e-12)
    assert res.metrics["gamma"] > 0.0


N2_CONFIG = """
run.seed = 2
grid.dim = 2
grid.n_t = 12
grid.n_x = 13
grid.n_v = 13
diagnostics.omega = 0.25
diagnostics.bisection = false
"""


@pytest.mark.parametrize("amplitude", [1.0, 2.0])
def test_cli_run_n2_complete_manifest(tmp_path, amplitude):
    # at amplitude 2, f > 1 outside the hat union, where normalize_pair
    # does not bound it
    cfg_path = tmp_path / "n2.cfg"
    cfg_path.write_text(N2_CONFIG + f"initial.amplitude = {amplitude}\n")
    assert cli_main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "manifest.status = complete" in manifest
    assert "verdict.spectral = true" in manifest


# --- snapshots -------------------------------------------------------------------

@pytest.fixture
def field():
    grid = PhaseGrid(1, (-1.0, 0.0), 8, 1.5, 16, 1.5, 16)
    rng = np.random.default_rng(7)
    return PhaseField(grid, -0.25, rng.normal(size=grid.shape))


def test_snapshot_roundtrip_bit_exact(field, tmp_path):
    path = tmp_path / "f.snap"
    export_snapshot(field, path)
    back = import_snapshot(path, grid=field.grid)
    assert back.t == field.t
    assert np.array_equal(back.values, field.values)
    # a second export is byte-identical
    path2 = tmp_path / "g.snap"
    export_snapshot(field, path2)
    assert filecmp.cmp(path, path2, shallow=False)


def test_snapshot_corrupt_header(field, tmp_path):
    path = tmp_path / "f.snap"
    export_snapshot(field, path)
    raw = bytearray(path.read_bytes())
    raw[0:6] = b"broken"
    (tmp_path / "bad.snap").write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="magic"):
        import_snapshot(tmp_path / "bad.snap")


def test_snapshot_truncated_payload(field, tmp_path):
    path = tmp_path / "f.snap"
    export_snapshot(field, path)
    raw = path.read_bytes()
    (tmp_path / "cut.snap").write_bytes(raw[:-17])
    with pytest.raises(SnapshotError, match="truncated"):
        import_snapshot(tmp_path / "cut.snap")


def test_snapshot_cross_resolution_rejected(field, tmp_path):
    path = tmp_path / "f.snap"
    export_snapshot(field, path)
    other = PhaseGrid(1, (-1.0, 0.0), 8, 1.5, 32, 1.5, 32)
    with pytest.raises(SnapshotError, match="dims"):
        import_snapshot(path, grid=other)


def test_snapshot_standalone_import(field, tmp_path):
    path = tmp_path / "f.snap"
    export_snapshot(field, path)
    back = import_snapshot(path)
    assert np.array_equal(back.values, field.values)


# --- the command line ------------------------------------------------------------

def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_CONFIG)
    out_dir = tmp_path / "out"
    code = cli_main(["run", str(cfg_path), "-o", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out
    assert (out_dir / "manifest.txt").exists()
    assert (out_dir / "truncation.csv").exists()
    assert (out_dir / "field_final.snap").exists()

    code = cli_main(["report", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out


def test_cli_outputs_deterministic(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_CONFIG)
    assert cli_main(["run", str(cfg_path), "-o", str(tmp_path / "a")]) == 0
    assert cli_main(["run", str(cfg_path), "-o", str(tmp_path / "b")]) == 0
    for name in sorted(os.listdir(tmp_path / "a")):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name


def test_cli_rejects_invalid_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("diagnostics.q = 10\n")
    code = cli_main(["run", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "q" in captured.err


def test_cli_inspect(tmp_path, capsys):
    grid = PhaseGrid(1, (-1.0, 0.0), 8, 1.5, 16, 1.5, 16)
    f = PhaseField.constant(grid, -0.5, 0.25)
    export_snapshot(f, tmp_path / "f.snap")
    code = cli_main(["inspect", str(tmp_path / "f.snap")])
    captured = capsys.readouterr()
    assert code == 0
    assert "n_x=16" in captured.out
    assert "0.25" in captured.out


def test_cli_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(FAST_CONFIG + "\nsweep.seeds = 1, 2\n")
    out_dir = tmp_path / "sw"
    code = cli_main(["sweep", str(cfg_path), "-o", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert "2 runs" in captured.out
    assert (out_dir / "run_0000" / "manifest.txt").exists()
    # every verdict that all_passed includes has its own column and pass rate
    header = (out_dir / "sweep.csv").read_text().splitlines()[0].split(",")
    assert set(SWEEP_AUDITS) <= set(header)
    summary = (out_dir / "sweep_summary.txt").read_text()
    for name in SWEEP_AUDITS:
        assert f"pass_rate.{name} = 1.0" in summary
    manifest = (out_dir / "run_0000" / "manifest.txt").read_text()
    verdicts = {line.split(" = ")[0][len("verdict."):]
                for line in manifest.splitlines() if line.startswith("verdict.")}
    assert verdicts - {"all"} == set(SWEEP_AUDITS)


def test_cli_sweep_empty_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(FAST_CONFIG)   # no sweep.seeds
    code = cli_main(["sweep", str(cfg_path)])
    assert code == 2


@pytest.mark.parametrize("seeds", ["1, x", "1..2..3", "1.."])
def test_cli_sweep_rejects_malformed_seeds(tmp_path, capsys, seeds):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(FAST_CONFIG + f"\nsweep.seeds = {seeds}\n")
    assert cli_main(["sweep", str(cfg_path), "-o", str(tmp_path / "sw")]) == 2
    assert "sweep.seeds" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("seeds", ["3..1, 4", "3..1"])
def test_cli_sweep_rejects_a_reversed_range(tmp_path, capsys, seeds):
    # a reversed range once dropped its seeds: "3..1, 4" ran seed 4 alone
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(FAST_CONFIG + f"\nsweep.seeds = {seeds}\n")
    assert cli_main(["sweep", str(cfg_path), "-o", str(tmp_path / "sw")]) == 2
    assert "the range '3..1' is reversed" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def _tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {os.path.relpath(os.path.join(d, f), root):
            pathlib.Path(d, f).read_bytes()
            for d, _, files in os.walk(root) for f in files}


def test_cli_sweep_respects_worker_env(tmp_path, monkeypatch):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(FAST_CONFIG + "\nsweep.seeds = 1, 2\n")
    monkeypatch.setenv("KFPLAB_WORKERS", "2")
    a = tmp_path / "wa"
    assert cli_main(["sweep", str(cfg_path), "-o", str(a)]) == 0
    monkeypatch.setenv("KFPLAB_WORKERS", "1")
    b = tmp_path / "wb"
    assert cli_main(["sweep", str(cfg_path), "-o", str(b)]) == 0
    tree_a = _tree(a)
    assert "sweep.csv" in tree_a and "run_0001/field_final.snap" in tree_a
    assert tree_a == _tree(b)


def test_cli_sweep_timings_leave_the_sweep_directory_byte_identical(tmp_path,
                                                                   monkeypatch):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(FAST_CONFIG + "\nsweep.seeds = 1, 2\n")
    trees = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("KFPLAB_WORKERS", workers)
        for timed in (False, True):
            out = tmp_path / f"sweep_w{workers}_{timed}"
            args = ["sweep", str(cfg_path), "-o", str(out)]
            timings_path = tmp_path / f"timings_w{workers}.json"
            if timed:
                args += ["--timings", str(timings_path)]
            assert cli_main(args) == 0
            trees[workers, timed] = _tree(out)
            if not timed:
                continue
            # written outside the sweep directory, one entry per run index
            timings = json.loads(timings_path.read_text())
            assert sorted(timings) == ["0", "1"]
            for run in timings.values():
                assert sorted(run) == ["degiorgi", "holder", "main_solve"]
                for stage in run.values():
                    assert stage["wall_s"] > 0.0 and stage["maxrss_mb"] > 0.0
                    assert isinstance(stage["minflt"], int) and stage["minflt"] >= 0
                # a pool worker runs both stages in-process
                assert workers == "1" or run["holder"]["forked"] is False
    first = trees["1", False]
    assert "sweep.csv" in first and "run_0001/manifest.txt" in first
    assert all(tree == first for tree in trees.values())


@pytest.mark.parametrize("raw, workers", [(None, 1), ("1", 1), ("2", 2), (" 3 ", 3)])
def test_worker_count_parses_env(monkeypatch, raw, workers):
    if raw is None:
        monkeypatch.delenv("KFPLAB_WORKERS", raising=False)
    else:
        monkeypatch.setenv("KFPLAB_WORKERS", raw)
    assert worker_count() == workers


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5", ""])
def test_worker_count_rejects_bad_env(monkeypatch, raw):
    monkeypatch.setenv("KFPLAB_WORKERS", raw)
    with pytest.raises(ConfigError, match="KFPLAB_WORKERS"):
        worker_count()


def test_cli_sweep_rejects_bad_worker_env(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(FAST_CONFIG + "\nsweep.seeds = 1\n")
    monkeypatch.setenv("KFPLAB_WORKERS", "0")
    assert cli_main(["sweep", str(cfg_path), "-o", str(tmp_path / "sw")]) == 2
    assert "KFPLAB_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_sweep_pool_capped_at_run_count(monkeypatch):
    created = []

    class RecordingExecutor:
        def __init__(self, max_workers, mp_context):
            created.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    def stub_run(cfg, out_dir=None):
        return pipeline.RunResult(
            cfg, verdicts={name: True for name in SWEEP_AUDITS},
            metrics={"mu_emp": 0.5, "sigma_emp": 0.1, "kappa_emp_log10": -3.0})

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(pipeline, "run_pipeline", stub_run)
    cfg = parse_config(FAST_CONFIG)
    for n_runs, workers in ((2, 5), (3, 2), (1, 3), (4, 1)):
        results, _, _ = pipeline.sweep([cfg] * n_runs, workers=workers)
        assert len(results) == n_runs and all(r.passed for r in results)
    # one-run and one-worker sweeps run in-process without a pool
    assert created == [(2, "fork"), (2, "fork")]


def test_sweep_records_worker_failure(tmp_path, monkeypatch):
    failing_seed = 2   # run index 1 of seeds 1, 2, 3
    real_run = pipeline.run_pipeline

    def flaky_run(cfg, out_dir=None):
        if cfg.seed == failing_seed:
            raise SolverError("injected failure")
        return real_run(cfg, out_dir=out_dir)

    # forked pool workers inherit the patched module attribute
    monkeypatch.setattr(pipeline, "run_pipeline", flaky_run)
    base = parse_config(FAST_CONFIG)
    configs = [dataclasses.replace(base, seed=seed) for seed in (1, 2, 3)]
    trees = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        results, rows, _ = pipeline.sweep(configs, out_root=out, workers=workers)
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        manifest = (out / "run_0001" / "manifest.txt").read_text()
        assert "manifest.status = incomplete" in manifest
        assert "SolverError('injected failure')" in manifest
        csv_rows = (out / "sweep.csv").read_text().splitlines()
        assert csv_rows[2].startswith("1,2,")
        assert ",error," in csv_rows[2] and ",error," not in csv_rows[1] + csv_rows[3]
        trees[workers] = _tree(out)
    assert trees[1] == trees[2]
