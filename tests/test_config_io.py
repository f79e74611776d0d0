import filecmp
import os

import numpy as np
import pytest

from kfplab.cli import main as cli_main
from kfplab.config import ConfigError, config_to_text, parse_config
from kfplab.fields import PhaseField
from kfplab.geometry import PhaseGrid
from kfplab.snapshots import SnapshotError, export_snapshot, import_snapshot

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
    with pytest.raises(ConfigError, match="dt"):
        parse_config("solver.dt = 1.0\n")


def test_config_rejects_barrier_start_between_slices():
    # dt = 0.03 on the default grid: T_0 = -1 is no stored slice time
    with pytest.raises(ConfigError, match="grid.n_t"):
        parse_config("grid.n_t = 50\n")
    with pytest.raises(ConfigError, match="grid.t_min"):
        parse_config("grid.t_min = -0.9\n")
    with pytest.raises(ConfigError, match="solver.dt"):
        parse_config("solver.dt = 0\n")
    with pytest.raises(ConfigError, match="solver.store_every"):
        parse_config("solver.store_every = 0\n")


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
    assert (out_dir / "sweep.csv").exists()
    assert (out_dir / "run_0000" / "manifest.txt").exists()


def test_cli_sweep_empty_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(FAST_CONFIG)   # no sweep.seeds
    code = cli_main(["sweep", str(cfg_path)])
    assert code == 2


def test_cli_sweep_respects_worker_env(tmp_path, monkeypatch):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(FAST_CONFIG + "\nsweep.seeds = 1, 2\n")
    monkeypatch.setenv("KFPLAB_WORKERS", "2")
    a = tmp_path / "wa"
    assert cli_main(["sweep", str(cfg_path), "-o", str(a)]) == 0
    monkeypatch.setenv("KFPLAB_WORKERS", "1")
    b = tmp_path / "wb"
    assert cli_main(["sweep", str(cfg_path), "-o", str(b)]) == 0
    assert filecmp.cmp(a / "sweep.csv", b / "sweep.csv", shallow=False)
