"""Fast tests of the benchmark itself, on tiny grids.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 1  # a variant whose tiny runs pass every audit


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.BY_NAME))
def test_every_metric_printed_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True, proc.stderr
    assert report["failed"] == 0
    assert report["attempted"] == 2 * workloads.BY_NAME[workload](SEED).operations
    want = _declared()[trace]
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in report["metrics"].values())


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _cli(args):
    from kfplab.cli import main
    return main(args)


@pytest.fixture(scope="module")
def desk_g0(tmp_path_factory):
    """A passing tiny g = 0 desk run, written by the CLI."""
    label, cfg = workloads.desk(SEED, tiny=True).configs[3]
    assert cfg["source.kind"] == "zero"
    base = tmp_path_factory.mktemp("desk")
    (base / "run.cfg").write_text(workloads.config_text(cfg))
    assert _cli(["run", str(base / "run.cfg"), "-o", str(base / "out")]) == 0
    return base / "out"


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """The tiny sweep workload at 1 and 2 workers."""
    w = workloads.sweep(SEED, tiny=True)
    base = tmp_path_factory.mktemp("sweep")
    (base / "sweep.cfg").write_text(workloads.config_text(w.configs[0][1]))
    mp = pytest.MonkeyPatch()
    outs = {}
    try:
        for workers in (1, 2):
            mp.setenv("KFPLAB_WORKERS", str(workers))
            outs[workers] = base / f"w{workers}"
            assert _cli(["sweep", str(base / "sweep.cfg"), "-o", str(outs[workers])]) == 0
    finally:
        mp.undo()
    return w, outs


@pytest.fixture
def run_dir(desk_g0, tmp_path):
    return Path(shutil.copytree(desk_g0, tmp_path / "run"))


def test_clean_run_passes_every_check(run_dir):
    assert checks.check_manifest(run_dir) == []
    assert checks.check_method(run_dir) == []
    seed, kind, source = workloads.desk(SEED, tiny=True).expected[3]
    assert checks.check_run_identity(run_dir, seed, kind, source) == []


def test_sweep_bytes_identical_at_1_and_2_workers(sweeps):
    _, outs = sweeps
    assert checks.tree_digest(outs[1]) == checks.tree_digest(outs[2])


def test_sweep_csv_passes_then_fails_when_corrupted(sweeps, tmp_path):
    w, outs = sweeps
    path = outs[1] / "sweep.csv"
    ok = [True] * w.operations
    assert checks.check_sweep_csv(path, w.expected, ok) == []
    lines = path.read_text().splitlines(keepends=True)
    dropped = tmp_path / "dropped.csv"
    dropped.write_text("".join(lines[:-1]))
    assert checks.check_sweep_csv(dropped, w.expected, ok)
    flipped = tmp_path / "flipped.csv"
    flipped.write_text("".join(lines[:-1]) + lines[-1].replace(",true\n", ",false\n"))
    assert checks.check_sweep_csv(flipped, w.expected, ok)


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_manifest_status_incomplete_fails(run_dir):
    _edit(run_dir / "manifest.txt", "manifest.status = complete",
          "manifest.status = incomplete")
    assert checks.check_manifest(run_dir)


def test_manifest_failed_verdict_fails(run_dir):
    _edit(run_dir / "manifest.txt", "verdict.all = true", "verdict.all = false")
    assert checks.check_manifest(run_dir)


def test_manifest_wrong_seed_fails(run_dir):
    seed, kind, source = workloads.desk(SEED, tiny=True).expected[3]
    assert checks.check_run_identity(run_dir, seed + 1, kind, source)


def _rewrite_final(run_dir, change):
    path = run_dir / "field_final.snap"
    data = path.read_bytes()
    _, values = checks.read_snapshot(path)
    header = data[:len(data) - values.nbytes]
    values = values.copy()
    change(values)
    path.write_bytes(header + values.astype("<f8").tobytes())


def _problems_with(run_dir, word):
    return [p for p in checks.check_method(run_dir) if word in p]


def test_mass_change_fails(run_dir):
    _, f0 = checks.read_snapshot(run_dir / "field_initial.snap")
    shift = 1e-9 * float(np.sum(np.abs(f0)))  # 1e-9 of ||f0||_L1 / cell

    def change(v):
        v.flat[v.size // 2] += shift
    _rewrite_final(run_dir, change)
    assert _problems_with(run_dir, "mass drift")


def test_maximum_principle_breach_fails(run_dir):
    _, f0 = checks.read_snapshot(run_dir / "field_initial.snap")
    top = float(f0.max())

    def change(v):  # raise one cell above max f0, lower another: mass kept
        i, j = np.unravel_index(np.argmin(v), v.shape), np.unravel_index(np.argmax(v), v.shape)
        bump = top - v[j] + 1e-3
        v[j] += bump
        v[i] -= bump
    _rewrite_final(run_dir, change)
    assert _problems_with(run_dir, "leaves the initial range")


def _rewrite_energy(run_dir, row, factor):
    path = run_dir / "energy.csv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) * factor)
    lines[row] = ",".join(cells)
    path.write_text("".join(lines))


def test_first_energy_mismatch_fails(run_dir):
    _rewrite_energy(run_dir, 1, 1.0 + 1e-9)
    assert _problems_with(run_dir, "first energy")


def test_energy_increase_fails(run_dir):
    _rewrite_energy(run_dir, 5, 2.0)
    assert _problems_with(run_dir, "energy increases")


def test_truncated_snapshot_is_rejected(run_dir):
    path = run_dir / "field_final.snap"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        checks.check_method(run_dir)
