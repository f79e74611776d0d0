"""Benchmark kfplab end to end; see README.md.

    python3 perfbench/run.py --workload desk|n2|sweep --seed N --seconds S --trace 0|1

Runs from the root of a kfplab source tree (kfplab is imported from its
`src/`).  Each round is one fresh child process (child.py) that sets up
kfplab and runs the workload through `kfplab.cli.main`; rounds repeat
until `--seconds` have passed, at least twice.  After every round the
outputs are checked (checks.py) and must be byte-identical to the first
round's.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 1 the rounds alternate untraced and traced, and the metrics
are the per-layer ones from the traced rounds (tracer.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
# Set-up-only children before each untraced round and after the last one,
# spread over the run so that set-up is sampled in more than one stretch of
# the machine's speed.
SETUP_PER_ROUND = 2
# At least two measured rounds, so that n2 (one ~20 s round) is never a
# single sample.
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 170
MIB = float(2**20)
# one BLAS/OpenMP thread per worker, so the sweep's 2 workers use 2 cores
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_eff"):
        return "ratio"
    return "count"


class Bench:
    def __init__(self, workload: workloads.Workload, work: Path):
        self.w = workload
        self.work = work
        self.configs = []
        for label, cfg in workload.configs:
            path = work / f"{label}.cfg"
            path.write_text(workloads.config_text(cfg), encoding="ascii")
            self.configs.append(str(path))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        KFPLAB_WORKERS=str(workload.workers), **THREAD_ENV)
        self.setup_s = []
        self.import_s = []
        self.parse_s = []
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def child(self, setup_only: bool, trace: bool = False):
        """Run one child; return its result and its peak RSS in MB."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        plan = {"src": str(ROOT / "src"), "configs": self.configs,
                "command": self.w.command, "out": str(out), "trace": trace,
                "setup_only": setup_only, "workers": self.w.workers}
        plan_path, result_path = self.work / "plan.json", self.work / "result.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path)],
            env=self.env, stdout=subprocess.DEVNULL)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() - spawned > CHILD_TIMEOUT_S:
                    proc.kill()
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"child exited with code {proc.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.setup_s.append(result["ready"] - spawned)
        self.import_s.append(result["import_s"])
        self.parse_s.append(result["parse_s"])
        return result, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB

    def round(self, trace: bool = False):
        """One measured round; checks its outputs and counts operations."""
        result, rss = self.child(setup_only=False, trace=trace)
        out = self.work / "out"
        self.attempted += self.w.operations
        run_dirs = self._run_dirs(out)
        passed = []
        for run_dir, expected in zip(run_dirs, self.w.expected):
            ok = os.path.isdir(run_dir) and not checks.check_manifest(run_dir)
            passed.append(ok)
            if not ok:
                self.failed += 1
                continue
            self.problems += checks.check_run_identity(run_dir, *expected)
            if expected[2] == "zero":
                try:
                    self.problems += checks.check_method(run_dir)
                except (OSError, ValueError, KeyError) as exc:
                    self.problems.append(f"{run_dir}: unreadable artifact: {exc}")
        if self.w.command == "sweep":
            self.problems += checks.check_sweep_csv(
                out / "op0" / "sweep.csv", self.w.expected, passed)
            codes_ok = [c == 0 for c in result["codes"]] == [all(passed)]
        else:
            codes_ok = [c == 0 for c in result["codes"]] == passed
        if not codes_ok:
            self.problems.append(f"CLI exit codes {result['codes']} disagree "
                                 f"with the manifests {passed}")
        digest = checks.tree_digest(out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.problems.append("outputs differ from the first round's")
        result["output_mb"] = checks.tree_bytes(out) / MIB
        result["peak_rss_mb"] = rss
        shutil.rmtree(out)
        return result

    def _run_dirs(self, out: Path):
        if self.w.command == "sweep":
            return [out / "op0" / f"run_{i:04d}" for i in range(self.w.operations)]
        return [out / f"op{i}" for i in range(self.w.operations)]


def measure(bench: Bench, seconds: float, trace: bool, setup_per_round: int) -> dict:
    if not trace:
        start = time.monotonic()
        rounds = []
        while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
            for _ in range(setup_per_round):
                bench.child(setup_only=True)
            rounds.append(bench.round())
        for _ in range(setup_per_round):
            bench.child(setup_only=True)
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "setup_s": statistics.median(bench.setup_s),
        }
        return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    start = time.monotonic()
    plain, traced = [], []
    while not traced or time.monotonic() - start < seconds:
        plain.append(bench.round())
        traced.append(bench.round(trace=True))
    counts = [{k: v for k, v in r["layers"].items() if layer_unit(k) == "count"}
              for r in traced]
    if any(c != counts[0] for c in counts):
        bench.problems.append(f"per-layer counts differ between traced rounds: {counts}")
    values = {k: statistics.median(r["layers"][k] for r in traced)
              for k in traced[0]["layers"]}
    values.update(counts[0])  # exact, and equal in every traced round
    values["pipeline.output_mb"] = statistics.median(r["output_mb"] for r in traced)
    values["setup.import_s"] = statistics.median(bench.import_s)
    values["config.parse_s"] = statistics.median(bench.parse_s)
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny grids, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kfplab" / "__init__.py").is_file():
        print(f"no kfplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.BY_NAME[args.workload](args.seed, tiny=args.tiny)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, work)
        metrics = measure(bench, args.seconds, bool(args.trace),
                          0 if args.tiny else SETUP_PER_ROUND)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"threads: KFPLAB_WORKERS={workload.workers} "
          + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
          + f" nproc={os.cpu_count()}", file=sys.stderr)
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
