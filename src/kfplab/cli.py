"""Command line front end: run, sweep, inspect, report.

Exit code 0 iff every selected audit passed, 3 when the run raised.  `run`
prints each verdict's margin (`pipeline.Audit`) beside its PASS/FAIL, and
`report -v` the `margin.*` lines of each manifest that has them.  A run
uses a second CPU when its affinity mask holds one: the Hoelder stage runs
in a forked process beside the De Giorgi stage (`run_pipeline`), with the
same artifacts and errors as in-process.  `run --timings PATH` writes the
per-stage wall times, peak RSS, minor page faults, Strang steps,
microseconds per step and MiB of the largest step plan
(`RunResult.timings`) to PATH, outside the run directory, whose files
stay byte-identical.  The sweep runs its
ensemble on KFPLAB_WORKERS forked worker processes (default 1,
in-process); runs own their output subdirectories exclusively, and
aggregation order is fixed, so the outputs are byte-identical at any
worker count.  `sweep --timings PATH` writes every run's stage timings to
PATH, keyed by run index (null for a run that raised), again outside the
sweep directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import (ConfigError, RunConfig, format_value, parse_config_file,
                     parse_sweep_config)
from .pipeline import run_pipeline, sweep, worker_count, write_incomplete_manifest
from .snapshots import import_snapshot


def _write_timings(path, timings):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(timings, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_run(args) -> int:
    try:
        cfg = parse_config_file(args.config)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_pipeline(cfg, out_dir=args.output)
    except Exception as exc:  # noqa: BLE001 - flagged incomplete, then surfaced
        if args.output:
            write_incomplete_manifest(args.output, exc)
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    if args.timings:
        _write_timings(args.timings, result.timings)
    for audit in sorted(result.audits, key=lambda a: a.name):
        print(f"{audit.name:20s} {'PASS' if audit.passed else 'FAIL'}  "
              f"margin {format_value(audit.margin)}")
    print(f"{'all':20s} {'PASS' if result.passed else 'FAIL'}")
    if args.output:
        print(f"artifacts written to {args.output}")
    return 0 if result.passed else 1


def _expand_sweep(cfg: RunConfig, keys: dict):
    """Materialize the ensemble from the parsed sweep.* keys."""
    seeds_raw = keys.get("sweep.seeds", "")
    if not seeds_raw:
        raise ConfigError("sweep requires 'sweep.seeds' (comma list or a..b range)")
    seeds = []
    for part in filter(None, (p.strip() for p in seeds_raw.split(","))):
        lo, dots, hi = part.partition("..")
        try:
            lo, hi = int(lo), int(hi if dots else lo)
        except ValueError:
            raise ConfigError(f"sweep.seeds: {part!r} is neither an integer nor "
                              f"an a..b range") from None
        if hi < lo:
            raise ConfigError(f"sweep.seeds: the range {part!r} is reversed "
                              f"({lo} > {hi})")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise ConfigError("sweep.seeds produced an empty ensemble")
    kinds = [k.strip() for k in keys.get("sweep.kinds", "").split(",") if k.strip()]
    if not kinds:
        kinds = [cfg.coeff_kind]
    configs = []
    for seed in seeds:
        for kind in kinds:
            sub = dataclasses.replace(cfg, seed=seed, coeff_kind=kind,
                                      label=f"{cfg.label}-s{seed}-{kind}")
            configs.append(sub.validate())
    return configs


def _cmd_sweep(args) -> int:
    try:
        workers = worker_count()
        with open(args.config, "r", encoding="utf-8") as fh:
            configs = _expand_sweep(*parse_sweep_config(fh.read()))
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    results, rows, pass_rates = sweep(configs, out_root=args.output,
                                      workers=workers)
    if args.timings:
        _write_timings(args.timings, {str(idx): None if res is None else res.timings
                                      for idx, res in enumerate(results)})
    print(f"{len(rows)} runs")
    for name, rate in pass_rates.items():
        print(f"pass_rate {name:20s} {rate:.0%}")
    ok = all(r is not None and r.passed for r in results)
    return 0 if ok else 1


def _cmd_inspect(args) -> int:
    try:
        fld = import_snapshot(args.snapshot)
    except Exception as exc:  # surfaced verbatim; malformed files are expected here
        print(f"snapshot error: {exc}", file=sys.stderr)
        return 2
    g = fld.grid
    print(f"dim      {g.dim}")
    print(f"time     {fld.t!r}")
    print(f"cells    n_x={g.n_x} n_v={g.n_v}")
    print(f"box      |x|<={g.x_max} |v|<={g.v_max}")
    print(f"min/max  {fld.values.min()!r} {fld.values.max()!r}")
    print(f"l2       {fld.l2_norm()!r}")
    print(f"mass     {fld.mass()!r}")
    return 0


def _cmd_report(args) -> int:
    root = args.directory
    manifests = []
    for dirpath, _dirnames, filenames in os.walk(root):
        if "manifest.txt" in filenames:
            manifests.append(os.path.join(dirpath, "manifest.txt"))
    if not manifests:
        print(f"no manifests under {root}", file=sys.stderr)
        return 2
    manifests.sort()
    all_ok = True
    for path in manifests:
        with open(path, "r", encoding="ascii") as fh:
            lines = dict(line.strip().partition(" = ")[::2] for line in fh)
        status = lines.get("manifest.status", "unknown")
        verdicts = {key[len("verdict."):]: value == "true"
                    for key, value in lines.items() if key.startswith("verdict.")}
        ok = status == "complete" and verdicts.get("all", False)
        all_ok &= ok
        rel = os.path.relpath(path, root)
        print(f"{rel:40s} {status:10s} {'PASS' if ok else 'FAIL'}")
        if args.verbose:
            for name in sorted(verdicts):
                if name != "all":
                    margin = lines.get(f"margin.{name}")
                    print(f"    {name:24s} {'PASS' if verdicts[name] else 'FAIL'}"
                          + (f"  margin {margin}" if margin is not None else ""))
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kfplab",
        description="Kinetic Fokker-Planck solver and regularity diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", default=None,
                       help="output directory for CSVs, manifest, snapshots")
    p_run.add_argument("--timings", default=None, metavar="PATH",
                       help="write each stage's wall time, peak RSS, minor "
                       "page faults, Strang steps, microseconds per step and "
                       "largest step plan as JSON to PATH (keep it outside the "
                       "output directory)")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run an ensemble (sweep.* keys) on KFPLAB_WORKERS forked "
        "processes; outputs are byte-identical at any worker count")
    p_sweep.add_argument("config")
    p_sweep.add_argument("-o", "--output", default=None)
    p_sweep.add_argument("--timings", default=None, metavar="PATH",
                         help="write each run's stage timings (see run "
                         "--timings) as JSON keyed by run index to PATH "
                         "(keep it outside the output directory)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_inspect = sub.add_parser("inspect", help="print snapshot header and stats")
    p_inspect.add_argument("snapshot")
    p_inspect.set_defaults(fn=_cmd_inspect)

    p_report = sub.add_parser("report", help="aggregate manifests under a directory")
    p_report.add_argument("directory")
    p_report.add_argument("-v", "--verbose", action="store_true")
    p_report.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
