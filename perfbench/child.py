"""One fresh process of the benchmark: set up kfplab, then run one round.

    python3 child.py PLAN.json RESULT.json

The plan names the kfplab source tree, the config files, the CLI command,
the output directory and whether to trace.  Set-up is `import kfplab`
(numpy, scipy), then parsing and validating every config; the measured
section runs `kfplab.cli.main` once per config and ends when the last
artifact is written.  Times are `time.monotonic()`, which is system-wide,
so the parent can subtract its own spawn time from `ready`.
"""

import json
import os
import sys
import time


def step_ms(config_path, repeats=15):
    """Median time of one `solver.step` on the config's grid."""
    from kfplab import pipeline, solver
    from kfplab.config import parse_config_file
    cfg = parse_config_file(config_path)
    grid = pipeline.build_grid(cfg)
    args = (pipeline.build_coefficient(cfg), pipeline.build_source_field(cfg),
            grid.dt, solver.WHOLE_SPACE)
    state = pipeline.build_initial(cfg, grid)
    state = solver.step(state, *args)  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        state = solver.step(state, *args)
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e3 * times[len(times) // 2]


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = time.monotonic()
    import kfplab
    import kfplab.cli
    from kfplab.config import parse_config_file
    import_s = time.monotonic() - t0
    source = os.path.realpath(os.path.dirname(kfplab.__file__))
    if source != os.path.realpath(os.path.join(plan["src"], "kfplab")):
        raise SystemExit(f"kfplab imported from {source}, not from {plan['src']}")

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer().install()
    t0 = time.monotonic()
    for path in plan["configs"]:
        parse_config_file(path)  # parses and validates
    result = {"import_s": import_s, "parse_s": time.monotonic() - t0,
              "ready": time.monotonic()}

    if not plan["setup_only"]:
        codes = []
        start = time.perf_counter()
        for i, path in enumerate(plan["configs"]):
            out = os.path.join(plan["out"], f"op{i}")
            codes.append(kfplab.cli.main([plan["command"], path, "-o", out]))
        result["wall_s"] = time.perf_counter() - start
        result["codes"] = codes
        if tracer is not None:
            from tracer import layer_metrics
            result["layers"] = layer_metrics(tracer.spans, result["wall_s"],
                                             plan["workers"])
            result["layers"]["solver.step_ms"] = step_ms(plan["configs"][0])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
