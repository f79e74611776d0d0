"""Spans around the public functions of kfplab's modules, installed from
outside the package by replacing module and class attributes.

A span records (id, name, start, end, parent, extra); the parent is the
innermost open span of the same thread.  Self time is a span's duration
minus that of its direct children.  Spans stay in memory and are reduced
to the per-layer metrics by `layer_metrics` when the traced round ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass

MIB = float(2**20)


def _steps(traj):
    """Strang steps a solve took: its ledger holds one entry per step plus
    the initial one; solve_anchored keeps no ledger but stores every step."""
    return len(traj.ledger) - 1 if traj.ledger else len(traj.times) - 1


def _spectrum(spec):
    return {"samples": spec.fhat.size, "bytes": spec.fhat.nbytes}


# (span name, module, attribute, extra-from-result)
TARGETS = (
    ("pipeline.run_pipeline", "kfplab.pipeline", "run_pipeline", None),
    ("solver.solve", "kfplab.solver", "solve", _steps),
    ("solver.solve_anchored", "kfplab.solver", "solve_anchored", _steps),
    ("solver.solve_barrier_ibvp", "kfplab.solver", "solve_barrier_ibvp", None),
    ("solver.energy_budget", "kfplab.solver", "energy_budget", None),
    ("solver.local_energy_check", "kfplab.solver", "local_energy_check", None),
    ("coefficients.scalar", "kfplab.coefficients", "DiffusionField.scalar", None),
    ("coefficients.diagonal", "kfplab.coefficients", "DiffusionField.diagonal", None),
    ("coefficients.sample", "kfplab.coefficients", "SourceField.sample", None),
    ("degiorgi.empirical_kappa", "kfplab.degiorgi", "empirical_kappa", None),
    ("degiorgi.build_barrier_sources", "kfplab.degiorgi", "build_barrier_sources", None),
    ("degiorgi.truncation_energy", "kfplab.degiorgi", "truncation_energy", None),
    ("degiorgi.chebyshev_audit", "kfplab.degiorgi", "chebyshev_audit", None),
    ("degiorgi.linfty_gate", "kfplab.degiorgi", "linfty_gate", None),
    ("averaging.from_trajectory", "kfplab.averaging", "SpectralField.from_trajectory", None),
    ("averaging.from_values", "kfplab.averaging", "SpectralField.from_values", _spectrum),
    ("averaging.l2_norm", "kfplab.averaging", "SpectralField.l2_norm", None),
    ("averaging.frac_norm", "kfplab.averaging", "SpectralField.frac_norm", None),
    ("averaging.frac_norm_fn", "kfplab.averaging", "frac_norm", None),
    ("averaging.interpolation_audit", "kfplab.averaging", "interpolation_audit", None),
    ("averaging.averaging_estimate_audit", "kfplab.averaging",
     "averaging_estimate_audit", None),
    ("holder.zoom", "kfplab.holder", "zoom", None),
    ("holder.oscillation_ladder", "kfplab.holder", "oscillation_ladder", None),
    ("holder.holder_fit", "kfplab.holder", "holder_fit", None),
    ("holder.isoperimetric_probe", "kfplab.holder", "isoperimetric_probe", None),
    ("snapshots.export_snapshot", "kfplab.snapshots", "export_snapshot", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    extra: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _wrap(self, name, fn, extra_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(next(self._ids), name, 0.0, 0.0,
                        stack[-1] if stack else None)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)  # list.append is atomic under the GIL
            if extra_of is not None:
                span.extra = extra_of(out)
            return out
        return traced

    def install(self):
        """Wrap every target; a module-level function is also replaced in
        each kfplab module that imported it by name."""
        for name, module, attr, extra_of in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, extra_of)))
                else:
                    setattr(cls, meth, self._wrap(name, raw, extra_of))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(name, original, extra_of)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "kfplab" or mod_name.startswith("kfplab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
        return self


def layer_metrics(spans, section_wall: float, workers: int) -> dict:
    """Reduce spans to the per-layer metrics (times in s, sizes in MB)."""
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration

    def ancestors(s):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s.name

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        """Time inside any of `names`, counting nested calls once."""
        return sum(s.duration for s in named(*names)
                   if not any(a in names for a in ancestors(s)))

    runs = named("pipeline.run_pipeline")
    run_s = sum(s.duration for s in runs)
    solves = named("solver.solve")
    anchored = named("solver.solve_anchored")
    spectra = [s.extra for s in named("averaging.from_values")]
    samples = ("coefficients.scalar", "coefficients.diagonal", "coefficients.sample")
    norms = ("averaging.l2_norm", "averaging.frac_norm", "averaging.frac_norm_fn",
             "averaging.interpolation_audit", "averaging.averaging_estimate_audit")
    return {
        "pipeline.run_pipeline_s": run_s,
        "pipeline.run_pipeline.calls": len(runs),
        "pipeline.self_s": sum(s.duration - children.get(s.id, 0.0) for s in runs),
        "pipeline.sweep_parallel_eff": run_s / (workers * section_wall),
        "solver.solve_s": total("solver.solve"),
        "solver.solve.calls": len(solves),
        "solver.steps": sum(s.extra for s in solves + anchored),
        "solver.solve_barrier_ibvp_s": total("solver.solve_barrier_ibvp"),
        "solver.energy_budget_s": total("solver.energy_budget"),
        "solver.local_energy_check_s": total("solver.local_energy_check"),
        "solver.solve_anchored_s": total("solver.solve_anchored"),
        "solver.solve_anchored.calls": len(anchored),
        "coefficients.sample_s": total(*samples),
        "coefficients.sample.calls": len(named(*samples)),
        "degiorgi.empirical_kappa_s": total("degiorgi.empirical_kappa"),
        "degiorgi.empirical_kappa.solves": sum(
            1 for s in solves if "degiorgi.empirical_kappa" in ancestors(s)),
        "degiorgi.build_barrier_sources_s": total("degiorgi.build_barrier_sources"),
        "degiorgi.truncation_energy_s": total("degiorgi.truncation_energy"),
        "degiorgi.chebyshev_audit_s": total("degiorgi.chebyshev_audit"),
        "degiorgi.linfty_gate_s": total("degiorgi.linfty_gate"),
        "averaging.from_trajectory_s": total("averaging.from_trajectory"),
        "averaging.norms_s": total(*norms),
        "averaging.fft_samples": sum(x["samples"] for x in spectra),
        "averaging.spectrum_mb": sum(x["bytes"] for x in spectra) / MIB,
        "holder.zoom_s": total("holder.zoom"),
        "holder.oscillation_ladder_s": total("holder.oscillation_ladder"),
        "holder.holder_fit_s": total("holder.holder_fit"),
        "holder.probe_s": total("holder.isoperimetric_probe"),
        "snapshots.export_s": total("snapshots.export_snapshot"),
    }
