"""Run configuration: a line-oriented `key = value` format with dotted
section paths, a fixed schema, and total validation (no pipeline starts
with an invalid parameter)."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import PhaseGrid, dyadic_radius, dyadic_time
from .holder import lemma_constants
from .solver import StepCountError, whole_steps

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_file",
           "parse_sweep_config", "config_to_text", "format_value"]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


# the largest initial amplitude and source bound: the audits sum squares of
# f and g over every cell and slice, and at 1e160 those overflow float64
_MAGNITUDE_MAX = 1e100


def _parse_scalar(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _parse_list(raw: str):
    items = [p.strip() for p in raw.split(",") if p.strip()]
    return [_parse_scalar(p) for p in items]


@dataclass
class RunConfig:
    """Everything a run needs; defaults give the desk-scale N = 1 setup."""

    # run
    seed: int = 1
    label: str = "run"

    # grid
    dim: int = 1
    n_t: int = 48
    n_x: int = 64
    n_v: int = 64
    t_min: float = -1.5
    x_max: float = 1.5
    v_max: float = 1.5

    # diffusion coefficient
    coeff_kind: str = "checkerboard"
    lam: float = 2.0
    coeff_value: float = 1.0
    coeff_low: float = 0.6
    coeff_high: float = 1.5
    coeff_cell: float = 0.25
    coeff_mid: float = 1.0
    coeff_amplitude: float = 0.4
    coeff_frequency: float = 1.0

    # source
    source_kind: str = "zero"
    source_bound: float = 0.0
    source_cell: float = 0.25

    # initial data
    initial_kind: str = "modes"
    initial_amplitude: float = 0.4
    initial_modes: int = 3
    initial_v_width: float = 0.3

    # solver
    dt: float | None = None
    interp: str = "linear"
    store_every: int = 1

    # diagnostics
    levels: int = 4
    barrier_levels: tuple = (1, 2)
    k_s: float = 1.0
    c_n: float = 1.0
    a_const: float = 1.0
    q_constants: float = math.inf
    gamma: float | None = None
    omega: float = 0.4
    theta: float = 0.25
    alpha_iso: float = 1.0
    beta: float | None = None
    ladder_levels: int = 3
    holder_radii: tuple = (0.4, 0.2828, 0.2, 0.1414, 0.1, 0.0707, 0.05)
    run_bisection: bool = True

    # output
    write_snapshots: bool = True

    def validate(self):
        """Raise ConfigError naming the first offending field."""
        def fail(path, msg):
            raise ConfigError(f"field '{path}': {msg}")

        # q = inf is the iteration's cleanest case; every other number is finite
        for f in fields(self):
            val = getattr(self, f.name)
            for item in (val if f.name in _LIST_FIELDS else (val,)):
                if (isinstance(item, float) and f.name != "q_constants"
                        and not math.isfinite(item)):
                    fail(_ATTRS[f.name], f"must be finite, got {item}")
        if self.dim not in (1, 2):
            fail("grid.dim", f"must be 1 or 2, got {self.dim}")
        for path, val in (("grid.n_t", self.n_t), ("grid.n_x", self.n_x),
                          ("grid.n_v", self.n_v)):
            if val < 4:
                fail(path, f"resolution must be >= 4, got {val}")
        # runs end at 0, and U_0 reads the stored slices from T_0 = -1 on
        if self.t_min > dyadic_time(0) + 1e-9:
            fail("grid.t_min", f"must be at or before T_0 = {dyadic_time(0)}, where the "
                               f"time window of U_0 starts, got {self.t_min}")
        for path, val in (("grid.x_max", self.x_max), ("grid.v_max", self.v_max)):
            if not val > 0:
                fail(path, f"box half-widths must be positive, got {val}")
        if self.lam <= 1.0:
            fail("coeff.lambda", f"ellipticity constant must exceed 1, got {self.lam}")
        band = (1.0 / self.lam, self.lam)
        if self.coeff_kind == "constant":
            if not band[0] <= self.coeff_value <= band[1]:
                fail("coeff.value", f"{self.coeff_value} outside [{band[0]}, {band[1]}]")
        elif self.coeff_kind in ("checkerboard", "cellwise_random"):
            if not band[0] <= self.coeff_low <= self.coeff_high <= band[1]:
                fail("coeff.low", f"[{self.coeff_low}, {self.coeff_high}] outside "
                                  f"[{band[0]}, {band[1]}]")
        elif self.coeff_kind == "oscillatory":
            lo = self.coeff_mid - abs(self.coeff_amplitude)
            hi = self.coeff_mid + abs(self.coeff_amplitude)
            if not band[0] <= lo <= hi <= band[1]:
                fail("coeff.amplitude", f"range [{lo}, {hi}] outside [{band[0]}, {band[1]}]")
        else:
            fail("coeff.kind", f"unknown kind {self.coeff_kind!r}")
        for path, val in (("coeff.cell", self.coeff_cell), ("source.cell", self.source_cell)):
            if not val > 0:
                fail(path, f"cells must be positive, got {val}")
        if self.source_kind not in ("zero", "constant", "bump", "noise"):
            fail("source.kind", f"unknown kind {self.source_kind!r}")
        if self.source_bound < 0:
            fail("source.bound", "must be nonnegative")
        for path, val in (("initial.amplitude", self.initial_amplitude),
                          ("source.bound", self.source_bound)):
            if abs(val) > _MAGNITUDE_MAX:
                fail(path, f"magnitude must be at most {_MAGNITUDE_MAX:g}, got {val}")
        if self.initial_kind not in ("modes", "bump", "point"):
            fail("initial.kind", f"unknown kind {self.initial_kind!r}")
        if self.initial_v_width <= 0:
            fail("initial.v_width", "must be positive")
        if self.initial_modes < 1:
            fail("initial.modes", "need at least one mode")
        if self.interp not in ("linear", "cubic"):
            fail("solver.interp", f"must be linear or cubic, got {self.interp!r}")
        dt = self.dt if self.dt is not None else -self.t_min / self.n_t
        if not dt > 0:
            fail("solver.dt", f"must be positive, got {dt}")
        cfl = (2.0 * self.x_max / self.n_x) / self.v_max
        if dt > cfl * (1 + 1e-12):
            fail("solver.dt", f"dt = {dt} violates the transport bound "
                              f"dx/v_max = {cfl}")
        q_min = 12 * self.dim + 6
        if not self.q_constants > q_min:
            fail("diagnostics.q", f"each q must exceed 12N+6 = {q_min}, "
                                  f"got {self.q_constants}")
        omega_max = 1.0 - 2.0 ** (-1.0 / self.dim)
        if not 0.0 < self.omega < omega_max:
            fail("diagnostics.omega", f"must lie in (0, {omega_max:.6g}), "
                                      f"got {self.omega}")
        if not 0.0 < self.theta < 0.5:
            fail("diagnostics.theta", f"must lie in (0, 1/2), got {self.theta}")
        if self.alpha_iso <= 0:
            fail("diagnostics.alpha_iso", "must be positive")
        if self.beta is None:
            if lemma_constants(self.omega, self.lam, self.dim, self.theta,
                               self.alpha_iso)["beta"] == 0.0:
                fail("diagnostics.alpha_iso", f"alpha_iso = {self.alpha_iso} makes "
                                              "the derived source budget beta 0.0")
        elif not self.beta > 0:
            fail("diagnostics.beta", f"must be positive, got {self.beta}")
        if self.gamma is not None and not self.gamma >= 0:
            fail("diagnostics.gamma", f"must be nonnegative, got {self.gamma}")
        if not self.c_n >= 0:
            fail("diagnostics.c_n", f"must be nonnegative, got {self.c_n}")
        for path, val in (("diagnostics.k_s", self.k_s), ("diagnostics.a", self.a_const)):
            if not val > 0:
                fail(path, f"must be positive, got {val}")
        if self.levels < 2:
            fail("diagnostics.levels", "the recursion audit needs truncation "
                                       f"levels 0..K with K >= 2, got K = {self.levels}")
        if len(self.holder_radii) < 3:
            fail("diagnostics.holder_radii", "need at least 3 radii")
        for k in self.barrier_levels:
            if k < 1:
                fail("diagnostics.barrier_levels", f"levels must be >= 1, got {k}")
        # the level-k cutoff falls from 1 to 0 on R_k < |.| < R_{k-1}, an
        # annulus that is empty once R_{k-1} rounds to R_k in float64
        for path, ks in (("diagnostics.levels", [self.levels]),
                         ("diagnostics.barrier_levels", self.barrier_levels)):
            for k in ks:
                if not dyadic_radius(k - 1) > dyadic_radius(k):
                    fail(path, f"level {k} has an empty cutoff annulus")
        if self.store_every < 1:
            fail("solver.store_every", f"must be >= 1, got {self.store_every}")
        try:  # the whole-step rule `solver.solve` enforces
            whole_steps(-self.t_min, dt, self.store_every)
        except StepCountError as exc:
            fail(f"solver.{exc.param}", str(exc))
        # the barrier of level k starts from the stored slice at T_{k-1} and
        # steps at the stored spacing, under the same transport bound
        step = dt * self.store_every
        if self.barrier_levels and step > cfl * (1 + 1e-12):
            fail("solver.store_every", f"the barrier's step dt * store_every = "
                                       f"{step} violates the transport bound "
                                       f"dx/v_max = {cfl}")
        for k in self.barrier_levels:
            t_start = dyadic_time(k - 1)
            t_slice = self.t_min + round((t_start - self.t_min) / step) * step
            if abs(t_slice - t_start) > 1e-9:
                fail("grid.n_t" if self.dt is None else "solver.dt",
                     f"barrier level {k} starts at T_{k - 1} = "
                     f"{t_start}, which is not a stored slice time "
                     f"(t_min + multiples of dt * store_every = {step})")
        # the oscillation ladder needs a cell centre in Q[omega/2], both on
        # the run grid and on the unit-scale grid every zoom samples onto
        r = self.omega / 2.0
        run_grid = PhaseGrid(self.dim, (self.t_min, 0.0), self.n_t, self.x_max,
                             self.n_x, self.v_max, self.n_v)
        for grid in (run_grid, run_grid.unit_scale()):
            for path, rho, half in (("grid.n_x", grid.rho_x, grid.x_max),
                                    ("grid.n_v", grid.rho_v, grid.v_max)):
                if not rho.min() < r:
                    fail(path, f"no cell centre of the half-width {half} box "
                               f"lies in Q[omega/2] = Q[{r}]")
        # the ladder re-solves on the unit-scale grid with its own step
        unit = run_grid.unit_scale()
        if unit.dt > unit.dx / unit.v_max * (1 + 1e-12):
            fail("grid.n_t", f"the zoom grid's step {unit.dt} violates its "
                             f"transport bound dx/v_max = {unit.dx / unit.v_max}")
        return self


# field path in config files -> dataclass attribute
_PATHS = {
    "run.seed": "seed", "run.label": "label",
    "grid.dim": "dim", "grid.n_t": "n_t", "grid.n_x": "n_x", "grid.n_v": "n_v",
    "grid.t_min": "t_min", "grid.x_max": "x_max", "grid.v_max": "v_max",
    "coeff.kind": "coeff_kind", "coeff.lambda": "lam",
    "coeff.value": "coeff_value", "coeff.low": "coeff_low",
    "coeff.high": "coeff_high", "coeff.cell": "coeff_cell",
    "coeff.mid": "coeff_mid", "coeff.amplitude": "coeff_amplitude",
    "coeff.frequency": "coeff_frequency",
    "source.kind": "source_kind", "source.bound": "source_bound",
    "source.cell": "source_cell",
    "initial.kind": "initial_kind", "initial.amplitude": "initial_amplitude",
    "initial.modes": "initial_modes", "initial.v_width": "initial_v_width",
    "solver.dt": "dt", "solver.interp": "interp",
    "solver.store_every": "store_every",
    "diagnostics.levels": "levels",
    "diagnostics.barrier_levels": "barrier_levels",
    "diagnostics.k_s": "k_s", "diagnostics.c_n": "c_n",
    "diagnostics.a": "a_const", "diagnostics.q": "q_constants",
    "diagnostics.gamma": "gamma", "diagnostics.omega": "omega",
    "diagnostics.theta": "theta", "diagnostics.alpha_iso": "alpha_iso",
    "diagnostics.beta": "beta", "diagnostics.ladder_levels": "ladder_levels",
    "diagnostics.holder_radii": "holder_radii",
    "diagnostics.bisection": "run_bisection",
    "output.snapshots": "write_snapshots",
}
_LIST_FIELDS = {"barrier_levels", "holder_radii"}
_ATTRS = {v: k for k, v in _PATHS.items()}


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse `key = value` lines; '#' starts a comment; unknown keys are errors.

    `sweep.*` keys are accepted and ignored; `parse_sweep_config` returns them.
    """
    return parse_sweep_config(text, base)[0]


def parse_sweep_config(text: str, base: RunConfig | None = None,
                       ) -> tuple[RunConfig, dict]:
    """Parse like `parse_config`; also return the `sweep.*` keys, raw."""
    cfg = RunConfig() if base is None else base
    sweep = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("sweep."):
            sweep[key] = value
            continue
        if key not in _PATHS:
            raise ConfigError(f"line {lineno}: unknown field '{key}'")
        attr = _PATHS[key]
        if attr in _LIST_FIELDS:
            setattr(cfg, attr, tuple(_parse_list(value)))
        else:
            setattr(cfg, attr, _parse_scalar(value))
    cfg.validate()
    return cfg, sweep


def parse_config_file(path, base: RunConfig | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base)


def format_value(val) -> str:
    """The text of a config value or a result: true/false, repr of a float
    (nan for None), items joined by ", ", str otherwise."""
    if isinstance(val, (bool, np.bool_)):
        return "true" if val else "false"
    if val is None:
        return "nan"
    if isinstance(val, (float, np.floating)):
        return repr(float(val))
    if isinstance(val, (tuple, list)):
        return ", ".join(format_value(v) for v in val)
    return str(val)


def config_to_text(cfg: RunConfig) -> str:
    """Serialize in schema order; parse(config_to_text(c)) round-trips."""
    lines = []
    for f in fields(cfg):
        if f.name not in _ATTRS:
            continue
        val = getattr(cfg, f.name)
        if val is None:
            continue
        lines.append(f"{_ATTRS[f.name]} = {format_value(val)}")
    return "\n".join(lines) + "\n"
