"""Rough diffusion coefficients and source terms.

Diffusion fields A(t, x, v) are merely measurable, diagonal, and
uniformly elliptic: every diagonal entry in [1/lam, lam] with lam > 1.  No
continuity is assumed or used anywhere downstream.  Piecewise-constant
kinds (checkerboard, cellwise-random) are genuinely discontinuous across
coefficient-cell faces, and those faces are deliberately offset by half a
coefficient cell from the solver grid so the roughness is exercised
honestly.  Randomness is hash-based on cell indices, so evaluation is
pure, order-independent and bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PhaseGrid, cutoff_value, make_cylinder

__all__ = [
    "CoefficientError",
    "DiffusionField",
    "SourceField",
    "EllipticityCertificate",
    "KeyedSampler",
    "build_diffusion",
    "build_source",
    "validate_ellipticity",
    "source_lq_norm",
]


class CoefficientError(ValueError):
    """Coefficient specification violates its declared bounds."""


# --- hash-based uniform noise (splitmix64 finalizer) -----------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hash_uniform(seed: int, *index_arrays) -> np.ndarray:
    """Deterministic uniforms in [0, 1) keyed on integer cell indices."""
    with np.errstate(over="ignore"):
        acc = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN
        for arr in index_arrays:
            a = np.asarray(arr).astype(np.int64).view(np.uint64)
            acc = _mix(acc + a * _GOLDEN + np.uint64(1))
        return (acc >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _cell_index(coord, cell: float, offset: float):
    """floor((coord - offset) / cell): an int for a float `coord` (a step's
    time, by Python float arithmetic, bit-equal to the array rule), an
    int64 array otherwise."""
    if isinstance(coord, float):
        return math.floor((coord - offset) / cell)
    return np.floor((np.asarray(coord, dtype=float) - offset) / cell).astype(np.int64)


def _drifts(transform) -> bool:
    """Whether a zoom moves x with s (base velocity v0 != 0), so that a field
    varying in x has samples that vary in s."""
    return transform is not None and any(transform.v0)


def _pullback(transform, t, xs, vs):
    """(t, xs, vs) pulled back through a zoom, unchanged without one."""
    return (t, xs, vs) if transform is None else transform.apply_coords(t, xs, vs)


def _composed(outer, inner):
    """The zoom `outer` after `inner`; `inner` alone without an outer one."""
    return inner if outer is None else outer.compose(inner)


def _time_cell(transform, t, cell: float, offset: float) -> int:
    """Index of the time cell holding t pulled back through `transform`."""
    if transform is not None:
        t = transform.apply_time(t)
    return int(_cell_index(t, cell, offset))


class KeyedSampler:
    """`draw(t)` for a coefficient or source field, drawn again only when
    the field's `time_key` changes; equal keys give bit-equal samples, so
    the last draw is returned unchanged in between."""

    def __init__(self, owner, draw):
        self.owner = owner
        self.draw = draw
        self.key = object()  # equal to no key: the first call draws
        self.value = None

    def __call__(self, t):
        key = self.owner.time_key(t)
        if key != self.key:
            self.key, self.value = key, self.draw(t)
        return self.value


# --- diffusion fields -------------------------------------------------------

@dataclass
class DiffusionField:
    """The matrix coefficient A(t, x, v) with its ellipticity certificate lam.

    A is diagonal, diag(a_1, .., a_N) with every entry in [1/lam, lam]: the
    solver splits the diffusion per v axis and keeps its discrete maximum
    principle only for diagonal fields.  For dim = 1 the field is the
    scalar a(t, x, v).  An optional `transform` pulls coordinates back
    through a kinetic scaling map before the kind rule is applied (used by
    zooming); the ellipticity bounds are invariant under that composition.
    """

    dim: int
    lam: float
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    transform: object = None

    def __post_init__(self):
        if self.lam <= 1.0:
            raise CoefficientError(f"ellipticity constant must exceed 1, got {self.lam}")
        if self.kind not in ("constant", "checkerboard", "cellwise_random",
                             "oscillatory"):
            raise CoefficientError(f"unknown diffusion kind {self.kind!r}")
        self._check_bounds()

    # -- declared value ranges, rejected at build time ----------------------
    def _declared_range(self):
        p = self.params
        if self.kind == "constant":
            v = p.get("value", 1.0)
            return v, v
        if self.kind == "checkerboard":
            return min(p["values"]), max(p["values"])
        if self.kind == "cellwise_random":
            return p["low"], p["high"]
        if self.kind == "oscillatory":
            return p["mid"] - abs(p["amplitude"]), p["mid"] + abs(p["amplitude"])
        raise AssertionError

    def _check_bounds(self):
        lo, hi = self._declared_range()
        if lo < 1.0 / self.lam - 1e-12 or hi > self.lam + 1e-12:
            raise CoefficientError(
                f"diffusion values [{lo}, {hi}] leave the elliptic band "
                f"[{1.0 / self.lam}, {self.lam}]")

    # -- evaluation ----------------------------------------------------------
    def _scalar_rule(self, component, t, xs, vs):
        p = self.params
        seed = self.seed + 101 * component
        if self.kind == "constant":
            vals = p.get("value", 1.0)
            if np.isscalar(t) and all(np.isscalar(c) for c in xs + vs):
                return float(vals)
            shape = np.broadcast(np.asarray(t), *map(np.asarray, xs + vs)).shape
            return np.full(shape, float(vals))
        if self.kind == "checkerboard":
            cell = p["cell"]
            offset = p.get("offset", 0.5 * cell)
            axes = p.get("axes", "xv")
            parity = np.zeros((), dtype=np.int64)
            if "t" in axes:
                parity = parity + _cell_index(t, cell, offset)
            if "x" in axes:
                for c in xs:
                    parity = parity + _cell_index(c, cell, offset)
            if "v" in axes:
                for c in vs:
                    parity = parity + _cell_index(c, cell, offset)
            values = p["values"]
            return np.where(parity % 2 == 0, values[0], values[1])
        if self.kind == "cellwise_random":
            cell = p["cell"]
            offset = p.get("offset", 0.5 * cell)
            idx = [_cell_index(t, cell, offset)]
            idx += [_cell_index(c, cell, offset) for c in xs + vs]
            u = hash_uniform(seed, *idx)
            return p["low"] + (p["high"] - p["low"]) * u
        if self.kind == "oscillatory":
            freq = p.get("frequency", 1.0)
            wave = np.cos(2.0 * np.pi * freq * np.asarray(t, dtype=float))
            for c in xs + vs:
                wave = wave * np.cos(2.0 * np.pi * freq * np.asarray(c, dtype=float))
            return p["mid"] + p["amplitude"] * wave
        raise CoefficientError(f"kind {self.kind!r} has no scalar rule")

    def time_key(self, t):
        """A key with equal values only at times whose samples are bit-equal:
        None for kinds constant in t (constant, and checkerboard without t
        in its axes), the time-cell index of the pulled-back time for
        cellwise_random and checkerboard with t, and t
        itself for oscillatory, and for any kind but constant under a zoom
        with v0 != 0, whose x drifts with s."""
        p = self.params
        if self.kind == "constant":
            return None
        if self.kind == "oscillatory" or _drifts(self.transform):
            return t
        if self.kind == "checkerboard" and "t" not in p.get("axes", "xv"):
            return None
        return _time_cell(self.transform, t, p["cell"], p.get("offset", 0.5 * p["cell"]))

    def scalar(self, t, x, v):
        """a(t, x, v) for dim = 1, broadcasting over array arguments."""
        if self.dim != 1:
            raise CoefficientError("scalar evaluation requires dim = 1")
        return self.diagonal(t, (x,), (v,))[0]

    def diagonal(self, t, xs, vs):
        """Per-axis diagonal entries (a_1[, a_2]) at broadcast coordinates."""
        t, xs, vs = _pullback(self.transform, t, tuple(xs), tuple(vs))
        return tuple(self._scalar_rule(i, t, xs, vs) for i in range(self.dim))

    def sample(self, grid: PhaseGrid, t: float) -> tuple:
        """The diagonal entries on all (x, v) cell centers of the grid at t."""
        return tuple(np.broadcast_to(a, grid.shape)
                     for a in self.diagonal(t, *grid.coords()))

    def transformed(self, transform) -> "DiffusionField":
        """Compose the coordinate transform (zoom pullback); lam is unchanged."""
        return DiffusionField(self.dim, self.lam, self.kind, dict(self.params),
                              self.seed, _composed(self.transform, transform))


def build_diffusion(dim: int, lam: float, kind: str, seed: int = 0,
                    **params) -> DiffusionField:
    """Construct a diffusion field, rejecting specs that violate ellipticity."""
    return DiffusionField(dim=dim, lam=lam, kind=kind, params=params, seed=seed)


# --- ellipticity validation -------------------------------------------------

@dataclass
class EllipticityCertificate:
    passed: bool
    margin: float
    violations: list        # (t, x, v, margin), the first 16

    def __bool__(self):
        return self.passed


def validate_ellipticity(A: DiffusionField, grid: PhaseGrid, times=None,
                         n_random: int = 256, seed: int = 0) -> EllipticityCertificate:
    """Check the diagonal entries against the band [1/lam, lam] on strided
    grid nodes at three times plus random off-grid points, in one
    evaluation; returns the worst-case margin min(a - 1/lam, lam - a) and
    any violations."""
    if n_random < 0:
        raise CoefficientError("sample budget must be nonnegative")
    if times is None:
        times = [grid.t_span[0], 0.5 * (grid.t_span[0] + grid.t_span[1]), grid.t_span[1]]
    stride = max(1, grid.n_x // 16)
    tn, xn, vn = (c.ravel() for c in np.meshgrid(
        np.asarray(times, dtype=float), grid.x_centers[::stride],
        grid.v_centers[::stride], indexing="ij"))
    # the columns t, x_1..x_N, v_1..v_N of each random point, scaled one
    # uniform draw at a time as `Generator.uniform` would
    lo = np.array([grid.t_span[0]] + [-grid.x_max] * A.dim + [-grid.v_max] * A.dim)
    hi = np.array([grid.t_span[1]] + [grid.x_max] * A.dim + [grid.v_max] * A.dim)
    rand = lo + (hi - lo) * np.random.default_rng(seed).random((n_random, 1 + 2 * A.dim))
    t = np.concatenate([tn, rand[:, 0]])
    xs = [np.concatenate([xn, rand[:, 1 + i]]) for i in range(A.dim)]
    vs = [np.concatenate([vn, rand[:, 1 + A.dim + i]]) for i in range(A.dim)]

    a = np.stack([np.broadcast_to(d, t.shape) for d in A.diagonal(t, xs, vs)])
    pt_margin = np.minimum(a - 1.0 / A.lam, A.lam - a).min(axis=0)
    violations = [(t[i], tuple(c[i] for c in xs), tuple(c[i] for c in vs),
                   float(pt_margin[i]))
                  for i in np.nonzero(pt_margin < -1e-12)[0][:16]]
    return EllipticityCertificate(passed=not violations,
                                  margin=float(pt_margin.min()),
                                  violations=violations)


# --- source terms ------------------------------------------------------------

@dataclass
class SourceField:
    """The scalar source g(t, x, v) with its amplitude `bound`.

    `bound` is the magnitude of every kind and a pointwise budget,
    |g| <= bound: the constant kind is bound everywhere, the bump is bound
    times the radial cutoff that is 1 on B(0, 1/2) and 0 outside B(0, 1),
    in x and in v, and noise is uniform in [-bound, bound] per `cell` of
    (t, x, v), with cell faces offset by half a cell from the origin.  Its
    L^q norm over Q[3/2], for the exponent q of the iteration constants,
    is `source_lq_norm`.
    """

    dim: int
    kind: str
    bound: float = 0.0
    cell: float = 0.25
    seed: int = 0
    transform: object = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "bump", "noise"):
            raise CoefficientError(f"unknown source kind {self.kind!r}")
        if not 0.0 <= self.bound < np.inf:
            raise CoefficientError(f"source bound must be finite and nonnegative, "
                                   f"got {self.bound}")
        if not 0.0 < self.cell < np.inf:
            raise CoefficientError(f"source cell must be positive and finite, "
                                   f"got {self.cell}")

    def evaluate(self, t, xs, vs):
        """g at broadcast coordinates (tuple of x arrays, tuple of v arrays)."""
        t, xs, vs = _pullback(self.transform, t, tuple(xs), tuple(vs))
        if self.kind in ("zero", "constant"):
            value = 0.0 if self.kind == "zero" else float(self.bound)
            out = np.full(np.broadcast(*map(np.asarray, xs + vs)).shape, value)
        elif self.kind == "bump":
            rho_x = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in xs))
            rho_v = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in vs))
            out = self.bound * cutoff_value(rho_x, 0.5, 1.0) * cutoff_value(rho_v, 0.5, 1.0)
        else:  # noise, within [-bound, bound]
            offset = 0.5 * self.cell
            idx = [_cell_index(t, self.cell, offset)]
            idx += [_cell_index(c, self.cell, offset) for c in xs + vs]
            u = hash_uniform(self.seed, *idx)
            out = self.bound * (2.0 * u - 1.0)
        return self.scale * out

    def time_key(self, t):
        """A key with equal values only at times whose samples are bit-equal:
        None for the zero and constant kinds and for bump, the time-cell
        index of the pulled-back time for noise, and t itself for bump or
        noise under a zoom with v0 != 0, whose x drifts with s."""
        if self.kind in ("zero", "constant"):
            return None
        if _drifts(self.transform):
            return t
        if self.kind == "bump":
            return None
        return _time_cell(self.transform, t, self.cell, 0.5 * self.cell)

    def sample(self, grid: PhaseGrid, t: float) -> np.ndarray:
        """g on all (x, v) cell centers of the grid at time t."""
        return np.broadcast_to(self.evaluate(t, *grid.coords()), grid.shape).copy()

    def increments_for(self, grid: PhaseGrid, dt: float):
        """A step plan's increment sampler: dt * g on the grid at the step's
        midpoint t, drawn again only when the time key changes.  A source
        constant over the grid (the zero and constant kinds) gives the
        scalar dt * g, g evaluated at one point as a sample's entries are,
        which a step adds to every cell."""
        if self.kind in ("zero", "constant"):
            origin = (0.0,) * grid.dim
            increment = dt * float(self.evaluate(0.0, origin, origin))
            return lambda t: increment
        return KeyedSampler(self, lambda t: dt * self.sample(grid, t))

    def transformed(self, transform, scale: float) -> "SourceField":
        """Pull back through a scaling map and multiply by `scale` (eps^2)."""
        return SourceField(self.dim, self.kind, self.bound, self.cell, self.seed,
                           _composed(self.transform, transform), self.scale * scale)

    def scaled(self, factor: float) -> "SourceField":
        return SourceField(self.dim, self.kind, self.bound, self.cell, self.seed,
                           self.transform, self.scale * factor)


def build_source(dim: int, kind: str, bound: float = 0.0, seed: int = 0,
                 cell: float = 0.25) -> SourceField:
    return SourceField(dim=dim, kind=kind, bound=bound, cell=cell, seed=seed)


def source_lq_norm(source: SourceField, grid: PhaseGrid, q: float) -> float:
    """Quadrature L^q norm of g over Q[3/2] (cell rule in space, midpoint
    rule on 32 time cells)."""
    region = make_cylinder(1.5)
    n_t = 32
    t_lo = max(region.t_lo, grid.t_span[0])
    t_hi = min(region.t_hi, grid.t_span[1])
    mids = t_lo + (np.arange(n_t) + 0.5) * (t_hi - t_lo) / n_t
    mask = region.space_mask(grid)
    sample = KeyedSampler(source, lambda t: source.sample(grid, t))
    if np.isinf(q):
        worst = 0.0
        for t in mids:
            g = sample(float(t))
            if mask.any():
                worst = max(worst, float(np.max(np.abs(g)[mask])))
        return worst
    total = 0.0
    dt_cell = (t_hi - t_lo) / n_t
    for t in mids:
        g = sample(float(t))
        total += float(np.sum(np.abs(g)[mask] ** q)) * dt_cell * grid.cell_volume
    return total ** (1.0 / q)
