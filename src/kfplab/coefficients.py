"""Rough diffusion coefficients and source terms.

Diffusion fields A(t, x, v) are merely measurable, symmetric, and
uniformly elliptic: all eigenvalues in [1/lam, lam] with lam > 1.  No
continuity is assumed or used anywhere downstream.  Piecewise-constant
kinds (checkerboard, cellwise-random) are genuinely discontinuous across
coefficient-cell faces, and those faces are deliberately offset by half a
coefficient cell from the solver grid so the roughness is exercised
honestly.  Randomness is hash-based on cell indices, so evaluation is
pure, order-independent and bit-reproducible for a fixed seed.
"""

from __future__ import annotations

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
    return np.floor((np.asarray(coord, dtype=float) - offset) / cell).astype(np.int64)


def _drifts(transform) -> bool:
    """Whether a zoom moves x with s (base velocity v0 != 0), so that a field
    varying in x has samples that vary in s."""
    return transform is not None and any(transform.v0)


def _time_cell(transform, t, cell: float, offset: float) -> int:
    """Index of the time cell holding t pulled back through `transform`."""
    if transform is not None:
        zeros = (0.0,) * transform.dim
        t = transform.apply_coords(t, zeros, zeros)[0]
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

    For dim = 1 the field is the scalar a(t, x, v) in [1/lam, lam].  For
    dim = 2 the generator produces diagonal matrices (so the solver's
    per-axis maximum principle is preservable); the `clamped_symmetric`
    kind produces full symmetric matrices for validator exercises only.
    An optional `transform` pulls coordinates back through a kinetic
    scaling map before the kind rule is applied (used by zooming); the
    ellipticity bounds are invariant under that composition.
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
                             "oscillatory", "clamped_symmetric"):
            raise CoefficientError(f"unknown diffusion kind {self.kind!r}")
        if self.kind == "clamped_symmetric" and self.dim != 2:
            raise CoefficientError("clamped_symmetric requires dim = 2")
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
        if self.kind == "clamped_symmetric":
            return p.get("low", 1.0 / self.lam), p.get("high", self.lam)
        raise AssertionError

    def _check_bounds(self):
        lo, hi = self._declared_range()
        if lo < 1.0 / self.lam - 1e-12 or hi > self.lam + 1e-12:
            raise CoefficientError(
                f"diffusion values [{lo}, {hi}] leave the elliptic band "
                f"[{1.0 / self.lam}, {self.lam}]")

    # -- evaluation ----------------------------------------------------------
    def _pullback(self, t, xs, vs):
        if self.transform is None:
            return t, xs, vs
        return self.transform.apply_coords(t, xs, vs)

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
        cellwise_random, clamped_symmetric and checkerboard with t, and t
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
        t, xs, vs = self._pullback(t, (x,), (v,))
        return self._scalar_rule(0, t, xs, vs)

    def diagonal(self, t, xs, vs):
        """Per-axis diagonal entries (a_1[, a_2]) at broadcast coordinates."""
        if self.kind == "clamped_symmetric":
            raise CoefficientError("clamped_symmetric has no diagonal form; "
                                   "the solver is restricted to diagonal fields")
        t, xs, vs = self._pullback(t, tuple(xs), tuple(vs))
        return tuple(self._scalar_rule(i, t, xs, vs) for i in range(self.dim))

    def matrix(self, t, x, v) -> np.ndarray:
        """The full N x N symmetric matrix at one point (validator path)."""
        xs = tuple(np.atleast_1d(np.asarray(x, dtype=float)))
        vs = tuple(np.atleast_1d(np.asarray(v, dtype=float)))
        if self.kind == "clamped_symmetric":
            tt, xs, vs = self._pullback(t, xs, vs)
            p = self.params
            lo = p.get("low", 1.0 / self.lam)
            hi = p.get("high", self.lam)
            idx = [_cell_index(tt, p["cell"], p.get("offset", 0.5 * p["cell"]))]
            idx += [_cell_index(c, p["cell"], p.get("offset", 0.5 * p["cell"]))
                    for c in xs + vs]
            lam1 = lo + (hi - lo) * hash_uniform(self.seed + 1, *idx)
            lam2 = lo + (hi - lo) * hash_uniform(self.seed + 2, *idx)
            theta = 2.0 * np.pi * hash_uniform(self.seed + 3, *idx)
            c, s = np.cos(theta), np.sin(theta)
            rot = np.array([[c, -s], [s, c]], dtype=float).reshape(2, 2)
            return rot @ np.diag([float(lam1), float(lam2)]) @ rot.T
        if self.dim == 1:
            val = np.asarray(self.scalar(t, xs[0], vs[0])).reshape(())
            return np.array([[float(val)]])
        diag = self.diagonal(t, xs, vs)
        return np.diag([float(np.asarray(d).reshape(())) for d in diag])

    def transformed(self, transform) -> "DiffusionField":
        """Compose the coordinate transform (zoom pullback); lam is unchanged."""
        new = DiffusionField(self.dim, self.lam, self.kind, dict(self.params),
                             self.seed, transform=None)
        if self.transform is None:
            new.transform = transform
        else:
            new.transform = self.transform.compose(transform)
        return new


def build_diffusion(dim: int, lam: float, kind: str, seed: int = 0,
                    **params) -> DiffusionField:
    """Construct a diffusion field, rejecting specs that violate ellipticity."""
    return DiffusionField(dim=dim, lam=lam, kind=kind, params=params, seed=seed)


# --- ellipticity validation -------------------------------------------------

@dataclass
class EllipticityCertificate:
    passed: bool
    margin: float
    symmetry_defect: float
    violations: list

    def __bool__(self):
        return self.passed


def validate_ellipticity(A: DiffusionField, grid: PhaseGrid, times=None,
                         n_random: int = 256, seed: int = 0) -> EllipticityCertificate:
    """Check symmetry and the eigenvalue band [1/lam, lam] on grid nodes plus
    random off-grid points; returns the worst-case margin and any violations."""
    if n_random < 0:
        raise CoefficientError("sample budget must be nonnegative")
    if times is None:
        times = [grid.t_span[0], 0.5 * (grid.t_span[0] + grid.t_span[1]), grid.t_span[1]]
    pts = []
    stride = max(1, grid.n_x // 16)
    for t in times:
        for x in grid.x_centers[::stride]:
            for v in grid.v_centers[::stride]:
                pts.append((t, (x,) * A.dim, (v,) * A.dim))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        t = rng.uniform(*grid.t_span)
        x = tuple(rng.uniform(-grid.x_max, grid.x_max, A.dim))
        v = tuple(rng.uniform(-grid.v_max, grid.v_max, A.dim))
        pts.append((t, x, v))

    lo, hi = 1.0 / A.lam, A.lam
    margin = np.inf
    sym_defect = 0.0
    violations = []
    for (t, x, v) in pts:
        m = A.matrix(t, x, v)
        sym = float(np.max(np.abs(m - m.T)))
        sym_defect = max(sym_defect, sym)
        eig = np.linalg.eigvalsh(0.5 * (m + m.T))
        pt_margin = min(float(eig.min() - lo), float(hi - eig.max()))
        margin = min(margin, pt_margin)
        if pt_margin < -1e-12 or sym > 1e-12:
            violations.append((t, x, v, pt_margin, sym))
    return EllipticityCertificate(
        passed=not violations, margin=margin, symmetry_defect=sym_defect,
        violations=violations[:16])


# --- source terms ------------------------------------------------------------

@dataclass
class SourceField:
    """The scalar source g(t, x, v) with a declared amplitude budget.

    `bound` is a pointwise budget: every kind satisfies |g| <= bound by
    construction (noise is clamped).  Its L^q norm over Q[3/2], for the
    exponent q of the iteration constants, is `source_lq_norm`.
    """

    dim: int
    kind: str
    bound: float = 0.0
    params: dict = field(default_factory=dict)
    seed: int = 0
    transform: object = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "bump", "noise"):
            raise CoefficientError(f"unknown source kind {self.kind!r}")
        if self.bound < 0:
            raise CoefficientError("source bound must be nonnegative")

    def _pullback(self, t, xs, vs):
        if self.transform is None:
            return t, xs, vs
        return self.transform.apply_coords(t, xs, vs)

    def evaluate(self, t, xs, vs):
        """g at broadcast coordinates (tuple of x arrays, tuple of v arrays)."""
        t, xs, vs = self._pullback(t, tuple(xs), tuple(vs))
        p = self.params
        if self.kind == "zero":
            out = np.zeros(np.broadcast(*map(np.asarray, xs + vs)).shape)
        elif self.kind == "constant":
            value = p.get("value", self.bound)
            out = np.full(np.broadcast(*map(np.asarray, xs + vs)).shape, float(value))
        elif self.kind == "bump":
            rx = p.get("x_radius", 1.0)
            rv = p.get("v_radius", 1.0)
            amp = p.get("amplitude", self.bound)
            rho_x = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in xs))
            rho_v = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in vs))
            out = amp * cutoff_value(rho_x, 0.5 * rx, rx) * cutoff_value(rho_v, 0.5 * rv, rv)
        else:  # noise, clamped to [-bound, bound]
            cell = p.get("cell", 0.25)
            offset = p.get("offset", 0.5 * cell)
            idx = [_cell_index(t, cell, offset)]
            idx += [_cell_index(c, cell, offset) for c in xs + vs]
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
        cell = self.params.get("cell", 0.25)
        return _time_cell(self.transform, t, cell, self.params.get("offset", 0.5 * cell))

    def sample(self, grid: PhaseGrid, t: float) -> np.ndarray:
        """g on all (x, v) cell centers of the grid at time t."""
        return np.broadcast_to(self.evaluate(t, *grid.coords()), grid.shape).copy()

    def transformed(self, transform, scale: float) -> "SourceField":
        """Pull back through a scaling map and multiply by `scale` (eps^2)."""
        new = SourceField(self.dim, self.kind, self.bound,
                          dict(self.params), self.seed,
                          transform=None, scale=self.scale * scale)
        if self.transform is None:
            new.transform = transform
        else:
            new.transform = self.transform.compose(transform)
        return new

    def scaled(self, factor: float) -> "SourceField":
        return SourceField(self.dim, self.kind, self.bound,
                           dict(self.params), self.seed, self.transform,
                           self.scale * factor)


def build_source(dim: int, kind: str, bound: float = 0.0, seed: int = 0,
                 **params) -> SourceField:
    return SourceField(dim=dim, kind=kind, bound=bound, params=params, seed=seed)


def source_lq_norm(source: SourceField, grid: PhaseGrid, q: float) -> float:
    """Quadrature L^q norm of g over Q[3/2] (cell rule in space, midpoint
    rule on 32 time cells)."""
    region = make_cylinder(1.5, grid.dim)
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
