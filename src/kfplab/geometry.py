"""Phase-space geometry: grids, kinetic cylinders, dyadic levels, cutoffs, measures.

The ambient domain is (t, x, v) with x and v ranging over symmetric boxes
[-L, L]^N, N = 1 or 2.  Scalar fields are sampled at cell centers.  The
kinetic cylinder of radius r is

    Q[r] = (-r, 0) x B(0, r) x B(0, r),

an anisotropic neighborhood adapted to the transport-diffusion scaling.
Set measures are computed with a midpoint cell rule: a spacetime cell
counts iff its center satisfies the predicate, so the error is at most
one cell layer and the rule is monotone in the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "PhaseGrid",
    "Cylinder",
    "DyadicLevel",
    "ball_volume",
    "make_cylinder",
    "hat_cylinder",
    "hat_union_unit",
    "dyadic_time",
    "dyadic_radius",
    "dyadic_truncation",
    "dyadic_params",
    "cutoff_value",
    "cutoff_slope",
    "cutoff_eval",
    "level_set_measure",
    "cylinder_integral",
    "cylinder_node_extrema",
    "time_quadrature_weights",
]


class GeometryError(ValueError):
    """Invalid geometric construction or query."""


def ball_volume(dim: int, r: float) -> float:
    """Volume of B(0, r) in R^dim (length 2r for dim=1, area pi r^2 for dim=2)."""
    if dim == 1:
        return 2.0 * r
    if dim == 2:
        return math.pi * r * r
    raise GeometryError(f"unsupported dimension {dim}")


# ---------------------------------------------------------------------------
# phase grid
# ---------------------------------------------------------------------------

class PhaseGrid:
    """Uniform cell-centered grid over (t, x, v).

    Parameters
    ----------
    dim : spatial/velocity dimension, 1 or 2.
    t_span : (t0, t1) time interval covered by a solve, t0 < t1.
    n_t : number of time steps over t_span (>= 4).
    x_max, n_x : half-width and cell count per x axis; x is periodic.
    v_max, n_v : half-width and cell count per v axis; v is truncated.

    Cell centers are x_i = -x_max + (i + 1/2) dx and similarly for v, so
    an odd cell count places a node exactly at the origin.  All attributes
    are fixed at construction; instances are shared freely across threads.
    """

    def __init__(self, dim, t_span, n_t, x_max, n_x, v_max, n_v):
        if dim not in (1, 2):
            raise GeometryError(f"dim must be 1 or 2, got {dim}")
        t0, t1 = float(t_span[0]), float(t_span[1])
        if not t1 > t0:
            raise GeometryError(f"degenerate time span {t_span}")
        if min(n_t, n_x, n_v) < 4:
            raise GeometryError("resolutions must be >= 4")
        if x_max <= 0 or v_max <= 0:
            raise GeometryError("x_max and v_max must be positive")
        self.dim = int(dim)
        self.t_span = (t0, t1)
        self.n_t = int(n_t)
        self.x_max = float(x_max)
        self.n_x = int(n_x)
        self.v_max = float(v_max)
        self.n_v = int(n_v)

        self.dt = (t1 - t0) / self.n_t
        self.dx = 2.0 * self.x_max / self.n_x
        self.dv = 2.0 * self.v_max / self.n_v
        self.x_centers = -self.x_max + (np.arange(self.n_x) + 0.5) * self.dx
        self.v_centers = -self.v_max + (np.arange(self.n_v) + 0.5) * self.dv
        self.times = t0 + self.dt * np.arange(self.n_t + 1)

        self.x_shape = (self.n_x,) * self.dim
        self.v_shape = (self.n_v,) * self.dim
        self.shape = self.x_shape + self.v_shape
        self.cell_volume = self.dx**self.dim * self.dv**self.dim

        # radius arrays over the x box and the v box
        self.rho_x = self._radius(self.x_centers, self.x_shape)
        self.rho_v = self._radius(self.v_centers, self.v_shape)

    @staticmethod
    def _radius(centers, shape):
        if len(shape) == 1:
            return np.abs(centers)
        xx, yy = np.meshgrid(centers, centers, indexing="ij")
        return np.sqrt(xx * xx + yy * yy)

    def axis_coord(self, which: str, axis: int) -> np.ndarray:
        """Coordinate array of one x or v axis broadcast to its box shape."""
        centers = self.x_centers if which == "x" else self.v_centers
        shape = [1] * self.dim
        shape[axis] = len(centers)
        return centers.reshape(shape) * np.ones(
            self.x_shape if which == "x" else self.v_shape
        )

    def expand_x(self, w: np.ndarray) -> np.ndarray:
        """Reshape an x-box array for broadcasting against full fields."""
        return w.reshape(w.shape + (1,) * self.dim)

    def expand_v(self, w: np.ndarray) -> np.ndarray:
        """Reshape a v-box array for broadcasting against full fields."""
        return w.reshape((1,) * self.dim + w.shape)

    def space_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum over all (x, v) axes, keeping any leading axes."""
        return values.sum(axis=tuple(range(-2 * self.dim, 0)))

    def with_time(self, t_span, n_t) -> "PhaseGrid":
        return PhaseGrid(self.dim, t_span, n_t, self.x_max, self.n_x,
                         self.v_max, self.n_v)

    def unit_scale(self) -> "PhaseGrid":
        """The same cell counts over the unit-scale box covering Q[3/2],
        the grid every kinetic zoom samples onto."""
        return PhaseGrid(self.dim, (-1.5, 0.0), self.n_t, 1.5, self.n_x,
                         1.5, self.n_v)

    def __repr__(self):
        return (f"PhaseGrid(dim={self.dim}, t_span={self.t_span}, n_t={self.n_t}, "
                f"x_max={self.x_max}, n_x={self.n_x}, v_max={self.v_max}, n_v={self.n_v})")


# ---------------------------------------------------------------------------
# kinetic cylinders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cylinder:
    """A set (t_lo, t_hi] x B(x_center, x_radius) x B(v_center, v_radius).

    The standard cylinder Q[r] uses (t_lo, t_hi] = (-r, 0] and both balls
    centered at the origin with radius r.  `measure` is analytic, the
    product of the interval length and the two ball volumes.
    """

    dim: int
    t_lo: float
    t_hi: float
    x_radius: float
    v_radius: float
    x_center: tuple = (0.0,)
    v_center: tuple = (0.0,)
    label: str = ""

    def __post_init__(self):
        if self.t_hi <= self.t_lo:
            raise GeometryError(f"empty time interval ({self.t_lo}, {self.t_hi}]")
        if self.x_radius <= 0 or self.v_radius <= 0:
            raise GeometryError("cylinder radii must be positive")

    @property
    def measure(self) -> float:
        return ((self.t_hi - self.t_lo)
                * ball_volume(self.dim, self.x_radius)
                * ball_volume(self.dim, self.v_radius))

    def contains_time(self, t) -> np.ndarray:
        t = np.asarray(t)
        return (t > self.t_lo) & (t <= self.t_hi)

    def _dist(self, grid: PhaseGrid, which: str) -> np.ndarray:
        center = self.x_center if which == "x" else self.v_center
        if all(c == 0.0 for c in center):
            return grid.rho_x if which == "x" else grid.rho_v
        centers = grid.x_centers if which == "x" else grid.v_centers
        if grid.dim == 1:
            return np.abs(centers - center[0])
        xx, yy = np.meshgrid(centers - center[0], centers - center[1], indexing="ij")
        return np.sqrt(xx * xx + yy * yy)

    def space_mask(self, grid: PhaseGrid) -> np.ndarray:
        """Boolean mask over (x, v) cells whose centers lie in both balls."""
        in_x = self._dist(grid, "x") < self.x_radius
        in_v = self._dist(grid, "v") < self.v_radius
        return grid.expand_x(in_x) & grid.expand_v(in_v)

    def intersects_grid(self, grid: PhaseGrid, times) -> bool:
        t = np.asarray(times)
        if not ((t.max() > self.t_lo) and (t.min() <= self.t_hi)):
            return False
        return bool(self.space_mask(grid).any())

    def __str__(self):
        return self.label or (f"({self.t_lo},{self.t_hi}]xB{self.x_radius}xB{self.v_radius}")


def make_cylinder(r: float, dim: int = 1) -> Cylinder:
    """The standard kinetic cylinder Q[r] = (-r, 0) x B(0,r) x B(0,r)."""
    if r <= 0:
        raise GeometryError(f"cylinder radius must be positive, got {r}")
    return Cylinder(dim, -r, 0.0, r, r, (0.0,) * dim, (0.0,) * dim, f"Q[{r}]")


def hat_cylinder(dim: int = 1) -> Cylinder:
    """The time-shifted cylinder (-3/2, -1] x B(0,1)^2."""
    return Cylinder(dim, -1.5, -1.0, 1.0, 1.0, (0.0,) * dim, (0.0,) * dim, "Qhat")


def hat_union_unit(dim: int = 1) -> Cylinder:
    """The union of the hat cylinder and Q[1], i.e. (-3/2, 0) x B(0,1)^2."""
    return Cylinder(dim, -1.5, 0.0, 1.0, 1.0, (0.0,) * dim, (0.0,) * dim, "Qhat+Q[1]")


# ---------------------------------------------------------------------------
# dyadic levels
# ---------------------------------------------------------------------------

def dyadic_time(k: int) -> float:
    """T_k = -(1 + 2^-k)/2, increasing to -1/2.  k = -1 gives -3/2."""
    if k < -1:
        raise GeometryError(f"dyadic time index must be >= -1, got {k}")
    return -0.5 * (1.0 + 2.0**-k)


def dyadic_radius(k: int) -> float:
    """R_k = (1 + 2^-k)/2, decreasing to 1/2.  k = -1 gives 3/2."""
    if k < -1:
        raise GeometryError(f"dyadic radius index must be >= -1, got {k}")
    return 0.5 * (1.0 + 2.0**-k)


def dyadic_truncation(k: int) -> float:
    """C_k = (1 - 2^-k)/2, increasing from 0 to 1/2.  Defined for k >= 0."""
    if k < 0:
        raise GeometryError(f"truncation level must be >= 0, got {k}")
    return 0.5 * (1.0 - 2.0**-k)


def dyadic_params(k: int):
    """The level-k triple (T_k, R_k, C_k).  Exact binary rationals, k >= 0."""
    if k < 0:
        raise GeometryError(
            f"dyadic_params requires k >= 0 (k = -1 is radius-only), got {k}")
    return dyadic_time(k), dyadic_radius(k), dyadic_truncation(k)


# quintic smoothstep: C^2, S(0)=0, S(1)=1, max slope 15/8 at u=1/2
def _smoothstep(u):
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _smoothstep_deriv(u):
    return 30.0 * u * u * (1.0 - u) * (1.0 - u)


def cutoff_value(rho, r_in: float, r_out: float):
    """Radial C^2 cutoff: 1 on [0, r_in], 0 on [r_out, inf), quintic in between."""
    rho = np.asarray(rho, dtype=float)
    u = np.clip((rho - r_in) / (r_out - r_in), 0.0, 1.0)
    return 1.0 - _smoothstep(u)


def cutoff_slope(rho, r_in: float, r_out: float):
    """Radial derivative of `cutoff_value` (analytic, <= 0, peak 15/(8 w))."""
    rho = np.asarray(rho, dtype=float)
    u = (rho - r_in) / (r_out - r_in)
    inside = (u > 0.0) & (u < 1.0)
    out = np.zeros_like(rho)
    out[inside] = -_smoothstep_deriv(u[inside]) / (r_out - r_in)
    return out


@dataclass(frozen=True)
class DyadicLevel:
    """Level-k data of the dyadic truncation ladder.

    Bundles the shrinking time T_k, radius R_k, rising truncation height
    C_k, and the smooth cutoff eta_k which is 1 on the closed ball of
    radius R_k and 0 outside B(0, R_{k-1}).  The cutoff's radial slope is
    bounded by (15/8) 2^{k+1} < 2^{k+2}.
    """

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise GeometryError(f"dyadic level requires k >= 0, got {self.k}")

    @property
    def t_start(self) -> float:
        return dyadic_time(self.k)

    @property
    def radius(self) -> float:
        return dyadic_radius(self.k)

    @property
    def outer_radius(self) -> float:
        return dyadic_radius(self.k - 1)

    @property
    def truncation(self) -> float:
        return dyadic_truncation(self.k)

    @property
    def slope_bound(self) -> float:
        """The ladder's Lipschitz budget 2^{k+2} for |grad eta_k|."""
        return 2.0 ** (self.k + 2)

    @property
    def max_slope(self) -> float:
        """Actual peak slope of the quintic profile, (15/8) 2^{k+1}."""
        return (15.0 / 8.0) / (self.outer_radius - self.radius)

    def cylinder(self, dim: int = 1) -> Cylinder:
        return make_cylinder(self.radius, dim)

    def outer_cylinder(self, dim: int = 1) -> Cylinder:
        return make_cylinder(self.outer_radius, dim)

    def eta(self, rho):
        return cutoff_value(rho, self.radius, self.outer_radius)

    def eta_slope(self, rho):
        return cutoff_slope(rho, self.radius, self.outer_radius)


def cutoff_eval(level: DyadicLevel, point) -> float:
    """Evaluate eta_k at a point of R^N (scalar or coordinate tuple)."""
    rho = float(np.linalg.norm(np.atleast_1d(np.asarray(point, dtype=float))))
    return float(level.eta(rho))


# ---------------------------------------------------------------------------
# set measures and integrals over cylinders (midpoint cell rule)
# ---------------------------------------------------------------------------

def _time_cells(traj, region: Cylinder):
    """Indices i of time cells (t_i, t_{i+1}) whose centers lie in the region."""
    times = traj.times
    if len(times) < 2:
        raise GeometryError("trajectory must hold at least two time slices")
    mid = 0.5 * (times[:-1] + times[1:])
    return np.nonzero(region.contains_time(mid))[0]


def _check_region(traj, region: Cylinder):
    if not region.intersects_grid(traj.grid, traj.times):
        raise GeometryError(f"region {region} does not intersect the grid domain")


def level_set_measure(traj, predicate, region: Cylinder) -> float:
    """Lebesgue measure of {(t,x,v) in region : predicate(f)} by the cell rule.

    `traj` is a time-indexed field (attributes grid, times, values); the
    cell value is the midpoint-in-time average of the two adjacent slices.
    Monotone in the threshold by construction; error at most one cell layer.
    """
    _check_region(traj, region)
    grid = traj.grid
    idx = _time_cells(traj, region)
    if idx.size == 0:
        return 0.0
    mask = region.space_mask(grid)
    vals = 0.5 * (traj.values[idx] + traj.values[idx + 1])
    count = int(np.count_nonzero(predicate(vals) & mask))
    dt_cell = float(traj.times[1] - traj.times[0])
    return count * dt_cell * grid.cell_volume


def cylinder_integral(traj, func, region: Cylinder) -> float:
    """Integral of func(f) over the region with the same cell rule as
    `level_set_measure`, so Chebyshev comparisons are exact discretely."""
    _check_region(traj, region)
    grid = traj.grid
    idx = _time_cells(traj, region)
    if idx.size == 0:
        return 0.0
    mask = region.space_mask(grid)
    vals = 0.5 * (traj.values[idx] + traj.values[idx + 1])
    dt_cell = float(traj.times[1] - traj.times[0])
    return float(np.sum(func(vals) * mask)) * dt_cell * grid.cell_volume


def cylinder_node_extrema(traj, region: Cylinder):
    """(min, max, node count) of stored slice values inside the region.

    Node-based (slice times in the interval, cell centers in the balls),
    the discrete essential range used by oscillation and sup queries.
    A region that captures no nodes returns count 0 and (nan, nan).
    """
    _check_region(traj, region)
    grid = traj.grid
    t_idx = np.nonzero(region.contains_time(traj.times))[0]
    mask = region.space_mask(grid)
    if t_idx.size == 0 or not mask.any():
        return np.nan, np.nan, 0
    vals = traj.values[t_idx][:, mask]
    return float(vals.min()), float(vals.max()), int(vals.size)


def time_quadrature_weights(times, t_lo: float, t_hi: float) -> np.ndarray:
    """Trapezoid weights for slice times restricted to [t_lo, t_hi].

    Slices outside the window get weight zero; the window endpoints are
    assumed aligned with slice times (tests use power-of-two steps), and
    misalignment is absorbed by the callers' quadrature tolerance.
    """
    times = np.asarray(times, dtype=float)
    w = np.zeros_like(times)
    inside = (times >= t_lo - 1e-12) & (times <= t_hi + 1e-12)
    idx = np.nonzero(inside)[0]
    if idx.size < 2:
        return w
    h = np.diff(times[idx])
    w[idx[:-1]] += 0.5 * h
    w[idx[1:]] += 0.5 * h
    return w
