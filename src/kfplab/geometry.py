"""Phase-space geometry: grids, kinetic cylinders, dyadic levels, cutoffs, measures.

The ambient domain is (t, x, v) with x and v ranging over symmetric boxes
[-L, L]^N, N = 1 or 2.  Scalar fields are sampled at cell centers.  The
kinetic cylinder of radius r is

    Q[r] = (-r, 0) x B(0, r) x B(0, r),

an anisotropic neighborhood adapted to the transport-diffusion scaling.
Every `Cylinder` is centred at the origin with one radius for both balls;
the audits reach other base points through the kinetic zoom
(`holder.ScalingMap`), which moves the point to the origin.
Set measures are computed with a midpoint cell rule: a spacetime cell
counts iff its center satisfies the predicate, so the error is at most
one cell layer and the rule is monotone in the threshold.  The rule is
evaluated on the region's bounding box only: the contiguous range of time
cells it holds and the bounding cell box of its (x, v) mask, both read as
views of the stored slices, a slab of at most `_SLAB_BYTES` at a time.

The v-calculus is the scheme's face difference D = np.diff/dv, its adjoint
the face divergence, and one rule splitting each interior face value evenly
onto its two cells.  A `GridWindow` is the cell box of one dyadic level:
the cells with |x_a| < R and |v_a| < R on every axis, plus one v cell for
the face differences.  Its centers and radius arrays are slices of the
parent grid's arrays, so every mask, cutoff, sample and face difference on
it is bit-equal to the parent's.  The level audits run on it, and so does
the barrier problem of the same level, whose domain B(R)^2 lies inside
the box; it is not a `PhaseGrid`, and the periodic whole-space problem has
no meaning on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "PhaseGrid",
    "GridWindow",
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
    "cylinder_nodes",
    "time_quadrature_weights",
    "faces_to_cells",
    "grad_v_sq_density",
    "cell_grad_v",
    "face_divergence",
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

class _CellBox:
    """Broadcasting helpers over a box of (x, v) cells, given its `dim`,
    center arrays `x_centers`/`v_centers` (one per axis, the same on every
    axis) and shapes `x_shape`, `v_shape`."""

    def axis_coord(self, which: str, axis: int) -> np.ndarray:
        """Coordinate array of one x or v axis broadcast to its box shape."""
        centers = self.x_centers if which == "x" else self.v_centers
        shape = [1] * self.dim
        shape[axis] = len(centers)
        return centers.reshape(shape) * np.ones(
            self.x_shape if which == "x" else self.v_shape
        )

    def coords(self):
        """Cell-center coordinates ((x_1..x_N), (v_1..v_N)), each a 1-d
        center array shaped to vary along its own axis of the field and
        broadcast over the others."""
        n_axes = 2 * self.dim

        def along(centers, axis):
            shape = [1] * n_axes
            shape[axis] = len(centers)
            return centers.reshape(shape)

        return (tuple(along(self.x_centers, i) for i in range(self.dim)),
                tuple(along(self.v_centers, self.dim + i) for i in range(self.dim)))

    def expand_x(self, w: np.ndarray) -> np.ndarray:
        """Reshape an x-box array for broadcasting against full fields."""
        return w.reshape(w.shape + (1,) * self.dim)

    def expand_v(self, w: np.ndarray) -> np.ndarray:
        """Reshape a v-box array for broadcasting against full fields."""
        return w.reshape((1,) * self.dim + w.shape)


def _distance(centers, dim: int) -> np.ndarray:
    """|c| over the dim-axis box with these centers on every axis."""
    if dim == 1:
        return np.abs(centers)
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    return np.sqrt(xx * xx + yy * yy)


class PhaseGrid(_CellBox):
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
        self.rho_x = _distance(self.x_centers, self.dim)
        self.rho_v = _distance(self.v_centers, self.dim)

    def unit_scale(self) -> "PhaseGrid":
        """The same cell counts over the unit-scale box covering Q[3/2],
        the grid every kinetic zoom samples onto."""
        return PhaseGrid(self.dim, (-1.5, 0.0), self.n_t, 1.5, self.n_x,
                         1.5, self.n_v)

    def __repr__(self):
        return (f"PhaseGrid(dim={self.dim}, t_span={self.t_span}, n_t={self.n_t}, "
                f"x_max={self.x_max}, n_x={self.n_x}, v_max={self.v_max}, n_v={self.n_v})")


# v cells a `GridWindow` carries past its radius on each side: the face
# differences of the cells inside reach one cell further
_V_MARGIN = 1


def _centered_cells(centers, radius: float, margin: int) -> slice:
    """The contiguous cells with |c| < radius of one sorted axis, widened by
    `margin` cells on each side and clipped at the ends of the axis."""
    lo = int(np.searchsorted(centers, -radius, side="right")) - margin
    hi = int(np.searchsorted(centers, radius, side="left")) + margin
    return slice(max(lo, 0), min(hi, len(centers)))


class GridWindow(_CellBox):
    """The cells of `grid` with |x_a| < radius on every x axis and
    |v_a| < radius, widened by `_V_MARGIN` cells and clipped at the grid
    edge, on every v axis.

    Every array is a slice of the parent's, so masks, cutoffs and samples
    are bit-equal to the parent's cell by cell, and so are the face
    differences of the cells with |v_a| < radius.  `box` indexes the window
    in a parent (x, v) array, and a field on the window stands for its
    zero extension to `parent`.  The cell counts `n_x`, `n_v` are the
    window's; the spacings and `v_max` are the parent's, which is all the
    kinetic IBVP's step plan reads besides the centers.  There is no
    periodic x here.
    """

    def __init__(self, grid: PhaseGrid, radius: float):
        self.parent = grid
        self.dim = grid.dim
        self.dx, self.dv, self.cell_volume = grid.dx, grid.dv, grid.cell_volume
        self.v_max = grid.v_max
        xs = _centered_cells(grid.x_centers, radius, 0)
        vs = _centered_cells(grid.v_centers, radius, _V_MARGIN)
        self.box = (xs,) * self.dim + (vs,) * self.dim
        self.x_centers = grid.x_centers[xs]
        self.v_centers = grid.v_centers[vs]
        self.n_x, self.n_v = len(self.x_centers), len(self.v_centers)
        self.rho_x = grid.rho_x[self.box[:self.dim]]
        self.rho_v = grid.rho_v[self.box[self.dim:]]
        self.x_shape = self.rho_x.shape
        self.v_shape = self.rho_v.shape
        self.shape = self.x_shape + self.v_shape


# ---------------------------------------------------------------------------
# kinetic cylinders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cylinder:
    """A set (t_lo, t_hi] x B(0, radius) x B(0, radius).

    The standard cylinder Q[r] uses (t_lo, t_hi] = (-r, 0] and radius r.
    A cylinder is a set in the phase space of whichever grid it is applied
    to: masks read the grid's radius arrays `rho_x`, `rho_v`, and the
    analytic `measure` takes the dimension N.
    """

    t_lo: float
    t_hi: float
    radius: float
    label: str = ""

    def __post_init__(self):
        if self.t_hi <= self.t_lo:
            raise GeometryError(f"empty time interval ({self.t_lo}, {self.t_hi}]")
        if self.radius <= 0:
            raise GeometryError("cylinder radius must be positive")

    def measure(self, dim: int) -> float:
        """The product of the interval length and the two ball volumes in R^dim."""
        ball = ball_volume(dim, self.radius)
        return (self.t_hi - self.t_lo) * ball * ball

    def contains_time(self, t) -> np.ndarray:
        t = np.asarray(t)
        return (t > self.t_lo) & (t <= self.t_hi)

    def space_mask(self, grid: PhaseGrid) -> np.ndarray:
        """Boolean mask over (x, v) cells whose centers lie in both balls."""
        in_x, in_v = grid.rho_x < self.radius, grid.rho_v < self.radius
        return grid.expand_x(in_x) & grid.expand_v(in_v)

    def space_box(self, grid: PhaseGrid):
        """(box, mask): index slices of the bounding cell box of
        `space_mask` in an (x, v) array, and the mask on that box."""
        in_x, in_v = grid.rho_x < self.radius, grid.rho_v < self.radius
        bx, bv = _bounding_box(in_x), _bounding_box(in_v)
        return bx + bv, grid.expand_x(in_x[bx]) & grid.expand_v(in_v[bv])

    def intersects_grid(self, grid: PhaseGrid, times) -> bool:
        t = np.asarray(times)
        if not ((t.max() > self.t_lo) and (t.min() <= self.t_hi)):
            return False
        return bool((grid.rho_x < self.radius).any()
                    and (grid.rho_v < self.radius).any())

    def __str__(self):
        return self.label or f"({self.t_lo},{self.t_hi}]xB{self.radius}xB{self.radius}"


def _bounding_box(mask: np.ndarray) -> tuple:
    """Slices of the smallest index box holding every True entry of `mask`."""
    box = []
    for ax in range(mask.ndim):
        others = tuple(a for a in range(mask.ndim) if a != ax)
        hit = np.nonzero(mask.any(axis=others))[0]
        box.append(slice(hit[0], hit[-1] + 1) if hit.size else slice(0, 0))
    return tuple(box)


def make_cylinder(r: float) -> Cylinder:
    """The standard kinetic cylinder Q[r] = (-r, 0) x B(0,r) x B(0,r)."""
    if r <= 0:
        raise GeometryError(f"cylinder radius must be positive, got {r}")
    return Cylinder(-r, 0.0, r, f"Q[{r}]")


def hat_cylinder() -> Cylinder:
    """The time-shifted cylinder (-3/2, -1] x B(0,1)^2."""
    return Cylinder(-1.5, -1.0, 1.0, "Qhat")


def hat_union_unit() -> Cylinder:
    """The union of the hat cylinder and Q[1], i.e. (-3/2, 0) x B(0,1)^2."""
    return Cylinder(-1.5, 0.0, 1.0, "Qhat+Q[1]")


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

    def cylinder(self) -> Cylinder:
        return make_cylinder(self.radius)

    def outer_cylinder(self) -> Cylinder:
        return make_cylinder(self.outer_radius)

    def eta(self, rho):
        return cutoff_value(rho, self.radius, self.outer_radius)

    def eta_slope(self, rho):
        return cutoff_slope(rho, self.radius, self.outer_radius)

    def grad_eta(self, grid, which: str) -> list:
        """grad eta_k on the x or v box, one array per axis (0 at the origin)."""
        rho = grid.rho_x if which == "x" else grid.rho_v
        slope, rho_safe = self.eta_slope(rho), np.where(rho > 0, rho, 1.0)
        return [slope * grid.axis_coord(which, ax) / rho_safe for ax in range(grid.dim)]

    def v_dot_grad_eta_x(self, grid: PhaseGrid) -> np.ndarray:
        """v . grad eta_k(x) on the grid's (x, v) box."""
        return sum(grid.expand_x(g) * grid.expand_v(grid.axis_coord("v", ax))
                   for ax, g in enumerate(self.grad_eta(grid, "x")))


def cutoff_eval(level: DyadicLevel, point) -> float:
    """Evaluate eta_k at a point of R^N (scalar or coordinate tuple)."""
    rho = float(np.linalg.norm(np.atleast_1d(np.asarray(point, dtype=float))))
    return float(level.eta(rho))


# ---------------------------------------------------------------------------
# set measures and integrals over cylinders (midpoint cell rule)
# ---------------------------------------------------------------------------

def _time_cells(traj, region: Cylinder) -> slice:
    """The range of time cells (t_i, t_{i+1}) whose centers lie in the
    region (contiguous, since the region's time set is an interval)."""
    times = traj.times
    if len(times) < 2:
        raise GeometryError("trajectory must hold at least two time slices")
    mid = 0.5 * (times[:-1] + times[1:])
    idx = np.nonzero(region.contains_time(mid))[0]
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


def _check_region(traj, region: Cylinder):
    if not region.intersects_grid(traj.grid, traj.times):
        raise GeometryError(f"region {region} does not intersect the grid domain")


# bytes one slab of a streamed reduction may hold: the stored slices of a
# cylinder integral, or the transform of a spectral marginal.  Every N = 1
# default-grid trajectory (49 x 64^2 float64, 1.6 MB) and its spectra fit in
# one slab, so their reductions are single sums
_SLAB_BYTES = 1 << 22


# the input-sized temporaries a slice map makes (`grad_v_sq_density` of a
# truncation on N = 2: the truncation, then per v axis the difference, its
# square, the half and the cells, and the running sum)
_MAP_COPIES = 8


def _slabs(count: int, unit_bytes: int) -> list:
    """Consecutive slices covering range(count), each of at most
    max(1, `_SLAB_BYTES` // unit_bytes) units of `unit_bytes` bytes."""
    step = max(1, _SLAB_BYTES // max(1, unit_bytes))
    return [slice(a, min(a + step, count)) for a in range(0, count, step)]


def _cell_slabs(traj, region: Cylinder, slice_map=None):
    """(values, mask) per slab: the midpoint-in-time values of a run of the
    region's time cells on the bounding box of its (x, v) mask, and the
    mask on that box.  `slice_map`, which must act slice by slice, is
    applied to the stored slices (on their whole cell box, so face
    differences see every neighbour) before the midpoint average; no slab
    when no time cell lies in the region."""
    _check_region(traj, region)
    cells = _time_cells(traj, region)
    box, mask = region.space_box(traj.grid)
    for part in _slabs(cells.stop - cells.start, traj.values[0].nbytes):
        stored = traj.values[cells.start + part.start:cells.start + part.stop + 1]
        if slice_map is None:
            stored = stored[(slice(None),) + box]
            vals = stored[:-1] + stored[1:]
        else:
            # the map runs on groups of slices whose temporaries, counted
            # as _MAP_COPIES arrays of its input, fit in one slab
            vals = np.empty((len(stored),) + mask.shape)
            for group in _slabs(len(stored), _MAP_COPIES * stored[0].nbytes):
                vals[group] = slice_map(stored[group])[(slice(None),) + box]
            # the sums of neighbours in place, each read before it is overwritten
            for j in range(len(vals) - 1):
                vals[j] += vals[j + 1]
            vals = vals[:-1]
        vals *= 0.5
        yield vals, mask


def _slab_total(parts) -> float:
    """The left-to-right sum of the per-slab sums (0.0 when there are none);
    a single slab's sum is returned unchanged."""
    total = None
    for part in parts:
        total = part if total is None else total + part
    return 0.0 if total is None else total


def level_set_measure(traj, predicate, region: Cylinder, slice_map=None) -> float:
    """Lebesgue measure of {(t,x,v) in region : predicate(f)} by the cell rule.

    `traj` is a time-indexed field (attributes grid, times, values); the
    cell value is the midpoint-in-time average of the two adjacent slices
    (of `slice_map` applied to each stored slice, when given).  `predicate`
    acts cell by cell and sees only the region's bounding box.  Monotone in
    the threshold by construction; error at most one cell layer.  The cells
    are counted slab by slab (`_SLAB_BYTES`), so nothing the size of the
    trajectory is built; the count is exact at any slab size.
    """
    count = sum(int(np.count_nonzero(predicate(vals) & mask))
                for vals, mask in _cell_slabs(traj, region, slice_map))
    dt_cell = float(traj.times[1] - traj.times[0])
    return count * dt_cell * traj.grid.cell_volume


def cylinder_integral(traj, func, region: Cylinder, slice_map=None) -> float:
    """Integral of func(f) over the region with the same cell rule as
    `level_set_measure`, so Chebyshev comparisons are exact discretely.

    `func` acts cell by cell and is evaluated on the region's bounding box
    only: its time cells and the bounding cell box of its (x, v) mask.  A
    nonlinear `slice_map` (a truncation, a gradient density) is applied to
    each stored slice before the midpoint average, as if the trajectory
    were mapped first.  Only the per-slab sums are kept: the time cells
    are reduced `_SLAB_BYTES` of stored slices at a time and the slab sums
    added in time order, so a one-slab integral is one sum over its cells,
    and both sides of a Chebyshev comparison, summed over the same slabs,
    stay exact.
    """
    total = _slab_total(float(np.sum(func(vals) * mask))
                        for vals, mask in _cell_slabs(traj, region, slice_map))
    dt_cell = float(traj.times[1] - traj.times[0])
    return total * dt_cell * traj.grid.cell_volume


def cylinder_nodes(traj, region: Cylinder) -> np.ndarray:
    """The stored slice values at the nodes inside the region (slice times
    in the interval, cell centers in the balls), one row per slice; empty
    when the region captures no nodes."""
    _check_region(traj, region)
    t_idx = np.nonzero(region.contains_time(traj.times))[0]
    if t_idx.size == 0:
        return np.empty((0, 0))
    box, mask = region.space_box(traj.grid)
    return traj.values[t_idx[0]:t_idx[-1] + 1][(slice(None),) + box][:, mask]


def cylinder_node_extrema(traj, region: Cylinder):
    """(min, max, node count) of `cylinder_nodes`: the discrete essential
    range used by oscillation and sup queries.  A region that captures no
    nodes returns count 0 and (nan, nan).
    """
    vals = cylinder_nodes(traj, region)
    if vals.size == 0:
        return np.nan, np.nan, 0
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


# ---------------------------------------------------------------------------
# the discrete v-calculus: face differences, their split onto cells, adjoint
# ---------------------------------------------------------------------------

def _face_diff(grid, values, axis):
    return np.diff(values, axis=axis) / grid.dv


def faces_to_cells(faces: np.ndarray, axis: int) -> np.ndarray:
    """Each interior face value split evenly onto its two cells along
    `axis`; the boundary faces carry nothing."""
    lead = (slice(None),) * (axis % faces.ndim)
    shape = list(faces.shape)
    shape[len(lead)] += 1
    half = 0.5 * faces
    cells = np.zeros(shape)
    cells[lead + (slice(None, -1),)] = half
    cells[lead + (slice(1, None),)] += half
    return cells


def grad_v_sq_density(grid, values: np.ndarray) -> np.ndarray:
    """|grad_v f|^2 per cell: the squared face differences split onto the
    cells, summed over the v axes (the last `grid.dim` axes of `values`)."""
    return sum(faces_to_cells(_face_diff(grid, values, a) ** 2, a)
               for a in range(values.ndim - grid.dim, values.ndim))


def cell_grad_v(grid, values: np.ndarray, ax: int) -> np.ndarray:
    """The face differences of v axis `ax` split onto the cells: the
    negative adjoint of `face_divergence`, centered in the interior."""
    axis = values.ndim - grid.dim + ax
    return faces_to_cells(_face_diff(grid, values, axis), axis)


def face_divergence(grid, comp: np.ndarray, ax: int) -> np.ndarray:
    """div_v along v axis `ax`: `comp` averaged to the interior faces, zero
    on the boundary faces, and differenced back to the cells."""
    s = np.moveaxis(comp, comp.ndim - grid.dim + ax, -1)
    flux = np.pad(0.5 * (s[..., :-1] + s[..., 1:]), [(0, 0)] * (s.ndim - 1) + [(1, 1)])
    return np.moveaxis(_face_diff(grid, flux, -1), -1, comp.ndim - grid.dim + ax)
