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
cells it holds and the bounding cell box of its (x, v) mask.  One reducer,
`SliceIntegral`, evaluates it for every cylinder integral and level-set
measure: it takes the stored slices one at a time, sums each time cell
in one reduction and adds the cells' sums in time order, so both sides of
a Chebyshev comparison sum the same cells in the same order, and no sum
depends on how memory is laid out.

The v-calculus is the scheme's face difference D = np.diff/dv, its adjoint
the face divergence, and one rule splitting each interior face value evenly
onto its two cells.  A cell box (`_CellBox`) is a box of a grid's cells
whose centers and radius arrays are slices of the grid's arrays, so every
mask, cutoff, sample and face difference on it is bit-equal to the
grid's.  A `GridWindow` is the cell box of one dyadic level: the cells
with |x_a| < R and |v_a| < R on every axis, plus one v cell for the face
differences.  The level audits run on it, and so does the barrier problem
of the same level, whose domain B(R)^2 lies inside the box; the zoom's
anchored re-solve steps the box of the cells its ring does not pin
(`solver.solve_anchored`).  A box is not a `PhaseGrid`, and the periodic
whole-space problem has no meaning on it.
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
    "SliceIntegral",
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
    """A box of (x, v) cells of a `PhaseGrid`, `parent`: the cells in the
    index slices `box` of a parent (x, v) array, one slice on every x axis
    and one on every v axis.

    Its center arrays `x_centers`, `v_centers` and radius arrays `rho_x`,
    `rho_v` are slices of the parent's, and its spacings, `v_max` and
    `cell_volume` are the parent's, so every mask, cutoff, sample and face
    difference on it is bit-equal to the parent's cell by cell.  A
    `PhaseGrid` is the box of all its cells, its own parent; a box cut
    from a box is a box of their parent.  The methods broadcast over the
    box.
    """

    def __init__(self, grid, xs: slice, vs: slice):
        """The cells of `grid` (a `PhaseGrid` or a box of one) in the index
        slices `xs` of each x axis and `vs` of each v axis of `grid`."""
        root = grid.parent
        x0, v0 = grid.box[0].start, grid.box[-1].start
        xs = slice(x0 + xs.start, x0 + xs.stop)
        vs = slice(v0 + vs.start, v0 + vs.stop)
        self.parent = root
        self.dim = root.dim
        self.dx, self.dv, self.cell_volume = root.dx, root.dv, root.cell_volume
        self.v_max = root.v_max
        self.box = (xs,) * self.dim + (vs,) * self.dim
        self.x_centers = root.x_centers[xs]
        self.v_centers = root.v_centers[vs]
        self.n_x, self.n_v = len(self.x_centers), len(self.v_centers)
        self.rho_x = root.rho_x[self.box[:self.dim]]
        self.rho_v = root.rho_v[self.box[self.dim:]]
        self.x_shape = self.rho_x.shape
        self.v_shape = self.rho_v.shape
        self.shape = self.x_shape + self.v_shape

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
        self.parent = self
        self.box = (slice(0, self.n_x),) * self.dim + (slice(0, self.n_v),) * self.dim

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
    """The cell box of one dyadic level: the cells of `grid` with
    |x_a| < radius on every x axis and |v_a| < radius, widened by
    `_V_MARGIN` cells and clipped at the grid edge, on every v axis.

    As a `_CellBox` its masks, cutoffs and samples are bit-equal to the
    parent's cell by cell, and so are the face differences of the cells
    with |v_a| < radius.  A field on the window stands for its zero
    extension to `parent`.  The level audits run on it, and so does the
    kinetic IBVP of the level, whose step plan reads the centers, the
    spacings and `v_max`, and takes its transport weights from the
    parent's rows (`box`), so that they are the whole grid's.  There is no
    periodic x here.
    """

    def __init__(self, grid, radius: float):
        super().__init__(grid, _centered_cells(grid.x_centers, radius, 0),
                         _centered_cells(grid.v_centers, radius, _V_MARGIN))


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

    def cutoffs(self, grid: PhaseGrid) -> tuple:
        """(eta_k(x), eta_k(v)) on the grid's (x, v) box, each broadcast
        against its fields."""
        return grid.expand_x(self.eta(grid.rho_x)), grid.expand_v(self.eta(grid.rho_v))

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


class SliceIntegral:
    """The integral of func(f, t) over `region` by the midpoint cell rule,
    of a trajectory whose stored slices come one at a time: `add(i,
    values)` takes stored slice i, in time order, of a trajectory on
    `traj`'s cells and times (`traj` is read for those and its spacing
    only), and `value()` is the integral once the region's last stored
    slice has come.

    The one engine of every cylinder integral and level-set measure, fed
    the stored slices by `cylinder_integral` and, slice by slice, the
    truncations and gradient densities of a level by `degiorgi.LevelPass`
    and the barrier terms of a level by `degiorgi.build_barrier_sources`.
    It holds one buffer on the region's bounding box.  Each slice added
    closes time cell i - 1 and opens time cell i: the slice is added to the
    buffer, which is halved into the cell's midpoint values, `func` applied
    to them and to the cell's midpoint time (it may overwrite the buffer),
    the (x, v) mask multiplied in place and the product summed by one
    `sum()` (counted by `np.count_nonzero` when boolean); the slice is then
    copied into the buffer.  A mask of ones, as every N = 1 box has, would
    change no bit and is not applied.  The cells' sums are added in time
    order, and every time cell is `traj.dt` wide, the spacing of the run
    that stored the slices, so an integral does not depend on which stored
    slice its trajectory starts at.
    """

    def __init__(self, traj, func, region: Cylinder):
        _check_region(traj, region)
        cells = _time_cells(traj, region)
        self.box, mask = region.space_box(traj.grid)
        self.mask = None if mask.all() else mask
        self.start, self.stop = cells.start, cells.stop
        self.func = func
        self.times = traj.times
        self.cell = np.empty(mask.shape)
        self.total = 0.0
        self.dt_cell = traj.dt
        self.cell_volume = traj.grid.cell_volume

    def add(self, i: int, values):
        """Take stored slice i: it closes time cell i - 1 and opens time
        cell i of the region."""
        if self.start < i <= self.stop:
            self.cell += values[self.box]
            self.cell *= 0.5
            vals = self.func(self.cell, 0.5 * float(self.times[i - 1] + self.times[i]))
            if self.mask is not None:
                vals *= self.mask
            # a level set's 0/1 cells are counted: sum() would cast them
            # to integers through a buffer of its own
            self.total += float(np.count_nonzero(vals) if vals.dtype == bool
                                else vals.sum())
        if self.start <= i < self.stop:
            self.cell[...] = values[self.box]

    def value(self) -> float:
        return self.total * self.dt_cell * self.cell_volume


def cylinder_integral(traj, func, region: Cylinder) -> float:
    """The integral of func(f) over the region by the midpoint cell rule:
    the cell value is the midpoint-in-time average of the two adjacent
    stored slices, and `func` acts cell by cell on the region's bounding
    box.  A `SliceIntegral` fed views of the stored slices in time order;
    `level_set_measure` sums the same cells in the same order, so Chebyshev
    comparisons are exact discretely."""
    integral = SliceIntegral(traj, lambda values, _: func(values), region)
    for i, values in enumerate(traj.values):
        integral.add(i, values)
    return integral.value()


def level_set_measure(traj, predicate, region: Cylinder) -> float:
    """Lebesgue measure of {(t,x,v) in region : predicate(f)} by the cell
    rule: `cylinder_integral` of the predicate's 0/1 value, so a count of
    whole cells per time cell, exact below 2^53 cells in all.

    `predicate` returns a boolean array; it acts cell by cell and sees only
    the region's bounding box.  Monotone in the threshold by construction;
    error at most one cell layer.
    """
    return cylinder_integral(traj, predicate, region)


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
    """The face differences D = np.diff/dv of `values` along `axis`."""
    faces = np.diff(values, axis=axis)
    faces /= grid.dv
    return faces


def faces_to_cells(faces: np.ndarray, axis: int, out=None) -> np.ndarray:
    """Each interior face value split evenly onto its two cells along
    `axis`, into `out` when given; the boundary faces carry nothing.  The
    faces are halved in place.

    Cell j takes the halves of faces j and j - 1; the first cell has only
    face 0, and the last only the last face, added to 0.0 as the sum of a
    zero-filled cell would add it (so a -0.0 half gives +0.0 there)."""
    lead = (slice(None),) * (axis % faces.ndim)
    shape = list(faces.shape)
    shape[len(lead)] += 1
    out = np.empty(shape) if out is None else out
    faces *= 0.5
    out[lead + (0,)] = faces[lead + (0,)]
    np.add(faces[lead + (slice(1, None),)], faces[lead + (slice(None, -1),)],
           out=out[lead + (slice(1, -1),)])
    np.add(faces[lead + (-1,)], 0.0, out=out[lead + (-1,)])
    return out


def grad_v_sq_density(grid, values: np.ndarray, out=None) -> np.ndarray:
    """|grad_v f|^2 per cell: the squared face differences split onto the
    cells, summed over the v axes (the last `grid.dim` axes of `values`),
    into `out` when given.  The axes are added in order, each axis's cells
    formed whole first."""
    out = np.empty(values.shape) if out is None else out
    for n, axis in enumerate(range(values.ndim - grid.dim, values.ndim)):
        faces = _face_diff(grid, values, axis)
        np.square(faces, out=faces)
        if n == 0:
            faces_to_cells(faces, axis, out)
        else:
            out += faces_to_cells(faces, axis)
    return out


def cell_grad_v(grid, values: np.ndarray, ax: int, out=None) -> np.ndarray:
    """The face differences of v axis `ax` split onto the cells, into `out`
    when given: the negative adjoint of `face_divergence`, centered in the
    interior."""
    axis = values.ndim - grid.dim + ax
    return faces_to_cells(_face_diff(grid, values, axis), axis, out)


def face_divergence(grid, comp: np.ndarray, ax: int, out=None) -> np.ndarray:
    """div_v along v axis `ax`, into `out` when given: `comp` averaged to
    the interior faces, zero on the boundary faces, and differenced back
    to the cells.  The first cell reads its inner face alone and the last
    one 0.0 minus its inner face, as the differences of zero-padded faces
    would (so a +0.0 face gives +0.0 there, not its negation -0.0)."""
    axis = comp.ndim - grid.dim + ax
    lead = (slice(None),) * axis
    out = np.empty(comp.shape) if out is None else out
    flux = np.add(comp[lead + (slice(None, -1),)], comp[lead + (slice(1, None),)])
    flux *= 0.5
    out[lead + (0,)] = flux[lead + (0,)]
    np.subtract(flux[lead + (slice(1, None),)], flux[lead + (slice(None, -1),)],
                out=out[lead + (slice(1, -1),)])
    np.subtract(0.0, flux[lead + (-1,)], out=out[lead + (-1,)])
    out /= grid.dv
    return out
