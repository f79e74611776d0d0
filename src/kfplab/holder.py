"""Kinetic scaling maps, oscillation ladders, the isoperimetric probe, and
Hoelder exponent estimation.

The zoom at base (t0, x0, v0) with factor eps is

    T_eps F (s, y, xi) = F(t0 + eps^2 s, x0 + eps^3 y + eps^2 s v0, v0 + eps xi),

under which the equation class is invariant: the coefficient composes
unchanged and the source picks up eps^2.  Iterating the zoom with factor
omega^2/27 contracts the oscillation geometrically with some factor
mu < 1, and the contraction rate converts into a Hoelder exponent

    sigma = ln mu / ln(omega^2 / 27).

Rather than interpolating samples ever deeper, every ladder level
re-solves the equation on the unit-scale cylinder with the transformed
coefficients (the zoom acts on the equation, not on the samples), with
initial and boundary data anchored to the interpolated parent field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .degiorgi import IterationConstants, kappa_log10
from .fields import Trajectory
from .geometry import (
    Cylinder,
    GeometryError,
    PhaseGrid,
    _centered_cells,
    ball_volume,
    cylinder_node_extrema,
    hat_cylinder,
    hat_union_unit,
    level_set_measure,
    make_cylinder,
)
from .solver import _ANCHOR_RING, ring_mask, solve_anchored

__all__ = [
    "ScalingMap",
    "ZoomedTriple",
    "ZoomSampler",
    "zoom",
    "zoom_residual",
    "oscillation",
    "oscillation_ladder",
    "theta_sequence",
    "ThetaSequenceReport",
    "isoperimetric_probe",
    "IsoperimetricReport",
    "lemma_constants",
    "normalize_pair",
    "holder_fit",
    "modulus_from_constants",
    "OscillationReport",
]


@dataclass(frozen=True)
class ScalingMap:
    """The kinetic zoom with factor eps at base point (t0, x0, v0)."""

    eps: float
    t0: float = 0.0
    x0: tuple = (0.0,)
    v0: tuple = (0.0,)

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"zoom factor must be positive and finite, got {self.eps}")

    @property
    def dim(self) -> int:
        return len(self.x0)

    def apply_time(self, s):
        """The parent time t0 + eps^2 s of zoom time s: a float for a float
        s (Python float arithmetic, bit-equal to the array rule)."""
        if isinstance(s, float):
            return self.t0 + self.eps * self.eps * s
        return self.t0 + self.eps * self.eps * np.asarray(s)

    def apply_coords(self, s, ys, vs_):
        """Map zoomed coordinates (s, y, xi) to parent coordinates (t, x, v)."""
        e = self.eps
        t = self.apply_time(s)
        xs = tuple(self.x0[i] + e**3 * np.asarray(ys[i])
                   + e * e * np.asarray(s) * self.v0[i] for i in range(self.dim))
        vs = tuple(self.v0[i] + e * np.asarray(vs_[i]) for i in range(self.dim))
        return t, xs, vs

    def compose(self, inner: "ScalingMap") -> "ScalingMap":
        """self after inner: (self o inner)(p) = self(inner(p)); the family is
        closed, with total factor eps1*eps2 and drift-corrected base point."""
        e1, e2 = self.eps, inner.eps
        t0 = self.t0 + e1 * e1 * inner.t0
        v0 = tuple(self.v0[i] + e1 * inner.v0[i] for i in range(self.dim))
        x0 = tuple(self.x0[i] + e1**3 * inner.x0[i]
                   + e1 * e1 * inner.t0 * self.v0[i] for i in range(self.dim))
        return ScalingMap(e1 * e2, t0, x0, v0)


@dataclass
class ZoomedTriple:
    """A zoomed field together with its transformed coefficient and source."""

    data: Trajectory
    diffusion: object
    source: object


def _snap(coords: np.ndarray) -> np.ndarray:
    rounded = np.round(coords)
    return np.where(np.abs(coords - rounded) < 1e-9, rounded, coords)


def _axis_nodes(idx: np.ndarray, n: int):
    """(lo, hi, w): the two node indices of a 1-d linear interpolation at
    fractional node indices `idx` (snapped) on an axis of n nodes, holding
    the edge values beyond the end nodes, and the weight of hi."""
    idx = _snap(idx)
    lo = np.floor(idx)
    w = idx - lo
    lo = lo.astype(np.int64)
    return (np.minimum(np.maximum(lo, 0), n - 1),
            np.minimum(np.maximum(lo + 1, 0), n - 1), w)


def _lerp_plan(nodes, start: int, axis: int, ndim: int):
    """`_axis_nodes` ready for `_lerp` along `axis` of an ndim-array whose
    first index on that axis is node `start`: (lo, hi, 1 - w, w)."""
    lo, hi, w = nodes
    shape = [1] * ndim
    shape[axis] = len(w)
    return lo - start, hi - start, (1.0 - w).reshape(shape), w.reshape(shape)


def _lerp(values: np.ndarray, axis: int, plan) -> np.ndarray:
    """Linear interpolation of `values` along one axis by a `_lerp_plan`."""
    lo, hi, omw, w = plan
    return omw * np.take(values, lo, axis=axis) + w * np.take(values, hi, axis=axis)


def _time_nodes(smap: ScalingMap, s: np.ndarray, times: np.ndarray):
    """(lo, hi, w) of the preimages of the zoom times `s` on the time axis
    `times`, measured from its first time in its first slice spacing."""
    t = smap.apply_time(s)
    ti = (t - times[0]) / float(times[1] - times[0])
    outside = (ti < -1e-9) | (ti > len(times) - 1 + 1e-9)
    if outside.any():
        raise GeometryError(
            f"zoom preimage needs t = {t[outside][0]:.6g}, outside the stored span "
            f"[{times[0]:.6g}, {times[-1]:.6g}]")
    return _axis_nodes(ti, len(times))


class ZoomSampler:
    """T_eps F on a unit-scale grid by linear interpolation, one zoom slice
    at a time.

    The interpolation is separable: at a fixed zoom time s the preimage
    time is one number, x_i depends on y_i alone (the drift eps^2 s v0_i is
    a constant shift) and v_i on xi_i alone.  So each zoom slice is a
    linear interpolation in time between two stored slices followed by one
    1-d linear interpolation per x and v axis, each holding the edge value
    beyond the outermost cell centers.  A slice reads only the stored
    slices' referenced index box, the cells its nodes touch (about two per
    axis under the ladder's zoom), and `anchors` computes only the ring
    cells of `ring_mask` a re-solve asks for; every value is the whole-grid
    interpolation's bit for bit.

    `traj` may live on a cell box of its grid (`geometry._CellBox`, as
    `normalize_pair` returns): node indices are computed on the parent
    grid and then shifted into the box, which must hold every node the
    zoom reads.  `full_times` is the parent's whole time axis when `traj`
    holds only its last slices (a re-solve that kept what the ladder
    reads): time indices are measured on it, so they are the whole
    trajectory's.  The preimage of every zoom-grid node must lie in the
    parent domain; otherwise the required domain is reported.  Mapped
    coordinates that land exactly on parent nodes are snapped, so an
    identity zoom on a matching grid is bit-equal.
    """

    def __init__(self, traj: Trajectory, smap: ScalingMap,
                 zoom_grid: PhaseGrid | None = None, full_times=None):
        self.traj = traj
        self.grid = traj.grid.parent.unit_scale() if zoom_grid is None else zoom_grid
        self.times = self.grid.times
        full_times = traj.times if full_times is None else full_times
        offset = len(full_times) - traj.n_slices
        t_lo, t_hi, t_w = _time_nodes(smap, self.times, full_times)
        if t_lo.min() < offset:
            s = float(self.times[np.argmax(t_lo < offset)])
            raise GeometryError(
                f"zoom preimage needs t = {smap.apply_time(s):.6g}, "
                f"before the first kept slice {traj.times[0]:.6g}")
        # without drift (v0 = 0) x_i = x0_i + eps^3 y_i at every zoom time, so
        # every slice has the nodes of the first; with drift, a slice reuses
        # the last slice's nodes when its node indices are the same
        drifts = any(v != 0.0 for v in smap.v0)
        self.plans = []
        nodes, last_idx = None, None
        for i, s in enumerate(self.times):
            if nodes is None or drifts:
                idx = self._node_indices(smap, float(s))
                if last_idx is None or not all(map(np.array_equal, idx, last_idx)):
                    nodes, last_idx = self._nodes(idx), idx
            self.plans.append((int(t_lo[i]) - offset, int(t_hi[i]) - offset,
                               1.0 - t_w[i], t_w[i], nodes))

    def _node_indices(self, smap: ScalingMap, s: float):
        """The fractional parent node indices of the zoom grid's cell
        centers at zoom time s, one array per x and v axis."""
        grid = self.traj.grid.parent
        ys, xis = self.grid.coords()
        _, xs, vs = smap.apply_coords(s, ys, xis)
        idx = []
        for name, c, half, h, n in (
                [("x", c, grid.x_max, grid.dx, grid.n_x) for c in xs]
                + [("v", c, grid.v_max, grid.dv, grid.n_v) for c in vs]):
            at = (np.asarray(c).ravel() + half) / h - 0.5
            if at.min() < -0.5 - 1e-9 or at.max() > n - 0.5 + 1e-9:
                raise GeometryError(
                    f"zoom preimage needs |{name}| up to {np.max(np.abs(c)):.6g}, "
                    f"outside the box [-{half}, {half}]")
            idx.append(at)
        return idx

    def _nodes(self, idx):
        """`_axis_nodes` of one slice's fractional node indices on each of
        the parent's x and v axes, shifted into the stored cell box."""
        cells = self.traj.grid
        grid = cells.parent
        nodes = []
        for at, n, b in zip(idx, grid.x_shape + grid.v_shape, cells.box):
            lo, hi, w = _axis_nodes(at, n)
            if lo.min() < b.start or hi.max() >= b.stop:
                raise GeometryError("zoom preimage needs cells outside the stored "
                                    f"index range [{b.start}, {b.stop})")
            nodes.append((lo - b.start, hi - b.start, w))
        return nodes

    @staticmethod
    def _cut(nodes, cells):
        """(box, plans) of the zoom cells `cells`, one slice or index array
        per axis: the index box of the stored slices their nodes reference,
        and a `_lerp_plan` per axis on that box."""
        ndim = len(nodes)
        cut = [tuple(arr[c] for arr in nd) for nd, c in zip(nodes, cells)]
        box = tuple(slice(int(lo.min()), int(hi.max()) + 1) for lo, hi, _ in cut)
        return box, [_lerp_plan(nd, b.start, ax, ndim)
                     for ax, (nd, b) in enumerate(zip(cut, box))]

    def _box(self, i: int, box) -> np.ndarray:
        """Zoom slice i's time interpolation on the index box `box`."""
        lo, hi, omw, w, _ = self.plans[i]
        values = self.traj.values
        return omw * values[lo][box] + w * values[hi][box]

    def whole(self, i: int) -> np.ndarray:
        """Zoom slice i on every cell of the zoom grid."""
        nodes = self.plans[i][-1]
        box, plans = self._cut(nodes, (slice(None),) * len(nodes))
        out = self._box(i, box)
        for ax, plan in enumerate(plans):
            out = _lerp(out, ax, plan)
        return out

    def anchors(self, cells=None):
        """For each zoom slice after the first, one array on the zoom
        cells `cells` (one slice per axis; default: every cell) holding the
        slice on the ring cells among them (the same array, refilled; its
        other cells hold 0).

        The ring is the union of one face per axis, that axis cut to its
        ring cells.  Every face interpolates the axes in the order of a
        whole slice: face a cuts the interpolation of axes <= a to its ring
        cells, or, on the last axis, interpolates only those."""
        shape = self.grid.shape
        cells = (slice(None),) * len(shape) if cells is None else cells
        axes = [np.arange(n)[c] for c, n in zip(cells, shape)]
        rings = [np.nonzero((at < _ANCHOR_RING) | (at >= n - _ANCHOR_RING))[0]
                 for at, n in zip(axes, shape)]
        buf = np.zeros(tuple(map(len, axes)))
        last = len(rings) - 1
        spatial = None
        for i in range(1, len(self.times)):
            nodes = self.plans[i][-1]
            if spatial is None or spatial[0] is not nodes:
                box, full = self._cut(nodes, cells)
                ring = _lerp_plan(tuple(arr[cells[-1]][rings[-1]] for arr in nodes[-1]),
                                  box[-1].start, last, last + 1)
                spatial = (nodes, box, full, ring)
            _, box, full, ring = spatial
            prefix = self._box(i, box)
            for ax, ring_cells in enumerate(rings):
                if ax == last:
                    face = _lerp(prefix, ax, ring)
                else:
                    prefix = _lerp(prefix, ax, full[ax])
                    face = np.take(prefix, ring_cells, axis=ax)
                    for later in range(ax + 1, last + 1):
                        face = _lerp(face, later, full[later])
                buf[(slice(None),) * ax + (ring_cells,)] = face
            yield buf


def zoom(traj: Trajectory, smap: ScalingMap, diffusion, source,
         zoom_grid: PhaseGrid | None = None) -> ZoomedTriple:
    """Sample T_eps F on a unit-scale grid (`ZoomSampler`, every slice
    whole) and compose the coefficient and source through the map (source
    gains eps^2)."""
    sampler = ZoomSampler(traj, smap, zoom_grid)
    out = np.empty((len(sampler.times),) + sampler.grid.shape)
    for i in range(len(out)):
        out[i] = sampler.whole(i)
    zoomed = Trajectory(sampler.grid, sampler.times.copy(), out)
    return ZoomedTriple(zoomed, *_transformed(smap, diffusion, source))


def _transformed(smap: ScalingMap, diffusion, source):
    """The coefficient and the source composed through the map."""
    return (diffusion.transformed(smap),
            source.transformed(smap, smap.eps**2) if source is not None else None)


def zoom_residual(triple: ZoomedTriple) -> dict:
    """Discrete equation residual of a zoomed triple, measured by re-solving.

    The equation with the transformed (a, g) is solved on the zoom grid
    from the zoomed initial slice, with the band of `_ANCHOR_RING` cells at
    each end of every axis (`ring_mask`) anchored to the zoomed data; the
    mismatch against the data on the cells that band encloses is the
    residual (interpolation error plus scheme error of both solves).
    """
    resolved = solve_anchored(triple.data, triple.diffusion, triple.source)
    interior = ~ring_mask(triple.data.grid)
    diff = np.abs(resolved.values - triple.data.values)[:, interior]
    osc = float(triple.data.values.max() - triple.data.values.min())
    abs_res = float(diff.max()) if diff.size else 0.0
    return {
        "abs_residual": abs_res,
        "rel_residual": abs_res / osc if osc > 0 else 0.0,
        "data_osc": osc,
        "resolved": resolved,
    }


# ---------------------------------------------------------------------------
# oscillation
# ---------------------------------------------------------------------------

def oscillation(traj: Trajectory, region: Cylinder) -> float:
    """max - min over the grid nodes inside the region (discrete essential
    oscillation); an empty region is an error."""
    lo, hi, count = cylinder_node_extrema(traj, region)
    if count == 0:
        raise GeometryError(f"region {region} captures no grid nodes")
    return hi - lo


@dataclass
class OscillationReport:
    omega: float
    ladder: list = field(default_factory=list)   # osc over Q[omega/2] per level
    ladder_inner: list = field(default_factory=list)  # osc over Q[omega^3/54]
    mu_emp: float = math.nan
    fit_r2: float = math.nan
    degenerate: bool = True
    sigma_emp: float = math.nan


def oscillation_ladder(traj: Trajectory, diffusion, source, omega: float,
                       n_levels: int = 3, interp: str = "linear") -> OscillationReport:
    """Iterate the zoom T_{omega^2/27} at base 0, re-solving at every level,
    and fit the oscillation contraction factor mu.

    The recorded ladder is osc over Q[omega/2] per level: since the zoom
    maps Q[omega/2] into the previous level's Q[omega^3/54], consecutive
    entries contract by the same mu as the inner-cylinder recursion, and
    Q[omega/2] stays resolvable on a desk-scale grid (Q[omega^3/54] is
    subgrid; its oscillation is recorded too whenever it resolves).
    A field bounded by 1 with |g| <= beta is expected (see normalize_pair);
    it may live on a cell box of its grid that holds the cylinders and the
    first zoom's preimage, as the one `normalize_pair` returns.

    Each level streams: one `ZoomSampler` gives the re-solve its first
    zoomed slice whole and then only the ring cells it anchors, and the
    re-solve keeps only the slices the ladder reads next, the nodes of the
    two cylinders and the next zoom's time preimage (`_ladder_keep`; the
    last two slices on the benchmark grids).  Every entry is the one of
    whole zoomed and re-solved trajectories, bit for bit.
    """
    dim = traj.grid.dim
    _check_omega(omega, dim)
    eps_step = omega * omega / 27.0
    report = OscillationReport(omega=omega)
    region = make_cylinder(omega / 2.0)
    inner_region = make_cylinder(omega**3 / 54.0)
    smap = ScalingMap(eps_step, 0.0, (0.0,) * dim, (0.0,) * dim)
    unit = traj.grid.parent.unit_scale()

    current, full_times = traj, None
    a_cur, g_cur = diffusion, source
    for level in range(n_levels + 1):
        report.ladder.append(oscillation(current, region))
        inner = math.nan
        if inner_region.intersects_grid(current.grid, current.times):
            lo, hi, count = cylinder_node_extrema(current, inner_region)
            if count > 0:
                inner = hi - lo
        report.ladder_inner.append(inner)
        if level == n_levels:
            break
        sampler = ZoomSampler(current, smap, unit, full_times)
        a_cur, g_cur = _transformed(smap, a_cur, g_cur)
        keep = _ladder_keep(unit.times, (region, inner_region),
                            smap if level + 1 < n_levels else None)
        current = solve_anchored(sampler, a_cur, g_cur, interp=interp, keep=keep)
        full_times = unit.times

    # oscillations at roundoff scale of the data the ladder reads are
    # treated as zero (a constant field zoomed through interpolation picks
    # up ~1e-17 dust)
    floor = 1e-12 * max(1.0, float(traj.values.max()), -float(traj.values.min()))
    entries = [(n, math.log10(v)) for n, v in enumerate(report.ladder)
               if v > floor]
    if len(entries) >= 2:
        slope, _, report.fit_r2 = _line_fit(entries)
        report.mu_emp = 10.0**slope
        report.degenerate = False
        if 0.0 < report.mu_emp < 1.0:
            report.sigma_emp = modulus_from_constants(report.mu_emp, omega, dim=dim)
    return report


def _ladder_keep(times, regions, smap=None) -> int:
    """How many trailing slices of a re-solve on `times` the ladder reads:
    the nodes of each region's time set and, when `smap` zooms next, the
    slices its time preimage interpolates between."""
    first = len(times) - 1
    for region in regions:
        inside = np.nonzero(region.contains_time(times))[0]
        if inside.size:
            first = min(first, int(inside[0]))
    if smap is not None:
        first = min(first, int(_time_nodes(smap, times, times)[0].min()))
    return len(times) - first


def _line_fit(pairs):
    """(slope, intercept, R^2) of the least-squares line through the
    (x, y) pairs; R^2 is 1 when the y are all equal."""
    xs, ys = (np.array(col, dtype=float) for col in zip(*pairs))
    slope, intercept = np.polyfit(xs, ys, 1)
    ss_res = float(np.sum((ys - (slope * xs + intercept)) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return slope, intercept, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _check_omega(omega: float, dim: int):
    limit = 1.0 - 2.0 ** (-1.0 / dim)
    if not 0.0 < omega < limit:
        raise ValueError(f"omega must lie in (0, {limit:.6g}) for N = {dim}, "
                         f"got {omega}")


# ---------------------------------------------------------------------------
# the theta rescaling sequence and the isoperimetric probe
# ---------------------------------------------------------------------------

@dataclass
class ThetaSequenceReport:
    theta: float
    measures: list                      # m_k over the hat cylinder union Q[1]
    monotone: bool                      # f_k <= f_{k-1} on the region, exact
    measures_nondecreasing: bool


def theta_sequence(traj: Trajectory, theta: float, k_max: int) -> ThetaSequenceReport:
    """The affine rescaling ladder f_k = (f_{k-1} - 1)/theta + 1, f_0 = f.

    Requires theta in (0, 1/2) and f <= 1 on the hat-union region (the
    bound normalize_pair gives); the ladder is then pointwise nonincreasing
    in k there (exactly) and the measures m_k = |{f_k <= 0}| over that
    region are nondecreasing.  Only the current pair of levels is held, on
    the cells of B(0,1)^2: every query reads those cells only, and the
    window keeps the trajectory's times, so each measure and each rise is
    the whole grid's bit for bit.
    """
    if not 0.0 < theta < 0.5:
        raise ValueError(f"theta must lie in (0, 1/2), got {theta}")
    region = hat_union_unit()
    traj = traj.window(float(traj.times[0]), region.radius)
    if cylinder_node_extrema(traj, region)[1] > 1.0 + 1e-12:
        raise ValueError("theta sequence requires f <= 1 on the hat union "
                         "(normalize first)")
    prev = traj
    measures = [level_set_measure(traj, lambda f: f <= 0.0, region)]
    monotone = True
    for _ in range(k_max):
        nxt = prev.map_values(lambda v: (v - 1.0) / theta + 1.0)
        rise = cylinder_node_extrema(
            Trajectory(prev.grid, prev.times, nxt.values - prev.values), region)[1]
        monotone &= bool(rise <= 1e-12)
        measures.append(level_set_measure(nxt, lambda f: f <= 0.0, region))
        prev = nxt
    nondecr = all(b >= a - 1e-12 for a, b in zip(measures, measures[1:]))
    return ThetaSequenceReport(theta, measures, monotone, nondecr)


@dataclass
class IsoperimetricReport:
    m_below: float                     # |{f <= 0} cap Qhat|
    m_top: float                       # |{f >= 1 - theta} cap Q[omega/2]|
    m_middle: float                    # |{0 < f < 1 - theta} cap (Qhat u Q[1])|
    flipped: bool
    hat_measure: float
    first_alternative: bool            # m_top below the eta threshold
    verdict: str


def isoperimetric_probe(traj: Trajectory, theta: float, omega: float,
                        eta_iso_log10: float, alpha_iso: float) -> IsoperimetricReport:
    """Measure the level-set triple behind the two-alternative dichotomy.

    Requires f <= 1 on the hat-union region and at least half of the hat
    cylinder below level 0 (otherwise the probe runs on -f, and an error is
    raised if the hypothesis still fails).  The first alternative compares
    m_top against the eta threshold in log10, since the theory-faithful
    threshold underflows floats; the second compares m_middle >= alpha_iso.
    """
    grid = traj.grid
    _check_omega(omega, grid.dim)
    if not 0.0 < theta < 0.5:
        raise ValueError(f"theta must lie in (0, 1/2), got {theta}")
    hat = hat_cylinder()
    union = hat_union_unit()
    _, top_val, _ = cylinder_node_extrema(traj, union)
    if top_val > 1.0 + 1e-12:
        raise ValueError("isoperimetric probe requires f <= 1 on the hat union")

    hat_total = level_set_measure(traj, lambda f: np.isfinite(f), hat)
    top = 1.0 - theta
    below, above, middle = (lambda f: f <= 0.0, lambda f: f >= top,
                            lambda f: (f > 0.0) & (f < top))
    m_below = level_set_measure(traj, below, hat)
    flipped = m_below < 0.5 * hat_total - 1e-12
    if flipped:
        # the probe runs on -f through the mirrored predicates on f: negation
        # commutes with the midpoint average exactly, so each counts the
        # cells its predicate would count on -f
        below, above, middle = (lambda f: f >= 0.0, lambda f: f <= -top,
                                lambda f: (f < 0.0) & (f > -top))
        m_below = level_set_measure(traj, below, hat)
        if m_below < 0.5 * hat_total - 1e-12:
            raise ValueError(
                "level-set hypothesis fails for both f and -f: "
                f"m_below = {m_below}, half the hat cylinder = {0.5 * hat_total}")

    m_top = level_set_measure(traj, above, make_cylinder(omega / 2.0))
    m_middle = level_set_measure(traj, middle, union)
    log_top = math.log10(m_top) if m_top > 0 else -math.inf
    first = log_top < eta_iso_log10
    second = m_middle >= alpha_iso
    verdict = ("both" if first and second else
               "top_small" if first else
               "middle_large" if second else "neither")
    return IsoperimetricReport(m_below, m_top, m_middle, flipped, hat_total,
                               first, verdict)


def lemma_constants(omega: float, lam: float, dim: int, theta: float,
                    alpha_iso: float) -> dict:
    """The theory-side values of the dichotomy and contraction constants.

    eta is the zoomed smallness threshold (omega/3)^{4N+2} kappa[N, lam,
    omega^2/9, inf] (log10; astronomically small), k* the pigeonhole count
    floor((|Qhat|/2 + |Q[1]|)/alpha) + 1, beta the source budget with
    ln(1/beta) = ((|Qhat|/2 + |Q[1]|)/alpha + 2) ln(1/theta), and
    mu = 1 - theta^{k*+3} the guaranteed contraction factor.
    """
    _check_omega(omega, dim)
    consts = IterationConstants(dim, lam, omega * omega / 9.0, q=np.inf)
    eta_log = (4 * dim + 2) * math.log10(omega / 3.0) + kappa_log10(consts)
    hat_half = 0.5 * 0.5 * ball_volume(dim, 1.0) ** 2
    q1 = ball_volume(dim, 1.0) ** 2
    load = (hat_half + q1) / alpha_iso
    k_star = int(math.floor(load)) + 1
    beta = theta ** (load + 2.0)
    mu = 1.0 - theta ** (k_star + 3)
    return {"eta_iso_log10": eta_log, "k_star": k_star, "beta": beta,
            "mu_guaranteed": mu}


def normalize_pair(traj: Trajectory, source, beta: float):
    """Scale (f, g) by L = (1 + ||f||_inf)(1 + ||g||_inf / beta) over the
    hat-union region, so |f/L| <= 1 there and |g/L| <= beta.

    The scaled field is kept on the cells of B(0,1)^2 only
    (`Trajectory.window` at radius 1, every slice): the hat union, the
    ladder's and the probe's cylinders, the theta sequence and the first
    zoom's preimage lie in them, so the oscillation chain reads nothing
    else, and no scaled copy of the whole trajectory is made."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    region = hat_union_unit()
    lo, hi, count = cylinder_node_extrema(traj, region)
    f_inf = max(abs(lo), abs(hi)) if count else 0.0
    if source is None:
        g_inf = 0.0
    else:
        g_inf = abs(source.scale) * source.bound
    big_l = (1.0 + f_inf) * (1.0 + g_inf / beta)
    scaled = traj.window(float(traj.times[0]), region.radius).map_values(
        lambda v: v / big_l)
    scaled_source = None if source is None else source.scaled(1.0 / big_l)
    return scaled, scaled_source, big_l


# ---------------------------------------------------------------------------
# Hoelder exponent estimation
# ---------------------------------------------------------------------------

def holder_fit(traj: Trajectory, base=None, radii=None) -> dict:
    """Fit |F - F(base)| <= C d^sigma in the kinetic distance

        d = (1 + |v0|) |t - t0| + |x - x0| + |v - v0|

    by log-log regression of the sup over anisotropic neighborhoods of the
    listed radii.  Returns sigma, C, the regression R^2, and the per-radius
    sups; fewer than 3 radii is an error, and an identically flat field is
    reported degenerate.

    The sups are taken on the box of slices and cells that the largest
    radius reaches along each axis: it holds every node with d <= max(radii).
    """
    grid = traj.grid
    if base is None:
        base = (float(traj.times[-1]), (0.0,) * grid.dim, (0.0,) * grid.dim)
    t0, x0, v0 = base
    if radii is None:
        radii = [0.5 * 2.0**-j for j in range(6)]
    if len(radii) < 3:
        raise ValueError("holder fit needs at least 3 radii")

    it = traj.slice_index(t0)
    ix = [int(np.argmin(np.abs(grid.x_centers - c))) for c in np.atleast_1d(x0)]
    iv = [int(np.argmin(np.abs(grid.v_centers - c))) for c in np.atleast_1d(v0)]
    f0 = traj.values[(it,) + tuple(ix) + tuple(iv)]
    # distances are measured from the snapped node, consistently with f0
    t0 = float(traj.times[it])
    x0 = tuple(grid.x_centers[i] for i in ix)
    v0 = tuple(grid.v_centers[i] for i in iv)

    speed = 1.0 + float(np.linalg.norm(np.atleast_1d(v0)))
    # d is at least each of its terms, and a Euclidean norm at least each
    # coordinate's distance (to roundoff, hence the relative slack)
    reach = max(radii) * (1.0 + 1e-9)
    box = ((_centered_cells(traj.times - t0, reach / speed, 0),)
           + tuple(_centered_cells(grid.x_centers - c0, reach, 0) for c0 in x0)
           + tuple(_centered_cells(grid.v_centers - c0, reach, 0) for c0 in v0))
    xs, vs = grid.coords()
    # each coordinate array varies along its own axis only: cut it there
    cut = lambda c, ax: c[(slice(None),) * ax + (box[1 + ax],)]
    xs = tuple(cut(c, ax) for ax, c in enumerate(xs))
    vs = tuple(cut(c, grid.dim + ax) for ax, c in enumerate(vs))
    dist = speed * np.abs(traj.times[box[0]] - t0)
    dist = dist.reshape((-1,) + (1,) * 2 * grid.dim)
    dist = (dist + np.sqrt(sum((c - c0) ** 2 for c, c0 in zip(xs, x0)))
            + np.sqrt(sum((c - c0) ** 2 for c, c0 in zip(vs, v0))))
    dev = np.abs(traj.values[box] - f0)

    sups = []
    for r in radii:
        sel = dist <= r
        sups.append(float(dev[sel].max()) if sel.any() else math.nan)
    pairs = [(math.log10(r), math.log10(s))
             for r, s in zip(radii, sups) if s and s > 0 and np.isfinite(s)]
    if len(pairs) < 3:
        return {"sigma": math.nan, "C": math.nan, "r2": math.nan,
                "radii": list(radii), "sups": sups, "degenerate": True}
    slope, intercept, r2 = _line_fit(pairs)
    return {"sigma": float(slope), "C": 10.0**intercept, "r2": r2,
            "radii": list(radii), "sups": sups, "degenerate": False}


def modulus_from_constants(mu: float, omega: float, dim: int = 1) -> float:
    """The Hoelder exponent sigma = ln(mu) / ln(omega^2 / 27) > 0 of a zoom
    step with factor omega^2/27 that contracts the oscillation by mu."""
    _check_omega(omega, dim)
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    return math.log(mu) / math.log(omega * omega / 27.0)
