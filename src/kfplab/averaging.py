"""Fractional Sobolev norms from per-group marginal power spectra, and the
velocity-averaging estimate audit.

Fields compactly supported in a cylinder are zero-padded (factor 2 per
axis by default); the fractional derivative of order s along an axis group
(t, x or v) is the multiplier |2 pi m / L|^s on that group's integer
frequencies m, with L the padded box length and the zero mode mapped to
zero for s > 0.  By Parseval along the other axes, their padding changes
nothing: each norm is one weighted sum over the group's marginal power
spectrum, |F|^2 of the group's padded transform summed over the other
axes.  That marginal is taken by Wiener-Khinchin, never by transforming
the field: it is the transform of the group's circular autocorrelation

    R(tau) = sum over a, o of x(a, o) x(a + tau mod L, o),

a the group's cells and o the other axes' cells.  R is binned from the
group's Gram matrix over the other axes, which BLAS accumulates one
product per index of the first other axis, so the cost is one pass of
matrix products over the stored values plus a transform of the padded
group box alone.  Because the lags wrap modulo the padded lengths, the
result is the padded transform's for any padding, pad = 1 included, and
for a window inside a larger box.

Error model: each autocorrelation entry is a sum of products bounded by
R(0) = sum x^2, so every marginal entry carries an absolute rounding
error of order eps R(0), however small the entry, where the squared
transform's error shrank with the entry.  The norms, dominated by the
occupied modes, move at the level of eps relative; a mode with no power
may come out slightly negative, and `frac_norm` reads a weighted sum
that rounding drives to zero or below as 0.0.

Plancherel and the interpolation inequality

    ||D_v^{1/3} G|| <= ||G||^{2/3} ||D_v G||^{1/3}

are then exact identities of the discrete spectrum (Hoelder with exponents
3/2 and 3 on the marginal weights); the L2 norm is summed from the samples,
so Plancherel is checked against physical space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import Trajectory

__all__ = [
    "SpectralField",
    "frac_norm",
    "interpolation_audit",
    "AveragingEstimate",
    "averaging_estimate_audit",
    "velocity_average",
]


@dataclass
class SpectralField:
    """Marginal power spectra of a zero-padded (t, x, v) sample array.

    `marginals` maps "t" / "x" / "v" to (|k|^2, power) over the padded
    frequencies of that group's axes (the last axis holds the rfft half
    spectrum, its Hermitian weights folded into power); `fhat` concatenates
    every group's power.  Each power is the rfftn of the group's circular
    autocorrelation over its padded lengths (module docstring), exact up to
    an absolute rounding error of order eps * `l2_sq` per entry, so an
    empty mode may hold a tiny negative value.  `l2_sq` is the sum of
    squared samples and `cell_volume` the sample cell volume, so norms are
    grid L2 norms.
    """

    fhat: np.ndarray
    marginals: dict
    l2_sq: float
    cell_volume: float

    @classmethod
    def from_values(cls, values, spacings, groups, pad: int = 2,
                    warn_boundary: bool = True, box=None) -> "SpectralField":
        """Marginal spectra of a sample array with given per-axis spacings.

        Each group's axes, a run of consecutive axes, are zero-padded to
        `pad` times the shape of `box` (default: the array's own shape), the
        compact-support embedding.  A window of a larger box passes that
        box's shape: zero-extended, the window is a circular shift of the
        box's zero-extended field, so every marginal power spectrum is the
        box's.  Support touching the edge of the box triggers an aliasing
        warning; an axis shorter than the box is taken to lie inside it, as
        a level window's axes do.

        Only the marginals are kept, each the transform of the group's
        autocorrelation with its lags wrapped modulo the padded lengths
        (`_marginal_power`), exact for any `pad` and box; its error model
        is the module docstring's.  The Gram products read the values one
        index of the first axis outside the group at a time, and are added
        in axis order; `l2_sq` adds the sums of squares of the axis-0
        slices in order, each squared in one slice buffer.
        """
        values = np.asarray(values, dtype=float)
        box = values.shape if box is None else box
        if warn_boundary and values.size:
            scale = max(float(values.max()), -float(values.min()))
            if scale > 0:
                for ax in range(values.ndim):
                    if values.shape[ax] < box[ax]:
                        continue
                    edge = np.take(values, [0, values.shape[ax] - 1], axis=ax)
                    if np.max(np.abs(edge)) > 1e-10 * scale:
                        warnings.warn(
                            f"field support touches the box boundary on axis {ax}; "
                            "fractional norms may alias", stacklevel=2)
                        break
        marginals = {}
        for name, axes in groups.items():
            sizes = [pad * box[ax] for ax in axes]
            power = _marginal_power(values, axes, sizes)
            freqs = [np.arange(m) for m in power.shape]
            k_sq = sum(k * k for k in np.ix_(*[
                2.0 * np.pi * np.minimum(j, n - j) / (spacings[ax] * n)
                for ax, n, j in zip(axes, sizes, freqs)]))
            # the last axis holds the rfft half spectrum: every mode but the
            # zero and (even n) Nyquist ones also stands for its negative
            j, n = freqs[-1], sizes[-1]
            power *= np.where((j == 0) | (2 * j == n), 1.0, 2.0) / math.prod(sizes)
            marginals[name] = (k_sq, power)
        fhat = np.concatenate([power.ravel() for _, power in marginals.values()])
        l2_sq = 0.0
        squares = np.empty(values.shape[1:])
        for part in values:
            l2_sq += float(np.sum(np.multiply(part, part, out=squares)))
        return cls(fhat, marginals, l2_sq, float(np.prod(spacings)))

    @classmethod
    def from_trajectory(cls, traj: Trajectory, pad: int = 2,
                        warn_boundary: bool = True) -> "SpectralField":
        """Spectral field of a trajectory; the time axis is treated like the
        space axes (padded, one group of its own).  A trajectory on a
        `GridWindow` takes its spectra at its parent grid's padded lengths,
        which gives the spectra of its zero extension to that grid."""
        grid = traj.grid
        parent = getattr(grid, "parent", grid)
        dt_slice = float(traj.times[1] - traj.times[0])
        spacings = (dt_slice,) + (grid.dx,) * grid.dim + (grid.dv,) * grid.dim
        groups = {
            "t": (0,),
            "x": tuple(range(1, 1 + grid.dim)),
            "v": tuple(range(1 + grid.dim, 1 + 2 * grid.dim)),
        }
        return cls.from_values(traj.values, spacings, groups, pad=pad,
                               warn_boundary=warn_boundary,
                               box=(traj.n_slices,) + parent.shape)

    def l2_norm(self) -> float:
        """Grid L2 norm summed from the samples in physical space."""
        return math.sqrt(self.l2_sq * self.cell_volume)

    def frac_norm(self, group: str, s: float) -> float:
        """L2 norm of |2 pi k / L|^s applied along the axis group.

        s = 0 reproduces the field's L2 norm (Plancherel, to roundoff); s = 1 is
        the full first derivative along the group.  A weighted sum that
        rounding leaves at zero or below (an empty or all-zero spectrum,
        whose marginal entries carry errors of order eps * `l2_sq`) gives
        +0.0.
        """
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"fractional order must lie in [0, 1], got {s}")
        if group not in self.marginals:
            raise ValueError(f"unknown axis group {group!r}")
        k_sq, power = self.marginals[group]
        weight = k_sq**s  # 0^0 = 1: the zero mode survives only at s = 0
        total = float(np.sum(weight * power)) * self.cell_volume
        return math.sqrt(total) if total > 0.0 else 0.0


def _marginal_power(values, axes, sizes) -> np.ndarray:
    """The sum over the other axes of |rfftn(values)|^2 over the group's
    `axes`, zero-padded to `sizes`, by Wiener-Khinchin: the rfftn of

        R(tau) = sum of x(a, o) x(b, o) over the other axes' cells o and the
                 pairs of group cells a, b with b - a = tau modulo `sizes`,

    the circular autocorrelation of the zero-padded field summed over the
    other axes, real because R is even.

    The group's Gram matrix over the other axes is accumulated one BLAS
    product per index of the first axis outside the group, in axis order,
    on views of `values` reshaped to (cells before, group cells, cells
    after); an index whose strides allow no such view is copied, one at a
    time.  Its entries are then binned by lag in the order of the cell
    pairs."""
    shape = [values.shape[ax] for ax in axes]
    if tuple(axes) != tuple(range(axes[0], axes[0] + len(axes))):
        raise ValueError(f"an axis group must be a run of consecutive axes, got {axes}")
    if any(size < n for size, n in zip(sizes, shape)):
        raise ValueError(f"padded lengths {tuple(sizes)} are shorter than the "
                         f"group's axes {tuple(shape)}")
    cells = math.prod(shape)
    gram = np.zeros((cells, cells))
    others = [ax for ax in range(values.ndim) if ax not in axes]
    chunks = [values]
    if others:
        lead = (slice(None),) * others[0]
        chunks = [values[lead + (slice(j, j + 1),)] for j in range(values.shape[others[0]])]
    for chunk in chunks:
        rows = math.prod(chunk.shape[:axes[0]])
        after = math.prod(chunk.shape[axes[-1] + 1:])
        block = chunk.reshape(rows, cells, after)
        if after == 1:
            flat = block.reshape(rows, cells)
            gram += flat.T @ flat
        else:
            for part in block:
                gram += part @ part.T
    # the flat index of the lag (b - a) mod sizes of each pair (a, b) of
    # group cells, a and b in row-major order
    lag = np.zeros((1,) * (2 * len(axes)), dtype=np.intp)
    stride = 1
    for i in reversed(range(len(axes))):
        j = np.arange(shape[i])
        pair = [1] * (2 * len(axes))
        pair[i] = pair[len(axes) + i] = shape[i]
        lag = lag + ((j[None, :] - j[:, None]) % sizes[i] * stride).reshape(pair)
        stride *= sizes[i]
    corr = np.bincount(lag.ravel(), weights=gram.ravel(), minlength=stride)
    return np.ascontiguousarray(np.fft.rfftn(corr.reshape(sizes)).real)


def frac_norm(target, group: str, s: float, **kwargs) -> float:
    """Fractional derivative norm of a trajectory or spectral field."""
    if isinstance(target, SpectralField):
        return target.frac_norm(group, s)
    return SpectralField.from_trajectory(target, **kwargs).frac_norm(group, s)


def interpolation_audit(target, **kwargs):
    """Both sides of ||D_v^{1/3} G|| <= ||G||^{2/3} ||D_v G||^{1/3}.

    Exact on the discrete spectrum; returns (lhs, rhs).  Equality holds iff
    the v-frequency magnitude is constant on the spectrum's support.
    """
    sf = target if isinstance(target, SpectralField) else \
        SpectralField.from_trajectory(target, **kwargs)
    lhs = sf.frac_norm("v", 1.0 / 3.0)
    rhs = sf.l2_norm() ** (2.0 / 3.0) * sf.frac_norm("v", 1.0) ** (1.0 / 3.0)
    return lhs, rhs


@dataclass
class AveragingEstimate:
    lhs: float
    rhs_unit: float          # right-hand side evaluated with C_N = 1
    ratio: float             # lhs / rhs_unit; the fitted C_N for this field
    degenerate: bool


def averaging_estimate_audit(spectral: SpectralField, s1_l2: float, s2_l2: float,
                             lam: float, radius: float) -> AveragingEstimate:
    """Audit the hypoelliptic smoothing bound for a barrier field G:

        ||D_t^{1/3} G|| + ||D_x^{1/3} G||
            <= C_N [ ||G|| + (1+R)^{2/3} ||D_v G||^{2/3}
                              (||S2||^{1/3} + lam^{1/3} ||D_v G||^{1/3})
                   + (1+R)^{1/2} ||D_v G||^{1/2}
                              (||S1||^{1/2} + ||S2||^{1/2} + lam^{1/2} ||D_v G||^{1/2}) ].

    The constant C_N is never pinned by the theory; the ratio lhs/rhs(C_N=1)
    is the smallest constant making the bound hold for this field, and an
    ensemble of ratios estimates it empirically.
    """
    lhs = spectral.frac_norm("t", 1.0 / 3.0) + spectral.frac_norm("x", 1.0 / 3.0)
    g_l2 = spectral.l2_norm()
    dvg = spectral.frac_norm("v", 1.0)
    one_r = 1.0 + radius
    term_a = one_r ** (2.0 / 3.0) * dvg ** (2.0 / 3.0) * (
        s2_l2 ** (1.0 / 3.0) + lam ** (1.0 / 3.0) * dvg ** (1.0 / 3.0))
    term_b = one_r**0.5 * dvg**0.5 * (
        s1_l2**0.5 + s2_l2**0.5 + lam**0.5 * dvg**0.5)
    rhs_unit = g_l2 + term_a + term_b
    degenerate = rhs_unit <= 0.0
    ratio = math.nan if degenerate else lhs / rhs_unit
    return AveragingEstimate(lhs, rhs_unit, ratio, degenerate)


def velocity_average(traj: Trajectory, phi, pad: int = 2):
    """Velocity average rho(t, x) = int f phi(v) dv and its smoothing gain.

    `phi` is an array over the v box or a callable on v coordinates; it
    must be compactly supported inside the v range.  Returns a dict with
    the averaged array and the relative x-roughness of f versus rho
    (ratios of x-fractional norm to L2 norm); for transport data with L2
    sources the average is smoother in x than f, so gain > 1.
    """
    grid = traj.grid
    if callable(phi):
        phi_vals = np.asarray(
            phi(*(grid.axis_coord("v", ax) for ax in range(grid.dim))), dtype=float)
    else:
        phi_vals = np.asarray(phi, dtype=float)
    if phi_vals.shape != grid.v_shape:
        raise ValueError(f"phi shape {phi_vals.shape} does not match the v box "
                         f"{grid.v_shape}")
    edge = max(float(np.max(np.abs(np.take(phi_vals, [0, -1], axis=ax))))
               for ax in range(grid.dim))
    if edge > 1e-10 * max(1e-300, float(np.max(np.abs(phi_vals)))):
        raise ValueError("phi must be compactly supported inside the v range")

    v_axes = tuple(range(1 + grid.dim, 1 + 2 * grid.dim))
    weights = phi_vals.reshape((1,) * (1 + grid.dim) + grid.v_shape)
    avg = np.sum(traj.values * weights, axis=v_axes) * grid.dv**grid.dim

    dt_slice = float(traj.times[1] - traj.times[0])
    sf_full = SpectralField.from_trajectory(traj, pad=pad, warn_boundary=False)
    sf_avg = SpectralField.from_values(
        avg, (dt_slice,) + (grid.dx,) * grid.dim,
        {"t": (0,), "x": tuple(range(1, 1 + grid.dim))},
        pad=pad, warn_boundary=False)
    f_l2 = sf_full.l2_norm()
    a_l2 = sf_avg.l2_norm()
    rough_f = sf_full.frac_norm("x", 1.0 / 3.0) / f_l2 if f_l2 > 0 else math.nan
    rough_avg = sf_avg.frac_norm("x", 1.0 / 3.0) / a_l2 if a_l2 > 0 else math.nan
    gain = rough_f / rough_avg if rough_avg and not math.isnan(rough_avg) else math.nan
    return {
        "average": avg,
        "f_rel_roughness": rough_f,
        "avg_rel_roughness": rough_avg,
        "gain": gain,
        "avg_frac_norm": sf_avg.frac_norm("x", 1.0 / 3.0),
        "f_frac_norm": sf_full.frac_norm("x", 1.0 / 3.0),
    }
