"""Scalar fields on phase-space grids and their time-indexed trajectories."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import GeometryError, GridWindow, PhaseGrid

__all__ = ["PhaseField", "Trajectory"]


@dataclass
class PhaseField:
    """One time slice of a scalar field over the (x, v) cells of a grid."""

    grid: PhaseGrid
    t: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GeometryError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise GeometryError("field contains non-finite values")

    @classmethod
    def constant(cls, grid: PhaseGrid, t: float, value: float) -> "PhaseField":
        return cls(grid, t, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid, t, fn) -> "PhaseField":
        """Sample fn at cell centers. For dim=1 `fn(x, v)` with broadcast arrays;
        for dim=2 `fn(x1, x2, v1, v2)`."""
        xs, vs = grid.coords()
        vals = fn(*xs, *vs)
        return cls(grid, t, np.broadcast_to(vals, grid.shape).copy())

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.values**2) * self.grid.cell_volume))

    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.cell_volume)

    def copy(self) -> "PhaseField":
        return PhaseField(self.grid, self.t, self.values.copy())


@dataclass
class Trajectory:
    """A stored sequence of field slices at uniformly spaced times.

    `values` has shape (n_slices, *grid.shape).  Slices are written once by
    the solver and treated as immutable afterwards; the per-step ledger
    carries cheap L2/mass/extrema records for energy accounting.

    `dt` is the spacing of the stored slices, the width of every time cell
    a reader integrates over, set once by whoever makes the trajectory:
    the step of the solve that stored it, the parent's for a window or a
    map of one, and otherwise taken here: the first spacing of `times`, or
    the grid's `dt` when that spacing is `dt` up to roundoff, as it is on
    the grid's own times t0 + dt * arange, whose first spacing need not be
    `dt` in its last bits.
    """

    grid: PhaseGrid
    times: np.ndarray
    values: np.ndarray
    ledger: list = field(default_factory=list)
    dt: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.dt is None and len(self.times) > 1:
            spacing, step = float(self.times[1] - self.times[0]), self.grid.parent.dt
            self.dt = step if abs(spacing - step) <= 1e-9 * step else spacing
        if self.values.shape != (len(self.times),) + self.grid.shape:
            raise GeometryError(
                f"trajectory shape {self.values.shape} does not match "
                f"{(len(self.times),) + self.grid.shape}")

    @property
    def n_slices(self) -> int:
        return len(self.times)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    def slice_index(self, t: float) -> int:
        """Index of the stored slice nearest to t (t must be inside the span)."""
        if t < self.times[0] - 1e-9 or t > self.times[-1] + 1e-9:
            raise GeometryError(f"time {t} outside trajectory span "
                                f"[{self.times[0]}, {self.times[-1]}]")
        return int(np.argmin(np.abs(self.times - t)))

    def slice_at(self, t: float) -> int:
        """Index of the last stored slice at or before t, to 1e-9 (0 when t
        is before the first): the stored slice at a time the slices hold
        up to roundoff."""
        return max(int(np.searchsorted(self.times, t + 1e-9, side="right")) - 1, 0)

    def field(self, i: int) -> PhaseField:
        return PhaseField(self.grid, float(self.times[i]), self.values[i])

    def at_time(self, t: float) -> np.ndarray:
        """Values linearly interpolated in time (clamped to the span)."""
        times = self.times
        if t <= times[0]:
            return self.values[0]
        if t >= times[-1]:
            return self.values[-1]
        j = int(np.searchsorted(times, t)) - 1
        w = (t - times[j]) / (times[j + 1] - times[j])
        return (1.0 - w) * self.values[j] + w * self.values[j + 1]

    def window(self, t_start: float, radius: float) -> "Trajectory":
        """A read-only view of the stored slices from `slice_at(t_start)`,
        the last one at or before t_start up to roundoff, on the cells of
        `GridWindow(grid, radius)` (the grid may itself be a cell box).

        Every level-k audit vanishes outside Q_{k-1} = (T_{k-1}, 0] x
        B(R_{k-1})^2, so it reads only this window of the trajectory
        (`degiorgi.LevelPass`); the level-k barrier starts at its first
        slice, the stored slice at T_{k-1}, and is solved on its cells.
        """
        cells = GridWindow(self.grid, radius)
        i0 = self.slice_at(t_start)
        # both boxes index the parent grid; the view is cut from this one's
        box = tuple(slice(c.start - g.start, c.stop - g.start)
                    for c, g in zip(cells.box, self.grid.box))
        values = self.values[i0:][(slice(None),) + box]
        values.flags.writeable = False
        return Trajectory(cells, self.times[i0:], values, dt=self.dt)

    def map_values(self, fn) -> "Trajectory":
        """A new trajectory with fn applied slice-wise to the values."""
        return Trajectory(self.grid, self.times.copy(), fn(self.values), dt=self.dt)

    @classmethod
    def from_constant(cls, grid, times, value: float) -> "Trajectory":
        times = np.asarray(times, dtype=float)
        vals = np.full((len(times),) + grid.shape, float(value))
        return cls(grid, times, vals)

    @classmethod
    def from_function(cls, grid, times, fn) -> "Trajectory":
        """Sample fn(t, x..., v...) at slice times and cell centers."""
        times = np.asarray(times, dtype=float)
        xs, vs = grid.coords()
        slices = []
        for t in times:
            vals = fn(t, *xs, *vs)
            slices.append(np.broadcast_to(vals, grid.shape).copy())
        return cls(grid, times, np.stack(slices))
