"""The anchored re-solve on its inner cell box, and transport on cell boxes.

`solver.solve_anchored` steps only the box of the cells its ring does not
pin, widened by the transport's reach, and assembles whole slices only for
the ones it keeps.  The reference below is the whole-grid step loop it
replaced, written out here: every cell of the grid is stepped, with the
ring pinned to the data at every new time level.  The re-solve must be
that loop bit for bit on N = 1 and N = 2, under linear and cubic
interpolation, with a coefficient that refactors every step, for every
`keep`, from stored data and from a zoom sampler.  Both bit-identity rules
of the box are exercised: on both grids the box alone would take a
deeper cyclic reduction than the whole grid, and its transport weights
differ from the whole grid's unless they are taken from the parent grid's
rows.
"""

import numpy as np
import pytest

from kfplab import solver
from kfplab.coefficients import build_diffusion, build_source
from kfplab.fields import Trajectory
from kfplab.geometry import GridWindow, PhaseGrid, dyadic_radius
from kfplab.holder import ScalingMap, ZoomSampler
from kfplab.solver import (_TransportPlan, _anchored_cells, _reduction_depth, kinetic_ibvp,
                           ring_mask, solve_anchored)


def _whole_grid_resolve(data: Trajectory, diffusion, source, interp):
    """Every slice of the anchored re-solve stepped on every cell of the
    grid: the ring is a Dirichlet band refilled from the data each step."""
    grid = data.grid
    times = data.times
    plan = solver._StepPlan(grid, diffusion, source, data.dt, interp,
                            False, ~ring_mask(grid))
    vals = data.values[0]
    out = [vals]
    for n in range(len(times) - 1):
        vals, _ = plan.step(vals, float(times[n]), data.values[n + 1])
        out.append(vals.copy())  # the plan's buffer, overwritten next step
    return np.stack(out)


GRIDS = {
    # the box alone would reduce one level deeper than the grid, 4 -> 5 on
    # 65^2 (65 and 63 cells per v slice) and 0 -> 1 on 11^4 (1331 and 729)
    "n1": PhaseGrid(1, (-1.5, 0.0), 49, 1.5, 65, 1.5, 65),
    "n2": PhaseGrid(2, (-1.5, 0.0), 12, 1.5, 11, 1.5, 11),
    # the benchmark's N = 2 grid; on it, as on 65^2, dx is no binary fraction
    # and box-local rows round the feet v tau/dx of unpinned rows otherwise
    # than the parent's rows (on 11^4 only those of a pinned row)
    "n2_18": PhaseGrid(2, (-1.5, 0.0), 18, 1.5, 18, 1.5, 18),
}


def _data(grid, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, size=(len(grid.times),) + grid.shape)
    return Trajectory(grid, grid.times, values)


def _fields(dim):
    diffusion = build_diffusion(dim, 2.0, "oscillatory", mid=1.0, amplitude=0.4,
                                frequency=3.0)
    return diffusion, build_source(dim, "noise", bound=0.3, seed=4, cell=0.25)


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("interp", ["linear", "cubic"])
@pytest.mark.parametrize("keep", [1, 2, None])
def test_boxed_resolve_is_the_whole_grid_loop(name, interp, keep):
    grid = GRIDS[name]
    diffusion, source = _fields(grid.dim)
    data = _data(grid, seed=grid.n_x)
    expected = _whole_grid_resolve(data, diffusion, source, interp)
    got = solve_anchored(data, diffusion, source, interp=interp, keep=keep)
    kept = len(data.times) if keep is None else keep
    assert np.array_equal(got.times, data.times[len(data.times) - kept:])
    assert np.array_equal(got.values, expected[len(expected) - kept:])


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("interp", ["linear", "cubic"])
@pytest.mark.parametrize("keep", [1, 2, None])
def test_boxed_resolve_from_a_sampler_is_the_whole_grid_loop(name, interp, keep):
    grid = GRIDS[name]
    dim = grid.dim
    diffusion, source = _fields(dim)
    smap = ScalingMap(0.3, -0.1, (0.05,) * dim, (0.2,) * dim)
    sampler = ZoomSampler(_data(grid, seed=10 + grid.n_x), smap, grid)
    data = Trajectory(grid, sampler.times.copy(),
                      np.stack([sampler.whole(i) for i in range(len(sampler.times))]),
                      dt=sampler.dt)
    a, g = diffusion.transformed(smap), source.transformed(smap, smap.eps**2)
    expected = _whole_grid_resolve(data, a, g, interp)
    got = solve_anchored(sampler, a, g, interp=interp, keep=keep)
    kept = len(data.times) if keep is None else keep
    assert np.array_equal(got.values, expected[len(expected) - kept:])


@pytest.mark.parametrize("keep", [1, None])
def test_resolve_carries_the_data_step(keep):
    # n2_18's step 1/12 is no binary fraction, so the first spacing of its
    # times is not the grid's step; a trajectory made from them carries the
    # grid's step, and a re-solve carries the step of its data, even when
    # that step is another and the re-solve keeps one slice, which has no
    # spacing
    grid = GRIDS["n2_18"]
    diffusion, source = _fields(grid.dim)
    data = _data(grid, seed=30)
    assert data.dt == grid.dt != float(grid.times[1] - grid.times[0])
    assert solve_anchored(data, diffusion, source, keep=keep).dt == grid.dt
    spaced = Trajectory(grid, data.times, data.values,
                        dt=float(grid.times[1] - grid.times[0]))
    assert solve_anchored(spaced, diffusion, source, keep=keep).dt == spaced.dt
    sampler = ZoomSampler(data, ScalingMap(0.3, 0.0, (0.0,) * 2, (0.0,) * 2), grid)
    assert sampler.dt == grid.dt
    assert solve_anchored(sampler, diffusion, source, keep=keep).dt == grid.dt


@pytest.mark.parametrize("name", ["n1", "n2"])
def test_anchored_box_and_its_rules(name):
    grid = GRIDS[name]
    dim = grid.dim
    ring = ring_mask(grid)
    linear = _anchored_cells(grid, "linear")
    # the box drops one cell of the ring at each end of every axis
    assert linear.box == (slice(1, grid.n_x - 1),) * dim + (slice(1, grid.n_v - 1),) * dim
    assert not ring[linear.box].all() and ring[linear.box].any()
    outside = ring.copy()
    outside[linear.box] = False
    assert outside.sum() == ring.size - np.prod(linear.shape)
    # under cubic the reach is the whole ring
    assert _anchored_cells(grid, "cubic").shape == grid.shape
    assert _reduction_depth(linear) == _reduction_depth(grid) + 1


@pytest.mark.parametrize("name", ["n1", "n2"])
def test_sampler_anchors_on_a_box_are_the_whole_rings(name):
    grid = GRIDS[name]
    dim = grid.dim
    sampler = ZoomSampler(_data(grid, seed=20 + grid.n_x),
                          ScalingMap(0.3, -0.1, (0.05,) * dim, (0.2,) * dim), grid)
    cells = _anchored_cells(grid, "linear")
    pinned = ring_mask(grid)[cells.box]
    for whole, boxed in zip(sampler.anchors(), sampler.anchors(cells.box)):
        assert boxed.shape == cells.shape
        assert np.array_equal(boxed[pinned], whole[cells.box][pinned])
        assert not boxed[~pinned].any()


# --- transport on a level window ------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("interp", ["linear", "cubic"])
def test_window_transport_is_the_whole_grids_bit_for_bit(k, interp):
    """One half-step of the N = 2 barrier transport on the level window
    equals the whole grid's on every cell of the ball, where the barrier
    lives; outside it both are pinned to zero.  With the window's own rows
    the linear half-step differed on most ball cells of this grid."""
    grid = PhaseGrid(2, (-1.5, 0.0), 18, 1.5, 18, 1.5, 18)
    radius = dyadic_radius(k - 1)
    cells = GridWindow(grid, radius)
    ball = solver._bc_mask(grid, kinetic_ibvp(radius))
    rng = np.random.default_rng(k)
    values = np.where(ball, rng.uniform(-1.0, 1.0, size=grid.shape), 0.0)
    tau = 0.5 * grid.dt
    cubic = interp == "cubic"
    whole = _TransportPlan(grid, tau, False, cubic)(values)
    window = _TransportPlan(cells, tau, False, cubic)(values[cells.box])
    inside = ball[cells.box]
    assert inside.sum() == ball.sum()
    assert np.array_equal(window[inside], whole[cells.box][inside])
