"""The in-place v-calculus and barrier integrands against the allocating
formulas they replaced, kept here as the references.

`grad_v_sq_density`, `cell_grad_v` / `faces_to_cells`, `face_divergence`,
`degiorgi._barrier_slices` and `BarrierSource.set_step` write into buffers
instead of building each intermediate array.  Each must equal its
reference bit for bit, the sign of every zero included: random signed
slices with exact zeros and -0.0, for N = 1 and N = 2, on a whole grid and
on a level window.
"""

import numpy as np
import pytest

from kfplab.coefficients import KeyedSampler, build_diffusion, build_source
from kfplab.degiorgi import BarrierSource, LevelPass, _barrier_slices
from kfplab.fields import Trajectory
from kfplab.geometry import (
    DyadicLevel,
    GridWindow,
    PhaseGrid,
    cell_grad_v,
    face_divergence,
    faces_to_cells,
    grad_v_sq_density,
)

# --- the allocating formulas ------------------------------------------------------


def _face_diff_reference(grid, values, axis):
    return np.diff(values, axis=axis) / grid.dv


def _faces_to_cells_reference(faces, axis):
    lead = (slice(None),) * (axis % faces.ndim)
    shape = list(faces.shape)
    shape[len(lead)] += 1
    half = 0.5 * faces
    cells = np.zeros(shape)
    cells[lead + (slice(None, -1),)] = half
    cells[lead + (slice(1, None),)] += half
    return cells


def _grad_v_sq_density_reference(grid, values):
    return sum(_faces_to_cells_reference(_face_diff_reference(grid, values, a) ** 2, a)
               for a in range(values.ndim - grid.dim, values.ndim))


def _cell_grad_v_reference(grid, values, ax):
    axis = values.ndim - grid.dim + ax
    return _faces_to_cells_reference(_face_diff_reference(grid, values, axis), axis)


def _face_divergence_reference(grid, comp, ax):
    s = np.moveaxis(comp, comp.ndim - grid.dim + ax, -1)
    flux = np.pad(0.5 * (s[..., :-1] + s[..., 1:]), [(0, 0)] * (s.ndim - 1) + [(1, 1)])
    return np.moveaxis(_face_diff_reference(grid, flux, -1), -1, comp.ndim - grid.dim + ax)


def _barrier_slices_reference(level, diffusion):
    win, source, dyadic = level.window, level.source, DyadicLevel(level.k)
    cells = win.grid
    c = dyadic.truncation
    eta_x, eta_v = dyadic.cutoffs(cells)
    vdot = dyadic.v_dot_grad_eta_x(cells)
    grad_eta_v = [cells.expand_v(g) for g in dyadic.grad_eta(cells, "v")]
    coefficients = KeyedSampler(diffusion, lambda t: diffusion.sample(cells, t))
    sample = None if source is None else KeyedSampler(
        source, lambda t: source.sample(cells, t))
    for i in range(win.n_slices):
        t = float(win.times[i])
        f = win.values[i]
        fk = np.maximum(f - c, 0.0)
        ind = f > c
        a_diag = coefficients(t)
        g = sample(t) if source is not None else 0.0
        cross = np.zeros(cells.shape)
        s2 = []
        for ax in range(cells.dim):
            cross += a_diag[ax] * _cell_grad_v_reference(cells, fk, ax) * grad_eta_v[ax]
            s2.append(-2.0 * eta_x * eta_v * fk * a_diag[ax] * grad_eta_v[ax])
        s1 = (g * ind * eta_x * eta_v**2
              + fk * eta_v**2 * vdot
              - 2.0 * eta_x * eta_v * cross)
        yield fk, s1, tuple(s2)


def _set_step_reference(source, n, times, prev, cur):
    w = (source.midpoint(n) - times[0]) / (times[1] - times[0])
    lerp = lambda a, b: (1.0 - w) * a + w * b
    out = np.empty(source.grid.shape)
    out[...] = lerp(prev[0], cur[0])
    for ax, (a, b) in enumerate(zip(prev[1], cur[1])):
        out += _face_divergence_reference(source.grid, lerp(a, b), ax)
    out *= source.dt
    return out


# --- the comparisons -----------------------------------------------------------------

def _same_bits(got, expected):
    """Equal values with equally signed zeros."""
    return (got.shape == expected.shape and np.array_equal(got, expected)
            and np.array_equal(np.signbit(got), np.signbit(expected)))


def _signed(rng, shape):
    """Random signed values, about a fifth of them +0.0 and a fifth -0.0."""
    values = rng.normal(size=shape)
    u = rng.random(shape)
    values[u < 0.2] = 0.0
    values[(u >= 0.2) & (u < 0.4)] = -0.0
    return values


def _grid(dim):
    n = 16 if dim == 1 else 7
    return PhaseGrid(dim, (-1.5, 0.0), 12, 1.5, n, 1.5, n)


CELLS = [(dim, where) for dim in (1, 2) for where in ("grid", "window")]


def _cells(dim, where):
    grid = _grid(dim)
    return grid if where == "grid" else GridWindow(grid, 1.0)


@pytest.mark.parametrize("dim,where", CELLS)
def test_v_calculus_is_the_allocating_formula_bit_for_bit(dim, where):
    cells = _cells(dim, where)
    rng = np.random.default_rng(dim)
    for _ in range(3):
        values = _signed(rng, cells.shape)
        out = np.full(cells.shape, np.nan)
        assert grad_v_sq_density(cells, values, out) is out
        assert _same_bits(out, _grad_v_sq_density_reference(cells, values))
        assert _same_bits(grad_v_sq_density(cells, values),
                          _grad_v_sq_density_reference(cells, values))
        for ax in range(dim):
            axis = dim + ax
            expected = _cell_grad_v_reference(cells, values, ax)
            assert _same_bits(cell_grad_v(cells, values, ax), expected)
            assert _same_bits(cell_grad_v(cells, values, ax, out), expected)
            faces = _signed(rng, values.shape[:axis] + (values.shape[axis] - 1,)
                            + values.shape[axis + 1:])
            expected = _faces_to_cells_reference(faces, axis)
            assert _same_bits(faces_to_cells(faces.copy(), axis), expected)
            expected = _face_divergence_reference(cells, values, ax)
            assert _same_bits(face_divergence(cells, values, ax), expected)
            assert _same_bits(face_divergence(cells, values, ax, out), expected)
        # the inputs are only read
        assert not np.isnan(values).any()


@pytest.mark.parametrize("dim,k", [(1, 0), (1, 1), (2, 0), (2, 1)])
@pytest.mark.parametrize("with_source", [True, False])
def test_barrier_slices_are_the_allocating_formula_bit_for_bit(dim, k, with_source):
    """Level 0's window is the whole grid, level 1's the cell box of B(1)^2
    with one more v cell.  The slices straddle every truncation height."""
    grid = _grid(dim)
    rng = np.random.default_rng(10 * dim + k)
    values = _signed(rng, (len(grid.times),) + grid.shape)
    traj = Trajectory(grid, grid.times, values)
    diffusion = build_diffusion(dim, 2.0, "cellwise_random", seed=3, low=0.6, high=1.6,
                                cell=0.25)
    source = build_source(dim, "noise", bound=0.3, seed=5) if with_source else None
    level = LevelPass(traj, k, source)
    assert (level.window.grid.shape == grid.shape) == (k == 0)
    count = nonzero = 0
    for got, expected in zip(_barrier_slices(level, diffusion),
                             _barrier_slices_reference(level, diffusion)):
        (fk, s1, s2), (fk_ref, s1_ref, s2_ref) = got, expected
        assert _same_bits(fk, fk_ref) and _same_bits(s1, s1_ref)
        assert len(s2) == len(s2_ref) == dim
        assert all(_same_bits(a, b) for a, b in zip(s2, s2_ref))
        count += 1
        nonzero += bool(s1_ref.any() and all(c.any() for c in s2_ref))
    assert count == level.window.n_slices
    assert nonzero == count


@pytest.mark.parametrize("dim,where", CELLS)
def test_set_step_is_the_allocating_formula_bit_for_bit(dim, where):
    cells = _cells(dim, where)
    rng = np.random.default_rng(20 + dim)
    source = BarrierSource(cells, -1.0, 0.125, 3)
    for n in range(3):
        # stored times around the midpoint, off its centre: the weight is not 1/2
        times = source.midpoint(n) + np.array([-0.03, 0.09])
        prev, cur = ((_signed(rng, cells.shape),
                      tuple(_signed(rng, cells.shape) for _ in range(dim)))
                     for _ in range(2))
        source.set_step(n, times, prev, cur)
        assert _same_bits(source.increments[n],
                          _set_step_reference(source, n, times, prev, cur)), n
