"""The stepping and zoom kernels against straightforward references: the
transport gathers against the column-shift gather they replaced, the
cyclic-reduction/Thomas diffusion against a dense solve, keyed coefficient
and source sampling against resampling every step, and the separable zoom
against `scipy.ndimage.map_coordinates`."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import kfplab
from kfplab.coefficients import DiffusionField, SourceField, build_diffusion, build_source
from kfplab.fields import PhaseField, Trajectory
from kfplab.geometry import PhaseGrid
from kfplab.holder import ScalingMap, ZoomSampler, zoom
from kfplab import solver
from kfplab.solver import (
    WHOLE_SPACE,
    _ImplicitDiffusion,
    _TransportPlan,
    _bc_mask,
    kinetic_ibvp,
    ring_mask,
    solve,
    solve_anchored,
    solve_barrier_ibvp,
)


# --- transport ---------------------------------------------------------------

def _shift_columns_reference(vals, d, periodic, cubic):
    """out[i, j] = vals[i - d[j], j] on 2-d (n, m) columns, padded reads of
    zero when not periodic."""
    n, m = vals.shape
    fi = np.arange(n)[:, None] - d[None, :]
    base = np.floor(fi).astype(np.int64)
    w = fi - base
    cols = np.broadcast_to(np.arange(m)[None, :], (n, m))
    if cubic:
        offs = (-1, 0, 1, 2)
        weights = (-w * (w - 1.0) * (w - 2.0) / 6.0,
                   (w * w - 1.0) * (w - 2.0) / 2.0,
                   -w * (w + 1.0) * (w - 2.0) / 2.0,
                   w * (w * w - 1.0) / 6.0)
    else:
        offs = (0, 1)
        weights = (1.0 - w, w)
    if periodic:
        gathered = [vals[(base + o) % n, cols] for o in offs]
    else:
        pad = 3
        vp = np.zeros((n + 2 * pad, m))
        vp[pad:pad + n] = vals
        top = n + 2 * pad - 1
        gathered = [vp[np.clip(base + o + pad, 0, top), cols] for o in offs]
    out = weights[0] * gathered[0]
    for wk, g in zip(weights[1:], gathered[1:]):
        out = out + wk * g
    return out


def _transport_reference(values, grid, tau, periodic, cubic):
    dim = grid.dim
    d_idx = grid.v_centers * tau / grid.dx
    out = values
    for ax in range(dim):
        v_ax = dim + ax
        moved = np.moveaxis(out, (ax, v_ax), (0, 1))
        rest = int(np.prod(moved.shape[2:], dtype=int))
        flat = moved.reshape(moved.shape[0], moved.shape[1] * rest)
        shifted = _shift_columns_reference(flat, np.repeat(d_idx, rest),
                                           periodic, cubic)
        out = np.moveaxis(shifted.reshape(moved.shape), (0, 1), (ax, v_ax))
    return out


@pytest.mark.parametrize("cubic", [False, True])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("dim,n_x,n_v", [(1, 24, 24), (1, 25, 23),
                                         (2, 8, 8), (2, 9, 7)])
def test_transport_plan_equals_column_shift_gather(dim, n_x, n_v, periodic, cubic):
    grid = PhaseGrid(dim, (-1.5, 0.0), 24, 1.5, n_x, 1.5, n_v)
    vals = np.random.default_rng(n_x + 10 * n_v).normal(size=grid.shape)
    for tau in (0.5 * grid.dt, 0.37 * grid.dt, -0.5 * grid.dt):
        plan = _TransportPlan(grid, tau, periodic, cubic)
        expected = _transport_reference(vals, grid, tau, periodic, cubic)
        assert np.array_equal(plan(vals), expected)


# --- diffusion ---------------------------------------------------------------

def _dense_diffusion(values, grid, coeffs, dt, active):
    """Backward Euler along each v axis by one dense solve per column."""
    r = dt / grid.dv**2
    out = values
    for ax in range(grid.dim):
        v_ax = grid.dim + ax
        f = np.moveaxis(out, v_ax, -1)
        a = np.moveaxis(coeffs[ax], v_ax, -1)
        live = (np.ones(f.shape, dtype=bool) if active is None
                else np.moveaxis(active, v_ax, -1))
        n = f.shape[-1]
        face = r * 2.0 * a[..., :-1] * a[..., 1:] / (a[..., :-1] + a[..., 1:])
        mat = np.zeros(f.shape + (n,))
        rows = np.arange(n)
        mat[..., rows, rows] = 1.0
        # row j couples to j + 1 (and j + 1 to j) through face j, if live
        for j in range(n - 1):
            up = np.where(live[..., j], face[..., j], 0.0)
            down = np.where(live[..., j + 1], face[..., j], 0.0)
            mat[..., j, j] += up
            mat[..., j, j + 1] -= up
            mat[..., j + 1, j + 1] += down
            mat[..., j + 1, j] -= down
        sol = np.linalg.solve(mat, f[..., None])[..., 0]
        out = np.moveaxis(sol, -1, v_ax)
    return out


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("dim,n", [(1, 16), (2, 7)])
def test_lapack_diffusion_matches_dense_solve(dim, n, masked):
    grid = PhaseGrid(dim, (-1.5, 0.0), 12, 1.5, n, 1.5, n + 1)
    a = build_diffusion(dim, 2.0, "cellwise_random", low=0.6, high=1.8,
                        cell=0.3, seed=4)
    coeffs = a.sample(grid, -0.7)
    active = _bc_mask(grid, kinetic_ibvp(1.0)) if masked else None
    vals = np.random.default_rng(n).uniform(-1.0, 2.0, grid.shape)
    dt = 4.0 * grid.dt
    out, residual = _ImplicitDiffusion(grid, dt, active)(vals, coeffs)
    expected = _dense_diffusion(vals, grid, coeffs, dt, active)
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert 0.0 <= residual <= 1.0
    if masked:
        assert np.array_equal(out[~active], vals[~active])


# one grid per cyclic-reduction depth: k stages until a Thomas block of 2^k
# v-rows holds 1024 cells or 2^k >= n_v
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("dim,n,depth", [(1, 24, 5), (1, 64, 4), (2, 13, 0), (2, 18, 0)])
def test_tridiagonal_plan_matches_dense_solve_at_each_depth(dim, n, depth, masked):
    grid = PhaseGrid(dim, (-1.5, 0.0), 12, 1.5, n, 1.5, n)
    a = build_diffusion(dim, 2.0, "cellwise_random", low=0.6, high=1.8,
                        cell=0.3, seed=4)
    coeffs = a.sample(grid, -0.7)
    active = _bc_mask(grid, kinetic_ibvp(1.0)) if masked else None
    vals = np.random.default_rng(n).uniform(-1.0, 2.0, grid.shape)
    dt = 4.0 * grid.dt
    plan = _ImplicitDiffusion(grid, dt, active)
    assert plan.depth == depth
    out, residual = plan(vals, coeffs)
    expected = _dense_diffusion(vals, grid, coeffs, dt, active)
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert 0.0 <= residual <= 1.0
    if masked:
        assert np.array_equal(out[~active], vals[~active])


def test_runtime_imports_no_scipy():
    src = str(Path(kfplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, kfplab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _always_refactor(monkeypatch):
    call = _ImplicitDiffusion.__call__

    def refactoring_call(self, values, coeffs):
        self.coeffs = None
        return call(self, values, coeffs)

    monkeypatch.setattr(_ImplicitDiffusion, "__call__", refactoring_call)


@pytest.mark.parametrize("kind,params", [
    ("checkerboard", dict(values=(0.6, 1.5), cell=0.25)),
    ("checkerboard", dict(values=(0.6, 1.5), cell=0.25, axes="txv")),
    ("cellwise_random", dict(low=0.6, high=1.6, cell=0.25)),
    ("oscillatory", dict(mid=1.0, amplitude=0.4, frequency=1.3)),
])
def test_factor_reuse_is_bit_identical_to_refactoring(monkeypatch, kind, params):
    grid = PhaseGrid(1, (-1.5, 0.0), 24, 1.5, 24, 1.5, 24)
    a = build_diffusion(1, 2.0, kind, seed=2, **params)
    g = build_source(1, "noise", bound=0.3, cell=0.25, seed=5)
    f0 = PhaseField.from_function(
        grid, -1.5, lambda x, v: np.sin(2 * np.pi * x / 3) * np.exp(-4 * v**2))
    reused = solve(f0, a, g, 0.0, WHOLE_SPACE)
    zeros = Trajectory.from_constant(grid, grid.times, 0.0)
    s1 = Trajectory.from_function(grid, grid.times,
                                  lambda t, x, v: np.exp(-4 * (x**2 + v**2)))
    start = PhaseField.constant(grid, -1.0, 0.0)
    barrier = solve_barrier_ibvp(s1, (zeros,), a, 1, start)
    _always_refactor(monkeypatch)
    assert np.array_equal(reused.values, solve(f0, a, g, 0.0, WHOLE_SPACE).values)
    assert np.array_equal(barrier.values,
                          solve_barrier_ibvp(s1, (zeros,), a, 1, start).values)


# 24 steps over (-1.5, 0); cellwise_random changes when the step midpoint
# enters another time cell (width 0.25, faces offset by 0.125)
_MIDPOINTS = -1.5 + (np.arange(24) + 0.5) / 16.0
_T_CELLS = len(np.unique(np.floor((_MIDPOINTS - 0.125) / 0.25)))


@pytest.mark.parametrize("kind,params,expected", [
    ("constant", dict(value=1.2), 1),
    ("checkerboard", dict(values=(0.6, 1.5), cell=0.25), 1),
    ("cellwise_random", dict(low=0.6, high=1.6, cell=0.25), _T_CELLS),
    ("oscillatory", dict(mid=1.0, amplitude=0.4, frequency=1.3), 24),
])
def test_factorizations_follow_coefficient_changes(monkeypatch, kind, params, expected):
    grid = PhaseGrid(1, (-1.5, 0.0), 24, 1.5, 24, 1.5, 24)
    a = build_diffusion(1, 2.0, kind, seed=2, **params)
    factor = _ImplicitDiffusion._factor
    calls = []

    def counted(self, ax, coeff):
        calls.append(ax)
        return factor(self, ax, coeff)

    monkeypatch.setattr(_ImplicitDiffusion, "_factor", counted)
    solve(PhaseField.constant(grid, -1.5, 0.3), a, None, 0.0, WHOLE_SPACE)
    assert len(calls) == expected


_KINDS = [
    ("constant", dict(value=1.2)),
    ("checkerboard", dict(values=(0.6, 1.5), cell=0.25)),
    ("checkerboard", dict(values=(0.6, 1.5), cell=0.25, axes="txv")),
    ("cellwise_random", dict(low=0.6, high=1.6, cell=0.25)),
    ("oscillatory", dict(mid=1.0, amplitude=0.4, frequency=1.3)),
]


@pytest.mark.parametrize("source_kind,source_params", [
    ("bump", dict()),
    ("noise", dict(cell=0.25)),
])
@pytest.mark.parametrize("kind,params", _KINDS)
def test_keyed_sampling_is_bit_identical_to_resampling(monkeypatch, kind, params,
                                                       source_kind, source_params):
    grid = PhaseGrid(1, (-1.5, 0.0), 24, 1.5, 24, 1.5, 24)
    a = build_diffusion(1, 2.0, kind, seed=2, **params)
    g = build_source(1, source_kind, bound=0.3, seed=5, **source_params)
    f0 = PhaseField.from_function(
        grid, -1.5, lambda x, v: np.sin(2 * np.pi * x / 3) * np.exp(-4 * v**2))
    zeros = Trajectory.from_constant(grid, grid.times, 0.0)
    s1 = Trajectory.from_function(grid, grid.times,
                                  lambda t, x, v: np.exp(-4 * (x**2 + v**2)))
    traj = solve(f0, a, g, 0.0, WHOLE_SPACE)
    # zooms with v0 = 0 (x fixed in s) and v0 != 0 (x drifts with s)
    zooms = [zoom(traj, ScalingMap(0.5, -0.2, (0.1,), (v0,)), a, g) for v0 in (0.0, 0.3)]

    def solves():
        return ([solve(f0, a, g, 0.0, WHOLE_SPACE),
                 solve_barrier_ibvp(s1, (zeros,), a, 1,
                                    PhaseField.constant(grid, -1.0, 0.0))]
                + [solve_anchored(z.data, z.diffusion, z.source) for z in zooms])

    keyed = solves()
    monkeypatch.setattr(DiffusionField, "time_key", lambda self, t: t)
    monkeypatch.setattr(SourceField, "time_key", lambda self, t: t)
    for got, expected in zip(keyed, solves()):
        assert np.array_equal(got.values, expected.values)


@pytest.mark.parametrize("dim,n", [(1, 24), (2, 8)])
def test_ledger_records_diffusion_residual_within_tolerance(dim, n):
    grid = PhaseGrid(dim, (-1.5, 0.0), 24, 1.5, n, 1.5, n)
    a = build_diffusion(dim, 2.0, "cellwise_random", low=0.6, high=1.6, cell=0.25)
    rng = np.random.default_rng(dim)
    f0 = PhaseField(grid, -1.5, rng.normal(size=grid.shape))
    ledgers = [solve(f0, a, None, 0.0, WHOLE_SPACE).ledger,
               solve(f0, a, None, 0.0, kinetic_ibvp(1.0)).ledger]
    for ledger in ledgers:
        assert len(ledger) == 25
        assert ledger[0]["diff_residual"] == 0.0
        for entry in ledger:
            assert 0.0 <= entry["diff_residual"] <= 1.0
        assert any(entry["diff_residual"] > 0.0 for entry in ledger)


def test_diffusion_residual_failure_raises(monkeypatch):
    grid = PhaseGrid(1, (-1.5, 0.0), 12, 1.5, 16, 1.5, 16)
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    rng = np.random.default_rng(0)
    f0 = PhaseField(grid, -1.5, rng.normal(size=grid.shape))

    exact_factor = _ImplicitDiffusion._factor

    def wrong_factor(self, ax, coeff):
        *factors, inv_diag, up = exact_factor(self, ax, coeff)
        inv_diag[0, 0] *= 1.01  # one wrong pivot: row 0 of column 0 is off
        return (*factors, inv_diag, up)

    monkeypatch.setattr(_ImplicitDiffusion, "_factor", wrong_factor)
    with pytest.raises(solver.SolverError):
        solve(f0, a, None, 0.0, WHOLE_SPACE)


# --- zoom --------------------------------------------------------------------

def _zoom_reference(traj, smap, zoom_grid):
    """map_coordinates(order=1, mode="nearest") at every zoom node."""
    grid = traj.grid
    out = np.empty((len(zoom_grid.times),) + zoom_grid.shape)
    ys, xis = zoom_grid.coords()
    for i, s in enumerate(zoom_grid.times):
        t, xs, vs = smap.apply_coords(float(s), ys, xis)
        coords = [np.full(zoom_grid.shape, (t - traj.times[0])
                          / (traj.times[1] - traj.times[0]))]
        coords += [np.broadcast_to((c + grid.x_max) / grid.dx - 0.5, zoom_grid.shape)
                   for c in xs]
        coords += [np.broadcast_to((c + grid.v_max) / grid.dv - 0.5, zoom_grid.shape)
                   for c in vs]
        out[i] = ndimage.map_coordinates(traj.values, np.stack(coords), order=1,
                                         mode="nearest")
    return out


@pytest.mark.parametrize("dim,n", [(1, 33), (1, 48), (2, 12), (2, 13)])
@pytest.mark.parametrize("smap_args", [
    (0.25**2 / 27, 0.0, 0.0, 0.0),
    (0.5, -0.2, 0.1, 0.3),
    (0.3, -0.1, -0.2, -0.5),
])
@pytest.mark.parametrize("output", ["zoom", "sampler_ring"])
def test_separable_zoom_matches_map_coordinates(dim, n, smap_args, output):
    eps, t0, x0, v0 = smap_args
    grid = PhaseGrid(dim, (-1.5, 0.0), 12, 1.5, n, 1.5, n)
    rng = np.random.default_rng(n)
    traj = Trajectory(grid, grid.times, rng.normal(size=(len(grid.times),) + grid.shape))
    a = build_diffusion(dim, 2.0, "constant", value=1.0)
    smap = ScalingMap(eps, t0, (x0,) * dim, (v0,) * dim)
    expected = _zoom_reference(traj, smap, grid.unit_scale())
    if output == "zoom":
        got = zoom(traj, smap, a, None).data.values
    else:
        # the ladder's sampler: the first slice whole from the referenced
        # index box, then the ring cells the anchored re-solve reads
        sampler = ZoomSampler(traj, smap)
        ring = ring_mask(sampler.grid)
        got = np.concatenate([sampler.whole(0).ravel()]
                             + [anchor[ring] for anchor in sampler.anchors()])
        expected = np.concatenate([expected[0].ravel()]
                                  + [later[ring] for later in expected[1:]])
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
