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
from kfplab.degiorgi import BarrierSource
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


def _lagrange(nodes, o, w):
    """The Lagrange basis polynomial of node `o` on `nodes`, at w."""
    out = np.ones_like(w)
    for q in nodes:
        if q != o:
            out = out * (w - q) / (o - q)
    return out


@pytest.mark.parametrize("cubic", [False, True])
@pytest.mark.parametrize("n_x,n_v", [(64, 64), (25, 23)])
def test_transport_pass_multiplies_each_mode_by_its_symbol(n_x, n_v, cubic):
    """One periodic pass on cos(k x), on every v row, is Re(S(k, v) e^{ikx})
    to roundoff.  Row v moves by s = v tau / dx cells; its foot i - s is
    node i + m plus the fraction w (m = floor(-s)), so the pass multiplies
    e^{ikx} by S = e^{ikm dx} sum_o L_o(w) e^{iko dx}, with L_o the Lagrange
    basis on the kernel's nodes: (0, 1) for the linear kernel, where S is
    e^{ikm dx} ((1 - w) + w e^{ik dx}) (measured from node i + m + 1, the
    form (1 - w') + w' e^{-ik dx} with w' = 1 - w), and (-1, 0, 1, 2) for
    the cubic one."""
    grid = PhaseGrid(1, (-1.5, 0.0), 48, 1.5, n_x, 1.5, n_v)
    tau = 0.5 * grid.dt
    plan = _TransportPlan(grid, tau, True, cubic)
    s = grid.v_centers * tau / grid.dx
    m = np.floor(-s)
    w = -s - m
    nodes = (-1, 0, 1, 2) if cubic else (0, 1)
    x = grid.x_centers
    for p in (1, 3, n_x // 4, n_x // 2 - 1):
        k = 2.0 * np.pi * p / (2.0 * grid.x_max)
        symbol = np.exp(1j * k * m * grid.dx) * sum(
            _lagrange(nodes, o, w) * np.exp(1j * k * o * grid.dx) for o in nodes)
        out = plan(np.repeat(np.cos(k * x)[:, None], n_v, axis=1))
        expected = np.real(symbol[None, :] * np.exp(1j * k * x)[:, None])
        # cos(k x) itself is rounded to about 1e-14 at k x ~ 100
        assert np.max(np.abs(out - expected)) <= 1e-13, p


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
    out, residual = _ImplicitDiffusion(grid, dt, active)(vals.copy(), coeffs)
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
    out, residual = plan(vals.copy(), coeffs)  # solves in place
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
    src = BarrierSource.from_trajectories(s1, (zeros,), -1.0)
    barrier = solve_barrier_ibvp(src, a, 1, start)
    _always_refactor(monkeypatch)
    assert np.array_equal(reused.values, solve(f0, a, g, 0.0, WHOLE_SPACE).values)
    assert np.array_equal(barrier.values, solve_barrier_ibvp(src, a, 1, start).values)


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
                 solve_barrier_ibvp(BarrierSource.from_trajectories(s1, (zeros,), -1.0),
                                    a, 1, PhaseField.constant(grid, -1.0, 0.0))]
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


# --- the lean step against the step it replaced -------------------------------
# The references below are the step's kernels as they were before the step
# plan kept each slice-sized array once: a fresh padded input and
# accumulator per transport pass, every factor array with a separate lower
# coupling and a copy of the upper one, and fresh arrays for every solve and
# residual.  They read the lean plan's gathers, columns and masks, so the
# comparison is of the arithmetic alone.

def _transport_call_reference(plan, values):
    out = values[plan.v_rows]
    for _, taps in plan.passes:
        if plan.periodic:
            flat = out.ravel()
        else:
            flat = np.empty(out.size + 1)
            flat[:-1].reshape(out.shape)[...] = out
            flat[-1] = 0.0
        (idx, w), *rest = taps
        acc = w * flat.take(idx)
        for idx, w in rest:
            acc += w * flat.take(idx)
        out = acc
    return out


def _v_first_reference(op, arr, ax):
    return np.ascontiguousarray(np.moveaxis(
        arr[op.columns[ax]], op.grid.dim + ax, 0)).reshape(op.grid.n_v, -1)


def _factor_reference(op, active, ax, a):
    a = _v_first_reference(op, a, ax)
    am = np.zeros_like(a)
    ap = np.zeros_like(a)
    har = 2.0 * a[:-1] * a[1:] / (a[:-1] + a[1:])
    am[1:] = har
    ap[:-1] = har
    diag = 1.0 + op.r * (am + ap)
    sub = -op.r * am
    sup = -op.r * ap
    if active is not None:
        dead = ~_v_first_reference(op, active, ax)
        diag = np.where(dead, 1.0, diag)
        sub = np.where(dead, 0.0, sub)
        sup = np.where(dead, 0.0, sup)
    lo, di, up = sub.copy(), diag.copy(), sup.copy()
    stages = []
    d = 1
    for _ in range(op.depth):
        alpha = -lo[d:] / di[:-d]
        gamma = -up[:-d] / di[d:]
        di[d:] += alpha * up[:-d]
        di[:-d] += gamma * lo[d:]
        lo[d:] = alpha * lo[:-d]
        up[:-d] = gamma * up[d:]
        stages.append((d, alpha, gamma))
        d *= 2
    n = len(di)
    mult = np.empty_like(di[d:])
    for j in range(d, n, d):
        e = min(j + d, n)
        mult[j - d:e - d] = lo[j:e] / di[j - d:e - d]
        di[j:e] -= mult[j - d:e - d] * up[j - d:e - d]
    return sub, diag, sup, stages, mult, 1.0 / di, up[:n - d]


def _solve_reference(rhs, stages, mult, inv_diag, up):
    x = rhs.copy()
    for d, alpha, gamma in stages:
        y = x.copy()
        y[d:] += alpha * x[:-d]
        y[:-d] += gamma * x[d:]
        x = y
    n, s = len(x), 1 << len(stages)
    for j in range(s, n, s):
        e = min(j + s, n)
        x[j:e] -= mult[j - s:e - s] * x[j - s:e - s]
    last = (n - 1) // s * s
    x[last:] *= inv_diag[last:]
    for j in range(last - s, -1, -s):
        e = min(j + s, n - s)
        x[j:e] -= up[j:e] * x[j + s:e + s]
        x[j:j + s] *= inv_diag[j:j + s]
    return x


def _diffusion_reference(op, active, values, coeffs):
    out = values
    worst = 0.0
    for ax, a in enumerate(coeffs):
        sub, diag, sup, *factors = _factor_reference(op, active, ax, a)
        v_ax = op.grid.dim + ax
        columns = op.columns[ax]
        rhs = _v_first_reference(op, out, ax)
        sol = _solve_reference(rhs, *factors)
        res = diag * sol
        res -= rhs
        res[1:] += sub[1:] * sol[:-1]
        res[:-1] += sup[:-1] * sol[1:]
        err = float(np.maximum(res.max(), -res.min()))
        tol = 1e-9 * (1.0 + float(np.maximum(rhs.max(), -rhs.min())))
        assert np.isfinite(err) and err <= tol
        worst = max(worst, err / tol)
        moved = np.moveaxis(out[columns], v_ax, 0).shape
        sol = np.moveaxis(sol.reshape(moved), 0, v_ax)
        if out is values:
            out = values.copy()
        out[columns] = sol
    return out, worst


def _pinned_reference(plan, inner, fill):
    if plan.active is None:
        return inner
    out = np.empty(plan.active.shape)
    out[...] = fill
    out[plan.inner] = np.where(plan.active[plan.inner], inner, out[plan.inner])
    return out


def _step_reference(plan, values, t, fill=0.0):
    t_mid = t + 0.5 * plan.dt
    out = _transport_call_reference(plan.transport, values)
    if plan.increment is not None:
        out = out + plan.increment(t_mid)[plan.inner]
    out = _pinned_reference(plan, out, fill)
    out, residual = _diffusion_reference(plan.implicit, plan.active, out,
                                         plan.coefficients(t_mid))
    return _pinned_reference(plan, _transport_call_reference(plan.transport, out),
                             fill), residual


_STEP_GRIDS = {
    # cyclic-reduction depth 5 on 24^2, 1 on 8^4 (512 cells per v slice) and
    # 0 on 13^4 (2197)
    "n1_24": (PhaseGrid(1, (-1.5, 0.0), 24, 1.5, 24, 1.5, 24), 5),
    "n2_8": (PhaseGrid(2, (-1.5, 0.0), 12, 1.5, 8, 1.5, 8), 1),
    "n2_13": (PhaseGrid(2, (-1.5, 0.0), 12, 1.5, 13, 1.5, 13), 0),
}


@pytest.mark.parametrize("with_source", [False, True])
@pytest.mark.parametrize("kind,params", [
    ("cellwise_random", dict(low=0.6, high=1.6, cell=0.25)),
    # refactored at every step
    ("oscillatory", dict(mid=1.0, amplitude=0.4, frequency=1.3)),
])
@pytest.mark.parametrize("problem", ["periodic", "kinetic_ibvp", "anchored"])
@pytest.mark.parametrize("interp", ["linear", "cubic"])
@pytest.mark.parametrize("name", sorted(_STEP_GRIDS))
def test_lean_step_is_bit_identical_to_reference(name, interp, problem, kind, params,
                                                 with_source):
    grid, depth = _STEP_GRIDS[name]
    dim = grid.dim
    a = build_diffusion(dim, 2.0, kind, seed=2, **params)
    g = build_source(dim, "noise", bound=0.3, cell=0.25, seed=5) if with_source else None
    rng = np.random.default_rng(len(name) + 7 * dim)
    dt = grid.dt
    fills = [0.0] * 4
    if problem == "anchored":
        cells = solver._anchored_cells(grid, interp)
        plan = solver._StepPlan(cells, a, g, dt, interp, False,
                                ~ring_mask(grid)[cells.box], solver._reduction_depth(grid))
        fills = [rng.uniform(-1.0, 1.0, cells.shape) for _ in fills]
        vals = rng.uniform(-1.0, 1.0, cells.shape)
    else:
        bc = WHOLE_SPACE if problem == "periodic" else kinetic_ibvp(1.0)
        plan = solver._bc_plan(grid, a, g, dt, bc, interp)
        vals = plan.restrict(rng.uniform(-1.0, 1.0, grid.shape))
    assert plan.implicit.depth == depth
    expected = vals.copy()
    for n, fill in enumerate(fills):
        t = -1.5 + n * dt
        expected, expected_res = _step_reference(plan, expected, t, fill)
        vals, res = plan.step(vals, t, fill)
        assert np.array_equal(vals, expected), n
        assert res == expected_res, n
    assert res > 0.0


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
