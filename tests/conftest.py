import math

import numpy as np
import pytest
from hypothesis import settings

from kfplab.coefficients import build_diffusion, build_source
from kfplab.fields import PhaseField, Trajectory
from kfplab.geometry import PhaseGrid
from kfplab.solver import WHOLE_SPACE, solve

settings.register_profile("suite", deadline=None, max_examples=30)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def grid64():
    """The desk-scale default grid covering Q[3/2]."""
    return PhaseGrid(1, (-1.5, 0.0), 48, 1.5, 64, 1.5, 64)


@pytest.fixture(scope="session")
def grid48():
    """Cell faces aligned with the unit cylinder (dx = 1/16, dt = 1/32)."""
    return PhaseGrid(1, (-1.5, 0.0), 48, 1.5, 48, 1.5, 48)


@pytest.fixture(scope="session")
def rough_run(grid64):
    """One checkerboard-coefficient solve shared by diagnostic tests."""
    diffusion = build_diffusion(1, 2.0, "checkerboard", values=(0.6, 1.5),
                                cell=0.25)
    source = build_source(1, "bump", bound=0.4)
    x = grid64.x_centers[:, None]
    v = grid64.v_centers[None, :]
    f0 = PhaseField(grid64, -1.5,
                    0.9 * np.cos(np.pi * x / 1.5) * np.exp(-v * v / 0.18))
    traj = solve(f0, diffusion, source, 0.0, WHOLE_SPACE)
    return {"trajectory": traj, "diffusion": diffusion, "source": source,
            "lam": 2.0}


def _padded_fftn_marginals(values, spacings, groups, pad, box):
    """The reference for `SpectralField.from_values`, by a complex fftn of
    every axis: `values` zero-extended to `box` and transformed at `pad`
    times its shape, |F|^2 summed over each group's other axes (divided by
    their padded lengths, Parseval) and folded to the half spectrum of the
    group's last axis the way `marginals` holds it, with |k|^2 from fftfreq."""
    full = np.zeros(box)
    full[tuple(slice(0, n) for n in values.shape)] = values
    shape = tuple(pad * n for n in box)
    power = np.abs(np.fft.fftn(full, s=shape, axes=range(full.ndim))) ** 2
    out = {}
    for name, axes in groups.items():
        others = tuple(ax for ax in range(values.ndim) if ax not in axes)
        marginal = power.sum(axis=others) / math.prod(shape[ax] for ax in others)
        sizes = [shape[ax] for ax in axes]
        half = sizes[-1] // 2 + 1
        j = np.arange(half)
        marginal = marginal[..., :half] * np.where((j == 0) | (2 * j == sizes[-1]),
                                                   1.0, 2.0) / math.prod(sizes)
        ks = [2.0 * np.pi * np.abs(np.fft.fftfreq(n) * n) / (spacings[ax] * n)
              for ax, n in zip(axes, sizes)]
        ks[-1] = ks[-1][:half]
        out[name] = (sum(k * k for k in np.ix_(*ks)), marginal)
    return out


def _check_against_padded_fftn(spec, values, spacings, groups, pad=2, box=None,
                               rel=1e-12):
    """Assert that `spec`, the `SpectralField` of `values`, holds the padded
    fftn's marginals (each entry within `rel` of the largest) and norms
    (within `rel`, orders 0, 1/3 and 1)."""
    box = values.shape if box is None else tuple(box)
    ref = _padded_fftn_marginals(np.asarray(values), spacings, groups, pad, box)
    cell_volume = math.prod(spacings)
    assert spec.marginals.keys() == ref.keys()
    for name, (k_sq, power) in ref.items():
        got_k_sq, got_power = spec.marginals[name]
        assert got_power.shape == power.shape, name
        assert np.allclose(got_k_sq, k_sq, rtol=1e-14, atol=0.0), name
        assert np.max(np.abs(got_power - power)) <= rel * np.max(power), name
        for s in (0.0, 1.0 / 3.0, 1.0):
            expect = math.sqrt(np.sum(k_sq**s * power) * cell_volume)
            assert spec.frac_norm(name, s) == pytest.approx(expect, rel=rel), (name, s)


@pytest.fixture(scope="session")
def padded_fftn_check():
    """`_check_against_padded_fftn`: a spectral field against an
    independent padded-fftn reference."""
    return _check_against_padded_fftn


@pytest.fixture(params=["c", "fortran", "strided"])
def laid_out(request):
    """How a trajectory's stored slices sit in memory: a function that gives
    the trajectory with the same values in C order (as solved), in Fortran
    order, or as every other entry of a last axis twice as long.  Every
    reduction sums each cell or slice in a buffer of its own, so no layout
    may change a bit of it."""
    layout = request.param

    def lay_out(traj):
        if layout == "c":
            return traj
        if layout == "fortran":
            values = np.asfortranarray(traj.values)
        else:
            shape = traj.values.shape
            values = np.zeros(shape[:-1] + (2 * shape[-1],))[..., ::2]
            values[...] = traj.values
        assert not values[0].flags.c_contiguous
        return Trajectory(traj.grid, traj.times, values, dt=traj.dt)

    return lay_out
