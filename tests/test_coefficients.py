import numpy as np
import pytest

from kfplab.coefficients import (
    CoefficientError,
    build_diffusion,
    build_source,
    hash_uniform,
    source_lq_norm,
    validate_ellipticity,
)
from kfplab.geometry import PhaseGrid, make_cylinder
from kfplab.holder import ScalingMap


@pytest.fixture(scope="module")
def grid():
    return PhaseGrid(1, (-1.5, 0.0), 16, 1.5, 32, 1.5, 32)


# --- construction ------------------------------------------------------------

def test_constant_identity_valid(grid):
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    cert = validate_ellipticity(a, grid, n_random=64)
    assert cert.passed
    assert cert.margin == pytest.approx(0.5, abs=1e-12)


def test_checkerboard_values_within_band(grid):
    a = build_diffusion(1, 2.0, "checkerboard", values=(0.6, 1.5), cell=0.25)
    cert = validate_ellipticity(a, grid, n_random=128)
    assert cert.passed
    # eigenvalue oracle: sampled quadratic forms stay inside [0.5, 2]
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.5, 1.5, size=(200, 3))
    vals = a.scalar(pts[:, 0], pts[:, 1], pts[:, 2])
    assert vals.min() >= 0.5 and vals.max() <= 2.0


def test_out_of_band_random_rejected():
    with pytest.raises(CoefficientError):
        build_diffusion(1, 2.0, "cellwise_random", low=0.4, high=2.0, cell=0.25)


def test_lambda_must_exceed_one():
    with pytest.raises(CoefficientError):
        build_diffusion(1, 1.0, "constant", value=1.0)


def test_validator_catches_mutated_field(grid):
    a = build_diffusion(1, 2.0, "constant", value=1.0)
    a.params["value"] = 2.5   # sneak past the build-time check
    cert = validate_ellipticity(a, grid, n_random=16)
    assert not cert.passed
    assert all(v[3] < 0 for v in cert.violations)   # upper bound broken everywhere


def test_checkerboard_is_discontinuous():
    a = build_diffusion(1, 2.0, "checkerboard", values=(0.6, 1.5), cell=0.25)
    # faces sit at offset + j*cell = 0.125 + 0.25 j; straddle one of them
    lo = a.scalar(0.0, 0.1249, 0.0)
    hi = a.scalar(0.0, 0.1251, 0.0)
    assert abs(float(hi) - float(lo)) == pytest.approx(0.9, abs=1e-12)


def test_seeded_builds_bit_reproducible(grid):
    pts = np.random.default_rng(0).uniform(-1.5, 1.5, size=(64, 3))
    a1 = build_diffusion(1, 2.0, "cellwise_random", low=0.6, high=1.8,
                         cell=0.2, seed=42)
    a2 = build_diffusion(1, 2.0, "cellwise_random", low=0.6, high=1.8,
                         cell=0.2, seed=42)
    a3 = build_diffusion(1, 2.0, "cellwise_random", low=0.6, high=1.8,
                         cell=0.2, seed=43)
    v1 = a1.scalar(pts[:, 0], pts[:, 1], pts[:, 2])
    v2 = a2.scalar(pts[:, 0], pts[:, 1], pts[:, 2])
    v3 = a3.scalar(pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, v3)
    assert v1.min() >= 0.6 and v1.max() <= 1.8


def test_hash_uniform_is_pure_and_in_range():
    idx = np.arange(1000)
    u1 = hash_uniform(7, idx, idx * 3)
    u2 = hash_uniform(7, idx, idx * 3)
    assert np.array_equal(u1, u2)
    assert u1.min() >= 0.0 and u1.max() < 1.0
    assert abs(u1.mean() - 0.5) < 0.05


# --- dim 2 -------------------------------------------------------------------

def test_dim2_diagonal_fields_only():
    grid2 = PhaseGrid(2, (-1.0, 0.0), 8, 1.0, 8, 1.0, 8)
    diag = build_diffusion(2, 2.0, "checkerboard", values=(0.7, 1.4), cell=0.3)
    cert = validate_ellipticity(diag, grid2, n_random=32)
    assert cert.passed
    # every field is diagonal: a full symmetric kind is not offered
    with pytest.raises(CoefficientError, match="unknown diffusion kind"):
        build_diffusion(2, 2.0, "clamped_symmetric", cell=0.3,
                        low=0.6, high=1.8, seed=5)


def _ellipticity_reference(A, grid, n_random, seed=0):
    """(margin, violations) from one eigenvalue solve per check point: the
    strided grid nodes at three times, then `n_random` points drawn one
    coordinate at a time."""
    times = [grid.t_span[0], 0.5 * (grid.t_span[0] + grid.t_span[1]), grid.t_span[1]]
    stride = max(1, grid.n_x // 16)
    pts = [(t, (x,) * A.dim, (v,) * A.dim) for t in times
           for x in grid.x_centers[::stride] for v in grid.v_centers[::stride]]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        t = rng.uniform(*grid.t_span)
        x = tuple(rng.uniform(-grid.x_max, grid.x_max, A.dim))
        v = tuple(rng.uniform(-grid.v_max, grid.v_max, A.dim))
        pts.append((t, x, v))
    margin, violations = np.inf, []
    for t, x, v in pts:
        m = np.diag([float(np.asarray(d).reshape(())) for d in A.diagonal(t, x, v)])
        eig = np.linalg.eigvalsh(m)
        pt_margin = min(float(eig.min() - 1.0 / A.lam), float(A.lam - eig.max()))
        margin = min(margin, pt_margin)
        if pt_margin < -1e-12:
            violations.append((t, x, v, pt_margin))
    return margin, violations[:16]


def _fields(dim):
    fields = {
        "constant": build_diffusion(dim, 2.0, "constant", value=1.3),
        "checkerboard": build_diffusion(dim, 2.0, "checkerboard", values=(0.6, 1.5),
                                        cell=0.25, axes="txv"),
        "cellwise_random": build_diffusion(dim, 2.0, "cellwise_random", low=0.55,
                                           high=1.8, cell=0.2, seed=4),
        "oscillatory": build_diffusion(dim, 2.0, "oscillatory", mid=1.0,
                                       amplitude=0.5, frequency=1.5),
    }
    fields["zoomed"] = fields["cellwise_random"].transformed(
        ScalingMap(0.5, -0.2, (0.1,) * dim, (0.3,) * dim))
    fields["mutated"] = build_diffusion(dim, 2.0, "constant", value=1.0)
    fields["mutated"].params["value"] = 2.5       # out of band everywhere
    fields["mutated_partly"] = build_diffusion(dim, 2.0, "cellwise_random", low=0.6,
                                               high=1.8, cell=0.2, seed=7)
    fields["mutated_partly"].params["high"] = 2.4  # out of band on some cells
    return fields


@pytest.mark.parametrize("dim", [1, 2])
def test_validator_matches_pointwise_eigenvalues(dim):
    grid = PhaseGrid(dim, (-1.5, 0.0), 8, 1.5, 20 if dim == 1 else 8,
                     1.5, 20 if dim == 1 else 8)
    for name, field in _fields(dim).items():
        cert = validate_ellipticity(field, grid, n_random=64, seed=3)
        margin, violations = _ellipticity_reference(field, grid, 64, seed=3)
        assert cert.margin == margin, name
        assert cert.violations == violations, name
        assert cert.passed == (not violations), name
        assert cert.passed == (not name.startswith("mutated")), name


# --- sources -----------------------------------------------------------------

def test_zero_source(grid):
    g = build_source(1, "zero")
    assert np.all(g.sample(grid, -1.0) == 0.0)


def test_constant_source_norms(grid):
    g = build_source(1, "constant", bound=1.0, value=1.0)
    assert source_lq_norm(g, grid, q=np.inf) == pytest.approx(1.0, abs=1e-12)
    # ||g||_{L2(Q[3/2])} = sqrt(measure) with the measure from the geometry module
    expect = np.sqrt(make_cylinder(1.5, 1).measure)
    assert source_lq_norm(g, grid, q=2.0) == pytest.approx(expect, rel=1e-12)


def test_clamped_noise_respects_bound(grid):
    g = build_source(1, "noise", bound=0.3, cell=0.2, seed=9)
    for t in (-1.5, -0.7, 0.0):
        sample = g.sample(grid, t)
        assert np.max(np.abs(sample)) <= 0.3 + 1e-15


def test_bump_source_supported_inside(grid):
    g = build_source(1, "bump", bound=0.5, amplitude=0.5, x_radius=1.0,
                     v_radius=1.0)
    s = g.sample(grid, -0.5)
    outside = grid.expand_x(grid.rho_x >= 1.0) | grid.expand_v(grid.rho_v >= 1.0)
    assert np.all(s[outside] == 0.0)
    assert s.max() == pytest.approx(0.5, abs=1e-12)


def test_unknown_kinds_rejected():
    with pytest.raises(CoefficientError):
        build_diffusion(1, 2.0, "wavelet")
    with pytest.raises(CoefficientError):
        build_source(1, "spike")


# --- time keys ---------------------------------------------------------------

# untransformed, a zoom with v0 = 0 (x fixed in s), a zoom with v0 != 0
# (x drifts with s)
_TRANSFORMS = {
    "none": None,
    "zoom_v0_zero": ScalingMap(0.5, -0.2, (0.1,), (0.0,)),
    "zoom_v0_drift": ScalingMap(0.5, -0.2, (0.1,), (0.3,)),
}


def _key_form(key, t):
    if key is None:
        return "none"
    if isinstance(key, int):
        return "cell"
    assert key == t
    return "t"


def _assert_keys_match_samples(field, sample, expected_form):
    times = list(np.linspace(-1.5, 0.0, 61)) + list(-1.5 + (np.arange(24) + 0.5) / 16)
    by_key = {}
    for t in times:
        key = field.time_key(t)
        assert _key_form(key, t) == expected_form
        by_key.setdefault(key, []).append(sample(t))
    for samples in by_key.values():
        for other in samples[1:]:
            assert other == samples[0]  # bit-equal bytes
    if expected_form == "cell":
        assert len(by_key) > 1


@pytest.mark.parametrize("transform", list(_TRANSFORMS))
@pytest.mark.parametrize("kind,params,forms", [
    ("constant", dict(value=1.2), ("none", "none", "none")),
    ("checkerboard", dict(values=(0.6, 1.5), cell=0.25), ("none", "none", "t")),
    ("checkerboard", dict(values=(0.6, 1.5), cell=0.25, axes="txv"), ("cell", "cell", "t")),
    ("cellwise_random", dict(low=0.6, high=1.6, cell=0.25), ("cell", "cell", "t")),
    ("oscillatory", dict(mid=1.0, amplitude=0.4, frequency=1.3), ("t", "t", "t")),
])
def test_diffusion_time_key_repeats_only_with_its_samples(grid, kind, params, forms,
                                                           transform):
    a = build_diffusion(1, 2.0, kind, seed=2, **params)
    if _TRANSFORMS[transform] is not None:
        a = a.transformed(_TRANSFORMS[transform])

    def sample(t):
        return b"".join(np.broadcast_to(c, grid.shape).tobytes()
                        for c in a.diagonal(t, *grid.coords()))

    _assert_keys_match_samples(a, sample, dict(zip(_TRANSFORMS, forms))[transform])


@pytest.mark.parametrize("transform", list(_TRANSFORMS))
@pytest.mark.parametrize("kind,params,forms", [
    ("zero", dict(), ("none", "none", "none")),
    ("constant", dict(value=0.2), ("none", "none", "none")),
    ("bump", dict(amplitude=0.3, x_radius=1.0, v_radius=1.0), ("none", "none", "t")),
    ("noise", dict(cell=0.25), ("cell", "cell", "t")),
])
def test_source_time_key_repeats_only_with_its_samples(grid, kind, params, forms,
                                                        transform):
    g = build_source(1, kind, bound=0.3, seed=5, **params)
    if _TRANSFORMS[transform] is not None:
        g = g.transformed(_TRANSFORMS[transform], 0.25)
    _assert_keys_match_samples(g, lambda t: g.sample(grid, t).tobytes(),
                               dict(zip(_TRANSFORMS, forms))[transform])
