import numpy as np
import pytest
from hypothesis import settings

from kfplab.coefficients import build_diffusion, build_source
from kfplab.fields import PhaseField
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
