"""Velocity averaging: fractional (t, x)-regularity bought with v-regularity.

Free-streaming data f(t, x, v) = profile(x - vt) stays rough in x for
every fixed v, but its velocity average mixes the phases and comes out
smoother: the relative x-roughness (fractional norm over L2 norm) drops.
On a barrier field the full estimate chain is audited: Plancherel, the
interpolation inequality, and the averaging bound with its fitted front
constant.
"""

import numpy as np

from kfplab import PhaseField, PhaseGrid, WHOLE_SPACE, build_diffusion, \
    build_source, solve, solve_barrier_ibvp
from kfplab.averaging import SpectralField, averaging_estimate_audit, \
    interpolation_audit, velocity_average
from kfplab.degiorgi import LevelPass, build_barrier_sources
from kfplab.fields import Trajectory
from kfplab.geometry import DyadicLevel

grid = PhaseGrid(1, (-1.0, 0.0), 16, 1.0, 32, 1.0, 32)
streaming = Trajectory.from_function(
    grid, grid.times,
    lambda t, x, v: np.tanh(np.sin(2 * np.pi * (x - v * t) / 2.0) / 0.1))
phi = np.maximum(1.0 - (grid.v_centers / 0.9) ** 2, 0.0) ** 2
out = velocity_average(streaming, phi)
print("free transport with a sharp x-profile:")
print(f"  relative x-roughness of f:         {out['f_rel_roughness']:.4f}")
print(f"  relative x-roughness of <f phi>:   {out['avg_rel_roughness']:.4f}")
print(f"  smoothing gain:                    {out['gain']:.3f}\n")

# the barrier field of a rough run, with the full spectral audit
big = PhaseGrid(1, (-1.5, 0.0), 48, 1.5, 64, 1.5, 64)
rough = build_diffusion(1, 2.0, "checkerboard", values=(0.6, 1.5), cell=0.25)
g = build_source(1, "bump", bound=0.5)
x = big.x_centers[:, None]
v = big.v_centers[None, :]
f0 = PhaseField(big, -1.5, 1.1 * np.cos(np.pi * x / 1.5) * np.exp(-v**2 / 0.18))
traj = solve(f0, rough, g, 0.0, WHOLE_SPACE)
# the sources and the barrier live on the window of the level-1 pass; its
# spectra are taken at the whole grid's padded lengths, so they are the
# spectra of G_1 zero-extended to the grid
rep = build_barrier_sources(LevelPass(traj, 1, g), rough)
barrier = solve_barrier_ibvp(rep.source, rough, 1, initial=rep.initial)

spec = SpectralField.from_trajectory(barrier, warn_boundary=False)
lhs, rhs = interpolation_audit(spec)
est = averaging_estimate_audit(spec, rep.s1_l2, rep.s2_l2, 2.0,
                               DyadicLevel(1).radius)
print("barrier field G_1:")
print(f"  Plancherel defect:                 {abs(spec.frac_norm('v', 0.0) - spec.l2_norm()):.2e}")
print(f"  interpolation audit:               {lhs:.5f} <= {rhs:.5f}")
print(f"  averaging estimate lhs/rhs(C_N=1): {est.ratio:.4f}  (the fitted C_N)")
