"""The dyadic truncation ladder on a rough-coefficient run.

The field is truncated at the rising heights C_k = (1 - 2^-k)/2 and the
cutoff-weighted energies U_k are measured on the shrinking cylinders
Q[R_k]; the ladder must be nonincreasing, and each level-set measure must
obey the Chebyshev bound 2^{2k+2} int f_{k-1}^2 (exact on the shared cell
quadrature, so the margin column is never negative).
"""

import numpy as np

from kfplab import PhaseField, PhaseGrid, WHOLE_SPACE, build_diffusion, \
    build_source, solve
from kfplab.degiorgi import LevelPass, chebyshev_audit, truncation_energy

grid = PhaseGrid(1, (-1.5, 0.0), 48, 1.5, 64, 1.5, 64)
rough = build_diffusion(1, 2.0, "checkerboard", values=(0.6, 1.5), cell=0.25)
source = build_source(1, "bump", bound=0.4)

x = grid.x_centers[:, None]
v = grid.v_centers[None, :]
f0 = PhaseField(grid, -1.5, 0.9 * np.cos(np.pi * x / 1.5) * np.exp(-v**2 / 0.18))
traj = solve(f0, rough, source, 0.0, WHOLE_SPACE)

print(" k      U_k        sup part   dissipation  |{f_k>0} n Q_{k-1}|")
# one pass per level gives every integral of f_k its audits read
passes = [LevelPass(traj, k) for k in range(5)]
reports = [truncation_energy(level, 2.0) for level in passes]
energies = [rep.energy for rep in reports]
for rep in reports:
    print(f" {rep.k}   {rep.energy:9.3e}  {rep.sup_term:9.3e}  {rep.dissipation_term:9.3e}"
          f"    {rep.level_set:9.3e}")
print("monotone:", all(b <= a + 1e-12 for a, b in zip(energies, energies[1:])))

print("\n k   measure     Chebyshev bound   margin")
for k in (1, 2, 3, 4):
    rep = chebyshev_audit(passes[k], energies[k - 1])
    print(f" {k}  {rep.measure:9.3e}   {rep.bound:9.3e}     {rep.margin:9.3e}")
