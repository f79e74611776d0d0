"""The barrier construction: F_k below its dominating solution G_k.

The truncated cutoff field F_k = f_k eta_k(x) eta_k(v)^2 satisfies the
equation with sources S1 + div_v S2 minus a positive defect, so the
solution G_k of the inflow boundary-value problem with those sources and
the same starting slice dominates it pointwise.  The sources, F_k and G_k
all live on the window of the level's pass (`LevelPass`): the slices from
T_{k-1} on the cell box of B(R_{k-1})^2, outside which each of them is
zero.  The comparison minimum below stays at roundoff-to-scheme scale.
"""

import numpy as np

from kfplab import PhaseField, PhaseGrid, WHOLE_SPACE, build_diffusion, \
    build_source, solve, solve_barrier_ibvp
from kfplab.degiorgi import LevelPass, build_barrier_sources, cutoff_fields
from kfplab.solver import comparison_check

grid = PhaseGrid(1, (-1.5, 0.0), 48, 1.5, 64, 1.5, 64)
rough = build_diffusion(1, 2.0, "cellwise_random", low=0.55, high=1.8,
                        cell=0.2, seed=3)
source = build_source(1, "bump", bound=0.5)
x = grid.x_centers[:, None]
v = grid.v_centers[None, :]
f0 = PhaseField(grid, -1.5, 1.1 * np.cos(np.pi * x / 1.5) * np.exp(-v**2 / 0.18))
traj = solve(f0, rough, source, 0.0, WHOLE_SPACE)

for k in (1, 2):
    # the barrier reads the level's pass: its window, its source and the
    # f_k norms the ladder budgets need
    level = LevelPass(traj, k, source)
    rep = build_barrier_sources(level, rough)
    barrier = solve_barrier_ibvp(rep.source, rough, k, initial=rep.initial)
    # F_k on the pass's window: slices from T_{k-1}, cells of B(R_{k-1})^2
    fk = np.array([f.copy() for f in cutoff_fields(level)])
    print(f"level k = {k}, window of {rep.initial.grid.shape} cells in {grid.shape}")
    print(f"  ||S1||_L2 = {rep.s1_l2:.4f}  (ladder budget {rep.s1_bound:.4f})")
    print(f"  ||S2||_L2 = {rep.s2_l2:.4f}  (ladder budget {rep.s2_bound:.4f})")
    print(f"  ||F_k||_inf = {np.abs(fk).max():.4f}, "
          f"||G_k||_inf = {np.abs(barrier.values).max():.4f}")
    print(f"  min(G_k - F_k) = {comparison_check(fk, barrier.values):.2e}")
