"""The smallness gate: int f_+^2 below kappa forces f <= 1/2 inside.

The assembled threshold kappa is astronomically small (its log10 is about
-1283 for lam = 2, gamma = 1), so it lives in log space and the gate's
theory branch is exercised only by nonpositive data.  The scientific
content sits in the empirical threshold: the largest premise integral whose
run still lands below 1/2 on Q[1/2].  The scheme is affine in the initial
data, so the run at amplitude a is run(a0) + (a - a0) run(1) here (no
source), and the largest passing amplitude is one minimum over the nodes of
Q[1/2].  The assembled threshold must sit (far) below it.
"""

import numpy as np

from kfplab import PhaseField, PhaseGrid, WHOLE_SPACE, build_diffusion, \
    build_source, solve
from kfplab.degiorgi import IterationConstants, empirical_kappa, kappa_log10, \
    linfty_gate

grid = PhaseGrid(1, (-1.5, 0.0), 48, 1.5, 64, 1.5, 64)
rough = build_diffusion(1, 2.0, "checkerboard", values=(0.6, 1.5), cell=0.25)
no_source = build_source(1, "zero")

consts = IterationConstants(1, 2.0, 0.0, q=np.inf)
kl = kappa_log10(consts)
print(f"alpha = {consts.alpha:.6f}, recursion exponent 2a/(a-1)^2 = "
      f"{2 * consts.alpha / (consts.alpha - 1) ** 2:.1f}")
print(f"c = {consts.c_const:.3f}, C = {consts.big_c:.1f}, rho = {consts.rho:.3e}")
print(f"log10 kappa_assembled = {kl:.2f}\n")

x = grid.x_centers[:, None]
v = grid.v_centers[None, :]
profile = np.cos(np.pi * x / 1.5) * np.exp(-4 * v**2)

def run_at(amp):
    return solve(PhaseField(grid, -1.5, amp * profile), rough, no_source,
                 0.0, WHOLE_SPACE)

main = run_at(0.4)
gate = linfty_gate(main, kl)
print(f"amplitude 0.4: premise integral 1e{gate.premise_log10:.2f}, "
      f"sup over Q[1/2] = {gate.conclusion_sup:.4f}, "
      f"implication holds: {gate.implication_holds}")

kappa_emp, amp = empirical_kappa(main, run_at(1.0), 0.4)
print(f"\nclosed form from two solves: conclusion holds up to amplitude {amp:.6f}")
print(f"log10 kappa_emp = {kappa_emp:.6f}")
print(f"margin over the assembled threshold: {kappa_emp - kl:.0f} decades of headroom "
      "(the theorem's condition is sufficient, never sharp)")
