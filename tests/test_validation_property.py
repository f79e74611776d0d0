"""Total validation: every configuration either fails `validate()` with a
ConfigError or runs to a complete manifest."""

import math

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from kfplab.config import ConfigError, parse_config
from kfplab.pipeline import CSV_COLUMNS, manifest_text, run_pipeline


# each constant key: the values `validate()` accepts on the default config,
# then those it rejects (lambda = 1.5 leaves the default coefficient band)
CONSTANTS = {
    "diagnostics.beta": ([1e-300, 0.01, 0.5], [-1.0, 0.0]),
    "diagnostics.gamma": ([0.0, 1.0, 1e300], [-100.0]),
    "diagnostics.c_n": ([0.0, 1.0, 1e300], [-5.0]),
    "diagnostics.k_s": ([1.0], [-1.0, 0.0]),
    "diagnostics.a": ([1.0, 2.0], [0.0]),
    "diagnostics.alpha_iso": ([0.05, 1.0], [1e-9, 1e-3]),
    "coeff.lambda": ([2.0, 1e80, 1e300], [1.5]),
    # R_{k-1} = R_k in float64 from k = 54 on: an empty cutoff annulus
    "diagnostics.levels": ([2, 53], [54, 60, 520]),
    "diagnostics.barrier_levels": (["1, 2", "1, 53"], ["1, 60"]),
    "initial.amplitude": ([0.4, 3.0, -1e100], [math.nan, math.inf, 1e308]),
    "source.bound": ([0.3, 1.0, 1e100], [-1.0, math.inf, math.nan, 1e308]),
    "coeff.frequency": ([1.0, 2.5], [math.inf, math.nan]),
    "coeff.cell": ([0.25, 0.6], [0.0, -0.25, math.inf]),
    "source.cell": ([0.25, 0.1], [0.0, math.nan]),
    "diagnostics.holder_radii": (["0.4, 0.2, 0.1"], ["0.4, 0.2, inf", "0.4, nan, 0.1"]),
}


@st.composite
def configs(draw):
    """One config.  Three draws in four take each value from those that
    `validate()` accepts on its own, so that most draws run the pipeline to
    a manifest; the fourth draws from every value, rejected ones included."""
    free = draw(st.integers(0, 3)) == 3
    dim = draw(st.sampled_from([1, 2]))
    n_max = 24 if dim == 1 else 11
    # odd n puts a cell centre at the origin, inside every Q[omega/2]
    odd = st.integers(2, (n_max - 1) // 2).map(lambda m: 2 * m + 1)
    n = draw(st.integers(4, n_max) if free else odd)
    n_t_max = 48 if dim == 1 else 24
    # U_0's time window starts at T_0 = -1: t_min = -0.9 is rejected
    t_min = draw(st.sampled_from([-1.5, -1.0] + ([-1.25, -0.9] if free else [])))
    # multiples of 6 (of 4 from t_min = -1) from n up put T_0 = -1 and T_1
    # on stored slices and meet the transport bound on the default box
    step = 4 if t_min == -1.0 else 6
    aligned = st.integers(-(-n // step), n_t_max // step).map(lambda m: step * m)
    # omega < 1 - 2^(-1/N): 0.4 is rejected for N = 2
    omegas = [0.2, 0.25, 0.28] + ([0.4] if free or dim == 1 else [])
    entries = {
        "run.seed": draw(st.integers(0, 50)),
        "grid.dim": dim,
        "grid.t_min": t_min,
        "grid.n_t": draw(aligned | st.integers(6, n_t_max) if free else aligned),
        "grid.n_x": n,
        "grid.n_v": n,
        # boxes whose level-1 window reaches the grid edge in x or in v
        "grid.x_max": draw(st.sampled_from([1.5, 1.0])),
        "grid.v_max": draw(st.sampled_from([1.5, 1.05])),
        "diagnostics.omega": draw(st.sampled_from(omegas)),
        "diagnostics.bisection": draw(st.booleans()),
        "source.kind": draw(st.sampled_from(["zero", "noise", "constant"])),
        "source.bound": draw(st.sampled_from([0.3, 1.0])),
    }
    for key, (accepted, rejected) in CONSTANTS.items():
        if draw(st.integers(0, 2)) == 0:
            entries[key] = draw(st.sampled_from(accepted + rejected if free else accepted))
    return entries


def _text(entries):
    return "".join(f"{key} = {str(val).lower()}\n" for key, val in entries.items())


_RUN = {"grid.dim": 1, "grid.n_t": 24, "grid.n_x": 24, "grid.n_v": 24,
        "diagnostics.bisection": True}


@settings(max_examples=120)
@given(configs())
# kappa_emp = -inf: a constant source lifts f over 1/2 on Q[1/2] already
@example({**_RUN, "source.kind": "constant", "source.bound": 1.0})
# 8 cells of width 0.375 cannot resolve Q[1/2]: the gate's fallback cylinder
@example({**_RUN, "grid.n_t": 12, "grid.n_x": 8, "grid.n_v": 8})
# lam^3 of the assembled front factor saturates to inf instead of overflowing
@example({**_RUN, "coeff.lambda": 1e80})
@example({**_RUN, "diagnostics.levels": 60})
@example({**_RUN, "diagnostics.barrier_levels": "1, 60"})
@example({**_RUN, "initial.amplitude": math.nan})
# the unit-scale grid every zoom re-solves on has step 1.5/n_t, over its
# transport bound 2/n_x at n_t = 6, n_x = 9
@example({**_RUN, "grid.n_t": 6, "grid.n_x": 9, "grid.n_v": 9, "grid.v_max": 1.05,
          "diagnostics.omega": 0.2})
# the barrier steps at the stored spacing 2 dt = 0.125, over dx/v_max = 1/12
@example({**_RUN, "solver.store_every": 2, "diagnostics.bisection": False})
# U_0 reads the stored slices from T_0 = -1 on, before t_min
@example({**_RUN, "grid.t_min": -0.9, "diagnostics.barrier_levels": ""})
@example({**_RUN, "grid.t_min": -0.99, "diagnostics.barrier_levels": ""})
@example({**_RUN, "grid.t_min": -0.9, "grid.n_t": 36, "diagnostics.barrier_levels": 2})
@example({**_RUN, "grid.t_min": -0.4, "diagnostics.barrier_levels": ""})
def test_config_is_rejected_or_completes(entries):
    try:
        cfg = parse_config(_text(entries))
    except ConfigError as exc:
        event(f"rejected {str(exc).split(':')[0]}")
        return
    result = run_pipeline(cfg)
    text = manifest_text(cfg, result)
    assert "manifest.status = complete\n" in text
    assert "verdict.all = " in text
    event(f"complete N = {cfg.dim}")
    f_linf = result.tables["barrier"][0][CSV_COLUMNS["barrier"].index("f_linf")]
    event(f"barrier {'exercised' if f_linf > 0 else 'zero'}")
    if cfg.run_bisection:
        kappa_emp = result.metrics["kappa_emp_log10"]
        assert not math.isnan(kappa_emp)
        event(f"kappa_emp {'finite' if math.isfinite(kappa_emp) else kappa_emp}")
