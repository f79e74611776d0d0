"""Total validation: every configuration either fails `validate()` with a
ConfigError or runs to a complete manifest."""

import math

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from kfplab.config import ConfigError, parse_config
from kfplab.pipeline import manifest_text, run_pipeline


@st.composite
def configs(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(4, 24 if dim == 1 else 13))
    n_t_max = 48 if dim == 1 else 24
    entries = {
        "run.seed": draw(st.integers(0, 50)),
        "grid.dim": dim,
        # multiples of 6 from n up put T_0 = -1 and T_1 on stored slices and
        # meet the transport bound; any other n_t is drawn too
        "grid.n_t": draw(st.integers(-(-n // 6), n_t_max // 6).map(lambda m: 6 * m)
                         | st.integers(6, n_t_max)),
        "grid.n_x": n,
        "grid.n_v": n,
        "diagnostics.omega": draw(st.sampled_from([0.2, 0.25, 0.28, 0.4])),
        "diagnostics.bisection": draw(st.booleans()),
        "source.kind": draw(st.sampled_from(["zero", "noise", "constant"])),
        "source.bound": draw(st.sampled_from([0.3, 1.0])),
    }
    constants = {
        "diagnostics.beta": [-1.0, 0.0, 1e-300, 0.01, 0.5],
        "diagnostics.gamma": [-100.0, 0.0, 1.0, 1e300],
        "diagnostics.c_n": [-5.0, 0.0, 1.0, 1e300],
        "diagnostics.k_s": [-1.0, 0.0, 1.0],
        "diagnostics.a": [0.0, 1.0, 2.0],
        "diagnostics.alpha_iso": [1e-9, 1e-3, 0.05, 1.0],
    }
    for key, values in constants.items():
        if draw(st.integers(0, 2)) == 0:
            entries[key] = draw(st.sampled_from(values))
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
    if cfg.run_bisection:
        kappa_emp = result.metrics["kappa_emp_log10"]
        assert not math.isnan(kappa_emp)
        event(f"kappa_emp {'finite' if math.isfinite(kappa_emp) else kappa_emp}")
