"""Every script in demos/ runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kfplab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(kfplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    # the warnings pyproject's filterwarnings turns into errors, as errors
    # here too: the filter does not reach a subprocess
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-W", "error::UserWarning", str(demo)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
