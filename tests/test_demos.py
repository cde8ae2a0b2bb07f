"""The narrative scripts under demos/ run to completion as the README promises."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from towergrowth import (
    AmbiguousFitError,
    ElementaryModule,
    GenericDescent,
    Grade,
    LPower,
    fit_parameters,
    order_sequence,
)

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "DISAGREE" not in result.stdout


def test_every_demo_is_found():
    # an empty glob would run no demos and pass silently
    assert "oracle_crosscheck.py" in [p.name for p in DEMOS]


def test_crosscheck_demo_short_window_is_ambiguous():
    # the LPower(3) line of demos/oracle_crosscheck.py: its ambiguity on
    # [1, 4] is what the demo shows, and [1, 6] settles it
    eight = ElementaryModule(prime=2, free_rank=0, torsion_factors=(LPower(3),))
    trivial = GenericDescent(0, ())
    with pytest.raises(AmbiguousFitError):
        fit_parameters(order_sequence(eight, trivial, 1, 4))
    p = fit_parameters(order_sequence(eight, trivial, 1, 6)).params
    assert (p.rho, p.mu, p.lam_tilde, p.grade) == (0, 3, 0, Grade.STRICT)
