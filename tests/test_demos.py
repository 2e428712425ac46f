"""Smoke test of the demo scripts: each runs cleanly and prints its golden output.

The goldens in ``tests/golden/`` are the demos' stdout; every demo is
deterministic, so any change to a printed digit is a change in behaviour.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.stdout"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_golden(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == (GOLDEN / f"{demo.stem}.stdout").read_text(encoding="utf-8")
