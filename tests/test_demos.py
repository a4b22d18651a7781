"""Smoke test for the demos: each runs to completion in its own interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_all_five_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(path):
    done = run_demo(path)
    assert done.returncode == 0, done.stderr
    if path.name.startswith("03_"):
        assert "  c:SNP -> c:Gene? True\n" in done.stdout
        assert "  c:Gene -> c:SNP? False\n" in done.stdout
