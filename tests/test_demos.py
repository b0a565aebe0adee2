"""Every demo's stdout is pinned byte for byte to a committed transcript in
docs/golden/demos/<name>.txt.  Each demo runs in its own interpreter from
the repository root, as a reader would run it."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TRANSCRIPTS = ROOT / "docs" / "golden" / "demos"


def test_every_demo_has_a_transcript():
    assert DEMOS
    assert sorted(p.stem for p in DEMOS) == \
        sorted(p.stem for p in TRANSCRIPTS.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_its_transcript(demo):
    env = src_env()
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (TRANSCRIPTS / f"{demo.stem}.txt").read_text()


def test_readme_quick_tour_runs():
    # the front page's one python block, run as a reader would paste it
    readme = (ROOT / "README.md").read_text()
    block, = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    env = src_env()
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "(7, [1, 2, 2, 2])" in out.stdout.splitlines()
