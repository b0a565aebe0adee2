import runpy
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SOURCE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment keeps its line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        x = os.sep
        """A string expression that is not the first statement is code."""
        return x
'''


def test_code_lines_drops_docstrings_comments_and_blank_lines():
    code_lines = runpy.run_path(str(TOOLS / "codelines.py"))["code_lines"]
    # import, class, def, the assignment, the later string and the return
    assert code_lines(SOURCE) == 6


def test_profiler_names_the_jet_kernel():
    done = subprocess.run([sys.executable, str(TOOLS / "prof.py"), "jet-growth"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    head, profile = done.stdout.split("\nprofiled pass", 1)
    assert "median" in head
    assert "(truncated_quotient)" in profile
