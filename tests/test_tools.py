import re
import runpy
import subprocess
import sys
from functools import lru_cache
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


@lru_cache(maxsize=None)
def _profiled_jet_growth():
    return subprocess.run([sys.executable, str(TOOLS / "prof.py"), "jet-growth"],
                          capture_output=True, text=True, timeout=120)


def test_profiler_names_the_jet_kernel():
    done = _profiled_jet_growth()
    assert done.returncode == 0, done.stderr
    head, profile = done.stdout.split("\nprofiled pass", 1)
    assert "median" in head
    assert "(truncated_quotient)" in profile


def test_profiler_counts_the_basis_tables():
    # every jet of the workload reads one table; its bases are fewer than
    # its jets, and fewer than the bound, so the memo keeps each of them
    done = _profiled_jet_growth()
    assert done.returncode == 0, done.stderr
    memos = done.stdout.split("\nmemos from the set-up on", 1)[1]
    got = re.search(r"artin\._basis_table: (\d+) hits, (\d+) misses, size (\d+) of (\d+)",
                    memos)
    assert got is not None, memos
    hits, misses, size, bound = map(int, got.groups())
    assert hits > misses > 0
    assert size == misses <= bound


def test_profiler_counts_the_jets():
    # the workload builds each of its jets once per pass, so every pass
    # misses, and the memo holds no more than its bound
    done = _profiled_jet_growth()
    assert done.returncode == 0, done.stderr
    memos = done.stdout.split("\nmemos from the set-up on", 1)[1]
    got = re.search(r"artin\._jet: (\d+) hits, (\d+) misses, size (\d+) of (\d+)", memos)
    assert got is not None, memos
    hits, misses, size, bound = map(int, got.groups())
    assert misses > 0
    assert size <= bound


def test_profiler_lists_every_package_memo():
    # each memo of the package appears once, under the module defining it,
    # whether or not the workload reads it
    import importlib
    import pkgutil

    import jetmetric
    modules = {info.name: importlib.import_module(f"jetmetric.{info.name}")
               for info in pkgutil.iter_modules(jetmetric.__path__)}
    memos = {id(v) for module in modules.values() for v in vars(module).values()
             if hasattr(v, "cache_info")}
    done = _profiled_jet_growth()
    assert done.returncode == 0, done.stderr
    section = done.stdout.split("\nmemos from the set-up on", 1)[1]
    names = re.findall(r"^  (\w+)\.(\w+): \d+ hits", section, re.MULTILINE)
    assert {id(getattr(modules[mod], attr)) for mod, attr in names} == memos
    assert len(names) == len(memos)
    assert {"artin._unit_monomials", "slopes._ln2", "cli._parser"} <= \
        {f"{mod}.{attr}" for mod, attr in names}


def test_profiler_splits_the_set_up():
    # the full run prints the set-up split before the passes
    done = _profiled_jet_growth()
    assert done.returncode == 0, done.stderr
    head = done.stdout.split("\nprofiled set-up", 1)[0]
    assert re.search(r"^jet-growth: set-up CPU over \d+ set-ups: import median [0-9.]+ s, "
                     r"inputs median [0-9.]+ s$", head, re.MULTILINE), head


def test_profiler_traces_the_distance_corpus_set_up_to_the_parser():
    # the set-up profile alone, in a process of its own (it re-imports the
    # package), without the workload's passes
    code = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import prof; "
            "prof.profile_setup(*prof.harness(), 'distance-corpus')")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    head, profile = done.stdout.split("\nprofiled set-up (inputs):", 1)
    assert re.search(r"^distance-corpus: set-up CPU over \d+ set-ups: import median "
                     r"[0-9.]+ s, inputs median [0-9.]+ s$", head, re.MULTILINE), head
    assert "presentation.py" in profile and "(parse_presentation)" in profile
