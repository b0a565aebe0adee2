"""The benchmark's jet-growth answer check compares each item's result
digest with `bench/jet_growth_digests.json`; an algebra's digest reads its
normal forms as dense coordinate lists.  Recomputing the recorded digests
here makes a change to those results fail the tests, not only the
benchmark.  The CLI items are left out: the golden tests cover their
output, and a second test holds the benchmark's copy of their command
table equal to theirs."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from test_cli import GOLDEN_COMMANDS

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    """Load bench/<name>.py as the module <name>, registered for the test
    only: workloads imports corpus by name, and dataclasses look their
    module up in sys.modules."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_jet_growth_items_reproduce_the_recorded_digests(monkeypatch):
    corpus = _load(monkeypatch, "corpus")
    workloads = _load(monkeypatch, "workloads")
    jm = SimpleNamespace(**{m: importlib.import_module(f"jetmetric.{m}") for m in
                            ("artin", "cli", "hilbert", "presentation", "resolution", "slopes")})
    recorded = json.loads(workloads.DIGESTS.read_text())
    assert recorded["seed"] == corpus.DEFAULT_SEED
    wl = workloads.JetGrowth()
    items = [it for it in wl.setup(jm, corpus.DEFAULT_SEED) if not it.label.startswith("cli/")]
    assert items
    got = {it.label: workloads.digest(it.run()) for it in items}
    assert got == {label: recorded["digests"][label] for label in got}


def test_the_benchmark_runs_the_golden_commands(monkeypatch):
    _load(monkeypatch, "corpus")
    workloads = _load(monkeypatch, "workloads")
    assert workloads.GOLDEN_COMMANDS == GOLDEN_COMMANDS
