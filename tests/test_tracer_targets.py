"""The benchmark's tracer wraps package functions by name; a target that no
longer resolves makes `Tracer.install` fail, so every name is checked here
as well as in the benchmark's own tests."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t[0]}.{t[1]}")
def test_every_traced_name_resolves(target):
    modname, path = target[0], target[1]
    module = importlib.import_module(f"jetmetric.{modname}")
    if "." in path:
        cls_name, meth = path.split(".")
        assert callable(getattr(module, cls_name).__dict__[meth])
    else:
        assert callable(getattr(module, path))
