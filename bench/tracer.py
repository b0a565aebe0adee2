"""Spans and counters recorded around jetmetric's public functions from
outside the package.

`Tracer.install` swaps each target for a wrapper at every place the
original object is bound: the defining module, every `from ... import`
site in other jetmetric modules, and the class for methods.  `uninstall`
puts the originals back.  Spans (name, start, end, parent, item) go into
flat arrays while the run is live and are analysed and written out only
when it ends; deterministic counters are kept apart from wall times.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import update_wrapper


def _iso_verdict(counters, args, kwargs, verdict):
    counters[f"iso.verdicts.{verdict.status}"] += 1
    if verdict.status == "UNKNOWN" and verdict.search_bounds:
        counters["iso.unknown.candidates_tried"] += \
            verdict.search_bounds["candidates_tried"]
    origin = args[0].origin
    if origin is not None:
        return f"metric.order_{origin.order}.decide_s"
    return None


def _rref_cells(counters, args, kwargs, result):
    m = args[0]
    counters["exactcore.rref.cells"] += m.nrows * m.ncols
    return None


def _betti_field(counters, args, kwargs, result):
    """Tag by field order: F_2, F_4, F_16 (Q for the rationals)."""
    src = args[0]
    desc = src.field.desc if hasattr(src.field, "desc") else src.field
    label = "Q" if desc.p is None else f"F_{desc.p ** (desc.m or 1)}"
    return f"resolution.betti_residue_field.{label}.self_s"


# (module, attribute path, counter hook[, span name]).  The hook sees the
# call's arguments and result, bumps deterministic counters and may return
# a tag under which the span's time is also summed.  The span name defaults
# to "<module>.<attribute path>".
TARGETS = [
    ("exactcore", "ExactMatrix.rref", _rref_cells, "exactcore.rref"),
    ("exactcore", "ExactMatrix.kernel_basis", None),
    ("exactcore", "rank_gf2", None),
    ("poly", "truncated_quotient", None),
    ("poly", "graded_component_rank", None),
    ("poly", "reduce_poly", None),
    ("presentation", "parse_presentation", None),
    ("presentation", "Presentation.base_field", None),
    ("presentation", "instantiate_template", None),
    ("artin", "jet", None),
    ("artin", "defpair_jet", None),
    ("artin", "hf_by_degree_count", None),
    ("artin", "hilbert_function", None),
    ("artin", "nilpotency_index", None),
    ("artin", "socle", None),
    ("artin", "ArtinAlgebra.multiply", None),
    ("artin", "ArtinAlgebra.evaluate", None),
    ("artin", "ArtinAlgebra.mult_matrix", None),
    ("iso", "invariant_signature", None),
    ("iso", "find_separator", None),
    ("iso", "base_change", None),
    ("iso", "linear_map_matrix", None),
    ("iso", "apply_linear_map", None),
    ("iso", "verify_witness", None),
    ("iso", "invert_witness", None),
    ("iso", "project_witness", None),
    ("iso", "decide_isomorphism", _iso_verdict),
    ("metric", "jet_distance", None),
    ("metric", "defpair_distance", None),
    ("metric", "limit_jets", None),
    ("hilbert", "hilbert_series", None),
    ("hilbert", "hs_polynomial_from_jets", None),
    ("hilbert", "euler_characteristic", None),
    ("slopes", "length_model", None),
    ("slopes", "rho", None),
    ("slopes", "quasi_dimension", None),
    ("slopes", "delta0_at_order", None),
    ("slopes", "eps0_at_order", None),
    ("resolution", "betti_residue_field", _betti_field),
    ("resolution", "minimal_resolution_of_quotient", None),
    ("resolution", "depth_and_classify", None),
    ("cli", "run", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.item_id = -1
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.item.append(self.item_id)
        self.tag.append(-1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, span_name: str, hook):
        nid = self._id(span_name)
        open_, close = self._open, self._close
        counters, tag, tag_id = self.counters, self.tag, self._id

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                label = hook(counters, args, kwargs, result)
                if label is not None:
                    tag[idx] = tag_id(label)
            return result

        return update_wrapper(traced, fn)

    def install(self):
        """Wrap every target at every binding site in the loaded package."""
        for modname, *_ in TARGETS:
            importlib.import_module(f"jetmetric.{modname}")
        pkg = [m for n, m in sorted(sys.modules.items())
               if n == "jetmetric" or n.startswith("jetmetric.")]
        for modname, path, hook, *name in TARGETS:
            module = sys.modules[f"jetmetric.{modname}"]
            span_name = name[0] if name else f"{modname}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original,
                            self._wrap(original, span_name, hook))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, span_name, hook)
            for mod in pkg:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def root(self, name: str, item_id: int = -1):
        """Root span of one benchmark item (or of the set-up, item -1);
        spans opened inside carry its item id."""
        self.item_id = item_id
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)
            self.item_id = -1

    # -- analysis, outside the measured region --------------------------

    def summary(self) -> tuple[dict, dict]:
        """(deterministic counters, wall-time sums).  Self time is a span's
        duration minus the time its direct children cover; total time
        counts only the outermost span of each name on a call chain."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        cover = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                cover[p] += dur[i]
        counts: Counter = Counter(self.counters)
        times: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            self_t = dur[i] - cover[i]
            counts[f"{name}.calls"] += 1
            times[f"{name}.self_s"] += self_t
            times[f"{name.split('.')[0]}.self_s"] += self_t
            if not self._has_ancestor_named(i):
                times[f"{name}.total_s"] += dur[i]
            if self.tag[i] >= 0:
                label = self.names[self.tag[i]]
                counts[label.rsplit(".", 1)[0] + ".calls"] += 1
                times[label] += self_t if label.endswith(".self_s") else dur[i]
        return dict(sorted(counts.items())), dict(sorted(times.items()))

    def _has_ancestor_named(self, i: int) -> bool:
        nid, p = self.name[i], self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,item\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.item[i]}\n")
