"""Command-line interface: one subcommand per capability, one JSON report per
run.

Reports are deterministic (sorted keys, no timestamps) so byte-identical
output certifies reproducibility.  Every number is exact — integers, or
fractions rendered "a/b" — except decimal approximations, which are emitted
as objects carrying their digit count.  Exit status: 0 on success, 1 when the
computation raised a typed error (the error appears in the report), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .artin import hf_by_degree_count, jet, nilpotency_index, socle_dimension
from .errors import JetMetricError, PresentationSyntaxError, RangeError
from .hilbert import euler_characteristic, hilbert_series
from .iso import SearchBudget, Witness, witness_field
from .metric import DEFAULT_TAIL, _distance, limit_jets
from .poly import DEFAULT_CAPACITY
from .presentation import FamilyTemplate, Presentation, mono_to_str, parse_presentation
from .resolution import (betti_residue_field, depth_and_classify,
                         minimal_resolution_of_quotient)
from .slopes import (LOG2_DIGITS, delta0_at_order, eps0_at_order, length_model, rho,
                     round_log2, quasi_dimension, slope_trace)

SCHEMA = "jetmetric/1"


# ---------------------------------------------------------------------------
# encoding


def _enc_fraction(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _enc_decimal(s: str) -> dict:
    return {"decimal": s, "digits": LOG2_DIGITS}


def _scalar_str(field, c) -> str:
    """A value as text; over F_{p^m}, its digits (c_0,...,c_{m-1})."""
    if field.minpoly is not None:
        return "(" + ",".join(str(v) for v in field.coeffs(c)) + ")"
    return str(c)


def _vec_str(vec, field, basis, varnames) -> str:
    """The element vec, (index, value) pairs over basis, as text."""
    terms = []
    for i, c in vec:
        s = _scalar_str(field, c)
        m = mono_to_str(basis[i], varnames) or "1"
        terms.append(m if s == "1" else f"{s}*{m}")
    return " + ".join(terms) if terms else "0"


def _enc_witness(w: Optional[Witness], B, src_vars, dst_vars) -> Optional[dict]:
    if w is None:
        return None
    fld = witness_field(B, w)
    return {"ext_multiple": w.ext_multiple,
            "images": {v: _vec_str(img, fld, B.basis, dst_vars)
                       for v, img in zip(src_vars, w.images)}}


def _enc_separator(sep) -> Optional[list]:
    if sep is None:
        return None
    name, va, vb = sep
    return [name, str(va), str(vb)]


def _enc_per_order(per_order, p: Presentation, q: Presentation, targets) -> list:
    """targets[n - 1] is the target-side jet the witness of order n is read in."""
    out = []
    for n, v in per_order:
        entry = {"order": n, "status": v.status,
                 "separator": _enc_separator(v.separator)}
        if v.witness is not None:
            entry["witness"] = _enc_witness(v.witness, targets[n - 1], p.vars, q.vars)
        if v.search_bounds is not None:
            entry["search_bounds"] = v.search_bounds
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# input handling


def _read(path: str) -> tuple[str, str]:
    """The UTF-8 text of the file at path, and the digest of its bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode()
    except UnicodeDecodeError as e:
        raise PresentationSyntaxError(f"{path} is not UTF-8 text ({e.reason})", 0, 0)
    return text, "sha256:" + hashlib.sha256(raw).hexdigest()


def _load(path: str) -> tuple[Presentation, str]:
    text, digest = _read(path)
    return parse_presentation(text), digest


def _parse_span(text: str) -> tuple[int, int]:
    a, sep, b = text.partition("..")
    if not sep or not a.strip().lstrip("-").isdigit() or not b.strip().lstrip("-").isdigit():
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    return int(a), int(b)


def _budget(args) -> SearchBudget:
    return SearchBudget(ext_degree_max=args.ext, effort=args.effort)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result, evidence)


def _run_jets(args):
    p, digest = _load(args.file)
    A = jet(p, args.order, capacity=args.cap)
    result = {"order": args.order, "dim": A.dim, "basis_size": A.dim,
              "hilbert_function": hf_by_degree_count(A),
              "nilpotency_index": nilpotency_index(A),
              "socle_dimension": socle_dimension(A)}
    return result, None, {args.file: digest}


def _run_hilbert(args):
    p, digest = _load(args.file)
    hd = hilbert_series(p, args.prefix_len)
    result = {
        "series_prefix": hd.series_prefix,
        "numerator": hd.numerator,
        "pole_order": hd.pole_order,
        "dim": hd.dim,
        "mult": hd.mult,
        "degreewise": None if hd.degreewise is None
        else [_enc_fraction(c) for c in hd.degreewise],
        "cumulative": [_enc_fraction(c) for c in hd.cumulative],
        "degreewise_valid_from": hd.degreewise_valid_from(),
        "source": hd.source,
    }
    return result, None, {args.file: digest}


def _run_distance(args, defpair: bool):
    p, dp = _load(args.a)
    q, dq = _load(args.b)
    verdict, targets = _distance(p, q, args.max_order, _budget(args), args.cap, defpair)
    result = {"lower": _enc_fraction(verdict.lower),
              "upper": _enc_fraction(verdict.upper),
              "exact": verdict.exact}
    evidence = {"per_order": _enc_per_order(verdict.per_order, p, q, targets)}
    return result, evidence, {args.a: dp, args.b: dq}


def _run_slopes(args):
    p, digest = _load(args.file)
    which = args.which
    if which in ("delta0", "eps0"):
        if args.order is None:
            raise UsageError(f"--which {which} requires --order")
        model = length_model(p, capacity=args.cap)
        if which == "delta0":
            v = delta0_at_order(model, args.order)
            result = {"order": args.order, "length": v.length,
                      "half_length": v.half_length,
                      "ratio": _enc_fraction(v.ratio),
                      "log2": _enc_decimal(v.log2),
                      "rounded": round_log2(v.ratio)}
        else:
            val = eps0_at_order(model, args.order)
            result = {"order": args.order, "value": _enc_fraction(val)}
        return result, None, {args.file: digest}
    if which == "rho":
        r = rho(p, capacity=args.cap)
        result = {"value": _enc_fraction(r.value), "attained": r.attained,
                  "argmax_n": r.argmax_n,
                  "tail_limit": _enc_fraction(r.tail_limit),
                  "scan_bound": r.scan_bound}
        return result, None, {args.file: digest}
    if which == "quasidim":
        value, cert = quasi_dimension(p, capacity=args.cap)
        result = {"value": value,
                  "certificate": {"n_used": cert["n_used"],
                                  "rho_value": _enc_fraction(cert["rho_value"]),
                                  "satisfied": cert["satisfied"]}}
        return result, None, {args.file: digest}
    # trace
    if args.window is None:
        raise UsageError("--which trace requires --window a..b")
    if args.stride < 1:
        raise UsageError("--stride must be at least 1")
    lo, hi = args.window
    t = slope_trace(p, args.trace_of, range(lo, hi + 1, args.stride),
                    capacity=args.cap)
    if args.trace_of == "delta0":
        values = [{"length": v.length, "half_length": v.half_length,
                   "ratio": _enc_fraction(v.ratio), "log2": _enc_decimal(v.log2)}
                  for v in t.values]
    elif args.trace_of == "eps0":
        values = [_enc_fraction(v) for v in t.values]
    else:
        values = t.values
    result = {"slope": t.slope, "orders": t.orders, "values": values,
              "limit_claim": None if t.limit_claim is None
              else [_enc_fraction(t.limit_claim[0]), t.limit_claim[1]],
              "agreement_order": t.agreement_order}
    return result, None, {args.file: digest}


def _run_resolve(args):
    p, digest = _load(args.file)
    # only the residue-field resolution reads the caps; --hcap is checked in
    # both modes and stays accepted without --residue-field, --dcap is not
    if args.hcap < 1:
        raise RangeError("homological cap must be at least 1")
    if args.dcap is not None and not args.residue_field:
        raise UsageError("--dcap requires --residue-field")
    if args.residue_field:
        res = betti_residue_field(p, args.hcap, args.dcap, capacity=args.cap)
    else:
        res = minimal_resolution_of_quotient(p, capacity=args.cap)
    result = {"module": res.module,
              "betti": [[i, j, b] for (i, j), b in sorted(res.betti.items())],
              "ranks": res.ranks, "pd": res.pd, "complete": res.complete,
              "homological_cap": res.homological_cap,
              "internal_degree_cap": res.internal_degree_cap}
    return result, None, {args.file: digest}


def _run_classify(args):
    p, digest = _load(args.file)
    c = depth_and_classify(p, capacity=args.cap)
    result = {"depth": c.depth, "dim": c.dim, "embdim": c.embdim, "pd": c.pd,
              "regular": c.regular, "cohen_macaulay": c.cohen_macaulay,
              "gorenstein": "UNKNOWN" if c.gorenstein is None else c.gorenstein}
    return result, None, {args.file: digest}


def _run_euler(args):
    p, digest = _load(args.file)
    chi, genus = euler_characteristic(p)
    return {"chi": chi, "genus": genus}, None, {args.file: digest}


def _run_limit(args):
    lo, hi = args.range
    body, digest = _read(args.template)
    tpl = FamilyTemplate(body, lo, hi)
    last, w0 = limit_jets(tpl, args.order, _budget(args), tail=args.tail,
                          capacity=args.cap)
    result = {"order": args.order, "stabilizes_at": w0, "dim": last.dim,
              "hilbert_function": hf_by_degree_count(last)}
    evidence = {"range": [lo, hi], "tail_checked": args.tail}
    return result, evidence, {args.template: digest}


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the jetmetric command line."""
    top = argparse.ArgumentParser(
        prog="jetmetric",
        description="Exact invariants and deformation distances of finitely "
                    "presented local and graded algebras.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--cap", type=int, default=DEFAULT_CAPACITY,
                        help="monomial capacity guard for jet construction")

    def searchy(sp):
        sp.add_argument("--ext", type=int, default=SearchBudget.ext_degree_max,
                        help="largest coefficient-field extension degree to try")
        sp.add_argument("--effort", type=int, default=SearchBudget.effort,
                        help="candidate budget for the isomorphism search")

    sp = sub.add_parser("jets", help="order-n jet of a presentation")
    sp.add_argument("file")
    sp.add_argument("--order", "-n", type=int, required=True)
    common(sp)

    sp = sub.add_parser("hilbert", help="Hilbert series in rational normal form")
    sp.add_argument("file")
    sp.add_argument("--prefix-len", type=int, default=None)

    for name, help_ in (("distance", "deformation distance interval from jets"),
                        ("defpair-distance",
                         "distance between deformation pairs (tuple-matching)")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("a")
        sp.add_argument("b")
        sp.add_argument("--max-order", type=int, required=True)
        searchy(sp)
        common(sp)

    sp = sub.add_parser("slopes", help="quasi-slope invariants")
    sp.add_argument("file")
    sp.add_argument("--which", required=True,
                    choices=["delta0", "eps0", "rho", "quasidim", "trace"])
    sp.add_argument("--order", "-n", type=int, default=None)
    sp.add_argument("--trace-of", choices=["delta0", "eps0", "hilbert"],
                    default="delta0")
    sp.add_argument("--window", type=_parse_span, default=None,
                    metavar="a..b")
    sp.add_argument("--stride", type=int, default=1)
    common(sp)

    sp = sub.add_parser("resolve", help="graded minimal free resolution")
    sp.add_argument("file")
    sp.add_argument("--residue-field", action="store_true",
                    help="resolve the residue field instead of the quotient")
    sp.add_argument("--hcap", type=int, default=6,
                    help="homological cap; read only with --residue-field")
    sp.add_argument("--dcap", type=int, default=None,
                    help="internal degree cap; needs --residue-field")
    common(sp)

    sp = sub.add_parser("classify", help="depth, dimension, and ring flags")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("euler", help="Euler characteristic and genus")
    sp.add_argument("file")

    sp = sub.add_parser("limit", help="stabilized jet of a parameterized family")
    sp.add_argument("--template", required=True)
    sp.add_argument("--range", type=_parse_span, required=True, metavar="a..b")
    sp.add_argument("--order", "-n", type=int, required=True)
    sp.add_argument("--tail", type=int, default=DEFAULT_TAIL)
    searchy(sp)
    common(sp)
    for sp in sub.choices.values():
        # a handler's usage error is reported as its subcommand's own
        sp.set_defaults(usage=sp)
    return top


# `run` parses with one parser per process, built on its first call and
# never at import; parsing leaves the parser unchanged, and the help width
# is read when help is printed
_parser = functools.cache(build_parser)


_HANDLERS = {
    "jets": _run_jets,
    "hilbert": _run_hilbert,
    "distance": lambda a: _run_distance(a, defpair=False),
    "defpair-distance": lambda a: _run_distance(a, defpair=True),
    "slopes": _run_slopes,
    "resolve": _run_resolve,
    "classify": _run_classify,
    "euler": _run_euler,
    "limit": _run_limit,
}


def _parameters(args) -> dict:
    skip = {"subcommand", "usage", "file", "a", "b", "template"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip or v is None:
            continue
        out[k] = list(v) if isinstance(v, tuple) else v
    return out


def run(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    report = {"schema": SCHEMA, "subcommand": args.subcommand,
              "parameters": _parameters(args), "inputs": {}}
    try:
        result, evidence, inputs = _HANDLERS[args.subcommand](args)
    except UsageError as e:
        args.usage.error(str(e))   # exits 2
    except OSError as e:
        print(f"jetmetric: {e}", file=sys.stderr)
        return 2
    except JetMetricError as e:
        report["error"] = {"type": type(e).__name__, "message": str(e)}
        print(json.dumps(report, sort_keys=True, indent=2))
        return 1
    report["inputs"] = inputs
    report["result"] = result
    if evidence is not None:
        report["evidence"] = evidence
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone: send the exit-time flush to devnull
        # so it cannot raise again, and fail without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
