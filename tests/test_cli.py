import argparse
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from jetmetric import artin, cli, poly
from jetmetric.cli import run

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "docs" / "golden"
INPUTS = "docs/golden/inputs"  # golden reports record paths as typed

GOLDEN_COMMANDS = {
    "jets.json": ["jets", f"{INPUTS}/cusp.pres", "--order", "4"],
    "hilbert.json": ["hilbert", f"{INPUTS}/quartic.pres"],
    "distance.json": ["distance", f"{INPUTS}/x2.pres",
                      f"{INPUTS}/x3.pres", "--max-order", "6"],
    "defpair-distance.json": ["defpair-distance", f"{INPUTS}/pair-line.pres",
                              f"{INPUTS}/pair-fat.pres", "--max-order", "8"],
    "slopes.json": ["slopes", f"{INPUTS}/plane.pres", "--which", "quasidim"],
    "resolve.json": ["resolve", f"{INPUTS}/fat-point.pres", "--hcap", "6"],
    "classify.json": ["classify", f"{INPUTS}/quartic.pres"],
    "euler.json": ["euler", f"{INPUTS}/quartic.pres"],
    "limit.json": ["limit", "--template", f"{INPUTS}/family.tmpl",
                   "--range", "1..10", "--order", "3"],
}


# reports of the modes and options no golden covers; they stay out of
# GOLDEN_COMMANDS, which the acceptance suite and the benchmark read
REPORTS = GOLDEN / "reports"
REPORT_COMMANDS = {
    "slopes-delta0": ["slopes", f"{INPUTS}/cusp.pres", "--which", "delta0", "--order", "6"],
    "slopes-eps0": ["slopes", f"{INPUTS}/cusp.pres", "--which", "eps0", "--order", "6"],
    "slopes-rho-attained": ["slopes", f"{INPUTS}/cusp.pres", "--which", "rho"],
    "slopes-rho-tail": ["slopes", f"{INPUTS}/quartic.pres", "--which", "rho"],
    "slopes-quasidim": ["slopes", f"{INPUTS}/cusp.pres", "--which", "quasidim"],
    "slopes-trace-delta0": ["slopes", f"{INPUTS}/quartic.pres", "--which", "trace",
                            "--trace-of", "delta0", "--window", "2..8", "--stride", "2"],
    "slopes-trace-eps0": ["slopes", f"{INPUTS}/quartic.pres", "--which", "trace",
                          "--trace-of", "eps0", "--window", "2..8", "--stride", "2"],
    "slopes-trace-hilbert": ["slopes", f"{INPUTS}/quartic.pres", "--which", "trace",
                             "--trace-of", "hilbert", "--window", "2..6"],
    "resolve-residue-field": ["resolve", f"{INPUTS}/quartic.pres", "--residue-field",
                              "--hcap", "4"],
    "hilbert-prefix": ["hilbert", f"{INPUTS}/cubic.pres", "--prefix-len", "12"],
    "classify-cone": ["classify", "docs/golden/reports/cone.pres"],
}


@pytest.fixture(autouse=True)
def _from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_COMMANDS))
def test_golden_output_matches(golden_name):
    code, out, _ = _capture(GOLDEN_COMMANDS[golden_name])
    assert code == 0
    expected = (GOLDEN / golden_name).read_text()
    assert out == expected


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_COMMANDS))
def test_output_is_byte_deterministic(golden_name):
    argv = GOLDEN_COMMANDS[golden_name]
    _, first, _ = _capture(argv)
    _, second, _ = _capture(argv)
    assert first == second


@pytest.mark.parametrize("name", sorted(REPORT_COMMANDS))
def test_report_matches_its_recorded_bytes(name):
    code, out, _ = _capture(REPORT_COMMANDS[name])
    assert code == 0
    assert out == (REPORTS / f"{name}.json").read_text()


def test_every_report_carries_schema_and_input_digests():
    for name, argv in GOLDEN_COMMANDS.items():
        doc = json.loads((GOLDEN / name).read_text())
        assert doc["schema"] == "jetmetric/1"
        assert doc["subcommand"] == argv[0]
        for digest in doc["inputs"].values():
            assert digest.startswith("sha256:") and len(digest) == 7 + 64


def test_jets_report_contents():
    doc = json.loads((GOLDEN / "jets.json").read_text())
    r = doc["result"]
    assert r["dim"] == 7
    assert r["hilbert_function"] == [1, 2, 2, 2]
    assert r["nilpotency_index"] == 4
    assert r["socle_dimension"] == 2


def test_distance_report_is_exact_quarter():
    doc = json.loads((GOLDEN / "distance.json").read_text())
    r = doc["result"]
    assert r["exact"] is True
    assert r["lower"] == r["upper"] == "1/4"


def test_distance_witness_is_printed_in_the_target_jet(tmp_path):
    # at order 2 the jets are k[x]/(x^2) and k[y]/(y^2): the image of x
    # must be written in the basis of the second one
    a, b = tmp_path / "a.pres", tmp_path / "b.pres"
    a.write_text("ring Q[x, y]\nlocal\nideal: y - x^2\n")
    b.write_text("ring Q[x, y]\nlocal\nideal: x - y^2\n")
    code, out, _ = _capture(["distance", str(a), str(b), "--max-order", "2"])
    assert code == 0
    order2 = json.loads(out)["evidence"]["per_order"][1]
    assert order2["witness"]["images"] == {"x": "y", "y": "0"}


@pytest.mark.parametrize("golden_name", ["distance.json", "defpair-distance.json"])
def test_distance_builds_each_jet_once(monkeypatch, golden_name):
    # the witnesses are printed in the target jets the driver built: one
    # truncated quotient per side and decided order, none more
    calls = []
    build = artin.truncated_quotient
    monkeypatch.setattr(artin, "truncated_quotient",
                        lambda *a, **k: calls.append(1) or build(*a, **k))
    code, out, _ = _capture(GOLDEN_COMMANDS[golden_name])
    assert code == 0
    assert len(calls) == 2 * len(json.loads(out)["evidence"]["per_order"])


def test_jets_past_the_capacity_enumerate_no_monomials(monkeypatch):
    # the capacity guard runs before the monomials of the shape are listed
    calls = []
    monkeypatch.setattr(poly, "combinations_with_replacement", lambda *a: calls.append(a))
    code, out, _ = _capture(["jets", f"{INPUTS}/cusp.pres", "--order", "1000000"])
    assert code == 1 and json.loads(out)["error"]["type"] == "CapacityError"
    assert calls == []


def test_extension_witness_prints_only_its_nonzero_terms(tmp_path):
    # over F_9 a zero coordinate prints as "(0,0)", which the printer used
    # to write out as a term for every basis monomial of the target jet
    a, b = tmp_path / "a.pres", tmp_path / "b.pres"
    a.write_text("ring F_3[x, y]\ngraded\nideal: x^2 + y^2\n")
    b.write_text("ring F_3[x, y]\ngraded\nideal: x*y\n")
    code, out, _ = _capture(["distance", str(a), str(b), "--max-order", "3", "--ext", "2"])
    assert code == 0
    order3 = json.loads(out)["evidence"]["per_order"][2]
    assert order3["witness"] == {"ext_multiple": 2,
                                 "images": {"x": "(0,1)*y + (0,2)*x",
                                            "y": "(2,0)*y + (2,0)*x"}}


@pytest.mark.parametrize("p, a, b", [
    (1073741789, "y^2 - x^3", "y^2 - x^3 - x^2*y"),
    (2305843009213693951, "y^2 - x^3", "y^2 - 2*x^3"),
])
def test_distance_over_a_large_prime_field_runs_out_of_effort(tmp_path, p, a, b):
    # the coordinate search once listed every element of the field before its
    # first candidate, a MemoryError for fields this large
    pa, pb = tmp_path / "a.pres", tmp_path / "b.pres"
    pa.write_text(f"ring F_{p}[x, y]\nlocal\nideal: {a}\n")
    pb.write_text(f"ring F_{p}[x, y]\nlocal\nideal: {b}\n")
    code, out, _ = _capture(["distance", str(pa), str(pb), "--max-order", "4"])
    assert code == 0
    per_order = json.loads(out)["evidence"]["per_order"]
    assert [o["status"] for o in per_order] == ["ISO", "ISO", "ISO", "UNKNOWN"]
    assert per_order[3]["search_bounds"]["stopped_by"] == "effort"


@pytest.mark.parametrize("command", ["hilbert"])
def test_overlong_series_prefix_exits_one_with_capacity_error(command):
    # the series used to be expanded first, ending in a MemoryError
    code, out, _ = _capture([command, f"{INPUTS}/quartic.pres",
                             "--prefix-len", "400000000"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "CapacityError"
    assert "series prefix length 400000001 exceeds capacity 2000" in error["message"]


def test_domain_failure_exits_one_with_json_error():
    code, out, _ = _capture(["euler", f"{INPUTS}/fat-point.pres"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "PoleOrderZeroError"


@pytest.mark.parametrize("bound", [["--ext", "0"], ["--effort", "-5"]])
def test_out_of_range_search_budget_exits_one_with_json_error(tmp_path, bound):
    # with --ext 0 no candidate was tried, yet every order past the
    # separating ones read as an exhausted space
    a, b = tmp_path / "a.pres", tmp_path / "b.pres"
    a.write_text("ring F_3[x, y]\ngraded\nideal: x^2 + y^2\n")
    b.write_text("ring F_3[x, y]\ngraded\nideal: x*y\n")
    code, out, _ = _capture(["distance", str(a), str(b), "--max-order", "3", *bound])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "RangeError"


@pytest.mark.parametrize("command", ["distance", "defpair-distance"])
@pytest.mark.parametrize("max_order", ["0", "-2"])
def test_max_order_below_one_exits_one_with_range_error(tmp_path, command, max_order):
    # the report read lower 0, upper 1 with no order tested
    a, b = tmp_path / "a.pres", tmp_path / "b.pres"
    a.write_text("ring Q[x]\ngraded\nideal: x^2\ntuple: x\n")
    b.write_text("ring Q[x]\ngraded\nideal: x^3\ntuple: x\n")
    code, out, _ = _capture([command, str(a), str(b), "--max-order", max_order])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "RangeError"
    code, out, _ = _capture([command, str(a), str(b), "--max-order", "1"])
    assert code == 0


def test_residue_field_of_a_non_regular_ring_reports_no_pd(tmp_path):
    p = tmp_path / "x10.pres"
    p.write_text("ring Q[x]\ngraded\nideal: x^10\n")
    code, out, _ = _capture(["resolve", str(p), "--residue-field"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["complete"] is False and result["pd"] is None
    code, out, _ = _capture(["resolve", f"{INPUTS}/plane.pres", "--residue-field"])
    result = json.loads(out)["result"]
    assert result["complete"] is True and result["pd"] == 2


@pytest.mark.parametrize("tail", ["0", "-1", "-3"])
def test_limit_tail_below_one_exits_one_with_range_error(tail):
    code, out, _ = _capture(["limit", "--template", f"{INPUTS}/family.tmpl",
                             "--range", "1..10", "--order", "3", "--tail", tail])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "RangeError"


@pytest.mark.parametrize("trace, window, size", [
    ("delta0", "2..2002", 2001), ("eps0", "2..2002", 2001), ("hilbert", "2..63", 2015)])
def test_slope_trace_above_the_cap_exits_one_and_cap_lifts_it(trace, window, size):
    # one number per order for delta0 and eps0, n per order n for hilbert
    argv = ["slopes", f"{INPUTS}/plane.pres", "--which", "trace",
            "--trace-of", trace, "--window", window]
    code, out, _ = _capture(argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "CapacityError"
    assert f"trace size {size} exceeds capacity 2000" in error["message"]
    code, out, _ = _capture(argv + ["--cap", str(size)])
    assert code == 0
    assert len(json.loads(out)["result"]["values"]) == int(window.split("..")[1]) - 1


def test_usage_failure_exits_two():
    code, _, err = _capture(["slopes", f"{INPUTS}/plane.pres",
                             "--which", "delta0"])  # missing --order
    assert code == 2
    assert "order" in err


MISSING = f"{INPUTS}/no-such-file.pres"
# the text of each malformed input an argv names in capitals
MALFORMED = {"JUNK": b"ring Q[x]\n\xff\xfe\x00junk",  # not UTF-8
             "BAD": b"ring Q[x]\ngraded\nideal: %\n"}  # a syntax error


def _malformed(tmp_path, argv):
    """argv with each name of MALFORMED replaced by a file of its text."""
    for name, text in MALFORMED.items():
        (tmp_path / name).write_bytes(text)
    return [str(tmp_path / a) if a in MALFORMED else a for a in argv]


# the inputs are read and parsed in argument order, so the first bad one is
# reported: a missing first file wins over a malformed second one
@pytest.mark.parametrize("argv", [
    ["jets", MISSING, "--order", "2"],
    ["distance", MISSING, "BAD", "--max-order", "2"],
], ids=["jets", "distance-first"])
def test_missing_file_exits_two(tmp_path, argv):
    code, out, err = _capture(_malformed(tmp_path, argv))
    assert (code, out) == (2, "")
    assert "no-such-file.pres" in err


def test_unknown_subcommand_exits_two():
    code, _, _ = _capture(["frobnicate"])
    assert code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jetmetric.cli", "jets",
         f"{INPUTS}/x2.pres", "--order", "3"],
        capture_output=True, text=True, cwd=ROOT, env=src_env())
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["dim"] == 2


def test_syntax_error_payload_names_the_line(tmp_path):
    bad = tmp_path / "bad.pres"
    bad.write_text("ring Q[x]\ngraded\nideal: %\n")
    code, out, _ = _capture(["jets", str(bad), "--order", "2"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "PresentationSyntaxError"
    assert "line" in doc["error"]["message"] or "3" in doc["error"]["message"]


# a malformed first file wins over a missing second one
@pytest.mark.parametrize("argv, message", [
    (["jets", "JUNK", "--order", "2"], "JUNK is not UTF-8 text"),
    (["distance", f"{INPUTS}/x2.pres", "JUNK", "--max-order", "2"],
     "JUNK is not UTF-8 text"),
    (["distance", "BAD", MISSING, "--max-order", "2"], "unexpected character '%'"),
], ids=["jets", "distance-second", "distance-first"])
def test_binary_file_reports_structured_error(tmp_path, argv, message):
    # a non-UTF-8 input should get the JSON envelope, not a traceback
    code, out, _ = _capture(_malformed(tmp_path, argv))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "PresentationSyntaxError"
    assert message in doc["error"]["message"]
    assert doc["inputs"] == {}


def test_an_input_named_twice_is_listed_once():
    path = f"{INPUTS}/x2.pres"
    code, out, _ = _capture(["distance", path, path, "--max-order", "2"])
    assert code == 0
    assert list(json.loads(out)["inputs"]) == [path]


def test_negative_order_reports_structured_error():
    code, out, _ = _capture(
        ["jets", "docs/golden/inputs/cusp.pres", "--order", "-2"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "RangeError"


def test_deeply_nested_input_exits_one_without_traceback(tmp_path):
    deep = tmp_path / "deep.pres"
    deep.write_text("ring Q[x]\ngraded\nideal: " + "(" * 3000 + "x" + ")" * 3000 + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "jetmetric.cli", "jets", str(deep), "--order", "2"],
        capture_output=True, text=True, cwd=ROOT, env=src_env())
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "PresentationSyntaxError"


def test_closed_stdout_pipe_exits_one_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "jetmetric.cli", "jets", f"{INPUTS}/cusp.pres",
             "--order", "4"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=ROOT, env=src_env(),
            timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_oversized_power_exits_one_without_traceback(tmp_path):
    big = tmp_path / "big.pres"
    big.write_text("ring Q[x, y, z]\nideal: (x + y + z)^90\n")
    proc = subprocess.run(
        [sys.executable, "-m", "jetmetric.cli", "jets", str(big), "--order", "2"],
        capture_output=True, text=True, cwd=ROOT, env=src_env(), timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "PresentationSyntaxError"


def test_extension_field_past_the_order_bound_exits_one_with_field_error(tmp_path):
    # Rabin's test of this trinomial alone would take minutes; it never runs
    big = tmp_path / "big.pres"
    big.write_text("ring F_2^1000 minpoly a^1000 + a + 1 [x]\ngraded\nideal: x^2\n")
    start = time.process_time()
    code, out, _ = _capture(["jets", str(big), "--order", "2"])
    assert time.process_time() - start < 0.5
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "FieldError", "message": "F_2^1000 has more than 4294967296 elements"}


@pytest.mark.parametrize("argv", [
    ["resolve", f"{INPUTS}/fat-point.pres", "--residue-field", "--hcap", "0"],
    ["resolve", f"{INPUTS}/fat-point.pres", "--hcap", "0"],
    ["resolve", f"{INPUTS}/fat-point.pres", "--hcap", "0", "--dcap", "-7"],
    ["slopes", f"{INPUTS}/plane.pres", "--which", "trace", "--window", "5..3"],
    ["slopes", f"{INPUTS}/plane.pres", "--which", "trace", "--window", "0..3"],
    ["slopes", f"{INPUTS}/plane.pres", "--which", "delta0", "--order", "-1"],
    ["slopes", f"{INPUTS}/plane.pres", "--which", "eps0", "--order", "-2"],
])
def test_out_of_range_caps_and_windows_exit_one_with_range_error(argv):
    code, out, _ = _capture(argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "RangeError"


@pytest.mark.parametrize("caps", [["--dcap", "2"], ["--hcap", "1", "--dcap", "3"]])
def test_dcap_without_residue_field_is_a_usage_error(caps):
    # the quotient resolution takes no caps; --hcap alone stays accepted
    # there (the golden resolve.json passes --hcap 6)
    code, out, err = _capture(["resolve", f"{INPUTS}/fat-point.pres", *caps])
    assert code == 2
    assert out == "" and "--dcap requires --residue-field" in err
    code, _, _ = _capture(["resolve", f"{INPUTS}/fat-point.pres", "--residue-field", *caps])
    assert code == 0
    code, _, _ = _capture(["resolve", f"{INPUTS}/fat-point.pres", "--hcap", "1"])
    assert code == 0


@pytest.mark.parametrize("stride", ["-1", "0"])
def test_stride_below_one_is_a_usage_error(stride):
    code, _, err = _capture(["slopes", f"{INPUTS}/plane.pres", "--which", "trace",
                             "--window", "1..3", "--stride", stride])
    assert code == 2
    assert "--stride" in err


_SLOPES_USAGE = """\
usage: jetmetric slopes [-h] --which {delta0,eps0,rho,quasidim,trace}
                        [--order ORDER] [--trace-of {delta0,eps0,hilbert}]
                        [--window a..b] [--stride STRIDE] [--cap CAP]
                        file
"""
_RESOLVE_USAGE = """\
usage: jetmetric resolve [-h] [--residue-field] [--hcap HCAP] [--dcap DCAP]
                         [--cap CAP]
                         file
"""


@pytest.mark.parametrize("argv, usage, message", [
    (["resolve", f"{INPUTS}/fat-point.pres", "--dcap", "3"], _RESOLVE_USAGE,
     "jetmetric resolve: error: --dcap requires --residue-field"),
    (["slopes", f"{INPUTS}/plane.pres", "--which", "delta0"], _SLOPES_USAGE,
     "jetmetric slopes: error: --which delta0 requires --order"),
    (["slopes", f"{INPUTS}/plane.pres", "--which", "trace", "--window", "1..3",
      "--stride", "0"], _SLOPES_USAGE,
     "jetmetric slopes: error: --stride must be at least 1"),
    (["slopes", f"{INPUTS}/plane.pres", "--which", "trace"], _SLOPES_USAGE,
     "jetmetric slopes: error: --which trace requires --window a..b"),
], ids=["dcap", "order", "stride", "window"])
def test_a_handlers_usage_error_names_its_subcommand(monkeypatch, argv, usage, message):
    # as argparse reports the subcommand's own option errors
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _capture(argv)
    assert (code, out) == (2, "")
    assert err == usage + message + "\n"
    # the same usage line as argparse's own error for an option of it
    assert _capture(argv[:2] + ["--cap", "x"])[2].startswith(usage)


# ---------------------------------------------------------------------------
# one parser per process

TYPED_ERROR = ["slopes", f"{INPUTS}/plane.pres", "--which", "trace", "--window", "5..3"]
USAGE_ERROR = ["resolve", f"{INPUTS}/fat-point.pres", "--dcap", "3"]


def test_runs_after_the_first_build_no_parser(monkeypatch):
    _capture(["frobnicate"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert _capture(GOLDEN_COMMANDS["classify.json"])[0] == 0
    assert _capture(["frobnicate"])[0] == 2
    assert _capture(USAGE_ERROR)[0] == 2
    assert _capture(TYPED_ERROR)[0] == 1
    assert _capture(["euler", "--help"])[0] == 0
    assert built == []


def test_one_process_runs_every_golden_forward_and_back():
    # an option of one run must not reach the next: each golden's parameters
    # block is part of its bytes
    names = sorted(GOLDEN_COMMANDS)
    for order in (names, names[::-1]):
        for i, name in enumerate(order):
            if i == 3:
                code, out, err = _capture(USAGE_ERROR)
                assert (code, out) == (2, "")
                assert "--dcap requires --residue-field" in err
            if i == 6:
                code, out, _ = _capture(TYPED_ERROR)
                assert code == 1
                doc = json.loads(out)
                assert doc["error"]["type"] == "RangeError"
                assert doc["parameters"] == {"cap": poly.DEFAULT_CAPACITY, "stride": 1,
                                             "trace_of": "delta0", "which": "trace",
                                             "window": [5, 3]}
            code, out, _ = _capture(GOLDEN_COMMANDS[name])
            assert code == 0
            assert out == (GOLDEN / name).read_text()


def _help(parse, argv):
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", [["--help"], ["resolve", "--help"]])
def test_help_is_laid_out_at_the_width_when_printed(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "120")
    _capture(["frobnicate"])  # the shared parser exists before the width moves
    pages = []
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        page = _help(run, argv)
        assert page == _help(cli.build_parser().parse_args, argv)
        pages.append(page)
    assert pages[0] != pages[1]


def test_importing_the_cli_builds_no_parser():
    # set-up imports the package; the parser is built on the first run
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counting_init(self, *a, **k):\n"
             "    built.append(1)\n"
             "    init(self, *a, **k)\n"
             "argparse.ArgumentParser.__init__ = counting_init\n"
             "import jetmetric.cli\n"
             "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=ROOT, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
