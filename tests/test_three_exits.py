"""The three-exit rule, held by a seeded gate: every subcommand, run in-process
through `cli.run` on inputs drawn from a grammar of extremes, ends in exit 0,
in a typed error with exit 1 and a JSON ``error``, or in a usage exit 2.
Any other exception fails the gate, and so does a run that outlasts its
CPU-time alarm: a hang fails the test instead of stalling the suite.

The grammar reaches the guards of the input language and of the engines:
literals near MAX_INT_DIGITS and MAX_COEFF_BITS, primes up to
MAX_CHARACTERISTIC, extension fields near TABLE_MAX_ORDER given with their
minimal polynomials (so Rabin's test costs milliseconds), nesting at
MAX_NESTING and one past it, 12 and 13 variables, one-term powers of degree
20!, and large orders, windows, tails and extension degrees with small
efforts.  Extension fields past EXTENSION_MAX_ORDER are named without a
minimal polynomial, which the order bound refuses before any search.
`limit` templates put w in an exponent of the first or the last variable,
in a coefficient, or in the ring head (F_w).  `--cap` stays at or below its
default: raising it is the user lifting the guard.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from jetmetric import cli
from jetmetric.exactcore import EXTENSION_MAX_ORDER, MAX_CHARACTERISTIC
from jetmetric.poly import DEFAULT_CAPACITY
from jetmetric.presentation import MAX_COEFF_BITS, MAX_INT_DIGITS, MAX_NESTING

from conftest import CpuLimitExceeded, cpu_limit

SEED = 20261020
DRAWN_CASES = 400
RUN_CPU_SECONDS = 3.0

FACTORIAL_20 = "*".join(str(k) for k in range(2, 21))
# the largest prime below MAX_CHARACTERISTIC, the least composite that
# Miller-Rabin with the prime bases up to 41 takes for a prime
PRIME_BELOW_MAX = 3317044064679887385961813

# ring statement heads with literals of their field
RINGS = [
    ("Q", ["1", "-1", "1/2", "3"]),
    ("F_2", ["1"]),
    ("F_32003", ["1", "2", "-1"]),
    (f"F_{PRIME_BELOW_MAX}", ["1", "2"]),
    (f"F_{MAX_CHARACTERISTIC}", ["1"]),
    # at TABLE_MAX_ORDER (log tables) and past it (digit arithmetic)
    ("F_2^12 minpoly a^12 + a^3 + 1", ["1", "a", "(1 + a)"]),
    ("F_2^13 minpoly a^13 + a^4 + a^3 + a + 1", ["1", "a"]),
    ("F_3^7 minpoly a^7 + a^2 + 2", ["1", "a", "2*a"]),
    ("F_67^2 minpoly a^2 + 1", ["1", "a"]),
    ("F_2^32 minpoly a^32 + a^7 + a^3 + a^2 + 1", ["1", "a"]),
    # past EXTENSION_MAX_ORDER, refused before the canonical search
    (f"F_2^{EXTENSION_MAX_ORDER.bit_length()}", ["1", "a"]),
    ("F_65537^2", ["1", "a"]),
]
# where a limit template puts w
TEMPLATE_SHAPES = ["exponent", "second exponent", "coefficient", "ring"]
NVARS = [1, 2, 3, 12, 13]
CAPS = [10, 200, DEFAULT_CAPACITY]
BIG = [10**6, 10**18]


def _names(nvars):
    return ["x", "y", "z"][:nvars] if nvars <= 3 else [f"v{i}" for i in range(nvars)]


def _small(rng, names, pool, homogeneous):
    """A polynomial of 1-3 terms with literals of the field."""
    deg = rng.randint(1, 4)
    terms = []
    for _ in range(rng.randint(1, 3)):
        exps = [0] * len(names)
        for _ in range(deg if homogeneous else rng.randint(1, 4)):
            exps[rng.randrange(len(names))] += 1
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)
        terms.append(f"{rng.choice(pool)}*{mono}")
    return " + ".join(terms)


def _generator(rng, names, pool, homogeneous):
    v = rng.choice(names)
    kind = rng.choice(["small"] * 6 + ["digits", "bits", "nesting", "power"])
    if kind == "digits":
        return "9" * (MAX_INT_DIGITS + rng.randint(0, 1)) + f"*{v}"
    if kind == "bits":
        return f"2^{MAX_COEFF_BITS - rng.randint(0, 1)}*{v}"
    if kind == "nesting":
        k = MAX_NESTING + rng.randint(0, 1)
        return "(" * k + f"{v}^2" + ")" * k
    if kind == "power":
        return f"{v}^({FACTORIAL_20})"
    return _small(rng, names, pool, homogeneous)


def _presentation(rng, template=False):
    """Presentation text from the grammar; a template has w in one of the
    TEMPLATE_SHAPES."""
    shape = rng.choice(TEMPLATE_SHAPES) if template else None
    head, pool = ("F_w", ["1", "2"]) if shape == "ring" else rng.choice(RINGS)
    names = _names(rng.choice(NVARS))
    mode = rng.choice(["local", "graded"])
    gens = [_generator(rng, names, pool, mode == "graded")
            for _ in range(rng.randint(0, 3))]
    c, x, y = rng.choice(pool), names[0], names[-1]
    if shape == "second exponent":
        gens.append(f"{x}^2 + {c}*{y}^w")
    elif shape == "coefficient":
        gens.append(f"w*{x}^2 + {c}*{y}^3")
    elif shape is not None:
        gens.append(f"{x}^w + {c}*{y}^2")
    text = f"ring {head}[{', '.join(names)}]\n{mode}\nideal: {', '.join(gens)};\n"
    if rng.random() < 0.5:
        text += f"tuple: {', '.join(names[:2])}\n"
    return text


def _searchy(rng):
    return ["--ext", str(rng.choice([1, 2, *BIG])),
            "--effort", str(rng.choice([1, 10, 100])),
            "--cap", str(rng.choice(CAPS))]


def _argv(rng, a, b, t):
    """One command line over the files a and b and the template t."""
    sub = rng.choice(["jets", "hilbert", "distance", "defpair-distance", "slopes",
                      "resolve", "classify", "euler", "limit"])
    cap = ["--cap", str(rng.choice(CAPS))]
    if sub == "jets":
        return [sub, a, "--order", str(rng.choice([0, 1, 3, *BIG]))] + cap
    if sub == "hilbert":
        return [sub, a] + rng.choice([[], ["--prefix-len", str(rng.choice([0, 10, *BIG]))]])
    if sub in ("distance", "defpair-distance"):
        return [sub, a, b, "--max-order", str(rng.choice([1, 3, *BIG]))] + _searchy(rng)
    if sub == "slopes":
        which = rng.choice(["delta0", "eps0", "rho", "quasidim", "trace"])
        argv = [sub, a, "--which", which] + cap
        if which in ("delta0", "eps0") and rng.random() < 0.9:
            argv += ["--order", str(rng.choice([2, 10, *BIG]))]
        if which == "trace":
            argv += ["--trace-of", rng.choice(["delta0", "eps0", "hilbert"]),
                     "--window", rng.choice(["1..10", f"1..{BIG[1]}", "5..1"]),
                     "--stride", str(rng.choice([1, 3, BIG[1]]))]
        return argv
    if sub == "resolve":
        argv = [sub, a, "--hcap", str(rng.choice([1, 6, *BIG]))] + cap
        if rng.random() < 0.5:
            argv.append("--residue-field")
        if rng.random() < 0.3:
            argv += ["--dcap", str(rng.choice([2, BIG[1]]))]
        return argv
    if sub == "classify":
        return [sub, a] + cap
    if sub == "euler":
        return [sub, a]
    return [sub, "--template", t, "--range", rng.choice(["1..10", f"1..{BIG[1]}", "5..1"]),
            "--order", str(rng.choice([1, 3, *BIG])),
            "--tail", str(rng.choice([1, 3, *BIG]))] + _searchy(rng)


def _outcome(argv):
    """(exit code, report or None) of one in-process run under the alarm."""
    out = io.StringIO()
    with cpu_limit(RUN_CPU_SECONDS), redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as exc:   # argparse and handler usage errors
            code = exc.code
    return code, json.loads(out.getvalue()) if code in (0, 1) else None


def _violation(argv):
    """None when the run ends in one of the three exits, else what it did."""
    try:
        code, report = _outcome(argv)
    except CpuLimitExceeded as e:
        return f"hang: {e}"
    except Exception as e:
        return f"{type(e).__name__}: {str(e)[:200]}"
    if code == 0 and "result" in report and "error" not in report:
        return None
    if code == 1 and set(report.get("error", ())) == {"type", "message"}:
        return None
    if code == 2:
        return None
    return f"exit {code!r}"


def _files(tmp_path, texts):
    paths = []
    for name, text in zip(("a.pres", "b.pres", "t.tmpl"), texts):
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    return paths


def test_drawn_inputs_end_in_one_of_three_exits(tmp_path):
    rng = random.Random(SEED)
    failures = []
    for i in range(DRAWN_CASES):
        texts = [_presentation(rng), _presentation(rng), _presentation(rng, template=True)]
        argv = _argv(rng, *_files(tmp_path, texts))
        bad = _violation(argv)
        if bad:
            failures.append((i, argv, texts, bad))
    assert not failures, "\n".join(map(repr, failures))


# the inputs of two faults the gate's grammar found: rho's scan bound grew
# factorially with the dimension, and a one-term power of degree 20! made
# the Hilbert numerator a list of 2^61 entries
V12 = ", ".join(f"v{i}" for i in range(12))
PINNED = {
    "v12_local": (f"ring Q[{V12}]\nlocal\nideal: v0^2\n", None),
    "v12_graded": (f"ring Q[{V12}]\ngraded\nideal: ;\n", None),
    "power_graded": (f"ring Q[x]\ngraded\nideal: x^({FACTORIAL_20})\n", "CapacityError"),
    "power_local": (f"ring Q[x]\nlocal\nideal: x^({FACTORIAL_20})\n", "CapacityError"),
}
PINNED_COMMANDS = {
    "v12_local": [["slopes", "--which", "rho"], ["slopes", "--which", "quasidim"]],
    "v12_graded": [["slopes", "--which", "rho"], ["slopes", "--which", "quasidim"]],
    "power_graded": [["hilbert"], ["euler"], ["classify"], ["resolve"],
                     ["slopes", "--which", "rho"], ["slopes", "--which", "quasidim"]],
    "power_local": [["slopes", "--which", "rho"], ["slopes", "--which", "quasidim"]],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_inputs_end_in_their_exits(tmp_path, name):
    text, error = PINNED[name]
    (path,) = _files(tmp_path, [text])
    for command in PINNED_COMMANDS[name]:
        argv = [command[0], path, *command[1:]]
        code, report = _outcome(argv)
        if error is None:
            assert code == 0, (argv, report)
        else:
            assert (code, report["error"]["type"]) == (1, error), argv
