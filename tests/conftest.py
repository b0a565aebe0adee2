import os
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from jetmetric.poly import Poly, mono_mul
from jetmetric.presentation import parse_presentation

# one line per acceptance criterion, printed after the run (see
# pytest_terminal_summary below) so the checklist survives output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checklist")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def src_env() -> dict:
    """The environment with this checkout's `src` first on PYTHONPATH, for
    the interpreters a test starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class CpuLimitExceeded(Exception):
    """A block run under `cpu_limit` used up its CPU time."""


@contextmanager
def cpu_limit(seconds: float):
    """Run the block under an alarm on this process's CPU time: past
    `seconds` the block raises CpuLimitExceeded, so a hang fails its test
    instead of stalling the suite."""
    def expired(signum, frame):
        raise CpuLimitExceeded(f"more than {seconds} s of CPU time")

    previous = signal.signal(signal.SIGPROF, expired)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


@pytest.fixture
def P():
    """Shorthand parser used all over the suite."""
    return parse_presentation


@pytest.fixture
def cusp():
    return parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^3")


@pytest.fixture
def plane():
    return parse_presentation("ring Q[x, y]\ngraded\nideal: ;")


@pytest.fixture
def quartic_cone():
    return parse_presentation("ring Q[x, y, z]\ngraded\nideal: x^4 + y^4 + z^4")


@pytest.fixture
def fat_point():
    return parse_presentation("ring Q[x, y]\ngraded\nideal: x^2, x*y, y^2")


# ---------------------------------------------------------------------------
# random presentation corpus, shared by property tests and the acceptance gate

_COEFFS = {"Q": ["1", "-1", "2", "-2", "3", "1/2"],
           "F_2": ["1"],
           "F_3": ["1", "2"],
           "F_4": ["1", "a", "(1+a)"],
           "F_16": ["1", "a", "(a+a^3)"],
           "F_1073741789": ["1", "-1", "2", "-2", "3"]}
# ring text of a field whose name is not its own ring statement
_RINGS = {"F_4": "F_2^2 minpoly a^2 + a + 1", "F_16": "F_2^4 minpoly a^4 + a + 1"}


def _mono_str(exps, names):
    parts = []
    for e, v in zip(exps, names):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def _random_mono(rng: random.Random, nvars: int, deg: int):
    exps = [0] * nvars
    for _ in range(deg):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_presentation_text(rng: random.Random, field: str, nvars: int,
                             mode: str, max_deg: int = 4, min_deg: int = 1) -> str:
    names = ["x", "y", "z"][:nvars]
    ngens = rng.randint(1, 3)
    gens = []
    for _ in range(ngens):
        if mode == "graded":
            deg = rng.randint(min_deg, max_deg)
            degs = [deg] * rng.randint(1, 3)
        else:
            degs = [rng.randint(min_deg, max_deg) for _ in range(rng.randint(1, 3))]
        terms = []
        for d in degs:
            mono = _random_mono(rng, nvars, d)
            coeff = rng.choice(_COEFFS[field])
            ms = _mono_str(mono, names)
            terms.append(ms if coeff == "1" else f"{coeff}*{ms}")
        expr = terms[0]
        for t in terms[1:]:
            expr += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        gens.append(expr)
    return (f"ring {_RINGS.get(field, field)}[{', '.join(names)}]\n{mode}\n"
            f"ideal: {', '.join(gens)}")


def random_presentation(rng: random.Random, field: str, nvars: int, mode: str,
                        max_deg: int = 4, min_deg: int = 1):
    return parse_presentation(
        random_presentation_text(rng, field, nvars, mode, max_deg, min_deg))


# ---------------------------------------------------------------------------
# dense references for the sparse algebra elements


def to_sparse(v):
    """The (index, value) pairs of the nonzero entries of the coordinate
    list v, ascending: the element form of `ArtinAlgebra`."""
    return [(i, c) for i, c in enumerate(v) if c]


def to_dense(A, v):
    """The coordinate list of the element v of A, one entry per basis
    monomial, for references that index coordinates."""
    out = [A.field.zero()] * A.dim
    for i, c in v:
        out[i] = c
    return out


def dense_product(A, u, v):
    """The product of the dense coordinates u and v in A, summed through the
    field's own operations from the normal form `reduce_monomial` gives for
    each pair of basis monomials: the reference `ArtinAlgebra.multiply` is
    checked against."""
    f = A.field
    out = [f.zero()] * A.dim
    for i, ci in enumerate(u):
        for j, cj in enumerate(v):
            c = f.mul(ci, cj)
            if f.is_zero(c):
                continue
            nf = to_dense(A, A.reduce_monomial(mono_mul(A.basis[i], A.basis[j])))
            out = [f.add(o, f.mul(c, w)) for o, w in zip(out, nf)]
    return out


# ---------------------------------------------------------------------------
# generators whose Macaulay rows exercise the row-form path: each generator
# is converted to the field's row form once, and its rows are shifts and
# truncations of that


def row_form_cases(F):
    """{name: (nvars, generators, cap)} over Q, F_3 or F_4.  Over Q the
    first has denominators and the second a truncated row of content 2
    (2*x^2 + 3*x^3 at cap 3 keeps 2*x^2); over F_3 and F_4 the same
    monomials carry the field's own values: 1/2 and 1/3 read as 2 and 1
    over F_3, as the codes 2 (a) and 3 (a + 1) over F_4, and 2 and 3 as
    from_int gives them."""
    half, third = {None: (Fraction(1, 2), Fraction(1, 3)), 3: (2, 1),
                   4: (2, 3)}[F.order]
    two, three = F.from_int(2), F.from_int(3)

    def gen(nvars, terms):
        return Poly(F, nvars, terms)

    x2, y3 = (2, 0), (0, 3)
    return {
        "denominators": (2, [gen(2, {x2: half, y3: third})], 6),
        "content_above_one": (1, [gen(1, {(2,): two, (3,): three})], 3),
        "zero_generator": (2, [gen(2, {}), gen(2, {(1, 1): half, y3: F.one()}),
                               gen(2, {})], 5),
        "order_at_the_cap": (2, [gen(2, {(3, 0): F.one(), (0, 4): third}),
                                 gen(2, {(5, 0): half}), gen(2, {x2: F.one(), y3: half})], 3),
        "denominators_truncated": (2, [gen(2, {x2: half, y3: third, (1, 3): two}),
                                       gen(2, {(1, 1): third, (0, 4): three})], 4),
    }
