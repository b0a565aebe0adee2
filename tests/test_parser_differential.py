"""The presentation parser against its reference, the parser it replaced
(tests/presentation_reference.py): every text must give equal
presentations, whose generators and tuple entries hold the same terms in the
same order with coefficients of the same type, or the same error, with its
type, message, line and column."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric.presentation import (MAX_COEFF_BITS, MAX_INT_DIGITS, MAX_NESTING,
                                    _PLACEHOLDER_RE, parse_presentation)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import presentation_reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import corpus  # noqa: E402


def outcome(parse, text):
    try:
        p = parse(text)
    except Exception as e:      # noqa: BLE001 -- any error must match
        return ("error", type(e), str(e), getattr(e, "line", None),
                getattr(e, "column", None))

    def terms(polys):
        return None if polys is None else [
            [(m, type(c), c) for m, c in g.terms.items()] for g in polys]
    return (p.field, p.vars, p.mode, [g.nvars for g in p.gens],
            terms(p.gens), terms(p.tuple))


def assert_same(text):
    assert outcome(parse_presentation, text) == \
        outcome(presentation_reference.parse_presentation, text), text


@pytest.mark.parametrize("seed", [corpus.DEFAULT_SEED, 1])
def test_the_corpus_texts_parse_as_before(seed):
    texts = [t for tri in corpus.distance_triples(seed) for t in tri]
    assert len(texts) == 600
    for text in texts:
        assert_same(text)


def _doc_texts():
    out = []
    for path in sorted((ROOT / "docs").rglob("*")):
        if path.suffix == ".pres":
            out.append(path.read_text())
        elif path.suffix == ".tmpl":
            body = path.read_text()
            out.append(body)        # the bare placeholder is an unknown name
            out += [_PLACEHOLDER_RE.sub(str(w), body) for w in (0, 1, 2, 5)]
    return out


def test_the_documented_inputs_parse_as_before():
    texts = _doc_texts()
    assert len(texts) >= 11
    for text in texts:
        assert_same(text)


LONG = "9" * MAX_INT_DIGITS

GUARDS = [
    # nesting depth, at the limit and one past it
    "(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
    "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
    "x^" + "(" * (MAX_NESTING + 1) + "2" + ")" * (MAX_NESTING + 1),
    # literal length, in an expression and in a field name
    LONG + "*x",
    LONG + "9*x",
    # fractions
    "1/2*x", "1/0*x", "1/*x", "3/00*x",
    # coefficient bits after a product and after a sum, over Q
    f"{LONG}*{LONG}*x",
    f"1/{LONG}*x + 1/{'7' * MAX_INT_DIGITS}*x",
    f"x - 1/{LONG}*y + 1/{'7' * MAX_INT_DIGITS}*y",
    # the power guards: terms, term products, coefficient bits
    "(x + y)^3000", "(x + y + 1)^70*x", "(x + 2*y)^5000",
    f"(2*x)^{MAX_COEFF_BITS}", "3^100000000*x", "(x - x)^0*x", "0^0*x",
    # exponents
    "x^(2 - 3)", "x^(2*(3 + 1) - -1)", "x^", "x^y", "x^(2", "x^(2*)",
    # cancellations that reorder the terms
    "x + y - x + x", "x*y - y*x + 2*x - x - x + y*x",
    "(x + y)*(x - y) + y^2 - x^2 + x", "-x - y + x",
]


@pytest.mark.parametrize("field", ["Q", "F_3", "F_2^3 minpoly a^3 + a + 1"])
@pytest.mark.parametrize("expr", GUARDS)
def test_every_guard_refuses_as_before(field, expr):
    assert_same(f"ring {field}[x, y]\nlocal\nideal: {expr}")


STATEMENT_ERRORS = [
    "", "# only a comment\n", "ring Q[x]", "local", "ring Q[x]\nlocal",
    "ring Q[x]\nring Q[x]", "ring\nlocal\nideal: x", "ring 3[x]", "ring R[x]",
    f"ring F_{'1' * (MAX_INT_DIGITS + 1)}[x]", "ring F_4[x]", "ring F_2^[x]",
    "ring F_2^2 [x]", "ring F_2^2 minpoly a^2 + a [x]", "ring F_2^2 minpoly a^2+a+1 x",
    "ring F_2^2 minpoly a^2 + a + 1 [a]", "ring Q[x, x]", "ring Q[x y]",
    "ring Q[x,", "ring Q[1]", "ring Q[x] y", "local x", "local\ngraded",
    "ideal: x\nring Q[x]", "ring Q[x]\nideal x", "ring Q[x]\ntuple:",
    "ring Q[x]\nlocal\nideal: x\nideal: x", "ring Q[x]\nlocal\nideal: x\ntuple: x\ntuple: x",
    "ring Q[x]\nlocal\nideal: x,", "ring Q[x]\nlocal\nideal: x x",
    "ring Q[x]\nlocal\nideal: x +", "ring Q[x]\nlocal\nideal: a",
    "ring Q[x]\nlocal\nideal: (x", "ring Q[x]\nlocal\nideal: )",
    "ring Q[x]\nlocal\nideal: x\nfoo", "ring Q[x] $\nlocal\nideal: z",
    "ring Q[x]\nlocal\nideal: z é", "ring Q[x]\nlocal\nideal: x _y",
    "ring Q[x]\r\nlocal\t\nideal:\tx;; tuple: x ; # ; ( \n",
    "ring Q[x]\nlocal\nideal: 1 + x", "ring Q[x]\ngraded\nideal: x + x^2",
    "ring Q[x]\nlocal\nideal: x\ntuple: 0", "ring Q[x]\nlocal\nideal: x - x, 0",
]


@pytest.mark.parametrize("text", STATEMENT_ERRORS)
def test_every_statement_refuses_as_before(text):
    assert_same(text)


# ---------------------------------------------------------------------------
# random valid texts, and the same texts with one character changed

FIELDS = ["Q", "F_2", "F_3", "F_101", "F_2^3 minpoly a^3 + a + 1",
          "F_3^2 minpoly a^2+1", "F_5^2 minpoly 1*a^2 + 2"]
NAMES = ["x", "y", "z", "u1", "v_2"]
EXPONENTS = ["0", "1", "2", "3", "(1+1)", "(2*2 - 1)", "(-1 + 2)", "( 3 )", "((2))"]


def expression(rng, field: str, names: list[str], depth: int = 0) -> str:
    """A sum of up to four products of up to three factors: a variable, an
    integer, a fraction over Q, the generator a over F_{p^m}, or a
    parenthesized expression, each maybe to a power."""
    consts = ["0", "1", "2", "3", "10"] + (["1/2", "3/4", "2/1"] if field == "Q" else []) \
        + (["a"] if "minpoly" in field else [])
    out = rng.choice(["", "-"])
    for k in range(rng.randint(1, 4)):
        if k:
            out += rng.choice([" + ", " - ", "+", "-"])
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randint(0, 5 if depth < 2 else 3)
            if kind <= 1:
                factor = rng.choice(names)
            elif kind <= 3:
                factor = rng.choice(consts)
            else:
                factor = "(" + expression(rng, field, names, depth + 1) + ")"
            if rng.randrange(4) == 0:
                factor += "^" + rng.choice(EXPONENTS)
            factors.append(factor)
        out += rng.choice(["*", " * "]).join(factors)
    return out


def presentation_text(rng) -> str:
    """A random valid text: the ring first, then the mode, the ideal and
    maybe a tuple in any order, between separators, blank lines and
    comments.  Half of the generators are a variable times an expression,
    of no constant term."""
    field = rng.choice(FIELDS)
    names = rng.sample(NAMES, rng.randint(1, 3))

    def gen():
        expr = expression(rng, field, names)
        return f"{rng.choice(names)}*({expr})" if rng.randrange(2) else expr
    statements = [rng.choice(["local", "graded"]),
                  "ideal: " + ", ".join(gen() for _ in range(rng.randint(1, 3)))]
    if rng.randrange(2):
        statements.append("tuple: " + ", ".join(gen() for _ in range(rng.randint(1, 2))))
    rng.shuffle(statements)
    seps = ["\n", ";", "\n\n", " ; \n", "  # a comment; here\n", "\n# note\n", "\t\r\n"]
    text = rng.choice(["", "# head\n", "\n"])
    for statement in [f"ring {field}[{', '.join(names)}]"] + statements:
        text += statement + rng.choice(seps)
    return text


presentation_texts = st.randoms(use_true_random=False).map(presentation_text)


@given(presentation_texts)
@settings(max_examples=200, deadline=None)
def test_random_texts_parse_as_before(text):
    assert_same(text)


EDIT_CHARS = list(" \t\n;#,:[]()+-*^/0123456789axyzQF_$é\x0b")


@given(presentation_texts, st.data())
@settings(max_examples=200, deadline=None)
def test_edited_texts_parse_as_before(text, data):
    pos = data.draw(st.integers(0, len(text)))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    ch = data.draw(st.sampled_from(EDIT_CHARS))
    if edit == "insert":
        text = text[:pos] + ch + text[pos:]
    elif edit == "delete":
        text = text[:pos] + text[pos + 1:]
    else:
        text = text[:pos] + ch + text[pos + 1:]
    assert_same(text)
