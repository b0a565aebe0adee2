import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric.errors import (ConstantTermError, FieldError, GradingError, JetMetricError,
                              PresentationSyntaxError, RangeError)
from jetmetric.exactcore import ExtensionField, PrimeField, finite_field, rationals
from jetmetric.presentation import (
    FamilyTemplate,
    Presentation,
    instantiate_template,
    parse_presentation,
    print_presentation,
)

from conftest import random_presentation_text


def test_parse_minimal_graded():
    p = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 + y^2")
    assert p.vars == ("x", "y")
    assert p.mode == "graded"
    assert len(p.gens) == 1
    assert p.field is rationals()


def test_parse_local_with_comment_and_blank_lines():
    text = """
# a cuspidal curve germ
ring Q[x, y]
local

ideal: y^2 - x^3
"""
    p = parse_presentation(text)
    assert p.mode == "local"
    assert p.gens[0].order() == 2


def test_parse_prime_and_extension_fields():
    p = parse_presentation("ring F_5[x]\ngraded\nideal: x^3")
    assert isinstance(p.field, PrimeField) and p.field.p == 5
    q = parse_presentation(
        "ring F_2^2 minpoly a^2 + a + 1[x, y]\ngraded\nideal: x*y")
    assert isinstance(q.field, ExtensionField)
    assert q.field.p == 2 and q.field.m == 2


@pytest.mark.parametrize("ring,message", [
    ("F_4", "4 is not prime"),
    ("F_2^1 minpoly a + 1", "extension degree must be at least 2 (use a prime field)"),
    ("F_2^0 minpoly 1", "extension degree must be at least 2 (use a prime field)"),
    ("F_2^2 minpoly a^2 + 1", "minimal polynomial [1, 0, 1] is reducible over F_2"),
    ("F_2^3 minpoly a^2 + a + 1", "minimal polynomial must be monic of degree m"),
])
def test_field_errors_are_pinned(ring, message):
    with pytest.raises(FieldError) as err:
        parse_presentation(f"ring {ring} [x]\ngraded\nideal: x^2")
    assert str(err.value) == message


def test_parsed_fields_are_the_cached_fields():
    assert parse_presentation("ring F_5[x]\ngraded\nideal: x^3").field is finite_field(5, 1)
    # a minimal polynomial other than the canonical a^4 + a + 1 names another
    # field of the same order, and the printed text names it again
    p = parse_presentation("ring F_2^4 minpoly a^4 + a^3 + 1 [x, y]\ngraded\nideal: x^2 + a*y^2")
    assert p.field != finite_field(2, 4) and p.field.label() == "F_2^4"
    assert p.field is finite_field(2, 4, (1, 0, 0, 1, 1))
    text = print_presentation(p)
    assert text.startswith("ring F_2^4 minpoly a^4 + a^3 + 1 [x,y]\n")
    assert parse_presentation(text) == p


def test_parse_empty_ideal_and_tuple():
    p = parse_presentation("ring Q[x]\ngraded\nideal: ;\ntuple: x")
    assert p.gens == []
    assert p.tuple is not None and len(p.tuple) == 1


def test_semicolon_terminates_statements():
    p = parse_presentation("ring Q[x, y]; graded; ideal: x^2, y^2")
    assert len(p.gens) == 2


def test_rational_coefficients_and_parenthesized_exponents():
    p = parse_presentation("ring Q[x]\nlocal\nideal: 1/2*x^2 - x^(2+1)")
    g = p.gens[0]
    assert g.terms[(2,)] == Fraction(1, 2)
    assert g.terms[(3,)] == Fraction(-1)


@pytest.mark.parametrize("bad", [
    "graded\nideal: x",                        # missing ring statement
    "ring Q[x]\nideal: x",                     # missing mode
    "ring Q[x]\ngraded\nideal: x^2; x*y",      # ';' ends the statement
    "ring Q[x]\ngraded\nideal: y",             # unknown variable
    "ring Q[x]\ngraded\nideal: x^-2",          # negative exponent
    "ring Q[x]\ngraded\nideal: 1/0*x",         # zero denominator
])
def test_syntax_errors(bad):
    with pytest.raises(PresentationSyntaxError):
        parse_presentation(bad)


def test_nonprime_field_modulus_rejected():
    from jetmetric.errors import FieldError
    with pytest.raises(FieldError):
        parse_presentation("ring F_4[x]\ngraded\nideal: x")


def test_error_carries_line_and_column():
    try:
        parse_presentation("ring Q[x]\ngraded\nideal: x + %")
    except PresentationSyntaxError as e:
        assert e.line == 3
        assert e.column > 0
    else:
        pytest.fail("expected a syntax error")


Syntax = PresentationSyntaxError
LONG = "9" * 2401               # one digit past MAX_INT_DIGITS
R = "ring Q[x]\ngraded\n"
RF = "ring F_3[x]\ngraded\n"
RE = "ring F_2^2 minpoly a^2 + a + 1 [x]\ngraded\n"

# every refusal of the grammar: the error type, its message, and for syntax
# errors the line and column it names
PARSE_ERRORS = [
    # the tokenizer
    (R + "ideal: x + %", Syntax, "unexpected character '%'", 3, 12),
    (R + "ideal: xé", Syntax, "unexpected character 'é'", 3, 9),
    ("ring R[x]\ngraded\nideal: %", Syntax, "unexpected character '%'", 3, 8),
    (R + "ideal: " + LONG + "*x",
      Syntax, "integer literal of 2401 digits; at most 2400 are allowed", 3, 8),
    (R + "ideal: x +\n  2*x^2 @", Syntax, "unexpected character '@'", 4, 9),
    # the statement split
    ("", Syntax, "empty presentation", 1, 1),
    ("# only a comment\n\n ; ;\n", Syntax, "empty presentation", 1, 1),
    # the field
    ("ring", Syntax, "expected field after 'ring'", 1, 1),
    ("ring [x]\ngraded\nideal: x", Syntax, "expected field after 'ring'", 1, 1),
    ("ring 5[x]", Syntax, "expected field after 'ring'", 1, 1),
    ("ring R[x]\ngraded\nideal: x", Syntax, "unknown field 'R'", 1, 6),
    ("ring F_x[x]", Syntax, "unknown field 'F_x'", 1, 6),
    ("ring F_" + LONG + "[x]",
      Syntax, "integer literal of 2401 digits; at most 2400 are allowed", 1, 8),
    ("ring F_2^ [x]", Syntax, "expected extension degree after '^'", 1, 9),
    ("ring F_2^", Syntax, "expected extension degree after '^'", 1, 9),
    ("ring F_2^2 [x]", Syntax, "expected 'minpoly' after extension degree", 1, 10),
    ("ring F_2^2", Syntax, "expected 'minpoly' after extension degree", 1, 10),
    ("ring F_2^2 poly a^2 + a + 1 [x]",
      Syntax, "expected 'minpoly' after extension degree", 1, 10),
    ("ring F_2^2 minpoly", Syntax, "unexpected end of expression", 1, 19),
    ("ring F_2^2 minpoly [x]", Syntax, "unexpected token '['", 1, 20),
    ("ring F_2^2 minpoly b^2 + b + 1 [x]", Syntax, "unknown name 'b'", 1, 20),
    ("ring F_2^2 minpoly a^2 + a + 1/2 [x]",
      Syntax, "fraction coefficients are only allowed over Q", 1, 30),
    ("ring F_4^2 minpoly b [x]", FieldError, "4 is not prime", None, None),
    ("ring F_2^2 minpoly a^2 + a + 1\ngraded\nideal: x",
      Syntax, "expected '[' and variable list", 1, 30),
    ("ring F_2^2 minpoly a^2 + 1 [x]\ngraded\nideal: x",
      FieldError, "minimal polynomial [1, 0, 1] is reducible over F_2", None, None),
    # the ring statement
    ("ring Q[x]\nring Q[y]", Syntax, "duplicate ring statement", 2, 1),
    ("ring Q x", Syntax, "expected '[' and variable list", 1, 6),
    ("ring Q", Syntax, "expected '[' and variable list", 1, 6),
    ("ring Q[]", Syntax, "expected variable name", 1, 8),
    ("ring Q[,x]", Syntax, "expected variable name", 1, 8),
    ("ring Q[x,]", Syntax, "expected variable name", 1, 10),
    ("ring Q[x,1]", Syntax, "expected variable name", 1, 10),
    ("ring Q[x,x]", Syntax, "duplicate variable 'x'", 1, 10),
    ("ring F_2^2 minpoly a^2 + a + 1 [x,a]",
      Syntax, "'a' is reserved for the field generator", 1, 35),
    ("ring Q[x y]", Syntax, "expected ',' or ']'", 1, 10),
    ("ring Q[x", Syntax, "unterminated variable list", 1, 1),
    ("ring Q[", Syntax, "unterminated variable list", 1, 1),
    ("ring Q[x,", Syntax, "unterminated variable list", 1, 1),
    ("ring Q[x] y", Syntax, "unexpected token 'y' after ring", 1, 11),
    ("ring Q[x]]", Syntax, "unexpected token ']' after ring", 1, 10),
    # the statement heads
    ("ring Q[x]\nlocal graded", Syntax, "unexpected token 'graded'", 2, 7),
    ("ring Q[x]\nlocal\ngraded", Syntax, "duplicate mode statement", 3, 1),
    ("ideal: x", Syntax, "'ideal' before ring statement", 1, 1),
    ("tuple: x\nring Q[x]", Syntax, "'tuple' before ring statement", 1, 1),
    (R + "ideal x", Syntax, "expected ':' after 'ideal'", 3, 1),
    (R + "ideal", Syntax, "expected ':' after 'ideal'", 3, 1),
    (R + "ideal: x\ntuple x^2", Syntax, "expected ':' after 'tuple'", 4, 1),
    (R + "ideal: x\nideal: x^2", Syntax, "duplicate ideal statement", 4, 1),
    (R + "ideal: x\ntuple: x\ntuple: x", Syntax, "duplicate tuple statement", 5, 1),
    (R + "ideal: x\ntuple:", Syntax, "tuple statement is empty", 4, 1),
    (R + "ideal: x\ntuple: ;", Syntax, "tuple statement is empty", 4, 1),
    (R + "foo: x", Syntax, "unknown statement 'foo'", 3, 1),
    ("ring Q[x]\n: x", Syntax, "unknown statement ':'", 2, 1),
    ("ring Q[x]\n2", Syntax, "unknown statement '2'", 2, 1),
    # the expression lists
    (R + "ideal: x)", Syntax, "unexpected token ')'", 3, 9),
    (R + "ideal: x y", Syntax, "unexpected token 'y'", 3, 10),
    (R + "ideal: x,, x", Syntax, "unexpected token ','", 3, 10),
    (R + "ideal: x,", Syntax, "unexpected end of expression", 3, 10),
    (R + "ideal: x\ntuple: x,", Syntax, "unexpected end of expression", 4, 10),
    # expressions
    (R + "ideal: (x", Syntax, "expected ')'", 3, 10),
    (R + "ideal: x^", Syntax, "expected integer exponent after '^'", 3, 10),
    (R + "ideal: x^y", Syntax, "expected integer exponent after '^'", 3, 10),
    (R + "ideal: x^(y)", Syntax, "expected integer in exponent", 3, 11),
    (R + "ideal: x^(2", Syntax, "expected ')' closing the exponent", 3, 12),
    (R + "ideal: x^(2-3)", Syntax, "negative exponent -1", 3, 10),
    (R + "ideal: 1/x", Syntax, "expected integer denominator after '/'", 3, 10),
    (R + "ideal: 1/0*x", Syntax, "zero denominator", 3, 10),
    (RF + "ideal: 1/2*x", Syntax, "fraction coefficients are only allowed over Q", 3, 8),
    (RF + "ideal: 1/x", Syntax, "expected integer denominator after '/'", 3, 10),
    (R + "ideal: a*x", Syntax, "unknown name 'a'", 3, 8),
    (RE + "ideal: b*x", Syntax, "unknown name 'b'", 3, 8),
    (R + "ideal: x^2 + *", Syntax, "unexpected token '*'", 3, 14),
    (R + "ideal: " + "(" * 101 + "x" + ")" * 101,
      Syntax, "parentheses nested deeper than 100", 3, 108),
    ("ring Q[x,y,z]\ngraded\nideal: (x+y+z)^90",
      Syntax, "power of a 3-term polynomial to 90 may have more than 2000 terms", 3, 15),
    ("ring Q[x,y]\ngraded\nideal: x*(3^5000*3^5000)",
      Syntax, "coefficient of more than 8000 bits (4 x 2000)", 3, 17),
    # the missing statements
    ("graded\nideal: x", Syntax, "'ideal' before ring statement", 2, 1),
    ("ring Q[x]\nideal: x", Syntax, "missing mode statement ('local' or 'graded')", 1, 1),
    ("ring Q[x]\ngraded", Syntax, "missing ideal statement", 1, 1),
    ("local", Syntax, "missing ring statement", 1, 1),
    # the checks after the parse
    (R + "ideal: x + 1",
      ConstantTermError, "ideal generator has nonzero constant term", None, None),
    ("ring Q[x,y]\ngraded\nideal: x + y^2",
      GradingError, "graded presentation with non-homogeneous generator", None, None),
    (R + "ideal: x\ntuple: 0",
      ConstantTermError, "tuple entry must be nonzero with zero constant term", None, None),
    (R + "ideal: x\ntuple: x + 1",
      ConstantTermError, "tuple entry must be nonzero with zero constant term", None, None),
]


@pytest.mark.parametrize("text, kind, message, line, column", PARSE_ERRORS,
                         ids=[repr(row[0][:40]) for row in PARSE_ERRORS])
def test_parse_errors_are_pinned(text, kind, message, line, column):
    with pytest.raises(JetMetricError) as err:
        parse_presentation(text)
    e = err.value
    assert type(e) is kind
    if kind is Syntax:
        assert (e.message, e.line, e.column) == (message, line, column)
    else:
        assert (str(e), line, column) == (message, None, None)


def test_deep_nesting_is_a_syntax_error_not_a_recursion_error():
    from jetmetric.presentation import MAX_NESTING
    ok = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_presentation(f"ring Q[x]\ngraded\nideal: {ok}").gens[0].degree() == 1
    for expr in ["(" * 3000 + "x" + ")" * 3000,
                 "x^" + "(" * 3000 + "1" + ")" * 3000]:
        with pytest.raises(PresentationSyntaxError) as err:
            parse_presentation(f"ring Q[x]\ngraded\nideal: {expr}")
        assert err.value.line == 3 and err.value.column > MAX_NESTING


def test_power_with_too_many_terms_is_refused_at_the_caret():
    from jetmetric.poly import DEFAULT_CAPACITY
    ring = "ring Q[a,b,c,d,e,f,g,x,y,z]\ngraded\nideal: "
    # seven terms to the 7th: C(13, 7) = 1716 terms fit; to the 8th: C(14, 8) = 3003 do not
    assert len(parse_presentation(ring + "(a+b+c+d+e+f+g)^7").gens[0].terms) == 1716
    # a power within the term bound can still be too much work: (x+y+z)^60 has
    # 1891 terms but needs 284,352 term products, (x+y)^1998 needs 1,652,921
    for expr in ["(a+b+c+d+e+f+g)^8", "(x+y+z)^90", "(x+y+z)^(45*2)", "x*(x+y)^2001",
                 "(x+y+z)^60", "(x+y)^1998"]:
        start = time.process_time()
        with pytest.raises(PresentationSyntaxError) as err:
            parse_presentation(ring + expr)
        assert time.process_time() - start < 0.1
        assert (err.value.line, err.value.column) == (3, 8 + expr.index("^"))
        assert str(DEFAULT_CAPACITY) in str(err.value)
    # one term to any power is one term
    assert parse_presentation(ring + "(2*x)^5000").gens[0].degree() == 5000


BIG = "7" * 5000


@pytest.mark.parametrize("text, position", [
    (f"ring Q[x]\nlocal\nideal: {BIG}*x^2", (3, 8)),                  # coefficient
    (f"ring Q[x]\nlocal\nideal: x^{BIG}", (3, 10)),                   # exponent
    (f"ring F_1{'0' * 4997}07[x]\nlocal\nideal: x^2", (1, 8)),        # characteristic
])
def test_overlong_integer_literals_are_refused_at_their_position(text, position):
    # int() of more than 4300 digits raises ValueError on Python 3.11+;
    # the parser refuses the literal first, on every version
    from jetmetric.presentation import MAX_INT_DIGITS
    start = time.process_time()
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation(text)
    assert time.process_time() - start < 0.1
    assert (err.value.line, err.value.column) == position
    assert str(MAX_INT_DIGITS) in err.value.message
    digits = "9" * MAX_INT_DIGITS
    assert parse_presentation(f"ring Q[x]\nlocal\nideal: {digits}*x^2").gens[0] \
        .terms[(2,)] == int(digits)


@pytest.mark.parametrize("expr, guard", [
    ("3^100000000*x^2", "^"),               # one-term powers, before they are taken
    ("(1/3)^100000000*x^2", "^"),
    ("(2*x)^8000", "^"),
    ("(x + 1048576*y)^500", "^"),           # a power of a sum: (1 + 2^20)^500
    ("x*(3^5000*3^5000)", "*3"),            # a product
    ("(3^4000*x + 1)*(3^4000*y + 1)", "*("),
    ("x*((1/3)^2500 + (1/5)^2000)", "+"),   # a sum over a common denominator
])
def test_coefficient_bits_over_q_are_bounded(expr, guard):
    from jetmetric.poly import DEFAULT_CAPACITY
    from jetmetric.presentation import MAX_COEFF_BITS
    start = time.process_time()
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("ring Q[x, y]\nlocal\nideal: " + expr)
    assert time.process_time() - start < 1.0
    assert (err.value.line, err.value.column) == (3, 8 + expr.index(guard))
    assert f"{MAX_COEFF_BITS} bits" in err.value.message
    assert str(DEFAULT_CAPACITY) in err.value.message


def test_coefficients_below_the_bit_bound_are_exact():
    # the power over F_7 is a residue, however large the exponent
    assert parse_presentation("ring F_7[x]\nlocal\nideal: 3^100000000*x^2") \
        .gens[0].terms == {(2,): pow(3, 100000000, 7)}
    g = parse_presentation("ring Q[x, y]\nlocal\nideal: (2*x)^7999 + 3^5000*(1/5)^3000*y^2"
                           " + x*((1/3)^2000 + (1/5)^1000)").gens[0]
    assert g.terms == {(7999, 0): 2**7999, (0, 2): Fraction(3**5000, 5**3000),
                       (1, 0): Fraction(1, 3**2000) + Fraction(1, 5**1000)}


def test_print_parse_roundtrip_fixed_cases():
    texts = [
        "ring Q[x, y]\nlocal\nideal: y^2 - x^3",
        "ring F_3[x, y, z]\ngraded\nideal: x^2 + 2*y*z, z^3",
        "ring Q[x]\ngraded\nideal: ;",
        "ring Q[u, v]\nlocal\nideal: u*v\ntuple: u + v, v^2",
        "ring F_2^2 minpoly a^2 + a + 1[x]\ngraded\nideal: x^2",
    ]
    for t in texts:
        p = parse_presentation(t)
        assert parse_presentation(print_presentation(p)) == p


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_2", "F_3"]),
       st.integers(1, 3), st.sampled_from(["graded", "local"]))
@settings(max_examples=80, deadline=None)
def test_print_parse_roundtrip_random(seed, field, nvars, mode):
    import random
    text = random_presentation_text(random.Random(seed), field, nvars, mode)
    p = parse_presentation(text)
    assert parse_presentation(print_presentation(p)) == p


def test_template_instantiation_substitutes_placeholder():
    tpl = FamilyTemplate("ring Q[x, y]\nlocal\nideal: y^2 - x^w", 1, 10)
    p3 = instantiate_template(tpl, 3)
    assert p3.gens[0].terms[(3, 0)] == Fraction(-1)
    with pytest.raises(RangeError):
        instantiate_template(tpl, 11)
    with pytest.raises(RangeError):
        FamilyTemplate("ring Q[x]\nlocal\nideal: x^w", 5, 2)


def test_template_placeholder_in_arithmetic():
    tpl = FamilyTemplate("ring Q[x]\nlocal\nideal: x^(w+1)", 1, 4)
    assert instantiate_template(tpl, 2).gens[0].degree() == 3


def test_variable_named_w_is_not_substituted_inside_names():
    # only the standalone token w is a placeholder; ww stays a variable
    tpl = FamilyTemplate("ring Q[ww]\nlocal\nideal: ww^w", 2, 5)
    p = instantiate_template(tpl, 2)
    assert p.vars == ("ww",)
    assert p.gens[0].degree() == 2


def test_presentation_equality_ignores_nothing():
    a = parse_presentation("ring Q[x]\ngraded\nideal: x^2")
    b = parse_presentation("ring Q[x]\ngraded\nideal: x^2")
    c = parse_presentation("ring Q[x]\nlocal\nideal: x^2")
    assert a == b
    assert a != c
    assert isinstance(a, Presentation)
