"""Input language for finitely presented algebras.

A presentation is a short UTF-8 text: a ring statement, a mode statement
(``local`` or ``graded``), an ideal statement, and optionally a tuple
statement for deformation pairs.  Statements are separated by semicolons or
newlines and ``#`` starts a line comment:

    ring Q[x,y]
    local
    ideal: y^2 - x^3
    tuple: x

Fields are ``Q``, ``F_p`` for prime p, or ``F_p^m minpoly <poly in a>``.  In
extension-field presentations the name ``a`` is reserved for the generator of
the field and cannot be used as a variable.  Parameterized families replace
one integer literal by the placeholder ``w``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, log2
from typing import Optional, Sequence

from .errors import (
    ConstantTermError,
    GradingError,
    PresentationSyntaxError,
    RangeError,
)
from .exactcore import ExtensionField, Field, RationalField, finite_field, rationals
from .poly import DEFAULT_CAPACITY, Poly


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<sym>[\[\](),+\-*^/;:])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str          # IDENT | INT | SYM | NEWLINE
    text: str
    line: int
    col: int
    value: Optional[int] = None    # the integer an INT token spells


# Coefficients over Q are exact fractions; a numerator or denominator the
# parser builds may have at most this many bits.  A power is checked before
# it is taken, from a bound on its coefficients, so 3^100000000 costs
# nothing; a sum or product is checked after.
MAX_COEFF_BITS = 4 * DEFAULT_CAPACITY

# A decimal literal of at most this many digits has at most MAX_COEFF_BITS
# bits (10^3 < 2^10), and lies below the 4300-digit limit of int() on
# Python 3.11 and later.
MAX_INT_DIGITS = MAX_COEFF_BITS * 3 // 10


def _int_literal(text: str, line: int, col: int) -> int:
    """The value of a decimal literal, refused past MAX_INT_DIGITS digits."""
    if len(text) > MAX_INT_DIGITS:
        raise PresentationSyntaxError(
            f"integer literal of {len(text)} digits; at most {MAX_INT_DIGITS} "
            f"are allowed", line, col)
    return int(text)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PresentationSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "newline":
            tokens.append(Token("NEWLINE", "\n", line, col))
            line += 1
            col = 1
        else:
            if kind == "ident":
                tokens.append(Token("IDENT", tok, line, col))
            elif kind == "int":
                tokens.append(Token("INT", tok, line, col, _int_literal(tok, line, col)))
            elif kind == "sym":
                tokens.append(Token("SYM", tok, line, col))
            # whitespace and comments are dropped
            col += len(tok)
        pos = m.end()
    return tokens


def _split_statements(tokens: list[Token]) -> list[list[Token]]:
    statements: list[list[Token]] = []
    current: list[Token] = []
    for t in tokens:
        if t.kind == "NEWLINE" or (t.kind == "SYM" and t.text == ";"):
            if current:
                statements.append(current)
                current = []
        else:
            current.append(t)
    if current:
        statements.append(current)
    return statements


# ---------------------------------------------------------------------------
# polynomial expression parser (recursive descent)

# Each parenthesis level costs the recursive descent four stack frames, so
# the nesting bound keeps a parse far inside Python's recursion limit.
MAX_NESTING = 100

# Poly.pow squares and multiplies dense polynomials at one field multiply-add
# per pair of terms, so a power that fits in DEFAULT_CAPACITY terms can still
# cost seconds; a power needing more pair products than this is refused.
MAX_POWER_PRODUCTS = 100 * DEFAULT_CAPACITY


def _power_pair_count(nterms: int, e: int) -> int:
    """Upper bound on the pairs of terms Poly.pow multiplies for a base of
    nterms terms to the e, following its square-and-multiply loop with the
    bound C(nterms - 1 + j, j) on the terms of the base to the j."""
    def terms(j: int) -> int:
        return comb(nterms - 1 + j, j)

    total, done, sq = 0, 0, 1   # out is base^done, the square is base^sq
    while e:
        if e & 1:
            total += terms(done) * terms(sq)
            done += sq
        if e > 1:
            total += terms(sq) ** 2
            sq *= 2
        e >>= 1
    return total


def _power_coeff_log2(base: Poly) -> float:
    """log2 of max(S, D) for a polynomial over Q, with D the lcm of its
    denominators and S the absolute sum of the integer coefficients of
    D * base: every coefficient of base^e is an integer of absolute value at
    most S^e over a divisor of D^e, so its numerator and denominator have at
    most e * log2 max(S, D) + 1 bits."""
    coeffs = base.terms.values()
    den = lcm(*(c.denominator for c in coeffs))
    s = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs)
    return log2(max(s, den))


class _ExprParser:
    """Parses  expr := ['-'] term (('+'|'-') term)*
               term := factor ('*' factor)*
               factor := atom ['^' INT]
               atom := INT ['/' INT] | IDENT | '(' expr ')'
    into a Poly over the given field/variables."""

    def __init__(self, tokens: list[Token], start: int, field: Field,
                 varnames: Sequence[str], allow_generator: bool):
        self.tokens = tokens
        self.i = start
        self.field = field
        self.nvars = len(varnames)
        self.varpos = {v: i for i, v in enumerate(varnames)}
        self.allow_generator = allow_generator
        self.over_q = isinstance(field, RationalField)
        self.depth = 0

    def _peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _err(self, msg: str) -> PresentationSyntaxError:
        t = self._peek()
        if t is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            return PresentationSyntaxError(msg, last.line, last.col + len(last.text))
        return PresentationSyntaxError(msg, t.line, t.col)

    def _open_paren(self) -> bool:
        """Consume a '(' if one is next, refusing nesting past MAX_NESTING."""
        t = self._peek()
        if t is None or t.kind != "SYM" or t.text != "(":
            return False
        if self.depth == MAX_NESTING:
            raise PresentationSyntaxError(
                f"parentheses nested deeper than {MAX_NESTING}", t.line, t.col)
        self.depth += 1
        self.i += 1
        return True

    def _close_paren(self, msg: str) -> None:
        if not self._accept_sym(")"):
            raise self._err(msg)
        self.depth -= 1

    def _accept_sym(self, s: str) -> bool:
        t = self._peek()
        if t is not None and t.kind == "SYM" and t.text == s:
            self.i += 1
            return True
        return False

    def _check_coeffs(self, poly: Poly, monos, tok: Token) -> None:
        """Refuse at tok a coefficient of poly at one of monos with more than
        MAX_COEFF_BITS bits in its numerator or denominator (over Q only:
        residues and codes are reduced)."""
        if not self.over_q:
            return
        for m in monos:
            c = poly.terms.get(m)
            if c is not None and max(c.numerator.bit_length(),
                                     c.denominator.bit_length()) > MAX_COEFF_BITS:
                raise PresentationSyntaxError(
                    f"coefficient of more than {MAX_COEFF_BITS} bits "
                    f"({MAX_COEFF_BITS // DEFAULT_CAPACITY} x {DEFAULT_CAPACITY})",
                    tok.line, tok.col)

    def parse_expr(self) -> Poly:
        negate = False
        if self._accept_sym("-"):
            negate = True
        out = self.parse_term()
        if negate:
            out = out.scale(self.field.neg(self.field.one()))
        while True:
            sign = self._peek()
            if self._accept_sym("+"):
                out = out + (term := self.parse_term())
            elif self._accept_sym("-"):
                out = out - (term := self.parse_term())
            else:
                return out
            self._check_coeffs(out, term.terms, sign)

    def parse_term(self) -> Poly:
        out = self.parse_factor()
        while True:
            star = self._peek()
            if not self._accept_sym("*"):
                return out
            out = out * self.parse_factor()
            self._check_coeffs(out, out.terms, star)

    def parse_factor(self) -> Poly:
        base = self.parse_atom()
        caret = self._peek()
        if not self._accept_sym("^"):
            return base
        t = self._peek()
        if t is not None and t.kind == "INT":
            self.i += 1
            e = t.value
        elif self._open_paren():
            e = self._parse_int_expr()
            self._close_paren("expected ')' closing the exponent")
            if e < 0:
                raise PresentationSyntaxError(f"negative exponent {e}", t.line, t.col)
        else:
            raise self._err("expected integer exponent after '^'")
        # a t-term base to the e has at most C(t-1+e, e) terms
        nterms = len(base.terms)
        if nterms > 1 and comb(nterms - 1 + e, e) > DEFAULT_CAPACITY:
            raise PresentationSyntaxError(
                f"power of a {nterms}-term polynomial to {e} may have more than "
                f"{DEFAULT_CAPACITY} terms", caret.line, caret.col)
        if nterms > 1 and _power_pair_count(nterms, e) > MAX_POWER_PRODUCTS:
            raise PresentationSyntaxError(
                f"power of a {nterms}-term polynomial to {e} may need more than "
                f"{MAX_POWER_PRODUCTS} term products (100 x {DEFAULT_CAPACITY})",
                caret.line, caret.col)
        # log2 max(S, D) is 0 or at least 1, so e >= MAX_COEFF_BITS alone
        # refuses a growing base without a float product that could overflow
        lg = _power_coeff_log2(base) if self.over_q else 0
        if lg and (e >= MAX_COEFF_BITS or lg * e >= MAX_COEFF_BITS):
            raise PresentationSyntaxError(
                f"power may have a coefficient of more than {MAX_COEFF_BITS} bits "
                f"({MAX_COEFF_BITS // DEFAULT_CAPACITY} x {DEFAULT_CAPACITY})",
                caret.line, caret.col)
        return base.pow(e)

    def _parse_int_expr(self) -> int:
        """Constant integer arithmetic inside a parenthesized exponent."""
        out = -self._parse_int_term() if self._accept_sym("-") else self._parse_int_term()
        while True:
            if self._accept_sym("+"):
                out += self._parse_int_term()
            elif self._accept_sym("-"):
                out -= self._parse_int_term()
            else:
                return out

    def _parse_int_term(self) -> int:
        out = self._parse_int_atom()
        while self._accept_sym("*"):
            out *= self._parse_int_atom()
        return out

    def _parse_int_atom(self) -> int:
        t = self._peek()
        if t is not None and t.kind == "INT":
            self.i += 1
            return t.value
        if self._open_paren():
            v = self._parse_int_expr()
            self._close_paren("expected ')'")
            return v
        raise self._err("expected integer in exponent")

    def parse_atom(self) -> Poly:
        t = self._peek()
        if t is None:
            raise self._err("unexpected end of expression")
        if t.kind == "INT":
            self.i += 1
            num = t.value
            if self._accept_sym("/"):
                d = self._peek()
                if d is None or d.kind != "INT":
                    raise self._err("expected integer denominator after '/'")
                if not isinstance(self.field, RationalField):
                    raise PresentationSyntaxError(
                        "fraction coefficients are only allowed over Q", t.line, t.col)
                self.i += 1
                den = d.value
                if den == 0:
                    raise PresentationSyntaxError("zero denominator", d.line, d.col)
                return Poly.constant(self.field, self.nvars, Fraction(num, den))
            return Poly.constant(self.field, self.nvars, self.field.from_int(num))
        if t.kind == "IDENT":
            self.i += 1
            name = t.text
            if name in self.varpos:
                return Poly.variable(self.field, self.nvars, self.varpos[name])
            if name == "a" and self.allow_generator:
                return Poly.constant(self.field, self.nvars, self.field.generator())
            raise PresentationSyntaxError(f"unknown name {name!r}", t.line, t.col)
        if self._open_paren():
            inner = self.parse_expr()
            self._close_paren("expected ')'")
            return inner
        raise PresentationSyntaxError(f"unexpected token {t.text!r}", t.line, t.col)


def _parse_expr_list(tokens: list[Token], start: int, field: Field,
                     varnames: Sequence[str], allow_generator: bool) -> list[Poly]:
    """Comma-separated polyexprs running to the end of the statement."""
    out: list[Poly] = []
    parser = _ExprParser(tokens, start, field, varnames, allow_generator)
    while True:
        out.append(parser.parse_expr())
        t = parser._peek()
        if t is None:
            return out
        if t.kind == "SYM" and t.text == ",":
            parser.i += 1
            continue
        raise PresentationSyntaxError(f"unexpected token {t.text!r}", t.line, t.col)


# ---------------------------------------------------------------------------
# presentation


@dataclass
class Presentation:
    """A finitely presented algebra k[x_1..x_r]/I with a grading mode and an
    optional deformation tuple."""

    field: Field
    vars: tuple[str, ...]
    gens: list[Poly]
    mode: str                      # "local" | "graded"
    tuple: Optional[list[Poly]] = None

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def base_field(self) -> Field:
        return self.field

    def __eq__(self, other) -> bool:
        return (isinstance(other, Presentation)
                and self.field == other.field and self.vars == other.vars
                and self.gens == other.gens and self.mode == other.mode
                and self.tuple == other.tuple)


def _parse_field(tokens: list[Token], i: int) -> tuple[Field, int]:
    t = tokens[i] if i < len(tokens) else None
    if t is None or t.kind != "IDENT":
        raise PresentationSyntaxError("expected field after 'ring'",
                                      tokens[i - 1].line, tokens[i - 1].col)
    if t.text == "Q":
        return rationals(), i + 1
    m = re.fullmatch(r"F_([0-9]+)", t.text)
    if m is None:
        raise PresentationSyntaxError(f"unknown field {t.text!r}", t.line, t.col)
    p = _int_literal(m.group(1), t.line, t.col + 2)
    i += 1
    # optional ^ m minpoly <poly in a>
    if i < len(tokens) and tokens[i].kind == "SYM" and tokens[i].text == "^":
        i += 1
        if i >= len(tokens) or tokens[i].kind != "INT":
            raise PresentationSyntaxError("expected extension degree after '^'",
                                          tokens[i - 1].line, tokens[i - 1].col)
        deg = tokens[i].value
        i += 1
        if i >= len(tokens) or not (tokens[i].kind == "IDENT" and tokens[i].text == "minpoly"):
            raise PresentationSyntaxError("expected 'minpoly' after extension degree",
                                          tokens[i - 1].line, tokens[i - 1].col)
        i += 1
        # parse the minimal polynomial as a univariate expression in 'a' over F_p
        parser = _ExprParser(tokens, i, finite_field(p, 1), ("a",), allow_generator=False)
        mp_poly = parser.parse_expr()
        i = parser.i
        coeffs = [0] * (mp_poly.degree() + 1)
        for mono, c in mp_poly.terms.items():
            coeffs[mono[0]] = c
        return finite_field(p, deg, coeffs), i
    return finite_field(p, 1), i


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text; see the module docstring for the grammar."""
    tokens = _tokenize(text)
    statements = _split_statements(tokens)
    if not statements:
        raise PresentationSyntaxError("empty presentation", 1, 1)

    fld: Optional[Field] = None
    varnames: Optional[tuple[str, ...]] = None
    mode: Optional[str] = None
    gens: Optional[list[Poly]] = None
    tup: Optional[list[Poly]] = None

    for st in statements:
        head = st[0]
        if head.kind == "IDENT" and head.text == "ring":
            if fld is not None:
                raise PresentationSyntaxError("duplicate ring statement", head.line, head.col)
            fld, i = _parse_field(st, 1)
            if i >= len(st) or not (st[i].kind == "SYM" and st[i].text == "["):
                raise PresentationSyntaxError("expected '[' and variable list",
                                              st[i - 1].line, st[i - 1].col)
            i += 1
            names: list[str] = []
            expect_name = True
            while i < len(st):
                t = st[i]
                if expect_name:
                    if t.kind != "IDENT":
                        raise PresentationSyntaxError("expected variable name", t.line, t.col)
                    if t.text in names:
                        raise PresentationSyntaxError(f"duplicate variable {t.text!r}",
                                                      t.line, t.col)
                    if t.text == "a" and isinstance(fld, ExtensionField):
                        raise PresentationSyntaxError(
                            "'a' is reserved for the field generator", t.line, t.col)
                    names.append(t.text)
                    expect_name = False
                else:
                    if t.kind == "SYM" and t.text == ",":
                        expect_name = True
                    elif t.kind == "SYM" and t.text == "]":
                        i += 1
                        break
                    else:
                        raise PresentationSyntaxError("expected ',' or ']'", t.line, t.col)
                i += 1
            else:
                raise PresentationSyntaxError("unterminated variable list",
                                              head.line, head.col)
            if i != len(st):
                t = st[i]
                raise PresentationSyntaxError(f"unexpected token {t.text!r} after ring",
                                              t.line, t.col)
            if not names:
                raise PresentationSyntaxError("variable list is empty", head.line, head.col)
            varnames = tuple(names)
        elif head.kind == "IDENT" and head.text in ("local", "graded"):
            if len(st) > 1:
                t = st[1]
                raise PresentationSyntaxError(f"unexpected token {t.text!r}", t.line, t.col)
            if mode is not None:
                raise PresentationSyntaxError("duplicate mode statement", head.line, head.col)
            mode = head.text
        elif head.kind == "IDENT" and head.text in ("ideal", "tuple"):
            if fld is None or varnames is None:
                raise PresentationSyntaxError(f"'{head.text}' before ring statement",
                                              head.line, head.col)
            if len(st) < 2 or not (st[1].kind == "SYM" and st[1].text == ":"):
                raise PresentationSyntaxError(f"expected ':' after '{head.text}'",
                                              head.line, head.col)
            if head.text == "ideal":
                if gens is not None:
                    raise PresentationSyntaxError("duplicate ideal statement",
                                                  head.line, head.col)
                gens = ([] if len(st) == 2 else
                        _parse_expr_list(st, 2, fld, varnames,
                                         isinstance(fld, ExtensionField)))
            else:
                if tup is not None:
                    raise PresentationSyntaxError("duplicate tuple statement",
                                                  head.line, head.col)
                if len(st) == 2:
                    raise PresentationSyntaxError("tuple statement is empty",
                                                  head.line, head.col)
                tup = _parse_expr_list(st, 2, fld, varnames,
                                       isinstance(fld, ExtensionField))
        else:
            raise PresentationSyntaxError(f"unknown statement {head.text!r}",
                                          head.line, head.col)

    if fld is None or varnames is None:
        raise PresentationSyntaxError("missing ring statement", 1, 1)
    if mode is None:
        raise PresentationSyntaxError("missing mode statement ('local' or 'graded')", 1, 1)
    if gens is None:
        raise PresentationSyntaxError("missing ideal statement", 1, 1)

    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if not fld.is_zero(g.constant_term()):
            raise ConstantTermError("ideal generator has nonzero constant term")
    if mode == "graded":
        for g in gens:
            if not g.is_homogeneous():
                raise GradingError("graded presentation with non-homogeneous generator")
    if tup is not None:
        for g in tup:
            if g.is_zero() or not fld.is_zero(g.constant_term()):
                raise ConstantTermError("tuple entry must be nonzero with zero constant term")

    return Presentation(field=fld, vars=varnames, gens=gens, mode=mode, tuple=tup)


# ---------------------------------------------------------------------------
# printer


def _coeff_to_str(field: Field, c) -> tuple[str, bool]:
    """(text, negative) for a coefficient; text never carries a leading '-'."""
    if isinstance(field, RationalField):
        f: Fraction = c
        neg = f < 0
        f = -f if neg else f
        return (str(f.numerator) if f.denominator == 1
                else f"{f.numerator}/{f.denominator}"), neg
    return field.to_str(c), False


def poly_to_str(p: Poly, varnames: Sequence[str]) -> str:
    """Canonical text of a polynomial: terms in ascending graded-lex order."""
    if p.is_zero():
        return "0"
    field = p.field
    pieces: list[tuple[str, bool]] = []
    for mono, c in p.sorted_terms():
        ctext, neg = _coeff_to_str(field, c)
        varpart = "*".join(
            (v if e == 1 else f"{v}^{e}")
            for v, e in zip(varnames, mono) if e > 0
        )
        if not varpart:
            pieces.append((ctext, neg))
            continue
        if ctext == "1":
            pieces.append((varpart, neg))
        else:
            if "+" in ctext or "-" in ctext:
                ctext = f"({ctext})"
            pieces.append((f"{ctext}*{varpart}", neg))
    head, headneg = pieces[0]
    out = ("-" if headneg else "") + head
    for text, neg in pieces[1:]:
        out += (" - " if neg else " + ") + text
    return out


def _minpoly_to_str(minpoly: Sequence[int]) -> str:
    terms = []
    for i in range(len(minpoly) - 1, -1, -1):
        c = minpoly[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            pw = "a" if i == 1 else f"a^{i}"
            terms.append(pw if c == 1 else f"{c}*{pw}")
    return " + ".join(terms)


def print_presentation(p: Presentation) -> str:
    """Canonical text form; parse_presentation inverts this exactly."""
    f, names = p.field, ",".join(p.vars)
    if isinstance(f, ExtensionField):
        ring = f"ring F_{f.p}^{f.m} minpoly {_minpoly_to_str(f.minpoly)} [{names}]"
    else:
        ring = f"ring {f.label()}[{names}]"
    lines = [ring, p.mode]
    if p.gens:
        lines.append("ideal: " + ", ".join(poly_to_str(g, p.vars) for g in p.gens))
    else:
        lines.append("ideal: ;")
    if p.tuple is not None:
        lines.append("tuple: " + ", ".join(poly_to_str(g, p.vars) for g in p.tuple))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parameterized families


@dataclass
class FamilyTemplate:
    """Presentation text with an integer placeholder ``w`` and an inclusive
    range of admissible values."""

    body: str
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise RangeError(f"empty range [{self.lo}, {self.hi}]")


_PLACEHOLDER_RE = re.compile(r"\bw\b")


def instantiate_template(tpl: FamilyTemplate, w: int) -> Presentation:
    """Substitute the placeholder and parse; RangeError outside [lo, hi]."""
    if not (tpl.lo <= w <= tpl.hi):
        raise RangeError(f"w = {w} outside range [{tpl.lo}, {tpl.hi}]")
    text = _PLACEHOLDER_RE.sub(str(w), tpl.body)
    try:
        return parse_presentation(text)
    except PresentationSyntaxError as e:
        raise PresentationSyntaxError(f"at w = {w}: {e.message}", e.line, e.column) from e
