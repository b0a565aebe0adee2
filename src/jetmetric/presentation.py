"""Input language for finitely presented algebras.

A presentation is a short UTF-8 text: a ring statement, a mode statement
(``local`` or ``graded``), an ideal statement, and optionally a tuple
statement for deformation pairs.  Statements are separated by semicolons or
newlines and ``#`` starts a line comment.  One pass over the text splits it
into the tokens of each statement, and one cursor walks each statement,
expressions included:

    ring Q[x,y]
    local
    ideal: y^2 - x^3
    tuple: x

Fields are ``Q``, ``F_p`` for prime p, or ``F_p^m minpoly <poly in a>``.  In
extension-field presentations the name ``a`` is reserved for the generator of
the field and cannot be used as a variable.  The parser and the printer read
a field's description, never its class: Q is the field of no ``order``
(fraction literals, the coefficient-bit guard, signed coefficients), and a
field with a ``minpoly`` has the generator ``a``.  Parameterized families
replace one integer literal by the placeholder ``w``.
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
from .exactcore import Field, finite_field, rationals
from .poly import DEFAULT_CAPACITY, Poly


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<skip>[ \t\r]+|\#[^\n]*)
  | (?P<newline>\n)
  | (?P<IDENT>[A-Za-z][A-Za-z0-9_]*)
  | (?P<INT>[0-9]+)
  | (?P<SYM>[\[\](),+\-*^/;:])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str          # IDENT | INT | SYM
    text: str
    line: int
    col: int
    value: Optional[int] = None    # the integer an INT token spells

    def error(self, msg: str) -> PresentationSyntaxError:
        return PresentationSyntaxError(msg, self.line, self.col)


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


def _statements(text: str) -> list[list[Token]]:
    """The tokens of each nonempty statement, in one pass over the text:
    a newline or ';' ends a statement, whitespace and comments are dropped."""
    statements: list[list[Token]] = []
    current: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PresentationSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind, tok = m.lastgroup, m.group()
        if kind == "newline" or tok == ";":
            if current:
                statements.append(current)
                current = []
        elif kind == "INT":
            current.append(Token(kind, tok, line, col, _int_literal(tok, line, col)))
        elif kind != "skip":
            current.append(Token(kind, tok, line, col))
        if kind == "newline":
            line, col = line + 1, 1
        else:
            col += len(tok)
        pos = m.end()
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


class _Parser:
    """A cursor over the tokens of one statement, past its head (the first
    token), and the recursive descent of the expressions in it:

        expr := ['-'] term (('+'|'-') term)*
        term := factor ('*' factor)*
        factor := atom ['^' INT]
        atom := INT ['/' INT] | IDENT | '(' expr ')'

    into Polys over the field and variables set by :meth:`over`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.head = tokens[0]
        self.i = 1
        self.depth = 0

    def over(self, field: Field, varnames: Sequence[str]) -> _Parser:
        """Read expressions over field in varnames from here on; ``a`` names
        the field's generator when the field has a minimal polynomial."""
        self.field = field
        self.nvars = len(varnames)
        self.varpos = {v: i for i, v in enumerate(varnames)}
        self.over_q = field.order is None
        return self

    def _peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _accept(self, text: Optional[str] = None, kind: Optional[str] = None
                ) -> Optional[Token]:
        """The next token, consumed, if it spells text and is of kind (None
        matches any); None otherwise, or at the end of the statement."""
        t = self._peek()
        if t is None or text not in (None, t.text) or kind not in (None, t.kind):
            return None
        self.i += 1
        return t

    def _err(self, msg: str) -> PresentationSyntaxError:
        """msg at the next token, or just past the end of the statement."""
        t = self._peek()
        if t is None:
            last = self.tokens[-1]
            return PresentationSyntaxError(msg, last.line, last.col + len(last.text))
        return t.error(msg)

    def _err_prev(self, msg: str) -> PresentationSyntaxError:
        """msg at the token last consumed."""
        return self.tokens[self.i - 1].error(msg)

    def _end(self, after: str = "") -> None:
        """Refuse any token left in the statement."""
        t = self._peek()
        if t is not None:
            raise t.error(f"unexpected token {t.text!r}{after}")

    def _open_paren(self) -> bool:
        """Consume a '(' if one is next, refusing nesting past MAX_NESTING."""
        t = self._accept("(")
        if t is None:
            return False
        if self.depth == MAX_NESTING:
            raise t.error(f"parentheses nested deeper than {MAX_NESTING}")
        self.depth += 1
        return True

    def _close_paren(self, msg: str) -> None:
        if not self._accept(")"):
            raise self._err(msg)
        self.depth -= 1

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
                raise tok.error(
                    f"coefficient of more than {MAX_COEFF_BITS} bits "
                    f"({MAX_COEFF_BITS // DEFAULT_CAPACITY} x {DEFAULT_CAPACITY})")

    def parse_exprs(self) -> list[Poly]:
        """Comma-separated expressions running to the end of the statement;
        none if it has ended."""
        if self._peek() is None:
            return []
        out = [self.parse_expr()]
        while self._accept(","):
            out.append(self.parse_expr())
        self._end()
        return out

    def parse_expr(self) -> Poly:
        negate = self._accept("-")
        out = self.parse_term()
        if negate:
            out = out.scale(self.field.neg(self.field.one()))
        while True:
            if sign := self._accept("+"):
                out = out + (term := self.parse_term())
            elif sign := self._accept("-"):
                out = out - (term := self.parse_term())
            else:
                return out
            self._check_coeffs(out, term.terms, sign)

    def parse_term(self) -> Poly:
        out = self.parse_factor()
        while star := self._accept("*"):
            out = out * self.parse_factor()
            self._check_coeffs(out, out.terms, star)
        return out

    def parse_factor(self) -> Poly:
        base = self.parse_atom()
        caret = self._accept("^")
        if not caret:
            return base
        t = self._peek()
        if self._accept(kind="INT"):
            e = t.value
        elif self._open_paren():
            e = self._parse_int_expr()
            self._close_paren("expected ')' closing the exponent")
            if e < 0:
                raise t.error(f"negative exponent {e}")
        else:
            raise self._err("expected integer exponent after '^'")
        # a t-term base to the e has at most C(t-1+e, e) terms
        nterms = len(base.terms)
        if nterms > 1 and comb(nterms - 1 + e, e) > DEFAULT_CAPACITY:
            raise caret.error(
                f"power of a {nterms}-term polynomial to {e} may have more than "
                f"{DEFAULT_CAPACITY} terms")
        if nterms > 1 and _power_pair_count(nterms, e) > MAX_POWER_PRODUCTS:
            raise caret.error(
                f"power of a {nterms}-term polynomial to {e} may need more than "
                f"{MAX_POWER_PRODUCTS} term products (100 x {DEFAULT_CAPACITY})")
        # log2 max(S, D) is 0 or at least 1, so e >= MAX_COEFF_BITS alone
        # refuses a growing base without a float product that could overflow
        lg = _power_coeff_log2(base) if self.over_q else 0
        if lg and (e >= MAX_COEFF_BITS or lg * e >= MAX_COEFF_BITS):
            raise caret.error(
                f"power may have a coefficient of more than {MAX_COEFF_BITS} bits "
                f"({MAX_COEFF_BITS // DEFAULT_CAPACITY} x {DEFAULT_CAPACITY})")
        return base.pow(e)

    def _parse_int_expr(self) -> int:
        """Constant integer arithmetic inside a parenthesized exponent."""
        out = -self._parse_int_term() if self._accept("-") else self._parse_int_term()
        while True:
            if self._accept("+"):
                out += self._parse_int_term()
            elif self._accept("-"):
                out -= self._parse_int_term()
            else:
                return out

    def _parse_int_term(self) -> int:
        out = self._parse_int_atom()
        while self._accept("*"):
            out *= self._parse_int_atom()
        return out

    def _parse_int_atom(self) -> int:
        if t := self._accept(kind="INT"):
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
        if self._accept(kind="INT"):
            if not self._accept("/"):
                return Poly.constant(self.field, self.nvars, self.field.from_int(t.value))
            d = self._accept(kind="INT")
            if d is None:
                raise self._err("expected integer denominator after '/'")
            if not self.over_q:
                raise t.error("fraction coefficients are only allowed over Q")
            if d.value == 0:
                raise d.error("zero denominator")
            return Poly.constant(self.field, self.nvars, Fraction(t.value, d.value))
        if self._accept(kind="IDENT"):
            if t.text in self.varpos:
                return Poly.variable(self.field, self.nvars, self.varpos[t.text])
            if t.text == "a" and self.field.minpoly is not None:
                return Poly.constant(self.field, self.nvars, self.field.generator())
            raise t.error(f"unknown name {t.text!r}")
        if self._open_paren():
            inner = self.parse_expr()
            self._close_paren("expected ')'")
            return inner
        raise t.error(f"unexpected token {t.text!r}")


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


def _parse_field(cur: _Parser) -> Field:
    """The field after 'ring': Q, F_p, or F_p^m minpoly <poly in a>."""
    t = cur._accept(kind="IDENT")
    if t is None:
        raise cur._err_prev("expected field after 'ring'")
    if t.text == "Q":
        return rationals()
    m = re.fullmatch(r"F_([0-9]+)", t.text)
    if m is None:
        raise t.error(f"unknown field {t.text!r}")
    p = _int_literal(m.group(1), t.line, t.col + 2)
    if not cur._accept("^"):
        return finite_field(p, 1)
    deg = cur._accept(kind="INT")
    if deg is None:
        raise cur._err_prev("expected extension degree after '^'")
    if not cur._accept("minpoly"):
        raise cur._err_prev("expected 'minpoly' after extension degree")
    # the minimal polynomial, a univariate expression in 'a' over F_p
    mp_poly = cur.over(finite_field(p, 1), ("a",)).parse_expr()
    coeffs = [0] * (mp_poly.degree() + 1)
    for mono, c in mp_poly.terms.items():
        coeffs[mono[0]] = c
    return finite_field(p, deg.value, coeffs)


def _parse_vars(cur: _Parser, fld: Field) -> tuple[str, ...]:
    """The variable names after '[', through the closing ']'."""
    names: list[str] = []
    while t := cur._accept():
        if t.kind != "IDENT":
            raise t.error("expected variable name")
        if t.text in names:
            raise t.error(f"duplicate variable {t.text!r}")
        if t.text == "a" and fld.minpoly is not None:
            raise t.error("'a' is reserved for the field generator")
        names.append(t.text)
        t = cur._accept()
        if t is None:
            break
        if t.text == "]":
            return tuple(names)
        if t.text != ",":
            raise t.error("expected ',' or ']'")
    raise cur.head.error("unterminated variable list")


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text; see the module docstring for the grammar."""
    statements = _statements(text)
    if not statements:
        raise PresentationSyntaxError("empty presentation", 1, 1)

    fld: Optional[Field] = None
    varnames: Optional[tuple[str, ...]] = None
    mode: Optional[str] = None
    gens: Optional[list[Poly]] = None
    tup: Optional[list[Poly]] = None

    for st in statements:
        cur = _Parser(st)
        head = cur.head
        word = head.text        # a keyword is an IDENT: no SYM or INT spells one
        if word == "ring":
            if fld is not None:
                raise head.error("duplicate ring statement")
            fld = _parse_field(cur)
            if not cur._accept("["):
                raise cur._err_prev("expected '[' and variable list")
            varnames = _parse_vars(cur, fld)
            cur._end(" after ring")
        elif word in ("local", "graded"):
            cur._end()
            if mode is not None:
                raise head.error("duplicate mode statement")
            mode = word
        elif word in ("ideal", "tuple"):
            if fld is None:
                raise head.error(f"'{word}' before ring statement")
            if not cur._accept(":"):
                raise head.error(f"expected ':' after '{word}'")
            if word == "ideal":
                if gens is not None:
                    raise head.error("duplicate ideal statement")
                gens = cur.over(fld, varnames).parse_exprs()
            else:
                if tup is not None:
                    raise head.error("duplicate tuple statement")
                if cur._peek() is None:
                    raise head.error("tuple statement is empty")
                tup = cur.over(fld, varnames).parse_exprs()
        else:
            raise head.error(f"unknown statement {word!r}")

    if fld is None:
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
    if field.order is None:
        f: Fraction = c
        neg = f < 0
        f = -f if neg else f
        return (str(f.numerator) if f.denominator == 1
                else f"{f.numerator}/{f.denominator}"), neg
    return field.to_str(c), False


def mono_to_str(mono: Sequence[int], varnames: Sequence[str]) -> str:
    """The monomial with exponents mono, as x*y^2; "" for 1."""
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(varnames, mono) if e > 0)


def poly_to_str(p: Poly, varnames: Sequence[str]) -> str:
    """Canonical text of a polynomial: terms in ascending graded-lex order."""
    if p.is_zero():
        return "0"
    field = p.field
    pieces: list[tuple[str, bool]] = []
    for mono, c in p.sorted_terms():
        ctext, neg = _coeff_to_str(field, c)
        varpart = mono_to_str(mono, varnames)
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
    if f.minpoly is not None:
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
