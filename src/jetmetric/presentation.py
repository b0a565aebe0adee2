"""Input language for finitely presented algebras.

A presentation is a short UTF-8 text: a ring statement, a mode statement
(``local`` or ``graded``), an ideal statement, and optionally a tuple
statement for deformation pairs.  Statements are separated by semicolons or
newlines and ``#`` starts a line comment.  One ``findall`` cuts the text
into tokens, each token its own string, and one loop groups them into
statements.  A cursor with an end sentinel walks each statement,
expressions included; an expression is built as a dict of terms, and each
generator becomes one Poly.  A token's line and column are computed only
for an error, from the lengths of the tokens before it:

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

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, log2
from string import ascii_letters, digits
from typing import Optional, Sequence

from .errors import (
    ConstantTermError,
    GradingError,
    PresentationSyntaxError,
    RangeError,
)
from .exactcore import Field, a_terms, finite_field, rationals
from .poly import DEFAULT_CAPACITY, Poly


# ---------------------------------------------------------------------------
# tokenizer

# One alternative per token kind, then any single character, so that one
# findall cuts the whole text into tokens and a token is its string.
_TOKEN_RE = re.compile(r"[ \t\r]+|#[^\n]*|[A-Za-z][A-Za-z0-9_]*|[0-9]+|[\s\S]")

# The kind of a token, read off its first character: dropped (whitespace and
# comments), a statement end (newline or ';'), or kept as it is.  A
# character of no kind is unexpected.
_SKIP, _END, _KEEP = range(3)
_KIND = {**dict.fromkeys(" \t\r#", _SKIP), "\n": _END, ";": _END,
         **dict.fromkeys(ascii_letters + digits + "[](),+-*^/:", _KEEP)}

# Coefficients over Q are exact fractions; a numerator or denominator the
# parser builds may have at most this many bits.  A power is checked before
# it is taken, from a bound on its coefficients, so 3^100000000 costs
# nothing; a sum or product is checked after.
MAX_COEFF_BITS = 4 * DEFAULT_CAPACITY
_COEFF_BITS = (f"coefficient of more than {MAX_COEFF_BITS} bits "
               f"({MAX_COEFF_BITS // DEFAULT_CAPACITY} x {DEFAULT_CAPACITY})")

# A decimal literal of at most this many digits has at most MAX_COEFF_BITS
# bits (10^3 < 2^10), and lies below the 4300-digit limit of int() on
# Python 3.11 and later.
MAX_INT_DIGITS = MAX_COEFF_BITS * 3 // 10
_LONG_LITERAL = "integer literal of {} digits; at most %d are allowed" % MAX_INT_DIGITS


def _line_col(tokens: list[str], k: int) -> tuple[int, int]:
    """The line and column at which tokens[k] starts: the tokens before it
    spell the text before it."""
    before = "".join(tokens[:k])
    return before.count("\n") + 1, len(before) - before.rfind("\n")


def _statements(text: str) -> tuple[list[str], list[tuple[list[str], int]]]:
    """The tokens of the text, and for each nonempty statement its kept
    tokens followed by the end sentinel "", with the index of the token that
    ends it.  A newline or ';' ends a statement; an unexpected character or
    an overlong integer literal is refused at the first one in the text."""
    tokens = _TOKEN_RE.findall(text)
    statements: list[tuple[list[str], int]] = []
    current: list[str] = []
    for k, tok in enumerate(tokens):
        kind = _KIND.get(tok[0])
        if kind == _KEEP:
            if len(tok) > MAX_INT_DIGITS and tok.isdigit():
                raise PresentationSyntaxError(_LONG_LITERAL.format(len(tok)),
                                              *_line_col(tokens, k))
            current.append(tok)
        elif kind == _END:
            if current:
                statements.append((current + [""], k))
                current = []
        elif kind is None:
            raise PresentationSyntaxError(f"unexpected character {tok!r}", *_line_col(tokens, k))
    if current:
        statements.append((current + [""], len(tokens)))
    return tokens, statements


# ---------------------------------------------------------------------------
# polynomial expression parser (recursive descent)

# Each parenthesis level costs the recursive descent four stack frames, so
# the nesting bound keeps a parse far inside Python's recursion limit.
MAX_NESTING = 100

# A power squares and multiplies dense polynomials at one field multiply-add
# per pair of terms, so a power that fits in DEFAULT_CAPACITY terms can still
# cost seconds; a power needing more pair products than this is refused.
MAX_POWER_PRODUCTS = 100 * DEFAULT_CAPACITY


def _power_pair_count(nterms: int, e: int) -> int:
    """Upper bound on the pairs of terms a power multiplies for a base of
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


def _power_coeff_log2(base: dict) -> float:
    """log2 of max(S, D) for the terms of a polynomial over Q, with D the lcm
    of its denominators and S the absolute sum of the integer coefficients
    of D * base: every coefficient of base^e is an integer of absolute value
    at most S^e over a divisor of D^e, so its numerator and denominator have
    at most e * log2 max(S, D) + 1 bits."""
    coeffs = base.values()
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

    over the field and variables set by :meth:`over`.  The cursor reads the
    token strings directly: the end sentinel "" matches no token text, is
    neither an INT (``isdigit``) nor an IDENT (``isidentifier``), and is
    false.  An expression is a term dict {exponent tuple: coefficient} with
    no zero coefficient, owned by whoever receives it; its terms stand in
    the order Poly arithmetic would give them."""

    def __init__(self, text_tokens: list[str], tokens: list[str], end: int):
        self.text_tokens, self.toks, self.end = text_tokens, tokens, end
        self.i, self.depth = 1, 0

    def over(self, field: Field, varnames: Sequence[str]) -> _Parser:
        """Read expressions over field in varnames from here on; ``a`` names
        the field's generator when the field has a minimal polynomial."""
        n = len(varnames)
        self.field, self.nvars, self.zero, self.one = field, n, (0,) * n, field.one()
        self.over_q = field.order is None
        # the one term each name spells
        self.names = {v: ((0,) * i + (1,) + (0,) * (n - 1 - i), self.one)
                      for i, v in enumerate(varnames)}
        if field.minpoly is not None:
            self.names["a"] = (self.zero, field.generator())
        return self

    def _where(self, j: int) -> tuple[int, int]:
        """The line and column of token j of the statement, or just past its
        last token when j is the sentinel's index: the walk back from the
        statement's end passes its kept tokens after token j."""
        past = j == len(self.toks) - 1
        tokens, k = self.text_tokens, self.end
        for _ in range(len(self.toks) - 1 - j + past):
            k -= 1
            while _KIND[tokens[k][0]] == _SKIP:
                k -= 1
        line, col = _line_col(tokens, k)
        return line, col + past * len(tokens[k])

    def _err(self, msg: str, j: Optional[int] = None) -> PresentationSyntaxError:
        """msg at token j of the statement (see :meth:`_where`), by default
        the next one."""
        return PresentationSyntaxError(msg, *self._where(self.i if j is None else j))

    def _take(self, text: str) -> bool:
        """Consume the next token if it is text."""
        taken = self.toks[self.i] == text
        self.i += taken
        return taken

    def _end(self, after: str = "") -> None:
        """Refuse any token left in the statement."""
        if t := self.toks[self.i]:
            raise self._err(f"unexpected token {t!r}{after}")

    def _open_paren(self) -> bool:
        """Consume a '(' if one is next, refusing nesting past MAX_NESTING."""
        if self.toks[self.i] != "(":
            return False
        if self.depth == MAX_NESTING:
            raise self._err(f"parentheses nested deeper than {MAX_NESTING}")
        self.i, self.depth = self.i + 1, self.depth + 1
        return True

    def _close_paren(self, msg: str) -> None:
        if not self._take(")"):
            raise self._err(msg)
        self.depth -= 1

    def _check_coeffs(self, terms: dict, monos, j: int) -> None:
        """Refuse at token j a coefficient of terms at one of monos with more
        than MAX_COEFF_BITS bits in its numerator or denominator (over Q
        only: residues and codes are reduced)."""
        for m in monos if self.over_q else ():
            c = terms.get(m)
            if c is not None and max(c.numerator.bit_length(),
                                     c.denominator.bit_length()) > MAX_COEFF_BITS:
                raise self._err(_COEFF_BITS, j)

    def _mul(self, a: dict, b: dict) -> dict:
        """The terms of the product, with the zero sums dropped at the end;
        with no two products on one monomial no sum is taken, and a product
        of nonzero field elements is nonzero.  A factor of the one object
        self.one is not multiplied by."""
        add, mul, one = self.field.add, self.field.mul, self.one
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(map(operator.add, m1, m2))
                c = c1 if c2 is one else c2 if c1 is one else mul(c1, c2)
                out[m] = add(out[m], c) if m in out else c
        return out if len(out) == len(a) * len(b) else \
            {m: c for m, c in out.items() if not self.field.is_zero(c)}

    def parse_exprs(self) -> list[Poly]:
        """Comma-separated expressions running to the end of the statement,
        one Poly each; none if it has ended."""
        if not self.toks[self.i]:
            return []
        out = [self.parse_expr()]
        while self._take(","):
            out.append(self.parse_expr())
        self._end()
        return [Poly(self.field, self.nvars, t) for t in out]

    def parse_expr(self) -> dict:
        toks, f = self.toks, self.field
        negate = self._take("-")
        out = self.parse_term()
        if negate:
            for m, c in out.items():
                out[m] = f.neg(c)
        while (sign := toks[self.i]) in ("+", "-"):
            j = self.i
            self.i += 1
            term = self.parse_term()
            for m, c in term.items():
                c = f.neg(c) if sign == "-" else c
                if m not in out:
                    out[m] = c
                elif f.is_zero(c := f.add(out[m], c)):
                    del out[m]          # where Poly addition drops a zero sum
                else:
                    out[m] = c
            self._check_coeffs(out, term, j)
        return out

    def parse_term(self) -> dict:
        out = self.parse_factor()
        while self.toks[self.i] == "*":
            j = self.i
            self.i += 1
            out = self._mul(out, self.parse_factor())
            self._check_coeffs(out, out, j)
        return out

    def parse_factor(self) -> dict:
        base = self.parse_atom()
        if self.toks[self.i] != "^":
            return base
        caret = self.i
        self.i += 1
        t = self.toks[self.i]
        if t.isdigit():
            self.i += 1
            e = int(t)
        elif self._open_paren():
            e = self._parse_int_expr()
            self._close_paren("expected ')' closing the exponent")
            if e < 0:
                raise self._err(f"negative exponent {e}", caret + 1)
        else:
            raise self._err("expected integer exponent after '^'")
        nterms = len(base)
        if nterms == 1:             # one term c*m: c^e m^e, never zero
            (m, c), = base.items()
            if c is self.one:       # no guard refuses a monomial
                return {tuple(e * k for k in m): c}
        # a t-term base to the e has at most C(t-1+e, e) terms
        if nterms > 1 and comb(nterms - 1 + e, e) > DEFAULT_CAPACITY:
            raise self._err(f"power of a {nterms}-term polynomial to {e} may have "
                            f"more than {DEFAULT_CAPACITY} terms", caret)
        if nterms > 1 and _power_pair_count(nterms, e) > MAX_POWER_PRODUCTS:
            raise self._err(f"power of a {nterms}-term polynomial to {e} may need more "
                            f"than {MAX_POWER_PRODUCTS} term products (100 x "
                            f"{DEFAULT_CAPACITY})", caret)
        # log2 max(S, D) is 0 or at least 1, so e >= MAX_COEFF_BITS alone
        # refuses a growing base without a float product that could overflow
        lg = _power_coeff_log2(base) if self.over_q else 0
        if lg and (e >= MAX_COEFF_BITS or lg * e >= MAX_COEFF_BITS):
            raise self._err("power may have a " + _COEFF_BITS, caret)
        if nterms == 1:
            return {tuple(e * k for k in m): self.field.pow(c, e)}
        # square and multiply, as Poly.pow does
        out = {self.zero: self.one}
        while e:
            if e & 1:
                out = self._mul(out, base)
            base = self._mul(base, base) if e > 1 else base
            e >>= 1
        return out

    def _parse_int_expr(self) -> int:
        """Constant integer arithmetic inside a parenthesized exponent."""
        out = -self._parse_int_term() if self._take("-") else self._parse_int_term()
        while (sign := self.toks[self.i]) in ("+", "-"):
            self.i += 1
            out += self._parse_int_term() if sign == "+" else -self._parse_int_term()
        return out

    def _parse_int_term(self) -> int:
        out = self._parse_int_atom()
        while self._take("*"):
            out *= self._parse_int_atom()
        return out

    def _parse_int_atom(self) -> int:
        t = self.toks[self.i]
        if t.isdigit():
            self.i += 1
            return int(t)
        if self._open_paren():
            v = self._parse_int_expr()
            self._close_paren("expected ')'")
            return v
        raise self._err("expected integer in exponent")

    def parse_atom(self) -> dict:
        j = self.i
        t = self.toks[j]
        if t in self.names:
            self.i += 1
            mono, c = self.names[t]
            return {mono: c}
        if t.isdigit():
            self.i += 1
            if not self._take("/"):
                c = self.field.from_int(int(t))
            elif not (d := self.toks[self.i]).isdigit():
                raise self._err("expected integer denominator after '/'")
            elif not self.over_q:
                raise self._err("fraction coefficients are only allowed over Q", j)
            elif int(d) == 0:
                raise self._err("zero denominator")
            else:
                self.i += 1
                c = Fraction(int(t), int(d))
            return {} if self.field.is_zero(c) else {self.zero: c}
        if t.isidentifier():
            raise self._err(f"unknown name {t!r}")
        if self._open_paren():
            inner = self.parse_expr()
            self._close_paren("expected ')'")
            return inner
        raise self._err(f"unexpected token {t!r}" if t else "unexpected end of expression")


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
    t = cur.toks[1]
    if not t.isidentifier():
        raise cur._err("expected field after 'ring'", 0)
    cur.i = 2
    if t == "Q":
        return rationals()
    m = re.fullmatch(r"F_([0-9]+)", t)
    if m is None:
        raise cur._err(f"unknown field {t!r}", 1)
    if len(m.group(1)) > MAX_INT_DIGITS:
        line, col = cur._where(1)
        raise PresentationSyntaxError(_LONG_LITERAL.format(len(m.group(1))), line, col + 2)
    p = int(m.group(1))
    if not cur._take("^"):
        return finite_field(p, 1)
    deg = cur.toks[cur.i]
    if not deg.isdigit():
        raise cur._err("expected extension degree after '^'", cur.i - 1)
    cur.i += 1
    if not cur._take("minpoly"):
        raise cur._err("expected 'minpoly' after extension degree", cur.i - 1)
    # the minimal polynomial, a univariate expression in 'a' over F_p
    mp = cur.over(finite_field(p, 1), ("a",)).parse_expr()
    coeffs = [0] * (max(map(sum, mp), default=0) + 1)
    for mono, c in mp.items():
        coeffs[mono[0]] = c
    return finite_field(p, int(deg), coeffs)


def _parse_vars(cur: _Parser, fld: Field) -> tuple[str, ...]:
    """The variable names after '[', through the closing ']'."""
    names: list[str] = []
    for j in range(cur.i, len(cur.toks) - 1, 2):    # a name, then ',' or ']'
        t, sep = cur.toks[j:j + 2]
        if not t.isidentifier():
            raise cur._err("expected variable name", j)
        if t in names:
            raise cur._err(f"duplicate variable {t!r}", j)
        if t == "a" and fld.minpoly is not None:
            raise cur._err("'a' is reserved for the field generator", j)
        names.append(t)
        cur.i = j + 2
        if sep == "]":
            return tuple(names)
        if sep not in (",", ""):
            raise cur._err("expected ',' or ']'", j + 1)
    raise cur._err("unterminated variable list", 0)


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text; see the module docstring for the grammar."""
    text_tokens, statements = _statements(text)
    if not statements:
        raise PresentationSyntaxError("empty presentation", 1, 1)

    fld: Optional[Field] = None
    varnames: Optional[tuple[str, ...]] = None
    mode: Optional[str] = None
    exprs: dict[str, list[Poly]] = {}       # of the ideal and tuple statements

    for tokens, end in statements:
        cur = _Parser(text_tokens, tokens, end)
        word = tokens[0]
        if word == "ring":
            if fld is not None:
                raise cur._err("duplicate ring statement", 0)
            fld = _parse_field(cur)
            if not cur._take("["):
                raise cur._err("expected '[' and variable list", cur.i - 1)
            varnames = _parse_vars(cur, fld)
            cur._end(" after ring")
        elif word in ("local", "graded"):
            cur._end()
            if mode is not None:
                raise cur._err("duplicate mode statement", 0)
            mode = word
        elif word in ("ideal", "tuple"):
            if fld is None:
                raise cur._err(f"'{word}' before ring statement", 0)
            if not cur._take(":"):
                raise cur._err(f"expected ':' after '{word}'", 0)
            if word in exprs:
                raise cur._err(f"duplicate {word} statement", 0)
            if word == "tuple" and not tokens[cur.i]:
                raise cur._err("tuple statement is empty", 0)
            exprs[word] = cur.over(fld, varnames).parse_exprs()
        else:
            raise cur._err(f"unknown statement {word!r}", 0)

    gens, tup = exprs.get("ideal"), exprs.get("tuple")
    for got, what in ((fld, "ring statement"), (mode, "mode statement ('local' or 'graded')"),
                      (gens, "ideal statement")):
        if got is None:
            raise PresentationSyntaxError(f"missing {what}", 1, 1)

    gens = [g for g in gens if not g.is_zero()]
    if any(not fld.is_zero(g.constant_term()) for g in gens):
        raise ConstantTermError("ideal generator has nonzero constant term")
    if mode == "graded" and not all(g.is_homogeneous() for g in gens):
        raise GradingError("graded presentation with non-homogeneous generator")
    if tup is not None and any(g.is_zero() or not fld.is_zero(g.constant_term()) for g in tup):
        raise ConstantTermError("tuple entry must be nonzero with zero constant term")

    return Presentation(field=fld, vars=varnames, gens=gens, mode=mode, tuple=tup)


# ---------------------------------------------------------------------------
# printer


def _coeff_to_str(field: Field, c) -> tuple[str, bool]:
    """(text, negative) for a coefficient; text never carries a leading '-'."""
    text = field.to_str(c)
    return text.lstrip("-"), text.startswith("-")


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


def print_presentation(p: Presentation) -> str:
    """Canonical text form; parse_presentation inverts this exactly."""
    f, names = p.field, ",".join(p.vars)
    if f.minpoly is not None:
        minpoly = " + ".join(reversed(a_terms(f.minpoly)))
        ring = f"ring F_{f.p}^{f.m} minpoly {minpoly} [{names}]"
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
