"""Sparse multivariate polynomial arithmetic and a small expression parser.

A polynomial in ``nvars`` variables is stored as a map from exponent
vectors (tuples of non-negative ints, one entry per variable) to float
coefficients, e.g. ``{(2, 0): 1.0, (0, 1): -3.0}`` for ``x1^2 - 3*x2``.

Terms with coefficient exactly 0.0 are never stored, and the term map is
kept in graded-lexicographic order (total degree first, then the exponent
tuple, both descending) so iteration, evaluation and printing are
deterministic.  Values are immutable after construction and all
operations are pure functions; instances can be shared freely across
threads.

Evaluation is generated code.  `compile_family` turns a tuple of
polynomials in the same variables into one straight-line Python function
``x -> (values, scales)``, where a member's scale is the sum of its
|term|s at x.  The function unpacks x once, computes each power
``x_i ** k`` with k >= 2 once, uses ``x_i`` itself for k = 1, and spends
one statement per term: ``t = C[j] * ...; v += t; s += abs(t)``, in
term-map order, multiplying left to right from the coefficient and
summing from 0.0.  The coefficients arrive as the tuple C, so the source
holds only exponents and indices.  Where the straight line meets a
non-finite case (a power that raises OverflowError, or an inf * 0 term
that leaves a scale nan) the call is replayed through the per-factor
loop, which gives IEEE infinities for overflowing powers and makes any
term with a zero factor 0.  So every result is the per-factor loop's, bit
for bit.  A `PolyFamily` compiles on its first call; `MultiPoly.eval`,
which serves one-shot evaluations, runs the per-factor loop and compiles
nothing.

Text grammar (explicit ``*`` required, no implicit multiplication)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := number | var | '(' expr ')' | '-' base
    var    := 'x' uint          (1-based index)
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    ExponentError,
    ParseError,
    VariableIndexError,
)

Exponents = tuple[int, ...]


def grlex_key(exponents: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort key for the graded-lexicographic term order."""
    e = tuple(exponents)
    return (sum(e), e)


class MultiPoly:
    """Sparse multivariate polynomial with float coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, float] | Iterable[tuple[Exponents, float]] = ()):
        if not isinstance(nvars, int) or nvars < 1:
            raise ValueError(f"nvars must be a positive integer, got {nvars!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[Exponents, float] = {}
        for exponents, coeff in items:
            e = tuple(exponents)
            if len(e) != nvars:
                raise DimensionMismatchError(
                    f"exponent vector {e} has length {len(e)}, expected {nvars}")
            if any((not isinstance(k, int)) or k < 0 for k in e):
                raise ValueError(f"exponents must be non-negative integers, got {e}")
            merged[e] = merged.get(e, 0.0) + float(coeff)
        # canonical form: drop exact zeros, store in graded-lex descending order
        self.nvars = nvars
        self._terms = {
            e: merged[e]
            for e in sorted(merged, key=grlex_key, reverse=True)
            if merged[e] != 0.0
        }

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: float) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        """The monomial x_index (1-based)."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        e = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, {e: 1.0})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, float]:
        """The term map (do not mutate)."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def coefficient(self, exponents: Sequence[int]) -> float:
        return self._terms.get(tuple(exponents), 0.0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    __hash__ = None  # mutable-looking container semantics

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self._terms!r})"

    def __str__(self) -> str:
        return self.to_text()

    # -- ring operations ---------------------------------------------------

    def _check_same_space(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"operands have {self.nvars} and {other.nvars} variables")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_space(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0.0) + c
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, k: float) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: k * c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_space(other)
        out: dict[Exponents, float] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return MultiPoly(self.nvars, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {k!r}")
        result = MultiPoly.constant(self.nvars, 1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    # -- calculus / evaluation ---------------------------------------------

    def partial(self, index: int) -> "MultiPoly":
        """Partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        i = index - 1
        out: dict[Exponents, float] = {}
        for e, c in self._terms.items():
            if e[i] > 0:
                de = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[de] = out.get(de, 0.0) + c * e[i]
        return MultiPoly(self.nvars, out)

    def gradient(self) -> tuple["MultiPoly", ...]:
        return tuple(self.partial(i + 1) for i in range(self.nvars))

    def eval(self, x: Sequence[float]) -> float:
        """Evaluate at a point; terms are summed in graded-lex order.  A zero
        factor zeroes its term in any position, even after a factor that
        overflows."""
        if len(x) != self.nvars:
            raise DimensionMismatchError(f"point has length {len(x)}, expected {self.nvars}")
        return _eval_by_factors((self,), x)[0][0]

    # -- printing ------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form; ``parse(P.to_text(), P.nvars) == P`` exactly."""
        if not self._terms:
            return "0"
        pieces = []
        for i, (e, c) in enumerate(self._terms.items()):
            mag = _term_text(abs(c), e, leading_negative=(i == 0 and c < 0))
            if i == 0:
                pieces.append("-" + mag if c < 0 else mag)
            else:
                pieces.append(" - " + mag if c < 0 else " + " + mag)
        return "".join(pieces)


class PolyFamily:
    """Polynomials in the same variables, evaluated together through one
    function that `compile_family` generates on the first call."""

    __slots__ = ("polys", "_fn")

    def __init__(self, polys: Sequence[MultiPoly]):
        self.polys = tuple(polys)
        if not self.polys:
            raise ValueError("a family needs at least one polynomial")
        if any(p.nvars != self.polys[0].nvars for p in self.polys):
            raise DimensionMismatchError("family members disagree on the number of variables")
        self._fn = None

    def __reduce__(self):
        return PolyFamily, (self.polys,)

    def eval_and_scale(self, x: Sequence[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(values, scales) of the members at x, in member order."""
        fn = self._fn
        if fn is None:
            fn = self._fn = compile_family(self.polys)
        return fn(x)


def compile_family(polys: Sequence[MultiPoly]):
    """The straight-line function x -> (values, scales) of `polys` (see the
    module docstring).  Each term is one statement, since one expression
    summing thousands of terms overflows CPython's compiler stack."""
    polys = tuple(polys)
    nvars = polys[0].nvars
    coeffs: list[float] = []
    powers: dict[str, str] = {}
    body = []
    for m, poly in enumerate(polys):
        body.append(f"v{m} = s{m} = 0.0")
        for e, c in poly._terms.items():
            factors = [f"C[{len(coeffs)}]"]
            coeffs.append(c)
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"x{i}")
                elif k:
                    name = f"x{i}_{k}"
                    powers[name] = f"{name} = x{i} ** {k}"
                    factors.append(name)
            body.append(f"t = {' * '.join(factors)}; v{m} += t; s{m} += abs(t)")
    members = range(len(polys))
    values = "".join(f"v{m}, " for m in members)
    scales = "".join(f"s{m}, " for m in members)
    source = "\n".join([
        "def make(C, polys, abs, replay, DimensionMismatchError):",
        "    def family(x):",
        "        try:",
        f"            {''.join(f'x{i}, ' for i in range(nvars))}= x",
        "        except ValueError:",
        "            raise DimensionMismatchError(",
        f"                f'point has length {{len(x)}}, expected {nvars}') from None",
        "        try:",
        *(f"            {line}" for line in [*powers.values(), *body]),
        "        except OverflowError:",
        "            return replay(polys, x)",
        f"        if {' or '.join(f's{m} != s{m}' for m in members)}:",
        "            return replay(polys, x)",
        f"        return ({values}), ({scales})",
        "    return family",
    ])
    namespace: dict = {}
    exec(compile(source, "<polycore family>", "exec"), namespace)
    return namespace["make"](tuple(coeffs), polys, abs, _eval_by_factors, DimensionMismatchError)


def _eval_by_factors(polys: Sequence[MultiPoly], x: Sequence[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The per-factor loop that defines every result: IEEE infinities for
    powers past the float range, and 0 for a term with a zero factor, also
    after a factor that overflowed.  Generated families replay it on
    non-finite cases, and MultiPoly.eval runs it directly."""
    values, scales = [], []
    for poly in polys:
        total = scale = 0.0
        for e, c in poly._terms.items():
            v = c
            for xi, k in zip(x, e):
                if not k:
                    continue
                try:
                    v *= xi ** k
                except OverflowError:
                    # IEEE semantics instead of Python's pow exception
                    v *= math.inf if (xi > 0.0 or k % 2 == 0) else -math.inf
                if v == 0.0:
                    break
            if v != v and any(xi == 0.0 for xi, k in zip(x, e) if k):
                v = 0.0  # inf * 0: a zero factor after one that overflowed
            total += v
            scale += abs(v)
        values.append(total)
        scales.append(scale)
    return tuple(values), tuple(scales)


def _format_coeff(c: float) -> str:
    if c == int(c) and abs(c) < 1e15:
        return str(int(c))
    return repr(c)


def _term_text(mag: float, exponents: Exponents, leading_negative: bool) -> str:
    factors = []
    for i, e in enumerate(exponents):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e > 1:
            factors.append(f"x{i + 1}^{e}")
    if not factors:
        return _format_coeff(mag)
    mono = "*".join(factors)
    if mag == 1.0:
        # A leading "-x1^2" would re-parse as (-x1)^2; force the explicit 1.
        if leading_negative and "^" in factors[0]:
            return "1*" + mono
        return mono
    return _format_coeff(mag) + "*" + mono


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Expansion budget of the parser: a product or power is refused before it
# is expanded when its total degree could exceed MAX_PARSE_DEGREE, or its
# term count could exceed MAX_PARSE_TERMS.  The term count is bounded by
# the smaller of the dense count C(d+n, n) of degree d in n variables and
# the sparse one: |a|*|b| for a product, C(|a|+k-1, k) for a k-th power.
# At these limits one expansion takes under a second; (x1+1)^1000 takes
# about 0.6 s and (x1+x2+1)^61 about 0.4 s on a 2-vCPU machine.
MAX_PARSE_DEGREE = 1000
MAX_PARSE_TERMS = 2000

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_VAR_RE = re.compile(r"x(\d+)")
_OPS = "+-*^()"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Produce (kind, text, byte offset) tokens; kinds: num, var, op, end."""
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        m = _VAR_RE.match(text, pos)
        if m:
            tokens.append(("var", m.group(0), pos))
            pos = m.end()
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(("num", m.group(0), pos))
            pos = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """One-token-lookahead recursive descent over the grammar above."""

    def __init__(self, text: str, nvars: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = nvars

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", offset)
        self.advance()

    def parse(self) -> MultiPoly:
        poly = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", offset)
        return poly

    def expr(self) -> MultiPoly:
        poly = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                poly = self.finite(poly + rhs if text == "+" else poly - rhs, offset)
            else:
                return poly

    @staticmethod
    def finite(poly: MultiPoly, offset: int) -> MultiPoly:
        """poly, refused when the operation at offset left a coefficient
        past the float range."""
        if not all(map(math.isfinite, poly.terms.values())):
            raise ParseError("a coefficient is past the float range", offset)
        return poly

    def check_budget(self, degree: int, sparse_terms: int, offset: int) -> None:
        if degree > MAX_PARSE_DEGREE:
            raise ParseError(
                f"expansion to degree {degree} exceeds the limit {MAX_PARSE_DEGREE}", offset)
        terms = min(math.comb(degree + self.nvars, self.nvars), sparse_terms)
        if terms > MAX_PARSE_TERMS:
            raise ParseError(
                f"expansion to up to {terms} terms exceeds the limit {MAX_PARSE_TERMS}", offset)

    def term(self) -> MultiPoly:
        poly = self.factor()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                rhs = self.factor()
                self.check_budget(max(poly.degree(), 0) + max(rhs.degree(), 0),
                                  len(poly.terms) * len(rhs.terms), offset)
                poly = self.finite(poly * rhs, offset)
            else:
                return poly

    def factor(self) -> MultiPoly:
        poly = self.base()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            k = self.uint_exponent()
            self.check_budget(max(poly.degree(), 0) * k,
                              math.comb(max(len(poly.terms), 1) + k - 1, k), offset)
            poly = self.finite(poly ** k, offset)
        return poly

    def base(self) -> MultiPoly:
        kind, text, offset = self.advance()
        if kind == "num":
            return self.finite(MultiPoly.constant(self.nvars, float(text)), offset)
        if kind == "var":
            index = int(text[1:])
            if not 1 <= index <= self.nvars:
                raise VariableIndexError(
                    f"variable {text} out of range x1..x{self.nvars}", offset)
            return MultiPoly.variable(self.nvars, index)
        if kind == "op" and text == "(":
            poly = self.expr()
            self.expect_op(")")
            return poly
        if kind == "op" and text == "-":
            return -self.base()
        raise ParseError(f"unexpected token {text or 'end of input'!r}", offset)

    def uint_exponent(self) -> int:
        kind, text, offset = self.advance()
        if kind == "op" and text == "-":
            raise ExponentError("negative exponent", offset)
        if kind != "num":
            raise ParseError(f"expected exponent, found {text or 'end of input'!r}", offset)
        if not text.isdigit():
            raise ExponentError(f"exponent must be a non-negative integer literal, got {text!r}", offset)
        try:
            return int(text)
        except ValueError:  # past the interpreter's limit on integer digits
            raise ExponentError(f"exponent of {len(text)} digits is too large", offset) from None


def parse(text: str, nvars: int) -> MultiPoly:
    """Parse polynomial text into fully expanded canonical sparse form.

    Raises ParseError (with byte offset), VariableIndexError or
    ExponentError on malformed input, on a non-str (offset 0), and where a
    literal or operation leaves a coefficient past the float range.
    """
    if not isinstance(text, str):
        raise ParseError(f"polynomial text must be a string, got {type(text).__name__}", 0)
    return _Parser(text, nvars).parse()
