"""Isolation and refinement of all real roots of a univariate polynomial on (0, inf).

Pipeline: after factoring out t^m, Descartes' rule of signs decides every
count.  The sign changes V of the coefficients bound the number of
positive roots: V = 0 means none and V = 1 exactly one, and it is simple.
Both counts are certified, since the signs of floats are exact, and need
no further work.  For V >= 2 the float coefficients, which are exact
dyadic rationals, become exact integers, and Descartes bisection
(Vincent-Collins-Akritas) splits (0, 2^K] into halves until each node's
count is 0 or 1.  K comes from Kioustelidis' positive-root bound and is
certified by a Descartes count of 0 past 2^K.  Every count is exact.

Each isolating interval holds one simple root, across which the
polynomial changes sign.  A bracketed Newton solver (rtsafe-style: Newton
while the step stays inside the sign bracket and keeps shrinking,
bisection otherwise) refines it until the Newton step is a few ulps of
the root.  A root that misses the residual bound
|q(r)| <= abs_tol + rel_tol*S(r) is refined again to float resolution.

A returned root is flagged as a possible multiple root, which stands for
a tangent crossing, only where an exact count or multiplicity says so:
  - a root exactly on a bisection midpoint whose exact multiplicity m,
    the number of zero low coefficients there, is 2 or more;
  - a node that still counts 2 or more when narrower than
    REFINE_WIDTH_FACTOR times its upper end, reported once at the root
    of q' in it;
  - rounding the coefficients of a tangent crossing splits its double
    root into two close roots or a complex pair, and exact counts see
    either one: (i) a node that counts 2 or more whose two halves both
    count 0, and (ii) neighbouring roots closer than 1e-6*r.  Each is
    reported as one root at the root r* of q' nearby, when
    |q(r*)| <= 1e-12*S(r*).
A root from V = 1 or from a count-1 node is simple by Descartes' rule and
is never flagged.  Everything here is a pure function of the coefficient
vector, so identical inputs give bitwise-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ZeroPolynomialError

REFINE_WIDTH_FACTOR = 1e-13   # narrowest bisection node, relative to its upper end
_TANGENT_EPS = 1e-12          # |q(r*)| below this x S(r*) => tangent crossing at r*
_MERGE_GAP = 1e-6             # neighbouring roots closer than this x r may be one tangency
_STOP_ULPS = 4 * 2.220446049250313e-16  # Newton step, relative to x, that ends refinement


class UniPoly:
    """Dense univariate polynomial; coeffs[k] is the coefficient of t^k.

    Trailing zero coefficients are tolerated: the stored degree is the
    index of the last nonzero coefficient (-1 for the zero polynomial).
    """

    __slots__ = ("coeffs", "degree")

    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in coeffs)
        if any(not math.isfinite(c) for c in self.coeffs):
            raise ValueError(f"coefficients must be finite, got {self.coeffs}")
        self.degree = -1
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0.0:
                self.degree = k
                break

    def is_zero(self) -> bool:
        return self.degree < 0

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs[:self.degree + 1])})"


@dataclass(frozen=True)
class RootList:
    """Sorted positive roots; suspected_multiple[i] flags roots[i] as a
    possible tangent crossing (see the module docstring for when)."""

    roots: tuple[float, ...]
    suspected_multiple: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.roots)


# -- low-level coefficient-list helpers (ascending order) --------------------

def _eval_list(c: list[float], t: float) -> float:
    acc = 0.0
    for k in range(len(c) - 1, -1, -1):
        acc = acc * t + c[k]
    return acc


def _abs_eval_list(c: list[float], t: float) -> float:
    s = abs(t)
    acc = 0.0
    for k in range(len(c) - 1, -1, -1):
        acc = acc * s + abs(c[k])
    return acc


def _sign_changes(values) -> int:
    """Sign changes along a sequence of numbers; zeros are skipped."""
    count = 0
    prev = 0
    for v in values:
        if v:
            if prev and (v < 0) != (prev < 0):
                count += 1
            prev = v
    return count


# -- exact Descartes bisection on integer coefficients -------------------------

def _shift1(c: list[int]) -> list[int]:
    """Coefficients of c(x + 1)."""
    c = list(c)
    n = len(c) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            c[k] += c[k + 1]
    return c


def _descartes_count(q: list[int]) -> int:
    """Sign changes of (x+1)^n q(1/(x+1)): an upper bound on the roots of q
    in (0, 1), counted with multiplicity, exact when it is 0 or 1, and of
    the same parity."""
    return _sign_changes(_shift1(q[::-1]))


def _start_interval(coeffs: list[float]) -> tuple[int, list[int]]:
    """K with every positive root of coeffs below 2^K, and the integer
    coefficients of a positive multiple of coeffs(2^K x).

    K starts from Kioustelidis' bound 2*max (|c_k|/|c_d|)^(1/(d-k)) over
    the c_k whose sign differs from the leading one; it is raised until
    coeffs(2^K (x + 1)) has no sign change and a nonzero constant, which
    certifies that no root lies at or past 2^K.
    """
    d = len(coeffs) - 1
    lead = coeffs[-1]
    top = math.log2(abs(lead))
    K = math.ceil(1.0 + max((math.log2(abs(c)) - top) / (d - k)
                            for k, c in enumerate(coeffs)
                            if c != 0.0 and (c < 0.0) != (lead < 0.0)))
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = max(r[1] for r in ratios)  # powers of two: a multiple of every other one
    p = [n * (den // r) for n, r in ratios]
    while True:
        low = min(0, K * d)
        q = [c << (K * k - low) for k, c in enumerate(p)]
        tail = _shift1(q)
        if tail[0] and not _sign_changes(tail):
            return K, q
        K += 1


def _refine(coeffs: list[float], lo: float, hi: float, neg_lo: bool,
            abs_tol: float, rel_tol: float) -> float:
    """The one simple root of coeffs in (lo, hi), where coeffs(lo) < 0 iff
    neg_lo; refined again to float resolution if it misses the residual
    bound |q(r)| <= abs_tol + rel_tol*S(r)."""
    root = _bracketed_root(coeffs, lo, hi, neg_lo)
    if abs(_eval_list(coeffs, root)) > abs_tol + rel_tol * _abs_eval_list(coeffs, root):
        root = _bracketed_root(coeffs, lo, hi, neg_lo, 0.0)
    return root


def _tangent_point(slope: list[float], lo: float, hi: float) -> float:
    """The root of the derivative in [lo, hi] where its values at the ends
    differ in sign, and the midpoint otherwise.  `slope` is q' with its
    t^m factor removed, so that a zero q'(0) hides no sign change."""
    dlo = _eval_list(slope, lo)
    dhi = _eval_list(slope, hi)
    if dlo != 0.0 and dhi != 0.0 and (dlo < 0.0) != (dhi < 0.0):
        return _bracketed_root(slope, lo, hi, dlo < 0.0)
    return 0.5 * (lo + hi)


def _tangency(coeffs: list[float], slope: list[float], lo: float, hi: float) -> float | None:
    """The tangent crossing r* in [lo, hi], if |q(r*)| <= 1e-12*S(r*)."""
    r = _tangent_point(slope, lo, hi)
    if abs(_eval_list(coeffs, r)) <= _TANGENT_EPS * _abs_eval_list(coeffs, r):
        return r
    return None


def _isolate(coeffs: list[float], abs_tol: float, rel_tol: float) -> list[tuple[float, bool]]:
    """(root, flagged) pairs, ascending, of coeffs with V >= 2 sign changes.

    A node is (q, count, a, level) on (lo, hi) = (a, a + 1) * 2^(K - level):
    q(x) is coeffs(lo + x*(hi - lo)) times a positive constant, with any
    factor x^m divided out, and count its Descartes count, computed once,
    when its parent splits.  The left half is 2^n q(x/2), the right half
    its Taylor shift by 1, whose constant is q at the midpoint.
    """
    slope = [k * c for k, c in enumerate(coeffs) if k]
    while slope[0] == 0.0:
        slope.pop(0)
    K, q = _start_interval(coeffs)
    found: list[tuple[float, bool]] = []
    stack = [(q, _descartes_count(q), 0, 0)]
    while stack:
        q, count, a, level = stack.pop()
        lo = math.ldexp(a, K - level)
        hi = math.ldexp(a + 1, K - level)
        if count == 1:
            found.append((_refine(coeffs, lo, hi, q[0] < 0, abs_tol, rel_tol), False))
            continue
        if (a + 1) * REFINE_WIDTH_FACTOR >= 1.0:
            # roots closer than the narrowest node: report one, flagged
            found.append((_tangent_point(slope, lo, hi), True))
            continue
        n = len(q) - 1
        left = [c << (n - k) for k, c in enumerate(q)]
        right = _shift1(left)
        on_mid = right[0] == 0
        if on_mid:
            m = 1  # the root's exact multiplicity
            while right[m] == 0:
                m += 1
            found.append((0.5 * (lo + hi), m > 1))
            right = right[m:]
        count_left, count_right = _descartes_count(left), _descartes_count(right)
        if count_left == count_right == 0 and not on_mid:
            r = _tangency(coeffs, slope, lo, hi)  # rule (i)
            if r is not None:
                found.append((r, True))
        if count_right:
            stack.append((right, count_right, 2 * a + 1, level + 1))
        if count_left:
            stack.append((left, count_left, 2 * a, level + 1))
    found.sort()
    merged: list[tuple[float, bool]] = []
    for r, flag in found:
        if merged and r - merged[-1][0] < _MERGE_GAP * r:
            t = _tangency(coeffs, slope, merged[-1][0], r)  # rule (ii)
            if t is not None:
                merged[-1] = (t, True)
                continue
        merged.append((r, flag))
    return merged


def _value_and_slope(c: list[float], t: float) -> tuple[float, float]:
    """c(t) and c'(t) in one Horner pass."""
    f = df = 0.0
    for k in range(len(c) - 1, -1, -1):
        df = df * t + f
        f = f * t + c[k]
    return f, df


def _bracketed_root(c: list[float], lo: float, hi: float, neg_lo: bool,
                    stop: float = _STOP_ULPS) -> float:
    """The root of c in [lo, hi], where c changes sign (c(lo) < 0 iff neg_lo).

    rtsafe-style: a Newton step is taken while it lands inside the sign
    bracket and is at most half the step before last; otherwise the
    bracket is bisected.  Every evaluated point narrows the bracket, and the
    result never leaves it.  Done once the Newton step is at most
    `stop * x`, even when its candidate falls on or past a bracket end
    (Newton closes in from one side, so the far end may never move);
    stop = 0 runs on until the step no longer moves x or the bracket
    ends are adjacent floats.
    """
    x = 0.5 * (lo + hi)
    last = before = hi - lo  # the last step and the one before it
    while True:
        f, df = _value_and_slope(c, x)
        if f == 0.0:
            return x
        if (f < 0.0) == neg_lo:
            lo = x
        else:
            hi = x
        dx = f / df if df != 0.0 else math.inf
        cand = x - dx
        if cand == x or abs(dx) <= stop * x:
            return min(max(cand, lo), hi)
        if lo < cand < hi and abs(dx) <= 0.5 * before:
            before, last = last, abs(dx)
        else:
            before, last = last, 0.5 * (hi - lo)
            cand = lo + last
            if not lo < cand < hi:
                return cand
        x = cand


def positive_roots(q: UniPoly, abs_tol: float = 1e-12, rel_tol: float = 1e-12) -> RootList:
    """All distinct roots of q in (0, inf), sorted ascending.

    The count comes from Descartes' rule of signs throughout (t^m
    factored out first).  V = 0 coefficient sign changes give no root and
    V = 1 exactly one simple root, refined in float on (0, B] below the
    Cauchy bound B.  For V >= 2, exact Descartes bisection on the integer
    coefficients isolates every root.  Every count is certified.

    Every returned root r satisfies |q(r)| <= abs_tol + rel_tol * S(r)
    with S(r) = sum_k |c_k| r^k.  Only V >= 2 can flag a root: an exact
    midpoint root of multiplicity >= 2, a tangent crossing that rounding
    split into two close roots or a complex pair, or roots closer than the
    narrowest bisection node, each reported once.  Degree-0 input with a
    nonzero constant yields an empty list.
    """
    if q.is_zero():
        raise ZeroPolynomialError("root isolation of the zero polynomial")
    coeffs = list(q.coeffs[:q.degree + 1])
    # factor out t^m: roots at zero are not positive and do not matter here
    m = 0
    while coeffs[m] == 0.0:
        m += 1
    coeffs = coeffs[m:]
    variations = _sign_changes(coeffs)
    if variations == 0:
        return RootList((), ())
    if variations > 1:
        found = _isolate(coeffs, abs_tol, rel_tol)
        return RootList(tuple(r for r, _ in found), tuple(flag for _, flag in found))
    neg_lo = coeffs[0] < 0.0
    bound = 1.0 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    fhi = _eval_list(coeffs, bound)
    if fhi == 0.0:
        return RootList((bound,), (False,))
    # B has the sign of q(0) only when the root lies within rounding of it;
    # at 2B the leading term is over half of S(2B), so the float sign there
    # is exact
    hi = bound if (fhi < 0.0) != neg_lo else 2.0 * bound
    return RootList((_refine(coeffs, 0.0, hi, neg_lo, abs_tol, rel_tol),), (False,))
