"""Isolation and refinement of all real roots of a univariate polynomial on (0, inf).

Pipeline: after factoring out t^m, the sign changes V of the coefficients
decide the route.  By Descartes' rule of signs V = 0 means no positive
root and V = 1 means exactly one, and it is simple; both counts are
certified, since the signs of floats are exact, and no Sturm chain is
built.  For V >= 2 a float Sturm chain counts the distinct positive
roots as V(0) - V(inf), read off its members' constant terms and leading
coefficients.  That total, and the counts that split (0, B] into
isolating intervals below the Cauchy bound B = 1 + max|c_k|/|c_lead|,
are float evaluations and are not certified.

Each isolating interval holds one root.  Where the polynomial changes
sign across it, a bracketed Newton solver (rtsafe-style: Newton while
the step stays inside the sign bracket and keeps shrinking, bisection
otherwise) refines the root until the Newton step is a few ulps of the
root.  A root that misses the residual bound
|q(r)| <= abs_tol + rel_tol*S(r) is refined again to float resolution.
An even-multiplicity root has no sign change: Sturm-count bisection
narrows its interval, and the same solver finds it as the sign-change
root of the derivative.

Sturm remainders are renormalized by their max-abs coefficient and an
evaluated value counts as zero below 1e-12 of the member's own scale;
naive float remainder chains drift out of range very quickly otherwise.
Everything here is a pure function of the coefficient vector, so
identical inputs give bitwise-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ZeroPolynomialError

REFINE_WIDTH_FACTOR = 1e-13   # isolation and count-bisection width, relative to the root bound
_SIGN_EPS = 1e-12             # evaluated value treated as zero below this x scale
_REMAINDER_EPS = 1e-12        # chain terminates when a remainder is this small
_LEAD_TRIM_EPS = 1e-13        # drop denormal leading coefficients inside remainders
_MULTIPLE_EPS = 1e-8          # |q'(root)| below this x derivative scale => suspected multiple
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

    def deriv(self) -> "UniPoly":
        if self.degree < 1:
            return UniPoly((0.0,))
        return UniPoly(tuple(k * self.coeffs[k] for k in range(1, self.degree + 1)))

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs[:self.degree + 1])})"


@dataclass(frozen=True)
class RootList:
    """Sorted positive roots with per-root suspected-multiple flags."""

    roots: tuple[float, ...]
    suspected_multiple: tuple[bool, ...]
    bound: float  # Cauchy bound used during isolation

    def __len__(self) -> int:
        return len(self.roots)


# -- low-level coefficient-list helpers (ascending order, trimmed) ----------

def _trim(c: list[float]) -> list[float]:
    while c and c[-1] == 0.0:
        c.pop()
    return c


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


def _deriv_list(c: list[float]) -> list[float]:
    return [k * c[k] for k in range(1, len(c))]


def _normalize(c: list[float]) -> list[float]:
    m = max(abs(v) for v in c)
    return [v / m for v in c]


def _neg_rem(a: list[float], b: list[float]) -> list[float]:
    """-(a mod b) by float long division; caller trims/normalizes."""
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    for k in range(len(rem) - 1, db - 1, -1):
        q = rem[k] / lead
        rem[k] = 0.0
        if q != 0.0:
            lo = k - db
            for j in range(db):
                rem[lo + j] -= q * b[j]
    return [-v for v in _trim(rem)]


def _sturm_chain(coeffs: list[float]) -> list[list[float]]:
    chain = [_normalize(coeffs)]
    d = _trim(_deriv_list(coeffs))
    if not d:
        return chain
    chain.append(_normalize(d))
    while len(chain[-1]) > 1:
        r = _neg_rem(chain[-2], chain[-1])
        if not r:
            break
        m = max(abs(v) for v in r)
        if m <= _REMAINDER_EPS:
            break
        # drop denormal leading coefficients before the next division step
        while len(r) > 1 and abs(r[-1]) <= _LEAD_TRIM_EPS * m:
            r.pop()
        chain.append([v / m for v in r])
    return chain


def _sign_changes(values) -> int:
    """Sign changes along a sequence of floats; zeros are skipped."""
    count = 0
    prev = 0.0
    for v in values:
        if v != 0.0:
            if prev != 0.0 and (v < 0.0) != (prev < 0.0):
                count += 1
            prev = v
    return count


def _sign_variations(chain: list[list[float]], t: float) -> int:
    prev = 0
    count = 0
    for member in chain:
        v = _eval_list(member, t)
        scale = _abs_eval_list(member, t)
        if abs(v) <= _SIGN_EPS * scale:
            continue
        s = 1 if v > 0.0 else -1
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _nudge_off_root(c: list[float], t: float) -> float:
    """Shift t upward by ulp-scale steps until its sign is unambiguous.

    Values inside the sign-threshold band would be skipped by the
    variation count, which makes near-root endpoints miscount; stepping
    decisively past the root keeps (a, b] semantics consistent.
    """
    step = (abs(t) + 1.0) * 2.220446049250313e-16
    while abs(_eval_list(c, t)) <= _SIGN_EPS * _abs_eval_list(c, t):
        t += step
        step *= 2.0
    return t


def _count(chain: list[list[float]], coeffs: list[float], a: float, b: float) -> int:
    a = _nudge_off_root(coeffs, a)
    b = _nudge_off_root(coeffs, b)
    return max(_sign_variations(chain, a) - _sign_variations(chain, b), 0)


def sturm_count(q: UniPoly, a: float, b: float) -> int:
    """Number of distinct real roots of q in (a, b].

    Endpoints that happen to be exact roots are nudged upward by an
    ulp-scale step, which keeps a root at `a` excluded and a root at `b`
    included.
    """
    if q.is_zero():
        raise ZeroPolynomialError("Sturm count of the zero polynomial")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    coeffs = list(q.coeffs[:q.degree + 1])
    if len(coeffs) == 1:
        return 0
    chain = _sturm_chain(coeffs)
    return _count(chain, coeffs, a, b)


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


def _refine(coeffs: list[float], chain: list[list[float]] | None, lo: float, hi: float,
            width: float, abs_tol: float, rel_tol: float) -> float:
    """The one root of coeffs in the isolating interval (lo, hi].

    A sign change across the bracket goes to _bracketed_root; a root that
    misses the residual bound |q(r)| <= abs_tol + rel_tol*S(r) is refined
    again down to float resolution.  Without a sign change the root has
    even multiplicity: Sturm-count bisection narrows the bracket to where
    |q| sinks into the sign-threshold band, and the root is then the
    derivative's sign-change root, found by _bracketed_root on q'.
    `chain` is None when the caller built no Sturm chain (V = 1).  If the
    end values then share a sign in float, the single simple root lies
    within rounding of hi, and hi steps past it; should they still share
    a sign, the chain is built here for the count bisection.
    """
    fhi = _eval_list(coeffs, hi)
    if fhi == 0.0:
        # hi is an exact root and the interval holds exactly one root
        return hi
    flo = _eval_list(coeffs, lo)
    if flo == 0.0:
        # lo is a root but lies outside (lo, hi]; step off it to read a sign
        lo = _nudge_off_root(coeffs, lo)
        flo = _eval_list(coeffs, lo)
    if chain is None and (flo < 0.0) == (fhi < 0.0):
        hi = _nudge_off_root(coeffs, hi)
        fhi = _eval_list(coeffs, hi)
    if (flo < 0.0) != (fhi < 0.0):
        root = _bracketed_root(coeffs, lo, hi, flo < 0.0)
        if abs(_eval_list(coeffs, root)) > abs_tol + rel_tol * _abs_eval_list(coeffs, root):
            root = _bracketed_root(coeffs, lo, hi, flo < 0.0, 0.0)
        return root
    # Counts degrade once |q(mid)| sinks into the sign-threshold band, so
    # bisect on counts only down to that band.
    if chain is None:
        chain = _sturm_chain(coeffs)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if abs(_eval_list(coeffs, mid)) <= _SIGN_EPS * _abs_eval_list(coeffs, mid):
            break
        if _count(chain, coeffs, lo, mid) >= 1:
            hi = mid
        else:
            lo = mid
    dcoeffs = _deriv_list(coeffs)
    dlo = _eval_list(dcoeffs, lo)
    dhi = _eval_list(dcoeffs, hi)
    if dlo != 0.0 and dhi != 0.0 and (dlo < 0.0) != (dhi < 0.0):
        return _bracketed_root(dcoeffs, lo, hi, dlo < 0.0)
    return 0.5 * (lo + hi)


def positive_roots(q: UniPoly, abs_tol: float = 1e-12, rel_tol: float = 1e-12) -> RootList:
    """All distinct roots of q in (0, inf), sorted ascending.

    The count comes from the coefficient sign changes V (t^m factored
    out).  V = 0 gives no root and V = 1 exactly one simple root in
    (0, B], refined with no Sturm chain: Descartes' rule makes both
    counts certified.  For V >= 2 the total is V(0) - V(inf) of a float
    Sturm chain, from its members' constant terms and leading
    coefficients, and the chain splits (0, B] into isolating intervals;
    these counts are float evaluations and are not certified.

    Every returned root r satisfies |q(r)| <= abs_tol + rel_tol * S(r)
    with S(r) = sum_k |c_k| r^k.  A root whose derivative value is tiny
    against its own scale is flagged suspected-multiple rather than split;
    unresolvably close root pairs (closer than the refinement width) are
    merged into one flagged root.  Degree-0 input with a nonzero constant
    yields an empty list.
    """
    if q.is_zero():
        raise ZeroPolynomialError("root isolation of the zero polynomial")
    coeffs = list(q.coeffs[:q.degree + 1])
    # factor out t^m: roots at zero are not positive and do not matter here
    m = 0
    while coeffs[m] == 0.0:
        m += 1
    coeffs = coeffs[m:]
    d = len(coeffs) - 1
    if d == 0:
        return RootList((), (), bound=1.0)
    bound = 1.0 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    width = REFINE_WIDTH_FACTOR * bound
    variations = _sign_changes(coeffs)
    if variations == 0:
        return RootList((), (), bound=bound)
    intervals: list[tuple[float, float, bool]] = []  # (lo, hi, cluster_flag)
    if variations == 1:
        chain = None
        stack = [(0.0, bound, 1)]
    else:
        chain = _sturm_chain(coeffs)
        total = _sign_changes(m[0] for m in chain) - _sign_changes(m[-1] for m in chain)
        stack = [(0.0, bound, total)] if total > 0 else []
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            intervals.append((lo, hi, False))
            continue
        if hi - lo <= width:
            # k roots closer than the refinement width: report one, flagged
            intervals.append((lo, hi, True))
            continue
        mid = 0.5 * (lo + hi)
        kl = _count(chain, coeffs, lo, mid)
        stack.append((mid, hi, k - kl))
        stack.append((lo, mid, kl))

    dcoeffs = _deriv_list(coeffs)
    found: list[tuple[float, bool]] = []
    for lo, hi, clustered in intervals:
        r = _refine(coeffs, chain, lo, hi, width, abs_tol, rel_tol)
        dscale = _abs_eval_list(dcoeffs, r) if dcoeffs else 0.0
        flat = abs(_eval_list(dcoeffs, r)) <= _MULTIPLE_EPS * dscale if dcoeffs else True
        found.append((r, clustered or flat))
    found.sort(key=lambda rf: rf[0])

    roots = tuple(r for r, _ in found)
    flags = tuple(f for _, f in found)
    return RootList(roots, flags, bound=bound)
