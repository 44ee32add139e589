"""Isolation and refinement of all real roots of a univariate polynomial on (0, inf).

Pipeline: after factoring out t^m, Descartes' rule of signs decides every
count.  The sign changes V of the coefficients bound the number of
positive roots: V = 0 means none and V = 1 exactly one, and it is simple.
Both counts are certified, since the signs of floats are exact, and need
no further work.

For V >= 2, signs of q are tried first, at points read off the Newton
polygon (the upper hull of the points (k, log2|c_k|)): each break 2^u,
where two terms tie and a root is likely, the geometric mean of each two
neighbouring breaks, where one term dominates, and 2^K past them all.
Horner's rule evaluates q(t) and S(t) = sum_k |c_k| t^k in one pass, with
|q^(t) - q(t)| <= gamma_2d S(t), gamma_n = n*u/(1 - n*u) and u = 2^-53
(Higham 2002, sec. 5.1), so |q^(t)| > 4*d*u * S^(t) certifies the sign
of q at the float t, when q^(t) and S^(t) are finite, S^(t) is normal
and so is the leading coefficient: the rounding of S^ and any underflow
then stay within the factor 2 of room.  If those signs, after the sign
of q(0+), alternate V times, q has at least V positive roots; Descartes
allows at most V, counted with multiplicity, so each sign bracket holds
exactly one simple root.  It is refined from the regula falsi point of
its ends, and a root where q evaluates to 0 in float, next to a float
where q is exactly 0, ends on the latter.  The attempt is skipped when
the signs of the polygon's vertices, which dominate between the breaks,
alternate fewer than V times.

Any other V >= 2 input (complex pairs, tangencies, odd V with fewer real
roots, signs too close to call) takes the exact path: the float
coefficients, which are exact dyadic rationals, become exact integers,
and Descartes bisection (Vincent-Collins-Akritas) splits (0, 2^K] into
halves until each node's count is 0 or 1.  K comes from Kioustelidis'
positive-root bound, computed in the same pass as the polygon, and is
certified by a Descartes count of 0 past 2^K.  Every count is exact.

Each isolating interval holds one simple root, across which the
polynomial changes sign.  A bracketed Newton solver (rtsafe-style: Newton
while the step stays inside the sign bracket and keeps shrinking,
bisection otherwise) refines it until the Newton step is a few ulps of
the root.  A root that misses |q(r)| <= 1e-12*S(r), S(r) = sum_k |c_k| r^k,
is refined again to float resolution.

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
A root from V = 1, from a count-1 node or from a sign bracket is simple
by Descartes' rule and is never flagged.  Everything here is a pure
function of the coefficient vector, so identical inputs give
bitwise-identical outputs.

The inner loops run as straight-line code.  Each Horner pass (q(t);
q(t) with S(t); q(t) with q'(t)) and the integer Taylor shift by 1
behind every Descartes count is generated per coefficient count n and
compiled on first use: the loop unrolled, with the same operations in
the same order down to its first step 0.0 * t + c_d, so every float
result is the loop's bit for bit, signed zeros and non-finite t
included.  Kernels stop at n = 33 (degree 32), since the shift unrolls
to n(n-1)/2 statements; past that the loops themselves run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ZeroPolynomialError

REFINE_WIDTH_FACTOR = 1e-13   # narrowest bisection node, relative to its upper end
_RESIDUAL_EPS = 1e-12         # r is a root of q when |q(r)| <= this x S(r)
_MERGE_GAP = 1e-6             # neighbouring roots closer than this x r may be one tangency
_STOP_ULPS = 4 * 2.220446049250313e-16  # Newton step, relative to x, that ends refinement
_UNIT_ROUNDOFF = 2.0 ** -53   # u: the sign bound for degree d is 4*d*u
_MIN_NORMAL = 2.2250738585072014e-308


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


def _value_and_scale(c: list[float], t: float) -> tuple[float, float]:
    """c(t) and S(t) = sum_k |c_k| t^k, t >= 0, in one Horner pass."""
    f = s = 0.0
    for k in range(len(c) - 1, -1, -1):
        f = f * t + c[k]
        s = s * t + abs(c[k])
    return f, s


def _value_and_slope(c: list[float], t: float) -> tuple[float, float]:
    """c(t) and c'(t) in one Horner pass."""
    f = df = 0.0
    for k in range(len(c) - 1, -1, -1):
        df = df * t + f
        f = f * t + c[k]
    return f, df


def _shift1(c: list[int]) -> list[int]:
    """Coefficients of c(x + 1)."""
    c = list(c)
    n = len(c) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            c[k] += c[k + 1]
    return c


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


# -- straight-line kernels of the loops above --------------------------------

# Kernels are generated only up to this many coefficients (degree 32): the
# shift unrolls to n(n-1)/2 statements at about 10 us of compile time each
# (6.6 ms at n = 33, 74 ms at n = 129), and the parser allows degree 1000.
# Past the cap the loops above run.
_KERNEL_MAX_N = 33


class _Kernels(dict):
    """n -> `loop` unrolled for n coefficients, compiled on first use from
    the statements `body(n)`; `loop` itself past _KERNEL_MAX_N."""

    def __init__(self, loop, params: str, body):
        super().__init__()
        self.loop, self.params, self.body = loop, params, body

    def __missing__(self, n: int):
        fn = self.loop
        if 0 < n <= _KERNEL_MAX_N:
            source = "\n    ".join([
                f"def kernel({self.params}):",
                f"{''.join(f'c{k}, ' for k in range(n))}= c",
                *self.body(n),
            ])
            namespace: dict = {}
            exec(compile(source, f"<roots {self.loop.__name__} n={n}>", "exec"), namespace)
            fn = namespace["kernel"]
        self[n] = fn
        return fn


def _horner(init: str, step: str, result: str):
    """The statements of a Horner loop: `step` once per k = n - 1, ..., 0."""
    return lambda n: [init, *(step.format(k=k) for k in range(n - 1, -1, -1)), f"return {result}"]


_EVAL_LIST = _Kernels(_eval_list, "c, t", _horner("acc = 0.0", "acc = acc * t + c{k}", "acc"))
_VALUE_AND_SCALE = _Kernels(_value_and_scale, "c, t", _horner(
    "f = s = 0.0", "f = f * t + c{k}; s = s * t + abs(c{k})", "f, s"))
_VALUE_AND_SLOPE = _Kernels(_value_and_slope, "c, t", _horner(
    "f = df = 0.0", "df = df * t + f; f = f * t + c{k}", "f, df"))
_SHIFT1 = _Kernels(_shift1, "c", lambda n: [
    *(f"c{k} += c{k + 1}" for i in range(n - 1) for k in range(n - 2, i - 1, -1)),
    f"return [{', '.join(f'c{k}' for k in range(n))}]",
])


# -- exact Descartes bisection on integer coefficients -------------------------

def _descartes_count(q: list[int]) -> int:
    """Sign changes of (x+1)^n q(1/(x+1)): an upper bound on the roots of q
    in (0, 1), counted with multiplicity, exact when it is 0 or 1, and of
    the same parity."""
    return _sign_changes(_SHIFT1[len(q)](q[::-1]))


def _newton_polygon(coeffs: list[float]) -> tuple[int, list[int], list[float]]:
    """K from Kioustelidis' bound, and the upper hull of the points
    (k, log2|c_k|), the Newton polygon, in one pass from k = d down.

    Kioustelidis' bound 2*max (|c_k|/|c_d|)^(1/(d-k)), over the c_k whose
    sign differs from the leading one, bounds the positive roots; K is its
    float log2, rounded up.  The hull's vertices are ks, descending from d
    to 0, with ys their log2|c_k|.
    """
    d = len(coeffs) - 1
    neg = coeffs[d] < 0.0
    top = math.log2(abs(coeffs[d]))
    best = -math.inf
    ks = [d]
    ys = [top]
    n = 1  # len(ks)
    k = d
    while k:
        k -= 1
        c = coeffs[k]
        if c == 0.0:
            continue
        if c < 0.0:
            y = math.log2(-c)
            opposite = not neg
        else:
            y = math.log2(c)
            opposite = neg
        if opposite:
            bound = (y - top) / (d - k)
            if bound > best:
                best = bound
        # drop the last vertex while it lies on or below the chord to (k, y)
        while n > 1:
            ka = ks[-2]
            ya = ys[-2]
            if (y - ya) * (ks[-1] - ka) > (ys[-1] - ya) * (k - ka):
                break
            ks.pop()
            ys.pop()
            n -= 1
        ks.append(k)
        ys.append(y)
        n += 1
    return math.ceil(1.0 + best), ks, ys


def _start_interval(coeffs: list[float], K: int) -> tuple[int, list[int]]:
    """K, raised until it is certified, and the integer coefficients of a
    positive multiple of coeffs(2^K x).

    K starts from Kioustelidis' bound and is raised until coeffs(2^K (x + 1))
    has no sign change and a nonzero constant, which certifies that no
    root lies at or past 2^K.
    """
    d = len(coeffs) - 1
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = max(r[1] for r in ratios)  # powers of two: a multiple of every other one
    p = [n * (den // r) for n, r in ratios]
    shift1 = _SHIFT1[d + 1]
    while True:
        low = min(0, K * d)
        q = [c << (K * k - low) for k, c in enumerate(p)]
        tail = shift1(q)
        if tail[0] and not _sign_changes(tail):
            return K, q
        K += 1


def _refine(coeffs: list[float], lo: float, hi: float, neg_lo: bool,
            x: float | None = None) -> tuple[float, float]:
    """The one simple root r of coeffs in (lo, hi), where coeffs(lo) < 0 iff
    neg_lo, from x (the midpoint by default), and coeffs(r); refined again
    to float resolution if it misses the residual bound |q(r)| <= 1e-12*S(r)."""
    root = _bracketed_root(coeffs, lo, hi, neg_lo, _STOP_ULPS, x)
    f, s = _VALUE_AND_SCALE[len(coeffs)](coeffs, root)
    if abs(f) > _RESIDUAL_EPS * s:
        root = _bracketed_root(coeffs, lo, hi, neg_lo, 0.0, x)
        f = _EVAL_LIST[len(coeffs)](coeffs, root)
    return root, f


def _tangent_point(slope: list[float], lo: float, hi: float) -> float:
    """The root of the derivative in [lo, hi] where its values at the ends
    differ in sign, and the midpoint otherwise.  `slope` is q' with its
    t^m factor removed, so that a zero q'(0) hides no sign change."""
    eval_slope = _EVAL_LIST[len(slope)]
    dlo = eval_slope(slope, lo)
    dhi = eval_slope(slope, hi)
    if dlo != 0.0 and dhi != 0.0 and (dlo < 0.0) != (dhi < 0.0):
        return _bracketed_root(slope, lo, hi, dlo < 0.0)
    return 0.5 * (lo + hi)


def _tangency(coeffs: list[float], slope: list[float], lo: float, hi: float) -> float | None:
    """The tangent crossing r* in [lo, hi], if |q(r*)| <= 1e-12*S(r*)."""
    r = _tangent_point(slope, lo, hi)
    f, s = _VALUE_AND_SCALE[len(coeffs)](coeffs, r)
    if abs(f) <= _RESIDUAL_EPS * s:
        return r
    return None


def _isolate(coeffs: list[float], K: int) -> list[tuple[float, bool]]:
    """(root, flagged) pairs, ascending, of coeffs with V >= 2 sign changes;
    K is Kioustelidis' start for _start_interval.

    A node is (q, count, a, level) on (lo, hi) = (a, a + 1) * 2^(K - level):
    q(x) is coeffs(lo + x*(hi - lo)) times a positive constant, with any
    factor x^m divided out, and count its Descartes count, computed once,
    when its parent splits.  The left half is 2^n q(x/2), the right half
    its Taylor shift by 1, whose constant is q at the midpoint.
    """
    slope = [k * c for k, c in enumerate(coeffs) if k]
    while slope[0] == 0.0:
        slope.pop(0)
    K, q = _start_interval(coeffs, K)
    found: list[tuple[float, bool]] = []
    stack = [(q, _descartes_count(q), 0, 0)]
    while stack:
        q, count, a, level = stack.pop()
        lo = math.ldexp(a, K - level)
        hi = math.ldexp(a + 1, K - level)
        if count == 1:
            found.append((_refine(coeffs, lo, hi, q[0] < 0)[0], False))
            continue
        if (a + 1) * REFINE_WIDTH_FACTOR >= 1.0:
            # roots closer than the narrowest node: report one, flagged
            found.append((_tangent_point(slope, lo, hi), True))
            continue
        n = len(q) - 1
        left = [c << (n - k) for k, c in enumerate(q)]
        right = _SHIFT1[n + 1](left)
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


def _exact_root(coeffs: list[float], t: float) -> bool:
    """Whether coeffs(t) is exactly 0, decided on integers: t = a/2^j and
    the coefficients are dyadic, so 2^(j*d) * den * coeffs(t) is one.  By
    the rational root theorem the odd part of a divides the numerator of
    coeffs[0], which rules out almost every t at once."""
    a, b = t.as_integer_ratio()
    odd = a >> ((a & -a).bit_length() - 1)
    ratios = [c.as_integer_ratio() for c in coeffs]
    if ratios[0][0] % odd:
        return False
    j = b.bit_length() - 1
    den = max(r for _, r in ratios)
    d = len(coeffs) - 1
    acc = 0
    for k in range(d, -1, -1):
        n, r = ratios[k]
        acc = acc * a + ((n * (den // r)) << (j * (d - k)))
    return acc == 0


def _alternating_roots(coeffs: list[float], variations: int, K: int, ks: list[int],
                       ys: list[float]) -> list[tuple[float, bool]] | None:
    """(root, False) pairs, ascending, when certified float signs of coeffs
    at 0+ and at the points of the Newton polygon (ks, ys) alternate
    `variations` times; None otherwise (see the module docstring)."""
    # between two breaks the vertex term dominates: its signs must flip V times
    if len(ks) <= variations or _sign_changes([coeffs[k] for k in ks]) < variations:
        return None
    if abs(coeffs[-1]) < _MIN_NORMAL:
        return None  # a subnormal lead: underflow could exceed the bound
    exps = [float(K)]  # log2 of the points, descending
    for i in range(len(ks) - 1):
        u = (ys[i + 1] - ys[i]) / (ks[i] - ks[i + 1])
        if i:
            exps.append(0.5 * (exps[-1] + u))
        elif u >= K:
            exps.pop()
        exps.append(u)
    exps.reverse()
    gamma = 4 * (len(coeffs) - 1) * _UNIT_ROUNDOFF
    value_and_scale = _VALUE_AND_SCALE[len(coeffs)]
    brackets = []
    lo, flo = 0.0, coeffs[0]
    for u in exps:
        if not -1000.0 < u < 1000.0:
            continue
        t = 2.0 ** u
        if t <= lo:
            continue  # rounding put t out of order: the count needs ascending points
        f, s = value_and_scale(coeffs, t)
        if not (_MIN_NORMAL <= s < math.inf and gamma * s < abs(f) < math.inf):
            continue
        if (f < 0.0) != (flo < 0.0):
            brackets.append((lo, flo, t, f))
        lo, flo = t, f
    if len(brackets) != variations:
        return None
    found = []
    for lo, flo, hi, fhi in brackets:
        x = lo + (hi - lo) * (flo / (flo - fhi))  # regula falsi
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        r, f = _refine(coeffs, lo, hi, flo < 0.0, x)
        if f == 0.0:
            # a float zero next to an exact root: end on the exact root
            r = next((t for t in (r, math.nextafter(r, 0.0), math.nextafter(r, math.inf))
                      if _exact_root(coeffs, t)), r)
        found.append((r, False))
    return found


def _bracketed_root(c: list[float], lo: float, hi: float, neg_lo: bool,
                    stop: float = _STOP_ULPS, x: float | None = None) -> float:
    """The root of c in [lo, hi], where c changes sign (c(lo) < 0 iff neg_lo),
    from x inside the bracket (the midpoint by default).

    rtsafe-style: a Newton step is taken while it lands inside the sign
    bracket and is at most half the step before last; otherwise the
    bracket is bisected.  Every evaluated point narrows the bracket, and the
    result never leaves it.  Done once the Newton step is at most
    `stop * x`, even when its candidate falls on or past a bracket end
    (Newton closes in from one side, so the far end may never move);
    stop = 0 runs on until the step no longer moves x or the bracket
    ends are adjacent floats.
    """
    if x is None:
        x = 0.5 * (lo + hi)
    last = before = hi - lo  # the last step and the one before it
    value_and_slope = _VALUE_AND_SLOPE[len(c)]
    while True:
        f, df = value_and_slope(c, x)
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


def positive_roots(q: UniPoly) -> RootList:
    """All distinct roots of q in (0, inf), sorted ascending.

    The count comes from Descartes' rule of signs throughout (t^m
    factored out first).  V = 0 coefficient sign changes give no root and
    V = 1 exactly one simple root, refined in float on (0, B] below the
    Cauchy bound B.  For V >= 2, V certified float sign alternations
    bracket V simple roots; otherwise exact Descartes bisection on the
    integer coefficients isolates every root.  Every count is certified.

    Every returned root r satisfies |q(r)| <= 1e-12 * S(r) with
    S(r) = sum_k |c_k| r^k, a bound that scaling q does not change.  Only
    V >= 2 can flag a root: an exact midpoint root of multiplicity >= 2, a
    tangent crossing that rounding split into two close roots or a complex
    pair, or roots closer than the narrowest bisection node, each reported
    once.  Degree-0 input with a nonzero constant yields an empty list.
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
        K, ks, ys = _newton_polygon(coeffs)
        found = _alternating_roots(coeffs, variations, K, ks, ys)
        if found is None:
            found = _isolate(coeffs, K)
        return RootList(tuple(r for r, _ in found), tuple(flag for _, flag in found))
    neg_lo = coeffs[0] < 0.0
    bound = 1.0 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    fhi = _EVAL_LIST[len(coeffs)](coeffs, bound)
    if fhi == 0.0:
        return RootList((bound,), (False,))
    # B has the sign of q(0) only when the root lies within rounding of it;
    # at 2B the leading term is over half of S(2B), so the float sign there
    # is exact
    hi = bound if (fhi < 0.0) != neg_lo else 2.0 * bound
    return RootList((_refine(coeffs, 0.0, hi, neg_lo)[0],), (False,))
