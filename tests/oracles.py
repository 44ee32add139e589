"""Independent reference computations shared by the test modules.

Everything here is deliberately detached from the library's own code
paths: closed forms, brute expansions, and generators for randomized
inputs whose answers are known by construction.
"""

import math
import struct
from fractions import Fraction

from algly.polycore import MultiPoly


def tau_closed_form(x1: float, x2: float) -> float:
    """Positive root of -2*t^2 + 2*t*(x2 - x1) + (x1^2 + x2^2), solved by
    the quadratic formula."""
    return (x2 - x1 + math.sqrt((x2 - x1) ** 2 + 2.0 * (x1 * x1 + x2 * x2))) / 2.0


def term_values(P: MultiPoly, x) -> list[float]:
    """Each term of P at x, in term-map order: the coefficient times each
    power, left to right, with an IEEE infinity where Python's pow raises
    OverflowError, and stopped at the first zero.  A term with a zero
    coordinate among its variables is 0 (the zero-factor rule)."""
    out = []
    for e, c in P.terms.items():
        if any(xi == 0.0 for xi, ei in zip(x, e) if ei):
            out.append(0.0)
            continue
        v = c
        for xi, ei in zip(x, e):
            if ei:
                try:
                    v *= xi ** ei
                except OverflowError:
                    v *= math.inf if (xi > 0.0 or ei % 2 == 0) else -math.inf
                if v == 0.0:
                    break
        out.append(v)
    return out


def eval_terms(P: MultiPoly, x) -> float:
    """P(x) as the sum of term_values from 0.0 in term-map order: the
    bit-for-bit reference for MultiPoly.eval."""
    total = 0.0
    for v in term_values(P, x):
        total += v
    return total


def scale_terms(P: MultiPoly, x) -> float:
    """Sum of |term| over term_values: the scale reference for any point,
    overflowing or not."""
    total = 0.0
    for v in term_values(P, x):
        total += abs(v)
    return total


def abs_eval(P: MultiPoly, x) -> float:
    """Sum of |coeff| * prod |x_i|^e_i; the natural evaluation scale at x."""
    total = 0.0
    for e, c in P.terms.items():
        v = abs(c)
        for xi, ei in zip(x, e):
            if ei:
                v *= abs(xi) ** ei
        total += v
    return total


def random_poly(rng, nvars: int, max_degree: int, n_terms: int,
                integer: bool = False, lo: float = -4.0, hi: float = 4.0) -> MultiPoly:
    terms = {}
    for _ in range(n_terms):
        e = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(nvars))
        if sum(e) > max_degree:
            continue
        if integer:
            c = float(rng.integers(int(lo), int(hi) + 1))
        else:
            c = float(rng.uniform(lo, hi))
        terms[e] = terms.get(e, 0.0) + c
    return MultiPoly(nvars, terms)


def expand_from_roots(roots) -> list[float]:
    """Ascending coefficients of prod (t - r_i), expanded in float."""
    coeffs = [1.0]
    for r in roots:
        coeffs = [0.0] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    return coeffs


def geometric_roots(rng, count: int, lo: float = 0.1, hi: float = 10.0,
                    min_ratio: float = 1.3) -> list[float]:
    """Roots in [lo, hi] with consecutive ratios >= min_ratio, so the
    expanded polynomial stays well conditioned (log-uniform draws)."""
    roots: list[float] = []
    while len(roots) < count:
        r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        if all(max(r, s) / min(r, s) >= min_ratio for s in roots):
            roots.append(r)
    roots.sort()
    return roots


def meets_residual_bound(coeffs, t: float, rel: float = 1e-12) -> bool:
    """|q(t)| <= rel * S(t) with S(t) = sum |c_k| t^k for q = sum c_k t^k,
    decided exactly in rational arithmetic on the float inputs."""
    t = Fraction(t)
    value = scale = Fraction(0)
    for c in reversed(coeffs):
        value = value * t + Fraction(c)
        scale = scale * abs(t) + abs(Fraction(c))
    return abs(value) <= Fraction(rel) * scale


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(n: int) -> float:
    return struct.unpack("<d", struct.pack("<q", n))[0]


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def ulps_apart(a: float, b: float) -> int:
    """Distance in float steps between two non-negative floats."""
    return abs(_float_bits(a) - _float_bits(b))


def exact_sign_root(coeffs) -> tuple[float, float]:
    """Adjacent floats a < b across which q changes sign on (0, inf), or
    a == b where q is exactly zero, for q with exactly one positive root
    of odd multiplicity.  Bisection over the float bit patterns, with
    exact signs, from 0 to a float at or above the exact Cauchy bound."""
    m = next(k for k, c in enumerate(coeffs) if c != 0.0)
    coeffs = [Fraction(c) for c in coeffs[m:]]
    while coeffs[-1] == 0:
        coeffs.pop()
    bound = 1 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])

    def sign(t):
        value = Fraction(0)
        for c in reversed(coeffs):
            value = value * Fraction(t) + c
        return (value > 0) - (value < 0)

    a, b = 0, _float_bits(math.nextafter(float(bound), math.inf))
    neg_lo = sign(0.0) < 0
    while b - a > 1:
        mid = (a + b) // 2
        s = sign(_bits_float(mid))
        if s == 0:
            a = b = mid
        elif (s < 0) == neg_lo:
            a = mid
        else:
            b = mid
    return _bits_float(a), _bits_float(b)


def exact_positive_root_count(coeffs) -> int:
    """Distinct roots in (0, inf) of sum coeffs[k] t^k, by a Sturm sequence
    in exact rational arithmetic on the float coefficients."""
    p = [Fraction(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    while p and p[0] == 0:
        p.pop(0)  # roots at zero are not positive
    if len(p) < 2:
        return 0
    chain = [p, [k * p[k] for k in range(1, len(p))]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], list(chain[-1])
        rem = list(a)
        for k in range(len(rem) - 1, len(b) - 2, -1):
            q = rem[k] / b[-1]
            for j in range(len(b)):
                rem[k - len(b) + 1 + j] -= q * b[j]
        rem = rem[:len(b) - 1]
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
        chain.append([-v for v in rem])

    def changes(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return changes(m[0] for m in chain) - changes(m[-1] for m in chain)
