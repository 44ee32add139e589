"""Reference answers for the benchmark, computed without algly.

Polynomials are parsed by sympy (``^`` read as ``**``) into term arrays
and evaluated with numpy.  ``tau(x)`` is taken from the companion-matrix
roots of the scale polynomial ``sum_i M_i(x) s^(p-i)``, polished by
Newton; ``tau_dot`` follows the implicit-function formula
``c^(nu+1) * (grad P(y).f(y)) / (grad P(y).y)`` with ``y = x / c``.
Exact root counts use sympy's Sturm count on the rational values of the
float coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.rootisolation import dup_count_real_roots

# A real root of the companion matrix whose imaginary part is below this
# share of its modulus is real up to eigenvalue error.
_IMAG_TOL = 1e-6
# Roots closer than this share of their size are one (tangent) crossing.
_MERGE_TOL = 1e-8
_NEWTON_STEPS = 8


class Terms:
    """A polynomial as an exponent matrix and a coefficient vector."""

    def __init__(self, exps: np.ndarray, coeffs: np.ndarray):
        self.exps = exps
        self.coeffs = coeffs
        self.degrees = exps.sum(axis=1)

    @classmethod
    def of(cls, expr, symbols) -> "Terms":
        pairs = sympy.Poly(expr, *symbols).terms() or [((0,) * len(symbols), 0)]
        exps = np.array([e for e, _ in pairs], dtype=np.int64).reshape(len(pairs), len(symbols))
        return cls(exps, np.array([float(c) for _, c in pairs]))

    def eval(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of X (shape (m, n)) -> shape (m,)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        monomials = np.prod(X[:, None, :] ** self.exps[None, :, :], axis=2)
        return monomials @ self.coeffs

    def part(self, degree: int) -> "Terms":
        keep = self.degrees == degree
        return Terms(self.exps[keep], self.coeffs[keep])


def _sympy(text: str, symbols):
    return sympy.sympify(text.replace("^", "**"), locals={str(s): s for s in symbols})


class ProblemOracle:
    """Reference tau / tau_dot for one problem (P text and field)."""

    def __init__(self, nvars: int, P: str, field: dict):
        xs = sympy.symbols(f"x1:{nvars + 1}")
        expr = sympy.expand(_sympy(P, xs))
        terms = Terms.of(expr, xs)
        self.parts = [terms.part(i) for i in range(int(terms.degrees.max()) + 1)]
        self.grad = [Terms.of(sympy.diff(expr, x), xs) for x in xs]
        if "matrix" in field:
            comps = [sum(float(a) * x for a, x in zip(row, xs)) for row in field["matrix"]]
        else:
            comps = [_sympy(text, xs) for text in field["components"]]
        self.field = [Terms.of(sympy.expand(c), xs) for c in comps]
        self.nu = max(int(t.degrees.max()) for t in self.field) - 1

    def scale_roots(self, x) -> list[float]:
        """Distinct positive roots s of sum_i M_i(x) s^(p-i), ascending."""
        X = np.asarray(x, dtype=float)[None, :]
        return positive_real_roots([part.eval(X)[0] for part in self.parts])   # M_0 multiplies s^p

    def tau_dots(self, X, c) -> np.ndarray:
        """tau_dot at the rows of X, given their tau values c."""
        c = np.asarray(c, dtype=float)
        Y = np.atleast_2d(np.asarray(X, dtype=float)) / c[:, None]
        G = np.stack([gi.eval(Y) for gi in self.grad], axis=1)
        F = np.stack([fi.eval(Y) for fi in self.field], axis=1)
        return c ** (self.nu + 1) * np.sum(G * F, axis=1) / np.sum(G * Y, axis=1)


def positive_real_roots(desc: np.ndarray) -> list[float]:
    """Distinct positive real roots of sum desc[k] s^(d-k), Newton-polished."""
    desc = np.trim_zeros(np.asarray(desc, dtype=float), "f")
    if len(desc) < 2:
        return []
    found = []
    for z in np.roots(desc):
        if z.real > 0.0 and abs(z.imag) <= _IMAG_TOL * abs(z):
            found.append(_newton(desc, z.real))
    found.sort()
    distinct = []
    for r in found:
        if not distinct or r - distinct[-1] > _MERGE_TOL * r:
            distinct.append(r)
    return distinct


def _newton(desc: np.ndarray, r: float) -> float:
    deriv = np.polyder(desc)
    for _ in range(_NEWTON_STEPS):
        fr = np.polyval(desc, r)
        dfr = np.polyval(deriv, r)
        if fr == 0.0 or dfr == 0.0:
            break
        step = fr / dfr
        if abs(step) > 0.1 * abs(r):
            break
        r -= step
    return float(r)


def disk_tau(x1: float, x2: float) -> float:
    """Closed form of tau for (x1-1)^2 + (x2+1)^2 - 4 (positive root of a quadratic)."""
    return (x2 - x1 + math.sqrt((x2 - x1) ** 2 + 2.0 * (x1 * x1 + x2 * x2))) / 2.0


def exact_positive_root_count(coeffs) -> int:
    """Distinct roots in (0, inf) of sum coeffs[k] t^k, exactly, for float coefficients."""
    fr = [Fraction(float(v)) for v in coeffs]
    while fr and fr[-1] == 0:
        fr.pop()
    if len(fr) < 2:
        return 0
    den = 1
    for f in fr:
        den = den * f.denominator // math.gcd(den, f.denominator)
    ints = [ZZ(int(f * den)) for f in fr]
    at_zero = 1 if ints[0] == 0 else 0
    return dup_count_real_roots(ints[::-1], ZZ, inf=ZZ(0)) - at_zero
