"""Homogeneous decomposition and homogenization of sparse polynomials.

A polynomial P of degree p splits uniquely into homogeneous parts
``P = M_0 + M_1 + ... + M_p`` where M_i collects the degree-i terms.
Appending a scale variable turns P into the homogeneous polynomial

    P~(x, s) = sum_i M_i(x) * s^(p - i)

of total degree p in (x, s), with ``P~(x, 1) == P(x)``.  The scale
variable is stored as the last variable (index nvars + 1) so all of
`polycore`'s arithmetic applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import DegreeError, ZeroPolynomialError
from .polycore import MultiPoly, PolyFamily


@dataclass(frozen=True)
class HomogeneousDecomposition:
    """Parts [M_0 .. M_p] of a polynomial, indexed by total degree.

    `family` evaluates the parts top-down, M_p .. M_0, so its values are
    the coefficients of `tau_coefficients` in order."""

    nvars: int
    parts: tuple[MultiPoly, ...]
    family: PolyFamily = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.parts:
            raise ZeroPolynomialError("decomposition needs at least one part")
        if self.parts[-1].is_zero():
            raise DegreeError("top part is zero; the stated degree is not the true degree")
        for i, part in enumerate(self.parts):
            if not part.is_zero() and any(sum(e) != i for e in part.terms):
                raise DegreeError(f"part {i} is not homogeneous of degree {i}")
        object.__setattr__(self, "family", PolyFamily(self.parts[::-1]))

    @property
    def degree(self) -> int:
        return len(self.parts) - 1


def homogeneous_parts(P: MultiPoly) -> HomogeneousDecomposition:
    """Split P into its homogeneous parts."""
    if P.is_zero():
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    p = P.degree()
    buckets: list[dict] = [{} for _ in range(p + 1)]
    for e, c in P.terms.items():
        buckets[sum(e)][e] = c
    parts = tuple(MultiPoly(P.nvars, bucket) for bucket in buckets)
    return HomogeneousDecomposition(P.nvars, parts)


def homogenize(decomposition: HomogeneousDecomposition) -> MultiPoly:
    """Build P~ over (x, s) with the scale variable s appended last."""
    p = decomposition.degree
    out = {}
    for i, part in enumerate(decomposition.parts):
        for e, c in part.terms.items():
            out[e + (p - i,)] = c
    return MultiPoly(decomposition.nvars + 1, out)


def tau_coefficients(decomposition: HomogeneousDecomposition, x: Sequence[float]) -> list[float]:
    """Coefficients [c_0 .. c_p] of P~(x, .) as a polynomial in the scale.

    c_k = M_(p-k)(x), so c_p is the constant part of P and c_0 the value
    of the top-degree part at x.
    """
    return list(decomposition.family.eval_and_scale(x)[0])

