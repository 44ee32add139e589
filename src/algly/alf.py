"""The gauge-type Lyapunov function built from a polynomial sublevel set.

Given a polynomial P with P(0) < 0, every ray from the origin exits the
set {P <= 0} through its boundary.  Writing P~ for the homogenization of
P, the scaling function tau(x) is the unique positive root of
P~(x, .) = 0; it is homogeneous of degree 1, equals 1 exactly on
{P = 0}, and serves as a Lyapunov function whenever the set is invariant
and star-convex about the origin.  tau(0) is defined as 0, the value
forced by degree-1 homogeneity.

Objects here are immutable after construction; `tau` and `tau_dot` are
pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .errors import (
    DecayRateOverflowError,
    DegenerateGradientError,
    DegreeError,
    DimensionMismatchError,
    MultiplePositiveRootsError,
    NoPositiveRootError,
    OriginNotInteriorError,
    ZeroPolynomialError,
)
from .homogenize import HomogeneousDecomposition, homogeneous_parts, tau_coefficients
from .polycore import MultiPoly, PolyFamily
from .roots import UniPoly, positive_roots

if TYPE_CHECKING:
    from .dynsys import PolyVectorField

# grad(P).y is compared against the term-magnitude scale of grad(P) at y,
# which scales with P; the factor leaves room for the root's positional error.
_DEGENERATE_EPS = 1e-9


def sample_directions(nvars: int, n: int, seed: int) -> list[tuple[float, ...]]:
    """Deterministic unit directions: exact angular grid in 2D, seeded
    normalized Gaussian draws for nvars >= 3 (the only branch that loads
    numpy)."""
    if n < 1:
        raise ValueError("need at least one direction")
    if nvars == 1:
        return [(1.0,) if k % 2 == 0 else (-1.0,) for k in range(n)]
    if nvars == 2:
        return [
            (math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n))
            for k in range(n)
        ]
    import numpy as np

    rng = np.random.default_rng(seed)
    dirs = []
    while len(dirs) < n:
        v = rng.standard_normal(nvars)
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            dirs.append(tuple(float(c) for c in v / norm))
    return dirs


@dataclass(frozen=True)
class StarConvexityFailure:
    index: int
    direction: tuple[float, ...]
    root_count: int
    roots: tuple[float, ...]      # boundary radii along the ray
    suspected_tangency: bool


@dataclass(frozen=True)
class StarConvexityReport:
    passed: bool
    checked_directions: int
    failures: tuple[StarConvexityFailure, ...] = field(default=())


class HomogenizedLyapunov:
    """P together with its homogeneous parts and sampling settings."""

    def __init__(self, P: MultiPoly, *, ray_samples: int = 256, seed: int = 0):
        if P.is_zero():
            raise ZeroPolynomialError("cannot build a scaling function from the zero polynomial")
        value_at_origin = P.coefficient((0,) * P.nvars)   # P(0): every other term is 0 there
        if value_at_origin >= 0.0:
            raise OriginNotInteriorError(
                f"P(0) = {value_at_origin} must be negative (origin strictly inside the set)")
        decomposition = homogeneous_parts(P)
        if decomposition.degree < 1:
            raise DegreeError("constant polynomial: no scaling function exists")
        self.P = P
        self.nvars = P.nvars
        self.decomposition: HomogeneousDecomposition = decomposition
        self.p = decomposition.degree
        self.gradient_family = PolyFamily(P.gradient())
        self.ray_samples = ray_samples
        self.seed = seed
        # tau rescales x by a power of two where max|x_i|^p leaves half the
        # float exponent range, which leaves the other half to P's coefficients
        self._unscaled = (2.0 ** (-511 / self.p), 2.0 ** (512 / self.p))

    # -- the scaling function -------------------------------------------------

    def tau(self, x: Sequence[float]) -> float:
        """The unique positive root of P~(x, .); 0 at the origin by convention.

        Raises NoPositiveRootError when the ray never meets the boundary
        and MultiplePositiveRootsError when positive_roots finds more than
        one crossing; a flagged tangent crossing is one root.
        A point too large or too small for the float range of its
        coefficients is solved as x / 2^e, and the root scaled back by 2^e;
        both steps are exact, by the degree-1 homogeneity of tau.
        """
        if len(x) != self.nvars:
            raise DimensionMismatchError(f"point has length {len(x)}, expected {self.nvars}")
        big = max(map(abs, x))
        if big == 0.0:
            return 0.0
        e = 0
        if not self._unscaled[0] <= big <= self._unscaled[1]:
            e = math.frexp(big)[1]  # 0 for inf and nan, which fail later
        xs = [math.ldexp(v, -e) for v in x] if e else x
        rl = positive_roots(UniPoly(tau_coefficients(self.decomposition, xs)))
        if not rl.roots:
            raise NoPositiveRootError(x)
        if len(rl.roots) > 1:
            raise MultiplePositiveRootsError(x, tuple(math.ldexp(r, e) for r in rl.roots))
        return math.ldexp(rl.roots[0], e)

    # -- unicity / star-convexity ----------------------------------------------

    def check_star_convex(self) -> StarConvexityReport:
        """Count boundary crossings along ray_samples rays from the origin.

        For each unit direction d the radial polynomial r -> P(r*d) has
        coefficient vector [M_0(d) .. M_p(d)]; the set is star-convex
        exactly when every ray crosses the boundary once, i.e. the count
        is 1 and the root is not flagged as a tangency.  Failures carry
        the crossing radii.
        """
        directions = sample_directions(self.nvars, self.ray_samples, self.seed)
        failures = []
        for idx, d in enumerate(directions):
            radial = UniPoly(self.decomposition.family.eval_and_scale(d)[0][::-1])
            rl = positive_roots(radial)
            tangent = any(rl.suspected_multiple)
            if len(rl.roots) != 1 or tangent:
                failures.append(StarConvexityFailure(
                    index=idx,
                    direction=d,
                    root_count=len(rl.roots),
                    roots=rl.roots,
                    suspected_tangency=tangent,
                ))
        return StarConvexityReport(
            passed=not failures,
            checked_directions=self.ray_samples,
            failures=tuple(failures),
        )

    # -- decay rate --------------------------------------------------------------

    def tau_dot(self, f: "PolyVectorField", x: Sequence[float], tau: float | None = None) -> float:
        """Time derivative of tau along the field f at x.

        With c = tau(x) and y = x/c on the boundary, differentiating
        P(x(t)/c(t)) = 0 and using homogeneity of f gives

            dc/dt = c^(nu+1) * (grad P(y) . f(y)) / (grad P(y) . y).

        `tau`, when given, must be `self.tau(x)`; a caller that already
        holds it skips the second root solve, with a bit-identical result
        since tau is deterministic.

        Raises DegenerateGradientError when the denominator vanishes
        against its own term scale (tangent crossing), and
        DecayRateOverflowError when the rate is past the float range.
        """
        if all(v == 0.0 for v in x):
            raise ValueError("tau_dot is undefined at the origin")
        c = self.tau(x) if tau is None else tau
        y = [v / c for v in x]
        gvals, gscales = self.gradient_family.eval_and_scale(y)
        denom = sum(gv * yv for gv, yv in zip(gvals, y))
        scale = sum(gs * abs(yv) for gs, yv in zip(gscales, y))
        if abs(denom) <= _DEGENERATE_EPS * scale:
            raise DegenerateGradientError(
                f"grad(P).y = {denom} vanishes at the boundary point {tuple(y)}")
        fvals = f.eval_at(y)
        num = sum(gv * fv for gv, fv in zip(gvals, fvals))
        try:
            rate = c ** (f.nu + 1) * num / denom
            if not math.isinf(rate):
                return rate
        except OverflowError:  # c ** (nu + 1) itself
            pass
        raise DecayRateOverflowError(f"tau_dot at x={tuple(x)} is past the float range")
