"""Verification of Gram-matrix and multiplier certificates.

This module checks certificates supplied by the user; it never searches
for them.  A Gram certificate claims s(x) = z^T Q z for a monomial
vector z and a positive semidefinite Q; its floats are dyadic rationals,
so verify_gram decides it exactly.  A multiplier certificate claims
U1 * grad(P).f + U2 * P < 0 with U1 >= 0; verification samples rays
from the origin and decides each one over all radii, optionally backed
by Gram certificates for U1 and the negated combination for a
sampling-free conclusion.

Importing this module does not load fractions, which is imported only
to check a Gram certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from sys import float_info
from typing import Sequence

from .alf import sample_directions
from .dynsys import DETAILS_CAP, PolyVectorField, VerificationReport
from .errors import CertificateError, DimensionMismatchError
from .homogenize import homogeneous_parts
from .polycore import Exponents, MultiPoly, PolyFamily
from .roots import UniPoly, _eval_list, positive_roots

SYMMETRY_TOL = 1e-12     # allowed asymmetry of Q, relative to its largest entry

Matrix = Sequence[Sequence[float]]


@dataclass(frozen=True)
class GramCertificate:
    """Monomial basis z, symmetric matrix Q, stored as given as float rows,
    and the claimed target s = z^T Q z."""

    basis: tuple[Exponents, ...]
    Q: Matrix
    target: MultiPoly

    def __post_init__(self):
        from numbers import Real

        basis = tuple(tuple(int(k) for k in e) for e in self.basis)
        for e, given in zip(basis, self.basis):
            if list(e) != list(given):
                raise ValueError(f"basis exponents must be integers, got {list(given)}")
        object.__setattr__(self, "basis", basis)
        if not basis:
            raise ValueError("basis must not be empty")
        if len(set(basis)) != len(basis):
            raise ValueError("basis entries must be distinct")
        for e in basis:
            if len(e) != self.target.nvars:
                raise DimensionMismatchError(
                    f"basis entry {e} has length {len(e)}, expected {self.target.nvars}")
            if any(k < 0 for k in e):
                raise ValueError(f"basis exponents must be non-negative, got {e}")
        m = len(basis)
        Q = tuple(tuple(float(v) if isinstance(v, Real) else math.nan for v in row) for row in self.Q)
        if len(Q) != m or any(len(row) != m for row in Q):
            raise DimensionMismatchError(f"Q is not a {m} x {m} matrix")
        if not all(math.isfinite(v) for row in Q for v in row):
            raise ValueError("Q entries must be finite numbers")
        scale = max(abs(v) for row in Q for v in row)
        if any(abs(Q[i][j] - Q[j][i]) > SYMMETRY_TOL * scale for i in range(m) for j in range(i)):
            raise ValueError("Q is not symmetric within tolerance")
        object.__setattr__(self, "Q", Q)


def build_gram(basis, Q, target: MultiPoly, what: str = "Gram certificate") -> GramCertificate:
    """GramCertificate(basis, Q, target); a refusal raises CertificateError."""
    try:
        return GramCertificate(basis, Q, target)
    except (TypeError, ValueError, OverflowError, DimensionMismatchError) as exc:
        raise CertificateError(f"invalid {what}: {exc}") from exc


@dataclass(frozen=True)
class MultiplierCertificate:
    """U1 (claimed nonnegative) and U2, with optional Gram backing.

    `gram_U1` / `gram_negG` are (basis, Q) pairs, Q an array or nested
    lists; their targets are implied (U1 itself, and the negated
    combination -G respectively).
    """

    U1: MultiPoly
    U2: MultiPoly
    gram_U1: tuple[tuple[Exponents, ...], Matrix] | None = None
    gram_negG: tuple[tuple[Exponents, ...], Matrix] | None = None


@dataclass
class GramReport:
    passed: bool
    coeff_ok: bool                # every target monomial is some e_i + e_j
    psd_ok: bool                  # the projected Q is positive semidefinite
    psd_failed_at: int | None     # the basis index where the PSD test failed
    max_coeff_error: float        # of z^T Q z against the target, Q as supplied
    mismatches: list = field(default_factory=list)


def _to_float(x) -> float:
    return float(x) if abs(x) <= float_info.max else math.inf if x > 0 else -math.inf


def _psd_failure(A: list[list[int]]) -> int | None:
    """The index where symmetric fraction-free (Bareiss) elimination of the
    upper triangle of A shows A not to be positive semidefinite, or None.
    Each entry stays a positive multiple of its Schur complement entry: a
    negative pivot, or a zero pivot whose row is not zero, fails, and a
    zero pivot with a zero row is dropped."""
    m = len(A)
    prev = 1
    for k in range(m):
        row = A[k]
        p = row[k]
        if p < 0 or (p == 0 and any(row[k + 1:])):
            return k
        if p == 0:
            continue
        for i in range(k + 1, m):
            a = row[i]
            A[i][i:] = [(p * x - a * y) // prev for x, y in zip(A[i][i:], row[i:])]
        prev = p
    return None


def verify_gram(cert: GramCertificate, target=None) -> GramReport:
    """Decide the certificate exactly, in Fraction arithmetic, against
    `target` (exponents -> exact coefficient), by default cert.target.

    With S = (Q + Q^T)/2, the index pairs (i, j) are grouped by the
    monomial e_i + e_j.  Adding r_a / n_a to each of the n_a entries of
    group a, r_a = target_a - sum S_ij, projects S orthogonally onto
    {z^T S z = target} (Peyrl and Parrilo, TCS 2008).  The certificate
    passes when every target monomial has a group and the projection,
    scaled to integers, is positive semidefinite.  max_coeff_error and
    mismatches report the residuals of the Q that was supplied.
    """
    from fractions import Fraction

    basis, Q = cert.basis, cert.Q
    if target is None:
        target = cert.target.terms
    m = len(basis)
    groups: dict[Exponents, list[tuple[int, int]]] = {}
    for i in range(m):
        for j in range(i, m):
            e = tuple(a + b for a, b in zip(basis[i], basis[j]))
            groups.setdefault(e, []).append((i, j))
    S = [[Fraction(0)] * m for _ in range(m)]
    mismatches = []
    max_err = Fraction(0)
    for e in sorted(set(groups) | set(target)):
        pairs = groups.get(e, ())
        expanded = Fraction(0)
        for i, j in pairs:
            S[i][j] = (Fraction(Q[i][j]) + Fraction(Q[j][i])) / 2
            expanded += 2 * S[i][j] if i != j else S[i][j]
        r = Fraction(target.get(e, 0)) - expanded
        if not r:
            continue
        max_err = max(max_err, abs(r))
        if len(mismatches) < DETAILS_CAP:
            mismatches.append({"exponents": e, "expanded": _to_float(expanded),
                               "target": _to_float(target.get(e, 0))})
        if pairs:
            step = r / sum(1 if i == j else 2 for i, j in pairs)
            for i, j in pairs:
                S[i][j] += step
    den = math.lcm(*(x.denominator for row in S for x in row))
    failed_at = _psd_failure([[x.numerator * (den // x.denominator) for x in row] for row in S])
    coeff_ok = set(target) <= set(groups)
    return GramReport(
        passed=coeff_ok and failed_at is None,
        coeff_ok=coeff_ok,
        psd_ok=failed_at is None,
        psd_failed_at=failed_at,
        max_coeff_error=_to_float(max_err),
        mismatches=mismatches,
    )


def _negated_combination(P: MultiPoly, f: PolyVectorField, cert: MultiplierCertificate) -> dict:
    """The coefficients of -(U1 * grad(P).f + U2 * P), exact in Fraction
    from the float coefficients of P, f, U1 and U2."""
    from fractions import Fraction

    def exact(poly: MultiPoly) -> dict:
        return {e: Fraction(c) for e, c in poly.terms.items()}

    def add_product(out: dict, a: dict, b: dict, sign: int) -> None:
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + sign * ca * cb

    P_exact = exact(P)
    lie: dict = {}
    for i, comp in enumerate(f.components):
        dP = {e[:i] + (e[i] - 1,) + e[i + 1:]: e[i] * c for e, c in P_exact.items() if e[i]}
        add_product(lie, dP, exact(comp), 1)
    out: dict = {}
    add_product(out, exact(cert.U1), lie, -1)
    add_product(out, exact(cert.U2), P_exact, -1)
    return {e: c for e, c in out.items() if c}


def _ray_fault(c: Sequence[float], sign: float) -> float | None:
    """None when sign * c(r) > 0 for every r > 0, c(r) = sum_j c[j] r^j:
    the lowest nonzero coefficient has the sign and c has no positive root,
    which the signs alone decide when they do not change.  Otherwise the
    radius where sign * c(r) is least among the roots and the points
    before, between and past them, or 1 when there is no root."""
    lo, hi = min(c), max(c)
    if lo >= 0.0 or hi <= 0.0:
        return None if sign * (lo + hi) > 0.0 else 1.0
    roots = positive_roots(UniPoly(c)).roots
    if not roots:
        return None if sign * next(v for v in c if v) > 0.0 else 1.0
    mids = [0.5 * (a + b) for a, b in zip(roots, roots[1:])]
    return min([0.5 * roots[0], *roots, *mids, 2.0 * roots[-1]], key=lambda r: sign * _eval_list(c, r))


def verify_multiplier(
    P: MultiPoly,
    f: PolyVectorField,
    cert: MultiplierCertificate,
    n_dirs: int = 4096,
    seed: int = 0,
) -> VerificationReport:
    """Check G = U1 * grad(P).f + U2 * P < 0 and U1 >= 0 on the open rays
    from the origin along `n_dirs` sampled directions, over all radii.

    Along a unit direction d both are polynomials in the radius r, whose
    coefficients are the homogeneous parts at d.  G < 0 on the ray when its
    lowest nonzero coefficient is negative and it has no positive root;
    U1 >= 0 when it is 0 all along the ray or passes the same test with a
    positive lowest coefficient, so a U1 that touches 0 at some r > 0
    fails.  The directions are check_invariance's, from sample_directions:
    an exact grid in 2D, seeded random.Random Gaussian draws above.

    worst_margin is the largest G, and notes["min_U1"] the least U1, each
    evaluated in r by Horner's rule, over the unit directions and one point
    r * d on each failing ray where the condition fails.  Attached Gram data for U1 and -G is verified as well
    and must pass; -G is decided exactly, as the combination of the float
    inputs.  A Gram certificate for -G, with one for U1 or a constant
    U1 >= 0, gives a sampling-free conclusion (`certified`).  A coefficient
    past the float range, of G or along a ray, raises CertificateError.
    """
    if cert.U1.nvars != P.nvars or cert.U2.nvars != P.nvars:
        raise DimensionMismatchError("multipliers and P disagree on the number of variables")
    lie = MultiPoly.zero(P.nvars)
    for g, comp in zip(P.gradient(), f.components):
        lie = lie + g * comp
    G = cert.U1 * lie + cert.U2 * P
    if not all(map(math.isfinite, G.terms.values())):
        raise CertificateError("a coefficient of U1 * grad(P).f + U2 * P is past the float range")
    # malformed Gram blocks are refused before any sampling
    grams = {}
    if cert.gram_U1 is not None:
        grams["gram_U1"] = build_gram(*cert.gram_U1, cert.U1, "multiplier gram_U1")
    if cert.gram_negG is not None:
        grams["gram_negG"] = build_gram(*cert.gram_negG, -G, "multiplier gram_negG")

    def parts(poly: MultiPoly) -> tuple[MultiPoly, ...]:
        return (poly,) if poly.is_zero() else homogeneous_parts(poly).parts

    G_parts = parts(G)
    family = PolyFamily((*G_parts, *parts(cert.U1)))
    worst_G = -math.inf
    worst_witness = None
    min_U1 = math.inf
    min_U1_witness = None
    sampled_ok = True
    for d in sample_directions(P.nvars, n_dirs, seed):
        values = family.eval_and_scale(d)[0]
        if not all(map(math.isfinite, values)):
            raise CertificateError(f"a coefficient of G or U1 along the ray {d} is past the float range")
        g, u = values[:len(G_parts)], values[len(G_parts):]
        radii = [1.0]
        # most rays pass on their signs alone: G's coefficients <= 0 with one
        # < 0, and U1's >= 0; _ray_fault decides the others
        if not (max(g) <= 0.0 and min(g) < 0.0 and min(u) >= 0.0):
            faults = {_ray_fault(g, -1.0), _ray_fault(u, 1.0) if any(u) else None} - {None}
            sampled_ok = sampled_ok and not faults
            radii += sorted(faults)
        for r in radii:
            g_val, u_val = _eval_list(g, r), _eval_list(u, r)
            if g_val > worst_G:
                worst_G, worst_witness = g_val, tuple(r * v for v in d)
            if u_val < min_U1:
                min_U1, min_U1_witness = u_val, tuple(r * v for v in d)

    notes = {
        "check": "multiplier",
        "evidence": "sampled rays, all radii",
        "seed": seed,
        "min_U1": min_U1,
        "min_U1_witness": min_U1_witness,
        "combination": G.to_text(),
    }

    certified = None
    for key, gram in grams.items():
        target = _negated_combination(P, f, cert) if key == "gram_negG" else None
        report = verify_gram(gram, target)
        notes[f"{key}_passed"] = report.passed
        certified = report.passed if certified is None else (certified and report.passed)
    if certified is not None:
        # a constant U1 >= 0 is its own certificate
        u1_certified = "gram_U1" in grams or (
            cert.U1.degree() <= 0 and cert.U1.coefficient((0,) * P.nvars) >= 0.0)
        notes["certified"] = certified and "gram_negG" in grams and u1_certified

    passed = sampled_ok and (certified is None or certified)
    return VerificationReport(
        passed=passed,
        n_samples=n_dirs,
        worst_margin=worst_G,
        worst_witness=worst_witness,
        notes=notes,
    )
