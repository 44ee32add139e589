"""Verification of Gram-matrix and multiplier certificates.

This module checks certificates supplied by the user; it never searches
for them.  A Gram certificate claims s(x) = z^T Q z for a monomial
vector z and a positive semidefinite Q; its floats are dyadic rationals,
so verify_gram decides it exactly.  A multiplier certificate claims
U1 * grad(P).f + U2 * P < 0 with U1 >= 0; verification is dense
sampling, optionally backed by Gram certificates for U1 and the negated
combination for a sampling-free conclusion.

numpy is imported only for the seeded sampling of multiplier
certificates, and fractions only to check a Gram certificate, so
importing this module loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from sys import float_info
from typing import Sequence

from .dynsys import PolyVectorField, VerificationReport
from .errors import CertificateError, DimensionMismatchError
from .polycore import Exponents, MultiPoly, PolyFamily

SYMMETRY_TOL = 1e-12     # allowed asymmetry of Q, relative to its largest entry
_MISMATCH_CAP = 16

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
        scale = max(1.0, max(abs(v) for row in Q for v in row))
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


def expand_quadratic_form(basis: Sequence[Exponents], M: Matrix, nvars: int) -> MultiPoly:
    """The polynomial sum_ij M[i][j] x^(e_i + e_j)."""
    out: dict[Exponents, float] = {}
    m = len(basis)
    for i in range(m):
        for j in range(m):
            c = float(M[i][j])
            if c == 0.0:
                continue
            e = tuple(a + b for a, b in zip(basis[i], basis[j]))
            out[e] = out.get(e, 0.0) + c
    return MultiPoly(nvars, out)


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


def verify_gram(cert: GramCertificate) -> GramReport:
    """Decide the certificate exactly, in Fraction arithmetic.

    With S = (Q + Q^T)/2, the index pairs (i, j) are grouped by the
    monomial e_i + e_j.  Adding r_a / n_a to each of the n_a entries of
    group a, r_a = target_a - sum S_ij, projects S orthogonally onto
    {z^T S z = target} (Peyrl and Parrilo, TCS 2008).  The certificate
    passes when every target monomial has a group and the projection,
    scaled to integers, is positive semidefinite.  max_coeff_error and
    mismatches report the residuals of the Q that was supplied.
    """
    from fractions import Fraction

    basis, Q, target = cert.basis, cert.Q, cert.target.terms
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
        r = Fraction(target.get(e, 0.0)) - expanded
        if not r:
            continue
        max_err = max(max_err, abs(r))
        if len(mismatches) < _MISMATCH_CAP:
            mismatches.append({"exponents": e, "expanded": _to_float(expanded),
                               "target": target.get(e, 0.0)})
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


def gram_euler_identity(cert: GramCertificate) -> MultiPoly:
    """Residual of x.grad(z^T Q z) = 2 z^T T Q z with T = diag(deg z_i).

    Because every term of z^T Q z coming from basis entries of degrees
    d_i, d_j has total degree d_i + d_j, the identity holds term by term
    and the residual is the zero polynomial; the operation is a
    structural self-check of the degree bookkeeping.  Basis entries of
    degree 0 break the factor-2 form and are rejected.
    """
    degrees = [sum(e) for e in cert.basis]
    if any(d == 0 for d in degrees):
        raise ValueError("constant monomial in basis: the scaled identity requires degree >= 1")
    nvars = cert.target.nvars
    s = expand_quadratic_form(cert.basis, cert.Q, nvars)
    euler = MultiPoly(nvars, {e: c * sum(e) for e, c in s.terms.items()})
    TQ = [[d * q for q in row] for d, row in zip(degrees, cert.Q)]
    scaled = expand_quadratic_form(cert.basis, TQ, nvars)
    return euler - scaled.scale(2.0)


def default_grid(nvars: int) -> list[tuple[float, ...]]:
    """Uniform grid of 41 points per axis over [-5, 5]^nvars."""
    axis = [-5.0 + 10.0 * k / 40 for k in range(41)]
    grid = [()]
    for _ in range(nvars):
        grid = [g + (a,) for g in grid for a in axis]
    return grid


def verify_multiplier(
    P: MultiPoly,
    f: PolyVectorField,
    cert: MultiplierCertificate,
    grid: Sequence[Sequence[float]] | None = None,
    n_random: int = 10000,
    seed: int = 0,
) -> VerificationReport:
    """Check G = U1 * grad(P).f + U2 * P < 0 and U1 >= 0 by dense sampling.

    Samples are the supplied grid (default: 41 points per axis over
    [-5, 5]^n for n <= 3) plus `n_random` seeded uniform points.  The
    origin is excluded when G(0) = 0 structurally.  When Gram data for
    U1 and -G is attached, those certificates are verified as well and
    must pass, giving a sampling-free conclusion.
    """
    if cert.U1.nvars != P.nvars or cert.U2.nvars != P.nvars:
        raise DimensionMismatchError("multipliers and P disagree on the number of variables")
    lie = MultiPoly.zero(P.nvars)
    for g, comp in zip(P.gradient(), f.components):
        lie = lie + g * comp
    G = cert.U1 * lie + cert.U2 * P
    if not all(map(math.isfinite, G.terms.values())):
        raise CertificateError("a coefficient of U1 * grad(P).f + U2 * P is past the float range")
    skip_origin = G.coefficient((0,) * P.nvars) == 0.0
    # malformed Gram blocks are refused before any sampling
    grams = {}
    if cert.gram_U1 is not None:
        grams["gram_U1"] = build_gram(*cert.gram_U1, cert.U1, "multiplier gram_U1")
    if cert.gram_negG is not None:
        grams["gram_negG"] = build_gram(*cert.gram_negG, -G, "multiplier gram_negG")

    if grid is None:
        grid = default_grid(P.nvars) if P.nvars <= 3 else []
        if not grid and n_random == 0:
            raise ValueError("empty grid and no random samples")
    elif len(grid) == 0 and n_random == 0:
        raise ValueError("empty grid and no random samples")
    import numpy as np

    rng = np.random.default_rng(seed)
    samples = [tuple(float(v) for v in pt) for pt in grid]
    samples += [tuple(float(v) for v in rng.uniform(-5.0, 5.0, P.nvars)) for _ in range(n_random)]

    G_and_U1 = PolyFamily((G, cert.U1))
    worst_G = -math.inf
    worst_witness = None
    min_U1 = math.inf
    min_U1_witness = None
    n_used = 0
    for pt in samples:
        if skip_origin and all(v == 0.0 for v in pt):
            continue
        n_used += 1
        (g_val, u_val), _ = G_and_U1.eval_and_scale(pt)
        if g_val > worst_G:
            worst_G = g_val
            worst_witness = pt
        if u_val < min_U1:
            min_U1 = u_val
            min_U1_witness = pt

    notes = {
        "check": "multiplier",
        "grid_points": len(grid),
        "random_points": n_random,
        "seed": seed,
        "min_U1": min_U1,
        "min_U1_witness": min_U1_witness,
        "combination": G.to_text(),
    }
    sampled_ok = worst_G < 0.0 and min_U1 >= 0.0

    certified = None
    for key, gram in grams.items():
        report = verify_gram(gram)
        notes[f"{key}_passed"] = report.passed
        certified = report.passed if certified is None else (certified and report.passed)
    if certified is not None:
        notes["certified"] = certified and len(grams) == 2

    passed = sampled_ok and (certified is None or certified)
    return VerificationReport(
        passed=passed,
        n_samples=n_used,
        worst_margin=worst_G,
        worst_witness=worst_witness,
        notes=notes,
    )
