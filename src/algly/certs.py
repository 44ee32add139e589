"""Verification of Gram-matrix and multiplier certificates.

This module checks certificates supplied by the user; it never searches
for them.  A Gram certificate claims s(x) = z^T Q z for a monomial
vector z and a positive semidefinite Q; verification is two independent
checks (symbolic coefficient identity, then Jacobi eigenvalues of Q).
A multiplier certificate claims U1 * grad(P).f + U2 * P < 0 with
U1 >= 0; verification is dense sampling, optionally backed by Gram
certificates for U1 and the negated combination for a sampling-free
conclusion.

numpy is imported inside the functions that do linear algebra or seeded
sampling, so importing this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .dynsys import PolyVectorField, VerificationReport
from .errors import CertificateError, DimensionMismatchError
from .polycore import Exponents, MultiPoly, PolyFamily

if TYPE_CHECKING:
    import numpy as np

COEFF_TOL = 1e-10        # per-coefficient tolerance in the identity check
SYMMETRY_TOL = 1e-12     # allowed asymmetry of Q, relative to its largest entry
JACOBI_OFF_TOL = 1e-12   # off-diagonal Frobenius norm target, relative
_JACOBI_MAX_SWEEPS = 64
_MISMATCH_CAP = 16


@dataclass(frozen=True)
class GramCertificate:
    """Monomial basis z, symmetric matrix Q, and the claimed target s = z^T Q z."""

    basis: tuple[Exponents, ...]
    Q: np.ndarray
    target: MultiPoly

    def __post_init__(self):
        import numpy as np

        basis = tuple(tuple(int(k) for k in e) for e in self.basis)
        object.__setattr__(self, "basis", basis)
        if len(set(basis)) != len(basis):
            raise ValueError("basis entries must be distinct")
        for e in basis:
            if len(e) != self.target.nvars:
                raise DimensionMismatchError(
                    f"basis entry {e} has length {len(e)}, expected {self.target.nvars}")
            if any(k < 0 for k in e):
                raise ValueError(f"basis exponents must be non-negative, got {e}")
        Q = np.asarray(self.Q, dtype=float)
        if not np.isfinite(Q).all():
            raise ValueError("Q entries must be finite")
        m = len(basis)
        if Q.shape != (m, m):
            raise DimensionMismatchError(f"Q has shape {Q.shape}, expected ({m}, {m})")
        scale = max(float(np.max(np.abs(Q))), 1.0)
        if float(np.max(np.abs(Q - Q.T))) > SYMMETRY_TOL * scale:
            raise ValueError("Q is not symmetric within tolerance")
        # store bitwise-symmetric entries so downstream identities are exact
        Qs = 0.5 * (Q + Q.T)
        Qs.flags.writeable = False
        object.__setattr__(self, "Q", Qs)


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
    gram_U1: tuple[tuple[Exponents, ...], np.ndarray] | None = None
    gram_negG: tuple[tuple[Exponents, ...], np.ndarray] | None = None


@dataclass
class GramReport:
    passed: bool
    coeff_ok: bool
    psd_ok: bool
    marginal: bool
    eigenvalues: tuple[float, ...]
    max_coeff_error: float
    psd_tol: float
    mismatches: list = field(default_factory=list)


def expand_quadratic_form(basis: Sequence[Exponents], M: np.ndarray, nvars: int) -> MultiPoly:
    """The polynomial sum_ij M[i,j] x^(e_i + e_j)."""
    out: dict[Exponents, float] = {}
    m = len(basis)
    for i in range(m):
        for j in range(m):
            c = float(M[i, j])
            if c == 0.0:
                continue
            e = tuple(a + b for a, b in zip(basis[i], basis[j]))
            out[e] = out.get(e, 0.0) + c
    return MultiPoly(nvars, out)


def jacobi_eigenvalues(A: np.ndarray) -> tuple[float, ...]:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm falls below
    JACOBI_OFF_TOL relative to the matrix's Frobenius norm.  Returns the
    eigenvalues sorted ascending.
    """
    import numpy as np

    A = np.array(A, dtype=float)
    n = A.shape[0]
    if n == 1:
        return (float(A[0, 0]),)
    norm = float(np.linalg.norm(A))
    target = JACOBI_OFF_TOL * max(norm, 1e-300)
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = math.sqrt(sum(2.0 * A[p, q] ** 2 for p in range(n) for q in range(p + 1, n)))
        if off <= target:
            break
        for p in range(n):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
                A = 0.5 * (A + A.T)  # kill asymmetry drift
    return tuple(sorted(float(v) for v in np.diag(A)))


def verify_gram(cert: GramCertificate) -> GramReport:
    """Check the coefficient identity and positive semidefiniteness of Q.

    Both checks are required.  The PSD tolerance psd_tol is 1e-9 times
    the largest |Q| entry; a smallest eigenvalue within +-psd_tol of zero
    is reported as marginal instead of silently flipping the verdict.
    """
    psd_tol = 1e-9 * max(float(abs(cert.Q).max()), 1e-300)
    expanded = expand_quadratic_form(cert.basis, cert.Q, cert.target.nvars)
    mismatches = []
    max_err = 0.0
    for e in sorted(set(expanded.terms) | set(cert.target.terms)):
        err = abs(expanded.terms.get(e, 0.0) - cert.target.terms.get(e, 0.0))
        if err > max_err:
            max_err = err
        if err > COEFF_TOL and len(mismatches) < _MISMATCH_CAP:
            mismatches.append({
                "exponents": e,
                "expanded": expanded.terms.get(e, 0.0),
                "target": cert.target.terms.get(e, 0.0),
            })
    coeff_ok = max_err <= COEFF_TOL
    eigenvalues = jacobi_eigenvalues(cert.Q)
    min_eig = eigenvalues[0]
    psd_ok = min_eig >= -psd_tol
    return GramReport(
        passed=coeff_ok and psd_ok,
        coeff_ok=coeff_ok,
        psd_ok=psd_ok,
        marginal=abs(min_eig) <= psd_tol,
        eigenvalues=eigenvalues,
        max_coeff_error=max_err,
        psd_tol=psd_tol,
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
    import numpy as np

    degrees = [sum(e) for e in cert.basis]
    if any(d == 0 for d in degrees):
        raise ValueError("constant monomial in basis: the scaled identity requires degree >= 1")
    nvars = cert.target.nvars
    s = expand_quadratic_form(cert.basis, cert.Q, nvars)
    euler = MultiPoly(nvars, {e: c * sum(e) for e, c in s.terms.items()})
    TQ = np.diag(degrees).astype(float) @ cert.Q
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
