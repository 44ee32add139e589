import itertools
import math
import time

import numpy as np
import pytest

from algly.certs import (
    GramCertificate,
    MultiplierCertificate,
    expand_quadratic_form,
    gram_euler_identity,
    jacobi_eigenvalues,
    verify_gram,
    verify_multiplier,
)
from algly.dynsys import PolyVectorField, linear
from algly.errors import CertificateError, DimensionMismatchError
from algly.polycore import MultiPoly, PolyFamily, parse

from oracles import eval_terms, same_bits


def test_gram_identity_passes():
    cert = GramCertificate(((1, 0), (0, 1)), np.eye(2), parse("x1^2 + x2^2", 2))
    report = verify_gram(cert)
    assert report.passed and report.coeff_ok and report.psd_ok
    assert report.eigenvalues == (1.0, 1.0)


def test_gram_coefficient_mismatch():
    cert = GramCertificate(((1, 0), (0, 1)), np.array([[1.0, 2.0], [2.0, 1.0]]),
                           parse("x1^2 + x2^2", 2))
    report = verify_gram(cert)
    assert not report.passed
    assert not report.coeff_ok
    # expansion gives x1^2 + 4*x1*x2 + x2^2
    assert any(m["exponents"] == (1, 1) for m in report.mismatches)


def test_gram_indefinite_swap_matrix():
    cert = GramCertificate(((1, 0), (0, 1)), np.array([[0.0, 1.0], [1.0, 0.0]]),
                           parse("2*x1*x2", 2))
    report = verify_gram(cert)
    assert report.coeff_ok
    assert not report.psd_ok and not report.passed
    assert abs(report.eigenvalues[0] + 1.0) <= 1e-10
    assert abs(report.eigenvalues[1] - 1.0) <= 1e-10


def test_gram_marginal_flag():
    cert = GramCertificate(((1, 0), (0, 1)), np.diag([1.0, 0.0]), parse("x1^2", 2))
    report = verify_gram(cert)
    assert report.passed
    assert report.marginal


def test_gram_rejects_bad_inputs():
    with pytest.raises(DimensionMismatchError):
        GramCertificate(((1, 0),), np.eye(2), parse("x1^2", 2))
    with pytest.raises(ValueError):
        GramCertificate(((1, 0), (1, 0)), np.eye(2), parse("x1^2", 2))
    with pytest.raises(ValueError):
        GramCertificate(((1, 0), (0, 1)), np.array([[1.0, 0.5], [0.0, 1.0]]),
                        parse("x1^2", 2))


def test_expand_quadratic_form_matches_numeric():
    rng = np.random.default_rng(40)
    basis = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1))
    for _ in range(50):
        Q = rng.uniform(-2.0, 2.0, (5, 5))
        Q = 0.5 * (Q + Q.T)
        s = expand_quadratic_form(basis, Q, 2)
        x = rng.uniform(-2.0, 2.0, 2)
        z = np.array([x[0] ** e1 * x[1] ** e2 for e1, e2 in basis])
        want = float(z @ Q @ z)
        assert abs(s.eval(tuple(x)) - want) <= 1e-9 * max(1.0, abs(want))


def test_jacobi_matches_hand_cases():
    # [[2,1],[1,2]] has eigenvalues 1 and 3
    assert np.allclose(jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), (1.0, 3.0), atol=1e-10)
    # circulant [[2,1,1],[1,2,1],[1,1,2]]: eigenvalues 1, 1, 4
    eigs = jacobi_eigenvalues(np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]))
    assert np.allclose(eigs, (1.0, 1.0, 4.0), atol=1e-10)


def test_jacobi_against_numpy_oracle():
    rng = np.random.default_rng(41)
    for n in (2, 3, 5, 8):
        for _ in range(10):
            A = rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            got = np.array(jacobi_eigenvalues(A))
            want = np.linalg.eigvalsh(A)
            assert np.allclose(got, want, atol=1e-9)


def test_euler_identity_unit_cases():
    cert = GramCertificate(((1, 0), (0, 1)), np.eye(2), parse("x1^2 + x2^2", 2))
    assert gram_euler_identity(cert).is_zero()
    cert = GramCertificate(((3,),), np.array([[4.0]]), parse("4*x1^6", 1))
    assert gram_euler_identity(cert).is_zero()


def test_euler_identity_reference_basis():
    basis = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1))
    assert [sum(e) for e in basis] == [2, 2, 2, 1, 1]
    rng = np.random.default_rng(42)
    Q = rng.integers(-5, 6, (5, 5)).astype(float)
    Q = Q + Q.T
    cert = GramCertificate(basis, Q, expand_quadratic_form(basis, Q, 2))
    assert gram_euler_identity(cert).is_zero()


def test_euler_identity_rejects_constant_basis_entry():
    cert = GramCertificate(((0, 0), (1, 0)), np.eye(2), parse("1 + x1^2", 2))
    with pytest.raises(ValueError):
        gram_euler_identity(cert)


def _random_basis(rng, nvars, max_degree, size):
    monomials = [
        e for e in itertools.product(range(max_degree + 1), repeat=nvars)
        if 1 <= sum(e) <= max_degree
    ]
    idx = rng.choice(len(monomials), size=min(size, len(monomials)), replace=False)
    return tuple(monomials[i] for i in sorted(idx))


def test_euler_identity_randomized():
    rng = np.random.default_rng(43)
    for _ in range(100):
        nvars = int(rng.integers(1, 4))
        basis = _random_basis(rng, nvars, 4, int(rng.integers(1, 6)))
        m = len(basis)
        Q = rng.integers(-9, 10, (m, m)).astype(float)
        Q = Q + Q.T
        cert = GramCertificate(basis, Q, expand_quadratic_form(basis, Q, nvars))
        assert gram_euler_identity(cert).is_zero()


def test_multiplier_unit_multipliers(disk_poly, contraction):
    cert = MultiplierCertificate(
        U1=parse("1", 2),
        U2=parse("1", 2),
        gram_negG=(((1, 0), (0, 1), (0, 0)), np.diag([1.0, 1.0, 2.0])),
    )
    report = verify_multiplier(disk_poly, contraction, cert, seed=5)
    assert report.passed
    assert report.notes["combination"] == "-1*x1^2 - x2^2 - 2"
    assert report.notes["gram_negG_passed"]
    assert report.worst_margin < 0.0


def test_multiplier_fails_for_unstable_field(disk_poly, expansion):
    cert = MultiplierCertificate(U1=parse("1", 2), U2=parse("1", 2))
    report = verify_multiplier(disk_poly, expansion, cert, seed=5)
    assert not report.passed
    assert report.worst_margin > 0.0
    # the positive leading part dominates far out
    assert max(abs(v) for v in report.worst_witness) >= 1.0


def test_multiplier_negative_u1_fails(disk_poly, contraction):
    cert = MultiplierCertificate(U1=parse("-1", 2), U2=parse("1", 2))
    report = verify_multiplier(disk_poly, contraction, cert, seed=5)
    assert not report.passed
    assert report.notes["min_U1"] == -1.0


def test_multiplier_bad_gram_fails(disk_poly, contraction):
    cert = MultiplierCertificate(
        U1=parse("1", 2),
        U2=parse("1", 2),
        gram_negG=(((1, 0), (0, 1), (0, 0)), np.diag([1.0, 1.0, 1.0])),  # wrong constant
    )
    report = verify_multiplier(disk_poly, contraction, cert, seed=5)
    assert not report.passed
    assert not report.notes["gram_negG_passed"]


def test_multiplier_skips_structural_zero_at_origin():
    P = parse("x1^2 + x2^2 - 1", 2)
    f = linear([[0.0, -1.0], [1.0, 0.0]])
    # G = U1 * grad(P).f + U2 * P with U2 = 0 gives identically 0, so every
    # sample fails the strict bound; with the rotation field grad(P).f = 0
    cert = MultiplierCertificate(U1=parse("1", 2), U2=parse("0", 2))
    report = verify_multiplier(P, f, cert, n_random=100, seed=5)
    assert not report.passed
    assert report.notes["combination"] == "0"


@pytest.mark.parametrize("gram_U1, gram_negG", [
    pytest.param(None, (((1, 0), (1, 0), (0, 0)), np.eye(3)), id="negG-repeated-basis"),
    pytest.param((((0, 0), (0, 0)), np.eye(2)), None, id="U1-repeated-basis"),
    pytest.param(None, (((1, 0), (0, 1), (0, 0)), np.eye(2)), id="negG-Q-wrong-shape"),
    pytest.param((((0, 0),), [[1.0, 0.0]]), None, id="U1-Q-wrong-shape"),
])
def test_multiplier_refuses_bad_gram_blocks_before_sampling(
        monkeypatch, disk_poly, contraction, gram_U1, gram_negG):
    def no_sampling(*args):
        raise AssertionError("sampling started before the Gram blocks were checked")

    monkeypatch.setattr("algly.certs.PolyFamily", no_sampling)
    cert = MultiplierCertificate(U1=parse("1", 2), U2=parse("1", 2),
                                 gram_U1=gram_U1, gram_negG=gram_negG)
    with pytest.raises(CertificateError, match="invalid multiplier gram_"):
        verify_multiplier(disk_poly, contraction, cert, seed=5)


def test_multiplier_of_more_than_3000_terms():
    # G = U1 * grad(P).f + U2 * P is dense of degree 14 in 4 variables
    P = parse("(x1+x2+x3+x4+1)^4 - 2", 4)
    f = linear(-np.eye(4))
    cert = MultiplierCertificate(U1=parse("1", 4), U2=parse("(x1+x2+x3+x4+1)^10", 4))
    lie = MultiPoly.zero(4)
    for g, comp in zip(P.gradient(), f.components):
        lie = lie + g * comp
    G = cert.U1 * lie + cert.U2 * P
    assert len(G.terms) > 3000
    points = [(0.1, -0.2, 0.05, 0.3), (-0.4, 0.1, 0.2, -0.3), (0.0, 0.5, -0.5, 0.25)]
    family = PolyFamily((G, cert.U1))
    t0 = time.perf_counter()
    family.eval_and_scale(points[0])   # compiles
    print(f"\nG: {len(G.terms)} terms compiled in {(time.perf_counter() - t0) * 1e3:.0f} ms")
    for x in points:
        assert same_bits(family.eval_and_scale(x)[0][0], eval_terms(G, x))
    report = verify_multiplier(P, f, cert, grid=points, n_random=0)
    assert same_bits(report.worst_margin, max(eval_terms(G, x) for x in points))
