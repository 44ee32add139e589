import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algly import certs
from algly.certs import (
    GramCertificate,
    MultiplierCertificate,
    expand_quadratic_form,
    gram_euler_identity,
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
    assert report.psd_failed_at is None
    assert report.max_coeff_error == 0.0 and report.mismatches == []


def test_gram_coefficient_mismatch():
    # expansion gives x1^2 + 4*x1*x2 + x2^2, which projects to Q = I: the
    # target x1^2 + x2^2 is a sum of squares over this basis, so it passes
    cert = GramCertificate(((1, 0), (0, 1)), np.array([[1.0, 2.0], [2.0, 1.0]]),
                           parse("x1^2 + x2^2", 2))
    report = verify_gram(cert)
    assert report.passed and report.coeff_ok
    assert report.mismatches == [{"exponents": (1, 1), "expanded": 4.0, "target": 0.0}]
    assert report.max_coeff_error == 4.0
    # x1^2 - x2^2 is no sum of squares over (x1, x2): Q = I projects to diag(1, -1)
    cert = GramCertificate(((1, 0), (0, 1)), np.eye(2), parse("x1^2 - x2^2", 2))
    report = verify_gram(cert)
    assert not report.passed and report.coeff_ok
    assert not report.psd_ok and report.psd_failed_at == 1
    assert report.mismatches == [{"exponents": (0, 2), "expanded": 1.0, "target": -1.0}]
    # the exact residual 2e308 of x1*x2 is past the float range: it reads as
    # inf, and the projection still reaches Q = I
    cert = GramCertificate(((1, 0), (0, 1)), [[1.0, 1e308], [1e308, 1.0]], parse("x1^2 + x2^2", 2))
    report = verify_gram(cert)
    assert report.passed and report.max_coeff_error == math.inf
    assert report.mismatches == [{"exponents": (1, 1), "expanded": math.inf, "target": 0.0}]


def test_gram_target_monomial_no_pair_produces_fails():
    cert = GramCertificate(((1, 0), (0, 1)), np.eye(2), parse("x1^2 + x2^2 + x1", 2))
    report = verify_gram(cert)
    assert not report.passed and not report.coeff_ok and report.psd_ok
    assert report.mismatches == [{"exponents": (1, 0), "expanded": 0.0, "target": 1.0}]


def test_gram_indefinite_swap_matrix():
    cert = GramCertificate(((1, 0), (0, 1)), np.array([[0.0, 1.0], [1.0, 0.0]]),
                           parse("2*x1*x2", 2))
    report = verify_gram(cert)
    assert report.coeff_ok
    assert not report.psd_ok and not report.passed
    # the zero pivot at index 0 has a nonzero row
    assert report.psd_failed_at == 0


def test_gram_singular_psd_passes():
    cert = GramCertificate(((1, 0), (0, 1)), np.diag([1.0, 0.0]), parse("x1^2", 2))
    report = verify_gram(cert)
    assert report.passed and report.psd_failed_at is None
    # rank 1: the second row is a multiple of the first
    cert = GramCertificate(((1, 0), (0, 1)), [[1.0, 2.0], [2.0, 4.0]], parse("(x1 + 2*x2)^2", 2))
    assert verify_gram(cert).passed


@pytest.mark.parametrize("basis, Q, target", [
    pytest.param(((0, 0),), [[0.0]], "-5e-11", id="constant-under-the-old-identity-tolerance"),
    pytest.param(((1, 0), (0, 1)), [[1.0, 0.0], [0.0, -1e-10]], "x1^2 - 1e-10*x2^2",
                 id="eigenvalue-in-the-old-marginal-band"),
    pytest.param(((1, 0), (0, 1)), [[1e-6, 0.0], [0.0, -1e-16]], "1e-6*x1^2 - 1e-16*x2^2",
                 id="rescaled-twin"),
])
def test_gram_certificates_of_non_sos_targets_fail(basis, Q, target):
    # each passed when the identity and the smallest eigenvalue had float
    # tolerances; none of these targets is a sum of squares
    report = verify_gram(GramCertificate(basis, Q, parse(target, 2)))
    assert not report.passed and report.coeff_ok and not report.psd_ok
    assert report.psd_failed_at == len(basis) - 1


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


_MONOMIALS = [e for e in itertools.product(range(4), repeat=2) if sum(e) <= 3]


@st.composite
def _ldl_certificates(draw):
    """(basis, Q = L D L^T, D) with L unit lower-triangular and integer."""
    m = draw(st.integers(1, 6))
    basis = tuple(draw(st.permutations(_MONOMIALS))[:m])
    D = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    L = [[1 if i == j else draw(st.integers(-3, 3)) if j < i else 0 for j in range(m)]
         for i in range(m)]
    Q = [[sum(L[i][k] * D[k] * L[j][k] for k in range(m)) for j in range(m)] for i in range(m)]
    return basis, Q, D


@settings(max_examples=300, deadline=None)
@given(_ldl_certificates(), st.integers(-200, 200))
def test_gram_verdict_is_the_inertia_of_the_ldl_factors(case, k):
    # Q is congruent to D (Sylvester's law of inertia), so it is PSD exactly
    # when min D >= 0; the target is Q's exact expansion, so the projection
    # moves nothing, and scaling Q and the target by 2^k changes no bit
    basis, Q, D = case
    Q = [[float(v) for v in row] for row in Q]
    target = expand_quadratic_form(basis, Q, 2)
    report = verify_gram(GramCertificate(basis, Q, target))
    assert report.passed == (min(D) >= 0)
    assert report.coeff_ok and report.max_coeff_error == 0.0
    scaled = [[math.ldexp(v, k) for v in row] for row in Q]
    scaled_report = verify_gram(GramCertificate(basis, scaled, target.scale(2.0 ** k)))
    assert scaled_report.passed == report.passed
    assert scaled_report.psd_failed_at == report.psd_failed_at


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
    # -G = x1^2 + x2^2 + 2: a basis without the constant cannot produce the 2
    cert = MultiplierCertificate(
        U1=parse("1", 2),
        U2=parse("1", 2),
        gram_negG=(((1, 0), (0, 1)), np.eye(2)),
    )
    report = verify_multiplier(disk_poly, contraction, cert, seed=5)
    assert not report.passed
    assert not report.notes["gram_negG_passed"]
    # a wrong constant in Q projects to diag(1, 1, 2): -G is a sum of squares
    # over (x1, x2, 1), so the certificate is sound
    cert = MultiplierCertificate(
        U1=parse("1", 2),
        U2=parse("1", 2),
        gram_negG=(((1, 0), (0, 1), (0, 0)), np.diag([1.0, 1.0, 1.0])),
    )
    report = verify_multiplier(disk_poly, contraction, cert, seed=5)
    assert report.passed and report.notes["gram_negG_passed"]


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


_CIRCLE_GRAM_U1 = (((1, 0), (0, 1), (0, 0)), np.eye(3))
# -G = 2(x1^2 + x2^2)^2 + x1^2 + x2^2 + 1 for the circle below
_CIRCLE_GRAM_NEG_G = (((2, 0), (0, 2), (1, 0), (0, 1), (0, 0)),
                      [[2, 2, 0, 0, 0], [2, 2, 0, 0, 0], [0, 0, 1, 0, 0],
                       [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])


@pytest.mark.parametrize("P, U1, gram_U1, gram_negG, certified", [
    # disk: U1 = 1 is a constant >= 0 and needs no Gram block
    ("(x1-1)^2 + (x2+1)^2 - 4", "1", None, (((1, 0), (0, 1), (0, 0)), np.diag([1.0, 1.0, 2.0])), True),
    # -G = 3 x1^2 - 2 x1 + 3 x2^2 + 2 x2 + 2
    ("(x1-1)^2 + (x2+1)^2 - 4", "2", None,
     (((1, 0), (0, 1), (0, 0)), [[3, 0, -1], [0, 3, 1], [-1, 1, 2]]), True),
    ("(x1-1)^2 + (x2+1)^2 - 4", "1", None, None, None),
    # U1 = x1^2 + x2^2 + 1 is not constant: without its block, no certificate
    ("x1^2 + x2^2 - 1", "x1^2 + x2^2 + 1", None, _CIRCLE_GRAM_NEG_G, False),
    ("x1^2 + x2^2 - 1", "x1^2 + x2^2 + 1", _CIRCLE_GRAM_U1, _CIRCLE_GRAM_NEG_G, True),
    ("x1^2 + x2^2 - 1", "x1^2 + x2^2 + 1", _CIRCLE_GRAM_U1, None, False),
])
def test_constant_u1_needs_no_gram_block(contraction, P, U1, gram_U1, gram_negG, certified):
    cert = MultiplierCertificate(U1=parse(U1, 2), U2=parse("1", 2), gram_U1=gram_U1, gram_negG=gram_negG)
    report = verify_multiplier(parse(P, 2), contraction, cert, n_random=100, seed=5)
    assert report.passed
    assert report.notes.get("certified") is certified


def test_negated_combination_is_exact(contraction):
    # G = -1.9 x1^2 - 1.9 x2^2 - 0.03 in floats; its constant is the float
    # nearest 0.1 * 0.3, which misses the exact product of the dyadic
    # inputs by about 1.7e-18
    P = parse("x1^2 + x2^2 - 0.3", 2)
    cert = MultiplierCertificate(U1=parse("1", 2), U2=parse("0.1", 2))
    exact = certs._negated_combination(P, contraction, cert)
    assert exact[(0, 0)] == Fraction(0.1) * Fraction(0.3)
    assert exact[(0, 0)] != Fraction(0.1 * 0.3)
    assert exact[(2, 0)] == exact[(0, 2)] == 2 - Fraction(0.1)
    assert set(exact) == {(0, 0), (2, 0), (0, 2)}
    # the Q of the float -G projects onto the exact -G, a sum of squares
    cert = MultiplierCertificate(U1=parse("1", 2), U2=parse("0.1", 2),
                                 gram_negG=(((1, 0), (0, 1), (0, 0)), np.diag([1.9, 1.9, 0.03])))
    report = verify_multiplier(P, contraction, cert, n_random=100, seed=5)
    assert report.passed and report.notes["gram_negG_passed"] and report.notes["certified"]


def test_gram_of_negated_combination_sees_an_underflowed_constant(contraction):
    # U2 * P(0) = 1e-200 * 1e-200 underflows to 0 in floats, so the float
    # -G = 1.9...(x1^2 + x2^2) is a sum of squares over (x1, x2); the exact
    # -G has the constant -1e-400 < 0, and G(0) > 0 fails the condition
    P = parse("x1^2 + x2^2 + 1e-200", 2)
    for basis, Q in [(((1, 0), (0, 1)), np.diag([2.0, 2.0])),
                     (((1, 0), (0, 1), (0, 0)), np.diag([2.0, 2.0, 0.0]))]:
        cert = MultiplierCertificate(U1=parse("1", 2), U2=parse("1e-200", 2), gram_negG=(basis, Q))
        report = verify_multiplier(P, contraction, cert, n_random=100, seed=5)
        assert report.notes["combination"] == "-2*x1^2 - 2*x2^2"
        assert not report.notes["gram_negG_passed"]
        assert not report.passed and report.notes["certified"] is False
