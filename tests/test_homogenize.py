import numpy as np
import pytest

from algly.errors import DegreeError, DimensionMismatchError, ZeroPolynomialError
from algly.homogenize import HomogeneousDecomposition, homogeneous_parts, homogenize, tau_coefficients
from algly.polycore import MultiPoly, parse

from oracles import random_poly


def test_disk_parts(disk_poly):
    D = homogeneous_parts(disk_poly)
    assert D.degree == 2
    assert D.parts[0] == parse("-2", 2)
    assert D.parts[1] == parse("-2*x1 + 2*x2", 2)
    assert D.parts[2] == parse("x1^2 + x2^2", 2)


def test_homogeneous_input_single_part():
    Q = parse("x1^4 + x1^2*x2^2", 2)
    D = homogeneous_parts(Q)
    assert D.degree == 4
    assert all(D.parts[i].is_zero() for i in range(4))
    assert D.parts[4] == Q


def test_constant_part():
    D = homogeneous_parts(parse("3", 2))
    assert D.degree == 0
    assert D.parts[0] == parse("3", 2)


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        homogeneous_parts(MultiPoly.zero(2))


def test_decomposition_refuses_a_part_of_another_degree():
    with pytest.raises(DegreeError, match="part 1 is not homogeneous of degree 1"):
        HomogeneousDecomposition(2, (parse("-1", 2), parse("x1 + x2^2", 2), parse("x1^2", 2)))


def test_homogenize_disk(disk_poly):
    H = homogenize(homogeneous_parts(disk_poly))
    assert H.nvars == 3
    assert H.terms == {
        (2, 0, 0): 1.0,
        (1, 0, 1): -2.0,
        (0, 2, 0): 1.0,
        (0, 1, 1): 2.0,
        (0, 0, 2): -2.0,
    }
    # dropping the scale exponent recovers P's term map exactly
    assert {e[:-1]: c for e, c in H.terms.items()} == disk_poly.terms


def test_homogenize_already_homogeneous():
    Q = parse("x1^3 - 2*x1*x2^2", 2)
    H = homogenize(homogeneous_parts(Q))
    assert H.terms == {e + (0,): c for e, c in Q.terms.items()}


def test_homogenized_scaling_law():
    rng = np.random.default_rng(11)
    for _ in range(50):
        P = random_poly(rng, 2, 4, 6)
        if P.is_zero():
            continue
        D = homogeneous_parts(P)
        H = homogenize(D)
        p = D.degree
        x = [float(v) for v in rng.uniform(-2.0, 2.0, 2)]
        t = float(rng.uniform(0.2, 2.0))
        lam = float(rng.uniform(0.3, 3.0))
        lhs = H.eval([lam * x[0], lam * x[1], lam * t])
        rhs = lam ** p * H.eval(x + [t])
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_substitution_recovers_P():
    rng = np.random.default_rng(12)
    for _ in range(50):
        P = random_poly(rng, 3, 4, 8)
        if P.is_zero():
            continue
        H = homogenize(homogeneous_parts(P))
        x = [float(v) for v in rng.uniform(-2.0, 2.0, 3)]
        assert abs(H.eval(x + [1.0]) - P.eval(x)) <= 1e-12 * max(1.0, abs(P.eval(x)))


def test_reconstruction_is_exact():
    rng = np.random.default_rng(13)
    for _ in range(100):
        P = random_poly(rng, 2, 5, 10)
        if P.is_zero():
            continue
        # the parts' term maps partition P's, and so does P~'s without
        # its scale exponent
        D = homogeneous_parts(P)
        merged: dict = {}
        for part in D.parts:
            assert merged.keys().isdisjoint(part.terms)
            merged.update(part.terms)
        assert merged == P.terms
        H = homogenize(D)
        assert {e[:-1]: c for e, c in H.terms.items()} == P.terms


def test_tau_coefficients_disk(disk_poly):
    D = homogeneous_parts(disk_poly)
    # c_k is the coefficient of the k-th power of the scale variable
    assert tau_coefficients(D, (1.0, -1.0)) == [2.0, -4.0, -2.0]
    assert tau_coefficients(D, (0.0, 0.0)) == [0.0, 0.0, -2.0]


def test_tau_coefficients_homogeneous():
    D = homogeneous_parts(parse("x1^2 + x2^2", 2))
    assert tau_coefficients(D, (3.0, 4.0)) == [25.0, 0.0, 0.0]


def test_tau_coefficients_dimension():
    D = homogeneous_parts(parse("x1^2 - 1", 2))
    with pytest.raises(DimensionMismatchError):
        tau_coefficients(D, (1.0,))
