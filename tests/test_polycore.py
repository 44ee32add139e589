import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algly.errors import (
    DimensionMismatchError,
    ExponentError,
    ParseError,
    VariableIndexError,
)
from algly.polycore import MultiPoly, parse

from oracles import abs_eval, eval_terms, random_poly, same_bits


# hand expansion of (x1-1)^2 + (x2+1)^2 - 4
DISK_TERMS = {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0, (0, 1): 2.0, (0, 0): -2.0}


def test_parse_disk_expansion():
    P = parse("(x1-1)^2 + (x2+1)^2 - 4", 2)
    assert P.terms == DISK_TERMS


def test_parse_zero():
    assert parse("0", 2).terms == {}


def test_parse_term_listing():
    P = parse("2*x1*x2^2 - x1", 2)
    assert P.terms == {(1, 2): 2.0, (1, 0): -1.0}


def test_parse_scientific_notation():
    P = parse("1e-05*x1 + 2.5E+2", 2)
    assert P.terms == {(1, 0): 1e-05, (0, 0): 250.0}


def test_parse_unary_minus_binds_inside_base():
    # per the grammar, '-' is part of base, so '^' applies to the signed value
    assert parse("-2^2", 1).eval((0.0,)) == 4.0
    assert parse("-x1^2", 1) == parse("x1^2", 1)
    assert parse("-(x1^2)", 1) == parse("0 - x1^2", 1)


@pytest.mark.parametrize("text,exc,offset", [
    ("2x1", ParseError, 1),           # implicit multiplication forbidden
    ("(x1", ParseError, 3),
    ("x1 +", ParseError, 4),
    ("", ParseError, 0),
    ("x1 @ x2", ParseError, 3),
    ("x3 + 1", VariableIndexError, 0),
    ("x0 + 1", VariableIndexError, 0),
    ("x1^-2", ExponentError, 3),
    ("x1^2.5", ExponentError, 3),
    ("x1^2e1", ExponentError, 3),
])
def test_parse_errors_with_offsets(text, exc, offset):
    with pytest.raises(exc) as err:
        parse(text, 2)
    assert err.value.offset == offset


@pytest.mark.parametrize("text,nvars,offset", [
    ("(x1+1)^3000 - 2", 1, 6),                 # degree past MAX_PARSE_DEGREE
    ("(x1+1)^100000 - 2", 1, 6),
    ("x2 * (x1+1)^1000", 2, 3),                # degree 1001 only once multiplied
    ("(x1+x2+1)^62", 2, 9),                    # dense bound C(64, 2) = 2016 terms
    ("(x1+x2+x3+x4+x5+x6)^5 * (x1+x2+x3+x4+x5+x6)^5", 6, 22),  # C(16, 6) = 8008
    ("2^" + "9" * 5000, 1, 2),                 # more digits than int() accepts
])
def test_parse_budget_fails_fast_with_offset(text, nvars, offset):
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse(text, nvars)
    assert time.perf_counter() - t0 < 1.0
    assert err.value.offset == offset


def test_parse_budget_admits_sparse_high_dimension():
    # the dense bound C(4 + 20, 20) is 10626, but x1^4 has one term
    P = parse("x1^4 + x7^2*x20^2 - 1", 20)
    assert len(P.terms) == 3 and P.degree() == 4


def test_eval_disk_points():
    P = parse("(x1-1)^2 + (x2+1)^2 - 4", 2)
    assert P.eval((1.0, 1.0)) == 0.0
    assert P.eval((0.0, 0.0)) == -2.0


def test_eval_zero_poly():
    assert MultiPoly.zero(3).eval((1.0, 2.0, 3.0)) == 0.0


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        parse("x1", 2).eval((1.0,))
    with pytest.raises(DimensionMismatchError):
        parse("x1", 2).eval_and_scale((1.0, 2.0, 3.0))


@st.composite
def _poly_and_point(draw):
    """A polynomial in 1-4 variables with exponents 0-5 and a point whose
    coordinates include signed zeros, negative bases and tiny values; the
    magnitudes keep every term finite."""
    nvars = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 5)] * nvars)
    coeffs = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda c: c != 0.0)
    terms = draw(st.lists(st.tuples(exponents, coeffs), max_size=8))
    coordinate = st.one_of(st.sampled_from((0.0, -0.0, -1.0, -2.0, 1e-200, -1e-200)),
                           st.floats(-8.0, 8.0, allow_nan=False))
    return MultiPoly(nvars, terms), draw(st.lists(coordinate, min_size=nvars, max_size=nvars))


@settings(max_examples=500, deadline=None)
@given(_poly_and_point())
def test_eval_matches_the_term_map_walk_bit_for_bit(case):
    P, x = case
    value, scale = P.eval_and_scale(x)
    assert same_bits(P.eval(x), eval_terms(P, x))
    assert same_bits(value, eval_terms(P, x))
    assert same_bits(scale, abs_eval(P, x))
    for g in P.gradient():
        assert same_bits(g.eval_and_scale(x)[1], abs_eval(g, x))


@pytest.mark.parametrize("text, x", [
    ("x1^2*x2", (1e200, 0.0)),
    ("x1*x2^2", (0.0, 1e200)),
    ("x1^2*x2", (-1e200, -0.0)),
    ("x1^3*x2*x3", (-1e200, 2.0, 0.0)),
    ("1e300*x1*x2", (1e300, 0.0)),   # the product overflows, not the power
    ("x1*x2", (math.inf, 0.0)),
])
def test_zero_factor_gives_a_zero_term_in_any_order(text, x):
    P = parse(text + " + 1", len(x))
    assert P.eval(x) == 1.0
    assert P.eval_and_scale(x) == (1.0, 1.0)


def test_overflowing_term_keeps_its_sign():
    assert parse("x1^3*x2 + 1", 2).eval((-1e200, 2.0)) == -math.inf
    assert parse("x1^2*x2", 2).eval_and_scale((-1e200, 2.0)) == (math.inf, math.inf)


def test_gradient_disk():
    P = parse("(x1-1)^2 + (x2+1)^2 - 4", 2)
    g1, g2 = P.gradient()
    assert g1 == parse("2*x1 - 2", 2)
    assert g2 == parse("2*x2 + 2", 2)


def test_gradient_constant_and_mixed():
    assert all(g.is_zero() for g in parse("7", 2).gradient())
    g1, g2 = parse("x1^2*x2", 2).gradient()
    assert g1 == parse("2*x1*x2", 2)
    assert g2 == parse("x1^2", 2)


def test_ring_identities():
    one = parse("x1 + 1", 2)
    other = parse("x1 - 1", 2)
    assert one * other == parse("x1^2 - 1", 2)
    P = parse("3*x1*x2 - x2^2 + 5", 2)
    assert (P + P.scale(-1.0)).is_zero()
    assert parse("(x1 + x2)^2", 2) == parse("x1^2 + 2*x1*x2 + x2^2", 2)


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        parse("x1", 2) * parse("x1", 3)


def test_grlex_iteration_order():
    P = parse("1 + x2 + x1 + x2^2 + x1*x2 + x1^2", 2)
    assert list(P.terms) == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]


def test_to_text_leading_negative_power_roundtrips():
    P = MultiPoly(2, {(2, 0): -1.0, (0, 1): 3.0})
    assert P.to_text() == "-1*x1^2 + 3*x2"
    assert parse(P.to_text(), 2) == P
    Q = MultiPoly(2, {(1, 2): -1.0})
    assert parse(Q.to_text(), 2) == Q


def test_roundtrip_randomized():
    rng = np.random.default_rng(101)
    for _ in range(300):
        nvars = int(rng.integers(1, 4))
        P = random_poly(rng, nvars, 5, int(rng.integers(1, 9)))
        # sprinkle in awkward magnitudes
        terms = dict(P.terms)
        if terms and rng.random() < 0.3:
            e = next(iter(terms))
            terms[e] = terms[e] * 10.0 ** int(rng.integers(-17, 18))
        P = MultiPoly(nvars, terms)
        assert parse(P.to_text(), nvars) == P


def test_roundtrip_of_parsed_text_is_fixed_point():
    text = "(x1-1)^2 + (x2+1)^2 - 4"
    P = parse(text, 2)
    assert parse(P.to_text(), 2) == P
    assert parse(parse(P.to_text(), 2).to_text(), 2) == P


def test_eval_ring_homomorphism_exact_on_dyadic():
    # dyadic coefficients and points keep all float arithmetic exact
    rng = np.random.default_rng(7)
    for _ in range(100):
        nvars = 2
        P = random_poly(rng, nvars, 3, 5, integer=True)
        Q = random_poly(rng, nvars, 3, 5, integer=True)
        x = tuple(int(rng.integers(-32, 33)) / 16.0 for _ in range(nvars))
        assert (P + Q).eval(x) == P.eval(x) + Q.eval(x)
        assert (P * Q).eval(x) == P.eval(x) * Q.eval(x)


def test_eval_ring_homomorphism_float():
    rng = np.random.default_rng(8)
    for _ in range(200):
        nvars = int(rng.integers(1, 4))
        P = random_poly(rng, nvars, 3, 6, lo=-1.0, hi=1.0)
        Q = random_poly(rng, nvars, 3, 6, lo=-1.0, hi=1.0)
        x = tuple(float(v) for v in rng.uniform(-1.5, 1.5, nvars))
        scale_add = abs_eval(P, x) + abs_eval(Q, x) + 1.0
        assert abs((P + Q).eval(x) - (P.eval(x) + Q.eval(x))) <= 1e-12 * scale_add
        scale_mul = abs_eval(P * Q, x) + abs_eval(P, x) * abs_eval(Q, x) + 1.0
        assert abs((P * Q).eval(x) - P.eval(x) * Q.eval(x)) <= 1e-12 * scale_mul


def test_gradient_of_sum_is_sum_of_gradients():
    rng = np.random.default_rng(9)
    for _ in range(50):
        P = random_poly(rng, 3, 4, 8)
        Q = random_poly(rng, 3, 4, 8)
        for gs, gp, gq in zip((P + Q).gradient(), P.gradient(), Q.gradient()):
            assert gs == gp + gq


def test_gradient_finite_difference():
    rng = np.random.default_rng(10)
    h = 1e-5
    for _ in range(50):
        P = random_poly(rng, 2, 3, 6, integer=True)
        x = [float(v) for v in rng.uniform(-2.0, 2.0, 2)]
        for i, g in enumerate(P.gradient()):
            xp = list(x); xp[i] += h
            xm = list(x); xm[i] -= h
            fd = (P.eval(xp) - P.eval(xm)) / (2.0 * h)
            scale = max(1.0, abs_eval(P, x))
            assert abs(fd - g.eval(x)) <= 1e-8 * scale
