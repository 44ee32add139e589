import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algly import HomogenizedLyapunov, parse, roots
from algly.errors import MultiplePositiveRootsError, ZeroPolynomialError
from algly.roots import UniPoly, positive_roots

from conftest import ANNULUS_TEXT
from oracles import (
    exact_positive_root_count,
    exact_sign_root,
    expand_from_roots,
    geometric_roots,
    meets_residual_bound,
    ulps_apart,
)


def test_disk_ray_quadratic():
    # -2*t^2 - 4*t + 2: quadratic formula gives sqrt(2) - 1
    rl = positive_roots(UniPoly([2.0, -4.0, -2.0]))
    assert len(rl) == 1
    assert abs(rl.roots[0] - (math.sqrt(2.0) - 1.0)) <= 1e-12
    assert not rl.suspected_multiple[0]


def test_unit_root_negative_excluded():
    rl = positive_roots(UniPoly([-1.0, 0.0, 1.0]))
    assert rl.roots == (1.0,)


def test_two_integer_roots():
    rl = positive_roots(UniPoly([2.0, -3.0, 1.0]))
    assert rl.roots == (1.0, 2.0)
    assert rl.suspected_multiple == (False, False)


def test_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomialError):
        positive_roots(UniPoly([0.0, 0.0]))


def test_degree_zero_empty():
    assert positive_roots(UniPoly([5.0])).roots == ()


def test_zero_root_factored_out():
    # t^2 * (t - 3): the roots at zero are not positive
    rl = positive_roots(UniPoly([0.0, 0.0, -3.0, 1.0]))
    assert len(rl) == 1
    assert abs(rl.roots[0] - 3.0) <= 1e-12


def test_double_root_flagged():
    rl = positive_roots(UniPoly([1.0, -2.0, 1.0]))
    assert len(rl) == 1
    assert abs(rl.roots[0] - 1.0) <= 1e-12
    assert rl.suspected_multiple[0]


def test_tangency_quartic_flagged():
    # -(t^2 - 1)^2 touches zero at t = 1
    rl = positive_roots(UniPoly([-1.0, 0.0, 2.0, 0.0, -1.0]))
    assert len(rl) == 1
    assert rl.suspected_multiple[0]


def test_unresolvably_close_pair_merges():
    eps = 1e-15
    rl = positive_roots(UniPoly([1.0 + eps, -(2.0 + eps), 1.0]))
    assert len(rl) == 1
    assert rl.suspected_multiple[0]


def test_determinism_bitwise():
    coeffs = [2.0, -4.0, -2.0, 0.3, -0.07]
    a = positive_roots(UniPoly(coeffs))
    b = positive_roots(UniPoly(coeffs))
    assert a.roots == b.roots
    assert a.suspected_multiple == b.suspected_multiple


def test_planted_roots_recovered():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        deg = int(rng.integers(1, 9))
        planted = geometric_roots(rng, deg)
        rl = positive_roots(UniPoly(expand_from_roots(planted)))
        assert len(rl) == deg, f"planted {planted}, got {rl.roots}"
        for got, want in zip(rl.roots, planted):
            assert abs(got - want) <= 1e-9 * want


def test_residual_bound_property():
    rng = np.random.default_rng(77)
    for _ in range(100):
        deg = int(rng.integers(1, 7))
        planted = geometric_roots(rng, deg)
        coeffs = expand_from_roots(planted)
        rl = positive_roots(UniPoly(coeffs))
        for r in rl.roots:
            assert meets_residual_bound(coeffs, r)


def test_negative_roots_ignored():
    # (t + 1)(t + 2)(t - 0.5)
    q = UniPoly(expand_from_roots([-1.0, -2.0, 0.5]))
    rl = positive_roots(q)
    assert len(rl) == 1
    assert abs(rl.roots[0] - 0.5) <= 1e-12


def test_unipoly_degree_deflation():
    q = UniPoly([1.0, 2.0, 0.0, 0.0])
    assert q.degree == 1
    assert UniPoly([0.0, 0.0]).is_zero()


def _no_integer_path(coeffs):
    raise AssertionError("V <= 1 took the integer Descartes bisection")


@pytest.mark.parametrize("coeffs, want", [
    ([2.0, 3.0, 1.0], ()),                 # V = 0: (t + 1)(t + 2)
    ([0.0, 0.0, 1.0, 4.0], ()),            # V = 0 after factoring out t^2
    ([-1.0, 0.0, 1.0], (1.0,)),            # V = 1
    ([2.0, -4.0, -2.0], None),             # V = 1: the disk ray, sqrt(2) - 1
    ([0.0, -8.0, 0.0, 0.0, 1.0], (2.0,)),  # V = 1 after factoring out t
])
def test_descartes_paths_build_no_sturm_chain(monkeypatch, coeffs, want):
    # Descartes' rule settles V = 0 and V = 1 from the float signs alone:
    # they stay on the float path, with no integer conversion
    monkeypatch.setattr(roots, "_start_interval", _no_integer_path)
    rl = positive_roots(UniPoly(coeffs))
    if want is None:
        assert len(rl) == 1 and abs(rl.roots[0] - (math.sqrt(2.0) - 1.0)) <= 1e-12
    else:
        assert rl.roots == want
    assert rl.suspected_multiple == (False,) * len(rl)


def test_double_root_off_the_dyadic_grid_is_one_flagged_root():
    # (3t - 1)^2 has the exact double root 1/3, which no bisection midpoint
    # hits: the count stays 2 down to the narrowest node, reported flagged
    rl = positive_roots(UniPoly([1.0, -6.0, 9.0]))
    assert len(rl) == 1 and rl.suspected_multiple == (True,)
    assert abs(rl.roots[0] - 1.0 / 3.0) <= 1e-12


@pytest.mark.parametrize("coeffs", [
    # -(t^2 - 1)^2 with its leading coefficient one ulp off
    [-1.0, 0.0, 2.0, 0.0, -1.0000000000000002],
    # a unit-circle tangent ray; the node that holds the pair starts at 0,
    # where q' = 4t - 4t^3 vanishes
    [-0.9999999999999997, 0.0, 1.9999999999999996, 0.0, -1.0],
])
def test_complex_pair_tangency_flagged(coeffs):
    # rounding turned the tangent root at 1 into a complex pair, and the
    # exact count is 0
    assert exact_positive_root_count(coeffs) == 0
    rl = positive_roots(UniPoly(coeffs))
    assert len(rl) == 1 and rl.suspected_multiple == (True,)
    assert abs(rl.roots[0] - 1.0) <= 1e-12


_NONZERO = st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)
_MAGNITUDE = st.one_of(st.just(0.0), _NONZERO)


@st.composite
def _signed_coefficients(draw, changes: int):
    """Magnitudes 0 or 1e-8..1e8 with `changes` (0 or 1) sign changes,
    between a low and a high part that each hold a nonzero."""
    low = draw(st.lists(_MAGNITUDE, max_size=4)) + [draw(_NONZERO)]
    high = [draw(_NONZERO)] + draw(st.lists(_MAGNITUDE, max_size=4))
    sign = draw(st.sampled_from((1.0, -1.0)))
    flip = -sign if changes else sign
    return [sign * m for m in low] + [flip * m for m in high]


@settings(max_examples=300, deadline=None)
@given(_signed_coefficients(1))
# Cauchy bound about 1e12, root 7e-4: the 1e-13*B bisection width alone
# leaves a root that misses the residual bound
@example([0.0196, 3e-8, 0.0, -5.4e7, -0.0198, 0.0, -5.2e7, -4.3, -5.2e-5])
def test_one_sign_change_gives_one_root_within_tolerance(coeffs):
    rl = positive_roots(UniPoly(coeffs))
    assert len(rl) == 1 and rl.suspected_multiple == (False,)
    assert meets_residual_bound(coeffs, rl.roots[0])


@settings(max_examples=300, deadline=None)
@given(_signed_coefficients(1))
# the root lies within rounding of the float Cauchy bound, whose float
# value has the sign of q(0)
@example([10000000.0, 10000000.0, -0.00031622776601683794])
@example([10000000.0, 10000000.0, -0.01])
def test_one_sign_change_root_matches_exact_bisection(coeffs):
    # Within 4 ulps of the float bracket that exact rational signs give,
    # or, for a root too ill-conditioned for that, the exact root of q
    # with every coefficient moved by a few ulps
    rl = positive_roots(UniPoly(coeffs))
    r = rl.roots[0]
    a, b = exact_sign_root(coeffs)
    near = min(ulps_apart(r, a), ulps_apart(r, b)) <= 4
    assert near or meets_residual_bound(coeffs, r, 8 * len(coeffs) * 2.0 ** -52)


def _count_calls(monkeypatch, kernels, n):
    """The calls of the kernel that `kernels` holds for n coefficients."""
    calls = []
    fn = kernels[n]

    def counted(c, *args):
        calls.append(list(c))
        return fn(c, *args)

    monkeypatch.setitem(kernels, n, counted)
    return calls


def test_disk_ray_refines_in_a_few_newton_passes(monkeypatch):
    # A disk tau ray: Newton closes in on the root from above, so the
    # bracket's low end stays at 0.  The refinement must stop once the
    # Newton step is ulp-sized, not bisect on up from 0.
    coeffs = [0.028511161220373202, 0.08672382708723914, -2.0]
    passes = _count_calls(monkeypatch, roots._VALUE_AND_SLOPE, len(coeffs))
    rl = positive_roots(UniPoly(coeffs))
    assert 1 <= len(passes) <= 12
    a, b = exact_sign_root(coeffs)
    assert min(ulps_apart(rl.roots[0], a), ulps_apart(rl.roots[0], b)) <= 4


def test_even_multiplicity_root_refines_on_the_derivative():
    # (t - 0.1)^2 (t - 3) expanded in float: rounding splits the double
    # root, and it is reported once, flagged, at the root of q'
    coeffs = expand_from_roots([0.1, 0.1, 3.0])
    rl = positive_roots(UniPoly(coeffs))
    assert len(rl) == 2 and rl.suspected_multiple == (True, False)
    assert abs(rl.roots[0] - 0.1) <= 1e-12 and abs(rl.roots[1] - 3.0) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(_signed_coefficients(0))
def test_no_sign_change_gives_no_root(coeffs):
    assert positive_roots(UniPoly(coeffs)).roots == ()


@pytest.mark.parametrize("n", range(2, 21))
def test_sturm_total_on_integer_root_products(n):
    # prod (t - k) up to Wilkinson's n = 20: the count matches an exact
    # Sturm count on the float coefficients, and every root comes from a
    # count-1 node or an exact simple midpoint root, so none is flagged
    coeffs = expand_from_roots([float(k) for k in range(1, n + 1)])
    rl = positive_roots(UniPoly(coeffs))
    assert len(rl) == n == exact_positive_root_count(coeffs)
    assert rl.suspected_multiple == (False,) * n


def test_sturm_total_on_annulus_radial():
    # -(r^2 - 1)(r^2 - 4): the annulus ray meets the boundary at r = 1 and
    # 2, both bisection midpoints, where they are found exactly
    coeffs = [-4.0, 0.0, 5.0, 0.0, -1.0]
    rl = positive_roots(UniPoly(coeffs))
    assert rl.roots == (1.0, 2.0)
    assert exact_positive_root_count(coeffs) == 2


@st.composite
def _several_sign_changes(draw):
    """2 to 4 sign changes: 3 to 5 blocks of alternating sign, each of up
    to two magnitudes 0 or 1e-8..1e8 and then a nonzero one."""
    sign = draw(st.sampled_from((1.0, -1.0)))
    coeffs = []
    for _ in range(draw(st.integers(3, 5))):
        block = draw(st.lists(_MAGNITUDE, max_size=2)) + [draw(_NONZERO)]
        coeffs += [sign * m for m in block]
        sign = -sign
    return coeffs


@settings(max_examples=300, deadline=None)
@given(_several_sign_changes())
# a complex pair 5e-8 +- 3.2e-4i and a root near 1e14: the nodes near 0
# must keep splitting far below 1e-13 of the start interval
@example([1.0, -1.0, 10000000.0, -1e-07])
# -(t - 1)^2 (t + 1) + 2.3e-13 t^2: two real roots 6.8e-7 apart, one
# flagged tangency
@example([-1.0, 1.0, 1.0000000000002303, -1.0])
def test_several_sign_changes_count_matches_exact_sturm(coeffs):
    # A flagged root may stand for a tangent crossing that rounding split
    # into two close roots or a complex pair: 2 or 0 exact roots for 1
    rl = positive_roots(UniPoly(coeffs))
    exact = exact_positive_root_count(coeffs)
    assert abs(len(rl) - exact) <= sum(rl.suspected_multiple)
    for r in rl.roots:
        assert meets_residual_bound(coeffs, r)


def _isolated(coeffs):
    """(roots, flags) of the exact Descartes bisection alone, for coeffs
    with a nonzero constant term."""
    K, _, _ = roots._newton_polygon(coeffs)
    found = roots._isolate(coeffs, K)
    return tuple(r for r, _ in found), tuple(flag for _, flag in found)


def _isolate_spy():
    """A patch that counts the calls of the exact Descartes bisection."""
    return mock.patch.object(roots, "_isolate", wraps=roots._isolate)


@st.composite
def _separated_roots(draw):
    """2 to 4 positive roots from 1e-3 up, each 4 to 100 times the one
    before, and a coefficient scale 10^-8..10^8."""
    r = 10.0 ** draw(st.floats(-3.0, 1.0))
    planted = [r]
    for _ in range(draw(st.integers(1, 3))):
        r *= draw(st.floats(4.0, 100.0))
        planted.append(r)
    return planted, 10.0 ** draw(st.floats(-8.0, 8.0))


@settings(max_examples=200, deadline=None)
@given(_separated_roots())
# 4 is 5 ulps from the bisection's root, inside the rounding band of q
@example(([1.0, 4.0, 16.0, 80.0], 1.049349664500834e-07))
def test_separated_roots_are_certified_by_sign_alternation(drawn):
    # Well-separated real roots: float signs between them alternate V
    # times and certify the count, with no exact bisection
    planted, scale = drawn
    coeffs = [scale * c for c in expand_from_roots(planted)]
    want, _ = _isolated(coeffs)
    with _isolate_spy() as spy:
        rl = positive_roots(UniPoly(coeffs))
    assert spy.call_count == 0
    assert len(rl) == len(planted) == exact_positive_root_count(coeffs)
    assert rl.suspected_multiple == (False,) * len(planted)
    for got, ref in zip(rl.roots, want):
        # a few ulps, or within the band where rounding hides the sign of q
        band = 4 * len(coeffs) * 2.0 ** -53 * sum(abs(c) * ref ** k for k, c in enumerate(coeffs))
        slope = abs(sum(k * c * ref ** (k - 1) for k, c in enumerate(coeffs) if k))
        assert ulps_apart(got, ref) <= 4 or abs(got - ref) <= band / slope


@settings(max_examples=200, deadline=None)
@given(_separated_roots(), st.floats(0.0, 1.0), st.floats(0.05, 0.3), st.booleans())
# rounding splits the double root near 42.94 into two real roots 1.1e-6
# apart, which exact bisection reports unflagged
@example(([1.0, 42.8125, 171.25, 7363.75], 100.0), 0.36264311409065303, 0.25, True)
def test_complex_pair_or_double_root_reaches_exact_bisection(drawn, where, angle, double):
    # A complex pair rho*exp(+-i*angle) near the positive axis, or a double
    # root, adds two sign changes that no simple crossing apart from the
    # others accounts for: the certificate cannot close, and _isolate
    # answers with its own flags
    planted, scale = drawn
    extra = planted[0] * (planted[-1] / planted[0]) ** where * 1.7
    pair = [extra * extra, -2.0 * extra * (1.0 if double else math.cos(angle)), 1.0]
    coeffs = [0.0] * (len(planted) + 3)
    for i, a in enumerate(expand_from_roots(planted)):
        for j, b in enumerate(pair):
            coeffs[i + j] += scale * a * b
    want = _isolated(coeffs)
    with _isolate_spy() as spy:
        rl = positive_roots(UniPoly(coeffs))
    assert spy.call_count == 1
    assert (rl.roots, rl.suspected_multiple) == want
    # a flagged root may stand for a double root that rounding split
    assert abs(len(rl) - exact_positive_root_count(coeffs)) <= sum(rl.suspected_multiple)


def test_annulus_ray_takes_the_sign_alternation_path():
    # every annulus ray meets both circles: the tau ray of (0.3, 0.4)
    # crosses at |x| = 0.5 and |x| / 2 = 0.25, and the star ray at 1 and 2
    L = HomogenizedLyapunov(parse(ANNULUS_TEXT, 2))
    with _isolate_spy() as spy:
        with pytest.raises(MultiplePositiveRootsError) as exc:
            L.tau((0.3, 0.4))
        report = L.check_star_convex()
    assert spy.call_count == 0
    assert exc.value.roots == pytest.approx((0.25, 0.5), rel=1e-15)
    assert not report.passed and report.failures[0].roots == (1.0, 2.0)
    assert not report.failures[0].suspected_tangency


# -- straight-line kernels against the loops they unroll -----------------------

_KERNEL_COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     1e300, -1e300, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_KERNEL_POINTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1.0, math.inf]),
    st.integers(-1074, 1023).map(lambda K: 2.0 ** K),
    st.floats(0.0, 1e300),
)
_FLOAT_KERNELS = [(roots._EVAL_LIST, roots._eval_list),
                  (roots._VALUE_AND_SCALE, roots._value_and_scale),
                  (roots._VALUE_AND_SLOPE, roots._value_and_slope)]


def _hex(result):
    return [x.hex() for x in (result if isinstance(result, tuple) else (result,))]


@settings(max_examples=200, deadline=None)
@given(st.lists(_KERNEL_COEFFS, min_size=roots._KERNEL_MAX_N, max_size=roots._KERNEL_MAX_N),
       _KERNEL_POINTS)
@example([-0.0] * roots._KERNEL_MAX_N, 0.0)
@example([1e300] * roots._KERNEL_MAX_N, 2.0 ** 1023)
def test_horner_kernels_equal_their_loops_bit_for_bit(coeffs, t):
    # every coefficient count up to the cap, on every prefix of the draw
    for n in range(1, roots._KERNEL_MAX_N + 1):
        c = coeffs[:n]
        for kernels, loop in _FLOAT_KERNELS:
            assert kernels[n] is not loop
            assert _hex(kernels[n](c, t)) == _hex(loop(c, t)), (n, loop.__name__)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2 ** 300, 2 ** 300), min_size=roots._KERNEL_MAX_N,
                max_size=roots._KERNEL_MAX_N))
def test_shift_kernel_equals_the_loop(coeffs):
    for n in range(1, roots._KERNEL_MAX_N + 1):
        c = coeffs[:n]
        assert roots._SHIFT1[n] is not roots._shift1
        assert roots._SHIFT1[n](c) == roots._shift1(c)
        assert c == coeffs[:n]  # the input list is not changed


def test_roots_past_the_kernel_cap_take_the_loops(monkeypatch):
    # (t^17 - 1)(t^17 - 2)(t^2 - 2t + 2): 37 coefficients, past the cap,
    # and 8 sign changes for the two roots 1 and 2^(1/17) and the complex
    # pair 1 +- i, so the exact bisection runs too
    coeffs = [0.0] * 37
    for k, a in ((0, 2.0), (17, -3.0), (34, 1.0)):
        for j, b in ((0, 2.0), (1, -2.0), (2, 1.0)):
            coeffs[k + j] += a * b
    tables = [*_FLOAT_KERNELS, (roots._SHIFT1, roots._shift1)]
    for kernels, _ in tables:
        for n in range(roots._KERNEL_MAX_N + 1, len(coeffs) + 1):
            monkeypatch.delitem(kernels, n, raising=False)
    with _isolate_spy() as spy:
        rl = positive_roots(UniPoly(coeffs))
    assert spy.call_count == 1
    assert rl.roots == pytest.approx((1.0, 2.0 ** (1 / 17)), rel=1e-14)
    assert rl.suspected_multiple == (False, False)
    # the Newton passes and the shifts went through the tables, to the loops
    assert len(coeffs) in roots._VALUE_AND_SLOPE and len(coeffs) in roots._SHIFT1
    for kernels, loop in tables:
        assert all(kernels[n] is loop for n in kernels if n > roots._KERNEL_MAX_N)
