import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from algly.alf import HomogenizedLyapunov, sample_directions
from algly.dynsys import PolyVectorField, linear, rk4
from algly.errors import (
    DecayRateOverflowError,
    DegenerateGradientError,
    DegreeError,
    DimensionMismatchError,
    MultiplePositiveRootsError,
    NoPositiveRootError,
    OriginNotInteriorError,
    ZeroPolynomialError,
)
from algly.polycore import MultiPoly, parse

from conftest import ANNULUS_TEXT, DISK_TEXT, HYPERBOLA_TEXT
from oracles import same_bits, tau_closed_form, ulps_apart


def test_construction_disk(disk_L):
    assert disk_L.p == 2
    assert disk_L.decomposition.parts[0] == parse("-2", 2)


def test_construction_unit_disk():
    L = HomogenizedLyapunov(parse("x1^2 + x2^2 - 1", 2))
    assert L.p == 2


def test_construction_rejects_origin_outside():
    with pytest.raises(OriginNotInteriorError):
        HomogenizedLyapunov(parse("x1^2 + x2^2 + 1", 2))


def test_construction_rejects_zero_and_constant():
    with pytest.raises(ZeroPolynomialError):
        HomogenizedLyapunov(MultiPoly.zero(2))
    with pytest.raises(DegreeError):
        HomogenizedLyapunov(parse("-2", 2))


def test_tau_disk_values(disk_L):
    assert abs(disk_L.tau((1.0, 1.0)) - 1.0) <= 1e-12
    assert abs(disk_L.tau((2.0, 2.0)) - 2.0) <= 1e-12
    assert abs(disk_L.tau((1.0, -1.0)) - (math.sqrt(2.0) - 1.0)) <= 1e-12
    assert disk_L.tau((0.0, 0.0)) == 0.0


def test_tau_dimension_check(disk_L):
    with pytest.raises(DimensionMismatchError):
        disk_L.tau((1.0,))


def test_tau_matches_closed_form(disk_L):
    rng = np.random.default_rng(314)
    for _ in range(500):
        x = rng.uniform(-10.0, 10.0, 2)
        if x[0] == 0.0 and x[1] == 0.0:
            continue
        want = tau_closed_form(x[0], x[1])
        got = disk_L.tau((float(x[0]), float(x[1])))
        assert abs(got - want) <= 1e-9 * want


def test_tau_homogeneous_degree_one(disk_L):
    rng = np.random.default_rng(315)
    for _ in range(100):
        x = tuple(float(v) for v in rng.uniform(-5.0, 5.0, 2))
        if x == (0.0, 0.0):
            continue
        t = disk_L.tau(x)
        for lam in (0.5, 2.0, 10.0):
            scaled = disk_L.tau((lam * x[0], lam * x[1]))
            assert abs(scaled - lam * t) <= 1e-9 * lam * t


def test_tau_boundary_consistency(disk_L):
    rng = np.random.default_rng(316)
    for _ in range(200):
        x = tuple(float(v) for v in rng.uniform(-5.0, 5.0, 2))
        if x == (0.0, 0.0):
            continue
        t = disk_L.tau(x)
        assert abs(disk_L.P.eval([v / t for v in x])) <= 1e-9


def test_tau_is_one_on_boundary(disk_L):
    # boundary parametrization: center (1,-1), radius 2
    for k in range(64):
        theta = 2.0 * math.pi * k / 64
        y = (1.0 + 2.0 * math.cos(theta), -1.0 + 2.0 * math.sin(theta))
        if y == (0.0, 0.0):
            continue
        assert abs(disk_L.tau(y) - 1.0) <= 1e-9


def test_tau_no_positive_root():
    L = HomogenizedLyapunov(parse(HYPERBOLA_TEXT, 2))
    with pytest.raises(NoPositiveRootError):
        L.tau((0.0, 1.0))


@pytest.mark.parametrize("s, text", [
    pytest.param(1.0, ANNULUS_TEXT, id="scale-1"),
    pytest.param(1e-3, "-(x1^2+x2^2-1e-6)*(x1^2+x2^2-4e-6)", id="scale-1e-3"),
    pytest.param(1e-6, "-(x1^2+x2^2-1e-12)*(x1^2+x2^2-4e-12)", id="scale-1e-6"),
])
def test_tau_multiple_positive_roots(s, text):
    # the annulus 1 <= |x| <= 2 shrunk by s: its two crossings stay two
    # roots however small the set is
    L = HomogenizedLyapunov(parse(text, 2))
    with pytest.raises(MultiplePositiveRootsError) as err:
        L.tau((1.0, 0.0))
    assert len(err.value.roots) == 2
    # scale roots of the homogenized polynomial: boundary radii s and 2s invert
    assert err.value.roots[0] == pytest.approx(0.5 / s, rel=1e-9)
    assert err.value.roots[1] == pytest.approx(1.0 / s, rel=1e-9)


def test_star_convex_disk(disk_L):
    report = disk_L.check_star_convex()
    assert report.passed
    assert report.checked_directions == 256
    assert report.failures == ()


def test_star_convex_annulus_two_crossings():
    L = HomogenizedLyapunov(parse(ANNULUS_TEXT, 2))
    report = L.check_star_convex()
    assert not report.passed
    assert len(report.failures) == 256
    for fail in report.failures:
        assert fail.root_count == 2
        assert abs(fail.roots[0] - 1.0) <= 1e-9
        assert abs(fail.roots[1] - 2.0) <= 1e-9


def test_star_convex_hyperbola_no_root_witness():
    L = HomogenizedLyapunov(parse(HYPERBOLA_TEXT, 2))
    report = L.check_star_convex()
    assert not report.passed
    by_index = {fail.index: fail for fail in report.failures}
    up = by_index[64]  # direction (cos(pi/2), sin(pi/2)) ~ (0, 1)
    assert up.root_count == 0
    assert abs(up.direction[0]) < 1e-15 and abs(up.direction[1] - 1.0) < 1e-15


def test_star_convex_tangency_reported_not_raised():
    L = HomogenizedLyapunov(parse("-1*(x1^2 + x2^2 - 1)^2", 2), ray_samples=64)
    assert abs(L.tau((3.0, 0.0)) - 3.0) <= 1e-9  # tangent crossing still evaluates
    report = L.check_star_convex()
    assert not report.passed
    assert all(f.suspected_tangency for f in report.failures)


def test_tau_dot_disk(disk_L, contraction):
    assert abs(disk_L.tau_dot(contraction, (1.0, 1.0)) - (-1.0)) <= 1e-12


def test_tau_dot_radial_linear(contraction):
    L = HomogenizedLyapunov(parse("x1^2 + x2^2 - 1", 2))
    assert abs(L.tau_dot(contraction, (1.0, 0.0)) - (-1.0)) <= 1e-12
    # d|x|/dt = -|x| for the contraction, and tau = |x| here
    assert abs(L.tau_dot(contraction, (3.0, 4.0)) - (-5.0)) <= 1e-9


def test_tau_dot_cubic_field():
    L = HomogenizedLyapunov(parse("x1^2 + x2^2 - 1", 2))
    f = PolyVectorField((
        parse("-(x1^2 + x2^2)*x1", 2),
        parse("-(x1^2 + x2^2)*x2", 2),
    ))
    assert f.nu == 2
    for x in ((1.0, 0.0), (2.0, 0.0), (0.6, 0.8)):
        c = L.tau(x)
        assert abs(L.tau_dot(f, x) - (-c ** 3)) <= 1e-9 * max(1.0, c ** 3)


def test_tau_dot_given_tau_is_bit_identical(disk_L, contraction):
    cubic = PolyVectorField((
        parse("(x1^2 + x2^2)*(-x1 + 0.5*x2)", 2),
        parse("(x1^2 + x2^2)*(-0.5*x1 - x2)", 2),
    ))
    rng = np.random.default_rng(317)
    points = [(1.0, 1.0), (3.0, 2.0)]
    points += [tuple(rng.uniform(-10.0, 10.0, 2).tolist()) for _ in range(200)]
    for f in (contraction, cubic):
        for x in points:
            assert disk_L.tau_dot(f, x, tau=disk_L.tau(x)) == disk_L.tau_dot(f, x)


def test_tau_dot_degenerate_gradient(contraction):
    L = HomogenizedLyapunov(parse("-1*(x1^2 + x2^2 - 1)^2", 2))
    with pytest.raises(DegenerateGradientError):
        L.tau_dot(contraction, (2.0, 0.0))


@pytest.mark.parametrize("x", [(1.0, 0.5), (-3.0, 2.0), (0.25, -4.0)])
def test_tau_dot_does_not_depend_on_the_scale_of_P(contraction, x):
    # scaling P by a power of two scales every coefficient exactly, so the
    # rate keeps its bits; the degenerate-gradient test is relative to the
    # gradient's own scale, so it does not refuse the small scales
    want = HomogenizedLyapunov(parse(DISK_TEXT, 2)).tau_dot(contraction, x)
    for k in range(-40, 41):
        L = HomogenizedLyapunov(parse(DISK_TEXT, 2).scale(2.0 ** k))
        assert same_bits(L.tau_dot(contraction, x), want), k


def test_tau_dot_past_the_float_range_raises(disk_L):
    # tau((1e200, 1e200)) is about 1e200, so c^(nu+1) = c^3 overflows
    L = HomogenizedLyapunov(parse("(x1^2+x2^2)^3 - x1^5 + x2^3*x1 - 1 + x1", 2))
    cubic = PolyVectorField((
        parse("(x1^2+x2^2)*(-1.0*x1 + 0.5*x2)", 2),
        parse("(x1^2+x2^2)*(-0.5*x1 - 1.0*x2)", 2),
    ))
    assert 1e199 < L.tau((1e200, 1e200)) < 1e201
    with pytest.raises(DecayRateOverflowError):
        L.tau_dot(cubic, (1e200, 1e200))
    assert math.isfinite(L.tau_dot(cubic, (1e100, 1e100)))
    # here c^1 is a float but c * (grad P . f) is not: tau_dot = -3 tau
    fast = linear([[-3.0, 0.0], [0.0, -3.0]])
    assert disk_L.tau_dot(fast, (1e307, 1e307)) == pytest.approx(-3e307, rel=1e-12)
    with pytest.raises(DecayRateOverflowError):
        disk_L.tau_dot(fast, (1e308, 1e308))


def test_tau_dot_origin_rejected(disk_L, contraction):
    with pytest.raises(ValueError):
        disk_L.tau_dot(contraction, (0.0, 0.0))


def test_tau_dot_matches_finite_differences(disk_L, contraction):
    h = 1e-4
    traj = rk4(contraction, (1.0, 1.0), h, 50 * h)
    taus = [disk_L.tau(s) for s in traj.states]
    for k in range(1, len(taus) - 1):
        fd = (taus[k + 1] - taus[k - 1]) / (2.0 * h)
        td = disk_L.tau_dot(contraction, traj.states[k])
        assert abs(fd - td) <= 1e-6


def test_sample_directions_deterministic_and_unit():
    a = sample_directions(3, 50, seed=42)
    b = sample_directions(3, 50, seed=42)
    assert a == b
    for d in a:
        assert abs(math.fsum(v * v for v in d) - 1.0) <= 1e-12
    grid = sample_directions(2, 4, seed=0)
    assert grid[0] == (1.0, 0.0)
    assert abs(grid[1][1] - 1.0) <= 1e-15


def test_tau_on_a_large_disk():
    # x1^2 + x2^2 <= 1e12 has radius 1e6, so tau((1, 0)) = 1e-6
    L = HomogenizedLyapunov(parse("x1^2+x2^2-1e12", 2))
    assert L.tau((1.0, 0.0)) == 1e-6


@pytest.mark.parametrize("text", ["x1^2+x2^2-1e-12", "1e6*x1^2+x2^2-1e-6"])
def test_star_convex_small_ellipses(text):
    report = HomogenizedLyapunov(parse(text, 2)).check_star_convex()
    assert report.passed and report.failures == ()


SEXTIC_TEXT = "(x1^2+x2^2)^3 - x1^5 + x2^3*x1 - 1 + x1"


@pytest.mark.parametrize("text", [DISK_TEXT, SEXTIC_TEXT])
@pytest.mark.parametrize("k", [-1000, -300, -100, 100, 300, 1000])
def test_tau_scales_by_powers_of_two_past_the_float_range(text, k):
    # tau(2^k x) = 2^k tau(x) exactly; far from 1, max|x_i|^p leaves the
    # float range and tau must rescale to stay within a few ulps
    L = HomogenizedLyapunov(parse(text, 2))
    for x in [(1.0, 1.0), (0.3, -0.7), (-0.2, 0.05), (1.5, 0.0)]:
        want = math.ldexp(L.tau(x), k)
        got = L.tau(tuple(math.ldexp(v, k) for v in x))
        assert ulps_apart(got, want) <= 4, (x, got, want)


@pytest.mark.parametrize("x, want", [((1e-200, 0.0), 0.5 * (math.sqrt(3.0) - 1.0) * 1e-200),
                                     ((1e-160, 1e-160), 1e-160),
                                     ((1e200, 1e200), 1e200)])
def test_tau_disk_far_from_unit_scale(disk_L, x, want):
    assert disk_L.tau(x) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_star_convex_quartic4d_at_seed_303():
    # the set is star-convex; at this sampling seed one of the 1024
    # Gaussian rays has a root that a float root count can miss
    P = parse("(x1^2+x2^2+x3^2+x4^2)^2 + x1^3 - x2*x3*x4 + 0.5*x1*x2 - x3 - 1", 4)
    report = HomogenizedLyapunov(P, ray_samples=1024, seed=303).check_star_convex()
    assert report.passed and report.failures == ()


# -- scaling P by a factor that is not a power of two ---------------------------

SEXTIC_TEXT = "(x1^2+x2^2)^3 - x1^5 + x2^3*x1 - 1 + x1"
_SCALE_POINTS = [(1.0, 0.0), (0.3, -0.4), (-2.0, 1.5), (1e-3, 2e-3), (-50.0, -70.0), (0.7, 0.7)]


def _scale_outcomes(L):
    """The star-convexity verdict, and tau or the crossings at each point."""
    outcomes = []
    for x in _SCALE_POINTS:
        try:
            outcomes.append((L.tau(x),))
        except MultiplePositiveRootsError as exc:
            outcomes.append(exc.roots)
    return L.check_star_convex().passed, outcomes


@functools.cache
def _unscaled_outcomes(text):
    return _scale_outcomes(HomogenizedLyapunov(parse(text, 2)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([DISK_TEXT, SEXTIC_TEXT, ANNULUS_TEXT]), st.floats(-8.0, 8.0))
@example(SEXTIC_TEXT, -8.0)
@example(ANNULUS_TEXT, 8.0)
def test_scaling_P_by_mu_changes_no_verdict_and_keeps_tau(text, u):
    # mu = 10^u, not a power of two: scaling rounds every coefficient, and
    # the answers must not move past rounding
    mu = 10.0 ** u
    assume(math.frexp(mu)[0] != 0.5)
    passed, outcomes = _unscaled_outcomes(text)
    scaled_passed, scaled = _scale_outcomes(HomogenizedLyapunov(parse(text, 2).scale(mu)))
    assert scaled_passed == passed
    for want, got in zip(outcomes, scaled):
        assert len(got) == len(want)
        for a, b in zip(want, got):
            assert abs(b - a) <= 1e-12 * a
