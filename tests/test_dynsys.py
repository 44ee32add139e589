import math

import numpy as np
import pytest

from algly.dynsys import (
    DETAILS_CAP,
    MAX_STEPS,
    PolyVectorField,
    check_decrease,
    check_homogeneity,
    check_invariance,
    linear,
    rk4,
)
from algly.errors import DimensionMismatchError, MixedDegreesError
from algly.alf import HomogenizedLyapunov, sample_directions
from algly.polycore import MultiPoly, parse


def test_linear_minus_identity(contraction):
    assert contraction.nu == 0
    assert contraction.components[0] == parse("0 - x1", 2)
    assert contraction.components[1] == parse("0 - x2", 2)


def test_linear_zero_matrix():
    f = linear([[0.0, 0.0], [0.0, 0.0]])
    assert f.nu == 0
    assert all(c.is_zero() for c in f.components)
    assert f.eval_at((3.0, -2.0)) == (0.0, 0.0)


def test_linear_rotation():
    f = linear([[0.0, -1.0], [1.0, 0.0]])
    assert f.components[0] == parse("0 - x2", 2)
    assert f.components[1] == parse("x1", 2)


def test_linear_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        linear([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_check_homogeneity():
    assert check_homogeneity((parse("0 - x1", 2), parse("0 - x2", 2))) == 0
    cubic = (parse("x1^3 + x1*x2^2", 2), parse("x2^3", 2))
    assert check_homogeneity(cubic) == 2
    with pytest.raises(MixedDegreesError):
        check_homogeneity((parse("x1", 2), parse("x2^2", 2)))
    with pytest.raises(MixedDegreesError):
        check_homogeneity((parse("x1 + 1", 2), parse("x2", 2)))
    with pytest.raises(MixedDegreesError):
        check_homogeneity((parse("0", 2), parse("0", 2)))


def test_field_constructor_validates():
    with pytest.raises(MixedDegreesError):
        PolyVectorField((parse("x1^2", 2), parse("x2", 2)))
    f = PolyVectorField((parse("x1^3", 2), parse("0", 2)), nu=2)
    assert f.nu == 2
    with pytest.raises(MixedDegreesError):
        PolyVectorField((parse("x1^3", 2),), nu=1)
    # a given nu is checked by the same rule as an inferred one
    with pytest.raises(DimensionMismatchError, match="components disagree"):
        PolyVectorField((parse("x1", 2), parse("x1", 3)), nu=0)


def test_field_refuses_a_coefficient_that_is_not_finite():
    for bad in (math.inf, math.nan):
        with pytest.raises(MixedDegreesError, match="component 2 has a coefficient that is not finite"):
            PolyVectorField((parse("x1", 2), MultiPoly(2, {(0, 1): bad})))
        with pytest.raises(MixedDegreesError, match="component 1 has a coefficient that is not finite"):
            linear([[bad]])


def test_rk4_exponential_decay(contraction):
    traj = rk4(contraction, (1.0, 0.0), 1e-2, 1.0)
    assert len(traj) == 101
    assert abs(traj.states[-1][0] - math.exp(-1.0)) <= 1e-8
    assert abs(traj.states[-1][1]) <= 1e-15


def test_rk4_zero_field_constant():
    f = linear([[0.0, 0.0], [0.0, 0.0]])
    traj = rk4(f, (2.0, -1.0), 0.1, 1.0)
    assert all(s == (2.0, -1.0) for s in traj.states)


def test_rk4_sample_counts(contraction):
    assert len(rk4(contraction, (1.0, 1.0), 0.5, 0.5)) == 2
    assert len(rk4(contraction, (1.0, 1.0), 0.5, 0.0)) == 1
    # partial final step covers a non-integral horizon
    traj = rk4(contraction, (1.0, 1.0), 0.4, 1.0)
    assert len(traj) == 4
    assert abs(traj.times[-1] - 1.0) <= 1e-15


def test_rk4_partial_step_does_not_depend_on_the_time_unit(contraction):
    # T/h = 3.33...: three full steps and a partial one, at any time unit
    for unit in (1.0, 1e-11):
        h, T = 3e-3 * unit, 1e-2 * unit
        traj = rk4(contraction, (1.0, 1.0), h, T)
        assert len(traj) == 5
        assert traj.times[-1] == pytest.approx(T, rel=1e-12)


def test_rk4_step_validation(contraction):
    with pytest.raises(ValueError):
        rk4(contraction, (1.0, 0.0), -0.1, 1.0)
    with pytest.raises(DimensionMismatchError):
        rk4(contraction, (1.0,), 0.1, 1.0)


@pytest.mark.parametrize("h, T", [(1e-300, 1.0), (1e-7, 1000.0), (1.0, MAX_STEPS + 1.0)])
def test_rk4_refuses_runs_past_the_step_budget(contraction, h, T):
    # refused before the first step, so the oversized run never starts
    with pytest.raises(ValueError, match="MAX_STEPS"):
        rk4(contraction, (1.0, 0.0), h, T)


def test_rk4_divergence_flagged():
    f = PolyVectorField((parse("x1^3", 2), parse("x2^3", 2)))
    traj = rk4(f, (10.0, 10.0), 1e-2, 1.0)
    assert traj.diverged
    assert len(traj) < 101
    assert all(math.isfinite(v) for s in traj.states for v in s)


def test_rk4_flow_scales_for_linear_fields(contraction):
    traj1 = rk4(contraction, (1.3, -0.7), 1e-2, 1.0)
    for lam in (0.5, 2.0, 10.0):
        traj2 = rk4(contraction, (1.3 * lam, -0.7 * lam), 1e-2, 1.0)
        for s1, s2 in zip(traj1.states, traj2.states):
            for a, b in zip(s1, s2):
                assert abs(b - lam * a) <= 1e-10 * max(1.0, abs(lam * a))


def test_rk4_fourth_order(contraction):
    x0 = (1.0, 0.0)
    exact = math.exp(-1.0)
    err = {}
    for h in (0.05, 0.025):
        traj = rk4(contraction, x0, h, 1.0)
        err[h] = abs(traj.states[-1][0] - exact)
    assert err[0.05] / err[0.025] >= 12.0


def test_invariance_disk(disk_poly, disk_L, contraction):
    report = check_invariance(disk_L, contraction, 4096)
    assert report.passed
    want = -2.0 * (4.0 - 2.0 * math.sqrt(2.0))
    assert abs(report.worst_margin - want) <= 1e-6
    assert report.n_samples == 4096


def test_invariance_unstable_field(disk_poly, disk_L, expansion):
    report = check_invariance(disk_L, expansion, 512)
    assert not report.passed
    assert report.worst_margin > 0.0


def test_invariance_rotation_zero_margin():
    P = parse("x1^2 + x2^2 - 1", 2)
    L = HomogenizedLyapunov(P)
    f = linear([[0.0, -1.0], [1.0, 0.0]])
    report = check_invariance(L, f, 256)
    assert not report.passed          # strict inequality fails
    assert report.worst_margin == 0.0


def test_invariance_boundary_points_lie_on_level_set(disk_poly, disk_L, contraction):
    report = check_invariance(disk_L, contraction, 64)
    assert abs(disk_poly.eval(report.worst_witness)) <= 1e-9
    for d in sample_directions(2, 64, disk_L.seed):
        t = disk_L.tau(d)
        y = tuple(v / t for v in d)
        assert abs(disk_poly.eval(y)) <= 1e-9


def test_invariance_reuses_the_gradient_of_L(contraction, disk_L, monkeypatch):
    expected = check_invariance(disk_L, contraction, 64)
    monkeypatch.setattr(MultiPoly, "gradient", lambda self: pytest.fail("gradient rebuilt"))
    report = check_invariance(disk_L, contraction, 64)
    assert report.worst_margin == expected.worst_margin


def test_decrease_disk(disk_L, contraction):
    report = check_decrease(disk_L, contraction, [(3.0, 2.0)], 1e-3, 2.0)
    assert report.passed
    assert report.n_samples == 2001
    assert report.worst_margin < 0.0


def test_decrease_exponential_rate(disk_L, contraction):
    traj = rk4(contraction, (3.0, 2.0), 1e-3, 5.0)
    tau0 = disk_L.tau((3.0, 2.0))
    for target in (1.0, 2.0, 5.0):
        k = min(range(len(traj.times)), key=lambda i: abs(traj.times[i] - target))
        ratio = disk_L.tau(traj.states[k]) / tau0
        assert abs(ratio - math.exp(-traj.times[k])) <= 1e-6


def test_decrease_fails_for_unstable_field(disk_L, expansion):
    report = check_decrease(disk_L, expansion, [(1.0, 0.0)], 1e-2, 0.5)
    assert not report.passed
    assert report.worst_margin > 0.0


def test_decrease_vacuous_without_starts(disk_L, contraction):
    report = check_decrease(disk_L, contraction, [], 1e-3, 1.0)
    assert report.passed
    assert report.n_samples == 0
    assert "no evidence" in report.notes["note"]


def test_decrease_flags_a_tau_dot_off_by_one_part_in_1e5(disk_L, contraction, monkeypatch):
    # disk.json's start, step and horizon: an error of 1e-5 in tau_dot is
    # far above the truncation error of the centred slope there
    assert check_decrease(disk_L, contraction, [(1.0, 0.0)], 1e-3, 5.0).passed
    tau_dot = HomogenizedLyapunov.tau_dot
    monkeypatch.setattr(HomogenizedLyapunov, "tau_dot",
                        lambda self, f, x, **kw: tau_dot(self, f, x, **kw) * (1.0 + 1e-5))
    report = check_decrease(disk_L, contraction, [(1.0, 0.0)], 1e-3, 5.0)
    assert not report.passed
    assert {"fd_slope", "tau_dot"} <= set(report.details[0])
    assert len(report.details) == DETAILS_CAP


def test_decrease_keeps_the_first_details_of_diverged_starts(disk_L):
    f = PolyVectorField((parse("x1^3", 2), parse("x2^3", 2)))
    starts = [(10.0 + k, 10.0) for k in range(DETAILS_CAP + 4)]
    report = check_decrease(disk_L, f, starts, 1e-2, 1.0)
    assert not report.passed
    assert [d["x0"] for d in report.details] == starts[:DETAILS_CAP]
    assert {d["failure"] for d in report.details} == {"trajectory diverged"}


def test_decrease_compares_no_slope_next_to_the_partial_step(disk_L, contraction, monkeypatch):
    # T = 10.5 h: states 0..10 by whole steps, state 11 by a half step, so
    # sample 10 has no third-difference stencil of whole steps
    calls = []
    tau_dot = HomogenizedLyapunov.tau_dot
    monkeypatch.setattr(HomogenizedLyapunov, "tau_dot",
                        lambda self, f, x, **kw: calls.append(x) or tau_dot(self, f, x, **kw))
    report = check_decrease(disk_L, contraction, [(3.0, 2.0)], 1e-2, 0.105)
    traj = rk4(contraction, (3.0, 2.0), 1e-2, 0.105)
    assert report.passed and len(traj) == 12
    assert calls == traj.states[1:10]


def test_rk4_divergence_cap_is_relative_to_the_start(contraction, expansion):
    # the same flow in units of 1e31 is not cut short
    for f in (contraction, expansion):
        small, large = rk4(f, (1.0, -0.5), 1e-2, 1.0), rk4(f, (1e31, -0.5e31), 1e-2, 1.0)
        assert not small.diverged and not large.diverged and len(small) == len(large)
        for s1, s2 in zip(small.states, large.states):
            assert s2 == pytest.approx([1e31 * v for v in s1], rel=1e-14)


def test_decrease_cubic_field_rate():
    L = HomogenizedLyapunov(parse("x1^2 + x2^2 - 1", 2))
    f = PolyVectorField((
        parse("-(x1^2 + x2^2)*x1", 2),
        parse("-(x1^2 + x2^2)*x2", 2),
    ))
    report = check_decrease(L, f, [(1.0, 0.0)], 1e-2, 1.0)
    assert report.passed
    traj = rk4(f, (1.0, 0.0), 1e-2, 1.0)
    for state in traj.states:
        c = L.tau(state)
        assert abs(L.tau_dot(f, state) - (-c ** 3)) <= 1e-8
