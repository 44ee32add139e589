"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
PASS/FAIL line per criterion in addition to the pytest verdicts.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from algly import cli
from algly.alf import HomogenizedLyapunov
from algly.certs import (
    GramCertificate,
    MultiplierCertificate,
    verify_gram,
    verify_multiplier,
)
from algly.dynsys import PolyVectorField, check_decrease, check_invariance, linear, rk4
from algly.homogenize import homogeneous_parts, homogenize
from algly.polycore import MultiPoly, parse
from algly.roots import UniPoly, positive_roots

from conftest import ANNULUS_TEXT, DISK_TEXT, HYPERBOLA_TEXT, quadratic_form
from oracles import expand_from_roots, geometric_roots, tau_closed_form


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_c01_homogenization_exactness():
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        P = parse(DISK_TEXT, 2)
        H = homogenize(homogeneous_parts(P))
        best = min(best, time.perf_counter() - start)
    want = {
        (0, 0, 2): -2.0,   # scale^2
        (1, 0, 1): -2.0,   # x1 * scale
        (0, 1, 1): 2.0,    # x2 * scale
        (2, 0, 0): 1.0,
        (0, 2, 0): 1.0,
    }
    ok = H.terms == want and best < 1e-3
    report(1, "homogenization matches the worked example term-for-term",
           ok, f"runtime {best * 1e6:.0f} us")


def test_c02_closed_form_agreement():
    L = HomogenizedLyapunov(parse(DISK_TEXT, 2))
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    worst = 0.0
    n = 0
    while n < 10**4:
        x1, x2 = (float(v) for v in rng.uniform(-10.0, 10.0, 2))
        if x1 == 0.0 and x2 == 0.0:
            continue
        n += 1
        want = tau_closed_form(x1, x2)
        worst = max(worst, abs(L.tau((x1, x2)) - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 2.0
    report(2, "tau matches the closed form at 10^4 random points",
           ok, f"max rel err {worst:.2e}, {elapsed:.2f} s")


def test_c03_homogeneity_degree_one():
    L = HomogenizedLyapunov(parse(DISK_TEXT, 2))
    rng = np.random.default_rng(20260811)
    worst = 0.0
    for _ in range(10**3):
        x = tuple(float(v) for v in rng.uniform(-10.0, 10.0, 2))
        if x == (0.0, 0.0):
            continue
        t = L.tau(x)
        for lam in (0.5, 2.0, 10.0):
            err = abs(L.tau((lam * x[0], lam * x[1])) - lam * t) / (lam * t)
            worst = max(worst, err)
    report(3, "tau(lam*x) = lam*tau(x) for lam in {0.5, 2, 10}",
           worst <= 1e-9, f"max rel err {worst:.2e}")


def test_c04_analytic_decay_rate():
    L = HomogenizedLyapunov(parse(DISK_TEXT, 2))
    f = linear([[-1.0, 0.0], [0.0, -1.0]])
    rate = L.tau_dot(f, (1.0, 1.0))
    ok_rate = abs(rate - (-1.0)) <= 1e-9
    h = 1e-4
    traj = rk4(f, (1.0, 1.0), h, 101 * h)
    taus = [L.tau(s) for s in traj.states]
    worst_fd = 0.0
    for k in range(1, 101):
        fd = (taus[k + 1] - taus[k - 1]) / (2.0 * h)
        worst_fd = max(worst_fd, abs(fd - L.tau_dot(f, traj.states[k])))
    ok = ok_rate and worst_fd <= 1e-6
    report(4, "tau_dot(1,1) = -1 and finite differences track it",
           ok, f"rate {rate!r}, max fd gap {worst_fd:.2e}")


def test_c05_exponential_decay_reproduction():
    start = time.perf_counter()
    L = HomogenizedLyapunov(parse(DISK_TEXT, 2))
    f = linear([[-1.0, 0.0], [0.0, -1.0]])
    traj = rk4(f, (3.0, 2.0), 1e-3, 5.0)
    taus = [L.tau(s) for s in traj.states]
    tau0 = taus[0]
    strictly_decreasing = all(b < a for a, b in zip(taus, taus[1:]))
    worst = 0.0
    for target in (1.0, 2.0, 5.0):
        k = min(range(len(traj.times)), key=lambda i: abs(traj.times[i] - target))
        worst = max(worst, abs(taus[k] / tau0 - math.exp(-traj.times[k])))
    elapsed = time.perf_counter() - start
    ok = strictly_decreasing and worst <= 1e-6 and elapsed < 5.0
    report(5, "tau decays like exp(-t) along the trajectory from (3, 2)",
           ok, f"max ratio err {worst:.2e}, monotone={strictly_decreasing}, {elapsed:.2f} s")


def test_c06_invariance_margin():
    P = parse(DISK_TEXT, 2)
    L = HomogenizedLyapunov(P)
    stable = check_invariance(L, linear([[-1.0, 0.0], [0.0, -1.0]]), 4096)
    want = -2.0 * (4.0 - 2.0 * math.sqrt(2.0))
    gap = abs(stable.worst_margin - want)
    unstable = check_invariance(L, linear([[1.0, 0.0], [0.0, 1.0]]), 4096)
    ok = stable.passed and gap <= 1e-6 and (not unstable.passed) and unstable.worst_margin > 0.0
    report(6, "invariance margin matches the boundary parametrization",
           ok, f"worst {stable.worst_margin!r} vs {want!r}, flipped worst {unstable.worst_margin:.3f}")


def test_c07_star_convexity_discrimination():
    disk = HomogenizedLyapunov(parse(DISK_TEXT, 2)).check_star_convex()
    ok_disk = disk.passed and disk.checked_directions == 256 and not disk.failures

    annulus = HomogenizedLyapunov(parse(ANNULUS_TEXT, 2)).check_star_convex()
    ok_annulus = (not annulus.passed) and len(annulus.failures) == 256 and all(
        f.root_count == 2
        and abs(f.roots[0] - 1.0) <= 1e-9
        and abs(f.roots[1] - 2.0) <= 1e-9
        for f in annulus.failures
    )

    hyper = HomogenizedLyapunov(parse(HYPERBOLA_TEXT, 2)).check_star_convex()
    up = {f.index: f for f in hyper.failures}.get(64)
    ok_hyper = (not hyper.passed) and up is not None and up.root_count == 0

    ok = ok_disk and ok_annulus and ok_hyper
    report(7, "star-convexity: disk passes, annulus double-crosses, hyperbola misses",
           ok, f"disk={ok_disk}, annulus={ok_annulus}, hyperbola={ok_hyper}")


def test_c08_certificate_suite():
    P = parse(DISK_TEXT, 2)
    f = linear([[-1.0, 0.0], [0.0, -1.0]])
    mult = MultiplierCertificate(
        U1=parse("1", 2),
        U2=parse("1", 2),
        gram_negG=(((1, 0), (0, 1), (0, 0)), np.diag([1.0, 1.0, 2.0])),
    )
    mrep = verify_multiplier(P, f, mult, seed=0)
    ok_mult = mrep.passed and mrep.notes["combination"] == "-1*x1^2 - x2^2 - 2"

    gram = GramCertificate(((1, 0), (0, 1), (0, 0)), np.diag([1.0, 1.0, 2.0]),
                           parse("x1^2 + x2^2 + 2", 2))
    grep = verify_gram(gram)
    ok_gram = grep.passed and grep.coeff_ok and grep.psd_ok

    swap = GramCertificate(((1, 0), (0, 1)), np.array([[0.0, 1.0], [1.0, 0.0]]),
                           parse("2*x1*x2", 2))
    srep = verify_gram(swap)
    ok_swap = (not srep.passed) and srep.coeff_ok and (not srep.psd_ok) \
        and srep.psd_failed_at == 0

    ok = ok_mult and ok_gram and ok_swap
    report(8, "multiplier pair verifies; diag Gram passes; swap matrix fails PSD",
           ok, f"mult={ok_mult}, gram={ok_gram}, swap PSD test failed at {srep.psd_failed_at}")


def euler_gram_residual(cert: GramCertificate) -> MultiPoly:
    """x.grad(s) - 2 z^T T Q z for s = z^T Q z and T = diag(deg z_i), with
    x.grad(s) the sum over k of x_k * ds/dx_k; zero when Q is symmetric."""
    basis, Q, nvars = cert.basis, cert.Q, cert.target.nvars
    s = quadratic_form(basis, Q, nvars)
    euler = MultiPoly.zero(nvars)
    for k in range(1, nvars + 1):
        euler = euler + MultiPoly.variable(nvars, k) * s.partial(k)
    TQ = [[sum(e) * q for q in row] for e, row in zip(basis, Q)]
    return euler - quadratic_form(basis, TQ, nvars).scale(2.0)


def test_c09_euler_gram_identity():
    rng = np.random.default_rng(20260812)
    checked = 0
    all_zero = True

    basis = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1))
    assert [sum(e) for e in basis] == [2, 2, 2, 1, 1]
    Q = rng.integers(-5, 6, (5, 5)).astype(float)
    Q = Q + Q.T
    cert = GramCertificate(basis, Q, quadratic_form(basis, Q, 2))
    all_zero &= euler_gram_residual(cert).is_zero()
    checked += 1

    monomial_pool = {
        nvars: [
            e for e in itertools.product(range(5), repeat=nvars)
            if 1 <= sum(e) <= 4
        ]
        for nvars in (1, 2, 3)
    }
    while checked < 200:
        nvars = int(rng.integers(1, 4))
        pool = monomial_pool[nvars]
        size = int(rng.integers(1, min(7, len(pool) + 1)))
        idx = rng.choice(len(pool), size=size, replace=False)
        b = tuple(pool[i] for i in sorted(idx))
        Q = rng.integers(-9, 10, (size, size)).astype(float)
        Q = Q + Q.T
        cert = GramCertificate(b, Q, quadratic_form(b, Q, nvars))
        all_zero &= euler_gram_residual(cert).is_zero()
        checked += 1
    report(9, "Euler/Gram identity residual is the exact zero polynomial",
           all_zero and checked == 200, f"{checked} randomized certificates")


def test_c10_contour_fidelity(tmp_path, capsys):
    problem = tmp_path / "disk.json"
    problem.write_text(json.dumps({
        "nvars": 2,
        "P": DISK_TEXT,
        "options": {"seed": 0},
    }))
    code = cli.main(["contour", "--problem", str(problem),
                     "--levels", "0.25", "0.5", "1", "--n-theta", "360"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [tuple(float(v) for v in line.split(","))
            for line in out.strip().split("\n")[1:]]
    disk = lambda x1, x2: (x1 - 1.0) ** 2 + (x2 + 1.0) ** 2 - 4.0
    worst_residual = 0.0
    worst_circle = 0.0
    by_level: dict = {}
    for level, theta, x1, x2 in rows:
        worst_residual = max(worst_residual, abs(disk(x1 / level, x2 / level)))
        by_level.setdefault(level, []).append((x1, x2))
    for x1, x2 in by_level[1.0]:
        worst_circle = max(worst_circle, abs(math.hypot(x1 - 1.0, x2 + 1.0) - 2.0))
    exact_scaling = all(
        a1 == level * b1 and a2 == level * b2
        for level in (0.25, 0.5)
        for (a1, a2), (b1, b2) in zip(by_level[level], by_level[1.0])
    )
    ok = (len(rows) == 1080 and worst_residual <= 1e-9
          and worst_circle <= 1e-9 and exact_scaling)
    report(10, "contour points sit on their level sets and scale exactly",
           ok, f"residual {worst_residual:.2e}, circle gap {worst_circle:.2e}")


def test_c11_root_solver_completeness():
    rng = np.random.default_rng(20260813)
    worst = 0.0
    miscounted = 0
    for _ in range(500):
        degree = int(rng.integers(1, 9))
        planted = geometric_roots(rng, degree)
        found = positive_roots(UniPoly(expand_from_roots(planted)))
        if len(found) != degree:
            miscounted += 1
            continue
        for got, want in zip(found.roots, planted):
            worst = max(worst, abs(got - want) / want)
    ok = miscounted == 0 and worst <= 1e-9
    report(11, "planted positive roots recovered, none spurious or missing",
           ok, f"max rel err {worst:.2e}, miscounted {miscounted}")


def test_c12_nonlinear_homogeneous_coverage():
    L = HomogenizedLyapunov(parse("x1^2 + x2^2 - 1", 2))
    f = PolyVectorField((
        parse("-(x1^2 + x2^2)*x1", 2),
        parse("-(x1^2 + x2^2)*x2", 2),
    ))
    assert f.nu == 2
    traj = rk4(f, (1.0, 0.0), 1e-2, 1.0)
    worst = 0.0
    for state in traj.states:
        c = L.tau(state)
        worst = max(worst, abs(L.tau_dot(f, state) - (-c ** 3)))
    report(12, "cubic radial field: tau_dot equals -tau^3 along the trajectory",
           worst <= 1e-8, f"max gap {worst:.2e}")
