"""Polynomial vector fields, fixed-step integration, and sampling checks.

A field f is homogeneous of degree nu when f(l*x) = l^(nu+1) * f(x) for
every l > 0; linear fields have nu = 0.  Homogeneity is verified at
construction, per component, from the total degree of every term.

The invariance check samples boundary points y = d / tau(d) (which lie
on {P = 0} by construction) and requires grad(P).f < 0 there; the
decrease check integrates trajectories and requires tau to fall at every
step while its finite-difference slope tracks the analytic rate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionMismatchError, MixedDegreesError
from .polycore import MultiPoly, PolyFamily
from .alf import sample_directions

if TYPE_CHECKING:
    from .alf import HomogenizedLyapunov

# Most entries a report's list (details, failures, mismatches) keeps.
DETAILS_CAP = 16
# States past this multiple of max|x0_i| count as blow-up; keeping them
# finite but enormous would only overflow every later polynomial evaluation.
DIVERGENCE_CAP = 1e30
# Most RK4 steps one trajectory may take (T/h); each step's state is kept.
MAX_STEPS = 1_000_000


def check_homogeneity(components: Sequence[MultiPoly], nu: int | None = None) -> int:
    """The unique nu with every term of every nonzero component of total
    degree nu + 1; a given `nu` is checked, and then all-zero components
    pass.  A coefficient that is not finite is refused."""
    if nu is not None and nu < 0:
        raise MixedDegreesError(f"homogeneity degree must be >= 0, got {nu}")
    if not components:
        raise MixedDegreesError("field has no components")
    nvars = components[0].nvars
    degrees = set()
    for i, comp in enumerate(components):
        if comp.nvars != nvars:
            raise DimensionMismatchError("components disagree on the number of variables")
        if not all(map(math.isfinite, comp.terms.values())):
            raise MixedDegreesError(f"component {i + 1} has a coefficient that is not finite")
        if comp.is_zero():
            continue
        d = comp.degree() if nu is None else nu + 1
        if any(sum(e) != d for e in comp.terms):
            raise MixedDegreesError(f"component {i + 1} mixes terms of different degrees" if nu is None
                                    else f"component {i + 1} is not homogeneous of degree {d}")
        degrees.add(d)
    if nu is not None:
        return nu
    if not degrees:
        raise MixedDegreesError("all components are zero; homogeneity degree is undefined")
    if len(degrees) > 1:
        raise MixedDegreesError(f"components have differing degrees {sorted(degrees)}")
    d = degrees.pop()
    if d < 1:
        raise MixedDegreesError("components of degree 0 do not vanish at the origin")
    return d - 1


@dataclass(frozen=True)
class PolyVectorField:
    """n polynomial components, homogeneous of degree nu + 1 each."""

    components: tuple[MultiPoly, ...]
    nu: int = None  # type: ignore[assignment]  # inferred when omitted
    _family: PolyFamily = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        components = tuple(self.components)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "nu", check_homogeneity(components, self.nu))
        object.__setattr__(self, "_family", PolyFamily(components))

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    def eval_at(self, x: Sequence[float]) -> tuple[float, ...]:
        return self._family.eval_and_scale(x)[0]


def linear(A) -> PolyVectorField:
    """The field x -> A x (homogeneous of degree zero)."""
    rows = [list(row) for row in A]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("matrix must be square")
    components = []
    for i in range(n):
        terms = {}
        for j, a in enumerate(rows[i]):
            e = tuple(1 if k == j else 0 for k in range(n))
            terms[e] = float(a)
        components.append(MultiPoly(n, terms))
    return PolyVectorField(tuple(components), nu=0)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    times: list[float]
    states: list[tuple[float, ...]]
    diverged: bool = False

    def __len__(self) -> int:
        return len(self.states)


def _rk4_step(f: PolyVectorField, x: tuple[float, ...], h: float) -> tuple[float, ...]:
    k1 = f.eval_at(x)
    k2 = f.eval_at(tuple(xi + 0.5 * h * k for xi, k in zip(x, k1)))
    k3 = f.eval_at(tuple(xi + 0.5 * h * k for xi, k in zip(x, k2)))
    k4 = f.eval_at(tuple(xi + h * k for xi, k in zip(x, k3)))
    return tuple(
        xi + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    )


def _whole_steps(h: float, T: float) -> int:
    """The steps of size h that fit in T; rk4 covers the rest by one partial step."""
    return int(math.floor(T / h + 1e-9))


def rk4(f: PolyVectorField, x0: Sequence[float], h: float, T: float) -> Trajectory:
    """Classical fixed-step Runge-Kutta; a final partial step covers T
    when T/h is not integral, and T/h may not pass MAX_STEPS.  States
    that stop being finite (or exceed DIVERGENCE_CAP times max|x0_i| in
    magnitude) truncate the trajectory and set the `diverged` flag."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    if T < 0.0:
        raise ValueError(f"horizon must be non-negative, got {T}")
    if T / h > MAX_STEPS:
        raise ValueError(f"T/h = {T / h!r} steps exceeds the step budget MAX_STEPS = {MAX_STEPS}")
    if len(x0) != f.nvars:
        raise DimensionMismatchError(f"x0 has length {len(x0)}, expected {f.nvars}")
    x = tuple(float(v) for v in x0)
    cap = DIVERGENCE_CAP * max(map(abs, x))
    times = [0.0]
    states = [x]
    n_full = _whole_steps(h, T)
    remainder = T - n_full * h
    steps = [h] * n_full
    # the slack of the floor above, so the cut does not depend on the time unit
    if remainder > 1e-9 * h:
        steps.append(remainder)
    t = 0.0
    for step in steps:
        try:
            x = _rk4_step(f, x, step)
        except OverflowError:
            return Trajectory(times, states, diverged=True)
        if not all(math.isfinite(v) and abs(v) <= cap for v in x):
            return Trajectory(times, states, diverged=True)
        t += step
        times.append(t)
        states.append(x)
    return Trajectory(times, states)


# ---------------------------------------------------------------------------
# Sampling checks
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    passed: bool
    n_samples: int
    worst_margin: float
    worst_witness: tuple[float, ...] | None
    notes: dict = field(default_factory=dict)     # before details: the JSON key order
    details: list = field(default_factory=list)


def check_invariance(
    L: "HomogenizedLyapunov",
    f: PolyVectorField,
    n_dirs: int = 4096,
    strict_tol: float = 0.0,
) -> VerificationReport:
    """Sample the boundary {P = 0} of L.P and test grad(P).f < -strict_tol there.

    Boundary points are d / tau(d) over n_dirs unit directions, so each
    satisfies P(y) = 0 up to root tolerance.  Root-count errors from tau
    (no root / several roots along a ray) propagate to the caller.
    """
    directions = sample_directions(L.nvars, n_dirs, L.seed)
    worst = -math.inf
    worst_witness = None
    for d in directions:
        t = L.tau(d)
        y = tuple(v / t for v in d)
        gvals = L.gradient_family.eval_and_scale(y)[0]
        fvals = f.eval_at(y)
        margin = sum(gv * fv for gv, fv in zip(gvals, fvals))
        if margin > worst:
            worst = margin
            worst_witness = y
    return VerificationReport(
        passed=worst < -strict_tol,
        n_samples=n_dirs,
        worst_margin=worst,
        worst_witness=worst_witness,
        notes={"check": "invariance", "strict_tol": strict_tol},
    )


def check_decrease(
    L: "HomogenizedLyapunov",
    f: PolyVectorField,
    x0s: Sequence[Sequence[float]],
    h: float,
    T: float,
) -> VerificationReport:
    """Integrate from each start and require tau to decrease at every step.

    Per-step slack is 1e-9 * tau(x0) to absorb root-refinement jitter.
    The centred slope of tau at sample k must match tau_dot within
    2 * D3 / (6h) + 8 eps |tau_k| / h: D3 / (6h) estimates the truncation
    h^2 tau''' / 6 by the largest |third difference| D3 of tau whose
    stencil straddles k and spans whole steps only, and the second term
    bounds the rounding of tau.  Samples with no such stencil are not compared.
    """
    notes = {
        "check": "decrease",
        "step": h,
        "horizon": T,
        "slack_per_step": "1e-9 * tau(x0)",
        "fd_tolerance": "2 * D3 / (6h) + 8 eps |tau| / h, D3 = max |third difference of tau| "
                        "over the whole-step stencils around the sample",
    }
    if not x0s:
        return VerificationReport(
            passed=True,
            n_samples=0,
            worst_margin=-math.inf,
            worst_witness=None,
            notes={**notes, "note": "no starting points supplied: vacuous pass, no evidence"},
        )
    worst_increase = -math.inf
    worst_witness = None
    n_samples = 0
    passed = True
    details = []
    for x0 in x0s:
        tau0 = L.tau(x0)
        slack = 1e-9 * tau0
        traj = rk4(f, x0, h, T)
        if traj.diverged:
            passed = False
            if len(details) < DETAILS_CAP:
                details.append({"x0": tuple(x0), "failure": "trajectory diverged",
                                "last_state": traj.states[-1]})
            continue
        taus = [L.tau(s) for s in traj.states]
        n_samples += len(taus)
        for k in range(len(taus) - 1):
            inc = taus[k + 1] - taus[k]
            if inc > worst_increase:
                worst_increase = inc
                worst_witness = traj.states[k + 1]
            if inc >= slack:
                passed = False
        # the stencils j..j+3 that end at or before the last whole step
        d3 = [abs(taus[j + 3] - 3.0 * taus[j + 2] + 3.0 * taus[j + 1] - taus[j])
              for j in range(_whole_steps(h, T) - 2)]
        for k in range(1, len(taus) - 1):
            around = d3[max(k - 2, 0):k]
            if not around or not any(traj.states[k]):
                continue  # no stencil, or the origin, where tau_dot is undefined
            dt = traj.times[k + 1] - traj.times[k - 1]
            fd = (taus[k + 1] - taus[k - 1]) / dt
            td = L.tau_dot(f, traj.states[k])
            if abs(fd - td) > max(around) / (3.0 * h) + 8.0 * sys.float_info.epsilon * abs(taus[k]) / h:
                passed = False
                if len(details) < DETAILS_CAP:
                    details.append({"x0": tuple(x0), "t": traj.times[k],
                                    "fd_slope": fd, "tau_dot": td})
    return VerificationReport(
        passed=passed,
        n_samples=n_samples,
        worst_margin=worst_increase,
        worst_witness=worst_witness,
        details=details,
        notes=notes,
    )
