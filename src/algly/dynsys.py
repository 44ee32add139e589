"""Polynomial vector fields, fixed-step integration, and sampling checks.

A field f is homogeneous of degree nu when f(l*x) = l^(nu+1) * f(x) for
every l > 0; linear fields have nu = 0.  Homogeneity is verified at
construction, per component, through the exact Euler-identity residual.

The invariance check samples boundary points y = d / tau(d) (which lie
on {P = 0} by construction) and requires grad(P).f < 0 there; the
decrease check integrates trajectories and requires tau to fall at every
step while its finite-difference slope tracks the analytic rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionMismatchError, MixedDegreesError
from .homogenize import euler_residual
from .polycore import MultiPoly, PolyFamily
from .alf import sample_directions

if TYPE_CHECKING:
    from .alf import HomogenizedLyapunov

DETAILS_CAP = 64
# States beyond this magnitude count as blow-up; keeping them finite but
# enormous would only overflow every later polynomial evaluation.
DIVERGENCE_CAP = 1e30
# Most RK4 steps one trajectory may take (T/h); each step's state is kept.
MAX_STEPS = 1_000_000


def check_homogeneity(components: Sequence[MultiPoly]) -> int:
    """The unique nu with every nonzero component homogeneous of degree nu + 1."""
    if not components:
        raise MixedDegreesError("field has no components")
    nvars = components[0].nvars
    degrees = set()
    for i, comp in enumerate(components):
        if comp.nvars != nvars:
            raise DimensionMismatchError("components disagree on the number of variables")
        if comp.is_zero():
            continue
        d = comp.degree()
        if not euler_residual(comp, d).is_zero():
            raise MixedDegreesError(f"component {i + 1} mixes terms of different degrees")
        degrees.add(d)
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
        if self.nu is None:
            object.__setattr__(self, "nu", check_homogeneity(components))
        else:
            if self.nu < 0:
                raise MixedDegreesError(f"homogeneity degree must be >= 0, got {self.nu}")
            for i, comp in enumerate(components):
                if comp.is_zero():
                    continue
                if not euler_residual(comp, self.nu + 1).is_zero():
                    raise MixedDegreesError(
                        f"component {i + 1} is not homogeneous of degree {self.nu + 1}")
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
    step: float
    field: PolyVectorField
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


def rk4(f: PolyVectorField, x0: Sequence[float], h: float, T: float) -> Trajectory:
    """Classical fixed-step Runge-Kutta; a final partial step covers T
    when T/h is not integral, and T/h may not pass MAX_STEPS.  States
    that stop being finite (or exceed DIVERGENCE_CAP in magnitude)
    truncate the trajectory and set the `diverged` flag."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    if T < 0.0:
        raise ValueError(f"horizon must be non-negative, got {T}")
    if T / h > MAX_STEPS:
        raise ValueError(f"T/h = {T / h!r} steps exceeds the step budget MAX_STEPS = {MAX_STEPS}")
    if len(x0) != f.nvars:
        raise DimensionMismatchError(f"x0 has length {len(x0)}, expected {f.nvars}")
    x = tuple(float(v) for v in x0)
    times = [0.0]
    states = [x]
    n_full = int(math.floor(T / h + 1e-9))
    remainder = T - n_full * h
    steps = [h] * n_full
    if remainder > 1e-12 * max(1.0, abs(T)):
        steps.append(remainder)
    t = 0.0
    for step in steps:
        try:
            x = _rk4_step(f, x, step)
        except OverflowError:
            return Trajectory(times, states, h, f, diverged=True)
        if not all(math.isfinite(v) and abs(v) <= DIVERGENCE_CAP for v in x):
            return Trajectory(times, states, h, f, diverged=True)
        t += step
        times.append(t)
        states.append(x)
    return Trajectory(times, states, h, f)


# ---------------------------------------------------------------------------
# Sampling checks
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    passed: bool
    n_samples: int
    worst_margin: float
    worst_witness: tuple[float, ...] | None
    details: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)


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
    At every interior sample the centered finite-difference slope of tau
    must also match tau_dot within (10*h^2 + 1e-8) * max(1, |tau_dot|);
    the tolerance is recorded in the report notes.
    """
    fd_tol_factor = 10.0 * h * h + 1e-8
    notes = {
        "check": "decrease",
        "step": h,
        "horizon": T,
        "slack_per_step": "1e-9 * tau(x0)",
        "fd_tolerance": f"{fd_tol_factor} * max(1, |tau_dot|)",
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
        for k in range(1, len(taus) - 1):
            dt = traj.times[k + 1] - traj.times[k - 1]
            fd = (taus[k + 1] - taus[k - 1]) / dt
            td = L.tau_dot(f, traj.states[k])
            if abs(fd - td) > fd_tol_factor * max(1.0, abs(td)):
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
