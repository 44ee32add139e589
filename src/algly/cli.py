"""Command-line interface: problem ingestion, checks, and table emission.

Problem files are JSON::

    {
      "nvars": 2,
      "P": "(x1-1)^2 + (x2+1)^2 - 4",
      "field": {"matrix": [[-1, 0], [0, -1]]},        # or {"components": ["-x1", "-x2"]}
      "x0": [3, 2],
      "multiplier": {"U1": "1", "U2": "1",
                     "gram_U1": {"basis": [[0,0]], "Q": [[1]]},
                     "gram_negG": {"basis": [[1,0],[0,1],[0,0]],
                                   "Q": [[1,0,0],[0,1,0],[0,0,2]]}},
      "options": {"seed": 0, "ray_samples": 256, "n_dirs": 4096, "n_theta": 360,
                  "levels": [0.25, 0.5, 1], "h": 0.001, "T": 1.0, "strict_tol": 0.0}
    }

Each option a file gives is checked by its rule in `_OPTIONS` when the
file loads, whatever the subcommand; other keys are ignored.  A flag, or
ALGLY_SEED for the seed, overrides the file and is checked by the same rule.

Exit codes: 0 all checks pass, 1 check failure, 2 parse/usage error,
3 no positive root, 4 multiple positive roots, 5 unsupported dimension.
Outputs are byte-identical across runs for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

from . import certs, dynsys
from .alf import HomogenizedLyapunov, sample_directions
from .errors import (
    AlglyError,
    CertificateError,
    MixedDegreesError,
    MultiplePositiveRootsError,
    NoPositiveRootError,
    OriginNotInteriorError,
    ParseError,
)
from .homogenize import homogeneous_parts, homogenize
from .polycore import MAX_PARSE_TERMS, MultiPoly, parse

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_NO_ROOT = 3
EXIT_MULTI_ROOT = 4
EXIT_DIMENSION = 5


@dataclass
class Problem:
    nvars: int
    P: MultiPoly
    field: dynsys.PolyVectorField | None
    x0: tuple[float, ...] | None
    multiplier: dict | None
    options: dict
    seed: int


class UsageError(Exception):
    pass


# Most rays, directions or angles one run may sample.
MAX_SAMPLES = 1_000_000


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_int(value) and abs(value) <= sys.float_info.max


def _is_count(value) -> bool:
    return _is_int(value) and 1 <= value <= MAX_SAMPLES


# Problem-file options: key -> (default, check, what the check asks for,
# the flag that overrides it or None).  load_problem checks every value a
# file gives, and _settings every flag given, so each setting is checked
# by one rule wherever it comes from.
_OPTIONS = {
    # refused when negative: random.Random(-n) draws the same stream as Random(n)
    "seed": (0, lambda v: _is_int(v) and v >= 0, "a non-negative integer", "--seed"),
    "ray_samples": (256, _is_count, f"an integer from 1 to {MAX_SAMPLES}", None),
    "n_dirs": (4096, _is_count, f"an integer from 1 to {MAX_SAMPLES}", "--n-dirs"),
    "n_theta": (360, _is_count, f"an integer from 1 to {MAX_SAMPLES}", "--n-theta"),
    "levels": ([0.25, 0.5, 1.0],
               lambda v: isinstance(v, list) and len(v) > 0 and all(_is_finite(x) and x >= 0 for x in v),
               "a non-empty list of finite numbers >= 0", "--levels"),
    "h": (1e-3, lambda v: _is_finite(v) and v > 0, "a positive finite number", "--h"),
    "T": (1.0, lambda v: _is_finite(v) and v >= 0, "a non-negative finite number", "--T"),
    "strict_tol": (0.0, _is_finite, "a finite number", "--min-margin"),
}


def _check(key: str, value, source: str):
    _, check, wanted, _ = _OPTIONS[key]
    if not check(value):
        raise UsageError(f"{source} must be {wanted}, got {value!r}")
    return value


def _settings(args, options: dict, *keys: str) -> dict:
    """The run settings `keys` of a subcommand: each flag if given, else
    the file option, else the default."""
    out = {}
    sources = {}
    for key in keys:
        default, _, _, flag = _OPTIONS[key]
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            out[key], sources[key] = options.get(key, default), f"options.{key}"
        else:
            out[key], sources[key] = _check(key, value, flag), flag
    if "h" in out and out["T"] / out["h"] > dynsys.MAX_STEPS:
        raise UsageError(f"{sources['T']} / {sources['h']} must be at most {dynsys.MAX_STEPS} "
                         f"integration steps, got {out['T'] / out['h']!r}")
    return out


def _field_from_json(entry, nvars: int) -> dynsys.PolyVectorField:
    if not isinstance(entry, dict):
        raise UsageError("field must be a JSON object")
    try:
        if "matrix" in entry:
            rows = entry["matrix"]
            if not (isinstance(rows, list) and len(rows) == nvars
                    and all(isinstance(row, list) and len(row) == nvars
                            and all(_is_finite(a) for a in row) for row in rows)):
                raise UsageError(f"field matrix must be {nvars} rows of {nvars} finite numbers")
            return dynsys.linear(rows)
        if "components" in entry:
            texts = entry["components"]
            if not (isinstance(texts, list) and len(texts) == nvars):
                raise UsageError("field needs exactly nvars components")
            return dynsys.PolyVectorField(tuple(parse(text, nvars) for text in texts))
    except MixedDegreesError as exc:
        raise UsageError(f"field: {exc}") from exc
    raise UsageError("field must have either 'matrix' or 'components'")


def load_problem(path: str, seed_flag: int | None = None) -> Problem:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "nvars" not in data or "P" not in data:
        raise UsageError("problem file needs at least 'nvars' and 'P'")
    nvars = data["nvars"]
    # a P that bounds its set has a term in every variable
    if not (_is_int(nvars) and 1 <= nvars <= MAX_PARSE_TERMS):
        raise UsageError(f"nvars must be an integer from 1 to {MAX_PARSE_TERMS}, got {nvars!r}")
    if not isinstance(data["P"], str):
        raise UsageError(f"P must be polynomial text, got {data['P']!r}")
    P = parse(data["P"], nvars)
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise UsageError("options must be a JSON object")
    for key in [key for key in _OPTIONS if key in options]:
        _check(key, options[key], f"options.{key}")

    field = _field_from_json(data["field"], nvars) if "field" in data else None

    x0 = data.get("x0")
    if x0 is not None:
        if not (isinstance(x0, list) and all(_is_finite(v) for v in x0)):
            raise UsageError(f"x0 must be a list of finite numbers, got {x0!r}")
        if len(x0) != nvars:
            raise UsageError("x0 length disagrees with nvars")
        x0 = tuple(float(v) for v in x0)

    env_seed = os.environ.get("ALGLY_SEED")
    if seed_flag is not None:
        seed = _check("seed", seed_flag, "--seed")
    elif env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            seed = env_seed
        _check("seed", seed, "ALGLY_SEED")
    else:
        seed = options.get("seed", _OPTIONS["seed"][0])

    return Problem(
        nvars=nvars,
        P=P,
        field=field,
        x0=x0,
        multiplier=data.get("multiplier"),
        options=options,
        seed=seed,
    )


def build_lyapunov(problem: Problem) -> HomogenizedLyapunov:
    return HomogenizedLyapunov(
        problem.P,
        ray_samples=problem.options.get("ray_samples", _OPTIONS["ray_samples"][0]),
        seed=problem.seed,
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", out_path)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    problem = load_problem(args.problem, args.seed)
    decomposition = homogeneous_parts(problem.P)
    payload = {
        "nvars": problem.nvars,
        "degree": decomposition.degree,
        "parts": [part.to_text() for part in decomposition.parts],
        "homogenized": homogenize(decomposition).to_text(),
        "scale_variable": f"x{problem.nvars + 1}",
    }
    if decomposition.degree == 0:
        payload["warning"] = "degree-0 polynomial: no scaling function can be constructed"
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_tau(args) -> int:
    problem = load_problem(args.problem, args.seed)
    L = build_lyapunov(problem)
    x = tuple(args.x)
    if len(x) != problem.nvars:
        raise UsageError(f"--x needs {problem.nvars} values, got {len(x)}")
    if not all(math.isfinite(v) for v in x):
        raise UsageError(f"--x values must be finite, got {list(x)}")
    value = L.tau(x)
    # |P(x / tau(x))|, the defect of the defining identity
    residual = abs(problem.P.eval([v / value for v in x])) if value > 0.0 else None
    payload = {"x": list(x), "tau": value, "residual": residual}
    if value == 0.0:
        payload["note"] = "tau(0) = 0 by the degree-1 homogeneity convention"
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = load_problem(args.problem, args.seed)
    if problem.field is None:
        raise UsageError("verify needs a 'field' entry in the problem file")
    settings = _settings(args, problem.options, "n_dirs", "h", "T", "strict_tol")
    n_dirs = settings["n_dirs"]
    h = float(settings["h"])
    T = float(settings["T"])
    strict_tol = float(settings["strict_tol"])
    multiplier = None
    if problem.multiplier is not None:
        multiplier = _multiplier_from_json(problem.multiplier, problem.nvars)

    checks: dict[str, dict] = {}
    origin_value = problem.P.coefficient((0,) * problem.nvars)   # P(0): every other term is 0 there
    checks["origin_interior"] = {"passed": origin_value < 0.0, "value_at_origin": origin_value}

    checks["field_homogeneity"] = {"passed": True, "nu": problem.field.nu}

    if problem.x0 is not None:
        v0 = problem.P.eval(problem.x0)
        checks["containment"] = {"passed": v0 <= 0.0, "x0": list(problem.x0), "value_at_x0": v0}

    def star_convexity():
        star = L.check_star_convex()
        failures = [asdict(f) for f in star.failures[:dynsys.DETAILS_CAP]]
        return {"passed": star.passed, "checked_directions": star.checked_directions,
                "n_failures": len(star.failures), "failures": failures}

    def invariance():
        return _report_payload(dynsys.check_invariance(L, problem.field, n_dirs, strict_tol))

    def decrease():
        starts = [problem.x0] if problem.x0 is not None else _random_starts(problem, L, 8)
        dec = dynsys.check_decrease(L, problem.field, starts, h, T)
        return {**_report_payload(dec), "starts": [list(s) for s in starts]}

    # The chain of the argument: a failed check blocks every later one.  An
    # error in star-convexity propagates; in a later check it fails that check.
    stages = (("star_convexity", star_convexity, True), ("invariance", invariance, False),
              ("decrease", decrease, False))
    blocked_reason = None if checks["origin_interior"]["passed"] else "origin_interior failed"
    L = build_lyapunov(problem) if blocked_reason is None else None
    for name, run, gates in stages:
        if blocked_reason is not None:
            checks[name] = {"status": "blocked", "reason": blocked_reason}
            continue
        try:
            checks[name] = run()
        except AlglyError as exc:
            if gates:
                raise
            checks[name] = {"passed": False, "error": str(exc)}
        if gates and not checks[name]["passed"]:
            blocked_reason = f"{name} failed"

    if multiplier is not None:
        rep = certs.verify_multiplier(problem.P, problem.field, multiplier, n_dirs, problem.seed)
        checks["multiplier"] = _report_payload(rep)

    # a blocked check follows a failed one, so it need not count
    overall = all(entry.get("passed", False) for entry in checks.values() if "status" not in entry)
    payload = {"seed": problem.seed, "checks": checks, "passed": overall}
    _emit_json(payload, args.out)
    return EXIT_OK if overall else EXIT_CHECK_FAILED


def _random_starts(problem: Problem, L: HomogenizedLyapunov, count: int) -> list[tuple[float, ...]]:
    """Start k lies on sample_directions(nvars, count, seed)[k] at
    tau = 0.5 + 4.5 k / (count - 1), so the starts scale with the set."""
    starts = []
    for k, d in enumerate(sample_directions(problem.nvars, count, problem.seed)):
        radius = (0.5 + 4.5 * k / (count - 1)) / L.tau(d)
        starts.append(tuple(radius * c for c in d))
    return starts


def _report_payload(report: dynsys.VerificationReport) -> dict:
    payload = asdict(report)
    if math.isinf(report.worst_margin):
        payload["worst_margin"] = None
    if not report.details:
        del payload["details"]
    return payload


def _multiplier_from_json(data: dict, nvars: int) -> certs.MultiplierCertificate:
    if not isinstance(data, dict) or "U1" not in data or "U2" not in data:
        raise UsageError("a multiplier certificate needs 'U1' and 'U2'")

    def gram_data(key):
        # GramCertificate normalizes the basis and converts Q to float rows
        entry = data.get(key)
        if entry is None:
            return None
        if not (isinstance(entry, dict) and "basis" in entry and "Q" in entry):
            raise UsageError(f"multiplier {key} needs 'basis' and 'Q'")
        return entry["basis"], entry["Q"]

    return certs.MultiplierCertificate(
        U1=parse(data["U1"], nvars),
        U2=parse(data["U2"], nvars),
        gram_U1=gram_data("gram_U1"),
        gram_negG=gram_data("gram_negG"),
    )


def cmd_contour(args) -> int:
    problem = load_problem(args.problem, args.seed)
    if problem.nvars != 2:
        sys.stderr.write("contour emission is 2D-only\n")
        return EXIT_DIMENSION
    settings = _settings(args, problem.options, "levels", "n_theta")
    levels = [float(v) for v in settings["levels"]]
    n_theta = settings["n_theta"]
    L = build_lyapunov(problem)
    # one root solve per direction; each level is an exact scaling of the
    # unit-level boundary point d / tau(d)
    boundary = []
    for k, d in enumerate(sample_directions(2, n_theta, problem.seed)):
        t = L.tau(d)
        boundary.append((2.0 * math.pi * k / n_theta, d[0] / t, d[1] / t))
    lines = ["level,theta,x1,x2"]
    for level in sorted(levels):
        for theta, b1, b2 in boundary:
            lines.append(f"{level!r},{theta!r},{level * b1!r},{level * b2!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    problem = load_problem(args.problem, args.seed)
    if problem.field is None:
        raise UsageError("simulate needs a 'field' entry in the problem file")
    if problem.x0 is None:
        raise UsageError("simulate needs an 'x0' entry in the problem file")
    settings = _settings(args, problem.options, "h", "T")
    h = float(settings["h"])
    T = float(settings["T"])
    L = build_lyapunov(problem)
    traj = dynsys.rk4(problem.field, problem.x0, h, T)
    header = "t," + ",".join(f"x{i + 1}" for i in range(problem.nvars)) + ",tau,tau_dot"
    lines = [header]
    for t, state in zip(traj.times, traj.states):
        tau = L.tau(state)
        if any(v != 0.0 for v in state):
            td = L.tau_dot(problem.field, state, tau=tau)
        else:
            td = 0.0
        cells = [repr(t)] + [repr(v) for v in state] + [repr(tau), repr(td)]
        lines.append(",".join(cells))
    if traj.diverged:
        lines.append(f"# diverged: integration stopped at t={traj.times[-1]!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_cert(args) -> int:
    problem = load_problem(args.problem, args.seed)
    try:
        with open(args.cert) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read certificate file: {exc}") from exc

    if not isinstance(data, dict):
        raise UsageError("certificate file must be a JSON object")
    if "basis" in data and "Q" in data:
        if "target" not in data:
            raise UsageError("a Gram certificate needs 'target'")
        target = parse(data["target"], problem.nvars)
        cert = certs.build_gram(data["basis"], data["Q"], target)
        report = certs.verify_gram(cert)
        payload = {"kind": "gram", **asdict(report)}
        if not report.mismatches:
            del payload["mismatches"]
        _emit_json(payload, args.out)
        return EXIT_OK if report.passed else EXIT_CHECK_FAILED

    if "U1" in data and "U2" in data:
        if problem.field is None:
            raise UsageError("multiplier verification needs a 'field' entry in the problem file")
        cert = _multiplier_from_json(data, problem.nvars)
        n_dirs = problem.options.get("n_dirs", _OPTIONS["n_dirs"][0])
        report = certs.verify_multiplier(problem.P, problem.field, cert, n_dirs, problem.seed)
        payload = {"kind": "multiplier", **_report_payload(report)}
        _emit_json(payload, args.out)
        return EXIT_OK if report.passed else EXIT_CHECK_FAILED

    raise UsageError("certificate file must carry either 'basis'/'Q'/'target' or 'U1'/'U2'")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algly",
        description="Gauge-type Lyapunov functions from polynomial invariant sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", required=True, help="problem file (JSON)")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")
        p.add_argument("--seed", type=int, default=None, help="override the problem seed")

    p = sub.add_parser("decompose", help="homogeneous parts and the homogenized polynomial")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("tau", help="evaluate the scaling function at a point")
    common(p)
    p.add_argument("--x", type=float, nargs="+", required=True, help="point coordinates")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("verify", help="run the full check battery")
    common(p)
    p.add_argument("--n-dirs", type=int, default=None, help="boundary sampling density")
    p.add_argument("--h", type=float, default=None, help="integration step for the decrease check")
    p.add_argument("--T", type=float, default=None, help="integration horizon for the decrease check")
    p.add_argument("--min-margin", type=float, default=None,
                   help="require the invariance margin to be below minus this value")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("contour", help="emit level-set points as CSV (2D only)")
    common(p)
    p.add_argument("--levels", type=float, nargs="+", default=None)
    p.add_argument("--n-theta", type=int, default=None)
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("simulate", help="integrate from x0 and tabulate tau along the way")
    common(p)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--T", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cert", help="verify a Gram or multiplier certificate file")
    common(p)
    p.add_argument("--cert", required=True, help="certificate file (JSON)")
    p.set_defaults(func=cmd_cert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (e.g. `| head`) closed the pipe mid-write
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except ParseError as exc:
        _emit_json({"error": "parse", "message": str(exc), "offset": exc.offset}, None)
        return EXIT_PARSE
    except (UsageError, CertificateError) as exc:
        _emit_json({"error": "usage", "message": str(exc)}, None)
        return EXIT_PARSE
    except NoPositiveRootError as exc:
        _emit_json({"error": "no_positive_root", "message": str(exc), "x": list(exc.x)}, None)
        return EXIT_NO_ROOT
    except MultiplePositiveRootsError as exc:
        _emit_json({
            "error": "multiple_positive_roots",
            "message": str(exc),
            "x": list(exc.x),
            "roots": list(exc.roots),
        }, None)
        return EXIT_MULTI_ROOT
    except OriginNotInteriorError as exc:
        _emit_json({"error": "origin_not_interior", "message": str(exc)}, None)
        return EXIT_CHECK_FAILED
    except AlglyError as exc:
        _emit_json({"error": type(exc).__name__, "message": str(exc)}, None)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
