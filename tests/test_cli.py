import copy
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algly import cli

from conftest import ANNULUS_TEXT, DISK_TEXT, HYPERBOLA_TEXT

ROOT = Path(__file__).resolve().parents[1]


def write_problem(tmp_path, name="problem.json", **overrides):
    data = {
        "nvars": 2,
        "P": DISK_TEXT,
        "field": {"matrix": [[-1, 0], [0, -1]]},
        "x0": [1, 0],
        "options": {"seed": 11, "ray_samples": 128, "n_dirs": 256, "h": 1e-3, "T": 0.5},
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_decompose(tmp_path, capsys):
    problem = write_problem(tmp_path)
    code, out = run_cli(capsys, "decompose", "--problem", problem)
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 2
    assert payload["parts"] == ["-2", "-2*x1 + 2*x2", "x1^2 + x2^2"]
    assert payload["homogenized"] == "x1^2 - 2*x1*x3 + x2^2 + 2*x2*x3 - 2*x3^2"


def test_decompose_constant_warns(tmp_path, capsys):
    problem = write_problem(tmp_path, P="-3")
    code, out = run_cli(capsys, "decompose", "--problem", problem)
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 0
    assert "warning" in payload


def test_tau_values(tmp_path, capsys):
    problem = write_problem(tmp_path)
    code, out = run_cli(capsys, "tau", "--problem", problem, "--x", "1", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == pytest.approx(1.0, abs=1e-12)
    assert payload["residual"] <= 1e-9

    code, out = run_cli(capsys, "tau", "--problem", problem, "--x", "1", "-1")
    assert json.loads(out)["tau"] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-10)

    code, out = run_cli(capsys, "tau", "--problem", problem, "--x", "0", "0")
    payload = json.loads(out)
    assert payload["tau"] == 0.0
    assert "note" in payload


def test_tau_of_a_point_past_the_float_range(tmp_path, capsys):
    # x1^2 + x2^2 overflows at (1e200, 1e200); tau = 1e200 * tau((1, 1))
    problem = write_problem(tmp_path)
    code, out = run_cli(capsys, "tau", "--problem", problem, "--x", "1e200", "1e200")
    assert code == 0
    assert json.loads(out)["tau"] == pytest.approx(1e200, rel=1e-15)


def test_tau_exit_codes(tmp_path, capsys):
    hyper = write_problem(tmp_path, "hyper.json", P=HYPERBOLA_TEXT)
    code, out = run_cli(capsys, "tau", "--problem", hyper, "--x", "0", "1")
    assert code == 3
    assert json.loads(out)["error"] == "no_positive_root"

    annulus = write_problem(tmp_path, "annulus.json", P=ANNULUS_TEXT)
    code, out = run_cli(capsys, "tau", "--problem", annulus, "--x", "1", "0")
    assert code == 4
    payload = json.loads(out)
    assert payload["error"] == "multiple_positive_roots"
    assert payload["roots"] == pytest.approx([0.5, 1.0], abs=1e-9)


def test_tau_on_a_small_annulus_is_multiple_roots(tmp_path, capsys):
    # the annulus shrunk 1000x: its crossings at radii 1e-3 and 2e-3 are
    # two roots 500 apart in the scale variable, not one
    annulus = write_problem(tmp_path, P="-(x1^2+x2^2-1e-6)*(x1^2+x2^2-4e-6)")
    code, out = run_cli(capsys, "tau", "--problem", annulus, "--x", "1", "0")
    assert code == 4
    payload = json.loads(out)
    assert payload["error"] == "multiple_positive_roots"
    assert payload["roots"] == pytest.approx([500.0, 1000.0], rel=1e-9)


def test_parse_error_exit_code(tmp_path, capsys):
    problem = write_problem(tmp_path, P="2x1 + 1")
    code, out = run_cli(capsys, "tau", "--problem", problem, "--x", "1", "0")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "parse"
    assert payload["offset"] == 1


def test_parse_budget_exit_code(tmp_path, capsys):
    problem = write_problem(tmp_path, P="(x1+1)^3000 - x2")
    code, out = run_cli(capsys, "decompose", "--problem", problem)
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "parse"
    assert payload["offset"] == 6


def test_verify_all_pass(tmp_path, capsys):
    problem = write_problem(tmp_path, multiplier={
        "U1": "1", "U2": "1",
        "gram_negG": {"basis": [[1, 0], [0, 1], [0, 0]],
                      "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]},
    })
    code, out = run_cli(capsys, "verify", "--problem", problem)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    checks = payload["checks"]
    assert checks["containment"]["value_at_x0"] == -3.0
    assert checks["star_convexity"]["passed"]
    assert checks["invariance"]["passed"]
    assert checks["decrease"]["passed"]
    assert checks["multiplier"]["passed"]


def test_verify_unstable_field(tmp_path, capsys):
    problem = write_problem(tmp_path, field={"matrix": [[1, 0], [0, 1]]})
    code, out = run_cli(capsys, "verify", "--problem", problem)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks["star_convexity"]["passed"]
    assert not checks["invariance"]["passed"]
    assert not checks["decrease"]["passed"]


def test_verify_blocks_after_star_failure(tmp_path, capsys):
    problem = write_problem(tmp_path, P=ANNULUS_TEXT)
    code, out = run_cli(capsys, "verify", "--problem", problem)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert not checks["star_convexity"]["passed"]
    assert checks["invariance"]["status"] == "blocked"
    assert checks["decrease"]["status"] == "blocked"


def test_verify_blocks_when_origin_outside(tmp_path, capsys):
    problem = write_problem(tmp_path, P="x1^2 + x2^2 + 1")
    code, out = run_cli(capsys, "verify", "--problem", problem)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert not checks["origin_interior"]["passed"]
    assert checks["star_convexity"]["status"] == "blocked"


def test_contour_rows_and_scaling(tmp_path, capsys):
    problem = write_problem(tmp_path)
    code, out = run_cli(capsys, "contour", "--problem", problem,
                        "--levels", "0.25", "0.5", "1", "--n-theta", "360")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "level,theta,x1,x2"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert len(rows) == 1080
    disk = lambda x1, x2: (x1 - 1.0) ** 2 + (x2 + 1.0) ** 2 - 4.0
    by_level = {}
    for level, theta, x1, x2 in rows:
        assert abs(disk(x1 / level, x2 / level)) <= 1e-9
        by_level.setdefault(level, []).append((theta, x1, x2))
    for theta, x1, x2 in by_level[1.0]:
        assert abs(math.hypot(x1 - 1.0, x2 + 1.0) - 2.0) <= 1e-9
    for level in (0.25, 0.5):
        for (t1, a1, a2), (t2, b1, b2) in zip(by_level[level], by_level[1.0]):
            assert t1 == t2
            assert a1 == level * b1 and a2 == level * b2  # exact scaling
    thetas = [t for t, _, _ in by_level[1.0]]
    assert thetas == sorted(thetas)


def test_contour_small_and_wrong_dimension(tmp_path, capsys):
    problem = write_problem(tmp_path)
    code, out = run_cli(capsys, "contour", "--problem", problem,
                        "--levels", "1", "--n-theta", "4")
    assert code == 0
    assert len(out.strip().split("\n")) == 5

    threed = write_problem(tmp_path, "threed.json", nvars=3,
                           P="x1^2 + x2^2 + x3^2 - 1", field=None)
    data = json.loads(open(threed).read())
    del data["field"], data["x0"]
    open(threed, "w").write(json.dumps(data))
    code, _ = run_cli(capsys, "contour", "--problem", threed, "--levels", "1")
    assert code == 5


def test_simulate(tmp_path, capsys):
    problem = write_problem(tmp_path, x0=[3, 2])
    code, out = run_cli(capsys, "simulate", "--problem", problem, "--h", "0.001", "--T", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,x1,x2,tau,tau_dot"
    assert len(lines) == 1002
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    tau0 = rows[0][3]
    for t, x1, x2, tau, tau_dot in rows[::100]:
        assert abs(tau / tau0 - math.exp(-t)) <= 1e-6
        assert abs(tau_dot + tau) <= 1e-9  # linear contraction: tau_dot = -tau


def test_simulate_past_the_float_range_is_a_json_error(tmp_path, capsys):
    # tau at x0 is about 1e200 and the cubic field's tau_dot about 1e600
    problem = write_problem(
        tmp_path, P="(x1^2+x2^2)^3 - x1^5 + x2^3*x1 - 1 + x1", x0=[1e200, 1e200],
        field={"components": ["(x1^2+x2^2)*(-1.0*x1 + 0.5*x2)", "(x1^2+x2^2)*(-0.5*x1 + -1.0*x2)"]})
    code, out = run_cli(capsys, "simulate", "--problem", problem, "--T", "0")
    assert code == 1
    assert json.loads(out)["error"] == "DecayRateOverflowError"


def test_simulate_zero_field_constant_tau(tmp_path, capsys):
    problem = write_problem(tmp_path, field={"matrix": [[0, 0], [0, 0]]}, x0=[2, 1])
    code, out = run_cli(capsys, "simulate", "--problem", problem, "--h", "0.1", "--T", "0.5")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    taus = {row.split(",")[3] for row in rows}
    assert len(taus) == 1


def test_simulate_single_row_horizon_zero(tmp_path, capsys):
    problem = write_problem(tmp_path)
    code, out = run_cli(capsys, "simulate", "--problem", problem, "--T", "0")
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_verify_and_simulate_do_not_depend_on_units(tmp_path, capsys):
    # disk in units of 1e31: the same verdicts, states scaled by 1e31, the same tau
    options = {"seed": 11, "ray_samples": 128, "n_dirs": 256, "h": 1e-3, "T": 0.5}
    unit = write_problem(tmp_path, "unit.json", options=options)
    large = write_problem(tmp_path, "large.json", P="(x1*1e-31 - 1)^2 + (x2*1e-31 + 1)^2 - 4",
                          x0=[1e31, 0], options=options)
    (code1, out1), (code2, out2) = (run_cli(capsys, "verify", "--problem", p) for p in (unit, large))
    verdicts1, verdicts2 = ({name: check["passed"] for name, check in json.loads(out)["checks"].items()}
                            for out in (out1, out2))
    assert code1 == code2 == 0 and verdicts1 == verdicts2
    (code1, out1), (code2, out2) = (run_cli(capsys, "simulate", "--problem", p) for p in (unit, large))
    rows1, rows2 = ([[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
                    for out in (out1, out2))
    assert code1 == code2 == 0 and len(rows1) == len(rows2) == 501
    for (t1, a1, b1, tau1, _), (t2, a2, b2, tau2, _) in zip(rows1, rows2):
        assert t1 == t2 and tau2 == pytest.approx(tau1, rel=1e-13)
        assert [a2, b2] == pytest.approx([1e31 * a1, 1e31 * b1], rel=1e-14)


def test_verify_starts_scale_with_the_set(tmp_path, capsys):
    # x' = -|x|^2 x / rho^2 in the disk of radius rho: one system in three
    # units of length.  The starts sit at fixed tau levels, so they scale by
    # rho, and decrease passes in every unit.
    starts = {}
    for rho in (1e-2, 1.0, 1e2):
        c = rho ** -2
        problem = write_problem(
            tmp_path, P=f"x1^2 + x2^2 - {rho * rho!r}", x0=None,
            field={"components": [f"-{c!r}*(x1^2+x2^2)*x1", f"-{c!r}*(x1^2+x2^2)*x2"]})
        code, out = run_cli(capsys, "verify", "--problem", problem)
        decrease = json.loads(out)["checks"]["decrease"]
        assert code == 0 and decrease["passed"], (rho, decrease)
        starts[rho] = decrease["starts"]
    for rho in (1e-2, 1e2):
        for got, unit in zip(starts[rho], starts[1.0], strict=True):
            assert got == pytest.approx([rho * v for v in unit], rel=1e-14, abs=1e-14 * rho)


def test_verify_reports_an_invariance_error_as_a_failed_check(tmp_path, capsys):
    # Rays near the x1-axis cross this boundary three times.  The one star
    # ray misses them, so invariance meets one and raises; the error fails
    # invariance alone, and decrease still runs.
    problem = write_problem(tmp_path, P="x1^2 + x2^2 - 1 - 3*x2^2*(x1^2 + x2^2)",
                            options={"seed": 11, "ray_samples": 1, "n_dirs": 256, "h": 1e-3, "T": 0.5})
    code, out = run_cli(capsys, "verify", "--problem", problem)
    checks = json.loads(out)["checks"]
    assert code == 1
    assert checks["star_convexity"]["passed"] and checks["decrease"]["passed"]
    assert set(checks["invariance"]) == {"passed", "error"} and not checks["invariance"]["passed"]
    assert checks["invariance"]["error"].startswith("multiple positive roots")


def test_verify_sextic_without_x0_passes_decrease(tmp_path, capsys):
    # tau falls at every step from all 8 random starts, and its third
    # derivative is large there: the slope passes within a tolerance taken
    # from tau's third differences
    problem = write_problem(
        tmp_path, P="(x1^2+x2^2)^3 - x1^5 + x2^3*x1 - 1 + x1", x0=None,
        field={"components": ["(x1^2+x2^2)*(-1.0*x1 + 0.5*x2)", "(x1^2+x2^2)*(-0.5*x1 + -1.0*x2)"]},
        options={"seed": 1, "ray_samples": 256, "n_dirs": 256, "h": 1e-3, "T": 2.0})
    code, out = run_cli(capsys, "verify", "--problem", problem)
    decrease = json.loads(out)["checks"]["decrease"]
    assert len(decrease["starts"]) == 8
    assert decrease["passed"] and "details" not in decrease
    assert code == 0


def test_simulate_divergence_trailer(tmp_path, capsys):
    problem = write_problem(tmp_path, field={"components": ["x1^3", "x2^3"]}, x0=[10, 10])
    code, out = run_cli(capsys, "simulate", "--problem", problem, "--h", "0.01", "--T", "1")
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("# diverged")


def test_outputs_byte_identical(tmp_path, capsys):
    problem = write_problem(tmp_path)
    outputs = []
    for run in range(2):
        code, out = run_cli(capsys, "contour", "--problem", problem,
                            "--levels", "0.5", "1", "--n-theta", "64")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    reports = []
    for run in range(2):
        code, out = run_cli(capsys, "verify", "--problem", problem)
        reports.append(out)
    assert reports[0] == reports[1]


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    problem = write_problem(tmp_path)
    monkeypatch.setenv("ALGLY_SEED", "777")
    code, out = run_cli(capsys, "verify", "--problem", problem)
    assert json.loads(out)["seed"] == 777
    monkeypatch.delenv("ALGLY_SEED")
    code, out = run_cli(capsys, "verify", "--problem", problem)
    assert json.loads(out)["seed"] == 11


@pytest.mark.parametrize("seed_flag, env, options_seed, source", [
    pytest.param("-1", None, 11, "--seed", id="flag-negative"),
    pytest.param(None, "-1", 11, "ALGLY_SEED", id="env-negative"),
    pytest.param(None, "1.5", 11, "ALGLY_SEED", id="env-not-integer"),
    pytest.param(None, None, -1, "options.seed", id="options-negative"),
    pytest.param(None, None, 1.5, "options.seed", id="options-float"),
    pytest.param(None, None, "3", "options.seed", id="options-string"),
])
def test_bad_seed_is_usage_error(tmp_path, capsys, monkeypatch, seed_flag, env, options_seed, source):
    # a 3D problem without x0: verify would draw Gaussian directions and
    # random starts; a negative seed is refused because random.Random(-n)
    # draws the same stream as Random(n)
    problem = write_problem(tmp_path, nvars=3, P="x1^2 + x2^2 + x3^2 - 1",
                            field={"matrix": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]}, x0=None,
                            options={"seed": options_seed, "n_dirs": 64, "T": 0.1})
    if env is None:
        monkeypatch.delenv("ALGLY_SEED", raising=False)
    else:
        monkeypatch.setenv("ALGLY_SEED", env)
    argv = ["verify", "--problem", problem] + (["--seed", seed_flag] if seed_flag else [])
    code, out = run_cli(capsys, *argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "usage"
    assert payload["message"].startswith(source + " must be a non-negative integer")


def test_cert_command_gram(tmp_path, capsys):
    problem = write_problem(tmp_path)
    cert = tmp_path / "gram.json"
    cert.write_text(json.dumps({
        "basis": [[1, 0], [0, 1], [0, 0]],
        "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
        "target": "x1^2 + x2^2 + 2",
    }))
    code, out = run_cli(capsys, "cert", "--problem", problem, "--cert", str(cert))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "gram" and payload["passed"]

    bad = tmp_path / "bad_gram.json"
    bad.write_text(json.dumps({
        "basis": [[1, 0], [0, 1]],
        "Q": [[0, 1], [1, 0]],
        "target": "2*x1*x2",
    }))
    code, out = run_cli(capsys, "cert", "--problem", problem, "--cert", str(bad))
    assert code == 1
    assert not json.loads(out)["passed"]


@pytest.mark.parametrize("cert", [
    pytest.param({"basis": [[0, 0]], "Q": [[0]], "target": "-5e-11"},
                 id="constant-under-the-old-identity-tolerance"),
    pytest.param({"basis": [[1, 0], [0, 1]], "Q": [[1, 0], [0, -1e-10]], "target": "x1^2 - 1e-10*x2^2"},
                 id="eigenvalue-in-the-old-marginal-band"),
    pytest.param({"basis": [[1, 0], [0, 1]], "Q": [[1e-6, 0], [0, -1e-16]],
                  "target": "1e-6*x1^2 - 1e-16*x2^2"}, id="rescaled-twin"),
])
def test_cert_command_fails_gram_certificates_of_non_sos_targets(tmp_path, capsys, cert):
    problem = write_problem(tmp_path)
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(cert))
    code, out = run_cli(capsys, "cert", "--problem", problem, "--cert", str(path))
    assert code == 1
    payload = json.loads(out)
    assert not payload["passed"] and payload["coeff_ok"] and not payload["psd_ok"]
    assert payload["psd_failed_at"] == len(cert["basis"]) - 1


@pytest.mark.parametrize("scale", [1, 1000])
def test_cert_multiplier_verdict_does_not_depend_on_units(tmp_path, capsys, scale):
    # the disk of radius 2 about (1, -1), in units where it has radius 2 * scale,
    # under the expanding field x' = x: G = U1 * grad(P).x + U2 * P is positive
    # far out on every ray
    P = f"(x1-{scale})^2 + (x2+{scale})^2 - {4 * scale ** 2}"
    problem = write_problem(tmp_path, P=P, field={"matrix": [[1, 0], [0, 1]]})
    cert = tmp_path / "mult.json"
    cert.write_text(json.dumps({"U1": "1", "U2": "1"}))
    code, out = run_cli(capsys, "cert", "--problem", problem, "--cert", str(cert))
    assert code == 1
    payload = json.loads(out)
    assert not payload["passed"] and payload["worst_margin"] > 0.0
    assert payload["n_samples"] == 256 and payload["notes"]["evidence"] == "sampled rays, all radii"


def test_cert_command_multiplier(tmp_path, capsys):
    problem = write_problem(tmp_path)
    cert = tmp_path / "mult.json"
    cert.write_text(json.dumps({
        "U1": "1", "U2": "1",
        "gram_negG": {"basis": [[1, 0], [0, 1], [0, 0]],
                      "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]},
    }))
    code, out = run_cli(capsys, "cert", "--problem", problem, "--cert", str(cert))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "multiplier" and payload["passed"]


_GRAM_NO_Q = {"basis": [[1, 0], [0, 1], [0, 0]]}
_REPEATED_NEG_G = {"U1": "1", "U2": "1",
                   "gram_negG": {"basis": [[1, 0], [1, 0], [0, 0]],
                                 "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]}}
_WRONG_SHAPE_U1 = {"U1": "1", "U2": "1", "gram_U1": {"basis": [[0, 0]], "Q": [[1, 0]]}}


@pytest.mark.parametrize("command, cert", [
    pytest.param("cert", {"basis": [[1, 0]], "Q": [[1]]}, id="cert-gram-no-target"),
    pytest.param("cert", {"basis": [[1, 0], [1, 0]], "Q": [[1, 0], [0, 1]], "target": "2*x1^2"},
                 id="cert-gram-repeated-basis"),
    pytest.param("cert", {"basis": 5, "Q": [[1]], "target": "1"}, id="cert-gram-basis-not-a-list"),
    pytest.param("cert", {"U1": "1", "U2": "1", "gram_negG": _GRAM_NO_Q}, id="cert-multiplier-no-Q"),
    pytest.param("verify", {"U1": "1", "U2": "1", "gram_negG": _GRAM_NO_Q}, id="verify-multiplier-no-Q"),
    pytest.param("cert", {"basis": [[1, 0]], "Q": [[1, 0], [0, 1]], "target": "x1^2"},
                 id="cert-gram-Q-wrong-shape"),
    pytest.param("cert", _REPEATED_NEG_G, id="cert-multiplier-repeated-basis"),
    pytest.param("verify", _REPEATED_NEG_G, id="verify-multiplier-repeated-basis"),
    pytest.param("cert", _WRONG_SHAPE_U1, id="cert-multiplier-Q-wrong-shape"),
    pytest.param("verify", _WRONG_SHAPE_U1, id="verify-multiplier-Q-wrong-shape"),
    pytest.param("cert", {"basis": [[math.inf, 0]], "Q": [[1]], "target": "x1^2"},
                 id="cert-gram-basis-infinite"),
    pytest.param("cert", {"basis": [[1, 0]], "Q": [[math.nan]], "target": "x1^2"}, id="cert-gram-Q-nan"),
    pytest.param("cert", {"basis": [[1, 0]], "Q": [["1"]], "target": "x1^2"}, id="cert-gram-Q-string"),
    pytest.param("cert", {"basis": [[1, 0], [0, 1]], "Q": [[1, 0], [0]], "target": "x1^2"},
                 id="cert-gram-Q-ragged"),
    pytest.param("cert", {"basis": [], "Q": [], "target": "x1^2"}, id="cert-gram-basis-empty"),
])
def test_malformed_certificate_is_usage_error(tmp_path, capsys, monkeypatch, command, cert):
    # the certificate of `cert` is its own file; that of `verify` is the
    # problem's multiplier entry.  A malformed multiplier is refused before
    # its sampling loop builds the family of G and U1.
    def no_sampling(*args):
        raise AssertionError("multiplier sampling started")

    monkeypatch.setattr("algly.certs.PolyFamily", no_sampling)
    if command == "cert":
        problem = write_problem(tmp_path)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        argv = ["--cert", str(path)]
    else:
        problem = write_problem(tmp_path, multiplier=cert)
        argv = []
    code, out = run_cli(capsys, command, "--problem", problem, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "usage"


def test_missing_field_is_usage_error(tmp_path, capsys):
    problem = write_problem(tmp_path)
    data = json.loads(open(problem).read())
    del data["field"]
    open(problem, "w").write(json.dumps(data))
    code, out = run_cli(capsys, "verify", "--problem", problem)
    assert code == 2
    assert json.loads(out)["error"] == "usage"


@pytest.mark.parametrize("overrides, argv", [
    pytest.param({"nvars": "two"}, ["tau", "--x", "1", "0"], id="nvars-string"),
    pytest.param({"nvars": 10 ** 400, "P": "-1 + x1^2 + x2^2"}, ["tau", "--x", "1", "0"], id="nvars-huge"),
    pytest.param({"field": 5}, ["tau", "--x", "1", "0"], id="field-number"),
    pytest.param({"field": {"matrix": 5}}, ["tau", "--x", "1", "0"], id="matrix-number"),
    pytest.param({"field": {"components": "-x1"}}, ["verify"], id="components-text"),
    pytest.param({"P": 5}, ["tau", "--x", "1", "0"], id="P-number"),
    pytest.param({"x0": ["1", "zero"]}, ["simulate"], id="x0-strings"),
    pytest.param({"x0": [math.nan, 0]}, ["simulate"], id="x0-nan"),
    pytest.param({"options": {"n_dirs": 0}}, ["verify"], id="n_dirs-zero"),
    pytest.param({}, ["tau", "--x", "nan", "0"], id="x-nan"),
    pytest.param({}, ["tau", "--x", "inf", "0"], id="x-inf"),
])
def test_malformed_input_is_usage_error(tmp_path, capsys, overrides, argv):
    problem = write_problem(tmp_path, **overrides)
    code, out = run_cli(capsys, argv[0], "--problem", problem, *argv[1:])
    assert code == 2
    assert json.loads(out)["error"] == "usage"


@pytest.mark.parametrize("components", [
    pytest.param(["x1", "x2^2"], id="mixed-degrees"),
    pytest.param(["1", "x2"], id="degree-0"),
])
@pytest.mark.parametrize("argv", [
    pytest.param(["tau", "--x", "1", "0"], id="tau"),
    pytest.param(["verify"], id="verify"),
])
def test_field_that_is_not_homogeneous_is_usage_error(tmp_path, capsys, components, argv):
    # a malformed field is a usage error (exit 2), not a failed check
    # (exit 1), even for tau, which never reads the field
    problem = write_problem(tmp_path, field={"components": components})
    code, out = run_cli(capsys, argv[0], "--problem", problem, *argv[1:])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "usage" and payload["message"].startswith("field: ")


def test_gram_basis_exponent_that_is_not_an_integer_is_usage_error(tmp_path, capsys):
    # 1.5 was truncated to 1, and x1^2 + x2^2 then passed with Q = I
    problem = write_problem(tmp_path)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"basis": [[1.5, 0], [0, 1]], "Q": [[1, 0], [0, 1]],
                                "target": "x1^2 + x2^2"}))
    code, out = run_cli(capsys, "cert", "--problem", problem, "--cert", str(cert))
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "usage" and "integers" in payload["message"]


@pytest.mark.parametrize("options, argv, source", [
    pytest.param({}, ["verify", "--n-dirs", "0"], "--n-dirs", id="verify-n-dirs-zero"),
    pytest.param({}, ["verify", "--h", "0"], "--h", id="verify-h-zero"),
    pytest.param({}, ["verify", "--T", "-1"], "--T", id="verify-T-negative"),
    pytest.param({}, ["verify", "--min-margin", "nan"], "--min-margin", id="verify-min-margin-nan"),
    pytest.param({"h": 0}, ["verify"], "options.h", id="verify-options-h-zero"),
    pytest.param({}, ["simulate", "--h", "0"], "--h", id="simulate-h-zero"),
    pytest.param({}, ["simulate", "--h", "nan"], "--h", id="simulate-h-nan"),
    pytest.param({}, ["simulate", "--h", "-0.001"], "--h", id="simulate-h-negative"),
    pytest.param({}, ["simulate", "--T", "-1"], "--T", id="simulate-T-negative"),
    pytest.param({}, ["simulate", "--T", "inf"], "--T", id="simulate-T-inf"),
    pytest.param({"h": 0}, ["simulate"], "options.h", id="simulate-options-h-zero"),
    pytest.param({"T": -1}, ["simulate"], "options.T", id="simulate-options-T-negative"),
    pytest.param({}, ["contour", "--n-theta", "0"], "--n-theta", id="contour-n-theta-zero"),
    pytest.param({}, ["contour", "--levels", "1", "inf"], "--levels", id="contour-levels-inf"),
    pytest.param({"levels": []}, ["contour"], "options.levels", id="contour-options-levels-empty"),
    pytest.param({"levels": ["1"]}, ["contour"], "options.levels", id="contour-options-levels-string"),
    # every option the file gives is checked at load, whatever the subcommand
    pytest.param({"h": 0}, ["tau", "--x", "1", "0"], "options.h", id="tau-options-h-zero"),
    pytest.param({"h": 0}, ["decompose"], "options.h", id="decompose-options-h-zero"),
    pytest.param({"T": -1}, ["contour"], "options.T", id="contour-options-T-negative"),
    pytest.param({"levels": []}, ["verify"], "options.levels", id="verify-options-levels-empty"),
    pytest.param({"n_theta": 10 ** 7}, ["tau", "--x", "1", "0"], "options.n_theta",
                 id="tau-options-n_theta-past-the-cap"),
    # T/h past the step budget is refused before any step runs
    pytest.param({}, ["simulate", "--h", "1e-300", "--T", "1"], "--T / --h", id="simulate-h-tiny"),
    pytest.param({}, ["simulate", "--h", "1e-7", "--T", "1000"], "--T / --h", id="simulate-steps-1e10"),
    pytest.param({}, ["verify", "--h", "1e-7"], "options.T / --h", id="verify-steps-5e6"),
    pytest.param({"h": 1e-7, "T": 1000}, ["simulate"], "options.T / options.h", id="simulate-options-steps"),
])
def test_bad_run_setting_is_usage_error(tmp_path, capsys, options, argv, source):
    problem = write_problem(tmp_path, options={"seed": 11, "n_dirs": 256, "T": 0.5, **options})
    code, out = run_cli(capsys, argv[0], "--problem", problem, *argv[1:])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "usage"
    assert payload["message"].startswith(source + " must be")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_loads_every_traced_module_but_not_numpy():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {owner.partition(":")[0] for _, owner, _, _ in tracer.TARGETS}
    proc = _python("import json, sys, algly.cli; print(json.dumps(sorted(sys.modules)))")
    loaded = set(json.loads(proc.stdout))
    assert traced <= loaded
    assert "numpy" not in loaded


def test_no_subcommand_loads_numpy(tmp_path):
    disk = str(ROOT / "problems" / "disk.json")
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"basis": [[1, 0], [0, 1], [0, 0]],
                                "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
                                "target": "x1^2 + x2^2 + 2"}))
    multiplier = tmp_path / "multiplier.json"
    multiplier.write_text(json.dumps(json.loads((ROOT / "problems" / "disk.json").read_text())["multiplier"]))
    # 4D without x0: Gaussian rays for every sampled check, and random starts
    ball = write_problem(tmp_path, "ball4d.json", nvars=4, P="x1^2 + x2^2 + x3^2 + x4^2 - 1",
                         field={"matrix": [[-1 if i == j else 0 for j in range(4)] for i in range(4)]},
                         x0=None, options={"seed": 3, "ray_samples": 64, "n_dirs": 64, "T": 0.05})
    multiplier4d = tmp_path / "multiplier4d.json"
    multiplier4d.write_text(json.dumps({"U1": "1", "U2": "1"}))
    runs = [
        (disk, ["decompose"]),
        (disk, ["tau", "--x", "1", "1"]),
        (disk, ["contour", "--n-theta", "32"]),
        (disk, ["simulate", "--T", "0.05"]),
        (disk, ["cert", "--cert", str(gram)]),
        (disk, ["cert", "--cert", str(multiplier)]),
        (disk, ["verify", "--T", "0.05"]),
        (ball, ["verify"]),
        (ball, ["cert", "--cert", str(multiplier4d)]),
    ]
    argvs = [[cmd, "--problem", problem, "--out", str(tmp_path / f"{k}.out"), *rest]
             for k, (problem, [cmd, *rest]) in enumerate(runs)]
    code = (
        "import json, sys\n"
        "from algly import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
    )
    codes, numpy_loaded = json.loads(_python(code, json.dumps(argvs)).stdout)
    assert codes == [0] * len(runs)
    assert not numpy_loaded


def test_module_entry_point(tmp_path):
    problem = write_problem(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "algly", "tau", "--problem", problem, "--x", "1", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tau"] == pytest.approx(1.0, abs=1e-12)


# sha256 of the stdout of `python -m algly simulate --problem
# problems/disk.json`, recorded before the root solver's inner loops became
# compiled kernels.  The output contract is byte for byte, across versions
# too.  This path is float arithmetic alone (RK4 steps, Horner passes,
# Newton steps), so the digest does not depend on the platform's libm.
_DISK_SIMULATE_SHA256 = "99059b825315796f979407a7f6244db5dccd55c57fb23ac6fdfa4ae6c7c7aa78"


def test_disk_simulate_output_is_byte_identical_across_versions():
    proc = subprocess.run(
        [sys.executable, "-m", "algly", "simulate", "--problem", str(ROOT / "problems" / "disk.json")],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == _DISK_SIMULATE_SHA256


_GRAM_BASIS = [[1, 0], [0, 1], [0, 0]]
_GRAM_Q = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]


# sha256 of the stdout of `contour` and `cert` on problems/disk.json,
# recorded before `cert` built its JSON from the report dataclasses and
# `contour` took its directions from sample_directions.  Both take the
# directions from libm's cos and sin.
@pytest.mark.parametrize("argv, cert, code, digest", [
    (["contour"], None, 0, "9eb7598391226847a5c6902b3ad45a4d6bab0855e452a6deaec071ce4b3dea4a"),
    (["cert"], {"basis": _GRAM_BASIS, "Q": _GRAM_Q, "target": "x1^2 + x2^2 + 2"}, 0,
     "b8ab0033fefbe8fd4a0c5cd98b25828b7c9efb43788e980479e296cfbe94115f"),
    (["cert"], {"basis": _GRAM_BASIS, "Q": _GRAM_Q, "target": "x1^2 + 3*x2^2 + 2 + x1^3"}, 1,
     "21375a1c5436ea8c501adf18fce8ac3e591441be9655f44230ce3a033ace47f3"),
    (["cert"], "multiplier", 0, "e7937d7e5e424a32a5e8d2569d32142e333921a2edd3392bde016a8a754740b3"),
], ids=["contour", "cert-gram", "cert-gram-mismatch", "cert-multiplier"])
def test_disk_contour_and_cert_outputs_are_byte_identical_across_versions(tmp_path, argv, cert, code, digest):
    disk = ROOT / "problems" / "disk.json"
    if cert is not None:
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(json.loads(disk.read_text())["multiplier"] if cert == "multiplier" else cert))
        argv = [*argv, "--cert", str(cert_path)]
    proc = subprocess.run([sys.executable, "-m", "algly", *argv, "--problem", str(disk)], capture_output=True)
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# -- fuzzing the files the CLI reads ----------------------------------------

_FUZZ_PROBLEM = {
    "nvars": 2,
    "P": DISK_TEXT,
    "field": {"matrix": [[-1, 0], [0, -1]]},
    "x0": [1, 0],
    "multiplier": {"U1": "1", "U2": "1",
                   "gram_negG": {"basis": [[1, 0], [0, 1], [0, 0]],
                                 "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 2]]}},
    "options": {"seed": 3, "ray_samples": 16, "n_dirs": 16, "n_theta": 8,
                "levels": [0.5, 1], "h": 0.01, "T": 0.05},
}
_FUZZ_CERTS = (
    {"basis": [[1, 0], [0, 1], [0, 0]], "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
     "target": "x1^2 + x2^2 + 2"},
    _FUZZ_PROBLEM["multiplier"],
)
_FUZZ_COMMANDS = (["decompose"], ["tau", "--x", "0.5", "-0.5"], ["verify"], ["contour"],
                  ["simulate"], ["cert"])
# strings, huge numbers, lists, dicts, negatives and literals that overflow;
# no value here is a count, step or horizon that asks for a long run
_JUNK = st.one_of(
    st.sampled_from([
        "", "x1", "-x2", "x1^2+x2^2-1", "1e309", "1e309*x1^2+x2^2-1", "1e200*x1^2*1e200",
        "x1^", "(x1", "x3", ANNULUS_TEXT, HYPERBOLA_TEXT, "x1^2+x2^2+1", "x1^3*x2", "0", "-1",
        None, True, False, 0, 1, 3, -1, -7, 0.0, -0.5, 10 ** 400,
        -10 ** 400, 2 ** 63, 1e308, -1e308, math.inf, -math.inf, math.nan, [], {}, [1, "a"],
        [[1e309, 0], [0, 1]], [["a", 0], [0, -1]], [1.0, 2.0, 3.0], {"matrix": 5},
        {"components": ["x1", 5]}, {"a": 1}, [[0, 0]], [[1]],
    ]),
    st.text(max_size=6),
)


def _paths(node, prefix=()):
    """Every path to a value inside a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated(draw, document):
    """A deep copy of `document` with 1-3 values replaced by junk or deleted."""
    document = json.loads(json.dumps(document))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(document))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        owner = document
        for step in parents:
            owner = owner[step]
        if isinstance(owner, dict) and draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = copy.deepcopy(draw(_JUNK))
    return document


@st.composite
def _fuzz_case(draw):
    command = draw(st.sampled_from(_FUZZ_COMMANDS))
    cert = draw(st.sampled_from(_FUZZ_CERTS))
    if command[0] == "cert" and draw(st.booleans()):
        return command, _FUZZ_PROBLEM, draw(_mutated(cert))
    return command, draw(_mutated(_FUZZ_PROBLEM)), cert


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(_fuzz_case())
def test_fuzzed_files_get_an_exit_code_and_a_report(fuzz_dir, case):
    command, problem, cert = case
    (fuzz_dir / "problem.json").write_text(json.dumps(problem))
    (fuzz_dir / "cert.json").write_text(json.dumps(cert))
    argv = [*command, "--problem", str(fuzz_dir / "problem.json")]
    if command[0] == "cert":
        argv += ["--cert", str(fuzz_dir / "cert.json")]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("ALGLY_SEED", None)
        code = cli.main(argv)
    assert time.perf_counter() - t0 < 10.0
    assert code in range(6)
    if code == cli.EXIT_DIMENSION:
        assert command[0] == "contour" and err.getvalue() == "contour emission is 2D-only\n"
    elif code != cli.EXIT_OK:
        payload = json.loads(out.getvalue())
        # a failed check prints its report; every other failure an error
        failed_check = code == cli.EXIT_CHECK_FAILED and payload.get("passed") is False
        assert failed_check or "error" in payload, payload


_OVERFLOWING_P = ["1e309*x1^2+x2^2-1", "1e200*x1^2*1e200+x2^2-1"]


@pytest.mark.parametrize("command, overrides, cert", [
    pytest.param("verify", {"field": {"components": [1, "-x2"]}}, None, id="component-not-text"),
    pytest.param("verify", {"multiplier": {"U1": 5, "U2": "1"}}, None, id="multiplier-U1-not-text"),
    pytest.param("cert", {}, {"basis": [[0, 0]], "Q": [[1]], "target": 5}, id="gram-target-not-text"),
    pytest.param("cert", {"field": {"matrix": [[1e308, 0], [0, -1]]}}, {"U1": "1", "U2": "1"},
                 id="multiplier-combination-overflows"),
    # G = 1.7e308 * (x1^2 + x1*x2 + x2^2 - 1) is finite, its part of degree 2
    # at the direction (1, 1)/sqrt(2) is 1.5 * 1.7e308
    pytest.param("cert", {"P": "x1^2 + x1*x2 + x2^2 - 1", "field": {"matrix": [[0, -1], [1, 0]]}},
                 {"U1": "0", "U2": "1.7e308"}, id="multiplier-ray-coefficient-overflows"),
    *(pytest.param(command, {"P": text}, None, id=f"{command}-{text}")
      for text in _OVERFLOWING_P for command in ("tau", "verify", "contour", "simulate")),
    pytest.param("verify", {"field": {"matrix": [["a", 0], [0, -1]]}}, None, id="matrix-string-entry"),
    pytest.param("verify", {"field": {"matrix": [[-1e309, 0], [0, -1]]}}, None, id="matrix-infinite-entry"),
])
def test_outside_input_is_a_json_error_not_a_traceback(tmp_path, capsys, command, overrides, cert):
    problem = write_problem(tmp_path, **overrides)
    argv = ["--x", "1", "0"] if command == "tau" else []
    if cert is not None:
        (tmp_path / "cert.json").write_text(json.dumps(cert))
        argv = ["--cert", str(tmp_path / "cert.json")]
    code, out = run_cli(capsys, command, "--problem", problem, *argv)
    assert code == 2
    assert json.loads(out)["error"] in ("parse", "usage")


def test_verify_does_not_depend_on_the_scale_of_P(tmp_path, capsys):
    # at 1e-12 the boundary gradient is far below 1 in absolute terms
    problem = write_problem(tmp_path, P=f"1e-12*({DISK_TEXT})")
    code, out = run_cli(capsys, "verify", "--problem", problem)
    assert code == 0, out


def test_verify_from_the_origin_fails_decrease_without_a_traceback(tmp_path, capsys):
    # the origin is an equilibrium: tau stays 0 there, so it does not
    # decrease, and tau_dot, undefined there, is not evaluated
    problem = write_problem(tmp_path, x0=[0, 0], options={"h": 0.01, "T": 0.05})
    code, out = run_cli(capsys, "verify", "--problem", problem)
    assert code == 1
    decrease = json.loads(out)["checks"]["decrease"]
    assert not decrease["passed"] and decrease["worst_margin"] == 0.0
