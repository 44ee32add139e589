"""Self-tests of the benchmark: metric names, layer list, oracle, reports.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import run
from layers import LAYERS, PER_LAYER_UNITS, layer_metrics, src_lines
from oracle import ProblemOracle, disk_tau, exact_positive_root_count
from workloads import WORKLOADS, query_points, write_problems

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Modules of src/algly that are not layers: package glue and exception types.
NON_LAYER_MODULES = {"__init__", "__main__", "errors"}
# Metrics that Bench.trace adds to what layer_metrics computes from the dumps.
TRACE_ONLY = {"cli.trace_overhead_s", "cli.verdict_errors", "cli.verdict_probes",
              "roots.count_errors", "roots.count_checked"}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_well_formed():
    for name in [*run.END_TO_END_UNITS, *PER_LAYER_UNITS, *WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_layers_are_the_modules_of_algly():
    modules = {f[:-3] for f in os.listdir(os.path.join(ROOT, "src", "algly")) if f.endswith(".py")}
    assert set(LAYERS) == modules - NON_LAYER_MODULES
    assert {name.split(".")[0] for name in PER_LAYER_UNITS} == set(LAYERS)
    assert set(src_lines(ROOT)) == {f"{layer}.src_lines" for layer in LAYERS}


def test_oracle_matches_tau_on_disk():
    from algly import HomogenizedLyapunov, parse
    text = "(x1-1)^2 + (x2+1)^2 - 4"
    L = HomogenizedLyapunov(parse(text, 2))
    oracle = ProblemOracle(2, text, {"matrix": [[-1, 0], [0, -1]]})
    points = query_points(2, 0, 10_000)
    for x in points:
        want = disk_tau(*x)
        assert abs(L.tau(x) - want) <= run.TAU_RTOL * want
    for x in points[:200]:
        assert oracle.scale_roots(x) == pytest.approx([disk_tau(*x)], rel=run.TAU_RTOL)


def test_exact_root_count():
    assert exact_positive_root_count([-1.0, 0.0, 1.0]) == 1            # t^2 - 1
    assert exact_positive_root_count([1.0, -2.0, 1.0]) == 1            # (t - 1)^2, one distinct root
    assert exact_positive_root_count([0.0, -1.0, 0.0, 1.0]) == 1       # t^3 - t: 0 is not positive
    assert exact_positive_root_count([4.0, 0.0, -5.0, 0.0, 1.0]) == 2  # (t^2 - 1)(t^2 - 4)


def test_end_to_end_report_lists_every_metric(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "QUERY_POINTS", 20)
    monkeypatch.setattr(run, "MIN_SAMPLES", dict.fromkeys(run.MIN_SAMPLES, 1))
    assert run.main(["--workload", "annulus", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    for name, unit in run.END_TO_END_UNITS.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0.0
        assert any(re.fullmatch(rf"annulus +{re.escape(name)} +\S+ {unit} +n=[1-9]\d*", line)
                   for line in lines), name


def test_traced_calls_give_every_layer_metric(tmp_path):
    problem = json.load(open(os.path.join(ROOT, "problems", "disk.json")))
    problem["options"].update({"ray_samples": 16, "n_dirs": 16, "T": 0.01})
    path = tmp_path / "small.json"
    path.write_text(json.dumps(problem))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    dumps = []
    for command in ("verify", "simulate"):
        dump = tmp_path / f"{command}.json"
        out = subprocess.run([sys.executable, os.path.join(HERE, "tracer.py"), str(dump), command,
                              "--problem", str(path)], env=env, capture_output=True, timeout=60)
        assert out.returncode == 0, out.stderr
        plain = subprocess.run([sys.executable, "-m", "algly", command, "--problem", str(path)],
                               env=env, capture_output=True, timeout=60)
        assert out.stdout == plain.stdout
        dumps.append(json.loads(dump.read_text()))
    metrics = layer_metrics(*dumps)
    assert set(metrics) | TRACE_ONLY | set(src_lines(ROOT)) == set(PER_LAYER_UNITS)
    # 16 star rays; 16 invariance + 1 + 11 decrease taus and 9 tau_dots in verify
    assert metrics["roots.solve_calls"] == 16 + 16 + 1 + 11 + 9
    assert metrics["alf.tau_calls"] == 16 + 1 + 11 + 9
    assert metrics["dynsys.rk4_steps"] == 20
    assert metrics["roots.one_sign_ratio"] == 1.0


def test_problem_files_follow_the_seed(tmp_path):
    for w in (w for w in WORKLOADS.values() if w.problem is not None):
        a = write_problems(w, 5, str(tmp_path), "a")
        b = write_problems(w, 5, str(tmp_path), "b")
        assert a.data == b.data and a.x0 == b.x0
        if "x0" not in w.problem:
            assert np.linalg.norm(a.x0) <= 0.6
