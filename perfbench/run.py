"""The algly benchmark: time to a verdict and per-point tau latency.

    python3 perfbench/run.py --workload disk --seed 1 --seconds 25 --trace 0

Run from the root of an algly checkout.  One client, closed loop: each
operation (a CLI subprocess or one in-process call) starts when the
previous one has finished; nothing runs in parallel.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: wall time of a fresh interpreter that imports algly, loads
  the problem and builds the Lyapunov function (median of several).
- ``verify_s`` / ``simulate_s``: wall time of ``python -m algly verify`` /
  ``simulate`` as a subprocess, import included (median of all runs).
- ``tau_query_us`` (median), ``tau_query_us.p99``: latency of one
  in-process ``L.tau(x)`` call on seeded scattered points;
  ``tau_dot_query_us``: median latency of ``L.tau_dot(f, x)`` on the same
  points.  Every query round calls every point once; a point's latency is the
  median of its calls, and the statistics are taken over points, so the
  p99 is the tail across inputs (20 of 2000 points lie beyond it), not
  the tail of the machine's own stalls.
- ``peak_rss_mb``: peak resident memory of the verify subprocess (median).

Set-up interpreters, verify and simulate subprocesses and query rounds (a
tau block, then a tau_dot block) are interleaved until ``--seconds`` have
passed, each kind taking its share of the run (TIME_SHARE).  Every output
is checked: exit codes and per-check verdicts, tau / tau_dot against the
oracle in oracle.py, and byte-identical stdout across repetitions.  Each
check that fails counts one failed operation; ``fail_ratio`` = failed /
attempted.

``--trace 1`` makes one traced ``verify`` and one traced ``simulate``
(tracer.py), reports the per-layer metrics of layers.py, and runs the
untimed root-count audit and the verdict probes.  It does a fixed amount
of work and ignores ``--seconds``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# algly's BLAS calls are on matrices too small for a second thread.  An idle
# OpenBLAS pool still starts with every interpreter and competes with the one
# client for the cores; on a 2-vCPU VM it moved subprocess times by up to a
# quarter as the host's load changed.  So the benchmark and every program it
# starts keep BLAS to one thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the thread setting above)

from layers import PER_LAYER_UNITS, audit_probes, audit_solves, layer_metrics, src_lines
from oracle import ProblemOracle, disk_tau
from workloads import (
    AUDIT_PROBES,
    VERDICT_PROBES,
    WORKLOADS,
    query_points,
    wilkinson20,
    write_problems,
    write_verdict_probe,
)

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(".bench_build", "perfbench")

END_TO_END_UNITS = {
    "setup_s": "s",
    "verify_s": "s",
    "simulate_s": "s",
    "tau_query_us": "us",
    "tau_query_us.p99": "us",
    "tau_dot_query_us": "us",
    "peak_rss_mb": "MB",
}

QUERY_POINTS = 2000     # in-process tau / tau_dot calls per round, one per point
# Share of the run each kind of operation gets, interleaved: the next one
# is always the kind furthest behind its share, so every metric samples the
# whole run and a short operation (set-up, a reject-path simulate) gets many
# samples rather than one per round.
TIME_SHARE = {"setup": 0.5, "verify": 1.5, "simulate": 1.0, "queries": 0.5}
MIN_SAMPLES = {"setup": 7, "verify": 3, "simulate": 3, "queries": 3}
UNTRACED_REPS = 3       # untraced verify runs that the traced one is compared with
CALL_TIMEOUT_S = 60.0
TAU_RTOL = 1e-9
TAU_DOT_TOL = 1e-8      # relative to max(1, |tau_dot|)

SETUP_CODE = (
    "import sys\n"
    "import algly\n"
    "from algly import cli\n"
    "cli.build_lyapunov(cli.load_problem(sys.argv[1], int(sys.argv[2])))\n"
)


class Ledger:
    """Attempted and failed operations; the first few failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                sys.stderr.write(f"perfbench: FAILED {what}\n")


@dataclass
class Proc:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    maxrss_mb: float


def run_proc(cmd: list[str], root: str, env: dict) -> Proc:
    """Run cmd to completion; wall time and peak RSS come from its own wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + CALL_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                proc.kill()
                proc.wait()
                raise TimeoutError(f"{' '.join(cmd)} ran longer than {CALL_TIMEOUT_S} s")
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Proc(proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                wall, usage.ru_maxrss / 1024.0)


def timed_calls(call, points, errors) -> tuple[list, list[int]]:
    """Call `call(x)` for each point in turn: (outcomes, nanoseconds per call).

    An exception of a type in `errors` is an outcome, recorded by class name.
    """
    clock = time.perf_counter_ns
    outcomes, lat = [], []
    for x in points:
        t0 = clock()
        try:
            v = call(x)
        except errors as exc:
            v = type(exc).__name__
        lat.append(clock() - t0)
        outcomes.append(v)
    return outcomes, lat


def per_point_us(rounds: list[list[int]]) -> list[float]:
    """Each point's median latency over the rounds, in microseconds."""
    return [statistics.median(calls) / 1e3 for calls in zip(*rounds)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Bench:
    def __init__(self, workload: str, seed: int, root: str):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.cli_seed = seed if self.w.cli_seed is None else self.w.cli_seed
        self.root = root
        self.workdir = os.path.join(WORKDIR, f"{workload}-{seed}")
        self.files = write_problems(self.w, seed, root, self.workdir)
        data = self.files.data
        self.nvars = data["nvars"]
        self.oracle = ProblemOracle(self.nvars, data["P"], data["field"])
        self.ledger = Ledger()
        src = os.path.join(root, "src")
        self.env = {k: v for k, v in os.environ.items() if k != "ALGLY_SEED"}
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
        self.samples: dict[str, int] = {}

    # -- commands --------------------------------------------------------------

    def _cli(self, command: str, problem: str, seed: int | None = None) -> list[str]:
        seed = self.cli_seed if seed is None else seed
        return ["-m", "algly", command, "--problem", problem, "--seed", str(seed)]

    def run(self, args: list[str]) -> Proc:
        return run_proc([sys.executable, *args], self.root, self.env)

    def verify(self) -> Proc:
        return self.run(self._cli("verify", self.files.verify))

    def simulate(self) -> Proc:
        return self.run(self._cli("simulate", self.files.simulate))

    def traced(self, command: str, problem: str) -> tuple[Proc, dict, float]:
        """(process, span dump, traced wall time without the dump write)."""
        dump_path = os.path.join(self.root, self.workdir, f"spans-{command}.json")
        if os.path.exists(dump_path):
            os.remove(dump_path)
        proc = self.run([os.path.join(HERE, "tracer.py"), dump_path, *self._cli(command, problem)[2:]])
        if not os.path.exists(dump_path):
            raise RuntimeError(f"traced {command} wrote no spans: {proc.err.decode()[-2000:]}")
        with open(dump_path) as fh:
            dump = json.load(fh)
        dump_s = json.loads(proc.err.decode().strip().splitlines()[-1])["dump_s"]
        return proc, dump, proc.wall_s - dump_s

    # -- output checks -----------------------------------------------------------

    def verify_problems(self, proc: Proc) -> list[str]:
        w = self.w
        if proc.code != w.exit_code:
            return [f"verify exit code {proc.code}, expected {w.exit_code}: {proc.err[-300:]!r}"]
        try:
            checks = json.loads(proc.out)["checks"]
        except (ValueError, KeyError) as exc:
            return [f"verify output is not a report: {exc}"]
        problems = []
        if set(checks) != set(w.verdicts):
            problems.append(f"verify reported checks {sorted(checks)}, expected {sorted(w.verdicts)}")
        for name, want in w.verdicts.items():
            entry = checks.get(name, {})
            got = "blocked" if entry.get("status") == "blocked" else entry.get("passed")
            if got != want:
                problems.append(f"verify check {name}: {got}, expected {want}")
        return problems

    def expected_taus(self, X: np.ndarray) -> list[list[float]]:
        if self.w.disk_closed_form:
            return [[disk_tau(x[0], x[1])] for x in X]
        return [self.oracle.scale_roots(x) for x in X]

    def simulate_problems(self, proc: Proc) -> list[str]:
        w = self.w
        if proc.code != w.simulate_exit:
            return [f"simulate exit code {proc.code}, expected {w.simulate_exit}: {proc.err[-300:]!r}"]
        if w.simulate_exit == 4:
            try:
                error = json.loads(proc.out).get("error")
            except ValueError:
                error = None
            return [] if error == "multiple_positive_roots" else [f"simulate error {error!r}"]
        lines = proc.out.decode().splitlines()
        n = self.nvars
        header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",tau,tau_dot"
        if not lines or lines[0] != header:
            return [f"simulate header {lines[:1]!r}, expected {header!r}"]
        if lines[-1].startswith("#"):
            return [f"simulate stopped: {lines[-1]!r}"]
        opts = self.files.data.get("options", {})
        h, T = float(opts.get("h", 1e-3)), float(opts.get("T", 1.0))
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        problems = []
        if len(rows) != math.floor(T / h + 1e-9) + 1:
            problems.append(f"simulate gave {len(rows)} rows for T={T}, h={h}")
        if not np.array_equal(rows[0, 1:n + 1], np.array(self.files.x0, dtype=float)):
            problems.append("simulate does not start at x0")
        if not np.allclose(np.diff(rows[:, 0]), h, rtol=1e-9, atol=0.0):
            problems.append("simulate time column is not evenly stepped by h")
        X, taus, dots = rows[:, 1:n + 1], rows[:, n + 1], rows[:, n + 2]
        expected = self.expected_taus(X)
        single = [len(r) == 1 for r in expected]
        if not all(single):
            return problems + [f"oracle finds {sum(not s for s in single)} simulate states off a single root"]
        ref = np.array([r[0] for r in expected])
        bad_tau = np.abs(taus - ref) > TAU_RTOL * ref
        ref_dot = self.oracle.tau_dots(X, ref)
        bad_dot = np.abs(dots - ref_dot) > TAU_DOT_TOL * np.maximum(1.0, np.abs(ref_dot))
        if bad_tau.any():
            problems.append(f"simulate tau disagrees with the oracle on {int(bad_tau.sum())} rows")
        if bad_dot.any():
            problems.append(f"simulate tau_dot disagrees with the oracle on {int(bad_dot.sum())} rows")
        return problems

    def check_repeated(self, kind: str, procs: list[Proc], first_problems) -> None:
        """One operation per repetition: the first is checked, the rest must match it byte for byte."""
        for i, proc in enumerate(procs):
            if i == 0:
                problems = first_problems(proc)
                self.ledger.check(not problems, f"{kind}: {'; '.join(problems)}")
            else:
                same = proc.out == procs[0].out and proc.code == procs[0].code
                self.ledger.check(same, f"{kind} repetition {i} differs from the first")

    def check_queries(self, kind: str, points, rounds: list[list], expected) -> None:
        """rounds[k][i] is the outcome (float or exception name) at points[i] in round k."""
        for i in range(len(points)):
            want = expected[i]
            got = rounds[0][i]
            if isinstance(want, str):
                ok = got == want
            elif kind == "tau":
                ok = isinstance(got, float) and abs(got - want) <= TAU_RTOL * want
            else:
                ok = isinstance(got, float) and abs(got - want) <= TAU_DOT_TOL * max(1.0, abs(want))
            self.ledger.check(ok, f"{kind}{points[i]} = {got!r}, oracle {want!r}")
            for k in range(1, len(rounds)):
                self.ledger.check(rounds[k][i] == got, f"{kind}{points[i]} changed between rounds")

    def query_expectations(self, points) -> tuple[list, list]:
        X = np.array(points)
        taus = []
        for roots in self.expected_taus(X):
            if len(roots) == 1:
                taus.append(roots[0])
            else:
                taus.append("NoPositiveRootError" if not roots else "MultiplePositiveRootsError")
        single = [i for i, t in enumerate(taus) if not isinstance(t, str)]
        dots = list(taus)
        if single:
            ref = self.oracle.tau_dots(X[single], np.array([taus[i] for i in single]))
            for i, v in zip(single, ref):
                dots[i] = float(v)
        return taus, dots

    # -- modes -------------------------------------------------------------------

    def measure(self, seconds: float) -> dict[str, float]:
        led = self.ledger
        setup_cmd = ["-c", SETUP_CODE, self.files.verify, str(self.cli_seed)]
        warm = self.run(setup_cmd)          # compiles bytecode; not timed
        led.check(warm.code == 0, f"set-up interpreter exit {warm.code}: {warm.err[-300:]!r}")

        from algly import cli
        from algly.errors import AlglyError
        problem = cli.load_problem(os.path.join(self.root, self.files.verify), self.cli_seed)
        L = cli.build_lyapunov(problem)
        tau_dot = functools.partial(L.tau_dot, problem.field)
        points = query_points(self.nvars, self.seed, QUERY_POINTS)

        setups, verifies, sims = [], [], []
        tau_ns, dot_ns = [], []             # [round][point] latency
        tau_rounds, dot_rounds = [], []     # [round][point] outcome

        def setup():
            setups.append(self.run(setup_cmd))

        def queries():
            outcomes, lat = timed_calls(L.tau, points, AlglyError)
            tau_rounds.append(outcomes)
            tau_ns.append(lat)
            outcomes, lat = timed_calls(tau_dot, points, AlglyError)
            dot_rounds.append(outcomes)
            dot_ns.append(lat)

        ops = {
            "setup": (setup, setups),
            "verify": (lambda: verifies.append(self.verify()), verifies),
            "simulate": (lambda: sims.append(self.simulate()), sims),
            "queries": (queries, tau_ns),
        }
        spent = dict.fromkeys(ops, 0.0)
        end = time.perf_counter() + seconds
        while True:
            short = [op for op, (_, done) in ops.items() if len(done) < MIN_SAMPLES[op]]
            if not short and time.perf_counter() >= end:
                break
            # the operation furthest behind its share of the run goes next
            op = min(short or ops, key=lambda o: spent[o] / TIME_SHARE[o])
            t0 = time.perf_counter()
            ops[op][0]()
            spent[op] += time.perf_counter() - t0

        for proc in setups:
            led.check(proc.code == 0, f"set-up interpreter exit {proc.code}: {proc.err[-300:]!r}")
        self.check_repeated("verify", verifies, self.verify_problems)
        self.check_repeated("simulate", sims, self.simulate_problems)
        want_tau, want_dot = self.query_expectations(points)
        self.check_queries("tau", points, tau_rounds, want_tau)
        self.check_queries("tau_dot", points, dot_rounds, want_dot)

        calls = len(points) * len(tau_ns)
        self.samples = {
            "setup_s": len(setups), "verify_s": len(verifies), "simulate_s": len(sims),
            "tau_query_us": calls, "tau_query_us.p99": calls,
            "tau_dot_query_us": calls, "peak_rss_mb": len(verifies),
        }
        tau_us = per_point_us(tau_ns)
        return {
            "setup_s": statistics.median(p.wall_s for p in setups),
            "verify_s": statistics.median(p.wall_s for p in verifies),
            "simulate_s": statistics.median(p.wall_s for p in sims),
            "tau_query_us": statistics.median(tau_us),
            "tau_query_us.p99": percentile(tau_us, 0.99),
            "tau_dot_query_us": statistics.median(per_point_us(dot_ns)),
            "peak_rss_mb": statistics.median(p.maxrss_mb for p in verifies),
        }

    def trace(self) -> tuple[dict[str, float], list[str]]:
        led = self.ledger
        plain = [self.verify() for _ in range(UNTRACED_REPS)]
        self.check_repeated("verify", plain, self.verify_problems)
        plain_sim = self.simulate()
        self.check_repeated("simulate", [plain_sim], self.simulate_problems)

        traced_v, vdump, traced_wall = self.traced("verify", self.files.verify)
        led.check(traced_v.out == plain[0].out and traced_v.code == plain[0].code,
                  "traced verify output differs from untraced")
        traced_s, sdump, _ = self.traced("simulate", self.files.simulate)
        led.check(traced_s.out == plain_sim.out and traced_s.code == plain_sim.code,
                  "traced simulate output differs from untraced")

        calls = {name: 0 for name in self.w.verify_counts}
        for nid, *_ in vdump["spans"]:
            name = vdump["names"][nid]
            if name in calls:
                calls[name] += 1
        for name, want in self.w.verify_counts.items():
            led.check(calls[name] == want, f"traced verify made {calls[name]} {name} calls, expected {want}")

        metrics = layer_metrics(vdump, sdump)
        metrics["cli.trace_overhead_s"] = traced_wall - statistics.median(p.wall_s for p in plain)

        solve_errors, solve_checked = audit_solves(vdump["facts"].get("roots.positive_roots", []), self.seed)
        probe_errors, probe_checked, notes = audit_probes(AUDIT_PROBES, wilkinson20())
        notes.insert(0, f"{self.w.name} verify solves: {solve_errors} of {solve_checked} counts wrong")
        metrics["roots.count_errors"] = solve_errors + probe_errors
        metrics["roots.count_checked"] = solve_checked + probe_checked

        metrics["cli.verdict_probes"] = len(VERDICT_PROBES)
        metrics["cli.verdict_errors"] = 0
        for spec in VERDICT_PROBES:
            path = write_verdict_probe(spec, self.root, self.workdir)
            probe = self.run(self._cli("verify", path, spec["seed"]))
            try:
                verdict = json.loads(probe.out)["checks"][spec["check"]].get("passed")
            except (ValueError, KeyError):
                verdict = None
            led.check(probe.code in (0, 1) and verdict is not None, f"verdict probe {spec['name']} exit {probe.code}")
            metrics["cli.verdict_errors"] += verdict != spec["expected"]
            notes.append(f"verdict probe {spec['name']}: {spec['check']} passed={verdict}, expected {spec['expected']}")

        metrics.update(src_lines(self.root))
        self.samples = {name: 1 for name in metrics}
        return {name: metrics[name] for name in PER_LAYER_UNITS}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "algly", "__init__.py")):
        sys.stderr.write("perfbench: src/algly not found; run from the root of an algly checkout\n")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    bench = Bench(args.workload, args.seed, root)
    if args.trace:
        metrics, notes = bench.trace()
        units = PER_LAYER_UNITS
    else:
        metrics, notes = bench.measure(args.seconds), []
        units = END_TO_END_UNITS
    led = bench.ledger
    for name in units:
        print(f"{args.workload:10s} {name:36s} {metrics[name]:>14.6g} {units[name]:6s} n={bench.samples[name]}")
    print(f"{args.workload:10s} {'fail_ratio':36s} {led.failed / max(led.attempted, 1):>14.6g} {'ratio':6s} "
          f"n={led.attempted}")
    for note in notes:
        print(f"{args.workload:10s} note: {note}")
    print(json.dumps({
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
