"""The benchmark's workloads: problem files, expected verdicts, and probes.

Each workload is one problem plus the operations every run measures.
Its verify file is written exactly as specified; a workload without an
``x0`` gets a second, simulate-only file with a seeded ``x0`` so that
``simulate`` runs everywhere.  The workload seed is the CLI ``--seed``
(sampling seed and random starts) unless the workload pins it, and it
draws the generated simulate start and the query points; the polynomials
themselves are fixed because their verdicts are known.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

ROT = [[-1.0, 0.5], [-0.5, -1.0]]   # rotating, contracting 2x2 block
BLOCKS4 = [[-1.0, 0.5, 0.0, 0.0], [-0.5, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.5], [0.0, 0.0, -0.5, -1.0]]
SQ4 = "(x1^2+x2^2+x3^2+x4^2)"


def _matrix_text(matrix, scale: str = "") -> list[str]:
    """Components of x -> scale * A x as polynomial text."""
    out = []
    for row in matrix:
        lin = " + ".join(f"{a!r}*x{j + 1}" for j, a in enumerate(row) if a != 0.0)
        out.append(f"{scale}*({lin})" if scale else lin)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: dict | None          # None: use `source` verbatim
    source: str | None = None
    exit_code: int = 0
    verdicts: dict = field(default_factory=dict)   # check -> True / False / "blocked"
    simulate_exit: int = 0
    disk_closed_form: bool = False
    verify_counts: dict = field(default_factory=dict)   # traced span name -> calls in verify
    cli_seed: int | None = None   # pinned CLI --seed; None: the workload seed


_PASS = ("origin_interior", "field_homogeneity")

WORKLOADS = {
    "disk": Workload(
        name="disk",
        why="reference problem: degree 2, linear field, x0 and a multiplier certificate; every ray has one sign change",
        problem=None,
        source="problems/disk.json",
        verdicts={**dict.fromkeys(_PASS, True), "containment": True, "star_convexity": True,
                  "invariance": True, "decrease": True, "multiplier": True},
        disk_closed_form=True,
        verify_counts={"roots.positive_roots": 14353, "alf.tau": 14097, "alf.tau_dot": 4999},
    ),
    "sextic": Workload(
        name="sextic",
        why="degree-6 set with a cubic field; half of its solves need multi-sign-change Sturm isolation",
        problem={
            "nvars": 2,
            "P": "(x1^2+x2^2)^3 - x1^5 + x2^3*x1 - 1 + x1",
            "field": {"components": _matrix_text(ROT, "(x1^2+x2^2)")},
            "x0": [0.5, -0.3],
            "options": {"ray_samples": 4096, "n_dirs": 4096, "h": 1e-3, "T": 2.0},
        },
        verdicts={**dict.fromkeys(_PASS, True), "containment": True, "star_convexity": True,
                  "invariance": True, "decrease": True},
    ),
    "quartic4d": Workload(
        name="quartic4d",
        why="4D quartic with 15 terms: Gaussian directions, 8 random starts, most time in polynomial evaluation",
        problem={
            "nvars": 4,
            "P": f"{SQ4}^2 + x1^3 - x2*x3*x4 + 0.5*x1*x2 - x3 - 1",
            "field": {"matrix": BLOCKS4},
            "options": {"ray_samples": 1024, "n_dirs": 4096, "h": 1e-3, "T": 0.5},
        },
        verdicts={**dict.fromkeys(_PASS, True), "star_convexity": True,
                  "invariance": True, "decrease": True},
        # About 4% of sampling seeds (303, 369, 391, 394 of 300-399) put a
        # Gaussian ray where positive_roots misses the single root, and
        # verify then rejects this star-convex set.  The timed runs keep the
        # file's seed; VERDICT_PROBES reports the miss at seed 303.
        cli_seed=0,
    ),
    "annulus": Workload(
        name="annulus",
        why="reject path: every ray has two roots, verify stops after star-convexity and every tau query raises",
        problem={
            "nvars": 2,
            "P": "-(x1^2 + x2^2 - 1)*(x1^2 + x2^2 - 4)",
            "field": {"matrix": [[-1.0, 0.0], [0.0, -1.0]]},
            "options": {"ray_samples": 4096},
        },
        exit_code=1,
        verdicts={**dict.fromkeys(_PASS, True), "star_convexity": False,
                  "invariance": "blocked", "decrease": "blocked"},
        simulate_exit=4,
    ),
}

# Untimed verify runs whose verdict is known, with fixed seeds: quartic4d
# under the cubic field |x|^2 * (block matrix) x, where tau falls at every
# step (decrease should pass), and quartic4d at a sampling seed that hits a
# root-count miss (star-convexity should pass).
VERDICT_PROBES = [
    {"name": "quartic4d-cubic-field", "field": {"components": _matrix_text(BLOCKS4, SQ4)},
     "seed": 0, "check": "decrease", "expected": True},
    {"name": "quartic4d-seed-303", "field": {"matrix": BLOCKS4},
     "seed": 303, "check": "star_convexity", "expected": True},
]

# Root-count audit probes in 2D: (P text, grid directions, forms).  Form
# "star" is the radial polynomial r -> P(r d) that the star-convexity check
# solves; "scale" is s -> P~(d, s), the one tau solves.  The quartic is
# star-convex (one root on every ray); the others are the scale-invariance
# repros, whose true counts are all 1.
AUDIT_PROBES = [
    ("x1^4+x2^4+x1^3-x2-1", 4096, ("star",)),
    ("x1^2+x2^2-1e12", 64, ("star", "scale")),
    ("x1^2+x2^2-1e-12", 64, ("star", "scale")),
    ("1e6*x1^2+x2^2-1e-6", 64, ("star", "scale")),
]


def wilkinson20() -> list[float]:
    """Ascending float coefficients of prod_{k=1..20} (t - k)."""
    coeffs = [1.0]
    for root in range(1, 21):
        coeffs = [0.0] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= root * coeffs[k + 1]
    return coeffs


def query_points(nvars: int, seed: int, count: int) -> list[tuple[float, ...]]:
    """Seeded scattered points: Gaussian directions, log-uniform radius in [0.1, 10]."""
    rng = np.random.default_rng([seed, 1])
    dirs = rng.standard_normal((count, nvars))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = 10.0 ** rng.uniform(-1.0, 1.0, count)
    return [tuple(float(v) for v in row) for row in dirs * radii[:, None]]


def _seeded_x0(nvars: int, seed: int, lo: float, hi: float) -> list[float]:
    rng = np.random.default_rng([seed, 2])
    v = rng.standard_normal(nvars)
    return [float(c) for c in v / np.linalg.norm(v) * rng.uniform(lo, hi)]


@dataclass(frozen=True)
class Files:
    verify: str          # problem file for verify / setup / in-process queries
    simulate: str        # problem file for simulate (has an x0)
    data: dict           # parsed verify problem
    x0: list[float]


def write_problems(w: Workload, seed: int, root: str, workdir: str) -> Files:
    """Write the workload's problem files for this seed; paths are relative to root."""
    os.makedirs(os.path.join(root, workdir), exist_ok=True)
    if w.problem is None:
        path = w.source
        with open(os.path.join(root, path)) as fh:
            data = json.load(fh)
    else:
        data = json.loads(json.dumps(w.problem))
        data["options"]["seed"] = seed if w.cli_seed is None else w.cli_seed
        path = _dump(root, workdir, f"{w.name}.json", data)
    sim_path = path
    x0 = data.get("x0")
    if x0 is None:
        # inside the set for both generated problems: quartic4d's boundary is
        # beyond radius 0.6 and the annulus's inner circle has radius 1
        x0 = _seeded_x0(data["nvars"], seed, 0.3, 0.6)
        sim_path = _dump(root, workdir, f"{w.name}.sim.json", {**data, "x0": x0})
    return Files(verify=path, simulate=sim_path, data=data, x0=x0)


def write_verdict_probe(probe: dict, root: str, workdir: str) -> str:
    data = json.loads(json.dumps(WORKLOADS["quartic4d"].problem))
    data["field"] = probe["field"]
    data["options"]["seed"] = probe["seed"]
    return _dump(root, workdir, f"{probe['name']}.json", data)


def _dump(root: str, workdir: str, name: str, data: dict) -> str:
    rel = os.path.join(workdir, name)
    with open(os.path.join(root, rel), "w") as fh:
        json.dump(data, fh, indent=1)
    return rel
