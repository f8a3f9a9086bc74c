"""Seeded inputs and job lists for the three benchmark workloads.

Every input file (degree sequences, edge lists, priors, epistemic models)
is generated here from the workload seed with `random.Random`, never with
the package's own generators, so that a change to `netgen` cannot change
what the other layers are fed. The same seed always gives the same files
and the same job list.

A workload builds one *batch*: a fixed list of JOBS_PER_BATCH `revolt`
jobs that the benchmark runs in order, each in its own process.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

JOBS_PER_BATCH = 50
TAIL_PERCENTILE = 90  # with >= 2 batches a run has >= 100 jobs, so >= 10 beyond p90


@dataclass
class Job:
    """One `revolt` invocation. `argv` excludes the program name."""

    id: str
    argv: list[str]
    expect_exit: int = 0
    # Properties computed from the inputs, not from the program.
    table_rows: int = 0  # sum over distinct degrees of the degree-table size
    assignments: int = 0  # oracle: sum over states of support ** n
    vertex_trials: int = 0  # validate: n * trials (0 when n is set by the program)
    pair: str = ""  # jobs sharing a pair id must report equal sizes
    meta: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.argv[0]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:")


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return str(path)


def _prior(p, mu, states) -> dict:
    """states: label -> (prob, alpha, chi, nu), all rational strings."""
    return {
        "p": p,
        "mu": mu,
        "states": {
            label: {"prob": prob, "types": {"alpha": a, "chi": c, "nu": n}}
            for label, (prob, a, c, n) in states.items()
        },
    }


def _table_rows(degrees) -> int:
    """Rows of the per-degree context table, summed over distinct degrees,
    for a prior with alpha and nu mass in some state: (d+1)(d+2)/2."""
    return sum((d + 1) * (d + 2) // 2 for d in set(degrees))


# ---------------------------------------------------------------------------
# degseq_alpha: cold degree tables at high degree with alpha > 0
# ---------------------------------------------------------------------------

# Alpha > 0 in every state; only A reaches mu, so algorithm1 takes the
# candidate-context branch that builds degree tables.
PRIOR_ALPHA = _prior("2/5", "1/2", {
    "A": ("1/2", "1/10", "7/10", "1/5"),
    "B": ("1/2", "1/20", "1/5", "3/4"),
})
# For --smallest: the action-relabelled world also has exactly one
# candidate state, so the transformed run builds tables too.
PRIOR_SMALLEST = _prior("2/5", "1/2", {
    "A": ("1/2", "3/5", "3/10", "1/10"),
    "B": ("1/2", "1/10", "1/5", "7/10"),
})
# A and B reach mu; B then fails to sustain the candidate revolt, so the
# fixpoint takes two rounds for every seed.
PRIOR_THREE = _prior("2/5", "1/2", {
    "A": ("2/5", "1/10", "7/10", "1/5"),
    "B": ("3/10", "1/20", "9/20", "1/2"),
    "C": ("3/10", "1/20", "1/5", "3/4"),
})

BODY_DEGREES = tuple(range(1, 9))
BODY_N = 500
GENERAL_CUTOFF_C = "8"
GENERAL_CUTOFF = 64  # ceil(8 * n^(1/3)) for the file sizes here (n ~ 510)
GENERAL_HIGH_COPIES = 6  # > 1% of n, so --general takes its high-degree branch

# Hub sets per job variant. The seed permutes which job gets which set but
# never changes the lists, so the set of distinct degrees (and with it the
# table cost of a batch) is the same for every seed.
DEGSEQ_VARIANTS = [
    # (variant, argv flags, prior, hub sets)
    ("analyze", [], "alpha", [
        [16], [20], [24], [32], [40], [48], [56], [64], [72], [80], [96], [128],
        [16, 32], [24, 48], [32, 48], [40, 64],
    ]),
    ("analyze_pair", [], "alpha", [[24], [48], [64], [88]]),
    ("multistate_pair", ["--multistate"], "alpha", [[24], [48], [64], [88]]),
    ("smallest", ["--smallest"], "smallest", [[16], [24], [32], [48], [64], [80]]),
    ("general", ["--general", "--cutoff-c", GENERAL_CUTOFF_C], "alpha",
        [[32, 64], [48, 96], [40, 128], [56, 80]]),
    ("multistate3", ["--multistate"], "three", [[16], [24], [32], [48], [64], [80]]),
    ("promise", ["--show-thresholds"], "alpha", [[16], [24], [32], [40], [48], [56]]),
    ("promise_map", ["--grid-step", "1/5"], "alpha", [[32], [48], [64], [72]]),
]
MU_STARS = ("1/5", "1/2", "4/5")


def _body(rng: random.Random) -> list[int]:
    weights = [d ** -2.5 for d in BODY_DEGREES]
    counts = {d: 1 for d in BODY_DEGREES}
    for d in rng.choices(BODY_DEGREES, weights, k=BODY_N - len(BODY_DEGREES)):
        counts[d] += 1
    return [d for d in BODY_DEGREES for _ in range(counts[d])]


def _degseq_alpha(workdir: Path, seed: int) -> list[Job]:
    rng = _rng("degseq_alpha", seed)
    priors = {
        "alpha": _write_json(workdir / "prior_alpha.json", PRIOR_ALPHA),
        "smallest": _write_json(workdir / "prior_smallest.json", PRIOR_SMALLEST),
        "three": _write_json(workdir / "prior_three.json", PRIOR_THREE),
    }
    pair_order = list(range(4))
    rng.shuffle(pair_order)
    jobs = []
    for variant, flags, prior_key, hub_sets in DEGSEQ_VARIANTS:
        order = pair_order if variant.endswith("_pair") else rng.sample(
            range(len(hub_sets)), len(hub_sets)
        )
        for i, hubs_index in enumerate(order):
            hubs = hub_sets[hubs_index]
            if variant == "multistate_pair":
                # Same degree file as the matching analyze_pair job.
                path = workdir / f"deg_analyze_pair_{i}.txt"
                degrees = [int(x) for x in path.read_text().split()]
            else:
                degrees = _body(rng)
                for h in hubs:
                    copies = (
                        GENERAL_HIGH_COPIES
                        if variant == "general" and h >= GENERAL_CUTOFF
                        else rng.randint(1, 3)
                    )
                    degrees += [h] * copies
                rng.shuffle(degrees)
                path = workdir / f"deg_{variant}_{i}.txt"
                path.write_text("".join(f"{d}\n" for d in degrees))
            kind = "promise" if variant.startswith("promise") else "analyze"
            argv = [kind, "--prior", priors[prior_key], "--degrees", str(path)]
            if kind == "promise":
                argv += ["--epsilon", "1/100", "--delta", "1/100"]
                if variant == "promise":
                    argv += ["--mu-star", rng.choice(MU_STARS)]
            argv += flags
            jobs.append(Job(
                id=f"{variant}_{i}",
                argv=argv,
                table_rows=_table_rows(
                    d for d in degrees
                    if not (variant == "general" and d >= GENERAL_CUTOFF)
                ),
                pair=f"pair_{i}" if variant.endswith("_pair") else "",
                meta={"hubs": hubs, "n": len(degrees)},
            ))
    return jobs


# ---------------------------------------------------------------------------
# sweep_trials: netgen plus many warm, low-degree algorithm1_auto calls
# ---------------------------------------------------------------------------

# alpha = 0 everywhere: tables are linear in the degree and stay warm
# across the trials and grid points of one sweep.
PRIOR_SWEEP = _prior("2/5", "1/2", {
    "A": ("1/2", "0", "4/5", "1/5"),
    "B": ("1/2", "0", "1/5", "4/5"),
})
PRIOR_SWEEP_2 = _prior("1/2", "3/5", {
    "A": ("2/5", "0", "7/10", "3/10"),
    "B": ("3/5", "0", "3/10", "7/10"),
})

P_AXIS = ["--axis", "p", "--start", "1/5", "--stop", "4/5", "--step", "1/5"]
# (family, axis args, n, trials, copies per batch)
SWEEP_SPECS = [
    ("ba", ["--axis", "param", "--start", "1", "--stop", "3", "--step", "1"], 250, 5, 6),
    ("er", ["--axis", "param", "--start", "1/100", "--stop", "3/100", "--step", "1/100"], 250, 5, 6),
    ("powerlaw", ["--axis", "param", "--start", "5/2", "--stop", "7/2", "--step", "1/2"], 250, 5, 6),
    ("constant", ["--axis", "param", "--start", "2", "--stop", "12", "--step", "1"], 1000, 1, 4),
    ("ba", P_AXIS + ["--param", "2"], 250, 10, 7),
    ("er", P_AXIS + ["--param", "1/50"], 250, 10, 7),
    ("powerlaw", P_AXIS + ["--param", "3"], 250, 10, 7),
    ("constant", P_AXIS + ["--param", "4"], 1000, 1, 6),
]
SWEEP_POOL_JOB = ("ba", P_AXIS + ["--param", "2"], 250, 12)


def _sweep_trials(workdir: Path, seed: int) -> list[Job]:
    rng = _rng("sweep_trials", seed)
    priors = [
        _write_json(workdir / "prior_sweep.json", PRIOR_SWEEP),
        _write_json(workdir / "prior_sweep_2.json", PRIOR_SWEEP_2),
    ]
    jobs = []
    for family, axis, n, trials, copies in SWEEP_SPECS:
        for i in range(copies):
            argv = [
                "sweep", "--prior", priors[i % 2], "--family", family, *axis,
                "--n", str(n), "--trials", str(trials),
                "--seed", str(rng.getrandbits(63)),
            ]
            jobs.append(Job(id=f"{family}_{axis[1]}_{i}", argv=argv,
                            meta={"n": n, "trials": trials}))
    family, axis, n, trials = SWEEP_POOL_JOB
    jobs.append(Job(
        id="pool_jobs2",
        argv=["sweep", "--prior", priors[0], "--family", family, *axis,
              "--n", str(n), "--trials", str(trials),
              "--seed", str(rng.getrandbits(63)), "--jobs", "2"],
        meta={"n": n, "trials": trials},
    ))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# concrete_exact: validate's Monte-Carlo loop, the oracle, epistemic search
# ---------------------------------------------------------------------------

ORACLE_SIZES = (6, 7, 7, 7, 7, 8, 6, 7, 7, 7, 8, 8)  # one per decision job
ORACLE_MAX_DEGREE = 4  # keeps sum 3^(deg+1) inside the default cell budget
ORACLE_THRESHOLDS = (("1/2", "1/4"), ("1/3", "1/2"), ("2/3", "1/10"))


def _gnm(rng: random.Random, n: int, m: int, max_degree: int) -> list[tuple[int, int]]:
    """Uniform G(n, m) conditioned on the maximum degree (by rejection)."""
    pairs = list(combinations(range(n), 2))
    while True:
        edges = rng.sample(pairs, m)
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if max(deg) <= max_degree:
            return sorted(edges)


def _write_edges(path: Path, n: int, edges) -> str:
    path.write_text(f"# n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


def _epistemic_model(rng: random.Random, outcomes: int, agents: int, cells: int) -> dict:
    """Random positive weights; each agent splits the outcomes into `cells`
    near-equal cells."""
    labels = [f"w{i}" for i in range(outcomes)]
    weights = [rng.randint(1, 8) for _ in labels]
    total = sum(weights)
    partitions = {}
    for a in range(agents):
        assignment = [i % cells for i in range(outcomes)]
        rng.shuffle(assignment)
        partitions[f"agent{a}"] = [
            [o for o, c in zip(labels, assignment) if c == cell] for cell in range(cells)
        ]
    return {
        "outcomes": labels,
        "prob": {o: str(Fraction(w, total)) for o, w in zip(labels, weights)},
        "partitions": partitions,
    }


def _concrete_exact(workdir: Path, seed: int) -> list[Job]:
    rng = _rng("concrete_exact", seed)
    prior_alpha = _write_json(workdir / "prior_alpha.json", PRIOR_ALPHA)
    # alpha = 0 on generated graphs: their hubs would otherwise make
    # revolting_contexts build quadratic degree tables, which is
    # degseq_alpha's job, not this workload's.
    prior_gen = _write_json(workdir / "prior_validate_gen.json", PRIOR_SWEEP)
    jobs = []

    def seed_arg():
        return ["--seed", str(rng.getrandbits(63))]

    # validate: 10 jobs. The tori cost the same for every seed, which keeps
    # the seed from moving the job-time tail.
    jobs.append(Job(
        id="validate_torus100",
        argv=["validate", "--prior", prior_alpha, "--torus", "100", "100",
              "--state", "A", "--trials", "50", "--format", "json", *seed_arg()],
        vertex_trials=100 * 100 * 50,
        meta={"n": 100 * 100, "trials": 50},
        table_rows=_table_rows([4]),
    ))
    for i in range(6):
        jobs.append(Job(
            id=f"validate_torus64_{i}",
            argv=["validate", "--prior", prior_alpha, "--torus", "64", "64",
                  "--state", "A", "--trials", "25", "--format", "json", *seed_arg()],
            vertex_trials=64 * 64 * 25,
            meta={"n": 64 * 64, "trials": 25},
            table_rows=_table_rows([4]),
        ))
    for i in range(2):
        jobs.append(Job(
            id=f"validate_ba_{i}",
            argv=["validate", "--prior", prior_gen, "--family", "ba", "--n", "1000",
                  "--param", "2", "--state", "AB"[i % 2], "--trials", "10",
                  "--format", "json", *seed_arg()],
            vertex_trials=1000 * 10,
            meta={"n": 1000, "trials": 10},
        ))
    for i in range(1):
        jobs.append(Job(
            id=f"validate_powerlaw_{i}",
            argv=["validate", "--prior", prior_gen, "--family", "powerlaw", "--n", "400",
                  "--param", "3", "--state", "A", "--trials", "10",
                  "--format", "json", *seed_arg()],
            vertex_trials=400 * 10,
            meta={"n": 400, "trials": 10},
        ))

    # oracle: 12 decision jobs, 6 clique jobs, 1 budget job
    for i, n in enumerate(ORACLE_SIZES):
        edges = _gnm(rng, n, n, ORACLE_MAX_DEGREE)
        mu_star, q_star = ORACLE_THRESHOLDS[i % len(ORACLE_THRESHOLDS)]
        jobs.append(Job(
            id=f"oracle_er{n}_{i}",
            argv=["oracle", "--graph", _write_edges(workdir / f"er_{i}.txt", n, edges),
                  "--prior", prior_alpha, "--mu-star", mu_star, "--q-star", q_star],
            assignments=2 * 3 ** n,
            meta={"n": n, "edges": len(edges)},
        ))
    for i in range(6):
        n = (6, 7, 8)[i % 3]
        edges = _gnm(rng, n, n + 2, ORACLE_MAX_DEGREE)
        jobs.append(Job(
            id=f"oracle_clique{n}_{i}",
            argv=["oracle", "--graph", _write_edges(workdir / f"clique_{i}.txt", n, edges),
                  "--clique-reduce", "3"],
            assignments=2 ** n + 1,
            meta={"n": n, "edges": len(edges)},
        ))
    edges = _gnm(rng, 8, 8, ORACLE_MAX_DEGREE)
    jobs.append(Job(
        id="oracle_budget",
        argv=["oracle", "--graph", _write_edges(workdir / "budget.txt", 8, edges),
              "--prior", prior_alpha, "--mu-star", "1/2", "--q-star", "1/4",
              "--budget-assignments", "1000"],
        expect_exit=3,
        meta={"n": 8, "edges": len(edges)},
    ))

    # epistemic: 5 battery jobs, 16 model queries on 6-agent models
    for i in range(5):
        jobs.append(Job(
            id=f"epistemic_prop1_{i}",
            argv=["epistemic", "--verify-prop1", "20", *seed_arg()],
        ))
    for i in range(16):
        outcomes = 8
        # Three cells per agent, so model queries cost about the same.
        model = _epistemic_model(rng, outcomes, 6, 3)
        path = _write_json(workdir / f"model_{i}.json", model)
        event = sorted(rng.sample(model["outcomes"], rng.randint(3, 6)))
        jobs.append(Job(
            id=f"epistemic_model_{i}",
            argv=["epistemic", "--model", path, "--p", "1/2", "--mu", "1/2",
                  "--event", ",".join(event), "--omega", rng.choice(event)],
            meta={"agents": 6, "outcomes": outcomes},
        ))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "degseq_alpha": _degseq_alpha,
    "sweep_trials": _sweep_trials,
    "concrete_exact": _concrete_exact,
}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's inputs under `workdir` and return its batch."""
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = WORKLOADS[workload](workdir, seed)
    ids = {j.id for j in jobs}
    if len(ids) != len(jobs) or len(jobs) != JOBS_PER_BATCH:
        raise ValueError(f"{workload}: need {JOBS_PER_BATCH} jobs with distinct ids")
    return jobs
