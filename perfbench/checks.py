"""Exact-answer checks for benchmark jobs.

Each job's report is reduced to its exact fields (rationals as strings,
verdicts, counts), ignoring decimal columns, keys a report may gain later,
and stderr. Two kinds of check apply:

* goldens: the sha256 of those exact fields, recorded at a known-good
  commit for every input seed in GOLDEN_SEEDS (goldens/<workload>.json);
  a workload seed selects its inputs by input_seed(), so every run is
  checked against goldens, whatever its seed;
* cross-checks the theory guarantees for any seed (X_A >= X_B, analyze ==
  --multistate on label-consistent two-state inputs, p-sweeps that do not
  increase, oracle == clique search, fixpoint == search, the budget exit).

A job fails when its exit code is unexpected, its report does not parse,
a cross-check fails, or its digest differs from a recorded golden.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN_SEEDS = range(32)


def input_seed(seed: int) -> int:
    """The seed the inputs are generated from. Workload seeds fold onto
    GOLDEN_SEEDS, so a run never lacks goldens: without them, a wrong
    answer that breaks no cross-check would pass."""
    return seed % len(GOLDEN_SEEDS)


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def extract(argv: list[str], text: str):
    """The exact fields of one report, as a JSON-able value."""
    kind = argv[0]
    if kind == "analyze":
        return {"sizes": {r["state"]: r["X_exact"] for r in _csv_rows(text)}}
    if kind == "promise":
        rows = _csv_rows(text)
        return {"outcomes": [[r["mu_star"], r["outcome"]] for r in rows]}
    if kind == "sweep":
        return {"rows": [
            [r["param"], r["mean_eA_exact"], r["mean_eB_exact"], int(r["trials"]),
             int(r["relabeled"])]
            for r in _csv_rows(text)
        ]}
    if kind == "validate":
        doc = json.loads(text)
        keys = ("state", "n", "trials", "expected_alpha_fraction",
                "expected_chi_fraction", "expected_candidate_fraction",
                "chi_star_bound", "envelope_violations")
        out = {k: doc[k] for k in keys}
        out["trials_counts"] = [
            [r["trial"], r["n_alpha"], r["n_chi"], r["n_candidates"]]
            for r in doc["trial_rows"]
        ]
        return out
    if kind == "oracle":
        doc = json.loads(text)
        keys = ("n", "mu_star", "q_star", "revolt_supported", "probability_exact",
                "k", "clique_exists")
        return {k: doc[k] for k in keys if k in doc}
    if kind == "epistemic":
        doc = json.loads(text)
        if "--verify-prop1" in argv:
            return {k: doc[k] for k in ("models", "agreeing", "all_agree")}
        keys = ("event", "beliefs", "evident", "witnesses", "common_belief_event",
                "omega", "common_at_omega_fixpoint", "common_at_omega_search")
        return {k: doc[k] for k in keys}
    raise ValueError(f"no extractor for job kind {kind!r}")


def digest(exact) -> str:
    canon = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:20]


def cross_check(argv: list[str], exact) -> str:
    """Theory checks on one report; returns a failure reason or ''."""
    kind = argv[0]
    if kind == "analyze" and "--smallest" not in argv:
        sizes = {s: Fraction(x) for s, x in exact["sizes"].items()}
        if "A" in sizes and "B" in sizes and sizes["A"] < sizes["B"]:
            return "X_A < X_B"
        if any(not 0 <= x <= 1 for x in sizes.values()):
            return "size outside [0, 1]"
    if kind == "sweep" and "--axis" in argv and argv[argv.index("--axis") + 1] == "p":
        rows = exact["rows"]
        if all(r[4] == 0 for r in rows):
            for prev, cur in zip(rows, rows[1:]):
                for col in (1, 2):
                    if Fraction(cur[col]) > Fraction(prev[col]):
                        return f"p-sweep mean increased at p={cur[0]}"
    if kind == "validate":
        if len(exact["trials_counts"]) != exact["trials"]:
            return "trial row count differs from trials"
        n = exact["n"]
        if any(not 0 <= c <= chi <= n or a + chi > n
               for _t, a, chi, c in exact["trials_counts"]):
            return "trial counts inconsistent"
    if kind == "oracle":
        prob = Fraction(exact["probability_exact"])
        if exact["revolt_supported"] != (prob >= Fraction(exact["q_star"])):
            return "verdict disagrees with its probability"
        if "clique_exists" in exact and exact["revolt_supported"] != exact["clique_exists"]:
            return "revolt_supported != clique_exists"
    if kind == "epistemic":
        if "--verify-prop1" in argv:
            if exact["all_agree"] is not True or exact["agreeing"] != exact["models"]:
                return "fixpoint and search disagree"
        elif exact["common_at_omega_fixpoint"] != exact["common_at_omega_search"]:
            return "fixpoint and search disagree at omega"
    return ""


def load_goldens(workload: str) -> dict:
    """seed (as str) -> job id -> digest; empty when none are recorded."""
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["seeds"]


def check_job(job, code: int, text: str, golden: str | None) -> tuple[str, object]:
    """Returns (failure reason or '', exact fields or None)."""
    if code != job.expect_exit:
        return f"exit {code}, expected {job.expect_exit}", None
    if job.expect_exit != 0:
        return "", None
    try:
        exact = extract(job.argv, text)
        reason = cross_check(job.argv, exact)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError,
            csv.Error) as exc:
        return f"report does not parse: {exc!r}", None
    if not reason and golden is not None and digest(exact) != golden:
        reason = "exact answer differs from golden"
    return reason, exact


def check_pairs(jobs, exacts: dict) -> dict:
    """analyze == --multistate on the same two-state input. Returns
    job id -> failure reason for the jobs of any pair that disagrees."""
    groups: dict[str, list] = {}
    for job in jobs:
        if job.pair and exacts.get(job.id) is not None:
            groups.setdefault(job.pair, []).append(exacts[job.id]["sizes"])
    failed = {}
    for job in jobs:
        sizes = groups.get(job.pair, [])
        if job.pair and any(s != sizes[0] for s in sizes):
            failed[job.id] = f"{job.pair}: analyze and --multistate disagree"
    return failed
