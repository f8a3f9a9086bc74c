"""Self-test of the benchmark's answer checks.

    python3 perfbench/run.py --self-test

Runs one job of every variant of every workload (seed 0, whose goldens are
recorded), checks that all pass, then corrupts each job's report and
checks that every corruption is counted as a failure. A second pass
drops the goldens and shows that the theory cross-checks alone catch
answers that contradict the theory. Exit code 0 when every corruption
was caught.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
from fractions import Fraction

import checks
import workloads

SEED = 0


def _bump(value):
    """A different value of the same kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return value[1:] if value else ["w0"]
    if value in ("omega", "A", "empty", "null"):
        return "empty" if value != "empty" else "omega"
    x = Fraction(value)
    return str(x * Fraction(3, 4) if x else Fraction(1, 3))


def _rewrite_csv(text: str, edit) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    edit(rows)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def corrupt(job, text: str) -> str:
    """Change one exact field of the report."""
    kind = job.kind
    if kind in ("analyze", "promise", "sweep"):
        col = {"analyze": "X_exact", "promise": "outcome", "sweep": "mean_eB_exact"}[kind]

        def edit(rows):
            rows[-1][col] = _bump(rows[-1][col])

        return _rewrite_csv(text, edit)
    doc = json.loads(text)
    if kind == "validate":
        doc["trial_rows"][0]["n_candidates"] = _bump(doc["trial_rows"][0]["n_candidates"])
    elif kind == "oracle":
        doc["probability_exact"] = _bump(doc["probability_exact"])
    elif "--verify-prop1" in job.argv:
        doc["agreeing"] = _bump(doc["agreeing"])
    else:
        doc["common_belief_event"] = _bump(doc["common_belief_event"])
    return json.dumps(doc)


def contradict(job, text: str):
    """A corruption that breaks a theory guarantee, or None for job kinds
    that have no cross-check of that strength."""
    kind = job.kind
    if kind == "analyze" and job.pair:
        def edit(rows):
            rows[0]["X_exact"] = _bump(rows[0]["X_exact"])
        return _rewrite_csv(text, edit)
    if kind == "analyze" and "--smallest" not in job.argv:
        def swap(rows):
            a, b = rows[0]["X_exact"], rows[1]["X_exact"]
            if a == b:
                rows[0]["X_exact"] = "0"
            else:
                rows[0]["X_exact"], rows[1]["X_exact"] = b, a
        return _rewrite_csv(text, swap)
    if kind == "sweep" and job.argv[job.argv.index("--axis") + 1] == "p":
        def rise(rows):
            if any(r["relabeled"] != "0" for r in rows):
                return
            rows[-1]["mean_eA_exact"] = str(
                Fraction(rows[-2]["mean_eA_exact"]) + Fraction(1, 1000))
        return _rewrite_csv(text, rise)
    if kind == "oracle" and job.expect_exit == 0:
        doc = json.loads(text)
        doc["revolt_supported"] = not doc["revolt_supported"]
        return json.dumps(doc)
    if kind == "epistemic":
        doc = json.loads(text)
        if "--verify-prop1" in job.argv:
            doc["all_agree"] = False
        else:
            doc["common_at_omega_search"] = not doc["common_at_omega_search"]
        return json.dumps(doc)
    return None


def _variant(job) -> str:
    return job.id.rsplit("_", 1)[0]


def main(run) -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        workdir = run.WORK / f"selftest-{workload}"
        try:
            cli, jobs, goldens = run.setup(workload, SEED, workdir)
            if not goldens:
                run.die(f"no goldens recorded for {workload} seed {SEED}", 1)
            picked, seen = [], set()
            for job in jobs:
                if _variant(job) not in seen or job.pair:
                    seen.add(_variant(job))
                    picked.append(job)
            texts = {}
            clean_failed = 0
            exacts = {}
            for job in picked:
                res, texts[job.id] = run.run_job(cli, job, workdir, False)
                reason, exacts[job.id] = checks.check_job(
                    job, res.code, texts[job.id], goldens[job.id] if job.id in goldens else None)
                clean_failed += bool(reason)
            clean_failed += len(checks.check_pairs(picked, exacts))

            caught = 0
            for job in picked:
                if job.expect_exit:
                    reason, _ = checks.check_job(job, 0, texts[job.id], None)
                else:
                    reason, _ = checks.check_job(
                        job, 0, corrupt(job, texts[job.id]), goldens[job.id])
                caught += bool(reason)

            theory_total = theory_caught = 0
            for job in picked:
                bad = contradict(job, texts[job.id])
                if bad is None:
                    continue
                theory_total += 1
                reason, exact = checks.check_job(job, 0, bad, None)
                if not reason and job.pair:
                    reason = checks.check_pairs(
                        picked, {**exacts, job.id: exact}).get(job.id, "")
                theory_caught += bool(reason)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        n = len(picked)
        print(f"{workload}: clean fail_frac {clean_failed}/{n}; "
              f"corrupted answers counted as failed {caught}/{n} (with goldens), "
              f"{theory_caught}/{theory_total} (cross-checks only)")
        ok &= clean_failed == 0 and caught == n and theory_caught == theory_total
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit("run through: python3 perfbench/run.py --self-test")
