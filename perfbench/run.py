"""Benchmark of the `revolt` toolkit (package `factional_belief`).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-goldens --workload NAME

Run from a checkout of the repository; the package is imported from the
checkout's ``src/``. Each job is one ``cli.main(argv)`` call in a process
forked from this one after it has imported the package and run no job, so
every job starts with empty caches, as a fresh ``revolt`` process does.
Jobs run one after another in a closed loop, batch after batch, for
``--seconds`` (at least two batches). The inputs come from the seed folded
onto the seeds whose exact answers are recorded (checks.input_seed), so
every answer of every run is checked against its golden.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
traced and untraced batches and prints the per-layer metrics. The last
line of stdout is one JSON object; a record of the run (versions, seed,
every job's time and exit code) and the spans of traced jobs are written
under ``.perfbench/records/``. The exit code is 1 when any job's exact
answer or exit code is wrong. See perfbench/README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

# Single-threaded numeric libraries: the package does no BLAS work, and
# idle library threads make forking noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import checks  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up is timed in this process and in fresh probe interpreters, a few
# before the batches and a few after each batch, so that the median spans
# the machine's slow and fast spells.
PROBES = 2
MIN_BATCHES = 2
RUN_LIMIT_S = 120  # keeps a run of a much slower version under three minutes
JOB_LIMIT_S = 100  # a job still running after this is killed and counted as failed
DEFAULT_SECONDS = 40  # run_seconds in BENCHMARK.json
KINDS = ("analyze", "promise", "sweep", "validate", "oracle", "epistemic")


def die(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Set-up: import the package, write the inputs, load the checks
# ---------------------------------------------------------------------------


def import_package():
    if not (SRC / "factional_belief" / "cli.py").is_file():
        die(f"no package source at {SRC}/factional_belief; run from a checkout")
    sys.path.insert(0, str(SRC))
    import factional_belief
    import factional_belief.cli as cli

    where = Path(factional_belief.__file__).resolve()
    if SRC.resolve() not in where.parents:
        die(f"imported factional_belief from {where}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    cli = import_package()
    if workdir.exists():
        shutil.rmtree(workdir)
    in_seed = checks.input_seed(seed)
    jobs = workloads.build(workload, in_seed, workdir / "inputs")
    (workdir / "out").mkdir()
    goldens = checks.load_goldens(workload).get(str(in_seed), {})
    return cli, jobs, goldens


def probe_setup(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times of fresh interpreters, each measured inside itself."""
    workdir = WORK / f"probe-{os.getpid()}"
    samples = []
    for _ in range(count):
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            die(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------


@dataclass
class Result:
    code: int
    seconds: float  # inside the job process, around cli.main
    rss_kib: int  # peak resident set of the job process
    start: float  # parent clock, before fork
    end: float  # parent clock, after the job process was reaped
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    reason: str = ""


def _child(cli, job, out_path: Path, err_path: Path, trace: bool, wfd: int):
    payload = {"code": 1, "seconds": 0.0, "spans": [], "missing": []}
    try:
        # Its own process group, so that a job killed at the time limit
        # takes the pool workers of `sweep --jobs` with it.
        os.setpgid(0, 0)
        out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(out, 1)
        os.dup2(err, 2)
        main = cli.main
        if trace:
            recorder = spanlib.Recorder()
            payload["missing"] = spanlib.install(recorder)
            main = recorder.wrap(spanlib.ROOT_SPAN, cli.main)
        t0 = perf_counter()
        try:
            payload["code"] = main(list(job.argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            payload["code"] = exc.code if isinstance(exc.code, int) else 1
        finally:
            payload["seconds"] = perf_counter() - t0
        if trace:
            payload["spans"] = recorder.spans
    except BaseException:  # report any crash of the job as exit code 1
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
            data = json.dumps(payload).encode() + b"\n"
            view = memoryview(data)
            while view:
                view = view[os.write(wfd, view):]
        finally:
            os._exit(0)


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_job(cli, job, workdir: Path, trace: bool) -> tuple[Result, str]:
    out_path = workdir / "out" / f"{job.id}.out"
    err_path = workdir / "out" / f"{job.id}.err"
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    start = perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(cli, job, out_path, err_path, trace, wfd)
    os.close(wfd)
    try:
        os.setpgid(pid, pid)
    except OSError:  # the child got there first, or has already exited
        pass
    # The payload ends with a newline; read until it arrives, the pipe
    # closes or the time limit passes, whichever is first. Leftover
    # processes holding the pipe cannot make this wait past the limit.
    data = bytearray()
    while not data.endswith(b"\n"):
        left = start + JOB_LIMIT_S - perf_counter()
        if left <= 0 or not select.select([rfd], [], [], left)[0]:
            break
        chunk = os.read(rfd, 1 << 16)
        if not chunk:
            break
        data += chunk
    os.close(rfd)
    if not data.endswith(b"\n"):
        _kill_group(pid)
    # Wait without reaping, so that the group id cannot be reused before
    # whatever the job left running in its group is stopped.
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    end = perf_counter()
    _kill_group(pid)
    _pid, status, usage = os.wait4(pid, 0)
    try:
        payload = json.loads(data)
    except ValueError:
        payload = {"code": 1, "seconds": end - start, "spans": [], "missing": []}
    if os.waitstatus_to_exitcode(status) != 0:
        payload["code"] = 1
    res = Result(
        code=payload["code"],
        seconds=payload["seconds"],
        rss_kib=usage.ru_maxrss,
        start=start,
        end=end,
        spans=[tuple(s) for s in payload["spans"]],
        missing=payload["missing"],
    )
    return res, out_path.read_text() if out_path.exists() else ""


def run_batch(cli, jobs, goldens: dict, workdir: Path, trace: bool):
    """Run every job once, in order, and check its answer."""
    results, exacts = [], {}
    for job in jobs:
        res, text = run_job(cli, job, workdir, trace)
        res.reason, exacts[job.id] = checks.check_job(job, res.code, text, goldens.get(job.id))
        if res.reason:
            err = (workdir / "out" / f"{job.id}.err").read_text()[-800:]
            print(f"perfbench: FAIL {job.id}: {res.reason}\n{err}", file=sys.stderr)
        results.append(res)
    pair_failures = checks.check_pairs(jobs, exacts)
    for job, res in zip(jobs, results):
        pair_reason = pair_failures.get(job.id)
        if pair_reason and not res.reason:
            res.reason = pair_reason
            print(f"perfbench: FAIL {job.id}: {pair_reason}", file=sys.stderr)
    return results, exacts


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values, q: int) -> float:
    """The q-th percentile by the inclusive method of statistics.quantiles."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def batch_wall(results) -> float:
    return results[-1].end - results[0].start


def end_to_end(batches, setup_samples) -> dict:
    times = [r.seconds for _jobs, results in batches for r in results]
    return {
        "wall_s": (statistics.median(batch_wall(r) for _j, r in batches), "s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (percentile(times, workloads.TAIL_PERCENTILE), "s"),
        "peak_rss_mib": (max(r.rss_kib for _j, rs in batches for r in rs) / 1024, "MiB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def per_layer(traced, untraced) -> tuple[dict, dict]:
    per_batch = [spanlib.layer_metrics(list(zip(jobs, results)))
                 for jobs, results in traced]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_batch), unit)
        for name, (_v, unit) in per_batch[0].items()
    }
    wall = statistics.median(batch_wall(r) for _j, r in traced)
    for kind in KINDS:
        mine = [(j, r) for jobs_, rs in traced for j, r in zip(jobs_, rs) if j.kind == kind]
        metrics[f"job.{kind}.s_p50"] = (
            statistics.median(r.seconds for _j, r in mine) if mine else 0.0, "s")
        metrics[f"job.{kind}.rss_mib"] = (
            max(r.rss_kib for _j, r in mine) / 1024 if mine else 0.0, "MiB")
        metrics[f"job.{kind}.wall_share"] = (
            sum(r.seconds for _j, r in mine) / len(traced) / wall if mine else 0.0, "ratio")
    job_time = sum(r.seconds for _j, rs in traced for r in rs) / len(traced)
    metrics["algorithms.job_share"] = (metrics["algorithms.self_s"][0] / job_time, "ratio")
    missing = sorted({m for _j, rs in traced for r in rs for m in r.missing})
    absent = spanlib.absent_metrics(metrics, missing)
    if untraced:
        overhead = wall - statistics.median(batch_wall(r) for _j, r in untraced)
    else:
        overhead = 0.0
        absent["trace_overhead_s"] = "the run had time for no untraced batch"
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics, absent


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def versions() -> dict:
    import mpmath
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def write_record(args, batches, setup_samples, metrics, absent, failed, attempted,
                 golden_jobs):
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": checks.input_seed(args.seed),
        "golden_checked_jobs": golden_jobs,  # per batch; the rest expect a nonzero exit
        "seconds": args.seconds,
        "trace": args.trace,
        "versions": versions(),
        "tail_percentile": workloads.TAIL_PERCENTILE,
        "jobs_per_batch": len(batches[0][0]),
        "setup_samples_s": setup_samples,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "absent": absent,
        "batches": [
            {"traced": traced, "wall_s": batch_wall(results), "jobs": [
                {"id": j.id, "kind": j.kind, "argv": j.argv, "inputs": j.meta,
                 "seconds": r.seconds,
                 "exit": r.code, "rss_mib": r.rss_kib / 1024, "ok": not r.reason,
                 "reason": r.reason}
                for j, r in zip(jobs, results)]}
            for jobs, results, traced in batches
        ],
    }
    path = records / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(records / f"{stem}-spans.jsonl", "w") as f:
            for bi, (jobs, results, traced) in enumerate(batches):
                for j, r in zip(jobs, results):
                    for sid, (name, parent, start, end) in enumerate(r.spans):
                        f.write(json.dumps({
                            "job": f"b{bi}:{j.id}", "id": sid, "parent": parent,
                            "name": name, "start": start, "end": end}) + "\n")
    return path


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def measure(args) -> int:
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    cli, jobs, goldens = setup(args.workload, args.seed, workdir)
    unchecked = [j.id for j in jobs if j.expect_exit == 0 and j.id not in goldens]
    if unchecked:
        shutil.rmtree(workdir, ignore_errors=True)
        die(f"no goldens for {args.workload} input seed {checks.input_seed(args.seed)}: "
            f"{unchecked[:3]}; record them with --record-goldens at a known-good commit")
    setup_samples = [perf_counter() - T_START]
    probes = 0 if args.trace else PROBES
    try:
        setup_samples += probe_setup(args.workload, args.seed, probes)
        batches = []  # (jobs, results, traced)
        begin = perf_counter()
        while True:
            # Start another batch only while it is expected to end in time;
            # the minimum yields to the limit on the length of a whole run.
            elapsed = perf_counter() - begin
            expected = elapsed * (len(batches) + 1) / len(batches) if batches else 0
            if expected > (RUN_LIMIT_S if len(batches) < MIN_BATCHES else args.seconds):
                break
            traced = bool(args.trace) and len(batches) % 2 == 0
            results, _ = run_batch(cli, jobs, goldens, workdir, traced)
            batches.append((jobs, results, traced))
            setup_samples += probe_setup(args.workload, args.seed, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(results) for _j, results, _t in batches)
    failed = sum(1 for _j, results, _t in batches for r in results if r.reason)
    untraced = [(j, r) for j, r, t in batches if not t]
    absent = {}
    if args.trace:
        metrics, absent = per_layer([(j, r) for j, r, t in batches if t], untraced)
    else:
        metrics = end_to_end(untraced, setup_samples)
    path = write_record(args, batches, setup_samples, metrics, absent, failed, attempted,
                        len(goldens))

    for name, (value, unit) in metrics.items():
        note = f"  (absent: {absent[name]})" if name in absent else ""
        print(f"{name:48s} {value:14.6g} {unit}{note}")
    print(f"jobs attempted {attempted}, failed {failed}, "
          f"fail_frac {failed / attempted:.4g}; {len(goldens)} of {len(jobs)} jobs a batch "
          f"checked against goldens of input seed {checks.input_seed(args.seed)}; "
          f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def record_goldens(args) -> int:
    """Run one batch per golden seed and store the digests of the exact
    answers. Only for a commit whose answers are known to be right."""
    doc = {"seeds": {}}
    for seed in checks.GOLDEN_SEEDS:
        workdir = WORK / f"goldens-{args.workload}-{seed}-{os.getpid()}"
        try:
            cli, jobs, _ = setup(args.workload, seed, workdir)
            results, exacts = run_batch(cli, jobs, {}, workdir, False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        bad = [j.id for j, r in zip(jobs, results) if r.reason]
        if bad:
            die(f"seed {seed}: jobs failed their cross-checks: {bad}", 1)
        doc["seeds"][str(seed)] = {
            j.id: checks.digest(exacts[j.id])
            for j in jobs if exacts.get(j.id) is not None
        }
        print(f"seed {seed}: {len(doc['seeds'][str(seed)])} digests", file=sys.stderr)
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    path = checks.GOLDEN_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that corrupted answers are counted as failures")
    ap.add_argument("--record-goldens", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.workdir))
        print(perf_counter() - T_START)
        return 0
    if args.self_test:
        import selftest

        return selftest.main(sys.modules[__name__])
    if args.workload is None:
        ap.error("--workload is required")
    if args.record_goldens:
        return record_goldens(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
