"""Experiment protocols behind the CLI: parameter sweeps over degree-sequence
families, threshold sweeps over the prior, Monte-Carlo concentration
validation on concrete graphs, and the promise-region map.

Reproducibility: every stochastic step seeds its own PCG64 stream
(``netgen._Stream``) with a seed derived from the master seed and the
relevant counters via ``netgen.derive_seed``; rerunning a config
byte-reproduces its output. Threshold (p) sweeps derive per-trial seeds
from the trial counter alone, so all grid points see the same sampled
graphs and per-graph monotonicity in p survives averaging.
Family-parameter sweeps derive from (value, trial).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from statistics import stdev
from typing import Iterable, Optional, Sequence

import numpy as np

from . import bounds as bounds_mod
from .algorithms import (
    _possible_types,
    _type_key,
    algorithm1_auto_grid,
    equilibria_map,
    revolting_rule,
)
from .errors import MislabeledStatesError, SpaceTooLargeError, ValidationError
from .fileio import format_decimal, format_rational
from .model import ALPHA_CODE, CHI_CODE, NU_CODE, ConcreteGraph, Prior, integer_weights
from .netgen import (
    FAMILIES,
    GenSpec,
    _Stream,
    check_seed,
    check_vertex_count,
    derive_seed,
    generate_sequence,
)

SWEEP_COLUMNS = (
    "param",
    "param_decimal",
    "mean_eA_exact",
    "mean_eA",
    "mean_eB_exact",
    "mean_eB",
    "std_eA",
    "std_eB",
    "trials",
    "relabeled",
)

GRID_POINT_GUARD = 100_000  # points one sweep or promise-map grid may hold
TRIAL_GUARD = 100_000  # trials one sweep point or validate run may take
SWEEP_RESULT_BUDGET = 1 << 15  # per-trial results a p sweep holds at once

MAP_COLUMNS = ("mu_star", "mu_star_decimal", "outcome")

ANALYZE_COLUMNS = ("state", "X_exact", "X_decimal")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep request: a degree-sequence family at size n, an axis (the
    family's own parameter or the prior threshold p), the grid of axis
    values, and the trial/seed protocol."""

    family: str
    n: int
    axis: str  # "param" or "p"
    values: tuple[Fraction, ...]
    prior: Prior
    fixed_param: Optional[Fraction] = None
    trials: int = 100
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if self.axis not in ("param", "p"):
            raise ValidationError("axis must be 'param' or 'p'")
        if not self.values:
            raise ValidationError("sweep range is empty")
        check_vertex_count(self.n)
        _check_trials(self.trials)
        check_seed(self.seed)
        if self.jobs < 1:
            raise ValidationError("jobs must be at least 1")
        if self.axis == "p" and self.fixed_param is None:
            raise ValidationError("a p sweep needs the family parameter fixed")
        if self.axis == "p" and not all(0 <= v <= 1 for v in self.values):
            raise ValidationError("p sweep values must lie in [0, 1]")


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    if trials > TRIAL_GUARD:
        raise SpaceTooLargeError(f"trials limited to {TRIAL_GUARD}, not {trials}")


def grid(start, stop, step) -> tuple[Fraction, ...]:
    """Inclusive arithmetic grid start + i*step up to stop, exact; refuses
    more than GRID_POINT_GUARD points before building any."""
    start, stop, step = Fraction(start), Fraction(stop), Fraction(step)
    if step <= 0:
        raise ValidationError("step must be positive")
    count = (stop - start) // step + 1
    if count < 1:
        raise ValidationError("empty grid")
    if count > GRID_POINT_GUARD:
        raise SpaceTooLargeError(f"grid limited to {GRID_POINT_GUARD} points, not {count}")
    return tuple(start + i * step for i in range(count))


def worker_count(jobs: int, items: int, cpus: int) -> int:
    """Pool size for `items` tasks at a time: at most `jobs`, the `cpus`
    the process may run on, and `items`; 1 means run in-process."""
    return max(1, min(jobs, cpus, items))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _specs(cfg: SweepConfig, param, *index: int) -> list[GenSpec]:
    """The generator requests for one family parameter; trial t is seeded by
    derive_seed(cfg.seed, *index, t). The constant family has one."""
    if cfg.family == "constant":
        return [GenSpec("constant", cfg.n, param)]
    return [
        GenSpec(cfg.family, cfg.n, param, derive_seed(cfg.seed, *index, t))
        for t in range(cfg.trials)
    ]


def _solve(task) -> list[tuple[Fraction, Fraction, bool]]:
    """One trial where it runs: generate the task's sequence and answer
    (X_A, X_B, relabeled) at each p of its ps; the sequence is then
    dropped."""
    spec, prior, ps = task
    return [
        (sizes["A"], sizes["B"], relabeled)
        for sizes, relabeled in algorithm1_auto_grid(generate_sequence(spec), prior, ps)
    ]


def _chunks(cfg: SweepConfig):
    """The sweep as (axis values, one task per trial) chunks, in value
    order. A param sweep has one chunk per value, solved at the prior's p.
    A p sweep reuses the trials' seeds at every p, and a chunk is a span
    of p values sized so that at most SWEEP_RESULT_BUDGET per-trial
    results are held at once."""
    if cfg.axis == "param":
        for vi, value in enumerate(cfg.values):
            yield (value,), [(spec, cfg.prior, (cfg.prior.p,)) for spec in _specs(cfg, value, vi)]
        return
    specs = _specs(cfg, cfg.fixed_param)
    span = max(1, SWEEP_RESULT_BUDGET // len(specs))
    for lo in range(0, len(cfg.values), span):
        values = cfg.values[lo:lo + span]
        yield values, [(spec, cfg.prior, values) for spec in specs]


def _mean(values: list[Fraction]) -> Fraction:
    """The mean of the values, as one integer sum over their common
    denominator."""
    common, ints = integer_weights(values)
    return Fraction(sum(ints), common * len(ints))


def _aggregate(value: Fraction, results) -> dict:
    xa = [r[0] for r in results]
    xb = [r[1] for r in results]
    relabeled = sum(1 for r in results if r[2])
    mean_a = _mean(xa)
    mean_b = _mean(xb)
    std_a = stdev(float(x) for x in xa) if len(xa) > 1 else 0.0
    std_b = stdev(float(x) for x in xb) if len(xb) > 1 else 0.0
    return {
        "param": format_rational(value),
        "param_decimal": format_decimal(value),
        "mean_eA_exact": format_rational(mean_a),
        "mean_eA": format_decimal(mean_a),
        "mean_eB_exact": format_rational(mean_b),
        "mean_eB": format_decimal(mean_b),
        "std_eA": format_decimal(std_a),
        "std_eB": format_decimal(std_b),
        "trials": len(results),
        "relabeled": relabeled,
    }


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """Rows of mean largest-revolt sizes along the sweep axis, one `_solve`
    task per chunk and trial. With cfg.jobs > 1 the tasks share one process
    pool, so each trial is generated and solved in a worker. An error is
    the first in (value, trial) order, as one generate-and-solve call per
    value and trial would raise it."""
    per_point = 1 if cfg.family == "constant" else cfg.trials
    workers = worker_count(cfg.jobs, per_point, _usable_cpus())
    chunksize = max(1, per_point // (4 * workers))
    rows = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else partial(pool.map, chunksize=chunksize)
        for values, tasks in _chunks(cfg):
            try:
                results = list(run(_solve, tasks))
            except MislabeledStatesError:
                # A trial's relabel error at a later value comes after a
                # later trial's error at an earlier one: replay value by value.
                for j in range(len(values)):
                    list(run(_solve, [(spec, prior, ps[j:j + 1]) for spec, prior, ps in tasks]))
                raise
            rows += [
                _aggregate(value, [r[j] for r in results]) for j, value in enumerate(values)
            ]
    return rows


def run_promise_map(
    degseq: Sequence[int],
    prior: Prior,
    mu_grid: Iterable[Fraction],
    epsilon,
    delta,
) -> list[dict]:
    rows = []
    for mu_star, outcome in equilibria_map(degseq, prior, mu_grid, epsilon, delta):
        rows.append(
            {
                "mu_star": format_rational(mu_star),
                "mu_star_decimal": format_decimal(mu_star),
                "outcome": outcome.value,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Monte-Carlo concentration validation
# ---------------------------------------------------------------------------

def sample_type_assignment(prior: Prior, state: str, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. types from the state's distribution (PCG64-seeded), as
    `model.TYPES` codes (alpha 0, chi 1, nu 2): a draw's code is the number
    of the cuts alpha and alpha + chi at or below it."""
    dist = prior.state(state).types
    u = _Stream(seed).doubles(n)
    codes = (u >= float(dist.alpha)).view(np.int8)
    codes += u >= float(dist.alpha + dist.chi)
    return codes


def _context_lookup(prior: Prior, deg: np.ndarray, candidacy) -> tuple[np.ndarray, ...]:
    """The revolting contexts as one flat bool table, with each vertex's
    block start and alpha stride: a chi vertex with a alpha and v nu
    neighbors is a candidate iff table[start + a * stride + v]. A block
    per distinct degree d holds one cell for each (a, v) its degree table
    can hold (`_possible_types`): (d + 1)^2 with alpha and nu agents
    possible, d + 1 with one of them and 1 with neither, so the table is
    never more than twice the rows of the degree tables. The stride is
    d + 1 where nu agents are possible, else 1. `revolting_rule`'s
    candidacy has a (d, runs) pair per distinct degree, in the blocks'
    order; a run (a, lo, hi) sets one slice, d - a - hi < v <= d - a - lo."""
    alpha, _chi, nu = _possible_types(_type_key(prior.states)[1])
    degrees, at = np.unique(deg, return_inverse=True)
    stride = degrees + 1 if nu else np.ones_like(degrees)
    blocks = stride * (degrees + 1 if alpha else 1)
    starts = np.cumsum(blocks) - blocks
    table = np.zeros(int(blocks.sum()), bool)
    for (d, runs), start, step in zip(candidacy, starts.tolist(), stride.tolist()):
        for a, lo, hi in runs:
            cell = start + a * step + d - a  # the cell of c = 0
            table[cell - hi + 1 : cell - lo + 1] = True
    return table, starts[at], stride[at]


def run_validate(
    graph: ConcreteGraph,
    prior: Prior,
    state: str,
    trials: int,
    seed: int,
    level=Fraction(1, 100),
) -> dict:
    """Sample state-conditioned type assignments on the concrete graph and
    compare per-trial alpha/chi/candidate counts against the degree-sequence
    expectations and the dependent-Chernoff envelope.

    The expected candidate fraction is the fixpoint's size less the alpha
    mass. When every state survives, every chi vertex is a candidate, and
    when none does, none is. Otherwise a chi vertex is a candidate iff its
    cell of `_context_lookup` is set: one bincount over the arcs, in which
    an alpha neighbor weighs the vertex's alpha stride and a nu neighbor
    weighs 1, gives every vertex its cell.

    The envelope is the deviation at which the union bound over all trials
    of the two-sided tail reaches `level`: sqrt(chi* n ln(2 trials / level) / 2).
    """
    _check_trials(trials)
    check_seed(seed)
    n = graph.n
    deg = np.diff(graph.indptr)
    degseq = deg.tolist()
    sizes, candidacy = revolting_rule(degseq, prior)
    dist = prior.state(state).types
    exp_candidate = sizes[state] - dist.alpha

    if candidacy:
        table, start, stride = _context_lookup(prior, deg, candidacy)
        heads = np.repeat(np.arange(n), deg)
        tails = graph.indices
        # An alpha tail weighs its head's stride, kept in the narrowest int.
        alpha_weight = np.repeat(stride.astype(np.min_scalar_type(stride.max())), deg)

    # revolting_rule has already refused an empty or invalid degseq.
    chi_star = bounds_mod._chi_star_from_max_degree(int(deg.max()))
    envelope = float(bounds_mod.chernoff_envelope(n, chi_star, trials, level))

    trial_rows = []
    devs = []
    cand_sum = 0
    for t in range(trials):
        codes = sample_type_assignment(prior, state, n, derive_seed(seed, t))
        chi = codes == CHI_CODE
        if candidacy is None:
            n_cand = int(np.count_nonzero(chi))
        elif not candidacy:
            n_cand = 0
        else:
            tail_codes = codes[tails]
            cells = np.bincount(
                heads,
                np.where(tail_codes == ALPHA_CODE, alpha_weight, tail_codes == NU_CODE),
                n,
            )
            cells += start
            n_cand = int(np.count_nonzero(table[cells.astype(np.intp)] & chi))
        dev = abs(n_cand - float(exp_candidate) * n)
        devs.append(dev)
        cand_sum += n_cand
        trial_rows.append(
            {
                "trial": t,
                "n_alpha": int(np.count_nonzero(codes == ALPHA_CODE)),
                "n_chi": int(np.count_nonzero(chi)),
                "n_candidates": n_cand,
                "candidate_fraction": format_decimal(n_cand / n),
                "deviation": format_decimal(dev),
            }
        )

    devs.sort()
    return {
        "state": state,
        "n": n,
        "trials": trials,
        "expected_alpha_fraction": format_rational(dist.alpha),
        "expected_chi_fraction": format_rational(dist.chi),
        "expected_candidate_fraction": format_rational(exp_candidate),
        "expected_candidate_fraction_decimal": format_decimal(exp_candidate),
        "empirical_candidate_fraction": format_decimal(cand_sum / (trials * n)),
        "chi_star_bound": chi_star,
        "envelope_level": format_rational(Fraction(level)),
        "envelope_deviation": format_decimal(envelope),
        "max_deviation": format_decimal(devs[-1]),
        "deviation_quantiles": {
            "min": format_decimal(devs[0]),
            "median": format_decimal(devs[len(devs) // 2]),
            "max": format_decimal(devs[-1]),
        },
        "envelope_violations": sum(1 for d in devs if d > envelope),
        "trial_rows": trial_rows,
    }


VALIDATE_COLUMNS = (
    "trial",
    "n_alpha",
    "n_chi",
    "n_candidates",
    "candidate_fraction",
    "deviation",
)


# ---------------------------------------------------------------------------
# Randomized epistemic-model battery
# ---------------------------------------------------------------------------


RANDOM_MODEL_OUTCOMES = 6  # most outcomes of a random battery model
RANDOM_MODEL_AGENTS = 3  # most agents of a random battery model


def random_epistemic_model(seed: int):
    """One random finite model plus thresholds: up to RANDOM_MODEL_OUTCOMES
    outcomes with positive rational probabilities (integer weights 1..8
    normalized), up to RANDOM_MODEL_AGENTS agents with random information
    partitions, and p, mu drawn from the eighths grid. Deterministic in the
    seed."""
    from .epistemic import AgentPartition, EpistemicModel, FiniteProbSpace

    stream = _Stream(seed)
    m = 1 + stream.below(RANDOM_MODEL_OUTCOMES)
    outcomes = tuple(range(m))
    weights = [1 + stream.below(8) for _ in range(m)]
    total = sum(weights)
    probs = tuple(Fraction(w, total) for w in weights)
    space = FiniteProbSpace(outcomes, probs)

    n_agents = 1 + stream.below(RANDOM_MODEL_AGENTS)
    partitions = []
    for _ in range(n_agents):
        k = 1 + stream.below(m)
        assignment = [stream.below(k) for _ in range(m)]
        assignment[stream.below(m)] = 0  # cell 0 always nonempty
        cells = [
            frozenset(o for o, c in zip(outcomes, assignment) if c == cell)
            for cell in range(k)
        ]
        partitions.append(AgentPartition(tuple(c for c in cells if c)))
    model = EpistemicModel(
        space, tuple(f"agent{i}" for i in range(n_agents)), tuple(partitions)
    )
    p = Fraction(stream.below(9), 8)
    mu = Fraction(stream.below(9), 8)
    return model, p, mu


def prop1_battery(count: int, seed: int) -> tuple[int, int]:
    """Run the fixpoint-vs-search equivalence over `count` random models;
    returns (number agreeing on every event and outcome, count)."""
    from .epistemic import check_fixpoint_search_agreement

    check_seed(seed)
    agree = 0
    for i in range(count):
        model, p, mu = random_epistemic_model(derive_seed(seed, i))
        if check_fixpoint_search_agreement(model, p, mu):
            agree += 1
    return agree, count
