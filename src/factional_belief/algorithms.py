"""Degree-sequence algorithms for the largest supported revolt, the promise
decision procedure built on top of it, and its extensions: smallest
supported revolt, arbitrary-degree graphs, and more than two states.

All arithmetic is exact rational. Everything here depends on the graph only
through its degree multiset; permuting a sequence or substituting any graph
with the same degrees cannot change a result.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, compress, groupby, repeat
from math import comb, gcd
from operator import add, itemgetter, le, mul, sub, truediv
from typing import Iterable, Optional

from .errors import MislabeledStatesError, SpaceTooLargeError, ValidationError
from .model import (
    AgentType,
    ContextClass,
    DegreeSequence,
    Prior,
    StatePrior,
    chi_alpha,
    integer_weights,
    validate_degree_sequence,
)

ZERO = Fraction(0)
TABLE_ROW_GUARD = 200_000  # table rows one call may build over its distinct degrees


class PromiseOutcome(Enum):
    """Answer symbols for the promise decision problem."""

    OMEGA = "omega"  # the requested revolt size is supported in both states
    A = "A"  # supported in state A only
    EMPTY = "empty"  # supported in neither state
    NULL = "null"  # the two perturbed runs disagreed (promise violated)


@dataclass(frozen=True)
class PromiseInstance:
    degseq: tuple[int, ...]
    prior: Prior
    mu_star: Fraction
    epsilon: Fraction
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "degseq", tuple(validate_degree_sequence(self.degseq)))
        object.__setattr__(self, "mu_star", _requested_size(self.mu_star))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.epsilon <= 0 or self.delta <= 0:
            raise ValidationError("epsilon and delta must be positive")
        p, mu = self.prior.p, self.prior.mu
        third_d, third_e = self.delta / 3, self.epsilon / 3
        if not (0 < p - third_d and p + third_d < 1):
            raise ValidationError("p +/- delta/3 must stay inside (0, 1)")
        if not (0 < mu - third_e and mu + third_e < 1):
            raise ValidationError("mu +/- epsilon/3 must stay inside (0, 1)")


def _requested_size(mu_star) -> Fraction:
    """mu_star as a Fraction; a requested revolt size outside [0, 1] raises."""
    mu_star = Fraction(mu_star)
    if not 0 <= mu_star <= 1:
        raise ValidationError("mu_star must lie in [0, 1]")
    return mu_star


# ---------------------------------------------------------------------------
# Expected fractions
# ---------------------------------------------------------------------------


def expected_type_fraction(
    state: str, types: Iterable[AgentType], prior: Prior
) -> Fraction:
    """Expected fraction of agents whose type is in `types`, in the given
    state. Degree-independent."""
    dist = prior.state(state).types
    return sum((dist.prob(t) for t in set(types)), ZERO)


# ---------------------------------------------------------------------------
# Candidate contexts
# ---------------------------------------------------------------------------


def _type_key(states: Iterable[StatePrior]) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The degree tables' cache key: the `integer_weights` of every state's
    (alpha, chi, nu), that is their common denominator D and each state's
    numerators over D. Integers hash without a gcd, unlike Fractions."""
    common, nums = integer_weights(
        x for s in states for x in (s.types.alpha, s.types.chi, s.types.nu)
    )
    it = iter(nums)
    return common, tuple(zip(it, it, it))


def _possible_types(nums) -> tuple[bool, bool, bool]:
    """Whether some state has alpha, chi and nu agents, from the table key's
    numerators. Types with zero mass in every state cannot occur."""
    return tuple(map(any, zip(*nums)))


@lru_cache(maxsize=4096)
def _degree_table(
    key: tuple[int, tuple[tuple[int, int, int], ...]], degree: int
) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, ...], ...]]:
    """Per-degree table of possible chi-centered contexts as columns of
    integers over one common scale: (contexts, columns), where contexts[i]
    holds row i's neighbor counts (a, c, v) and columns[s][i] its weight in
    state s, and state s's likelihood of the context is that weight /
    D^(degree+1), with D and the type numerators from `_type_key`. The
    scale is the same for every state, so weights add and compare as
    integers and no row pays a gcd. Contexts with zero likelihood in every
    state are omitted (they never occur and have no posterior). The table
    does not depend on p or mu, so threshold sweeps share it."""
    _common, nums = key
    alpha_possible, chi_possible, nu_possible = _possible_types(nums)
    if not chi_possible:
        return (), tuple(() for _ in nums)
    # Per state, the powers 0..degree+1 of its alpha, chi and nu numerators;
    # a row's weight is C(d, a) C(d-a, c) alpha^a chi^(c+1) nu^v (the own
    # type is chi).
    powers = [
        [list(accumulate(repeat(base, degree + 1), mul, initial=1)) for base in state]
        for state in nums
    ]
    # Skipping impossible types keeps high-degree tables linear instead of
    # quadratic in the degree.
    contexts = []
    columns = [[] for _ in nums]
    for a in range(degree + 1 if alpha_possible else 1):
        # The run of rows with a alpha neighbors, c = first..m, v = m - c.
        m = degree - a
        first = 0 if nu_possible else m
        cs = range(first, m + 1)
        contexts += zip(repeat(a), cs, range(m - first, -1, -1))
        binomials = list(map(comb, repeat(m), cs))
        for column, (pa, px, pn) in zip(columns, powers):
            column += map(
                mul,
                map(mul, binomials, repeat(comb(degree, a) * pa[a])),
                map(mul, px[first + 1 : m + 2], pn[m - first :: -1]),
            )
    # A state with every type possible weighs every row.
    if all(0 in state for state in nums):
        keep = list(map(any, zip(*columns)))
        contexts = compress(contexts, keep)
        columns = [compress(column, keep) for column in columns]
    return tuple(contexts), tuple(map(tuple, columns))


def _check_table_rows(key, degrees: Iterable[int]) -> list[int]:
    """The distinct degrees, in increasing order. Raises SpaceTooLargeError
    when the rows of their degree tables sum past TABLE_ROW_GUARD, whether
    or not the tables are built."""
    distinct = sorted(set(degrees))
    # `_degree_table` iterates over the (a, c, v) with a + c + v = d, a and v
    # nonzero only for possible types: with k of alpha and nu possible, the
    # C(d + k, k) rows (d+1)(d+2)/2, d + 1 or 1; none without chi.
    alpha, chi, nu = _possible_types(key[1])
    rows = chi * sum(comb(d + alpha + nu, alpha + nu) for d in distinct)
    if rows > TABLE_ROW_GUARD:
        raise SpaceTooLargeError(
            f"degree tables limited to {TABLE_ROW_GUARD} rows; "
            f"{len(distinct)} distinct degrees up to {distinct[-1]} need {rows}"
        )
    return distinct


def _split_weights(prior: Prior, states: Iterable[str]) -> tuple[list[int], list[int]]:
    """The integer state probabilities inside and outside `states`, zero
    elsewhere: a row's probability-weighted weight on either side is one
    dot product with its weights. An unknown label raises UnknownStateError."""
    sel = {prior.states.index(prior.state(s)) for s in states}
    _common, probs = integer_weights(s.prob for s in prior.states)
    inside = [pi if i in sel else 0 for i, pi in enumerate(probs)]
    outside = [0 if i in sel else pi for i, pi in enumerate(probs)]
    return inside, outside


def candidate_contexts(
    prior: Prior, degrees: Iterable[int], candidate_states: Iterable[str]
) -> list[ContextClass]:
    """Chi-centered contexts (over the given degrees, in table order) whose
    posterior mass on the candidate-state set is at least p: the rows of
    the runs that `_candidate_masses` puts at the one level p."""
    degrees = validate_degree_sequence(degrees)
    _masses, scan = _candidate_masses(prior, degrees, candidate_states, [prior.p], 1)
    return [
        ContextClass(AgentType.CHI, a, c, d - a - c)
        for d, runs in scan for a, lo, hi in runs(0) for c in range(lo, hi)
    ]


def _combined(columns, coeffs):
    """Lazily, each row's sum over states of coeffs[s] * columns[s][row]."""
    terms = [map(mul, column, repeat(c)) for column, c in zip(columns, coeffs) if c]
    return reduce(partial(map, add), terms) if terms else repeat(0, len(columns[0]))


def _candidate_masses(
    prior: Prior,
    degrees: Iterable[int],
    candidate_states: Iterable[str],
    levels: list[Fraction],
    total_n: int,
) -> tuple[list[dict[str, Fraction]], list]:
    """The one candidacy test of the degree-sequence core. A context is a
    candidate at threshold p when its posterior mass on the candidate-state
    set is at least p; with S and R its probability-weighted weights
    inside and outside the set, and T = S + R, that is S / T >= p, or
    num R <= (den - num) S for p = num/den, exact and division-free.

    Each distinct degree goes through a walk or the row scan. When every
    state has positive alpha, chi and nu mass and the candidate set is
    ordered by chi/nu (see `_mirrored`), each a-run's candidates are one
    suffix, in c or in v, and a walk follows each level's boundary through
    the degree's a-runs and builds no table, at about k d terms for k
    levels against the table's (d+1)(d+2)/2 rows; so it takes the degrees
    with k <= (d + 2)/2, every degree at one level. Two states with one
    of them the candidate set take `_boundary_walk`, any other ordered
    set `_multistate_walk`. Every other degree and prior (an unordered
    candidate set, a type with zero mass in some state) goes through
    `_row_scan`, which tests every row of the cached degree table. The
    kernels are memoised on the same key, so the trials of a sweep share
    their degrees' results.

    Every kernel gives the degree's sums and runs: sums[j] holds each
    state's summed weight, over the scale D^(d+1), of the rows that reach
    levels[j], and runs(j) lists those rows as maximal runs (a, lo, hi) of
    rows (a, c, d - a - c), lo <= c < hi, in table order. Each level's sums
    are lifted to the top degree's scale D^(top+1) with one multiply each,
    added over the degrees, and divided by the scale once per level and
    state. Returns, per level, each state's expected fraction (relative to
    total_n agents) of agents whose context is a candidate over the given
    degree entries; and the scan, a (d, runs) pair per distinct degree in
    increasing order. The TABLE_ROW_GUARD check comes first on every
    path."""
    key = _type_key(prior.states)
    common, nums = key
    counts: dict[int, int] = {}  # Counter(list) would walk Mapping's subclass tree
    for d in degrees:
        counts[d] = counts.get(d, 0) + 1
    inside, outside = map(tuple, _split_weights(prior, candidate_states))
    distinct = _check_table_rows(key, counts)
    bounds = tuple((p.numerator, p.denominator) for p in levels)
    walk = None
    if all(map(all, nums)) and _mirrored(nums, inside) is not None:
        walk = _boundary_walk if len(nums) == 2 and inside.count(0) == 1 else _multistate_walk
    top = max(counts, default=0)
    totals = [[0] * len(nums) for _ in bounds]
    scan = []
    for d in distinct:
        kernel = walk if walk and 2 * len(bounds) <= d + 2 else _row_scan
        sums, runs = kernel(key, inside, outside, bounds, d)
        lift = counts[d] * common ** (top - d)
        for total, level in zip(totals, sums):
            for i, x in enumerate(level):
                total[i] += lift * x
        scan.append((d, runs))
    scale = common ** (top + 1) * total_n
    masses = [
        {s.label: Fraction(x, scale) for s, x in zip(prior.states, total)}
        for total in totals
    ]
    return masses, scan


@lru_cache(maxsize=4096)
def _row_scan(key, inside, outside, bounds, d):
    """`_candidate_masses`' kernel for any prior: the degree table's rows
    tested one by one. At one level the test is one whole-column pass,
    num R <= (den - num) S compared row by row in one `map`, with S and R
    lazy combinations of the columns, never stored. At several ascending
    distinct levels a bisection over the levels puts each row's index in
    the bin of the highest level it reaches. Each level's sums add the
    bins' weights from the highest level down to it, and its runs join
    the adjacent rows of those bins. Results are cached, as
    `_boundary_walk`'s are, and immutable."""
    contexts, columns = _degree_table(key, d)
    k = len(bounds)
    if k == 1:
        num, den = bounds[0]
        lhs = _combined(columns, [num * w for w in outside])
        rhs = _combined(columns, [(den - num) * w for w in inside])
        bins = ((), tuple(compress(range(len(contexts)), map(le, lhs, rhs))))
    else:
        bins = [[] for _ in range(k + 1)]  # bins[b]: rows reaching levels[:b]
        rows = zip(_combined(columns, inside), _combined(columns, outside))
        for r, (s, rest) in enumerate(rows):
            t = s + rest
            lo, hi = 0, k
            while lo < hi:
                mid = (lo + hi) // 2
                num, den = bounds[mid]
                if num * t <= den * s:
                    lo = mid + 1
                else:
                    hi = mid
            if lo:
                bins[lo].append(r)
        bins = tuple(map(tuple, bins))
    # From the highest level down, a level's sums add its bin to the sums above.
    weights = (
        tuple(sum(map(column.__getitem__, rows)) for column in columns) for rows in bins[:0:-1]
    )
    sums = tuple(accumulate(weights, lambda s, w: tuple(map(add, s, w))))[::-1]
    return sums, partial(_bin_runs, contexts, bins)


def _bin_runs(contexts, bins, j: int) -> tuple[tuple[int, int, int], ...]:
    runs = []
    for a, c, _v in map(contexts.__getitem__, sorted(chain.from_iterable(bins[j + 1 :]))):
        # A row right after the last run's end, in the same a-run, extends it.
        lo = runs.pop()[1] if runs and runs[-1][::2] == (a, c) else c
        runs.append((a, lo, c + 1))
    return tuple(runs)


@lru_cache(maxsize=4096)
def _boundary_walk(key, inside, outside, bounds, d):
    """`_candidate_masses`' kernel for two states, i the candidate and o
    the other, each with positive alpha, chi and nu numerators. With q_s =
    alpha_s^a chi_s^c nu_s^v, row (a, c, v = m - c), m = d - a, is a
    candidate at p = num/den iff num pi_o chi_o q_o <= (den - num) pi_i
    chi_i q_i: the binomials cancel, and the agent's own chi joins the
    level weights. Along an a-run, q_i / q_o changes by the constant
    factor chi_i nu_o / (chi_o nu_i), so a run's candidates are a suffix
    in c when that factor is at least 1. Otherwise they are a suffix in
    v, and the walk runs on the mirror, with chi and nu swapped in the
    sums U and the compares below and c counting nu neighbors.

    Per level, the walk goes from a = d down to 0 and keeps, per state,
    the suffix sum U_s(m, b) = sum over c >= b of C(m, c) chi_s^c
    nu_s^(m-c) at the run's boundary b. Stepping m with b fixed is
    U_s(m, b) = (chi_s + nu_s) U_s(m-1, b) + C(m-1, b-1) chi_s^b
    nu_s^(m-b); moving b adds or removes one term, and exact integer
    compares move it. The run adds C(d, a) alpha_s^a chi_s U_s to state
    s's sum. That is O(d + boundary moves) terms per level, against the
    table's (d+1)(d+2)/2 rows; the runs are (a, b, m + 1), or (a, 0, m -
    b + 1) on the mirror. Results are cached and immutable, as the tables
    and `_row_scan`'s results are, so a p sweep's trials share their
    walks."""
    i = 0 if inside[0] else 1
    (al_i, x_i, v_i), (al_o, x_o, v_o) = key[1][i], key[1][1 - i]

    def powers(base):
        return list(accumulate(repeat(base, d), mul, initial=1))

    pa_i, pa_o = powers(al_i), powers(al_o)
    binomials = [comb(d, a) for a in range(d + 1)]
    f_i = [x_i * k * p for k, p in zip(binomials, pa_i)]  # C(d, a) alpha^a chi
    f_o = [x_o * k * p for k, p in zip(binomials, pa_o)]
    own_i, own_o = inside[i] * x_i, outside[1 - i] * x_o
    mirror = x_i * v_o < x_o * v_i
    if mirror:
        x_i, v_i, x_o, v_o = v_i, x_i, v_o, x_o
    px_i, pv_i, px_o, pv_o = map(powers, (x_i, v_i, x_o, v_o))
    t_i, t_o = x_i + v_i, x_o + v_o
    sums, runs = [], []
    for num, den in bounds:
        w_o, w_i = num * own_o, (den - num) * own_i
        b, u_i, u_o, s_i, s_o, level = 0, 1, 1, 0, 0, []  # U(0, 0) = 1
        for a in range(d, -1, -1):
            m = d - a
            if m and b:
                k = comb(m - 1, b - 1)
                u_i = t_i * u_i + k * px_i[b] * pv_i[m - b]
                u_o = t_o * u_o + k * px_o[b] * pv_o[m - b]
            elif m:
                u_i *= t_i
                u_o *= t_o
            left, right = w_o * pa_o[a], w_i * pa_i[a]
            # Row c is a candidate iff left chi_o^c nu_o^(m-c) <= right
            # chi_i^c nu_i^(m-c); the boundary b is the first row of the
            # suffix of candidates.
            while b and (
                left * px_o[b - 1] * pv_o[m - b + 1] <= right * px_i[b - 1] * pv_i[m - b + 1]
            ):
                b -= 1
                k = comb(m, b)
                u_i += k * px_i[b] * pv_i[m - b]
                u_o += k * px_o[b] * pv_o[m - b]
            while b <= m and left * px_o[b] * pv_o[m - b] > right * px_i[b] * pv_i[m - b]:
                k = comb(m, b)
                u_i -= k * px_i[b] * pv_i[m - b]
                u_o -= k * px_o[b] * pv_o[m - b]
                b += 1
            s_i += f_i[a] * u_i
            s_o += f_o[a] * u_o
            if b <= m:
                level.append((a, 0, m - b + 1) if mirror else (a, b, m + 1))
        sums.append((s_i, s_o) if i == 0 else (s_o, s_i))
        runs.append(tuple(level[::-1]))
    return tuple(sums), tuple(runs).__getitem__


def _mirrored(nums, inside) -> Optional[bool]:
    """How the candidate set whose states have nonzero `inside` entries is
    walked, with chi/nu read from the positive type numerators `nums`:
    False when no outside state's chi/nu exceeds an inside state's, True
    when no inside state's exceeds an outside state's (the walk runs on
    the mirror), None when neither holds (the row scan). Along an a-run,
    row c's candidacy is the sign of sum_s beta_s r_s^c, r_s = chi_s /
    nu_s, with beta_s > 0 inside and < 0 outside. Divided by r^c, r the
    least inside ratio, the inside terms do not fall and the outside terms
    do not rise as c grows, so the sign changes at most once, ties across
    the split included: the candidates are a suffix in c (in v on the
    mirror)."""
    pairs = [
        (x_i * v_o, x_o * v_i)
        for (_a, x_i, v_i), w_i in zip(nums, inside) if w_i
        for (_b, x_o, v_o), w_o in zip(nums, inside) if not w_o
    ]
    if all(out <= ins for ins, out in pairs):
        return False
    if all(ins <= out for ins, out in pairs):
        return True
    return None


@lru_cache(maxsize=4096)
def _multistate_walk(key, inside, outside, bounds, d):
    """`_boundary_walk` for any candidate set that `_mirrored` orders, with
    every type numerator positive: row (a, c, v) is a candidate at p =
    num/den iff sum_s w_s alpha_s^a chi_s^c nu_s^v >= 0, with w_s = (den -
    num) pi_s chi_s inside the set and -num pi_s chi_s outside, and the
    candidates of an a-run are a suffix in c (in v on the mirror). The
    walk keeps one suffix sum U_s per state by the same recurrence and
    moves the boundary by the same exact compares. Two states with one
    candidate keep `_boundary_walk`'s unrolled loop, about twice as fast
    as these per-state lists."""
    nums = key[1]
    mirror = _mirrored(nums, inside)

    def powers(base):
        return list(accumulate(repeat(base, d), mul, initial=1))

    binomials = [comb(d, a) for a in range(d + 1)]
    pa = [powers(al) for al, _x, _v in nums]
    f = [[x * k * p for k, p in zip(binomials, ps)] for (_al, x, _v), ps in zip(nums, pa)]
    own = [(w_in * x, w_out * x) for (_al, x, _v), w_in, w_out in zip(nums, inside, outside)]
    if mirror:
        nums = [(al, v, x) for al, x, v in nums]
    states = [(powers(x), powers(v)) for _al, x, v in nums]
    t = [x + v for _al, x, v in nums]
    sums, runs = [], []
    for num, den in bounds:
        w = [(den - num) * o_in - num * o_out for o_in, o_out in own]
        b, u, s, level = 0, [1] * len(nums), [0] * len(nums), []  # U(0, 0) = 1
        for a in range(d, -1, -1):
            m = d - a
            if m and b:
                k = comb(m - 1, b - 1)
                u = [t_s * u_s + k * x[b] * v[m - b] for t_s, u_s, (x, v) in zip(t, u, states)]
            elif m:
                u = list(map(mul, t, u))
            coef = [w_s * p[a] for w_s, p in zip(w, pa)]
            # The boundary b is the first row of the suffix of candidates.
            while b and sum(
                cf * x[b - 1] * v[m - b + 1] for cf, (x, v) in zip(coef, states)
            ) >= 0:
                b -= 1
                k = comb(m, b)
                u = [u_s + k * x[b] * v[m - b] for u_s, (x, v) in zip(u, states)]
            while b <= m and sum(cf * x[b] * v[m - b] for cf, (x, v) in zip(coef, states)) < 0:
                k = comb(m, b)
                u = [u_s - k * x[b] * v[m - b] for u_s, (x, v) in zip(u, states)]
                b += 1
            s = [s_s + f_s[a] * u_s for s_s, f_s, u_s in zip(s, f, u)]
            if b <= m:
                level.append((a, 0, m - b + 1) if mirror else (a, b, m + 1))
        sums.append(tuple(s))
        runs.append(tuple(level[::-1]))
    return tuple(sums), tuple(runs).__getitem__


# ---------------------------------------------------------------------------
# The two-state algorithm and the promise procedure
# ---------------------------------------------------------------------------


def _two_state(
    degseq: DegreeSequence,
    prior: Prior,
    p_values: Iterable[Fraction],
    *,
    relabel: bool = False,
    revealed: int = 0,
) -> list[tuple[tuple, bool]]:
    """(answer, relabeled) at each p of `p_values` (mu from the prior), in
    order, where answer is the `_fixpoints` answer (sizes, survivors,
    last) from one fixpoint run (`revealed` is passed on), under the
    X_A >= X_B convention: the labels hold when B is not the only candidate
    (the only state whose chi+alpha mass reaches mu) and X_A >= X_B.
    Without `relabel` a violation raises, the candidate check before any
    table is built. With it, a p whose labels fail is relabeled when the
    exchanged labels hold; the fixpoint never reads the labels, so the
    sizes are the same. When neither holds, one state is the only
    candidate but has the smaller size, and that raises."""
    prior.require_two_states()
    mass = chi_alpha(prior)
    reach = [s for s in ("A", "B") if mass[s] >= prior.mu]
    sole = reach[0] if len(reach) == 1 else None
    if sole == "B" and not relabel:
        raise MislabeledStatesError("only state B is a candidate; labels appear swapped")
    out = []
    for answer in _fixpoints(
        degseq, prior, [(p, prior.mu) for p in p_values], revealed=revealed
    ):
        sizes = answer[0]
        if sole != "B" and sizes["A"] >= sizes["B"]:
            out.append((answer, False))
        elif not relabel:
            raise MislabeledStatesError("computed X_A < X_B; labels appear swapped")
        elif sole != "A" and sizes["B"] >= sizes["A"]:
            out.append((answer, True))
        else:
            other = "B" if sole == "A" else "A"
            raise MislabeledStatesError(
                f"only state {sole} is a candidate, but computed X_{sole} < "
                f"X_{other}; no labeling satisfies X_A >= X_B"
            )
    return out


def algorithm1(degseq: DegreeSequence, prior: Prior) -> dict[str, Fraction]:
    """Largest supported revolt size (expected fraction) per state, for the
    two-state case: the candidate-state fixpoint plus the label checks. If
    only B qualifies as a candidate, or the computed sizes come out
    reversed, the labels violate the X_A >= X_B convention and a relabel
    error is raised rather than a silently reordered answer.
    """
    return _two_state(degseq, prior, [prior.p])[0][0][0]


def revolting_rule(
    degseq: DegreeSequence, prior: Prior
) -> tuple[dict[str, Fraction], Optional[list[tuple[int, tuple]]]]:
    """The fixpoint's per-state sizes (alpha mass plus the mass of the
    revolting contexts) and the chi-centered contexts that revolt under the
    two-state largest-revolt reasoning: a (d, runs) pair per distinct
    degree in increasing order, the runs of the fixpoint's last candidacy
    pass (see `_candidate_masses`), with no second pass. They are None
    when every state survives: every chi agent then revolts, so no degree
    table is built (TABLE_ROW_GUARD still applies); and [] when no state
    survives. The labels are checked as `algorithm1` checks them, by the
    same `_two_state` call. Used by the Monte-Carlo validator."""
    (sizes, survivors, last), _relabeled = _two_state(degseq, prior, [prior.p])[0]
    if len(survivors) == len(prior.labels):
        _check_table_rows(_type_key(prior.states), degseq)
        return sizes, None
    scan, j = last or ((), 0)  # no pass when no state survives
    return sizes, [(d, runs(j)) for d, runs in scan]


def algorithm1_auto(
    degseq: DegreeSequence, prior: Prior
) -> tuple[dict[str, Fraction], bool]:
    """algorithm1 that relabels instead of raising when the exchanged labels
    hold: returns sizes keyed by the caller's original labels plus whether
    a relabel was needed."""
    return algorithm1_auto_grid(degseq, prior, (prior.p,))[0]


def algorithm1_auto_grid(
    degseq: DegreeSequence, prior: Prior, p_values: Iterable[Fraction]
) -> list[tuple[dict[str, Fraction], bool]]:
    """`algorithm1_auto` at each belief threshold p of `p_values` (mu from
    the prior), in order, from one pass over each degree table; the first
    p at which no labeling satisfies X_A >= X_B raises."""
    ps = [Fraction(p) for p in p_values]
    if not all(0 <= p <= 1 for p in ps):
        raise ValidationError("p values must lie in [0, 1]")
    return [
        (answer[0], relabeled)
        for answer, relabeled in _two_state(degseq, prior, ps, relabel=True)
    ]


def algorithm2(sizes: dict[str, Fraction], mu_star) -> PromiseOutcome:
    """Compare per-state largest-revolt sizes against the requested size."""
    mu_star = Fraction(mu_star)
    xa, xb = sizes["A"], sizes["B"]
    if xa < xb:
        raise ValidationError("algorithm2 requires X_A >= X_B")
    if xa >= mu_star and xb >= mu_star:
        return PromiseOutcome.OMEGA
    if xa >= mu_star:
        return PromiseOutcome.A
    return PromiseOutcome.EMPTY


def _perturbed_sizes(
    inst: PromiseInstance,
) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """Largest-revolt sizes with the thresholds nudged up and down by a third
    of the tolerance. Neither run depends on mu_star, so one pair serves a
    whole grid of requested sizes."""
    third_d, third_e = inst.delta / 3, inst.epsilon / 3
    up = replace(inst.prior, p=inst.prior.p + third_d, mu=inst.prior.mu + third_e)
    down = replace(inst.prior, p=inst.prior.p - third_d, mu=inst.prior.mu - third_e)
    return algorithm1(inst.degseq, up), algorithm1(inst.degseq, down)


def _agreed_outcome(pair, mu_star) -> PromiseOutcome:
    s1, s2 = (algorithm2(sizes, mu_star) for sizes in pair)
    return s1 if s1 == s2 else PromiseOutcome.NULL


def algorithm3(inst: PromiseInstance) -> PromiseOutcome:
    """Promise decision: run the size computation twice with thresholds
    nudged up and down by a third of the tolerance; agreement decides, any
    disagreement is Null."""
    return _agreed_outcome(_perturbed_sizes(inst), inst.mu_star)


def equilibria_map(
    degseq: DegreeSequence,
    prior: Prior,
    mu_grid: Iterable[Fraction],
    epsilon,
    delta,
) -> list[tuple[Fraction, PromiseOutcome]]:
    """Promise answers along a grid of requested sizes; the data behind the
    three-column supported/only-in-A/unsupported region picture."""
    seq = tuple(validate_degree_sequence(degseq))
    rows = []
    pair = None
    for mu_star in mu_grid:
        mu_star = _requested_size(mu_star)
        if pair is None:
            pair = _perturbed_sizes(
                PromiseInstance(seq, prior, mu_star, Fraction(epsilon), Fraction(delta))
            )
        rows.append((mu_star, _agreed_outcome(pair, mu_star)))
    return rows


def _ordered_levels(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The distinct values x / t of the integer pairs (x, t), 0 <= x <= t,
    t > 0, in increasing order, each as its reduced pair. They are sorted
    by the floats x / t and, to tell apart values near 1, x / t - 1,
    computed once per pair: int true division is correctly rounded and
    rounding is monotone, so keys that differ are in the exact order. Only
    runs of equal keys (duplicates, and values too small for a float) are
    ordered and deduplicated exactly, with Fractions; a level alone in its
    run is reduced with one gcd and builds no Fraction."""
    xs, ts = tuple(zip(*pairs)) or ((), ())
    keyed = sorted(zip(map(truediv, xs, ts), map(truediv, map(sub, xs, ts), ts), xs, ts))
    out = []
    for _key, run in groupby(keyed, key=itemgetter(0, 1)):
        run = list(run)
        if len(run) == 1:
            _k, _k1, x, t = run[0]
            g = gcd(x, t)
            out.append((x // g, t // g))
        else:
            levels = sorted({Fraction(x, t) for _k, _k1, x, t in run})
            out += ((q.numerator, q.denominator) for q in levels)
    return out


def crucial_threshold_pairs(
    degseq: DegreeSequence, prior: Prior
) -> dict[str, tuple[int, int]]:
    """The finite set of values the two-state computation compares p and mu
    against on this instance, for auditing how far a promise input sits from
    a decision boundary, each as its reduced integer pair (numerator,
    denominator). `e_A(candidates+alpha)` is X_A at the candidate-state
    fixpoint: A's alpha mass plus the mass of the candidate contexts of the
    surviving states. A's posterior levels are ordered by `_ordered_levels`
    from one pair (x_A, x_A + x_B) per possible row (a, c, v) of the
    distinct degrees, x_s = pi_s alpha_s^a chi_s^(c+1) nu_s^v over the
    integer weights: a table row's weights less the binomials and the
    scale, which cancel in the level. No degree table is built, but the
    rows are still counted against TABLE_ROW_GUARD first."""
    prior.require_two_states()
    seq = validate_degree_sequence(degseq)
    mass = chi_alpha(prior)
    sizes, _survivors = multistate_fixpoint(seq, prior)
    values = {
        "e_A(chi+alpha)": mass["A"],
        "e_B(chi+alpha)": mass["B"],
        "e_A(candidates+alpha)": sizes["A"],
    }
    out = {k: (q.numerator, q.denominator) for k, q in values.items()}
    key = _type_key(prior.states)
    alpha, chi, nu = _possible_types(key[1])
    _common, probs = integer_weights(s.prob for s in prior.states)
    states = list(zip(probs, key[1]))[:: 1 if prior.labels[0] == "A" else -1]
    pairs = []
    for d in _check_table_rows(key, seq) if chi else ():
        powers = [
            (pi, *(list(accumulate(repeat(base, d + 1), mul, initial=1)) for base in nums))
            for pi, nums in states
        ]
        for a in range(d + 1 if alpha else 1):
            # The run of rows with a alpha neighbors, c = first..m, v = m - c.
            m = d - a
            first = 0 if nu else m
            x_a, x_b = (
                list(map(mul, map(mul, px[first + 1 :], pv[m - first :: -1]), repeat(pi * pa[a])))
                for pi, pa, px, pv in powers
            )
            t = list(map(add, x_a, x_b))
            # A row that weighs zero in both states never occurs.
            pairs += compress(zip(x_a, t), t)
    for i, q in enumerate(_ordered_levels(pairs)):
        out[f"posterior_A_level_{i}"] = q
    return out


def crucial_thresholds(degseq: DegreeSequence, prior: Prior) -> dict[str, Fraction]:
    """`crucial_threshold_pairs` as Fractions."""
    return {k: Fraction(*q) for k, q in crucial_threshold_pairs(degseq, prior).items()}


# ---------------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------------


def smallest_revolt(degseq: DegreeSequence, prior: Prior) -> dict[str, Fraction]:
    """Expected size of the smallest supported revolt per state, via the
    action-relabeling symmetry: swap alpha/nu masses, cross the two state
    distributions, flip both thresholds, run the largest-revolt computation,
    and return one minus the size of the transformed world built from each
    original state. State probabilities travel with their worlds (the
    crossing preserves which world is which, so non-uniform state priors
    stay attached to the right distribution)."""
    prior.require_two_states()
    a, b = prior.state("A"), prior.state("B")
    transformed = Prior(
        p=1 - prior.p,
        mu=1 - prior.mu,
        states=(
            StatePrior("A", b.prob, b.types.swap_alpha_nu()),
            StatePrior("B", a.prob, a.types.swap_alpha_nu()),
        ),
    )
    sizes, _relabeled = algorithm1_auto(degseq, transformed)
    # Transformed A was built from original B and vice versa.
    return {"A": 1 - sizes["B"], "B": 1 - sizes["A"]}


def high_degree_cutoff(n: int, cutoff_c) -> int:
    """Smallest integer k with k >= cutoff_c * n^(1/3), computed exactly:
    with cutoff_c = a/b that is (k*b)^3 >= a^3 * n, found by bisection."""
    c = Fraction(cutoff_c)
    if c <= 0 or n < 1:
        raise ValidationError("need cutoff_c > 0 and n >= 1")
    target = c.numerator**3 * n
    lo, hi = 0, 1  # k = lo always falls short (target >= 1)
    while (hi * c.denominator) ** 3 < target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if (mid * c.denominator) ** 3 >= target else (mid, hi)
    return hi


def algorithm1_general(
    degseq: DegreeSequence,
    prior: Prior,
    cutoff_c=Fraction(1),
    epsilon=Fraction(1, 100),
) -> dict[str, Fraction]:
    """Arbitrary-degree variant: agents with degree >= cutoff_c * n^(1/3)
    (hubs) see enough of the graph to identify the state. A hub's posterior
    is a point mass on the true state, so a chi hub revolts exactly in the
    surviving candidate states (in every state when p = 0), without a
    belief calculation. When hubs are rarer than an epsilon fraction they
    are ignored and the base computation runs on the whole sequence
    unchanged."""
    prior.require_two_states()
    seq = validate_degree_sequence(degseq)
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    n = len(seq)
    cutoff = high_degree_cutoff(n, cutoff_c)
    low = [d for d in seq if d < cutoff]
    hubs = n - len(low)
    if Fraction(hubs, n) < epsilon:
        return algorithm1(seq, prior)
    return _two_state(low, prior, [prior.p], revealed=hubs)[0][0][0]


def multistate_fixpoint(
    degseq: DegreeSequence, prior: Prior
) -> tuple[dict[str, Fraction], frozenset]:
    """The candidate-state fixpoint behind every largest-revolt entry point,
    for any number of states: start from every state whose chi+alpha mass
    reaches mu, and repeatedly drop states that cannot sustain the revolt of
    the agents believing in the current candidate set. All failing states
    are dropped per round; the fixpoint is order-independent (it is the
    unique maximal self-supporting candidate set). Returns per-state sizes
    and the surviving set."""
    return _fixpoints(degseq, prior, [(prior.p, prior.mu)])[0][:2]


def _fixpoints(
    degseq: DegreeSequence,
    prior: Prior,
    thresholds: Iterable[tuple[Fraction, Fraction]],
    *,
    revealed: int = 0,
) -> list[tuple[dict[str, Fraction], frozenset, Optional[tuple]]]:
    """`multistate_fixpoint` at each (p, mu) of `thresholds`, in order; the
    prior's own p and mu are not read. Thresholds with the same candidate
    set share one pass over the degree tables, at all their distinct p.
    A set only shrinks from round to round, so handling the largest
    pending set first reaches each set once, with every threshold that
    will ever hold it.

    Each answer is (sizes, survivors, last): `last` is the scan of the
    candidacy pass the survivors passed and the index j of p among its
    levels, so that runs(j) are the revolting contexts; None when no pass
    decided the answer (every state or no state survives).

    `revealed` counts further agents, outside `degseq`, whose contexts
    reveal the true state: a chi agent among them believes the candidate
    set exactly in the states inside it, and revolts there (everywhere
    when p = 0)."""
    # Revealed agents alone make a nonempty population.
    seq = [] if revealed and not degseq else validate_degree_sequence(degseq)
    n = len(seq) + revealed
    labels = prior.labels
    e_alpha = {s.label: s.types.alpha for s in prior.states}
    chi = {s.label: s.types.chi for s in prior.states}
    mass = chi_alpha(prior)
    thresholds = list(thresholds)
    out: list = [None] * len(thresholds)
    pending: dict[frozenset, list[int]] = {}
    for i, (_p, mu) in enumerate(thresholds):
        survivors = frozenset(s for s in labels if mass[s] >= mu)
        if len(survivors) == len(labels):
            # Every context puts posterior 1 >= p on the full state set
            # (states have positive probability, so no possible context is
            # left out), so every chi agent revolts and no table is needed.
            out[i] = (dict(mass), survivors, None)
        else:
            pending.setdefault(survivors, []).append(i)
    while pending:
        survivors = max(pending, key=len)
        group = pending.pop(survivors)
        if not survivors:
            for i in group:
                out[i] = (dict(e_alpha), survivors, None)
            continue
        levels = sorted({thresholds[i][0] for i in group})
        masses, scan = _candidate_masses(prior, seq, survivors, levels, n)
        for i in group:
            p, mu = thresholds[i]
            j = bisect_left(levels, p)
            mass = masses[j]
            x = {s: e_alpha[s] + mass[s] for s in labels}
            if revealed:
                # A revealed chi agent's posterior on the candidate set is 1
                # in its states and 0 elsewhere, which meets p = 0 too.
                for s in survivors if p else labels:
                    x[s] += chi[s] * revealed / n
            failing = {s for s in survivors if x[s] < mu}
            if failing:
                pending.setdefault(survivors - failing, []).append(i)
            else:
                out[i] = (x, survivors, (scan, j))
    return out
