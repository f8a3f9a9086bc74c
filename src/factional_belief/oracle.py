"""Exact ground truth on small concrete graphs: symmetric threshold
equilibria by monotone fixpoint iteration, the ex ante revolt decision by
exhaustive enumeration, and the clique-instance construction with an
independent clique search for cross-checking.

Unlike the degree-sequence algorithms, everything here conditions on the
actual edge set and on an agent's full observation: her own type plus the
type of each identified neighbor (the graph is common knowledge, so
neighbors are distinguishable and which neighbor carries which type is part
of the information; neighbor counts alone would under-inform the certainty
reasoning the clique construction relies on). Decision cells are therefore
(vertex, own type, per-neighbor type vector) triples, and every probability
is an exact rational accumulated in integer arithmetic over a common
denominator.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import ceil

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .model import (
    ALPHA_CODE,
    CHI_CODE,
    TYPES,
    AgentType,
    ConcreteGraph,
    ContextClass,
    Prior,
    StatePrior,
    TypeDistribution,
    integer_weights,
)

ZERO = Fraction(0)

# A decision cell: (vertex, own type, types of its neighbors in sorted
# neighbor-id order).
Cell = tuple[int, AgentType, tuple[AgentType, ...]]


def cell_context(cell: Cell) -> ContextClass:
    """Forget neighbor identities: the identity-agnostic class of a cell."""
    _v, own, ntypes = cell
    return ContextClass(
        own,
        sum(1 for t in ntypes if t is AgentType.ALPHA),
        sum(1 for t in ntypes if t is AgentType.CHI),
        sum(1 for t in ntypes if t is AgentType.NU),
    )


@dataclass(frozen=True)
class OracleBudget:
    """Enumeration guards. `max_cell_cost` bounds the total number of
    decision cells, sum over vertices of 3^(degree+1); `max_assignments`
    bounds the number of positive-probability type assignments across states
    (the cell formula alone would admit sparse graphs whose assignment space
    still explodes)."""

    max_cell_cost: int = 10_000
    max_assignments: int = 200_000


DEFAULT_BUDGET = OracleBudget()


@dataclass(frozen=True)
class RevoltInstance:
    graph: ConcreteGraph
    prior: Prior
    mu_star: Fraction
    q_star: Fraction

    def __post_init__(self):
        object.__setattr__(self, "mu_star", Fraction(self.mu_star))
        object.__setattr__(self, "q_star", Fraction(self.q_star))
        if not (0 <= self.mu_star <= 1 and 0 <= self.q_star <= 1):
            raise ValidationError("mu_star and q_star must lie in [0, 1]")


@dataclass(frozen=True)
class StrategyProfile:
    """A symmetric threshold profile. Alpha agents always revolt and nu
    agents never do, so `cells` holds only what the profile decides: the chi
    decision cells that play revolt. `trace` records each fixpoint
    iteration's cell set for auditing."""

    cells: frozenset
    trace: tuple = field(default=(), compare=False)


def _weigh(keys, classes, counts, weights, out) -> None:
    """out[key] += count * weights[class] for each nonzero (key, class)
    count: the one place where int64 counts meet big-int class weights."""
    for key, k, m in zip(keys.tolist(), classes.tolist(), counts.tolist()):
        out[key] += m * weights[k]


class _Support:
    """Every assignment over one support (a tuple of type codes), as an
    int8 array enumerated once, reduced to what a profile needs: each row's
    alpha count and class index (class = (#alpha, #chi), the only thing a
    row's weight depends on), and one entry per chi vertex of a row with its
    cell id and its (cell, class) pair index."""

    def __init__(self, codes, n, nbr_table, pow_table, offsets):
        k = len(codes)
        self.rows = rows = k**n
        # Column n is what the neighbor table's padding slots read; their
        # power is 0, so its value never counts.
        types = np.zeros((rows, n + 1), np.int8)
        row = np.arange(rows, dtype=np.int64)
        code_of = np.asarray(codes, np.int8)
        for v in range(n):
            types[:, v] = code_of[row // k ** (n - 1 - v) % k]
        alpha = np.count_nonzero(types[:, :n] == ALPHA_CODE, axis=1)
        chi = types[:, :n] == CHI_CODE
        class_keys, self.cls = np.unique(
            alpha * (n + 1) + np.count_nonzero(chi, axis=1), return_inverse=True
        )
        self.alpha = alpha.astype(np.int64)
        self.classes = [divmod(int(key), n + 1) for key in class_keys]
        n_cls = len(self.classes)

        self.e_row, e_v = np.nonzero(chi)
        self.e_id = offsets[e_v]
        for i in range(nbr_table.shape[1]):
            digit = types[self.e_row, nbr_table[e_v, i]]
            self.e_id = self.e_id + digit * pow_table[e_v, i]
        pair_keys, self.e_pair, self.pair_counts = np.unique(
            self.e_id * n_cls + self.cls[self.e_row],
            return_inverse=True,
            return_counts=True,
        )
        self.pair_cell, self.pair_cls = np.divmod(pair_keys, n_cls)
        self.n_cls = n_cls
        self.weights = [0] * n_cls  # per class, summed over the states here

    def revolt_counts(self, revolting: np.ndarray) -> np.ndarray:
        """Realized revolt count of every row under the profile."""
        chi = np.bincount(self.e_row, weights=revolting[self.e_id], minlength=self.rows)
        return self.alpha + chi.astype(np.int64)

    def add_threshold_weights(self, revolting: np.ndarray, need: int, out) -> None:
        """Add, per chi cell, the weight of the rows in which the cell,
        forced to revolt with everyone else on the profile, brings the
        revolt count to `need`. A count already there reaches it for every
        chi cell; a count one short, only for the cells that are not
        revolting."""
        count = self.revolt_counts(revolting)[self.e_row]
        take = (count >= need) | ((count == need - 1) & ~revolting[self.e_id])
        hits = np.bincount(self.e_pair[take], minlength=len(self.pair_cell))
        nz = np.flatnonzero(hits)
        _weigh(self.pair_cell[nz], self.pair_cls[nz], hits[nz], self.weights, out)

    def count_classes(self, revolting: np.ndarray):
        """(revolt count, class, number of rows) for every pair that occurs."""
        keys, rows = np.unique(
            self.revolt_counts(revolting) * self.n_cls + self.cls, return_counts=True
        )
        counts, classes = np.divmod(keys, self.n_cls)
        return counts, classes, rows


class _Enumeration:
    """Every positive-probability type assignment of one (graph, prior)
    pair, on arrays. Types are coded alpha 0, chi 1, nu 2; the chi cell of
    vertex v is the integer offset[v] + the base-3 code of its neighbors'
    types (first neighbor most significant), with offset[v] the sum of
    3^deg(u) over u < v, and a profile is a bool array over cell ids. States
    with the same support share one `_Support`. All weights are integers
    over the common denominator `den`: a row of class (a, c) in state s
    weighs `state_weight(s, a, c)`."""

    def __init__(self, graph: ConcreteGraph, prior: Prior, budget: OracleBudget):
        n = graph.n
        degrees = graph.degree_sequence()
        cell_cost = sum(3 ** (d + 1) for d in degrees)
        if cell_cost > budget.max_cell_cost:
            raise BudgetExceededError(
                f"decision-cell cost {cell_cost} exceeds budget "
                f"{budget.max_cell_cost}"
            )
        supports = [
            tuple(code for code, t in enumerate(TYPES) if s.types.prob(t) > 0)
            for s in prior.states
        ]
        total_assignments = sum(len(sup) ** n for sup in supports)
        if total_assignments > budget.max_assignments:
            raise BudgetExceededError(
                f"assignment count {total_assignments} exceeds budget "
                f"{budget.max_assignments}"
            )

        self.prior = prior
        self.n = n
        self.need = ceil(prior.mu * n)
        self.degrees = degrees
        self.offsets = [0]
        for d in degrees:
            self.offsets.append(self.offsets[-1] + 3**d)
        self.n_ids = self.offsets[-1]

        # Per state: the type numerators over the state's own denominator,
        # and the factor that brings prob_s / den_s^n to the common `den`.
        self._nums = []
        scales = []
        for s in prior.states:
            den_s, nums = integer_weights(s.types.prob(t) for t in TYPES)
            self._nums.append(nums)
            scales.append(s.prob / den_s**n)
        self.den, self._scales = integer_weights(scales)

        # Row v lists v's neighbors (CSR order, ascending) and the base-3
        # place value of each, 3^(d-1) for the first; pads are vertex n.
        width = max(degrees, default=0)
        deg = np.diff(graph.indptr)
        heads = np.repeat(np.arange(n), deg)
        slots = np.arange(len(heads)) - graph.indptr[heads]
        nbr_table = np.full((n, width), n, np.int64)
        pow_table = np.zeros((n, width), np.int64)
        nbr_table[heads, slots] = graph.indices
        places = np.array([3**i for i in range(width)], np.int64)
        pow_table[heads, slots] = places[deg[heads] - 1 - slots]
        offsets = np.asarray(self.offsets[:-1], np.int64)

        self.supports: list[_Support] = []
        self.state_support: list[_Support] = []
        built: dict[tuple, _Support] = {}
        for si, codes in enumerate(supports):
            if codes not in built:
                built[codes] = _Support(codes, n, nbr_table, pow_table, offsets)
                self.supports.append(built[codes])
            sup = built[codes]
            for k, (a, c) in enumerate(sup.classes):
                sup.weights[k] += self.state_weight(si, a, c)
            self.state_support.append(sup)

        # Per-cell occurrence weight (profile-independent).
        self.cell_mass = [0] * self.n_ids
        possible = np.zeros(self.n_ids, bool)
        for sup in self.supports:
            _weigh(
                sup.pair_cell, sup.pair_cls, sup.pair_counts, sup.weights, self.cell_mass
            )
            possible[sup.pair_cell] = True
        self.possible = possible
        self.possible_ids = np.flatnonzero(possible).tolist()
        self._cells: dict[int, Cell] = {}

    def state_weight(self, si: int, a: int, c: int) -> int:
        """Weight over `den` of one assignment with a alpha and c chi agents
        in state si."""
        na, nc, nn = self._nums[si]
        return self._scales[si] * na**a * nc**c * nn ** (self.n - a - c)

    def threshold_weights(self, revolting: np.ndarray) -> list[int]:
        """Per cell id, the weight of the assignments in which the cell,
        forced to revolt with everyone else on the profile, reaches mu*n."""
        weights = [0] * self.n_ids
        for sup in self.supports:
            sup.add_threshold_weights(revolting, self.need, weights)
        return weights

    def best_response(self, revolting: np.ndarray) -> np.ndarray:
        """One monotone step: the chi cells whose forced-revolt threshold
        probability reaches p under the given profile."""
        p = self.prior.p
        thr, mass = self.threshold_weights(revolting), self.cell_mass
        out = np.zeros(self.n_ids, bool)
        out[[
            i for i in self.possible_ids
            if p.denominator * thr[i] >= p.numerator * mass[i]
        ]] = True
        return out

    def revolt_size_distribution(self, revolting: np.ndarray) -> dict[int, Fraction]:
        """Ex ante distribution of the realized revolt count under the
        profile (summed over states and assignments)."""
        weights: dict[int, int] = defaultdict(int)
        for sup in self.supports:
            counts, classes, rows = sup.count_classes(revolting)
            _weigh(counts, classes, rows, sup.weights, weights)
        return {count: Fraction(w, self.den) for count, w in weights.items()}

    def expected_fraction(self, revolting: np.ndarray, state: str) -> Fraction:
        si = self.prior.labels.index(state)
        counts, classes, rows = self.state_support[si].count_classes(revolting)
        class_of = self.state_support[si].classes
        total = 0
        for count, k, m in zip(counts.tolist(), classes.tolist(), rows.tolist()):
            total += m * count * self.state_weight(si, *class_of[k])
        return Fraction(total, self.den) / self.prior.states[si].prob / self.n

    def profile_mask(self, cells) -> np.ndarray:
        """A profile's cells as a bool array over cell ids; anything that is
        not a chi cell of this graph matches no assignment and is dropped."""
        mask = np.zeros(self.n_ids, bool)
        for v, own, ntypes in cells:
            if own is not AgentType.CHI or not 0 <= v < self.n:
                continue
            if len(ntypes) == self.degrees[v]:
                code = 0
                for t in ntypes:
                    code = 3 * code + TYPES.index(t)
                mask[self.offsets[v] + code] = True
        return mask

    def cell(self, i: int) -> Cell:
        """The `Cell` tuple of a cell id."""
        if i not in self._cells:
            v = bisect_right(self.offsets, i) - 1
            code, digits = i - self.offsets[v], []
            for _ in range(self.degrees[v]):
                code, t = divmod(code, 3)
                digits.append(TYPES[t])
            self._cells[i] = (v, AgentType.CHI, tuple(reversed(digits)))
        return self._cells[i]

    def cells(self, mask: np.ndarray) -> frozenset:
        return frozenset(self.cell(i) for i in np.flatnonzero(mask).tolist())


def _iterate(enum: _Enumeration, start: np.ndarray) -> list[np.ndarray]:
    """The best-response trace from `start` to its fixpoint (the last two
    entries are equal)."""
    trace = [start]
    for _ in range(len(enum.possible_ids) + 2):
        trace.append(enum.best_response(trace[-1]))
        if np.array_equal(trace[-1], trace[-2]):
            return trace
    raise AssertionError("threshold best-response iteration failed to converge")


def _profile(enum: _Enumeration, start: np.ndarray) -> StrategyProfile:
    trace = tuple(enum.cells(mask) for mask in _iterate(enum, start))
    return StrategyProfile(cells=trace[-1], trace=trace)


def greatest_equilibrium(
    graph: ConcreteGraph, prior: Prior, budget: OracleBudget = DEFAULT_BUDGET
) -> StrategyProfile:
    """Greatest fixpoint of the threshold best-response map: start from every
    possible chi cell revolting and remove chi cells whose exact conditional
    revolt probability falls below p, until stable."""
    enum = _Enumeration(graph, prior, budget)
    return _profile(enum, enum.possible)


def least_equilibrium(
    graph: ConcreteGraph, prior: Prior, budget: OracleBudget = DEFAULT_BUDGET
) -> StrategyProfile:
    """Least fixpoint: start from no chi cell revolting (alpha agents only)
    and add chi cells whose threshold is met, until stable."""
    enum = _Enumeration(graph, prior, budget)
    return _profile(enum, np.zeros(enum.n_ids, bool))


def threshold_probabilities(
    graph: ConcreteGraph,
    prior: Prior,
    profile: StrategyProfile,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> dict[Cell, Fraction]:
    """Exact conditional threshold probability of every possible chi cell
    under the profile: Pr[revolt count reaches mu*n | the cell's
    observation], with the cell itself forced to revolt and everyone else on
    the profile (for fixpoint soundness audits)."""
    enum = _Enumeration(graph, prior, budget)
    weights = enum.threshold_weights(enum.profile_mask(profile.cells))
    probs = {
        enum.cell(i): Fraction(weights[i], enum.cell_mass[i]) for i in enum.possible_ids
    }
    return {cell: probs[cell] for cell in sorted(probs, key=repr)}


def expected_revolt_fraction(
    graph: ConcreteGraph,
    prior: Prior,
    profile: StrategyProfile,
    state: str,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> Fraction:
    """Expected realized revolt fraction in the given state under the
    profile."""
    enum = _Enumeration(graph, prior, budget)
    return enum.expected_fraction(enum.profile_mask(profile.cells), state)


def revolt_decision(
    inst: RevoltInstance, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[bool, Fraction]:
    """Ex ante decision: under the greatest equilibrium, is a revolt of size
    at least mu_star * n realized with probability at least q_star? Returns
    the verdict and the exact probability."""
    enum = _Enumeration(inst.graph, inst.prior, budget)
    cells = _iterate(enum, enum.possible)[-1]
    threshold = inst.mu_star * inst.graph.n
    prob = ZERO
    for count, mass in enum.revolt_size_distribution(cells).items():
        if count >= threshold:
            prob += mass
    return prob >= inst.q_star, prob


def clique_reduction(graph: ConcreteGraph, k: int) -> RevoltInstance:
    """Build the revolt instance whose answer matches k-clique existence:
    certainty thresholds (p = 1, mu = k/n) with a state that is almost
    surely chi against a state that is surely nu."""
    n = graph.n
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= k <= n, got k={k}, n={n}")
    prior = Prior(
        p=Fraction(1),
        mu=Fraction(k, n),
        states=(
            StatePrior(
                "A",
                Fraction(1, 2),
                TypeDistribution(
                    alpha=ZERO, chi=Fraction(99, 100), nu=Fraction(1, 100)
                ),
            ),
            StatePrior(
                "B",
                Fraction(1, 2),
                TypeDistribution(alpha=ZERO, chi=ZERO, nu=Fraction(1)),
            ),
        ),
    )
    return RevoltInstance(
        graph=graph,
        prior=prior,
        mu_star=Fraction(k, n),
        q_star=Fraction(99, 100) ** k / 2,
    )


def clique_exists(graph: ConcreteGraph, k: int) -> bool:
    """Exhaustive k-clique search (guarded to n <= 20)."""
    n = graph.n
    if n > 20:
        raise ValidationError("clique search limited to 20 vertices")
    if k < 1:
        raise ValidationError("k must be positive")
    if k == 1:
        return n >= 1
    if k > n:
        return False
    candidates = [v for v in range(n) if graph.degree(v) >= k - 1]
    for combo in combinations(candidates, k):
        if all(graph.has_edge(u, v) for u, v in combinations(combo, 2)):
            return True
    return False


def nonisomorphic_graphs(n: int) -> list[ConcreteGraph]:
    """All simple graphs on n vertices up to isomorphism (n <= 6), found by
    canonicalizing every edge mask to its minimum over vertex permutations."""
    if not 1 <= n <= 6:
        raise ValidationError("isomorphism-reduced catalog limited to n <= 6")
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    bits = len(pairs)
    masks = np.arange(1 << bits, dtype=np.int64)
    canon = masks.copy()
    for perm in permutations(range(n)):
        dst = [
            index[(min(perm[u], perm[v]), max(perm[u], perm[v]))]
            for u, v in pairs
        ]
        out = np.zeros_like(masks)
        for i in range(bits):
            out |= ((masks >> i) & 1) << dst[i]
        np.minimum(canon, out, out=canon)
    reps = sorted(set(int(x) for x in canon))
    graphs = []
    for mask in reps:
        edges = [pairs[i] for i in range(bits) if mask >> i & 1]
        graphs.append(ConcreteGraph(n, edges))
    return graphs
