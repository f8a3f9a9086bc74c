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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, lcm

from .errors import BudgetExceededError, ValidationError
from .model import (
    AgentType,
    ConcreteGraph,
    ContextClass,
    Prior,
    StatePrior,
    TypeDistribution,
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


@dataclass(frozen=True)
class StrategyProfile:
    """A symmetric threshold profile. Alpha agents always revolt and nu
    agents never do, so `cells` holds only what the profile decides: the chi
    decision cells that play revolt. `trace` records each fixpoint
    iteration's cell set for auditing."""

    cells: frozenset
    trace: tuple = field(default=(), compare=False)

    def revolts(self, cell: Cell) -> bool:
        own = cell[1]
        if own is AgentType.ALPHA:
            return True
        if own is AgentType.NU:
            return False
        return cell in self.cells


class _Enumeration:
    """Every positive-probability type assignment of one (graph, prior)
    pair. Weights are integers over a per-state common denominator: an
    assignment in state s has probability state_scale[s] * weight. Each
    entry keeps the assignment's alpha count and its chi cells, which is all
    a profile needs to fix the realized revolt count."""

    def __init__(self, graph: ConcreteGraph, prior: Prior, budget: OracleBudget):
        n = graph.n
        cell_cost = sum(3 ** (graph.degree(v) + 1) for v in range(n))
        if cell_cost > budget.max_cell_cost:
            raise BudgetExceededError(
                f"decision-cell cost {cell_cost} exceeds budget "
                f"{budget.max_cell_cost}"
            )
        supports = []
        for s in prior.states:
            supports.append(tuple(t for t in AgentType if s.types.prob(t) > 0))
        total_assignments = sum(len(sup) ** n for sup in supports)
        if total_assignments > budget.max_assignments:
            raise BudgetExceededError(
                f"assignment count {total_assignments} exceeds budget "
                f"{budget.max_assignments}"
            )

        self.prior = prior
        self.n = n
        self.state_labels = prior.labels
        # entries: (state index, weight int, alpha count, chi cell tuple)
        self.entries = []
        self.state_scale: list[Fraction] = []  # prob_s / den_s^n
        neighbor_lists = [graph.neighbors(v) for v in range(n)]
        for si, s in enumerate(prior.states):
            dist = s.types
            den = lcm(*(dist.prob(t).denominator for t in AgentType))
            nums = {t: int(dist.prob(t) * den) for t in AgentType}
            self.state_scale.append(s.prob / Fraction(den**n))
            for types in product(supports[si], repeat=n):
                w = 1
                for t in types:
                    w *= nums[t]
                if w == 0:
                    continue
                alpha_count = sum(1 for t in types if t is AgentType.ALPHA)
                chis = tuple(
                    (v, AgentType.CHI, tuple(types[u] for u in neighbor_lists[v]))
                    for v in range(n)
                    if types[v] is AgentType.CHI
                )
                self.entries.append((si, w, alpha_count, chis))

        # Per-cell occurrence weight by state (profile-independent).
        totals: dict[Cell, list[int]] = {}
        for si, w, _ac, chis in self.entries:
            for cell in chis:
                totals.setdefault(cell, [0] * len(prior.states))[si] += w
        self.cell_mass = {cell: self._mass(ws) for cell, ws in totals.items()}
        self.possible_chi_cells = frozenset(totals)

    def _mass(self, weights: list[int]) -> Fraction:
        """Probability of a per-state list of integer weights."""
        return sum((s * w for s, w in zip(self.state_scale, weights)), ZERO)

    def _counts(self, revolting: frozenset):
        """(state index, weight, chi cells, realized revolt count) of every
        assignment under the profile."""
        for si, w, alpha_count, chis in self.entries:
            yield si, w, chis, alpha_count + sum(1 for c in chis if c in revolting)

    def _threshold_weights(self, revolting: frozenset) -> dict[Cell, list[int]]:
        """Per chi cell and state, the weight of the assignments in which the
        cell, forced to revolt with everyone else on the profile, brings the
        revolt count to mu*n. A count already there reaches it for every chi
        cell; a count one short, only for the cells that are not revolting."""
        need = ceil(self.prior.mu * self.n)
        weights = {cell: [0] * len(self.state_scale) for cell in self.cell_mass}
        for si, w, chis, count in self._counts(revolting):
            if count == need - 1:
                chis = [c for c in chis if c not in revolting]
            elif count < need:
                continue
            for cell in chis:
                weights[cell][si] += w
        return weights

    def best_response(self, revolting: frozenset) -> frozenset:
        """One monotone step: the chi cells whose forced-revolt threshold
        probability reaches p under the given profile."""
        p = self.prior.p
        return frozenset(
            cell
            for cell, ws in self._threshold_weights(revolting).items()
            if self._mass(ws) >= p * self.cell_mass[cell]
        )

    def revolt_size_distribution(self, revolting: frozenset) -> dict[int, Fraction]:
        """Ex ante distribution of the realized revolt count under the
        profile (summed over states and assignments)."""
        weights: dict[int, list[int]] = {}
        for si, w, _chis, count in self._counts(revolting):
            weights.setdefault(count, [0] * len(self.state_scale))[si] += w
        return {count: self._mass(ws) for count, ws in weights.items()}

    def expected_fraction(self, revolting: frozenset, state: str) -> Fraction:
        si_want = self.state_labels.index(state)
        total = sum(
            w * count for si, w, _chis, count in self._counts(revolting) if si == si_want
        )
        # state_scale / prob_s is 1 / den_s^n, the weights' denominator.
        scale = self.state_scale[si_want] / self.prior.states[si_want].prob
        return scale * total / self.n


def _iterate(enum: _Enumeration, start: frozenset) -> StrategyProfile:
    trace = [start]
    current = start
    for _ in range(len(enum.possible_chi_cells) + 2):
        nxt = enum.best_response(current)
        trace.append(nxt)
        if nxt == current:
            return StrategyProfile(cells=current, trace=tuple(trace))
        current = nxt
    raise AssertionError("threshold best-response iteration failed to converge")


def greatest_equilibrium(
    graph: ConcreteGraph, prior: Prior, budget: OracleBudget = DEFAULT_BUDGET
) -> StrategyProfile:
    """Greatest fixpoint of the threshold best-response map: start from every
    possible chi cell revolting and remove chi cells whose exact conditional
    revolt probability falls below p, until stable."""
    enum = _Enumeration(graph, prior, budget)
    return _iterate(enum, enum.possible_chi_cells)


def least_equilibrium(
    graph: ConcreteGraph, prior: Prior, budget: OracleBudget = DEFAULT_BUDGET
) -> StrategyProfile:
    """Least fixpoint: start from no chi cell revolting (alpha agents only)
    and add chi cells whose threshold is met, until stable."""
    enum = _Enumeration(graph, prior, budget)
    return _iterate(enum, frozenset())


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
    weights = enum._threshold_weights(profile.cells)
    return {
        cell: enum._mass(weights[cell]) / enum.cell_mass[cell]
        for cell in sorted(enum.possible_chi_cells, key=repr)
    }


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
    return enum.expected_fraction(profile.cells, state)


def revolt_decision(
    inst: RevoltInstance, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[bool, Fraction]:
    """Ex ante decision: under the greatest equilibrium, is a revolt of size
    at least mu_star * n realized with probability at least q_star? Returns
    the verdict and the exact probability."""
    enum = _Enumeration(inst.graph, inst.prior, budget)
    profile = _iterate(enum, enum.possible_chi_cells)
    n = inst.graph.n
    threshold = inst.mu_star * n
    prob = ZERO
    for count, mass in enum.revolt_size_distribution(profile.cells).items():
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
    import numpy as np

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
