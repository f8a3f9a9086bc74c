"""Finite epistemic models: belief operators, evident belief, and common
belief among a population fraction.

Outcome spaces are finite, probabilities are exact rationals, and events are
plain frozensets of outcome labels. Two characterizations of common belief
are implemented: the hierarchy fixpoint and an exhaustive search over
witness events; agreement between them is what makes the fixpoint
machine-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Hashable, Iterable, Mapping

from .errors import InvalidAgentError, SpaceTooLargeError, ValidationError

Outcome = Hashable
Event = frozenset

SEARCH_GUARD = 20  # outcomes; search enumerates all 2^|outcomes| events
FIXPOINT_GUARD = 100_000  # witness-set pairs (J1, J2) the fixpoint may enumerate


@dataclass(frozen=True)
class FiniteProbSpace:
    """Finite outcome space with strictly positive rational probabilities."""

    outcomes: tuple[Outcome, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(
            self, "probs", tuple(Fraction(p) for p in self.probs)
        )
        if len(self.outcomes) != len(self.probs):
            raise ValidationError("one probability per outcome required")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValidationError("outcome labels must be unique")
        if not self.outcomes:
            raise ValidationError("outcome space must be nonempty")
        for o, p in zip(self.outcomes, self.probs):
            if p <= 0:
                raise ValidationError(f"outcome {o!r} must have positive probability")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValidationError("probabilities must sum to exactly 1")

    @classmethod
    def from_mapping(cls, prob: Mapping[Outcome, Fraction]) -> "FiniteProbSpace":
        items = list(prob.items())
        return cls(tuple(o for o, _ in items), tuple(p for _, p in items))

    @classmethod
    def uniform(cls, outcomes: Iterable[Outcome]) -> "FiniteProbSpace":
        outs = tuple(outcomes)
        return cls(outs, tuple(Fraction(1, len(outs)) for _ in outs))

    def prob_of(self, event: Iterable[Outcome]) -> Fraction:
        members = set(event)
        return sum(
            (p for o, p in zip(self.outcomes, self.probs) if o in members),
            Fraction(0),
        )

    def universe(self) -> Event:
        return frozenset(self.outcomes)


@dataclass(frozen=True)
class AgentPartition:
    """Information partition: disjoint nonempty cells covering the space."""

    cells: tuple[Event, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "cells", tuple(frozenset(c) for c in self.cells)
        )
        if any(not c for c in self.cells):
            raise ValidationError("partition cells must be nonempty")

    def cell_of(self, outcome: Outcome) -> Event:
        for c in self.cells:
            if outcome in c:
                return c
        raise ValidationError(f"outcome {outcome!r} not covered by partition")


@dataclass(frozen=True)
class EpistemicModel:
    """A finite probability space plus one information partition per agent."""

    space: FiniteProbSpace
    agents: tuple[str, ...]
    partitions: tuple[AgentPartition, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        if len(self.agents) != len(self.partitions):
            raise ValidationError("one partition per agent required")
        if len(set(self.agents)) != len(self.agents):
            raise ValidationError("agent ids must be unique")
        if not self.agents:
            raise ValidationError("at least one agent required")
        universe = self.space.universe()
        for agent, part in zip(self.agents, self.partitions):
            seen: set = set()
            for cell in part.cells:
                if not cell <= universe:
                    raise ValidationError(
                        f"partition of agent {agent!r} leaves the outcome space"
                    )
                if seen & cell:
                    raise ValidationError(
                        f"partition cells of agent {agent!r} overlap"
                    )
                seen |= cell
            if seen != set(universe):
                raise ValidationError(
                    f"partition of agent {agent!r} does not cover the space"
                )

    @classmethod
    def make(
        cls,
        prob: Mapping[Outcome, Fraction],
        partitions: Mapping[str, Iterable[Iterable[Outcome]]],
    ) -> "EpistemicModel":
        space = FiniteProbSpace.from_mapping(prob)
        agents = tuple(partitions)
        parts = tuple(
            AgentPartition(tuple(frozenset(c) for c in partitions[a]))
            for a in agents
        )
        return cls(space, agents, parts)

    def partition(self, agent: str) -> AgentPartition:
        try:
            return self.partitions[self.agents.index(agent)]
        except ValueError:
            raise InvalidAgentError(f"unknown agent {agent!r}") from None

    def check_event(self, event: Iterable[Outcome]) -> Event:
        e = frozenset(event)
        if not e <= self.space.universe():
            raise ValidationError(f"event {set(e)!r} contains unknown outcomes")
        return e


def belief_operator(
    model: EpistemicModel, agent: str, p: Fraction, event: Iterable[Outcome]
) -> Event:
    """Outcomes at which the agent assigns conditional probability >= p to
    the event, given her partition cell. Exact comparison."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValidationError("p must lie in [0, 1]")
    e = model.check_event(event)
    part = model.partition(agent)
    believed: set = set()
    for cell in part.cells:
        # Pr[e | cell] >= p, cross-multiplied to avoid a division.
        if model.space.prob_of(e & cell) >= p * model.space.prob_of(cell):
            believed |= cell
    return frozenset(believed)


def _check_mu(mu) -> Fraction:
    """mu as an exact Fraction, rejected outside [0, 1]."""
    mu = Fraction(mu)
    if not 0 <= mu <= 1:
        raise ValidationError("mu must lie in [0, 1]")
    return mu


def _fraction_believers_at_least(
    model: EpistemicModel, mu: Fraction, per_agent: list[Event]
) -> Event:
    """Outcomes where at least a mu fraction of agents are in their
    respective believed events."""
    need = mu * len(model.agents)
    out = set()
    for o in model.space.outcomes:
        count = sum(1 for ev in per_agent if o in ev)
        if count >= need:
            out.add(o)
    return frozenset(out)


def is_evident_belief(
    model: EpistemicModel, p: Fraction, mu: Fraction, event: Iterable[Outcome]
) -> tuple[bool, frozenset]:
    """Whether the event, whenever it occurs, is believed at level p by at
    least a mu fraction of agents. Returns the maximal witness agent set."""
    mu = _check_mu(mu)
    e = model.check_event(event)
    witnesses = frozenset(
        a for a in model.agents if e <= belief_operator(model, a, p, e)
    )
    return len(witnesses) >= mu * len(model.agents), witnesses


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _witness_chain(
    model: EpistemicModel,
    p: Fraction,
    believers: tuple[str, ...],
    anchor: Event,
) -> list[Event]:
    """Decreasing chain to the largest event E inside `anchor` with
    E <= B_j(E) for every j in `believers`: iterate
    E -> anchor & intersection of B_j(E) from E = anchor until stable.
    Stabilizes within |outcomes| + 1 steps (each strict step drops an
    outcome); exceeding the cap signals a bug, not bad input."""
    chain = [anchor]
    current = anchor
    for _ in range(len(model.space.outcomes) + 1):
        nxt = anchor
        for j in believers:
            nxt &= belief_operator(model, j, p, current)
        chain.append(nxt)
        if nxt == current:
            return chain
        current = nxt
    raise AssertionError("witness chain failed to stabilize within the cap")


def hierarchy_levels(
    model: EpistemicModel, p: Fraction, mu: Fraction, f: Iterable[Outcome], depth: int
) -> list[Event]:
    """The raw belief-hierarchy levels over f: level n is "at least a mu
    fraction of agents p-believe level n-1". Exposed for study; note the raw
    level sequence need not be monotone, because the believing fraction may
    be a different set of agents at different outcomes."""
    mu = _check_mu(mu)
    current = model.check_event(f)
    levels = []
    for _ in range(depth):
        per_agent = [belief_operator(model, a, p, current) for a in model.agents]
        current = _fraction_believers_at_least(model, mu, per_agent)
        levels.append(current)
    return levels


def common_belief_fixpoint(
    model: EpistemicModel, p: Fraction, mu: Fraction, f: Iterable[Outcome]
) -> Event:
    """All outcomes at which f is common belief among a mu fraction.

    Computed as the union, over witness agent sets J1 (who must find the
    event self-evident) and J2 (who must believe f on it) of the minimal
    qualifying size, of the greatest event E with E <= B_j(E) for all j in
    J1 and E <= B_j(f) for all j in J2. Each inner computation is a
    decreasing chain stabilizing within |outcomes| + 1 steps.

    The witness sets are uniform over the event, exactly as the evident-
    belief definition requires; this is what makes membership here agree
    with the exhaustive witness-event search. (The raw hierarchy levels of
    `hierarchy_levels`, where the believing fraction may differ outcome by
    outcome, can overshoot: their intersection is a superset of this event
    in general.)

    Raises SpaceTooLargeError, before any enumeration, when the number of
    (J1, J2) pairs exceeds FIXPOINT_GUARD.
    """
    mu = _check_mu(mu)
    f = model.check_event(f)
    agents = model.agents
    need = _ceil_fraction(mu * len(agents))
    if need == 0:
        return model.space.universe()
    pairs = comb(len(agents), need) ** 2
    if pairs > FIXPOINT_GUARD:
        raise SpaceTooLargeError(
            f"common-belief fixpoint limited to {FIXPOINT_GUARD} witness-set "
            f"pairs; {len(agents)} agents at mu={mu} need {pairs}"
        )
    result: set = set()
    belief_of_f = {a: belief_operator(model, a, p, f) for a in agents}
    for j2 in combinations(agents, need):
        anchor = model.space.universe()
        for j in j2:
            anchor &= belief_of_f[j]
        if not anchor:
            continue
        for j1 in combinations(agents, need):
            best = _witness_chain(model, p, j1, anchor)[-1]
            result |= best
    return frozenset(result)


def _events(model: EpistemicModel) -> list[Event]:
    """All 2^|outcomes| events of the model, smallest bit patterns first.
    Raises SpaceTooLargeError past SEARCH_GUARD outcomes."""
    outcomes = model.space.outcomes
    m = len(outcomes)
    if m > SEARCH_GUARD:
        raise SpaceTooLargeError(
            f"exhaustive event search limited to {SEARCH_GUARD} outcomes; "
            f"model has {m}"
        )
    return [
        frozenset(outcomes[i] for i in range(m) if bits >> i & 1)
        for bits in range(1 << m)
    ]


def _search(
    events: list[Event],
    beliefs: Callable[[Event], list[Event]],
    need: Fraction,
    f: Event,
) -> Event:
    """Union of the witness events: every event e that at least `need`
    agents p-believe f on (e <= B_a(f)) and at least `need` agents find
    evident (e <= B_a(e)). `beliefs(e)` returns each agent's B_a(e). The
    cheap test on f runs first, and an event already inside the union can
    add nothing, so neither pays for its own belief sets. The empty event is
    vacuously a witness but contains no outcome."""
    believe_f = beliefs(f)
    result: Event = frozenset()
    for e in events:
        if e <= result or sum(1 for b in believe_f if e <= b) < need:
            continue
        if sum(1 for b in beliefs(e) if e <= b) >= need:
            result |= e
    return result


def common_belief_search_set(
    model: EpistemicModel, p: Fraction, mu: Fraction, f: Iterable[Outcome]
) -> Event:
    """All outcomes at which f is common belief, certified by exhaustively
    searching witness events. Independent of the fixpoint construction: it
    unions every evident event whose occurrence forces a mu fraction to
    p-believe f. Belief sets are computed only for the events the search
    reaches."""
    mu = _check_mu(mu)
    events = _events(model)
    f = model.check_event(f)

    def beliefs(e: Event) -> list[Event]:
        return [belief_operator(model, a, p, e) for a in model.agents]

    return _search(events, beliefs, mu * len(model.agents), f)


def common_belief_by_search(
    model: EpistemicModel,
    p: Fraction,
    mu: Fraction,
    f: Iterable[Outcome],
    omega: Outcome,
) -> bool:
    """Whether f is common belief at omega, decided by witness-event search."""
    if omega not in model.space.universe():
        raise ValidationError(f"unknown outcome {omega!r}")
    return omega in common_belief_search_set(model, p, mu, f)


def check_fixpoint_search_agreement(
    model: EpistemicModel, p: Fraction, mu: Fraction
) -> bool:
    """Verify, for every event f, that search-certified common belief agrees
    with membership in the hierarchy fixpoint. The search side builds the
    table of every agent's belief in every event once and shares it across
    all f, so the full sweep is feasible for the small models this is meant
    for."""
    events = _events(model)
    need = _check_mu(mu) * len(model.agents)
    table = {
        e: [belief_operator(model, a, p, e) for a in model.agents] for e in events
    }
    return all(
        _search(events, table.__getitem__, need, f)
        == common_belief_fixpoint(model, p, mu, f)
        for f in events
    )


def check_operator_laws(model: EpistemicModel, p: Fraction) -> bool:
    """Verify monotonicity and idempotence of the belief operator over all
    event pairs of the model (guarded exhaustive sweep)."""
    all_events = _events(model)
    for a in model.agents:
        b = {e: belief_operator(model, a, p, e) for e in all_events}
        for e in all_events:
            if b[b[e]] != b[e]:
                return False
        for e in all_events:
            for f in all_events:
                if e <= f and not b[e] <= b[f]:
                    return False
    return True
