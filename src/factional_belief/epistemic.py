"""Finite epistemic models: belief operators, evident belief, and common
belief among a population fraction.

Outcome spaces are finite, probabilities are exact rationals, and events are
plain frozensets of outcome labels. Two characterizations of common belief
are implemented: the hierarchy fixpoint and an exhaustive search over
witness events; agreement between them is what makes the fixpoint
machine-checkable.

Inside, every public call builds one `_BeliefKernel` for its (model, p):
outcome i is bit i, so an event is an int mask, and beliefs are decided by
integer cross-multiplication and memoized for the rest of the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, comb
from typing import Hashable, Iterable, Mapping

from .errors import InvalidAgentError, SpaceTooLargeError, ValidationError
from .model import integer_weights

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

    def agent_index(self, agent: str) -> int:
        try:
            return self.agents.index(agent)
        except ValueError:
            raise InvalidAgentError(f"unknown agent {agent!r}") from None

    def check_event(self, event: Iterable[Outcome]) -> Event:
        e = frozenset(event)
        if not e <= self.space.universe():
            raise ValidationError(f"event {set(e)!r} contains unknown outcomes")
        return e


class _BeliefKernel:
    """Integer belief kernel of one (model, p). Outcome i is bit i of an
    event mask, outcome weights are the probabilities as ints over their
    common denominator, and each agent has a list of (cell mask, p.num times
    the cell weight). B_j(e) is memoized per (agent index, event mask) for
    the kernel's lifetime, which is one public call."""

    def __init__(self, model: EpistemicModel, p) -> None:
        p = Fraction(p)
        if not 0 <= p <= 1:
            raise ValidationError("p must lie in [0, 1]")
        self.den = p.denominator
        self.outcomes = model.space.outcomes
        self.full = (1 << len(self.outcomes)) - 1
        self._bit = {o: 1 << i for i, o in enumerate(self.outcomes)}
        _common, self._weights = integer_weights(model.space.probs)
        self.cells = []
        for part in model.partitions:
            masks = [self.mask(c) for c in part.cells]
            self.cells.append([(c, p.numerator * self.weight(c)) for c in masks])
        self._memo = [{} for _ in model.partitions]

    def mask(self, event: Iterable[Outcome]) -> int:
        """The mask of an event of known outcomes."""
        return sum(self._bit[o] for o in event)

    def event(self, mask: int) -> Event:
        return frozenset(o for o, b in self._bit.items() if mask & b)

    def weight(self, mask: int) -> int:
        total = 0
        while mask:
            low = mask & -mask
            total += self._weights[low.bit_length() - 1]
            mask ^= low
        return total

    def belief(self, j: int, e: int) -> int:
        """B_j(e): the union of agent j's cells c with Pr[e | c] >= p,
        tested as den * w(e & c) >= num * w(c) in integers."""
        memo = self._memo[j]
        b = memo.get(e)
        if b is None:
            b = 0
            for cell, threshold in self.cells[j]:
                if self.den * self.weight(e & cell) >= threshold:
                    b |= cell
            memo[e] = b
        return b


def belief_operator(
    model: EpistemicModel, agent: str, p: Fraction, event: Iterable[Outcome]
) -> Event:
    """Outcomes at which the agent assigns conditional probability >= p to
    the event, given her partition cell. Exact comparison."""
    kernel = _BeliefKernel(model, p)
    e = kernel.mask(model.check_event(event))
    return kernel.event(kernel.belief(model.agent_index(agent), e))


def _check_mu(mu) -> Fraction:
    """mu as an exact Fraction, rejected outside [0, 1]."""
    mu = Fraction(mu)
    if not 0 <= mu <= 1:
        raise ValidationError("mu must lie in [0, 1]")
    return mu


def _need(model: EpistemicModel, mu: Fraction) -> int:
    """The least whole number of agents that makes up a mu fraction."""
    return ceil(mu * len(model.agents))


def is_evident_belief(
    model: EpistemicModel, p: Fraction, mu: Fraction, event: Iterable[Outcome]
) -> tuple[bool, frozenset]:
    """Whether the event, whenever it occurs, is believed at level p by at
    least a mu fraction of agents. Returns the maximal witness agent set."""
    mu = _check_mu(mu)
    e = model.check_event(event)
    kernel = _BeliefKernel(model, p)
    m = kernel.mask(e)
    witnesses = frozenset(
        a for j, a in enumerate(model.agents) if not m & ~kernel.belief(j, m)
    )
    return len(witnesses) >= _need(model, mu), witnesses


def _witness_chain(
    kernel: _BeliefKernel, believers: tuple[int, ...], anchor: int
) -> int:
    """The largest event E inside `anchor` with E <= B_j(E) for every j in
    `believers`: iterate E -> anchor & intersection of B_j(E) from
    E = anchor until stable. Stabilizes within |outcomes| + 1 steps (each
    strict step drops an outcome); exceeding the cap signals a bug, not bad
    input."""
    current = anchor
    for _ in range(len(kernel.outcomes) + 1):
        nxt = anchor
        for j in believers:
            nxt &= kernel.belief(j, current)
        if nxt == current:
            return current
        current = nxt
    raise AssertionError("witness chain failed to stabilize within the cap")


def hierarchy_levels(
    model: EpistemicModel, p: Fraction, mu: Fraction, f: Iterable[Outcome], depth: int
) -> list[Event]:
    """The raw belief-hierarchy levels over f: level n is "at least a mu
    fraction of agents p-believe level n-1". Exposed for study; note the raw
    level sequence need not be monotone, because the believing fraction may
    be a different set of agents at different outcomes."""
    need = _need(model, _check_mu(mu))
    f = model.check_event(f)
    kernel = _BeliefKernel(model, p)
    current = kernel.mask(f)
    bits = [1 << i for i in range(len(kernel.outcomes))]
    levels = []
    for _ in range(depth):
        per_agent = [kernel.belief(j, current) for j in range(len(model.agents))]
        current = sum(
            b for b in bits if sum(1 for held in per_agent if held & b) >= need
        )
        levels.append(kernel.event(current))
    return levels


def _fixpoint(kernel: _BeliefKernel, mu: Fraction, f: int) -> int:
    """`common_belief_fixpoint` on masks. The J1 chains depend on J2 only
    through the anchor, the intersection of B_j(f) over j in J2, so they
    run once per distinct nonempty anchor, and stop once the anchor is
    already covered (each chain's event lies inside its anchor)."""
    agents = range(len(kernel.cells))
    need = ceil(mu * len(agents))
    if need == 0:
        return kernel.full
    pairs = comb(len(agents), need) ** 2
    if pairs > FIXPOINT_GUARD:
        raise SpaceTooLargeError(
            f"common-belief fixpoint limited to {FIXPOINT_GUARD} witness-set "
            f"pairs; {len(agents)} agents at mu={mu} need {pairs}"
        )
    belief_of_f = [kernel.belief(j, f) for j in agents]
    anchors = set()
    for j2 in combinations(agents, need):
        anchor = kernel.full
        for j in j2:
            anchor &= belief_of_f[j]
        if anchor:
            anchors.add(anchor)
    result = 0
    for anchor in anchors:
        for j1 in combinations(agents, need):
            if not anchor & ~result:
                break
            result |= _witness_chain(kernel, j1, anchor)
    return result


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
    kernel = _BeliefKernel(model, p)
    return kernel.event(_fixpoint(kernel, mu, kernel.mask(f)))


def _events(model: EpistemicModel) -> range:
    """The masks of all 2^|outcomes| events of the model, in increasing
    order. Raises SpaceTooLargeError past SEARCH_GUARD outcomes."""
    m = len(model.space.outcomes)
    if m > SEARCH_GUARD:
        raise SpaceTooLargeError(
            f"exhaustive event search limited to {SEARCH_GUARD} outcomes; "
            f"model has {m}"
        )
    return range(1 << m)


def _evident(kernel: _BeliefKernel, need: int, e: int) -> bool:
    """Whether at least `need` agents find the event evident (e <= B_a(e))."""
    return sum(1 for j in range(len(kernel.cells)) if not e & ~kernel.belief(j, e)) >= need


def _search(events, kernel: _BeliefKernel, need: int, f: int, *, evident: bool = False) -> int:
    """Union of the witness events among `events`: every event e that at
    least `need` agents p-believe f on (e <= B_a(f)) and that is evident
    (`_evident`), a test skipped when the caller passes only evident events
    (`evident=True`). The cheap test on f runs first, and an event already
    inside the union can add nothing, so neither pays for the evidence
    test. The empty event is vacuously a witness but contains no outcome."""
    believe_f = [kernel.belief(j, f) for j in range(len(kernel.cells))]
    result = 0
    for e in events:
        if not e & ~result or sum(1 for b in believe_f if not e & ~b) < need:
            continue
        if evident or _evident(kernel, need, e):
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
    need = _need(model, _check_mu(mu))
    events = _events(model)
    f = model.check_event(f)
    kernel = _BeliefKernel(model, p)
    return kernel.event(_search(events, kernel, need, kernel.mask(f)))


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
    with membership in the hierarchy fixpoint. Both sides share one kernel,
    so every agent's belief in an event is computed once for the whole
    sweep, which is feasible for the small models this is meant for.
    Whether an event is evident does not depend on f, so every event is
    tested once and each f's search runs over the evident ones."""
    events = _events(model)
    mu = _check_mu(mu)
    kernel = _BeliefKernel(model, p)
    need = _need(model, mu)
    evident = [e for e in events if _evident(kernel, need, e)]
    return all(
        _search(evident, kernel, need, f, evident=True) == _fixpoint(kernel, mu, f)
        for f in events
    )


def check_operator_laws(model: EpistemicModel, p: Fraction) -> bool:
    """Verify monotonicity and idempotence of the belief operator over all
    event pairs of the model (guarded exhaustive sweep)."""
    events = _events(model)
    kernel = _BeliefKernel(model, p)
    for j in range(len(model.agents)):
        b = [kernel.belief(j, e) for e in events]
        if any(b[b[e]] != b[e] for e in events):
            return False
        for e in events:
            for f in events:
                if not e & ~f and b[e] & ~b[f]:
                    return False
    return True
