"""Revolt-game model primitives.

Types, common priors, identity-agnostic contexts, exact context likelihoods
and state posteriors, payoff evaluation, and the concrete-graph container
(CSR integer arrays). All probabilities are exact `fractions.Fraction` values and every comparison
is exact; nothing here touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ImpossibleContextError,
    NotTwoStatesError,
    SpaceTooLargeError,
    UnknownStateError,
    ValidationError,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def integer_weights(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(D, ints): D the lcm of the values' denominators and ints the values
    times D, so that the values add and compare as integers over one scale."""
    values = list(values)
    common = lcm(*(x.denominator for x in values))
    return common, [x.numerator * (common // x.denominator) for x in values]


def as_fraction(name: str, value) -> Fraction:
    """A model field as a Fraction. A str or a bool raises ValidationError
    naming the field: the package reads rational text with its own grammar
    (`fileio.parse_rational`), not `Fraction`'s, and True is no number."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (str, bool)):
        raise ValidationError(f"{name} must be an int or a Fraction, not {type(value).__name__}")
    return Fraction(value)


class AgentType(Enum):
    """The three agent types: always-revolt, never-revolt, conditional."""

    ALPHA = "alpha"
    CHI = "chi"
    NU = "nu"


# Type codes, where types are held as small ints: alpha 0, chi 1, nu 2.
TYPES = tuple(AgentType)
ALPHA_CODE = TYPES.index(AgentType.ALPHA)
CHI_CODE = TYPES.index(AgentType.CHI)
NU_CODE = TYPES.index(AgentType.NU)


class Action(Enum):
    REVOLT = "R"
    YIELD = "Y"


@dataclass(frozen=True)
class TypeDistribution:
    """Distribution over the three agent types within one state."""

    alpha: Fraction
    chi: Fraction
    nu: Fraction

    def __post_init__(self):
        for name in ("alpha", "chi", "nu"):
            object.__setattr__(self, name, as_fraction(name, getattr(self, name)))
            if getattr(self, name) < 0:
                raise ValidationError(f"type probability {name} is negative")
        if self.alpha + self.chi + self.nu != 1:
            raise ValidationError("type probabilities must sum to exactly 1")

    def prob(self, t: AgentType) -> Fraction:
        return getattr(self, t.value)

    def swap_alpha_nu(self) -> "TypeDistribution":
        return TypeDistribution(alpha=self.nu, chi=self.chi, nu=self.alpha)


@dataclass(frozen=True)
class StatePrior:
    """One state: its label, prior probability, and type distribution."""

    label: str
    prob: Fraction
    types: TypeDistribution

    def __post_init__(self):
        object.__setattr__(self, "prob", as_fraction("prob", self.prob))
        # A zero-probability state could only add contexts that no possible
        # state produces; the posteriors of those are undefined.
        if self.prob <= 0:
            raise ValidationError(f"state {self.label!r} needs a positive probability")


@dataclass(frozen=True)
class Prior:
    """Common prior: thresholds (p, mu), state distribution, and per-state
    type distributions.

    p and mu are accepted on the closed interval [0, 1]; the promise-problem
    layer re-tightens them to the open interval where perturbation requires
    it (the clique-reduction instances need p = 1 here).
    """

    p: Fraction
    mu: Fraction
    states: tuple[StatePrior, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", as_fraction("p", self.p))
        object.__setattr__(self, "mu", as_fraction("mu", self.mu))
        object.__setattr__(self, "states", tuple(self.states))
        if not (0 <= self.p <= 1 and 0 <= self.mu <= 1):
            raise ValidationError("p and mu must lie in [0, 1]")
        if len(self.states) < 2:
            raise ValidationError("a prior needs at least two states")
        labels = [s.label for s in self.states]
        if len(set(labels)) != len(labels):
            raise ValidationError("state labels must be unique")
        if sum((s.prob for s in self.states), ZERO) != 1:
            raise ValidationError("state probabilities must sum to exactly 1")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.states)

    def state(self, label: str) -> StatePrior:
        for s in self.states:
            if s.label == label:
                return s
        raise UnknownStateError(f"unknown state {label!r}")

    def type_prob(self, label: str, t: AgentType) -> Fraction:
        return self.state(label).types.prob(t)

    def require_two_states(self) -> None:
        if set(self.labels) != {"A", "B"}:
            raise NotTwoStatesError(
                "this operation needs exactly two states labeled A and B; "
                f"got {sorted(self.labels)}"
            )


def chi_alpha(prior: Prior) -> dict[str, Fraction]:
    """Each state's chi+alpha mass: its revolt size when every chi agent
    revolts, which a state must reach mu with to start as a candidate."""
    return {s.label: s.types.chi + s.types.alpha for s in prior.states}


def two_state_prior(
    p,
    mu,
    dist_a: TypeDistribution,
    dist_b: TypeDistribution,
    prob_a=Fraction(1, 2),
) -> Prior:
    """Convenience constructor for the fundamental two-state case."""
    prob_a = as_fraction("prob_a", prob_a)
    return Prior(
        p=p,
        mu=mu,
        states=(
            StatePrior("A", prob_a, dist_a),
            StatePrior("B", 1 - prob_a, dist_b),
        ),
    )


@dataclass(frozen=True)
class ContextClass:
    """Identity-agnostic context: own type plus neighbor type counts.

    Neighbor counts are a sufficient statistic because types are drawn
    i.i.d. given the state; this is what keeps the number of contexts
    polynomial in the degree.
    """

    own_type: AgentType
    alpha_neighbors: int
    chi_neighbors: int
    nu_neighbors: int

    def __post_init__(self):
        for name in ("alpha_neighbors", "chi_neighbors", "nu_neighbors"):
            if getattr(self, name) < 0:
                raise ValidationError("neighbor counts must be nonnegative")

    @property
    def degree(self) -> int:
        return self.alpha_neighbors + self.chi_neighbors + self.nu_neighbors


def enumerate_contexts(
    degree: int, own_type: Optional[AgentType] = None
) -> list[ContextClass]:
    """All contexts of the given degree: count compositions of `degree` into
    the three types, crossed with the own type (or all three if None)."""
    if degree < 0:
        raise ValidationError("degree must be nonnegative")
    owns = [own_type] if own_type is not None else list(AgentType)
    out = []
    for own in owns:
        for a in range(degree + 1):
            for c in range(degree + 1 - a):
                out.append(ContextClass(own, a, c, degree - a - c))
    return out


def context_likelihood(c: ContextClass, state: str, prior: Prior) -> Fraction:
    """Pr[context | state]: own-type marginal times the multinomial mass of
    the neighbor counts under the state's type distribution."""
    dist = prior.state(state).types
    coeff = comb(c.degree, c.alpha_neighbors) * comb(
        c.degree - c.alpha_neighbors, c.chi_neighbors
    )
    return (
        dist.prob(c.own_type)
        * coeff
        * dist.alpha**c.alpha_neighbors
        * dist.chi**c.chi_neighbors
        * dist.nu**c.nu_neighbors
    )


def state_posterior(c: ContextClass, prior: Prior) -> dict[str, Fraction]:
    """Posterior over states given a context, by Bayes' rule; exact, sums
    to 1. Raises if the context is impossible under every state."""
    weighted = {
        s.label: s.prob * context_likelihood(c, s.label, prior) for s in prior.states
    }
    total = sum(weighted.values(), ZERO)
    if total == 0:
        raise ImpossibleContextError(
            f"context {c} has zero likelihood in every state"
        )
    return {label: w / total for label, w in weighted.items()}


def payoff(
    t: AgentType, own_action: Action, revolt_count: int, n: int, prior: Prior
) -> Fraction:
    """Realized payoff of an agent of type t given the total revolt count.

    The mu threshold is compared exactly: revolt_count >= mu * n as
    rationals, no rounding rule.
    """
    if not 0 <= revolt_count <= n:
        raise ValidationError("revolt_count must lie in [0, n]")
    if t is AgentType.ALPHA:
        return ONE if own_action is Action.REVOLT else ZERO
    if t is AgentType.NU:
        return ONE if own_action is Action.YIELD else ZERO
    met = Fraction(revolt_count) >= prior.mu * n
    if met and own_action is Action.REVOLT:
        return 1 - prior.p
    if not met and own_action is Action.YIELD:
        return prior.p
    return ZERO


VERTEX_GUARD = 1_000_000  # vertices one graph, generated sequence or torus may have


def check_vertex_count(n: int) -> None:
    """Raise SpaceTooLargeError past VERTEX_GUARD vertices."""
    if n > VERTEX_GUARD:
        raise SpaceTooLargeError(f"graphs limited to {VERTEX_GUARD} vertices, not {n}")


def _edge_array(n: int, edges) -> np.ndarray:
    """The edges as an (m, 2) int64 array. An endpoint past int64 is out of
    range for every n, so when one is present the first bad edge is found
    by a scan in input order, with the same messages."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        pairs = np.asarray(edges, dtype=np.int64)
    except OverflowError:
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u}, {v}) out of range for n={n}") from None
        raise
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValidationError("edges must be vertex pairs")
    return pairs


class ConcreteGraph:
    """Simple undirected graph on vertices 0..n-1 (immutable by convention),
    held as CSR arrays: the neighbors of v, ascending, are
    indices[indptr[v]:indptr[v + 1]]. The edge set, neighbor tuples and
    repr are built from them when first read."""

    __slots__ = ("n", "indptr", "indices", "_edges", "_neighbors")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValidationError("graph size must be nonnegative")
        check_vertex_count(n)
        self.n = n
        pairs = _edge_array(n, edges)
        u, v = pairs[:, 0], pairs[:, 1]
        bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            a, b = pairs[int(bad.argmax())].tolist()
            if a == b:
                raise ValidationError(f"self-loop at vertex {a}")
            raise ValidationError(f"edge ({a}, {b}) out of range for n={n}")
        # Sorted unique codes lo*n + hi, then both directions sorted by
        # (head, tail): the CSR rows with ascending neighbors.
        codes = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        codes = codes[np.diff(codes, prepend=-1) != 0]
        lo, hi = np.divmod(codes, n)
        arcs = np.sort(np.concatenate((codes, hi * n + lo)))
        heads, self.indices = np.divmod(arcs, n)
        self.indptr = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=self.indptr[1:])
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self._edges = self._neighbors = None

    def edge_list(self) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, in ascending order."""
        heads = np.repeat(np.arange(self.n), np.diff(self.indptr))
        up = self.indices > heads
        return list(zip(heads[up].tolist(), self.indices[up].tolist()))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            self._edges = frozenset(self.edge_list())
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        if self._neighbors is None:
            ids, ptr = self.indices.tolist(), self.indptr.tolist()
            self._neighbors = tuple(
                tuple(ids[ptr[w] : ptr[w + 1]]) for w in range(self.n)
            )
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degree_sequence(self) -> list[int]:
        return np.diff(self.indptr).tolist()

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def __eq__(self, other):
        return (
            isinstance(other, ConcreteGraph)
            and self.n == other.n
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.indptr, other.indptr)
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"ConcreteGraph(n={self.n}, edges={self.edge_list()})"


DegreeSequence = Sequence[int]


def validate_degree_sequence(degseq: DegreeSequence) -> list[int]:
    seq = list(degseq)
    if not seq:
        raise ValidationError("degree sequence must be nonempty")
    for d in seq:
        if not isinstance(d, int) or d < 0:
            raise ValidationError(f"degree {d!r} is not a nonnegative integer")
    return seq
