"""Property tests for the candidate-state fixpoint that every largest-revolt
entry point shares (random two-state priors on an eighths grid and short
random degree sequences), and for the concrete-graph oracle against a brute
force over every type assignment."""

from fractions import Fraction as F
from itertools import combinations, product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factional_belief import (
    AgentType,
    ConcreteGraph,
    RevoltInstance,
    TypeDistribution,
    algorithm1,
    algorithm1_general,
    algorithm1_multistate,
    expected_context_fraction,
    greatest_equilibrium,
    least_equilibrium,
    revolt_decision,
    threshold_probabilities,
    two_state_prior,
)
from factional_belief.algorithms import high_degree_cutoff, revolting_contexts
from factional_belief.errors import MislabeledStatesError

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def type_dists(draw):
    alpha = draw(st.integers(0, 8))
    chi = draw(st.integers(0, 8 - alpha))
    return TypeDistribution(F(alpha, 8), F(chi, 8), F(8 - alpha - chi, 8))


@st.composite
def two_state_priors(draw):
    eighths = st.integers(0, 8).map(lambda k: F(k, 8))
    return two_state_prior(
        draw(eighths),
        draw(eighths),
        draw(type_dists()),
        draw(type_dists()),
        F(draw(st.integers(1, 7)), 8),
    )


degseqs = st.lists(st.integers(0, 6), min_size=1, max_size=12)


def label_consistent_sizes(degseq, prior):
    try:
        return algorithm1(degseq, prior)
    except MislabeledStatesError:
        assume(False)


@SETTINGS
@given(two_state_priors(), degseqs)
def test_algorithm1_matches_multistate(prior, degseq):
    assert label_consistent_sizes(degseq, prior) == algorithm1_multistate(degseq, prior)


@SETTINGS
@given(two_state_priors(), degseqs)
def test_sizes_are_alpha_plus_revolting_context_mass(prior, degseq):
    sizes = label_consistent_sizes(degseq, prior)
    contexts = revolting_contexts(degseq, prior)
    for s in ("A", "B"):
        alpha = prior.type_prob(s, AgentType.ALPHA)
        assert sizes[s] == alpha + expected_context_fraction(s, contexts, prior, degseq)


@SETTINGS
@given(two_state_priors(), st.lists(st.integers(0, 12), min_size=1, max_size=30))
def test_general_state_b_excludes_hub_chi_mass(prior, degseq):
    # cutoff_c = 1 puts the cutoff at ceil(n^(1/3)) <= 4 here, so hubs are common.
    try:
        sizes = algorithm1_general(degseq, prior, cutoff_c=1, epsilon=F(1, 100))
    except MislabeledStatesError:
        assume(False)
    dist_b = prior.state("B").types
    assume(dist_b.chi + dist_b.alpha < prior.mu)  # B is not a candidate state
    low = sum(1 for d in degseq if d < high_degree_cutoff(len(degseq), 1))
    assert sizes["B"] <= dist_b.alpha + dist_b.chi * F(low, len(degseq))



class BruteOracle:
    """The oracle's answers from first principles, in plain Fractions: every
    type assignment with its probability, and a chi agent's cell as its
    vertex plus the types of its neighbors in sorted order."""

    def __init__(self, graph, prior):
        self.graph, self.prior = graph, prior
        self.worlds = []
        for s in prior.states:
            for types in product(AgentType, repeat=graph.n):
                prob = s.prob
                for t in types:
                    prob *= s.types.prob(t)
                if prob:
                    self.worlds.append((prob, types))
        self.possible = {c for _, types in self.worlds for c in self.chi_cells(types)}

    def chi_cells(self, types):
        return [
            (v, AgentType.CHI, tuple(types[u] for u in self.graph.neighbors(v)))
            for v in range(self.graph.n)
            if types[v] is AgentType.CHI
        ]

    def revolters(self, types, profile):
        alpha = sum(1 for t in types if t is AgentType.ALPHA)
        return alpha + sum(1 for c in self.chi_cells(types) if c in profile)

    def threshold_probability(self, profile, cell):
        hit = seen = F(0)
        for prob, types in self.worlds:
            if cell in self.chi_cells(types):
                seen += prob
                if self.revolters(types, profile | {cell}) >= self.prior.mu * self.graph.n:
                    hit += prob
        return hit / seen

    def equilibrium(self, start):
        profile = frozenset(start)
        while True:
            nxt = frozenset(
                c for c in self.possible
                if self.threshold_probability(profile, c) >= self.prior.p
            )
            if nxt == profile:
                return profile
            profile = nxt


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 4))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return ConcreteGraph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def alpha_priors(draw):
    """Eighths-grid two-state priors with alpha > 0 in state A."""
    alpha = draw(st.integers(1, 8))
    chi = draw(st.integers(0, 8 - alpha))
    dist_a = TypeDistribution(F(alpha, 8), F(chi, 8), F(8 - alpha - chi, 8))
    eighths = st.integers(0, 8).map(lambda k: F(k, 8))
    return two_state_prior(
        draw(eighths), draw(eighths), dist_a, draw(type_dists()),
        F(draw(st.integers(1, 7)), 8),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_graphs(), alpha_priors(), st.integers(0, 8).map(lambda k: F(k, 8)))
def test_oracle_matches_brute_force(graph, prior, mu_star):
    brute = BruteOracle(graph, prior)
    greatest = greatest_equilibrium(graph, prior)
    assert greatest.cells == brute.equilibrium(brute.possible)
    assert least_equilibrium(graph, prior).cells == brute.equilibrium(())
    assert threshold_probabilities(graph, prior, greatest) == {
        c: brute.threshold_probability(greatest.cells, c) for c in brute.possible
    }
    _ok, prob = revolt_decision(RevoltInstance(graph, prior, mu_star, F(1, 2)))
    assert prob == sum(
        (p for p, types in brute.worlds
         if brute.revolters(types, greatest.cells) >= mu_star * graph.n),
        F(0),
    )
