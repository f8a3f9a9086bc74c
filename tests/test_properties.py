"""Property tests for the candidate-state fixpoint that every largest-revolt
entry point shares: random two-state priors on an eighths grid and short
random degree sequences."""

from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factional_belief import (
    AgentType,
    TypeDistribution,
    algorithm1,
    algorithm1_general,
    algorithm1_multistate,
    expected_context_fraction,
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

