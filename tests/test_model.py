from fractions import Fraction as F

import pytest

from factional_belief import (
    Action,
    AgentType,
    ConcreteGraph,
    ContextClass,
    Prior,
    StatePrior,
    TypeDistribution,
    context_likelihood,
    enumerate_contexts,
    payoff,
    state_posterior,
    two_state_prior,
)
from factional_belief import model
from factional_belief.errors import (
    ImpossibleContextError,
    SpaceTooLargeError,
    UnknownStateError,
    ValidationError,
)

ALPHA, CHI, NU = AgentType.ALPHA, AgentType.CHI, AgentType.NU

# Exact likelihood table for the motivating example: row k is the chance of
# seeing k chi types among the five samples (self plus four neighbors).
LIKELIHOOD_TABLE = {
    "A": [F(1, 3125), F(4, 625), F(32, 625), F(128, 625), F(256, 625), F(1024, 3125)],
    "B": [F(1024, 3125), F(256, 625), F(128, 625), F(32, 625), F(4, 625), F(1, 3125)],
}
# Posterior on the anti-government state given x chi types among the five.
POSTERIOR_TABLE = [
    F(1, 1025), F(1, 65), F(1, 5), F(4, 5), F(64, 65), F(1024, 1025),
]


def row_contexts(k: int) -> list[ContextClass]:
    """The contexts in which exactly k of the five samples are chi."""
    out = []
    if k >= 1:
        out.append(ContextClass(CHI, 0, k - 1, 4 - (k - 1)))
    if k <= 4:
        out.append(ContextClass(NU, 0, k, 4 - k))
    return out


class TestTypeDistribution:
    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError):
            TypeDistribution(alpha=F(1, 2), chi=F(1, 2), nu=F(1, 2))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            TypeDistribution(alpha=F(-1, 2), chi=F(1), nu=F(1, 2))

    def test_swap_alpha_nu(self):
        d = TypeDistribution(alpha=F(1, 6), chi=F(1, 2), nu=F(1, 3))
        s = d.swap_alpha_nu()
        assert (s.alpha, s.chi, s.nu) == (F(1, 3), F(1, 2), F(1, 6))


class TestPrior:
    def test_state_probs_must_sum(self):
        with pytest.raises(ValidationError):
            Prior(
                p=F(1, 2),
                mu=F(1, 2),
                states=(
                    StatePrior("A", F(1, 2), TypeDistribution(F(0), F(1), F(0))),
                    StatePrior("B", F(1, 3), TypeDistribution(F(0), F(1), F(0))),
                ),
            )

    def test_needs_two_states(self):
        with pytest.raises(ValidationError):
            Prior(
                p=F(1, 2),
                mu=F(1, 2),
                states=(StatePrior("A", F(1), TypeDistribution(F(0), F(1), F(0))),),
            )

    def test_unknown_state(self, motivating_prior):
        with pytest.raises(UnknownStateError):
            motivating_prior.state("C")


class TestContextLikelihood:
    def test_all_chi_context_state_a(self, motivating_prior):
        c = ContextClass(CHI, 0, 4, 0)
        assert context_likelihood(c, "A", motivating_prior) == F(1024, 3125)

    def test_all_chi_context_state_b(self, motivating_prior):
        c = ContextClass(CHI, 0, 4, 0)
        assert context_likelihood(c, "B", motivating_prior) == F(1, 3125)

    def test_degree_zero_is_own_marginal(self, motivating_prior):
        c = ContextClass(NU, 0, 0, 0)
        assert context_likelihood(c, "B", motivating_prior) == F(4, 5)

    @pytest.mark.parametrize("state", ["A", "B"])
    @pytest.mark.parametrize("k", range(6))
    def test_five_sample_rows(self, motivating_prior, state, k):
        mass = sum(
            context_likelihood(c, state, motivating_prior) for c in row_contexts(k)
        )
        assert mass == LIKELIHOOD_TABLE[state][k]

    @pytest.mark.parametrize("degree", [0, 1, 3, 4, 6])
    @pytest.mark.parametrize("state", ["A", "B"])
    def test_total_mass_per_degree(self, motivating_prior, degree, state):
        total = sum(
            context_likelihood(c, state, motivating_prior)
            for c in enumerate_contexts(degree)
        )
        assert total == 1

    def test_unknown_state_error(self, motivating_prior):
        with pytest.raises(UnknownStateError):
            context_likelihood(ContextClass(CHI, 0, 0, 0), "Z", motivating_prior)


class TestStatePosterior:
    @pytest.mark.parametrize("x", range(6))
    def test_posterior_rows(self, motivating_prior, x):
        for c in row_contexts(x):
            assert state_posterior(c, motivating_prior)["A"] == POSTERIOR_TABLE[x]

    def test_posterior_strictly_increasing_in_chi_count(self, motivating_prior):
        values = [
            state_posterior(ContextClass(CHI, 0, k, 4 - k), motivating_prior)["A"]
            for k in range(5)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_sums_to_one(self, motivating_prior):
        post = state_posterior(ContextClass(CHI, 0, 2, 2), motivating_prior)
        assert sum(post.values()) == 1
        assert all(0 <= v <= 1 for v in post.values())

    def test_symmetric_prior_gives_half(self):
        d = TypeDistribution(alpha=F(1, 4), chi=F(1, 2), nu=F(1, 4))
        prior = two_state_prior(F(1, 2), F(1, 2), d, d)
        for c in enumerate_contexts(3):
            assert state_posterior(c, prior)["A"] == F(1, 2)

    def test_impossible_context(self, motivating_prior):
        # alpha has zero mass in both states of the motivating example
        with pytest.raises(ImpossibleContextError):
            state_posterior(ContextClass(ALPHA, 0, 0, 0), motivating_prior)


class TestEnumerateContexts:
    def test_degree_zero_single(self):
        assert len(enumerate_contexts(0, CHI)) == 1

    def test_degree_four_count(self):
        assert len(enumerate_contexts(4, CHI)) == 15

    def test_all_own_types(self):
        assert len(enumerate_contexts(2)) == 18

    def test_counts_partition_degree(self):
        for c in enumerate_contexts(5, NU):
            assert c.degree == 5
            assert c.alpha_neighbors + c.chi_neighbors + c.nu_neighbors == 5


class TestPayoff:
    def test_alpha_revolts(self, motivating_prior):
        assert payoff(ALPHA, Action.REVOLT, 0, 10, motivating_prior) == 1

    def test_nu_revolting_gets_nothing(self, motivating_prior):
        assert payoff(NU, Action.REVOLT, 10, 10, motivating_prior) == 0

    def test_chi_successful_revolt(self, motivating_prior):
        # threshold 1/2 of 1000 met exactly at 500
        assert payoff(CHI, Action.REVOLT, 500, 1000, motivating_prior) == F(3, 5)

    def test_chi_failed_revolt(self, motivating_prior):
        assert payoff(CHI, Action.REVOLT, 499, 1000, motivating_prior) == 0

    def test_chi_safe_yield(self, motivating_prior):
        assert payoff(CHI, Action.YIELD, 499, 1000, motivating_prior) == F(2, 5)

    def test_codomain(self, motivating_prior):
        for t in AgentType:
            for act in Action:
                for count in (0, 250, 500, 1000):
                    v = payoff(t, act, count, 1000, motivating_prior)
                    assert 0 <= v <= 1

    def test_count_range_checked(self, motivating_prior):
        with pytest.raises(ValidationError):
            payoff(CHI, Action.REVOLT, 11, 10, motivating_prior)


class TestConcreteGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            ConcreteGraph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ConcreteGraph(3, [(0, 3)])

    def test_degree_sequence(self):
        g = ConcreteGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.degree_sequence() == [2, 2, 2, 2]
        assert g.neighbors(0) == (1, 3)

    def test_duplicate_edges_collapse(self):
        g = ConcreteGraph(2, [(0, 1), (1, 0)])
        assert len(g.edges) == 1

    def test_csr_arrays(self):
        g = ConcreteGraph(5, [(3, 0), (1, 0), (2, 1), (0, 1)])
        assert g.indptr.tolist() == [0, 2, 4, 5, 6, 6]
        assert g.indices.tolist() == [1, 3, 0, 2, 1, 0]
        assert not (g.indptr.flags.writeable or g.indices.flags.writeable)
        assert g.edge_list() == [(0, 1), (0, 3), (1, 2)]

    def test_endpoint_past_int64_is_out_of_range(self):
        with pytest.raises(ValidationError, match=rf"^edge \(0, {2**63}\) out of range for n=3$"):
            ConcreteGraph(3, [(0, 1), (0, 2**63), (2, 2)])
        with pytest.raises(ValidationError, match="^self-loop at vertex 2$"):
            ConcreteGraph(3, [(2, 2), (0, 2**63)])

    def test_rejects_non_pairs(self):
        with pytest.raises(ValidationError, match="vertex pairs"):
            ConcreteGraph(3, [(0, 1, 2), (0, 1, 2)])

    def test_vertex_guard(self, monkeypatch):
        # Refused before the edges are read; at the bound they are read.
        def read(*_args):
            raise LookupError("read the edges")

        monkeypatch.setattr(model, "_edge_array", read)
        with pytest.raises(LookupError):
            ConcreteGraph(model.VERTEX_GUARD, [])
        with pytest.raises(SpaceTooLargeError, match=str(model.VERTEX_GUARD + 1)):
            ConcreteGraph(model.VERTEX_GUARD + 1, [(0, 1)])


HALF_CHI = TypeDistribution(F(0), F(1, 2), F(1, 2))

REFUSALS = [
    pytest.param(lambda: Prior(F(3, 2), F(1, 2), (StatePrior("A", F(1, 2), HALF_CHI),
                                                  StatePrior("B", F(1, 2), HALF_CHI))),
                 ValidationError, "p and mu must lie in [0, 1]", id="prior-p-3/2"),
    pytest.param(lambda: Prior(F(1, 2), F(1, 2), (StatePrior("A", F(1, 2), HALF_CHI),) * 2),
                 ValidationError, "state labels must be unique", id="prior-duplicate-labels"),
    pytest.param(lambda: ContextClass(CHI, 0, -1, 0), ValidationError,
                 "neighbor counts must be nonnegative", id="context-count-negative"),
    pytest.param(lambda: enumerate_contexts(-1), ValidationError,
                 "degree must be nonnegative", id="contexts-degree-negative"),
    pytest.param(lambda: ConcreteGraph(-1, []), ValidationError,
                 "graph size must be nonnegative", id="graph-n-negative"),
    pytest.param(lambda: model.validate_degree_sequence([]), ValidationError,
                 "degree sequence must be nonempty", id="degrees-empty"),
]

@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
