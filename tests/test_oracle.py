import tracemalloc
from fractions import Fraction as F

import pytest

from factional_belief import (
    AgentType,
    ConcreteGraph,
    OracleBudget,
    Prior,
    RevoltInstance,
    TypeDistribution,
    clique_exists,
    clique_reduction,
    derive_seed,
    expected_revolt_fraction,
    greatest_equilibrium,
    least_equilibrium,
    nonisomorphic_graphs,
    revolt_decision,
    threshold_probabilities,
    two_state_prior,
)
from factional_belief.errors import BudgetExceededError, ValidationError
from factional_belief.oracle import cell_context

ALPHA, CHI, NU = AgentType.ALPHA, AgentType.CHI, AgentType.NU

TRIANGLE = ConcreteGraph(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = ConcreteGraph(3, [(0, 1), (1, 2)])


def forced_type_prior(t: AgentType) -> Prior:
    one = {ALPHA: (1, 0, 0), CHI: (0, 1, 0), NU: (0, 0, 1)}[t]
    dist = TypeDistribution(*(F(x) for x in one))
    return two_state_prior(F(1, 2), F(1, 2), dist, dist)


def petersen() -> ConcreteGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return ConcreteGraph(10, outer + inner + spokes)


class TestGreatestEquilibrium:
    def test_all_alpha_everyone_revolts(self):
        prior = forced_type_prior(ALPHA)
        profile = greatest_equilibrium(TRIANGLE, prior)
        for s in ("A", "B"):
            assert expected_revolt_fraction(TRIANGLE, prior, profile, s) == 1

    def test_all_nu_nobody_revolts(self):
        prior = forced_type_prior(NU)
        profile = greatest_equilibrium(TRIANGLE, prior)
        assert profile.cells == frozenset()
        assert expected_revolt_fraction(TRIANGLE, prior, profile, "A") == 0

    def test_triangle_reduction_trace(self):
        inst = clique_reduction(TRIANGLE, 3)
        profile = greatest_equilibrium(TRIANGLE, inst.prior)
        revolting_contexts = {
            (cell_context(c).chi_neighbors, cell_context(c).nu_neighbors)
            for c in profile.cells
        }
        assert revolting_contexts == {(2, 0)}  # only the all-chi observation
        # any observation containing a nu neighbor stays out
        assert all(NU not in cell[2] for cell in profile.cells)

    def test_fixpoint_soundness(self, motivating_prior):
        graph = ConcreteGraph(4, [(0, 1), (1, 2), (2, 3)])
        profile = greatest_equilibrium(graph, motivating_prior)
        probs = threshold_probabilities(graph, motivating_prior, profile)
        for cell, prob in probs.items():
            if cell in profile.cells:
                assert prob >= motivating_prior.p
            else:
                assert prob < motivating_prior.p

    def test_trace_converges_downward(self, motivating_prior):
        profile = greatest_equilibrium(PATH3, motivating_prior)
        trace = profile.trace
        assert trace[-1] == trace[-2] == profile.cells
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier

    def test_budget_exceeded(self, motivating_prior):
        big = ConcreteGraph(30, [(i, (i + 1) % 30) for i in range(30)])
        with pytest.raises(BudgetExceededError):
            greatest_equilibrium(big, motivating_prior)

    def test_single_type_supports_on_a_large_edgeless_graph(self):
        # 3,000 isolated vertices fit both budgets: 9,000 cell cost and one
        # assignment per state. Nothing may be sized by cells x classes.
        graph = ConcreteGraph(3000, [])
        prior = two_state_prior(
            F(1, 2), F(1, 2), TypeDistribution(0, 1, 0), TypeDistribution(0, 0, 1)
        )
        tracemalloc.start()
        try:
            decision = revolt_decision(RevoltInstance(graph, prior, F(1, 2), F(1, 2)))
            profile = greatest_equilibrium(graph, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decision == (True, F(1, 2))
        assert profile.cells == {(v, CHI, ()) for v in range(3000)}
        assert len(profile.trace) == 2
        assert peak < 16 * 2**20

    def test_cell_budget_exceeded(self):
        star = ConcreteGraph(10, [(0, i) for i in range(1, 10)])
        with pytest.raises(BudgetExceededError):
            greatest_equilibrium(star, forced_type_prior(CHI), OracleBudget(100, 10**6))


class TestLeastEquilibrium:
    def test_no_alpha_no_spark(self, motivating_prior):
        # mu * n = 1.5 > 1: a lone revolter never meets the threshold
        profile = least_equilibrium(PATH3, motivating_prior)
        assert profile.cells == frozenset()

    def test_all_alpha(self):
        prior = forced_type_prior(ALPHA)
        profile = least_equilibrium(TRIANGLE, prior)
        assert expected_revolt_fraction(TRIANGLE, prior, profile, "A") == 1

    def test_alpha_neighbors_pull_chi_in(self):
        # path 0-1-2, mu = 1/2 so two revolters suffice; the middle chi agent
        # seeing an alpha neighbor is certain of the threshold for any p.
        dist = TypeDistribution(F(1, 3), F(1, 3), F(1, 3))
        prior = two_state_prior(F(1), F(1, 2), dist, dist)
        profile = least_equilibrium(PATH3, prior)
        joined = profile.cells
        assert joined  # some chi cells revolt
        for cell in joined:
            assert ALPHA in cell[2]  # each joined cell sees an alpha neighbor
        # they appear in the first best-response application already
        assert joined <= profile.trace[1]

    def test_dual_containment(self):
        for i, graph in enumerate(
            [PATH3, TRIANGLE, ConcreteGraph(4, [(0, 1), (2, 3)])]
        ):
            import numpy as np

            rng = np.random.Generator(np.random.PCG64(derive_seed(500, i)))
            w = [int(x) for x in rng.integers(1, 4, size=6)]
            d_a = TypeDistribution(
                F(w[0], w[0] + w[1] + w[2]),
                F(w[1], w[0] + w[1] + w[2]),
                F(w[2], w[0] + w[1] + w[2]),
            )
            d_b = TypeDistribution(
                F(w[3], w[3] + w[4] + w[5]),
                F(w[4], w[3] + w[4] + w[5]),
                F(w[5], w[3] + w[4] + w[5]),
            )
            prior = two_state_prior(F(5, 8), F(1, 2), d_a, d_b)
            least = least_equilibrium(graph, prior)
            greatest = greatest_equilibrium(graph, prior)
            assert least.cells <= greatest.cells


class TestRevoltDecision:
    def test_zero_size_always_supported(self, motivating_prior):
        inst = RevoltInstance(PATH3, motivating_prior, F(0), F(1))
        ok, prob = revolt_decision(inst)
        assert ok and prob == 1

    def test_triangle_exact_probability(self):
        inst = clique_reduction(TRIANGLE, 3)
        ok, prob = revolt_decision(inst)
        assert ok
        assert prob == F(1, 2) * F(99, 100) ** 3
        assert prob >= inst.q_star

    def test_path_has_no_triangle_support(self):
        inst = clique_reduction(PATH3, 3)
        ok, prob = revolt_decision(inst)
        assert not ok and prob < inst.q_star and prob == 0


class TestCliqueReduction:
    def test_prior_parameters(self):
        inst = clique_reduction(TRIANGLE, 3)
        assert inst.prior.p == 1
        assert inst.prior.mu == F(3, 3)
        assert inst.mu_star == F(1)
        assert inst.q_star == F(99, 100) ** 3 / 2
        a = inst.prior.state("A").types
        b = inst.prior.state("B").types
        assert (a.alpha, a.chi, a.nu) == (0, F(99, 100), F(1, 100))
        assert (b.alpha, b.chi, b.nu) == (0, 0, 1)
        assert inst.prior.state("A").prob == F(1, 2)

    def test_k_full(self):
        inst = clique_reduction(ConcreteGraph(5, []), 5)
        assert inst.mu_star == 1

    def test_k_range(self):
        with pytest.raises(ValidationError):
            clique_reduction(TRIANGLE, 4)

    def test_k4_vs_edgeless(self):
        k4 = ConcreteGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        empty = ConcreteGraph(4, [])
        assert revolt_decision(clique_reduction(k4, 4))[0]
        assert not revolt_decision(clique_reduction(empty, 4))[0]

    def test_same_degree_sequence_different_answers(self):
        c6 = ConcreteGraph(6, [(i, (i + 1) % 6) for i in range(6)])
        two_triangles = ConcreteGraph(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert sorted(c6.degree_sequence()) == sorted(two_triangles.degree_sequence())
        assert revolt_decision(clique_reduction(two_triangles, 3))[0]
        assert not revolt_decision(clique_reduction(c6, 3))[0]


class TestCliqueExists:
    def test_triangle(self):
        assert clique_exists(TRIANGLE, 3)

    def test_k1(self):
        assert clique_exists(ConcreteGraph(1, []), 1)
        assert clique_exists(PATH3, 1)

    def test_petersen_triangle_free(self):
        assert not clique_exists(petersen(), 3)
        assert clique_exists(petersen(), 2)

    def test_oversize(self):
        assert not clique_exists(TRIANGLE, 4)


class TestCatalog:
    def test_counts_up_to_iso(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
        for n, count in expected.items():
            assert len(nonisomorphic_graphs(n)) == count

    def test_guard(self):
        with pytest.raises(ValidationError):
            nonisomorphic_graphs(7)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    def test_reduction_equivalence(self, n):
        for g in nonisomorphic_graphs(n):
            for k in range(1, n + 1):
                dec, _prob = revolt_decision(clique_reduction(g, k))
                assert dec == clique_exists(g, k), (sorted(g.edges), k)

    def test_reduction_equivalence_n4(self):
        for g in nonisomorphic_graphs(4):
            for k in range(1, 5):
                dec, _prob = revolt_decision(clique_reduction(g, k))
                assert dec == clique_exists(g, k), (sorted(g.edges), k)


REFUSALS = [
    pytest.param(lambda: clique_exists(ConcreteGraph(21, []), 3), ValidationError,
                 "clique search limited to 20 vertices", id="clique-n-21"),
    pytest.param(lambda: clique_exists(TRIANGLE, 0), ValidationError,
                 "k must be positive", id="clique-k-0"),
]

@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
