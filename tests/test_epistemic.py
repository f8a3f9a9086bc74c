from fractions import Fraction as F
from math import ceil

import pytest

from factional_belief import (
    AgentPartition,
    EpistemicModel,
    FiniteProbSpace,
    belief_operator,
    common_belief_by_search,
    common_belief_fixpoint,
    common_belief_search_set,
    derive_seed,
    epistemic,
    hierarchy_levels,
    is_evident_belief,
)
from factional_belief.epistemic import (
    check_fixpoint_search_agreement,
    check_operator_laws,
)
from factional_belief.errors import (
    InvalidAgentError,
    SpaceTooLargeError,
    ValidationError,
)
from factional_belief.experiments import random_epistemic_model

ALL = frozenset(range(1, 7))


class TestBeliefOperator:
    def test_die_even_at_half(self, die_model):
        assert belief_operator(die_model, "i", F(1, 2), {2, 4, 6}) == ALL

    def test_die_even_above_half(self, die_model):
        assert belief_operator(die_model, "i", F(2, 3), {2, 4, 6}) == frozenset()

    def test_p_zero_believes_everything(self, die_model):
        assert belief_operator(die_model, "i", F(0), set()) == ALL

    def test_partition_cells(self, two_agent_die):
        got = belief_operator(two_agent_die, "1", F(2, 3), {1, 2, 5})
        assert got == frozenset({1, 2})

    def test_unknown_agent(self, die_model):
        with pytest.raises(InvalidAgentError):
            belief_operator(die_model, "nope", F(1, 2), {1})

    def test_event_must_be_known(self, die_model):
        with pytest.raises(ValidationError):
            belief_operator(die_model, "i", F(1, 2), {7})


class TestEvidentBelief:
    def test_universe_trivially_evident(self, two_agent_die):
        ok, witnesses = is_evident_belief(two_agent_die, F(1), F(1), ALL)
        assert ok and witnesses == frozenset({"1", "2"})

    def test_empty_event_vacuous(self, two_agent_die):
        ok, witnesses = is_evident_belief(two_agent_die, F(1), F(1), set())
        assert ok and witnesses == frozenset({"1", "2"})

    def test_cell_of_informed_agent(self, two_agent_die):
        ok, witnesses = is_evident_belief(two_agent_die, F(1), F(1, 2), {1, 2})
        assert ok and witnesses == frozenset({"1"})

    def test_fails_when_fraction_short(self, two_agent_die):
        ok, witnesses = is_evident_belief(two_agent_die, F(1), F(3, 4), {1, 2})
        assert not ok and witnesses == frozenset({"1"})


class TestCommonBeliefFixpoint:
    def test_universe(self, two_agent_die):
        assert common_belief_fixpoint(two_agent_die, F(1, 2), F(1, 2), ALL) == ALL

    def test_empty_event_positive_p(self, two_agent_die):
        got = common_belief_fixpoint(two_agent_die, F(1, 2), F(1, 2), set())
        assert got == frozenset()

    def test_informed_pair_cell(self, two_agent_die):
        got = common_belief_fixpoint(two_agent_die, F(1), F(1, 2), {1, 2})
        assert got == frozenset({1, 2})

    def test_die_even_trivial_partition(self, die_model):
        # the uninformed agent half-believes evenness everywhere
        got = common_belief_fixpoint(die_model, F(1, 2), F(1), {2, 4, 6})
        assert got == ALL

    def test_mu_zero_is_everything(self, two_agent_die):
        assert common_belief_fixpoint(two_agent_die, F(1), F(0), {5}) == ALL

    def test_guard_rejects_before_enumerating(self, monkeypatch):
        # 20 agents at mu = 1/2: C(20, 10)^2 = 34,134,779,536 witness-set pairs.
        def enumerated(*_args):
            raise AssertionError("enumerated past the guard")

        monkeypatch.setattr(epistemic._BeliefKernel, "belief", enumerated)
        monkeypatch.setattr(epistemic, "_witness_chain", enumerated)
        model = EpistemicModel.make(
            {i: F(1, 2) for i in range(2)}, {f"a{j}": [[0], [1]] for j in range(20)}
        )
        with pytest.raises(SpaceTooLargeError, match="34134779536"):
            common_belief_fixpoint(model, F(1, 2), F(1, 2), {0})

    def test_guard_admits_six_agents_at_half(self):
        model = EpistemicModel.make(
            {i: F(1, 2) for i in range(2)}, {f"a{j}": [[0], [1]] for j in range(6)}
        )
        assert common_belief_fixpoint(model, F(1, 2), F(1, 2), {0}) == {0}


class TestCommonBeliefSearch:
    def test_universe_everywhere(self, two_agent_die):
        for omega in ALL:
            assert common_belief_by_search(two_agent_die, F(1, 2), F(1, 2), ALL, omega)

    def test_empty_event_nowhere(self, two_agent_die):
        for omega in ALL:
            assert not common_belief_by_search(
                two_agent_die, F(1, 2), F(1, 2), set(), omega
            )

    def test_guard(self):
        model = EpistemicModel.make(
            {i: F(1, 21) for i in range(21)}, {"a": [list(range(21))]}
        )
        with pytest.raises(SpaceTooLargeError):
            common_belief_search_set(model, F(1, 2), F(1, 2), {0})

    def test_pruned_search_equals_naive_union(self):
        # The naive union looks at every event, with no pruning on f and no
        # skipping of events already covered.
        for i in range(40):
            model, p, mu = random_epistemic_model(derive_seed(7, i))
            outcomes = list(model.space.outcomes)
            events = [
                frozenset(o for j, o in enumerate(outcomes) if bits >> j & 1)
                for bits in range(1 << len(outcomes))
            ]
            belief = {
                e: [belief_operator(model, a, p, e) for a in model.agents]
                for e in events
            }
            need = mu * len(model.agents)
            for f in events:
                naive = frozenset().union(*(
                    e for e in events
                    if sum(1 for b in belief[e] if e <= b) >= need
                    and sum(1 for b in belief[f] if e <= b) >= need
                ))
                assert common_belief_search_set(model, p, mu, f) == naive, (i, f)

    def test_matches_fixpoint_on_die(self, two_agent_die):
        for event in ({1, 2}, {2, 4, 6}, {1}, ALL):
            assert common_belief_search_set(
                two_agent_die, F(1, 2), F(1, 2), event
            ) == common_belief_fixpoint(two_agent_die, F(1, 2), F(1, 2), event)


class TestHierarchyLevels:
    def test_levels_can_overshoot_the_fixpoint(self):
        # The raw level sequence is not monotone: level one is believed only
        # on the informed agent's cell, but the uninformed agent believes
        # *that* everywhere, so level two jumps back to the whole space.
        model = EpistemicModel.make(
            {0: F(8, 23), 1: F(2, 23), 2: F(1, 23), 3: F(4, 23), 4: F(1, 23), 5: F(7, 23)},
            {"a": [[0, 1, 2, 3, 4, 5]], "b": [[0, 3], [4], [5], [1, 2]]},
        )
        p, mu = F(1, 8), F(1, 2)
        levels = hierarchy_levels(model, p, mu, {1}, 3)
        assert levels[0] == frozenset({1, 2})
        assert levels[1] == frozenset(range(6))  # not a subset of level 0
        fix = common_belief_fixpoint(model, p, mu, {1})
        search = common_belief_search_set(model, p, mu, {1})
        assert fix == search == frozenset({1, 2})


MU_QUERIES = {
    "search_set": lambda m, p, mu, f: common_belief_search_set(m, p, mu, f),
    "by_search": lambda m, p, mu, f: common_belief_by_search(
        m, p, mu, f, m.space.outcomes[0]
    ),
    "hierarchy_levels": lambda m, p, mu, f: hierarchy_levels(m, p, mu, f, 2),
    "agreement": lambda m, p, mu, f: check_fixpoint_search_agreement(m, p, mu),
}


@pytest.mark.parametrize("mu", [F(3), F(-1)])
@pytest.mark.parametrize("query", MU_QUERIES.values(), ids=MU_QUERIES.keys())
def test_mu_outside_unit_interval_rejected(query, mu):
    # At the unchecked search, mu = 3 answered frozenset() and mu = -1 the
    # whole space.
    model, p, _mu = random_epistemic_model(1)
    with pytest.raises(ValidationError, match=r"mu must lie in \[0, 1\]"):
        query(model, p, mu, model.space.outcomes[:1])


P_QUERIES = dict(
    MU_QUERIES,
    fixpoint=lambda m, p, mu, f: common_belief_fixpoint(m, p, mu, f),
    evident=lambda m, p, mu, f: is_evident_belief(m, p, mu, f),
    belief_operator=lambda m, p, mu, f: belief_operator(m, m.agents[0], p, f),
    operator_laws=lambda m, p, mu, f: check_operator_laws(m, p),
)


HALVES = FiniteProbSpace(("1", "2"), (F(1, 2), F(1, 2)))
SPLIT = AgentPartition(({"1"}, {"2"}))


# The checks the model loader cannot reach: its outcomes come as a list
# read against a "prob" object, and its agents as the keys of an object.
@pytest.mark.parametrize("build, message", [
    (lambda: FiniteProbSpace(("1", "2"), (F(1),)), "one probability per outcome required"),
    (lambda: FiniteProbSpace(("1", "1"), (F(1, 2), F(1, 2))),
     "outcome labels must be unique"),
    (lambda: EpistemicModel(HALVES, ("i", "j"), (SPLIT,)), "one partition per agent required"),
    (lambda: EpistemicModel(HALVES, ("i", "i"), (SPLIT, SPLIT)), "agent ids must be unique"),
])
def test_model_classes_reject(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("p", [F(3), F(-1, 2)])
@pytest.mark.parametrize("query", P_QUERIES.values(), ids=P_QUERIES.keys())
def test_p_outside_unit_interval_rejected_at_mu_zero(query, p):
    # At mu = 0 the fixpoint used to return the whole space without reading
    # p, while the search rejected it.
    model = EpistemicModel.make({0: F(1, 2), 1: F(1, 2)}, {"a": [[0], [1]]})
    with pytest.raises(ValidationError, match=r"p must lie in \[0, 1\]"):
        query(model, p, F(0), {0})


class TestBattery:
    def test_agreement_on_random_models(self):
        for i in range(120):
            model, p, mu = random_epistemic_model(derive_seed(2024, i))
            assert check_fixpoint_search_agreement(model, p, mu), (i, p, mu)

    def test_battery_fails_when_the_fixpoint_drops_an_outcome(self, monkeypatch):
        # f = the universe is common belief everywhere, so a fixpoint that
        # loses its lowest outcome disagrees with the search on every model.
        real = epistemic._fixpoint

        def lossy(kernel, mu, f):
            result = real(kernel, mu, f)
            return result & (result - 1)

        models = [random_epistemic_model(derive_seed(404, i)) for i in range(20)]
        assert all(check_fixpoint_search_agreement(*m) for m in models)
        monkeypatch.setattr(epistemic, "_fixpoint", lossy)
        assert not any(check_fixpoint_search_agreement(*m) for m in models)

    def test_search_over_evident_events_equals_search_set(self):
        # The battery's search, run over the events found evident once per
        # model, against the single-f search over all events, for every f.
        for i in range(200):
            model, p, mu = random_epistemic_model(derive_seed(303, i))
            kernel = epistemic._BeliefKernel(model, p)
            need = epistemic._need(model, mu)
            events = epistemic._events(model)
            evident = [e for e in events if epistemic._evident(kernel, need, e)]
            for f in events:
                hoisted = epistemic._search(evident, kernel, need, f, evident=True)
                assert kernel.event(hoisted) == common_belief_search_set(
                    model, p, mu, kernel.event(f)
                ), (i, f)

    def test_operator_laws_on_random_models(self):
        for i in range(120):
            model, p, _mu = random_epistemic_model(derive_seed(55, i))
            assert check_operator_laws(model, p), i

    def test_chain_continuity_on_random_chains(self):
        import numpy as np

        for i in range(80):
            model, p, _mu = random_epistemic_model(derive_seed(77, i))
            rng = np.random.Generator(np.random.PCG64(derive_seed(78, i)))
            outcomes = list(model.space.outcomes)
            chain = [frozenset(outcomes)]
            while len(chain[-1]) > 0:
                drop = rng.integers(0, len(outcomes))
                nxt = chain[-1] - {outcomes[int(drop)]}
                if nxt == chain[-1]:
                    break
                chain.append(nxt)
            for agent in model.agents:
                limit = frozenset.intersection(*chain)
                left = belief_operator(model, agent, p, limit)
                right = frozenset(model.space.outcomes)
                for e in chain:
                    right &= belief_operator(model, agent, p, e)
                assert left == right

    def test_fixpoint_output_pointwise_evident(self):
        # Every outcome of the common-belief event has at least a mu
        # fraction of agents believing the event there.
        for i in range(80):
            model, p, mu = random_epistemic_model(derive_seed(91, i))
            outcomes = list(model.space.outcomes)
            m = len(outcomes)
            need = ceil(mu * len(model.agents))
            for bits in range(1 << m):
                f = frozenset(outcomes[j] for j in range(m) if bits >> j & 1)
                fix = common_belief_fixpoint(model, p, mu, f)
                beliefs = [
                    belief_operator(model, a, p, fix) for a in model.agents
                ]
                for omega in fix:
                    assert sum(1 for b in beliefs if omega in b) >= need


REFUSALS = [
    pytest.param(lambda: common_belief_by_search(EpistemicModel(HALVES, ("i",), (SPLIT,)),
                                                 F(1, 2), F(1, 2), {"1"}, "3"),
                 ValidationError, "unknown outcome '3'", id="search-omega-unknown"),
]

@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
