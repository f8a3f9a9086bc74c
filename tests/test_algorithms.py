import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from functools import partial
from itertools import combinations, permutations

import numpy as np
import pytest

from factional_belief import (
    AgentType,
    PromiseInstance,
    PromiseOutcome,
    Prior,
    StatePrior,
    TypeDistribution,
    algorithm1,
    algorithm1_auto,
    algorithm1_auto_grid,
    algorithm1_general,
    algorithm2,
    algorithm3,
    candidate_contexts,
    context_likelihood,
    crucial_thresholds,
    derive_seed,
    enumerate_contexts,
    equilibria_map,
    expected_type_fraction,
    multistate_fixpoint,
    smallest_revolt,
    state_posterior,
    two_state_prior,
)
from factional_belief import algorithms, experiments
from factional_belief.algorithms import (
    _candidate_masses,
    _split_weights,
    _type_key,
    high_degree_cutoff,
    revolting_rule,
)
from factional_belief.errors import (
    ImpossibleContextError,
    MislabeledStatesError,
    NotTwoStatesError,
    UnknownStateError,
    ValidationError,
)
from factional_belief.model import ConcreteGraph
from test_properties import REGIME_PRIORS, expected_context_fraction, swap_state_labels

ALPHA, CHI, NU = AgentType.ALPHA, AgentType.CHI, AgentType.NU

X_A = F(2432, 3125)
X_B = F(113, 3125)
CONST4 = [4] * 1000


def chi_context_weights(prior, degseq):
    """(posterior, weight) of every possible chi context over the degree
    entries, from the model-layer primitives once per distinct degree:
    weight[s] is the context's likelihood in state s times the multiplicity
    of its degree."""
    out = []
    for d, k in sorted(Counter(degseq).items()):
        for c in enumerate_contexts(d, CHI):
            try:
                post = state_posterior(c, prior)
            except ImpossibleContextError:
                continue
            out.append((post, {s: k * context_likelihood(c, s, prior) for s in prior.labels}))
    return out


def brute_candidate_mass(prior, degseq, states, p=None, contexts=None):
    """Independent summation oracle: every chi context of every degree
    (`contexts`, from `chi_context_weights` when not given), filtered on the
    posterior mass of the candidate-state set and weighted by the degree
    multiset. Uses only the model-layer primitives."""
    p = prior.p if p is None else p
    if contexts is None:
        contexts = chi_context_weights(prior, degseq)
    per_state = {s: F(0) for s in prior.labels}
    for post, weight in contexts:
        if sum(post[s] for s in states) >= p:
            for s in prior.labels:
                per_state[s] += weight[s]
    n = len(degseq)
    return {s: v / n for s, v in per_state.items()}


def random_label_correct_prior(seed, zero_alpha=False):
    """Random two-state prior with Pr[chi|A] >= Pr[chi|B], alpha mass equal
    across states, and grid-valued thresholds; never mislabeled."""
    rng = np.random.Generator(np.random.PCG64(seed))
    denom = 12
    alpha = 0 if zero_alpha else int(rng.integers(0, 4))
    hi = int(rng.integers(0, denom - alpha + 1))
    lo = int(rng.integers(0, hi + 1))
    d_a = TypeDistribution(F(alpha, denom), F(hi, denom), F(denom - alpha - hi, denom))
    d_b = TypeDistribution(F(alpha, denom), F(lo, denom), F(denom - alpha - lo, denom))
    p = F(int(rng.integers(1, 8)), 8)
    mu = F(int(rng.integers(1, 8)), 8)
    prob_a = F(int(rng.integers(1, 8)), 8)
    return two_state_prior(p, mu, d_a, d_b, prob_a)


def random_degseq(seed, max_degree=6, max_len=14):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(2, max_len + 1))
    return [int(d) for d in rng.integers(0, max_degree + 1, size=n)]


class TestExpectedFraction:
    def test_type_mass(self, motivating_prior):
        assert expected_type_fraction("A", (CHI, ALPHA), motivating_prior) == F(4, 5)
        assert expected_type_fraction("B", (CHI, ALPHA), motivating_prior) == F(1, 5)

    def test_candidate_mass_constant4(self, motivating_prior):
        cc = candidate_contexts(motivating_prior, [4], ("A",))
        got = expected_context_fraction("A", cc, motivating_prior, CONST4)
        assert got == X_A
        # independent summation over all 15 degree-4 chi contexts
        brute = brute_candidate_mass(motivating_prior, CONST4, ("A",))
        assert brute["A"] == X_A and brute["B"] == X_B

    def test_candidate_set_is_two_plus_chi_neighbors(self, motivating_prior):
        cc = candidate_contexts(motivating_prior, [4], ("A",))
        assert sorted(c.chi_neighbors for c in cc) == [2, 3, 4]
        assert all(c.own_type is CHI and c.alpha_neighbors == 0 for c in cc)

    def test_unknown_candidate_state_named(self, motivating_prior):
        with pytest.raises(UnknownStateError, match=r"^unknown state 'C'$"):
            candidate_contexts(motivating_prior, [4], ("C",))

    @pytest.mark.parametrize("degree", [2.5, -1])
    def test_degrees_are_validated(self, motivating_prior, degree):
        with pytest.raises(ValidationError, match="is not a nonnegative integer"):
            candidate_contexts(motivating_prior, [degree], ("A",))

    def test_context_mass_sums_over_random_instances(self):
        for i in range(25):
            prior = random_label_correct_prior(derive_seed(404, i))
            degseq = random_degseq(derive_seed(405, i))
            for s in ("A", "B"):
                full = expected_context_fraction(
                    s,
                    [
                        c
                        for d in set(degseq)
                        for c in enumerate_contexts(d, CHI)
                    ],
                    prior,
                    degseq,
                )
                assert full == expected_type_fraction(s, (CHI,), prior)


class TestSplitRun:
    """Three states can split an a-run's candidates into more than one
    run, which two states never do: with alpha = 0 the one a-run of
    degree 6 holds c = 0 and c = 5, 6 at p = 1/2, and c = 0, 1 and c = 4..6
    at p = 2/5."""

    PRIOR = Prior(F(1, 2), F(1, 2), tuple(
        StatePrior(label, F(1, 3), TypeDistribution(F(0), F(x, 10), F(10 - x, 10)))
        for label, x in (("A", 1), ("B", 5), ("C", 9))
    ))

    @pytest.mark.parametrize("p, runs", [
        (F(1, 2), ((0, 0, 1), (0, 5, 7))),
        (F(2, 5), ((0, 0, 2), (0, 4, 7))),
    ])
    def test_runs_and_listing_match_fraction_reference(self, p, runs):
        prior = replace(self.PRIOR, p=p)
        _masses, scan = _candidate_masses(prior, [6], {"A", "C"}, [p], 1)
        assert [(d, got(0)) for d, got in scan] == [(6, runs)]
        possible = [c for c in enumerate_contexts(6, CHI) if c.alpha_neighbors == 0]
        want = [c for c in possible if sum(state_posterior(c, prior)[s] for s in "AC") >= p]
        assert candidate_contexts(prior, [6], ("A", "C")) == want
        assert [c.chi_neighbors for c in want] == [c for _a, lo, hi in runs for c in range(lo, hi)]


class TestCandidacyTies:
    def test_identical_states_tie_at_prob_a(self):
        # Identical type distributions leave every context's posterior on A
        # at prob_A exactly, so p = prob_A puts every row on the >= tie.
        dist = TypeDistribution(F(1, 6), F(1, 2), F(1, 3))
        prior = two_state_prior(F(1, 3), F(1, 2), dist, dist, F(1, 3))
        assert candidate_contexts(prior, [5], ("A",)) == enumerate_contexts(5, CHI)
        assert _candidate_masses(prior, [5], {"A"}, [prior.p], 1)[0] == [{
            "A": F(1, 2), "B": F(1, 2),
        }]
        above = replace(prior, p=F(1, 3) + F(1, 10**30))
        assert candidate_contexts(above, [5], ("A",)) == []
        assert _candidate_masses(above, [5], {"A"}, [above.p], 1)[0] == [{
            "A": F(0), "B": F(0),
        }]


@pytest.mark.usefixtures("cold_caches")
class TestOneTablePass:
    """The revolting contexts come from the fixpoint's last candidacy
    pass: one pass per candidate-state set the fixpoint visits, each
    running one kernel call per distinct degree, and no other."""

    GRAPH = ConcreteGraph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (5, 6)])

    @pytest.fixture
    def passes(self, monkeypatch):
        visited, scans = [], []
        masses = algorithms._candidate_masses

        def spy_masses(prior, degrees, states, *args):
            visited.append(frozenset(states))
            return masses(prior, degrees, states, *args)

        def spy(kernel):
            def scan(*args):
                scans.append(args[-1])
                return kernel(*args)

            return scan

        monkeypatch.setattr(algorithms, "_candidate_masses", spy_masses)
        for name in ("_row_scan", "_boundary_walk"):
            monkeypatch.setattr(algorithms, name, spy(getattr(algorithms, name)))
        return visited, scans

    # prior, the candidate-state sets passed over, and what revolting_rule
    # lists: some contexts, None (every state survives) or [] (none does).
    CASES = {
        "alpha": (REGIME_PRIORS["alpha"], [{"A"}], "some"),
        "all": (REGIME_PRIORS["all"], [], "every"),
        "none": (REGIME_PRIORS["none"], [], "empty"),
        # A is the one candidate, and its candidate mass falls short of mu.
        "dropped": (
            two_state_prior(
                F(99, 100), F(1, 2),
                TypeDistribution(F(0), F(4, 5), F(1, 5)),
                TypeDistribution(F(0), F(1, 5), F(4, 5)),
            ),
            [{"A"}],
            "empty",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_revolting_rule(self, case, passes):
        prior, sets, listed = self.CASES[case]
        visited, scans = passes
        degrees = [4] * 20 + [1, 2, 6]
        _sizes, contexts = revolting_rule(degrees, prior)
        assert visited == sets and scans == [1, 2, 4, 6] * len(sets)
        if listed == "every":
            assert contexts is None
        else:
            assert isinstance(contexts, list) and bool(contexts) == (listed == "some")

    @pytest.mark.parametrize("case", CASES)
    def test_run_validate(self, case, passes):
        prior, sets, _listed = self.CASES[case]
        visited, scans = passes
        experiments.run_validate(self.GRAPH, prior, "A", trials=2, seed=1)
        assert visited == sets and scans == [1, 2, 3] * len(sets)


@pytest.mark.usefixtures("cold_caches")
class TestTwoStateWalk:
    """Two states with positive alpha, chi and nu mass in both take the
    boundary walk at one level, and the threshold listing reads its levels
    from the type numerators: no degree table is built. At k levels a
    degree d walks when k <= (d + 2)/2."""

    PRIOR = two_state_prior(
        F(2, 5), F(1, 2),
        TypeDistribution(F(1, 10), F(7, 10), F(1, 5)),
        TypeDistribution(F(1, 20), F(1, 5), F(3, 4)),
    )

    def test_analyze_builds_no_table(self, monkeypatch):
        built = []
        table = algorithms._degree_table
        monkeypatch.setattr(
            algorithms, "_degree_table", lambda *args: built.append(args) or table(*args)
        )
        degrees = [1, 2, 3, 8, 8, 40]
        sizes = algorithm1(degrees, self.PRIOR)
        assert sizes["A"] > sizes["B"] and revolting_rule(degrees, self.PRIOR)[1]
        assert built == []
        thresholds = crucial_thresholds(degrees, self.PRIOR)
        assert thresholds["e_A(candidates+alpha)"] == sizes["A"]
        assert len(thresholds) > 3 and built == []

    def test_kernel_follows_cost_rule(self, monkeypatch):
        calls = []
        for name in ("_row_scan", "_boundary_walk"):
            kernel = getattr(algorithms, name)
            monkeypatch.setattr(algorithms, name, partial(self.spy, calls, name, kernel))
        degrees = list(range(13))
        for k in (1, 2, 5):
            levels = [F(j, k + 1) for j in range(1, k + 1)]
            _candidate_masses(self.PRIOR, degrees, {"A"}, levels, len(degrees))
        walked = {k: [d for name, kk, d in calls if kk == k and name == "_boundary_walk"]
                  for k in (1, 2, 5)}
        scanned = {k: [d for name, kk, d in calls if kk == k and name == "_row_scan"]
                   for k in (1, 2, 5)}
        # One level (every analyze and promise run) keeps the walk on every degree.
        assert walked == {1: degrees, 2: degrees[2:], 5: degrees[8:]}
        assert scanned == {1: [], 2: degrees[:2], 5: degrees[:8]}

    @pytest.mark.parametrize("name", ["_row_scan", "_boundary_walk"])
    def test_kernel_results_are_immutable(self, name):
        key = _type_key(self.PRIOR.states)
        inside, outside = map(tuple, _split_weights(self.PRIOR, {"A"}))
        for bounds in (((2, 5),), ((1, 5), (2, 5), (3, 5))):
            sums, runs = getattr(algorithms, name)(key, inside, outside, bounds, 6)
            assert isinstance(sums, tuple) and len(sums) == len(bounds)
            assert all(isinstance(level, tuple) and len(level) == 2 for level in sums)
            for j in range(len(bounds)):
                assert isinstance(runs(j), tuple)
                assert all(isinstance(run, tuple) and len(run) == 3 for run in runs(j))
                hash((sums, runs(j)))  # a list anywhere inside raises TypeError

    @staticmethod
    def spy(calls, name, kernel, key, inside, outside, bounds, d):
        calls.append((name, len(bounds), d))
        return kernel(key, inside, outside, bounds, d)


def three_state_prior(mu, *states):
    """p = 2/5; states A, B, C of (prob, alpha, chi, nu)."""
    return Prior(F(2, 5), mu, tuple(
        StatePrior(label, F(prob), TypeDistribution(*map(F, types)))
        for label, (prob, *types) in zip("ABC", states)
    ))


@pytest.mark.usefixtures("cold_caches")
class TestMultistateWalk:
    """With every type mass positive, a candidate set of any size walks
    when no outside state's chi/nu exceeds an inside state's (or the
    reverse), and takes the row scan otherwise."""

    # chi/nu: A 7/2, B 9/10, C 4/15. A and B reach mu, B then drops, so the
    # fixpoint passes over {A, B} and {A}, both ordered.
    ORDERED = three_state_prior(
        F(1, 2), ("2/5", "1/10", "7/10", "1/5"), ("3/10", "1/20", "9/20", "1/2"),
        ("3/10", "1/20", "1/5", "3/4"),
    )
    # chi/nu: A 7/2, B 9/10, C 1/4. A and C reach mu, B does not: B's ratio
    # lies between A's and C's, so {A, C} is unordered.
    UNORDERED = three_state_prior(
        F(11, 20), ("2/5", "1/10", "7/10", "1/5"), ("3/10", "1/20", "9/20", "1/2"),
        ("3/10", "1/2", "1/10", "2/5"),
    )
    DEGREES = [1, 2, 2, 3, 8, 8, 16, 40]

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        table = algorithms._degree_table
        monkeypatch.setattr(
            algorithms, "_degree_table", lambda *args: built.append(args[1]) or table(*args)
        )
        return built

    def test_ordered_builds_no_table(self, built, monkeypatch):
        sizes, survivors = multistate_fixpoint(self.DEGREES, self.ORDERED)
        assert survivors == {"A"} and built == []
        monkeypatch.setattr(algorithms, "_multistate_walk", algorithms._row_scan)
        monkeypatch.setattr(algorithms, "_boundary_walk", algorithms._row_scan)
        assert multistate_fixpoint(self.DEGREES, self.ORDERED) == (sizes, survivors)
        assert set(built) == set(self.DEGREES)

    def test_unordered_builds_tables(self, built):
        walk = algorithms._multistate_walk
        _masses, scan = _candidate_masses(self.UNORDERED, self.DEGREES, {"A", "C"}, [F(2, 5)], 8)
        assert built == sorted(set(self.DEGREES)) and walk.cache_info().currsize == 0
        _sizes, survivors = multistate_fixpoint(self.DEGREES, self.UNORDERED)
        assert survivors and walk.cache_info().currsize == 0
        # {A, B} is ordered (C's ratio is the least), so it walks.
        _candidate_masses(self.UNORDERED, self.DEGREES, {"A", "B"}, [F(2, 5)], 8)
        assert walk.cache_info().currsize == len(set(self.DEGREES))

    @pytest.mark.parametrize("prior", ["ORDERED", "UNORDERED"])
    def test_state_order_leaves_sizes_unchanged(self, prior):
        prior = getattr(self, prior)
        sizes, survivors = multistate_fixpoint(self.DEGREES, prior)
        for states in permutations(prior.states):
            assert multistate_fixpoint(self.DEGREES, replace(prior, states=states)) == (
                sizes, survivors
            )


class TestAlgorithm1:
    def test_motivating_constant4(self, motivating_prior):
        sizes = algorithm1(CONST4, motivating_prior)
        assert sizes == {"A": X_A, "B": X_B}

    def test_motivating_constant1(self, motivating_prior):
        sizes = algorithm1([1] * 1000, motivating_prior)
        assert sizes == {"A": F(4, 5), "B": F(1, 5)}

    def test_no_candidate_state_branch(self, motivating_prior):
        from dataclasses import replace

        prior = replace(motivating_prior, mu=F(9, 10))
        sizes = algorithm1(CONST4, prior)
        assert sizes == {"A": F(0), "B": F(0)}

    def test_both_candidates_branch(self, motivating_prior):
        from dataclasses import replace

        prior = replace(motivating_prior, mu=F(1, 10))
        sizes = algorithm1(CONST4, prior)
        assert sizes == {"A": F(4, 5), "B": F(1, 5)}

    @pytest.mark.usefixtures("cold_caches")
    def test_mislabeled_raises(self, motivating_prior, monkeypatch):
        # Only B reaches mu, which raises before any degree table is built.
        def built(*_args):
            raise AssertionError("built a degree table")

        monkeypatch.setattr(algorithms, "_degree_table", built)
        msg = "only state B is a candidate; labels appear swapped"
        with pytest.raises(MislabeledStatesError, match=f"^{re.escape(msg)}$"):
            algorithm1(CONST4, swap_state_labels(motivating_prior))

    def test_auto_relabel_maps_back(self, motivating_prior):
        sizes, relabeled = algorithm1_auto(CONST4, swap_state_labels(motivating_prior))
        assert relabeled
        assert sizes == {"A": X_B, "B": X_A}

    # p = 1, mu = 1/2 on degrees 2, 2, 3: A alone reaches mu on chi+alpha
    # (3/5 against 2/5), but no context is certain of A, so the sizes are
    # the alpha masses, X_A = 1/10 < X_B = 1/5. Neither labeling holds.
    ONLY_A_SMALLER = two_state_prior(
        1, F(1, 2), TypeDistribution(F(1, 10), F(1, 2), F(2, 5)),
        TypeDistribution(F(1, 5), F(1, 5), F(3, 5)),
    )

    @pytest.mark.parametrize("swap, strict, auto", [
        (False, "computed X_A < X_B; labels appear swapped",
         "only state A is a candidate, but computed X_A < X_B; "
         "no labeling satisfies X_A >= X_B"),
        (True, "only state B is a candidate; labels appear swapped",
         "only state B is a candidate, but computed X_B < X_A; "
         "no labeling satisfies X_A >= X_B"),
    ])
    def test_no_labeling_error_names_callers_labels(self, swap, strict, auto):
        prior = swap_state_labels(self.ONLY_A_SMALLER) if swap else self.ONLY_A_SMALLER
        with pytest.raises(MislabeledStatesError, match=f"^{re.escape(strict)}$"):
            algorithm1([2, 2, 3], prior)
        with pytest.raises(MislabeledStatesError, match=f"^{re.escape(auto)}$"):
            algorithm1_auto([2, 2, 3], prior)

    def test_auto_grid_runs_the_fixpoint_once(self, motivating_prior, monkeypatch):
        # Both states reach mu = 1/10 and the labels are swapped, so every
        # p is relabeled, from the same single fixpoint run.
        calls = []
        fixpoints = algorithms._fixpoints

        def counted(*args, **kwargs):
            calls.append(args)
            return fixpoints(*args, **kwargs)

        monkeypatch.setattr(algorithms, "_fixpoints", counted)
        prior = replace(swap_state_labels(motivating_prior), mu=F(1, 10))
        got = algorithm1_auto_grid(CONST4, prior, [F(1, 4), F(1, 2)])
        assert got == [({"A": F(1, 5), "B": F(4, 5)}, True)] * 2
        assert len(calls) == 1

    def test_auto_grid_rejects_p_outside_unit_interval(self, motivating_prior):
        with pytest.raises(ValidationError, match=r"^p values must lie in \[0, 1\]$"):
            algorithm1_auto_grid(CONST4, motivating_prior, [F(1, 2), F(3, 2)])

    def test_two_state_labels_required(self, motivating_prior):
        bad = Prior(
            p=F(1, 2),
            mu=F(1, 2),
            states=(
                StatePrior("X", F(1, 2), motivating_prior.state("A").types),
                StatePrior("Y", F(1, 2), motivating_prior.state("B").types),
            ),
        )
        with pytest.raises(NotTwoStatesError):
            algorithm1([2, 2], bad)

    def test_matches_brute_force_on_random_instances(self):
        for i in range(40):
            prior = random_label_correct_prior(derive_seed(11, i))
            degseq = random_degseq(derive_seed(12, i))
            sizes = algorithm1(degseq, prior)
            e_alpha = {
                s: expected_type_fraction(s, (ALPHA,), prior) for s in ("A", "B")
            }
            e_ca = {
                s: expected_type_fraction(s, (CHI, ALPHA), prior) for s in ("A", "B")
            }
            cand = {s for s in ("A", "B") if e_ca[s] >= prior.mu}
            if not cand:
                assert sizes == e_alpha
            elif cand == {"A", "B"}:
                assert sizes == e_ca
            else:
                mass = brute_candidate_mass(prior, degseq, ("A",))
                if mass["A"] + e_alpha["A"] >= prior.mu:
                    assert sizes == {
                        s: mass[s] + e_alpha[s] for s in ("A", "B")
                    }
                else:
                    assert sizes == e_alpha

    def test_bracketing_invariant(self):
        for i in range(40):
            prior = random_label_correct_prior(derive_seed(21, i))
            degseq = random_degseq(derive_seed(22, i))
            sizes = algorithm1(degseq, prior)
            for s in ("A", "B"):
                lo = expected_type_fraction(s, (ALPHA,), prior)
                hi = expected_type_fraction(s, (CHI, ALPHA), prior)
                assert lo <= sizes[s] <= hi

    def test_label_ordering_invariant(self):
        for i in range(40):
            prior = random_label_correct_prior(derive_seed(31, i))
            degseq = random_degseq(derive_seed(32, i))
            sizes = algorithm1(degseq, prior)
            assert sizes["A"] >= sizes["B"]

    def test_degree_permutation_invariance(self, motivating_prior):
        degseq = random_degseq(derive_seed(41, 0), max_degree=5, max_len=12)
        shuffled = list(reversed(sorted(degseq)))
        assert algorithm1(degseq, motivating_prior) == algorithm1(
            shuffled, motivating_prior
        )

    def test_threshold_monotonicity_in_p(self, motivating_prior):
        from dataclasses import replace

        degseq = [1] * 200 + [4] * 500 + [7] * 300
        prev = None
        prev_cc = None
        for num in range(1, 20):
            prior = replace(motivating_prior, p=F(num, 20))
            sizes = algorithm1(degseq, prior)
            cc = frozenset(candidate_contexts(prior, degseq, ("A",)))
            if prev is not None:
                assert sizes["A"] <= prev["A"] and sizes["B"] <= prev["B"]
                assert cc <= prev_cc
            prev, prev_cc = sizes, cc


class TestAlgorithm2:
    def test_motivating_case_a(self):
        assert algorithm2({"A": X_A, "B": X_B}, F(3, 5)) is PromiseOutcome.A

    def test_zero_threshold_omega(self):
        assert algorithm2({"A": X_A, "B": X_B}, F(0)) is PromiseOutcome.OMEGA

    def test_high_threshold_empty(self):
        assert algorithm2({"A": X_A, "B": X_B}, F(9, 10)) is PromiseOutcome.EMPTY

    def test_requires_ordering(self):
        with pytest.raises(ValidationError):
            algorithm2({"A": F(0), "B": F(1, 2)}, F(1, 4))


class TestAlgorithm3:
    def test_case_a(self, motivating_prior):
        inst = PromiseInstance(
            tuple(CONST4), motivating_prior, F(3, 5), F(1, 200), F(1, 200)
        )
        assert algorithm3(inst) is PromiseOutcome.A

    def test_case_omega(self, motivating_prior):
        inst = PromiseInstance(
            tuple(CONST4), motivating_prior, F(1, 100), F(1, 200), F(1, 200)
        )
        assert algorithm3(inst) is PromiseOutcome.OMEGA

    def test_null_when_mu_straddles_candidacy_threshold(self, motivating_prior):
        # Put mu inside the +/- epsilon/3 window around e_B(chi+alpha) = 1/5
        # so the two perturbed runs disagree about B's candidacy, and pick a
        # requested size between the branches' X_B values.
        from dataclasses import replace

        eps = F(1, 200)
        prior = replace(motivating_prior, mu=F(1, 5) + eps / 6)
        inst = PromiseInstance(tuple(CONST4), prior, F(3, 20), eps, F(1, 200))
        up = algorithm2(
            algorithm1(CONST4, replace(prior, p=prior.p + F(1, 600), mu=prior.mu + eps / 3)),
            F(3, 20),
        )
        down = algorithm2(
            algorithm1(CONST4, replace(prior, p=prior.p - F(1, 600), mu=prior.mu - eps / 3)),
            F(3, 20),
        )
        assert up is PromiseOutcome.A and down is PromiseOutcome.OMEGA
        assert algorithm3(inst) is PromiseOutcome.NULL

    def test_nudged_up_check_fails_before_nudged_down_table_guard(self):
        # At mu + epsilon/3 no state is a candidate, so the nudged-up run
        # builds no table and its sizes (the alpha masses) come out
        # reversed; only the nudged-down run (A a candidate) would build the
        # degree-1000 table past TABLE_ROW_GUARD.
        prior = two_state_prior(
            F(1, 2), F(3, 5), TypeDistribution(F(1, 10), F(1, 2), F(2, 5)),
            TypeDistribution(F(1, 5), F(1, 5), F(3, 5)),
        )
        inst = PromiseInstance((1000,), prior, F(1, 2), F(3, 100), F(3, 100))
        with pytest.raises(MislabeledStatesError, match="computed X_A < X_B"):
            algorithm3(inst)

    def test_perturbation_must_stay_inside_unit_interval(self, motivating_prior):
        with pytest.raises(ValidationError):
            PromiseInstance(tuple(CONST4), motivating_prior, F(1, 2), F(2), F(1, 200))

    def test_consistency_outside_threshold_windows(self, motivating_prior):
        # Whenever a symbol is returned, both perturbed runs returned it.
        from dataclasses import replace

        eps = delta = F(1, 200)
        for mu_star in (F(1, 100), F(1, 10), F(1, 2), F(7, 10), F(95, 100)):
            inst = PromiseInstance(tuple(CONST4), motivating_prior, mu_star, eps, delta)
            out = algorithm3(inst)
            if out is not PromiseOutcome.NULL:
                up = replace(
                    motivating_prior,
                    p=motivating_prior.p + delta / 3,
                    mu=motivating_prior.mu + eps / 3,
                )
                down = replace(
                    motivating_prior,
                    p=motivating_prior.p - delta / 3,
                    mu=motivating_prior.mu - eps / 3,
                )
                assert algorithm2(algorithm1(CONST4, up), mu_star) is out
                assert algorithm2(algorithm1(CONST4, down), mu_star) is out


class TestRequestedSize:
    @pytest.mark.parametrize("mu_star", [F(3, 2), F(-1)])
    def test_out_of_range_refused(self, mu_star, motivating_prior):
        message = r"^mu_star must lie in \[0, 1\]$"
        tol = F(1, 200)
        with pytest.raises(ValidationError, match=message):
            algorithm3(PromiseInstance(tuple(CONST4), motivating_prior, mu_star, tol, tol))
        with pytest.raises(ValidationError, match=message):
            equilibria_map(CONST4, motivating_prior, [F(1, 2), mu_star], tol, tol)

    def test_bounds_accepted(self, motivating_prior):
        tol = F(1, 200)
        for mu_star in (F(0), F(1)):
            inst = PromiseInstance(tuple(CONST4), motivating_prior, mu_star, tol, tol)
            assert inst.mu_star == mu_star


class TestEquilibriaMap:
    def test_three_point_grid(self, motivating_prior):
        rows = equilibria_map(
            CONST4, motivating_prior, [F(1, 100), F(3, 5), F(9, 10)], F(1, 200), F(1, 200)
        )
        assert [o for _m, o in rows] == [
            PromiseOutcome.OMEGA,
            PromiseOutcome.A,
            PromiseOutcome.EMPTY,
        ]

    def test_zero_grid_point(self, motivating_prior):
        rows = equilibria_map(CONST4, motivating_prior, [F(0)], F(1, 200), F(1, 200))
        assert rows[0][1] is PromiseOutcome.OMEGA

    def test_transitions_bracket_sizes(self, motivating_prior):
        step = F(1, 200)
        grid = [step * i for i in range(201)]
        rows = equilibria_map(CONST4, motivating_prior, grid, step, step)
        outs = [o for _m, o in rows]
        first_a = outs.index(PromiseOutcome.A)
        first_empty = outs.index(PromiseOutcome.EMPTY)
        assert grid[first_a - 1] < X_B <= grid[first_a]
        assert grid[first_empty - 1] < X_A <= grid[first_empty]


    def test_matches_per_point_algorithm3_on_random_instances(self):
        eps = delta = F(1, 4)
        outcomes = set()
        for i in range(20):
            prior = random_label_correct_prior(derive_seed(81, i))
            degseq = random_degseq(derive_seed(82, i))
            # Where the two perturbed runs give different sizes, a requested
            # size at either one is answered Null.
            perturbed = set()
            for sign in (1, -1):
                nudged = replace(
                    prior, p=prior.p + sign * delta / 3, mu=prior.mu + sign * eps / 3
                )
                perturbed |= set(algorithm1(degseq, nudged).values())
            mu_grid = sorted({F(k, 10) for k in range(11)} | perturbed)
            rows = equilibria_map(degseq, prior, mu_grid, eps, delta)
            assert rows == [
                (m, algorithm3(PromiseInstance(degseq, prior, m, eps, delta)))
                for m in mu_grid
            ], i
            outcomes.update(o for _m, o in rows)
        assert PromiseOutcome.NULL in outcomes
        assert equilibria_map(CONST4, random_label_correct_prior(0), [], eps, delta) == []


class TestCrucialThresholds:
    def test_reports_decision_values(self, motivating_prior):
        th = crucial_thresholds(CONST4, motivating_prior)
        assert th["e_A(chi+alpha)"] == F(4, 5)
        assert th["e_B(chi+alpha)"] == F(1, 5)
        assert th["e_A(candidates+alpha)"] == X_A
        posts = {v for k, v in th.items() if k.startswith("posterior_A_level_")}
        assert posts == {F(1, 65), F(1, 5), F(4, 5), F(64, 65), F(1024, 1025)}

    def test_reads_the_fixpoint_when_both_states_survive(self):
        # Both states reach mu on chi+alpha, so every chi agent revolts and
        # X_A is A's whole chi mass, not its {A}-candidate mass (2048/3125).
        prior = two_state_prior(
            F(2, 5),
            F(1, 2),
            TypeDistribution(F(0), F(4, 5), F(1, 5)),
            TypeDistribution(F(0), F(3, 5), F(2, 5)),
        )
        degseq = [4] * 10
        sizes, survivors = multistate_fixpoint(degseq, prior)
        assert survivors == {"A", "B"}
        th = crucial_thresholds(degseq, prior)
        assert th["e_A(candidates+alpha)"] == sizes["A"] == F(4, 5)


    def test_levels_are_the_reference_posteriors(self):
        prior = two_state_prior(
            F(2, 5),
            F(1, 2),
            TypeDistribution(F(1, 10), F(7, 10), F(1, 5)),
            TypeDistribution(F(1, 20), F(1, 5), F(3, 4)),
            F(3, 7),
        )
        th = crucial_thresholds([6] * 10, prior)
        levels = [v for k, v in th.items() if k.startswith("posterior_A_level_")]
        assert levels == sorted(
            {state_posterior(c, prior)["A"] for c in enumerate_contexts(6, CHI)}
        )

    def test_hub_levels_are_the_fraction_sorted_posteriors(self):
        # At degree 56 many posteriors of A lie within 2^-53 of 1, where
        # their floats tie.
        prior = two_state_prior(
            F(2, 5),
            F(1, 2),
            TypeDistribution(F(1, 10), F(7, 10), F(1, 5)),
            TypeDistribution(F(1, 20), F(1, 5), F(3, 4)),
        )
        degseq = [1, 1, 2, 3, 3, 4, 5, 6, 7, 8, 56, 56]
        th = crucial_thresholds(degseq, prior)
        levels = [v for k, v in th.items() if k.startswith("posterior_A_level_")]
        assert levels == sorted({
            state_posterior(c, prior)["A"]
            for d in set(degseq)
            for c in enumerate_contexts(d, CHI)
        })
        assert sum(float(q) == 1.0 for q in levels) > 1


class TestSmallestRevolt:
    def test_motivating_is_zero(self, motivating_prior):
        assert smallest_revolt(CONST4, motivating_prior) == {"A": F(0), "B": F(0)}

    def test_all_states_alpha_dominated(self):
        # transformed candidate set empty: alpha mass above mu in both states
        d_a = TypeDistribution(F(1, 2), F(1, 4), F(1, 4))
        d_b = TypeDistribution(F(1, 2), F(1, 8), F(3, 8))
        prior = two_state_prior(F(1, 2), F(1, 4), d_a, d_b)
        got = smallest_revolt([0, 0, 0, 0], prior)
        assert got == {"A": F(3, 4), "B": F(5, 8)}  # 1 - Pr[nu | state]

    def test_never_exceeds_largest(self):
        for i in range(40):
            prior = random_label_correct_prior(derive_seed(61, i))
            degseq = random_degseq(derive_seed(62, i))
            largest = algorithm1(degseq, prior)
            smallest = smallest_revolt(degseq, prior)
            for s in ("A", "B"):
                assert smallest[s] <= largest[s]


class TestHighDegreeCutoff:
    @pytest.mark.parametrize(
        "n,c,expected",
        [
            (1000, F(1), 10),
            (1000, F(1, 2), 5),
            (999, F(1), 10),
            (1, F(1), 1),
            (8, F(3, 2), 3),
        ],
    )
    def test_exact_ceiling(self, n, c, expected):
        assert high_degree_cutoff(n, c) == expected

    def test_against_float_scan(self):
        for n in (1, 7, 26, 27, 28, 64, 125, 999, 1000, 4096):
            k = high_degree_cutoff(n, F(1))
            assert k**3 >= n and (k - 1) ** 3 < n

    def test_matches_brute_force_smallest_k(self):
        # n up to 216 takes in the exact cubes of n and of c^3 * n.
        for n in range(1, 217):
            for c in (F(1), F(1, 2), F(2), F(3, 2), F(2, 3), F(5, 3)):
                k = 1
                while k**3 < c**3 * n:
                    k += 1
                assert high_degree_cutoff(n, c) == k, (n, c)

    def test_huge_constant_stays_exact(self):
        # A float cube root of this target overflows.
        c = F(10) ** 120
        assert high_degree_cutoff(1000, c) == 10**121
        k = high_degree_cutoff(1001, c)
        assert (k - 1) ** 3 < c**3 * 1001 <= k**3


class TestAlgorithm1General:
    def test_all_low_degrees_identical(self, motivating_prior):
        assert algorithm1_general(CONST4, motivating_prior) == algorithm1(
            CONST4, motivating_prior
        )

    def test_degenerates_on_random_instances(self):
        for i in range(30):
            prior = random_label_correct_prior(derive_seed(71, i))
            degseq = random_degseq(derive_seed(72, i), max_degree=6, max_len=300)
            # cutoff for n >= 244 is ceil(n^(1/3)) >= 7 > max degree
            if len(degseq) < 344:
                degseq = degseq + [0] * (344 - len(degseq))
            assert algorithm1_general(degseq, prior) == algorithm1(degseq, prior)

    def test_rare_high_degree_agent_ignored(self, motivating_prior):
        degseq = [4] * 999 + [990]
        got = algorithm1_general(degseq, motivating_prior, epsilon=F(1, 100))
        assert got == algorithm1(degseq, motivating_prior)

    def test_high_degree_mass_joins_state_a(self, motivating_prior):
        degseq = [4] * 700 + [30] * 300
        got = algorithm1_general(degseq, motivating_prior, epsilon=F(1, 100))
        low_a = F(700, 1000) * X_A
        low_b = F(700, 1000) * X_B
        h_a = F(300, 1000) * F(4, 5)
        h_b = F(300, 1000) * F(1, 5)
        assert low_a + h_a >= F(1, 2)  # gate passes with the high-degree mass
        assert low_b + h_b < F(1, 2)  # but state B cannot support them
        assert got == {"A": low_a + h_a, "B": low_b}


class TestMultistate:
    def scan_maximal(self, degseq, prior):
        """Exhaustive subset scan for the maximal self-supporting candidate
        set, built from model-layer primitives only."""
        labels = prior.labels
        e_alpha = {s: prior.state(s).types.alpha for s in labels}
        contexts = chi_context_weights(prior, degseq)
        union = frozenset()
        for r in range(len(labels) + 1):
            for sub in combinations(labels, r):
                mass = brute_candidate_mass(prior, degseq, sub, contexts=contexts)
                if all(mass[s] + e_alpha[s] >= prior.mu for s in sub):
                    union |= frozenset(sub)
        return union

    def random_multistate_prior(self, seed, m):
        rng = np.random.Generator(np.random.PCG64(seed))
        denom = 8
        states = []
        weights = [int(w) for w in rng.integers(1, 5, size=m)]
        total = sum(weights)
        for i in range(m):
            a = int(rng.integers(0, 3))
            c = int(rng.integers(0, denom - a + 1))
            states.append(
                StatePrior(
                    f"s{i}",
                    F(weights[i], total),
                    TypeDistribution(F(a, denom), F(c, denom), F(denom - a - c, denom)),
                )
            )
        p = F(int(rng.integers(1, 8)), 8)
        mu = F(int(rng.integers(1, 8)), 8)
        return Prior(p=p, mu=mu, states=tuple(states))

    def test_two_state_agreement(self):
        for i in range(40):
            prior = random_label_correct_prior(derive_seed(81, i))
            degseq = random_degseq(derive_seed(82, i))
            try:
                expected = algorithm1(degseq, prior)
            except MislabeledStatesError:
                continue
            assert multistate_fixpoint(degseq, prior)[0] == expected

    def test_three_state_hand_trace(self):
        # Degree-2 agents; chi masses (7/8, 5/8, 1/8), mu = 3/5, p = 73/100.
        # s2 is never a candidate. Contexts believing {s0, s1} at level p are
        # those with at least one chi neighbor, carrying (5/8)(55/64) < mu in
        # s1, so s1 drops after the first round. Recomputed for {s0} alone,
        # only the all-chi context qualifies (343/469 >= 73/100), carrying
        # (7/8)^3 >= mu in s0, so the fixpoint is exactly {s0}.
        prior = Prior(
            p=F(73, 100),
            mu=F(3, 5),
            states=(
                StatePrior("s0", F(1, 3), TypeDistribution(F(0), F(7, 8), F(1, 8))),
                StatePrior("s1", F(1, 3), TypeDistribution(F(0), F(5, 8), F(3, 8))),
                StatePrior("s2", F(1, 3), TypeDistribution(F(0), F(1, 8), F(7, 8))),
            ),
        )
        degseq = [2] * 10
        # first-round candidate mass in s1 really is below mu
        first_round = brute_candidate_mass(prior, degseq, ("s0", "s1"))
        assert first_round["s1"] == F(5, 8) * F(55, 64) < prior.mu
        sizes, survivors = multistate_fixpoint(degseq, prior)
        assert survivors == self.scan_maximal(degseq, prior)
        assert survivors == frozenset({"s0"})
        mass = brute_candidate_mass(prior, degseq, ("s0",))
        assert mass["s0"] == F(343, 512) >= prior.mu
        assert sizes == {s: mass[s] for s in prior.labels}

    def test_matches_subset_scan_on_random_instances(self):
        for i in range(60):
            m = 2 + i % 4
            prior = self.random_multistate_prior(derive_seed(83, i), m)
            degseq = random_degseq(derive_seed(84, i), max_degree=4, max_len=8)
            _sizes, survivors = multistate_fixpoint(degseq, prior)
            assert survivors == self.scan_maximal(degseq, prior), (i, m)

    def test_removal_order_irrelevant(self):
        for i in range(40):
            m = 2 + i % 4
            prior = self.random_multistate_prior(derive_seed(85, i), m)
            degseq = random_degseq(derive_seed(86, i), max_degree=4, max_len=8)
            _sizes, batch = multistate_fixpoint(degseq, prior)
            # one-at-a-time removal in label order
            labels = prior.labels
            e_alpha = {s: prior.state(s).types.alpha for s in labels}
            e_ca = {
                s: expected_type_fraction(s, (CHI, ALPHA), prior) for s in labels
            }
            survivors = {s for s in labels if e_ca[s] >= prior.mu}
            while True:
                mass = brute_candidate_mass(prior, degseq, tuple(sorted(survivors)))
                failing = sorted(
                    s for s in survivors if mass[s] + e_alpha[s] < prior.mu
                )
                if not failing:
                    break
                survivors.remove(failing[0])
            assert frozenset(survivors) == batch


# Each call gets the motivating prior.
REFUSALS = [
    pytest.param(lambda prior: high_degree_cutoff(0, 1), ValidationError,
                 "need cutoff_c > 0 and n >= 1", id="cutoff-n-0"),
    pytest.param(lambda prior: high_degree_cutoff(5, 0), ValidationError,
                 "need cutoff_c > 0 and n >= 1", id="cutoff-c-0"),
    pytest.param(lambda prior: algorithm1_general([1, 1], prior, epsilon=0), ValidationError,
                 "epsilon must be positive", id="general-epsilon-0"),
]

@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message, motivating_prior):
    with pytest.raises(error) as info:
        call(motivating_prior)
    assert type(info.value) is error and str(info.value) == message
