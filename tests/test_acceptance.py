"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its runtime (run with `pytest tests/test_acceptance.py -v -s`).

Expected values are either fixed constants of the motivating setting or are
recomputed here through independent paths (brute-force enumeration, subset
scans, the exhaustive oracle) rather than trusted from the code under test.
"""

import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

from factional_belief import (
    AgentType,
    ConcreteGraph,
    ContextClass,
    PromiseInstance,
    PromiseOutcome,
    Prior,
    StatePrior,
    TypeDistribution,
    algorithm1,
    algorithm1_general,
    algorithm3,
    clique_exists,
    clique_reduction,
    context_likelihood,
    derive_seed,
    enumerate_contexts,
    equilibria_map,
    expected_revolt_fraction,
    least_equilibrium,
    multistate_fixpoint,
    nonisomorphic_graphs,
    revolt_decision,
    smallest_revolt,
    state_posterior,
    torus_grid,
    two_state_prior,
)
from factional_belief.bounds import (
    markov_noncandidate_bound,
    noncandidate_expectation_torus,
)
from factional_belief.epistemic import (
    check_fixpoint_search_agreement,
    check_operator_laws,
)
from factional_belief.errors import ImpossibleContextError
from factional_belief.experiments import (
    SweepConfig,
    grid,
    random_epistemic_model,
    run_sweep,
    run_validate,
)

ALPHA, CHI, NU = AgentType.ALPHA, AgentType.CHI, AgentType.NU

X_A = F(2432, 3125)
X_B = F(113, 3125)
CONST4 = [4] * 1000

BATTERY_SEED = 20240808
BATTERY_SIZE = 1000


def report(number: int, message: str, started: float) -> None:
    print(f"[criterion {number:2d}] PASS {message} ({time.time() - started:.1f}s)")


class TestCriterion1TableReproduction:
    def test_tables(self, motivating_prior):
        t0 = time.time()
        likelihood_a = [
            F(1, 3125), F(4, 625), F(32, 625), F(128, 625), F(256, 625), F(1024, 3125),
        ]
        likelihood_b = list(reversed(likelihood_a))
        posterior_a = [
            F(1, 1025), F(1, 65), F(1, 5), F(4, 5), F(64, 65), F(1024, 1025),
        ]
        for k in range(6):
            row = []
            if k >= 1:
                row.append(ContextClass(CHI, 0, k - 1, 5 - k))
            if k <= 4:
                row.append(ContextClass(NU, 0, k, 4 - k))
            got_a = sum(context_likelihood(c, "A", motivating_prior) for c in row)
            got_b = sum(context_likelihood(c, "B", motivating_prior) for c in row)
            assert got_a == likelihood_a[k], f"likelihood row k={k} state A"
            assert got_b == likelihood_b[k], f"likelihood row k={k} state B"
            for c in row:
                assert state_posterior(c, motivating_prior)["A"] == posterior_a[k]
        elapsed = time.time() - t0
        assert elapsed < 1.0
        report(1, "likelihood and posterior tables reproduced exactly", t0)


class TestCriterion2MotivatingConstants:
    def test_constants(self, motivating_prior):
        t0 = time.time()
        expect = noncandidate_expectation_torus(motivating_prior, "A")
        assert expect == F(693, 3125)
        bound = markov_noncandidate_bound(expect, F(1, 2), 1000)
        assert bound == F(1386, 3125)
        assert 1 - bound == F(1739, 3125)
        report(2, "non-candidate expectation and Markov bound exact", t0)


class TestCriterion3Prop1Equivalence:
    def test_battery(self):
        t0 = time.time()
        for i in range(BATTERY_SIZE):
            model, p, mu = random_epistemic_model(derive_seed(BATTERY_SEED, i))
            assert check_fixpoint_search_agreement(model, p, mu), (
                f"fixpoint/search disagreement on battery model {i}"
            )
        elapsed = time.time() - t0
        assert elapsed < 300
        report(
            3,
            f"fixpoint matches witness search on all events of "
            f"{BATTERY_SIZE} random models",
            t0,
        )


class TestCriterion4OperatorLaws:
    def test_battery(self):
        t0 = time.time()
        import numpy as np

        for i in range(BATTERY_SIZE):
            model, p, _mu = random_epistemic_model(derive_seed(BATTERY_SEED, i))
            assert check_operator_laws(model, p), f"operator law broken on model {i}"
            # finite-chain continuity on a random decreasing chain
            rng = np.random.Generator(np.random.PCG64(derive_seed(BATTERY_SEED, i, 1)))
            outcomes = list(model.space.outcomes)
            chain = [frozenset(outcomes)]
            for _ in range(len(outcomes)):
                drop = outcomes[int(rng.integers(len(outcomes)))]
                chain.append(chain[-1] - {drop})
            from factional_belief import belief_operator

            for agent in model.agents:
                left = belief_operator(model, agent, p, frozenset.intersection(*chain))
                right = frozenset(outcomes)
                for e in chain:
                    right &= belief_operator(model, agent, p, e)
                assert left == right, f"chain continuity broken on model {i}"
        report(
            4,
            f"monotonicity, idempotence, chain continuity on "
            f"{BATTERY_SIZE} random models",
            t0,
        )


class TestCriterion5Algorithm1Values:
    def test_exact_sizes(self, motivating_prior):
        t0 = time.time()
        assert algorithm1(CONST4, motivating_prior) == {"A": X_A, "B": X_B}
        assert algorithm1([1] * 1000, motivating_prior) == {"A": F(4, 5), "B": F(1, 5)}
        # independent oracle: context enumeration and summation per degree
        for degree, sizes in ((4, (X_A, X_B)), (1, (F(4, 5), F(1, 5)))):
            mass = {"A": F(0), "B": F(0)}
            for c in enumerate_contexts(degree, CHI):
                try:
                    post = state_posterior(c, motivating_prior)
                except ImpossibleContextError:
                    continue
                if post["A"] >= motivating_prior.p:
                    for s in ("A", "B"):
                        mass[s] += context_likelihood(c, s, motivating_prior)
            assert (mass["A"], mass["B"]) == sizes
        report(5, "constant-4 and constant-1 revolt sizes exact", t0)


class TestCriterion6PromiseRegion:
    def test_region_and_counterfactual(self, motivating_prior):
        t0 = time.time()
        step = F(1, 200)
        mu_grid = grid(0, 1, step)
        rows = equilibria_map(CONST4, motivating_prior, mu_grid, step, step)
        outcomes = [o for _m, o in rows]
        assert PromiseOutcome.NULL not in outcomes
        first_a = outcomes.index(PromiseOutcome.A)
        first_empty = outcomes.index(PromiseOutcome.EMPTY)
        assert all(o is PromiseOutcome.OMEGA for o in outcomes[:first_a])
        assert all(
            o is PromiseOutcome.A for o in outcomes[first_a:first_empty]
        )
        assert all(o is PromiseOutcome.EMPTY for o in outcomes[first_empty:])
        assert mu_grid[first_a - 1] < X_B <= mu_grid[first_a]
        assert mu_grid[first_empty - 1] < X_A <= mu_grid[first_empty]
        # counterfactual: mu straddling B's candidacy threshold within the
        # epsilon/3 perturbation window forces the two runs apart
        prior = replace(motivating_prior, mu=F(1, 5) + step / 6)
        inst = PromiseInstance(tuple(CONST4), prior, F(3, 20), step, step)
        assert algorithm3(inst) is PromiseOutcome.NULL
        elapsed = time.time() - t0
        assert elapsed < 60
        report(
            6,
            f"promise region omega/A/empty with transitions bracketing "
            f"X_B and X_A at step 1/200; threshold-straddling instance is Null",
            t0,
        )


class TestCriterion7ReductionEquivalence:
    def test_full_catalog(self):
        t0 = time.time()
        checked = 0
        for n in range(1, 7):
            for g in nonisomorphic_graphs(n):
                for k in range(1, n + 1):
                    decision, _prob = revolt_decision(clique_reduction(g, k))
                    assert decision == clique_exists(g, k), (
                        f"n={n}, edges={sorted(g.edges)}, k={k}"
                    )
                    checked += 1
        # same degree sequence, different clique structure, different answers
        c6 = ConcreteGraph(6, [(i, (i + 1) % 6) for i in range(6)])
        two_triangles = ConcreteGraph(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert sorted(c6.degree_sequence()) == sorted(two_triangles.degree_sequence())
        assert revolt_decision(clique_reduction(two_triangles, 3))[0]
        assert not revolt_decision(clique_reduction(c6, 3))[0]
        elapsed = time.time() - t0
        assert elapsed < 1800
        report(
            7,
            f"revolt decision equals clique existence on all {checked} "
            f"(graph, k) cases up to n=6, plus the equal-degree divergence pair",
            t0,
        )


class TestCriterion8Concentration:
    def test_torus_validation(self, motivating_prior):
        t0 = time.time()
        graph = torus_grid(25, 40)
        rep = run_validate(graph, motivating_prior, "A", trials=200, seed=BATTERY_SEED)
        mean = F(rep["empirical_candidate_fraction"]).limit_denominator(10**9)
        assert abs(float(mean) - float(X_A)) <= 0.02
        assert rep["envelope_violations"] == 0
        assert float(rep["max_deviation"]) <= float(rep["envelope_deviation"])
        elapsed = time.time() - t0
        assert elapsed < 600
        report(
            8,
            f"torus candidate fraction {float(mean):.4f} within 0.02 of "
            f"{float(X_A):.5f}; all 200 deviations within the Chernoff envelope",
            t0,
        )


class TestCriterion9SweepShapes:
    def test_parity_and_p_monotonicity(self, motivating_prior):
        t0 = time.time()
        cfg = SweepConfig(
            family="constant",
            n=1000,
            axis="param",
            values=grid(1, 8, 1),
            prior=motivating_prior,
            trials=1,
            seed=0,
        )
        rows = run_sweep(cfg)
        ea = [F(r["mean_eA_exact"]) for r in rows]
        assert ea[0] == F(4, 5) and ea[1] == F(96, 125)  # 0.8 > 0.768
        for d in range(1, 8):  # odd degrees sit above their even neighbors
            if d % 2 == 1:
                assert ea[d - 1] > ea[d]
            else:
                assert ea[d - 1] < ea[d]

        p_values = grid("1/20", "19/20", "1/20")
        for family, param in (("constant", F(4)), ("ba", F(2)), ("er", F(1, 250))):
            cfg = SweepConfig(
                family=family,
                n=1000,
                axis="p",
                values=p_values,
                prior=motivating_prior,
                fixed_param=param,
                trials=100,
                seed=BATTERY_SEED,
            )
            rows = run_sweep(cfg)
            for key in ("mean_eA_exact", "mean_eB_exact"):
                vals = [F(r[key]) for r in rows]
                assert all(a >= b for a, b in zip(vals, vals[1:])), (family, key)
        report(
            9,
            "constant-degree parity alternation exact; p sweeps weakly "
            "decreasing for constant, ba, er at mean degree 4",
            t0,
        )


class TestCriterion10Extensions:
    def scan_maximal(self, degseq, prior):
        labels = prior.labels
        e_alpha = {s: prior.state(s).types.alpha for s in labels}
        n = len(degseq)
        # Each possible chi context's posterior and likelihoods, once per
        # distinct degree, the likelihoods weighted by its multiplicity.
        contexts = []
        for d, k in Counter(degseq).items():
            for c in enumerate_contexts(d, CHI):
                try:
                    post = state_posterior(c, prior)
                except ImpossibleContextError:
                    continue
                contexts.append((post, {s: k * context_likelihood(c, s, prior) for s in labels}))
        union = frozenset()
        for r in range(len(labels) + 1):
            for sub in combinations(labels, r):
                mass = {s: F(0) for s in labels}
                for post, weight in contexts:
                    if sum(post[s] for s in sub) >= prior.p:
                        for s in labels:
                            mass[s] += weight[s]
                if all(mass[s] / n + e_alpha[s] >= prior.mu for s in sub):
                    union |= frozenset(sub)
        return union

    def random_multistate(self, seed):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(seed))
        m = int(rng.integers(2, 6))
        weights = [int(w) for w in rng.integers(1, 5, size=m)]
        total = sum(weights)
        states = []
        for i in range(m):
            a = int(rng.integers(0, 3))
            c = int(rng.integers(0, 9 - a))
            states.append(
                StatePrior(
                    f"s{i}",
                    F(weights[i], total),
                    TypeDistribution(F(a, 8), F(c, 8), F(8 - a - c, 8)),
                )
            )
        p = F(int(rng.integers(1, 8)), 8)
        mu = F(int(rng.integers(1, 8)), 8)
        degseq = [int(d) for d in rng.integers(0, 5, size=int(rng.integers(2, 9)))]
        return Prior(p=p, mu=mu, states=tuple(states)), degseq

    def test_multistate_matches_subset_scan(self):
        t0 = time.time()
        for i in range(200):
            prior, degseq = self.random_multistate(derive_seed(BATTERY_SEED, 10, i))
            _sizes, survivors = multistate_fixpoint(degseq, prior)
            assert survivors == self.scan_maximal(degseq, prior), i
        report(
            10, "multistate fixpoint equals exhaustive subset scan on 200 instances", t0
        )

    def test_smallest_vs_largest_and_oracle(self, motivating_prior):
        t0 = time.time()
        import numpy as np

        # smallest never exceeds largest
        for i in range(60):
            rng = np.random.Generator(np.random.PCG64(derive_seed(BATTERY_SEED, 20, i)))
            alpha = int(rng.integers(0, 4))
            hi = int(rng.integers(0, 13 - alpha))
            lo = int(rng.integers(0, hi + 1))
            prior = two_state_prior(
                F(int(rng.integers(1, 8)), 8),
                F(int(rng.integers(1, 8)), 8),
                TypeDistribution(F(alpha, 12), F(hi, 12), F(12 - alpha - hi, 12)),
                TypeDistribution(F(alpha, 12), F(lo, 12), F(12 - alpha - lo, 12)),
            )
            degseq = [int(d) for d in rng.integers(0, 6, size=10)]
            largest = algorithm1(degseq, prior)
            smallest = smallest_revolt(degseq, prior)
            for s in ("A", "B"):
                assert smallest[s] <= largest[s], i

        # smallest matches the oracle's least fixpoint on 2..6 vertex graphs
        dist_a = TypeDistribution(F(2, 5), F(2, 5), F(1, 5))
        dist_b = TypeDistribution(F(2, 5), F(1, 5), F(2, 5))
        spark_a = TypeDistribution(F(1, 4), F(1, 2), F(1, 4))
        spark_b = TypeDistribution(F(1, 4), F(1, 4), F(1, 2))
        instances = [
            (ConcreteGraph(2, []), two_state_prior(F(1, 2), F(1, 3), dist_a, dist_b)),
            (
                ConcreteGraph(3, [(0, 1), (1, 2)]),
                two_state_prior(F(1, 2), F(1, 4), dist_a, dist_b),
            ),
            (
                ConcreteGraph(4, [(0, 1)]),
                two_state_prior(F(1), F(7, 8), spark_a, spark_b),
            ),
            (
                ConcreteGraph(4, [(0, 1)]),
                Prior(
                    p=F(1),
                    mu=F(7, 8),
                    states=(
                        StatePrior("A", F(2, 3), spark_a),
                        StatePrior("B", F(1, 3), spark_b),
                    ),
                ),
            ),
            (
                ConcreteGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
                two_state_prior(F(1, 2), F(1, 5), dist_a, dist_b),
            ),
            (
                ConcreteGraph(6, [(i, (i + 1) % 6) for i in range(6)]),
                two_state_prior(F(1, 2), F(1, 6), dist_a, dist_b),
            ),
            (
                ConcreteGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
                two_state_prior(F(1), F(7, 8), spark_a, spark_b),
            ),
        ]
        for graph, prior in instances:
            expected = smallest_revolt(graph.degree_sequence(), prior)
            least = least_equilibrium(graph, prior)
            for s in ("A", "B"):
                got = expected_revolt_fraction(graph, prior, least, s)
                assert got == expected[s], (graph.n, s)

        # the arbitrary-degree variant degenerates when all degrees are low
        for i in range(40):
            rng = np.random.Generator(np.random.PCG64(derive_seed(BATTERY_SEED, 30, i)))
            alpha = int(rng.integers(0, 4))
            hi = int(rng.integers(0, 13 - alpha))
            lo = int(rng.integers(0, hi + 1))
            prior = two_state_prior(
                F(int(rng.integers(1, 8)), 8),
                F(int(rng.integers(1, 8)), 8),
                TypeDistribution(F(alpha, 12), F(hi, 12), F(12 - alpha - hi, 12)),
                TypeDistribution(F(alpha, 12), F(lo, 12), F(12 - alpha - lo, 12)),
            )
            # n = 400 gives cutoff ceil(400^(1/3)) = 8 > max degree 6
            degseq = [int(d) for d in rng.integers(0, 7, size=400)]
            assert algorithm1_general(degseq, prior) == algorithm1(degseq, prior), i
        report(
            10,
            "smallest <= largest on random instances; smallest matches the "
            "oracle least fixpoint on 2..6 vertex instances; general variant "
            "degenerates below the cutoff",
            t0,
        )


class TestCriterion11Determinism:
    def test_sweep_rerun_byte_identical(self, motivating_prior, tmp_path):
        t0 = time.time()
        from factional_belief.fileio import rows_to_csv
        from factional_belief.experiments import SWEEP_COLUMNS

        cfg = SweepConfig(
            family="er",
            n=200,
            axis="param",
            values=grid("1/100", "1/25", "1/100"),
            prior=motivating_prior,
            trials=8,
            seed=424242,
        )
        paths = []
        for run in ("first", "second"):
            rows = run_sweep(cfg)
            path = tmp_path / f"{run}.csv"
            path.write_text(rows_to_csv(rows, SWEEP_COLUMNS))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        report(11, "reran seeded sweep is byte-identical", t0)
