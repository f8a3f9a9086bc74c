import os
import random
from dataclasses import replace
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

from factional_belief import (
    ConcreteGraph, TypeDistribution, algorithm1, candidate_contexts, torus_grid,
    two_state_prior,
)
from factional_belief import algorithms, experiments
from factional_belief.errors import (
    GenerationError, MislabeledStatesError, SpaceTooLargeError, ValidationError,
)
from factional_belief.fileio import format_rational
from factional_belief.netgen import VERTEX_GUARD, ba_graph, derive_seed, generate_sequence
from factional_belief.experiments import (
    SweepConfig,
    grid,
    random_epistemic_model,
    run_promise_map,
    run_sweep,
    run_validate,
    sample_type_assignment,
    worker_count,
)
from conftest import clear_kernel_caches, listed_contexts
from test_properties import per_vertex_counts

class TestGrid:
    def test_inclusive_exact(self):
        assert grid("1/20", "3/20", "1/20") == (F(1, 20), F(1, 10), F(3, 20))

    def test_endpoint_exact_no_drift(self):
        values = grid(0, 1, F(1, 200))
        assert len(values) == 201 and values[-1] == 1

    def test_step_positive(self):
        with pytest.raises(ValidationError):
            grid(0, 1, 0)

    def test_point_guard(self):
        step = F(1, experiments.GRID_POINT_GUARD - 1)
        assert len(grid(0, 1, step)) == experiments.GRID_POINT_GUARD
        with pytest.raises(SpaceTooLargeError, match=str(experiments.GRID_POINT_GUARD + 1)):
            grid(0, 1, F(1, experiments.GRID_POINT_GUARD))

    def test_points_equal_accumulation(self):
        start, stop, step = F(-1, 3), F(7, 5), F(2, 9)
        points, v = [], start
        while v <= stop:
            points.append(v)
            v += step
        assert grid(start, stop, step) == tuple(points)
        with pytest.raises(ValidationError, match="empty grid"):
            grid(stop, start, step)


class TestSizeGuards:
    def test_sweep_config(self, motivating_prior):
        cfg = dict(family="ba", axis="param", values=(F(2),), prior=motivating_prior)
        SweepConfig(n=VERTEX_GUARD, trials=experiments.TRIAL_GUARD, **cfg)
        with pytest.raises(SpaceTooLargeError, match=str(VERTEX_GUARD + 1)):
            SweepConfig(n=VERTEX_GUARD + 1, **cfg)
        with pytest.raises(SpaceTooLargeError, match=str(experiments.TRIAL_GUARD + 1)):
            SweepConfig(n=10, trials=experiments.TRIAL_GUARD + 1, **cfg)

    def test_validate_trials(self, motivating_prior, monkeypatch):
        # Refused before the contexts are computed or any trial is drawn.
        def computed(*_args):
            raise LookupError("computed")

        monkeypatch.setattr(experiments, "revolting_rule", computed)
        graph = torus_grid(3, 3)
        with pytest.raises(LookupError):
            run_validate(graph, motivating_prior, "A", experiments.TRIAL_GUARD, 0)
        with pytest.raises(SpaceTooLargeError, match=str(experiments.TRIAL_GUARD + 1)):
            run_validate(graph, motivating_prior, "A", experiments.TRIAL_GUARD + 1, 0)


class TestSweep:
    def test_constant_family_single_run(self, motivating_prior):
        cfg = SweepConfig(
            family="constant",
            n=1000,
            axis="param",
            values=(F(1), F(2)),
            prior=motivating_prior,
            trials=100,
            seed=5,
        )
        rows = run_sweep(cfg)
        assert [r["trials"] for r in rows] == [1, 1]  # deterministic family
        assert rows[0]["mean_eA_exact"] == "4/5"
        assert rows[1]["mean_eA_exact"] == "96/125"
        assert rows[0]["mean_eB_exact"] == "1/5"

    def test_p_axis_requires_fixed_param(self, motivating_prior):
        with pytest.raises(ValidationError):
            SweepConfig(
                family="er",
                n=100,
                axis="p",
                values=(F(1, 2),),
                prior=motivating_prior,
                trials=2,
                seed=0,
            )

    @pytest.mark.usefixtures("cold_caches")
    def test_p_sweep_trials_share_kernel_results(self, motivating_prior):
        # Only A reaches mu, so every trial makes one pass over {A} at the
        # same four levels, with the same key: a kernel misses at most once
        # per distinct degree of all the trials.
        cfg = SweepConfig(
            family="ba", n=250, axis="p", values=grid(F(1, 5), F(4, 5), F(1, 5)),
            prior=motivating_prior, fixed_param=F(2), trials=20, seed=11,
        )
        run_sweep(cfg)
        specs = experiments._specs(cfg, cfg.fixed_param)
        degrees = set().union(*map(generate_sequence, specs))
        kernels = (algorithms._row_scan, algorithms._boundary_walk)
        misses = sum(kernel.cache_info().misses for kernel in kernels)
        assert 0 < misses <= len(degrees)

    def test_p_axis_raises_first_error_in_point_order(self, monkeypatch):
        # Trial 0 fails its relabel retry at p = 1 only (state A survives
        # at p = 0, and at p = 1 the swapped labels leave only B' a
        # candidate); trial 1's degree-1000 table is past TABLE_ROW_GUARD at
        # every p. Point by point, p = 0 meets the guard first.
        prior = two_state_prior(
            F(1, 2), F(1, 2), TypeDistribution(F(1, 10), F(7, 10), F(1, 5)),
            TypeDistribution(F(1, 5), F(1, 5), F(3, 5)),
        )
        seqs = {derive_seed(0, 0): [2, 2, 2], derive_seed(0, 1): [1000]}
        monkeypatch.setattr(experiments, "generate_sequence", lambda spec: seqs[spec.seed])
        cfg = SweepConfig(
            family="er", n=3, axis="p", values=(F(0), F(1)), prior=prior,
            fixed_param=F(1, 2), trials=2,
        )
        with pytest.raises(SpaceTooLargeError, match="need 501501"):
            run_sweep(cfg)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("axis", ["param", "p"])
    def test_first_error_in_trial_order(self, axis, jobs, monkeypatch):
        # Trial 0's degree-1000 table is past TABLE_ROW_GUARD and trial 1's
        # generation fails: one generate-and-solve call per trial meets
        # trial 0's guard first.
        prior = two_state_prior(
            F(1, 2), F(1, 2), TypeDistribution(F(1, 10), F(7, 10), F(1, 5)),
            TypeDistribution(F(1, 5), F(1, 5), F(3, 5)),
        )
        failing = derive_seed(0, *((0,) if axis == "param" else ()), 1)

        def generating(spec):
            if spec.seed == failing:
                raise GenerationError("trial 1 failed")
            return [1000]

        monkeypatch.setattr(experiments, "generate_sequence", generating)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        cfg = SweepConfig(
            family="er", n=3, axis=axis, values=(F(1, 2),), prior=prior,
            fixed_param=F(1, 2) if axis == "p" else None, trials=2, jobs=jobs,
        )
        with pytest.raises(SpaceTooLargeError, match="need 501501"):
            run_sweep(cfg)

    @pytest.mark.parametrize("axis", ["param", "p"])
    def test_each_trial_is_solved_before_the_next_is_generated(
        self, axis, motivating_prior, monkeypatch
    ):
        calls = []
        generate, solve = experiments.generate_sequence, experiments.algorithm1_auto_grid

        def generating(spec):
            calls.append("generate")
            return generate(spec)

        def solving(*args):
            calls.append("solve")
            return solve(*args)

        monkeypatch.setattr(experiments, "generate_sequence", generating)
        monkeypatch.setattr(experiments, "algorithm1_auto_grid", solving)
        cfg = SweepConfig(
            family="er", n=40, axis=axis, values=(F(1, 10), F(1, 5)),
            prior=motivating_prior, fixed_param=F(1, 10) if axis == "p" else None,
            trials=3, seed=2,
        )
        run_sweep(cfg)
        # A param sweep solves 2 values x 3 trials, a p sweep 3 trials.
        assert calls == ["generate", "solve"] * (6 if axis == "param" else 3)

    def test_p_axis_reuses_graphs_across_values(self, motivating_prior):
        cfg = SweepConfig(
            family="er",
            n=150,
            axis="p",
            values=grid("1/10", "9/10", "1/10"),
            prior=motivating_prior,
            fixed_param=F(1, 30),
            trials=6,
            seed=12,
        )
        rows = run_sweep(cfg)
        # same graphs at every p, so means are weakly decreasing exactly
        ea = [F(r["mean_eA_exact"]) for r in rows]
        eb = [F(r["mean_eB_exact"]) for r in rows]
        assert all(a >= b for a, b in zip(ea, ea[1:]))
        assert all(a >= b for a, b in zip(eb, eb[1:]))

    def test_p_axis_holds_at_most_the_result_budget(self, motivating_prior, monkeypatch):
        cfg = SweepConfig(
            family="er", n=60, axis="p", values=grid("1/6", "5/6", "1/6"),
            prior=motivating_prior, fixed_param=F(1, 30), trials=3, seed=4,
        )
        whole = run_sweep(cfg)
        spans = []
        solve = experiments._solve

        def recording(task):
            spans.append(len(task[2]))
            return solve(task)

        monkeypatch.setattr(experiments, "_solve", recording)
        monkeypatch.setattr(experiments, "SWEEP_RESULT_BUDGET", 7)
        assert run_sweep(cfg) == whole
        # 7 // 3 trials = 2 points a span: spans of 2, 2 and 1 per trial
        assert spans == [2] * 3 + [2] * 3 + [1] * 3

    def test_rows_deterministic(self, motivating_prior):
        cfg = SweepConfig(
            family="ba",
            n=80,
            axis="param",
            values=(F(1), F(2)),
            prior=motivating_prior,
            trials=5,
            seed=3,
        )
        assert run_sweep(cfg) == run_sweep(cfg)


class TestSweepPool:
    @pytest.mark.parametrize(
        "jobs, items, cpus, want",
        [(1, 10, 8, 1), (4, 10, 8, 4), (64, 10, 8, 8), (64, 3, 8, 3),
         (4, 10, 1, 1), (0, 10, 8, 1), (-2, 10, 8, 1), (4, 0, 8, 1)],
    )
    def test_worker_count_clamp(self, jobs, items, cpus, want):
        assert worker_count(jobs, items, cpus) == want

    @pytest.mark.parametrize("axis", ["param", "p"])
    def test_two_jobs_one_pool_same_rows(self, axis, motivating_prior, monkeypatch):
        pools = []

        class CountingPool(experiments.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
        # Two usable CPUs, so the pool runs even on a one-CPU machine.
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        fixed = F(1, 30) if axis == "p" else None
        cfg = SweepConfig(
            family="er",
            n=60,
            axis=axis,
            values=grid("1/5", "3/5", "1/5") if axis == "p" else (F(1, 30), F(1, 20)),
            prior=motivating_prior,
            fixed_param=fixed,
            trials=3,
            seed=9,
        )
        serial = run_sweep(cfg)
        assert pools == []
        assert run_sweep(replace(cfg, jobs=2)) == serial
        assert len(pools) == 1

    @pytest.mark.parametrize("axis", ["param", "p"])
    def test_workers_generate(self, axis, motivating_prior, monkeypatch, tmp_path):
        log = tmp_path / "pids"
        generate = experiments.generate_sequence

        def generating(spec):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return generate(spec)

        monkeypatch.setattr(experiments, "generate_sequence", generating)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        cfg = SweepConfig(
            family="er", n=60, axis=axis, values=(F(1, 5), F(2, 5)),
            prior=motivating_prior, fixed_param=F(1, 30) if axis == "p" else None,
            trials=4, seed=9, jobs=2,
        )
        run_sweep(cfg)
        pids = log.read_text().split()
        assert len(pids) == (8 if axis == "param" else 4)
        assert str(os.getpid()) not in pids


class TestAggregate:
    def test_means_match_fraction_sums(self):
        # One integer sum over the common denominator, against Fraction sums
        # one value at a time, on random rationals of mixed denominators.
        rng = random.Random(17)

        def rational():
            den = rng.choice([1, 3, 2 ** rng.randint(0, 40), rng.randint(1, 10**9)])
            return F(rng.randint(-10**6, 10**6), den)

        for _ in range(200):
            k = rng.randint(1, 12)
            xa = [rational() for _ in range(k)]
            xb = [rational() for _ in range(k)]
            assert experiments._mean(xa) == sum(xa, F(0)) / k
            row = experiments._aggregate(F(1, 3), [(a, b, False) for a, b in zip(xa, xb)])
            assert row["mean_eA_exact"] == format_rational(sum(xa, F(0)) / k)
            assert row["mean_eB_exact"] == format_rational(sum(xb, F(0)) / k)


class TestPromiseMap:
    def test_rows(self, motivating_prior):
        rows = run_promise_map(
            [4] * 1000, motivating_prior, [F(0), F(3, 5)], F(1, 200), F(1, 200)
        )
        assert rows[0]["outcome"] == "omega"
        assert rows[1]["outcome"] == "A"
        assert rows[1]["mu_star"] == "3/5"


class TestValidate:
    def test_sampling_deterministic(self, motivating_prior):
        a = sample_type_assignment(motivating_prior, "A", 50, 7)
        b = sample_type_assignment(motivating_prior, "A", 50, 7)
        assert np.array_equal(a, b)

    def test_sampled_codes_cut_the_draws(self):
        # Code 0 (alpha) below alpha, 1 (chi) below alpha + chi, else 2 (nu).
        dist = TypeDistribution(F(1, 10), F(7, 10), F(1, 5))
        prior = two_state_prior(F(2, 5), F(1, 2), dist, dist)
        draws = np.random.Generator(np.random.PCG64(11)).random(400)
        expected = [0 if x < 0.1 else 1 if x < 0.8 else 2 for x in draws]
        codes = sample_type_assignment(prior, "A", 400, 11)
        assert codes.tolist() == expected and set(expected) == {0, 1, 2}

    def test_edgeless_graph(self, motivating_prior):
        # Every chi vertex sees the empty context, whose posterior on {A} is
        # the prior 1/2 >= p: all of them are candidates.
        report = run_validate(ConcreteGraph(30, []), motivating_prior, "A", trials=5, seed=3)
        assert report["chi_star_bound"] == 1
        assert report["expected_candidate_fraction"] == "4/5"
        for row in report["trial_rows"]:
            assert row["n_candidates"] == row["n_chi"] > 0

    def test_isolated_vertices_count(self, motivating_prior):
        # Vertices 3..11 are isolated; their chi vertices are candidates, and
        # a triangle chi vertex is one iff it sees at least one chi neighbor.
        graph = ConcreteGraph(12, [(0, 1), (1, 2), (0, 2)])
        report = run_validate(graph, motivating_prior, "A", trials=8, seed=5)
        assert report["chi_star_bound"] == 5
        for t, row in enumerate(report["trial_rows"]):
            codes = sample_type_assignment(
                motivating_prior, "A", 12, experiments.derive_seed(5, t)
            ).tolist()
            triangle = [v for v in range(3) if codes[v] == 1]
            expected = codes[3:].count(1) + (len(triangle) if len(triangle) > 1 else 0)
            assert row["n_candidates"] == expected

    def test_hub_lookup_sized_by_table_shape(self, monkeypatch):
        # A hub of degree 2^21 - 2 or 2^21 - 1, whose (d + 1)^2 cells would
        # not fit in memory, gets a lookup block of 1 cell with only chi
        # agents possible and d + 1 with chi and nu, and validate reaches
        # the sampling. A one-vertex stand-in for a graph with such a hub;
        # revolting_rule and the sampling are patched to keep the test
        # cheap.
        def sampled(*_args):
            raise LookupError("sampled")

        tables = []

        def lookup(*args):
            out = real_lookup(*args)
            tables.append(len(out[0]))
            return out

        real_lookup = experiments._context_lookup
        monkeypatch.setattr(experiments, "_context_lookup", lookup)
        monkeypatch.setattr(experiments, "sample_type_assignment", sampled)
        chi_only = TypeDistribution(F(0), F(1), F(0))
        chi_nu = TypeDistribution(F(0), F(1, 2), F(1, 2))
        for d in (2**21 - 2, 2**21 - 1):
            hub = SimpleNamespace(n=1, indptr=np.array([0, d]), indices=np.arange(d))
            # The one run of context (0, d, 0), and of context (0, 1, d - 1).
            for dist, run in ((chi_only, (0, d, d + 1)), (chi_nu, (0, 1, 2))):
                prior = two_state_prior(F(1, 2), F(1, 2), dist, dist)
                monkeypatch.setattr(
                    experiments, "revolting_rule", lambda *_a: ({"A": F(1)}, [(d, (run,))])
                )
                with pytest.raises(LookupError):
                    run_validate(hub, prior, "A", trials=1, seed=0)
        assert tables == [1, 2**21 - 1, 1, 2**21]

    def test_every_state_survives_every_chi_vertex_counts(self, motivating_prior):
        # At mu = 1/10 both states reach mu: no table, every chi vertex.
        prior = replace(motivating_prior, mu=F(1, 10))
        graph = torus_grid(4, 5)
        assert experiments.revolting_rule(graph.degree_sequence(), prior)[1] is None
        report = run_validate(graph, prior, "A", trials=6, seed=4)
        assert all(r["n_candidates"] == r["n_chi"] > 0 for r in report["trial_rows"])

    def test_no_state_survives_no_candidate(self, motivating_prior):
        # At mu = 1 no state reaches mu: no table, and no candidate.
        prior = replace(motivating_prior, mu=F(1))
        graph = torus_grid(4, 5)
        assert experiments.revolting_rule(graph.degree_sequence(), prior)[1] == []
        report = run_validate(graph, prior, "A", trials=6, seed=4)
        assert all(r["n_candidates"] == 0 < r["n_chi"] for r in report["trial_rows"])

    # A star, a path, a triangle and an isolated vertex: degrees 0, 1, 2 and 5.
    SUBSET_GRAPH = ConcreteGraph(
        14, [(0, i) for i in range(1, 6)] + [(6, 7), (7, 8), (8, 9), (11, 12), (12, 13), (11, 13)]
    )
    # name: (p, A's and B's (alpha, chi, nu), whether the two-state walk runs).
    SUBSET_PRIORS = {
        "suffix walk": (F(2, 5), [(1, 10), (7, 10), (1, 5)], [(1, 20), (1, 5), (3, 4)], True),
        "prefix walk": (F(1, 2), [(1, 2), (1, 10), (2, 5)], [(1, 20), (1, 5), (3, 4)], True),
        "alpha=0 walk": (F(2, 5), [(0, 1), (4, 5), (1, 5)], [(0, 1), (1, 5), (4, 5)], True),
        # No alpha agents in either state and no nu agents in A: zero nu
        # mass keeps the row scan, and the all-chi contexts of degree >= 1
        # revolt.
        "alpha=0 scan": (F(4, 5), [(0, 1), (1, 1), (0, 1)], [(0, 1), (2, 5), (3, 5)], False),
        # No nu agents in A and no alpha agents in B: the rows with both
        # alpha and nu neighbors weigh 0 in both states, and zero nu mass
        # keeps the row scan.
        "zero-mass scan": (F(4, 5), [(1, 4), (3, 4), (0, 1)], [(0, 1), (1, 4), (3, 4)], False),
    }

    def subset_prior(self, case):
        p, types_a, types_b, _walked = self.SUBSET_PRIORS[case]
        return two_state_prior(
            p, F(1, 2),
            TypeDistribution(*(F(*x) for x in types_a)),
            TypeDistribution(*(F(*x) for x in types_b)),
        )

    def test_revolting_subset_matches_per_vertex_count(self):
        # Under priors whose candidacy takes either kernel, with suffix and
        # prefix runs, some but not all chi contexts revolt, and the lookup
        # counts what a vertex-by-vertex count does, with chi vertices both
        # in and out.
        graph = self.SUBSET_GRAPH
        degseq = graph.degree_sequence()
        for case, (*_types, walked) in self.SUBSET_PRIORS.items():
            clear_kernel_caches()
            prior = self.subset_prior(case)
            candidacy = experiments.revolting_rule(degseq, prior)[1]
            possible = candidate_contexts(prior, degseq, prior.labels)
            assert 0 < len(listed_contexts(candidacy)) < len(possible), case
            assert (algorithms._boundary_walk.cache_info().currsize > 0) == walked, case
            for state in "AB":
                report = run_validate(graph, prior, state, trials=40, seed=3)
                rows = [(r["n_alpha"], r["n_chi"], r["n_candidates"]) for r in report["trial_rows"]]
                assert rows == per_vertex_counts(graph, prior, state, 3, 40), (case, state)
                assert any(0 < cand < chi for _a, chi, cand in rows), (case, state)

    @pytest.mark.usefixtures("cold_caches")
    @pytest.mark.parametrize("case", SUBSET_PRIORS)
    def test_validate_builds_no_context_class(self, case, monkeypatch):
        def built(*_args):
            raise AssertionError("a ContextClass was built")

        graph, prior = self.SUBSET_GRAPH, self.subset_prior(case)
        want = run_validate(graph, prior, "A", trials=5, seed=3)
        clear_kernel_caches()
        monkeypatch.setattr(algorithms, "ContextClass", built)
        assert run_validate(graph, prior, "A", trials=5, seed=3) == want
        with pytest.raises(AssertionError, match="ContextClass"):
            candidate_contexts(prior, graph.degree_sequence(), ("A",))

    def test_ba_candidacy_is_at_most_one_run_per_a_run(self):
        # BA(10^4, 2) under an alpha > 0 prior lists 96,583 revolting
        # contexts; their runs number at most one per a-run of each degree.
        prior = replace(self.subset_prior("suffix walk"), p=F(1, 2))
        degseq = ba_graph(10_000, 2, 1).degree_sequence()
        candidacy = experiments.revolting_rule(degseq, prior)[1]
        assert [d for d, _runs in candidacy] == sorted(set(degseq))
        assert sum(len(runs) for _d, runs in candidacy) <= sum(d + 1 for d in set(degseq))
        assert sum(hi - lo for _d, runs in candidacy for _a, lo, hi in runs) == 96_583

    def test_forced_type_has_zero_deviation(self):
        dist = TypeDistribution(F(0), F(1), F(0))
        prior = two_state_prior(
            F(2, 5), F(1, 2), dist, TypeDistribution(F(0), F(0), F(1))
        )
        graph = torus_grid(3, 3)
        report = run_validate(graph, prior, "A", trials=10, seed=1)
        assert float(report["max_deviation"]) == 0.0
        assert report["empirical_candidate_fraction"] == "1.0"

    def test_label_policy(self, motivating_prior):
        # validate applies algorithm1's X_A >= X_B convention: it refuses
        # the swapped labels at mu = 1/2, where only B reaches mu, and at
        # mu = 1/10, where both states reach mu and X_A = 1/5 < X_B = 4/5,
        # with algorithm1's messages.
        a, b = motivating_prior.state("A").types, motivating_prior.state("B").types
        swapped = two_state_prior(F(2, 5), F(1, 2), b, a)
        graph = torus_grid(3, 3)
        with pytest.raises(
            MislabeledStatesError, match="^only state B is a candidate; labels appear swapped$"
        ):
            run_validate(graph, swapped, "A", trials=2, seed=0)
        both = replace(swapped, mu=F(1, 10))
        for state in "AB":
            with pytest.raises(
                MislabeledStatesError, match="^computed X_A < X_B; labels appear swapped$"
            ):
                run_validate(graph, both, state, trials=2, seed=0)
        with pytest.raises(MislabeledStatesError, match="^computed X_A < X_B"):
            algorithm1(graph.degree_sequence(), both)
        report = run_validate(graph, two_state_prior(F(2, 5), F(1, 10), a, b), "A", 2, 0)
        assert report["expected_candidate_fraction"] == "4/5"
        assert all(r["n_candidates"] == r["n_chi"] for r in report["trial_rows"])

    def test_torus_report_contents(self, motivating_prior):
        graph = torus_grid(5, 8)
        report = run_validate(graph, motivating_prior, "A", trials=30, seed=2)
        assert report["n"] == 40
        assert report["chi_star_bound"] == 17
        assert report["expected_candidate_fraction"] == "2432/3125"
        assert len(report["trial_rows"]) == 30
        assert report["envelope_violations"] == 0


class TestRandomModelGenerator:
    def test_deterministic(self):
        m1, p1, mu1 = random_epistemic_model(31337)
        m2, p2, mu2 = random_epistemic_model(31337)
        assert m1 == m2 and p1 == p2 and mu1 == mu2

    def test_respects_size_limits(self):
        for seed in range(40):
            model, p, mu = random_epistemic_model(seed)
            assert 1 <= len(model.space.outcomes) <= 6
            assert 1 <= len(model.agents) <= 3
            assert 0 <= p <= 1 and 0 <= mu <= 1
            assert p.denominator in (1, 2, 4, 8)


def sweep_config(prior, **changes):
    fields = dict(family="constant", n=10, axis="param", values=(F(2),), prior=prior, trials=2)
    return SweepConfig(**{**fields, **changes})


# Each call gets the motivating prior.
REFUSALS = [
    pytest.param(lambda prior: sweep_config(prior, family="ring"), ValidationError,
                 "unknown family 'ring'", id="sweep-family-unknown"),
    pytest.param(lambda prior: sweep_config(prior, axis="mu"), ValidationError,
                 "axis must be 'param' or 'p'", id="sweep-axis-unknown"),
    pytest.param(lambda prior: sweep_config(prior, values=()), ValidationError,
                 "sweep range is empty", id="sweep-values-empty"),
    pytest.param(lambda prior: sweep_config(prior, trials=0), ValidationError,
                 "trials must be at least 1", id="sweep-trials-0"),
]

@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message, motivating_prior):
    with pytest.raises(error) as info:
        call(motivating_prior)
    assert type(info.value) is error and str(info.value) == message
