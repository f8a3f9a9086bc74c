import math
from fractions import Fraction as F

import pytest

from factional_belief import ConcreteGraph, torus_grid, two_state_prior
from factional_belief.bounds import (
    BoundReport,
    CONTEXT,
    REPORT_TOLERANCE,
    chernoff_envelope,
    dependency_chi_star_bound,
    dependency_chi_star_bound_graph,
    dependent_chernoff,
    high_degree_separation,
    high_degree_state_bound,
    markov_noncandidate_bound,
    noncandidate_expectation_torus,
)
from factional_belief.errors import ValidationError


class TestNoncandidateExpectation:
    def test_state_a(self, motivating_prior):
        assert noncandidate_expectation_torus(motivating_prior, "A") == F(693, 3125)

    def test_state_b_matches_context_enumeration(self, motivating_prior):
        from factional_belief import (
            AgentType,
            ContextClass,
            context_likelihood,
        )

        got = noncandidate_expectation_torus(motivating_prior, "B")
        # independent summation: nu-centered mass plus chi-centered contexts
        # with at most one chi neighbor (alpha has no mass here)
        brute = F(1, 5)  # own type nu... recomputed below from likelihoods
        brute = sum(
            context_likelihood(c, "B", motivating_prior)
            for c in (
                *(
                    ContextClass(AgentType.NU, 0, k, 4 - k)
                    for k in range(5)
                ),
                ContextClass(AgentType.CHI, 0, 0, 4),
                ContextClass(AgentType.CHI, 0, 1, 3),
            )
        )
        assert got == brute

    def test_degenerate_all_chi(self):
        from factional_belief import TypeDistribution

        prior = two_state_prior(
            F(1, 2),
            F(1, 2),
            TypeDistribution(F(0), F(1), F(0)),
            TypeDistribution(F(0), F(0), F(1)),
        )
        assert noncandidate_expectation_torus(prior, "A") == 0


class TestMarkov:
    def test_motivating_bound(self, motivating_prior):
        expect = noncandidate_expectation_torus(motivating_prior, "A")
        assert markov_noncandidate_bound(expect, F(1, 2), 1000) == F(1386, 3125)

    def test_complement(self):
        assert 1 - F(1386, 3125) == F(1739, 3125)

    def test_zero_expectation(self):
        assert markov_noncandidate_bound(F(0), F(1, 2), 10) == 0

    def test_threshold_positive(self):
        with pytest.raises(ValidationError):
            markov_noncandidate_bound(F(1, 2), F(0), 10)

    def test_never_vacuous_below_threshold(self):
        for num in range(1, 10):
            expect = F(num, 20)
            assert markov_noncandidate_bound(expect, F(1, 2), 5) <= 1


class TestDependentChernoff:
    def test_direct_substitution(self):
        got = dependent_chernoff(1000, 100, 10)
        assert abs(float(got) - math.exp(-2)) < REPORT_TOLERANCE

    def test_small_t_approaches_one(self):
        assert float(dependent_chernoff(10**6, F(1, 1000), 1)) > 0.999999

    def test_reduces_to_hoeffding_at_chi_one(self):
        got = dependent_chernoff(500, 30, 1)
        assert abs(float(got) - math.exp(-2 * 30**2 / 500)) < REPORT_TOLERANCE

    def test_nonincreasing_in_t_and_n(self):
        assert dependent_chernoff(1000, 200, 10) < dependent_chernoff(1000, 100, 10)
        # fixed relative deviation t = n/10
        assert dependent_chernoff(2000, 200, 10) < dependent_chernoff(1000, 100, 10)

    def test_guards(self):
        with pytest.raises(ValidationError):
            dependent_chernoff(10, 0, 1)
        with pytest.raises(ValidationError):
            dependent_chernoff(10, 1, F(1, 2))


class TestChiStarBound:
    def test_constant_four(self):
        assert dependency_chi_star_bound([4] * 1000) == 17

    def test_degree_one(self):
        assert dependency_chi_star_bound([1, 1]) == 2

    def test_torus_graph_two_ball(self):
        g = torus_grid(25, 40)
        assert dependency_chi_star_bound_graph(g) == 13
        assert 13 <= dependency_chi_star_bound(g.degree_sequence())

    def test_star_graph(self):
        star = ConcreteGraph(6, [(0, i) for i in range(1, 6)])
        assert dependency_chi_star_bound_graph(star) == 6


class TestHighDegreeStateBound:
    def test_vacuous_case_clamped_in_report(self):
        raw = high_degree_state_bound(F(1, 10), F(1), 1000)
        assert abs(float(raw) - 2 * math.exp(-0.2)) < 1e-12
        report = BoundReport.build("hd", {}, raw)
        assert report.clamped and report.value == 1

    def test_sharp_case(self):
        raw = high_degree_state_bound(F(1, 2), F(2), 10**6)
        assert float(raw) == pytest.approx(2 * math.exp(-200), abs=1e-90)

    def test_separation_check(self, motivating_prior):
        # |e_A(chi+alpha) - e_B(chi+alpha)| = 3/5
        assert high_degree_separation(motivating_prior, F(1, 4))
        assert not high_degree_separation(motivating_prior, F(3, 10))


class TestEnvelope:
    def test_formula(self):
        got = chernoff_envelope(1000, 17, 200, F(1, 100))
        expect = math.sqrt(17 * 1000 * math.log(2 * 200 * 100) / 2)
        assert float(got) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("level", [F(0), F(-1, 2), F(3, 2), F(4)])
    def test_level_is_a_probability(self, level):
        # ln(2 trials / level) stays positive for every level in (0, 1].
        assert chernoff_envelope(9, 5, 1, F(1)) > 0
        with pytest.raises(ValidationError, match="0 < level <= 1"):
            chernoff_envelope(9, 5, 1, level)

    @pytest.mark.parametrize("chi_star", [0, -1])
    def test_chi_star_below_one_rejected(self, chi_star):
        # Below 1 the root is of zero or of a negative number: a zero
        # deviation, or a complex one.
        with pytest.raises(ValidationError, match="^chi_star must be at least 1$"):
            chernoff_envelope(5, chi_star, 1)
        assert chernoff_envelope(5, 1, 1) > 0

    def test_union_bound_consistency(self):
        # at the envelope, trials * two-sided tail equals the level
        n, chi, trials, level = 800, 13, 150, F(1, 50)
        t = chernoff_envelope(n, chi, trials, level)
        tail = 2 * trials * float(dependent_chernoff(n, F(int(float(t) * 10**9), 10**9), chi))
        assert tail == pytest.approx(float(level), rel=1e-6)


# Below n = 1 the formulas divide by zero, exceed 1 as a tail probability,
# or take a root of a negative number; `bounds --n` refuses the same inputs.
@pytest.mark.parametrize("bound", [
    lambda n: dependent_chernoff(n, 1, 1),
    lambda n: high_degree_state_bound(F(1, 10), 1, n),
    lambda n: chernoff_envelope(n, 1, 1),
])
def test_population_below_one_rejected(bound):
    for n in (0, -5):
        with pytest.raises(ValidationError, match="^n must be at least 1$"):
            bound(n)
    assert bound(1) > 0


# Report strings and floats recorded from an independent 240-bit binary
# floating-point evaluation. They cover the inputs above, leading digits at
# 10^-6 (exponent form) and 10^-5 (fixed point), exponents 19 and 20,
# roundings that carry through a run of 9s (into a new leading digit for
# exp(-2e-30)), and tails far below the default context's range.
GOLDEN = [
    ("dependent_chernoff", (1000, 100, 10), "0.13533528323661269189", "0.1353352832366127"),
    ("dependent_chernoff", (10**6, F(1, 1000), 1), "0.999999999998", "0.999999999998"),
    ("dependent_chernoff", (500, 30, 1), "0.027323722447292560802", "0.027323722447292562"),
    ("dependent_chernoff", (1000, 200, 10), "0.00033546262790251183882", "0.00033546262790251185"),
    ("dependent_chernoff", (2000, 200, 10), "0.018315638888734180294", "0.01831563888873418"),
    ("dependent_chernoff", (1, 1, 1), "0.13533528323661269189", "0.1353352832366127"),
    ("dependent_chernoff", (800, F(53, 7), F(13, 2)), "0.9781926295419553998",
     "0.9781926295419554"),
    ("dependent_chernoff", (1000, 70, 1), "0.000055451599432176981809", "5.545159943217698e-05"),
    ("dependent_chernoff", (1000, 78, 1), "5.1940334740028534222e-6", "5.1940334740028535e-06"),
    ("dependent_chernoff", (10**30, 1, 1), "1.0", "1.0"),
    ("dependent_chernoff", (1, 10**4, 1), "4.1624557960450326312e-86858897", "0.0"),
    ("dependent_chernoff", (1, 10**6, 1), "3.1357735874670372591e-868588963807", "0.0"),
    ("dependent_chernoff", (1000, 10**7, 1), "2.2368376793064795184e-86858896381", "0.0"),
    ("high_degree_state_bound", (F(1, 10), 1, 1000), "1.6374615061559637173",
     "1.6374615061559636"),
    ("high_degree_state_bound", (F(1, 2), 2, 10**6), "2.7677930534734750613e-87",
     "2.767793053473475e-87"),
    ("high_degree_state_bound", (F(1, 10), 1, 1), "1.9603973466135106044", "1.9603973466135105"),
    ("high_degree_state_bound", (F(3, 7), F(2, 5), 12345), "0.5141449737994353019",
     "0.5141449737994354"),
    ("high_degree_state_bound", (10**9, 1, 1), "9.9717678172210289955e-868588963806503656", "0.0"),
    ("chernoff_envelope", (1000, 17, 200, F(1, 100)), "300.11896846303571073",
     "300.1189684630357"),
    ("chernoff_envelope", (9, 5, 1, F(1)), "3.9491532716012390118", "3.949153271601239"),
    ("chernoff_envelope", (5, 1, 1), "3.6394770800720935016", "3.6394770800720937"),
    ("chernoff_envelope", (800, 13, 150, F(1, 50)), "223.61169132323695434", "223.61169132323695"),
    ("chernoff_envelope", (1, 1, 1), "1.6276236307187292551", "1.6276236307187293"),
    ("chernoff_envelope", (70, 1, 5), "15.549001085741", "15.549001085741"),
    ("chernoff_envelope", (10**6, 10**4, 10**5), "289924.4973395510183", "289924.49733955105"),
    ("chernoff_envelope", (10**38, 1, 1), "16276236307187292551.0", "1.6276236307187292e+19"),
    ("chernoff_envelope", (10**40, 1, 1), "1.6276236307187292551e+20", "1.6276236307187293e+20"),
]
BOUNDS = {
    "dependent_chernoff": dependent_chernoff,
    "high_degree_state_bound": high_degree_state_bound,
    "chernoff_envelope": chernoff_envelope,
}


@pytest.mark.parametrize("name,args,text,float_repr", GOLDEN)
def test_golden_values(name, args, text, float_repr):
    value = BOUNDS[name](*args)
    assert BoundReport(name, {}, value).value_str() == text
    assert repr(float(value)) == float_repr


@pytest.mark.parametrize("bound", [
    lambda: dependent_chernoff(1, 10**10, 1),
    lambda: high_degree_state_bound(10**10, 1, 1),
])
def test_below_decimal_range_rejected(bound):
    # e^(-2*10^20) is below the least positive value of the context; it is
    # refused, never reported as 0.
    with pytest.raises(ValidationError, match=f"^bound is below 1E{CONTEXT.Emin},"):
        bound()


REFUSALS = [
    pytest.param(lambda: high_degree_state_bound(0, 1, 5), ValidationError,
                 "epsilon0 and c must be positive", id="state-bound-epsilon0-0"),
]

@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
