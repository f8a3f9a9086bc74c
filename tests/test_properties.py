"""Property tests for the candidate-state fixpoint that every
largest-revolt entry point shares (random two-state priors on an eighths
grid and short random degree sequences), for the integer row enumerator
and the row scan against a reference degree table, the row guard against
a row-by-row count, and the revolting contexts of the fixpoint's last
pass against Bayes' rule in plain Fractions, for the walks against the
row scan, for the many-threshold candidacy pass against the one-threshold
fixpoint loop (and the p grid, the promise pair and p-axis sweep rows
against their per-point answers), for the concrete-graph oracle against a
brute force over every type assignment and against the per-assignment
reference enumeration, for the validator's array counts against a
per-vertex count, for the epistemic belief kernel against the
plain-Fraction belief operator and (J1, J2) loop, for the CSR concrete
graph and the array generators against the tuple-built graph and the
one-draw-at-a-time samplers, for the Python-int PCG64 stream against
numpy's Generator, for the array Erdos-Gallai test and the heap
Havel-Hakimi against their list versions, for the arbitrary-degree
variant against the oracle on small graphs with a hub, for the CLI's
one-pass flag parser against argparse built from the same flag tables,
and for the rational parser against Fraction."""

import argparse
import io
import json
import re
import sys
from bisect import bisect_left
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations, product
from math import ceil, comb, lcm
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from factional_belief import (
    AgentType,
    ConcreteGraph,
    ContextClass,
    EpistemicModel,
    Prior,
    RevoltInstance,
    StatePrior,
    TypeDistribution,
    algorithm1,
    algorithm1_general,
    candidate_contexts,
    common_belief_fixpoint,
    context_likelihood,
    enumerate_contexts,
    expected_revolt_fraction,
    greatest_equilibrium,
    least_equilibrium,
    revolt_decision,
    state_posterior,
    threshold_probabilities,
    two_state_prior,
)
from factional_belief import algorithms, cli, epistemic, fileio
from factional_belief import experiments
from factional_belief import netgen
from factional_belief.algorithms import (
    PromiseInstance,
    _candidate_masses,
    _check_table_rows,
    _multistate_walk,
    _fixpoints,
    _ordered_levels,
    _perturbed_sizes,
    _row_scan,
    _rows,
    _type_key,
    algorithm1_auto_grid,
    crucial_threshold_pairs,
    high_degree_cutoff,
    multistate_fixpoint,
    revolting_rule,
)
from factional_belief.errors import (
    Error,
    ImpossibleContextError,
    MislabeledStatesError,
    ParseError,
    SpaceTooLargeError,
    ValidationError,
)
from factional_belief.model import integer_weights
from factional_belief.experiments import (
    SweepConfig,
    grid,
    run_sweep,
    run_validate,
    sample_type_assignment,
)
from factional_belief.netgen import (
    _Stream,
    ba_graph,
    ba_sequence,
    derive_seed,
    er_graph,
    er_sequence,
    generate_sequence,
    is_graphical,
    realize_graph,
)
from conftest import clear_kernel_caches, listed_contexts, run_rows, scan_contexts

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


def expected_context_fraction(state, contexts, prior, degseq):
    """Expected fraction of agents whose realized context lies in the given
    set, in the given state, in plain Fractions: each context's likelihood
    weighted by the count of its degree in the multiset."""
    counts = Counter(degseq)
    return sum(
        (counts[c.degree] * context_likelihood(c, state, prior) for c in set(contexts)),
        F(0),
    ) / len(degseq)


def label_consistent_sizes(degseq, prior):
    try:
        return algorithm1(degseq, prior)
    except MislabeledStatesError:
        assume(False)


@SETTINGS
@given(two_state_priors(), degseqs)
def test_algorithm1_matches_multistate(prior, degseq):
    assert label_consistent_sizes(degseq, prior) == multistate_fixpoint(degseq, prior)[0]


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


@st.composite
def mixed_dists(draw):
    """Type distributions with chi agents over assorted denominators, some
    with alpha = 0 or nu = 0."""
    den = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 12]))
    alpha = draw(st.integers(0, den - 1))
    chi = draw(st.integers(1, den - alpha))
    nu = den - alpha - chi
    drop = draw(st.sampled_from(["", "alpha", "nu"]))
    if drop == "alpha":
        alpha, nu = 0, nu + alpha
    elif drop == "nu":
        alpha, nu = alpha + nu, 0
    return TypeDistribution(F(alpha, den), F(chi, den), F(nu, den))


@st.composite
def kernel_instances(draw):
    """A 2- or 3-state prior with unequal state probabilities, a short
    degree sequence and a proper subset of the states; p is, half the time,
    one of the instance's own posterior masses on that subset, so rows sit
    on the tie."""
    k = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k, unique=True))
    states = tuple(
        StatePrior(f"s{i}", F(w, sum(weights)), draw(mixed_dists()))
        for i, w in enumerate(weights)
    )
    prior = Prior(F(1, 2), F(1, 2), states)
    degrees = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    subsets = st.lists(
        st.sampled_from(prior.labels), min_size=1, max_size=k - 1, unique=True
    )
    chosen = draw(subsets)
    levels = sorted(
        {sum(post[s] for s in chosen) for _c, post in posteriors(prior, degrees)}
    )
    if levels and draw(st.booleans()):
        p = draw(st.sampled_from(levels))
    else:
        p = F(draw(st.integers(0, 8)), 8)
    return replace(prior, p=p), degrees, chosen


def posteriors(prior, degrees):
    """(context, posterior) for every possible chi context over the distinct
    degrees, in increasing degree order, by Bayes' rule in plain Fractions."""
    out = []
    for d in sorted(set(degrees)):
        for c in enumerate_contexts(d, AgentType.CHI):
            try:
                out.append((c, state_posterior(c, prior)))
            except ImpossibleContextError:
                pass
    return out


@SETTINGS
@given(kernel_instances())
def test_kernel_matches_fraction_reference(instance):
    prior, degrees, chosen = instance
    brute = [
        c for c, post in posteriors(prior, degrees)
        if sum(post[s] for s in chosen) >= prior.p
    ]
    assert candidate_contexts(prior, degrees, chosen) == brute
    mass = {
        s: sum(
            (context_likelihood(c, s, prior) for d in degrees for c in brute
             if c.degree == d),
            F(0),
        ) / len(degrees)
        for s in prior.labels
    }
    assert _candidate_masses(prior, degrees, chosen, [prior.p], len(degrees))[0] == [mass]


def reference_candidate_mass(prior, degrees, states, total_n):
    """The candidate mass of the one-threshold scan: each reference degree
    table's rows tested one by one against prior.p, their weights summed
    per state and divided by the table's own scale D^(d+1)."""
    key = _type_key(prior.states)
    probs = [s.prob for s in prior.states]
    inside = [s.label in states for s in prior.states]
    counts = Counter(degrees)
    mass = [F(0)] * len(probs)
    for d in _check_table_rows(key, counts):
        kept = [
            w for _row, w in reference_degree_table(key, d)
            if sum(pi * wi for pi, wi, i in zip(probs, w, inside) if i)
            >= prior.p * sum(pi * wi for pi, wi in zip(probs, w))
        ]
        for i in range(len(mass)):
            mass[i] += F(counts[d] * sum(w[i] for w in kept), key[0] ** (d + 1))
    return {s.label: mass[i] / total_n for i, s in enumerate(prior.states)}


def reference_fixpoint(degseq, prior, revealed=0):
    """The candidate-state fixpoint one threshold at a time: the per-round
    loop over the reference candidate mass."""
    seq = list(degseq)
    n = len(seq) + revealed
    e_alpha = {s: prior.type_prob(s, AgentType.ALPHA) for s in prior.labels}
    chi = {s: prior.type_prob(s, AgentType.CHI) for s in prior.labels}
    survivors = frozenset(s for s in prior.labels if e_alpha[s] + chi[s] >= prior.mu)
    if len(survivors) == len(prior.labels):
        return {s: e_alpha[s] + chi[s] for s in prior.labels}, survivors
    while survivors:
        mass = reference_candidate_mass(prior, seq, survivors, n)
        x = {s: e_alpha[s] + mass[s] for s in prior.labels}
        for s in prior.labels:  # a revealed agent's posterior on survivors is 0 or 1
            if (s in survivors) >= prior.p:
                x[s] += chi[s] * F(revealed, n)
        failing = {s for s in survivors if x[s] < prior.mu}
        if not failing:
            return x, survivors
        survivors -= failing
    return e_alpha, survivors


@st.composite
def threshold_lists(draw):
    """A 2- or 3-state prior, a short degree sequence (empty only with
    revealed agents), up to 3 revealed agents, and up to 6 (p, mu) pairs,
    unsorted and often repeated, with p in {0, 1}, on the eighths, or
    exactly some row's posterior mass on some set of states (a tie)."""
    k = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    labels = ("A", "B", "C")[:k]
    states = tuple(
        StatePrior(label, F(w, sum(weights)), draw(st.one_of(type_dists(), mixed_dists())))
        for label, w in zip(labels, weights)
    )
    prior = Prior(F(1, 2), F(1, 2), states)
    revealed = draw(st.integers(0, 3))
    degrees = draw(st.lists(st.integers(0, 6), min_size=0 if revealed else 1, max_size=8))
    levels = sorted({
        sum(post[s] for s in chosen)
        for _c, post in posteriors(prior, degrees)
        for r in range(1, k)
        for chosen in combinations(labels, r)
    })
    eighths = st.integers(0, 8).map(lambda j: F(j, 8))
    ps = st.one_of(eighths, st.sampled_from([F(0), F(1)]), *(
        [st.sampled_from(levels)] if levels else []
    ))
    thresholds = draw(st.lists(st.tuples(ps, eighths), min_size=1, max_size=6))
    return prior, degrees, revealed, thresholds


@SETTINGS
@given(threshold_lists())
def test_one_pass_fixpoints_match_one_threshold_loop(instance):
    prior, degrees, revealed, thresholds = instance
    got = _fixpoints(degrees, prior, thresholds, revealed=revealed)
    want = [
        reference_fixpoint(degrees, replace(prior, p=p, mu=mu), revealed)
        for p, mu in thresholds
    ]
    assert [(sizes, survivors) for sizes, survivors, _last in got] == want
    assert [(sizes, survivors) for sizes, survivors, _last in got] == [
        _fixpoints(degrees, prior, [(p, mu)], revealed=revealed)[0][:2]
        for p, mu in thresholds
    ]
    # The last pass's bins list, at each threshold's own p, the contexts
    # whose posterior mass on the survivors reaches p.
    for (p, _mu), (_sizes, survivors, last) in zip(thresholds, got):
        if last is not None:
            assert scan_contexts(*last) == [
                c for c, post in posteriors(prior, degrees)
                if sum(post[s] for s in survivors) >= p
            ]


def reference_degree_table(key, degree):
    """The degree table row by row: ((a, c, v), weights) for each context
    with a nonzero weight in some state, in order of a then c, where a
    state's weight is C(d, a) C(d-a, c) alpha^a chi^(c+1) nu^v over its
    type numerators."""
    _common, nums = key
    if not any(c for _a, c, _n in nums):
        return ()
    alpha_possible = any(a for a, _c, _n in nums)
    nu_possible = any(v for _a, _c, v in nums)
    rows = []
    for a in range(degree + 1 if alpha_possible else 1):
        for c in range(degree + 1 - a) if nu_possible else (degree - a,):
            v = degree - a - c
            weights = tuple(
                comb(degree, a) * comb(degree - a, c) * al**a * ch ** (c + 1) * nu**v
                for al, ch, nu in nums
            )
            if any(weights):
                rows.append(((a, c, v), weights))
    return tuple(rows)


@st.composite
def table_keys(draw):
    """The table key of one to three states' type distributions over
    assorted denominators; half the time alpha or nu is zero in every
    state."""
    k = draw(st.integers(1, 3))
    dists = [draw(st.one_of(type_dists(), mixed_dists())) for _ in range(k)]
    drop = draw(st.sampled_from(["", "", "alpha", "nu"]))
    if drop == "alpha":
        dists = [TypeDistribution(F(0), t.chi, t.alpha + t.nu) for t in dists]
    elif drop == "nu":
        dists = [TypeDistribution(t.alpha + t.nu, t.chi, F(0)) for t in dists]
    return _type_key(StatePrior(f"s{i}", F(1, k), t) for i, t in enumerate(dists))


# A has no nu agents and B no alpha agents, so every context with both an
# alpha and a nu neighbor weighs zero in both states and is dropped.
DISJOINT_KEY = _type_key((
    StatePrior("A", F(1, 2), TypeDistribution(F(1, 2), F(1, 2), F(0))),
    StatePrior("B", F(1, 2), TypeDistribution(F(0), F(1, 2), F(1, 2))),
))


def nonzero_rows(key, degree):
    """The rows of `_rows` that weigh something in some state, as
    ((a, c, v), weights) with the binomials C(d, a) C(d-a, c) put back."""
    rows = []
    for a, first, columns in _rows(key[1], degree):
        assert len(columns) == len(key[1])
        assert all(len(column) == degree - a - first + 1 for column in columns)
        for c, weights in enumerate(zip(*columns), first):
            if any(weights):
                k = comb(degree, a) * comb(degree - a, c)
                rows.append(((a, c, degree - a - c), tuple(k * w for w in weights)))
    return tuple(rows)


@SETTINGS
@given(table_keys(), st.integers(0, 12))
@example(DISJOINT_KEY, 6)
def test_rows_match_row_reference(key, degree):
    assert nonzero_rows(key, degree) == reference_degree_table(key, degree)


@st.composite
def masked_keys(draw):
    """The table key of one to three states in which each of alpha, chi and
    nu is, independently, zero or not."""
    states = []
    for _ in range(draw(st.integers(1, 3))):
        weights = [
            draw(st.integers(1, 5)) if draw(st.booleans()) else 0 for _ in range(3)
        ]
        assume(any(weights))
        total = sum(weights)
        states.append(TypeDistribution(*(F(w, total) for w in weights)))
    return _type_key(StatePrior(f"s{i}", F(1, len(states)), t) for i, t in enumerate(states))


def brute_table_rows(key, degrees):
    """The (a, c, v) rows a degree table can hold over the distinct degrees,
    counted one by one: a neighbor type counts only when some state has it,
    and no row exists without chi agents."""
    nums = key[1]
    alpha, chi, nu = (any(state[t] for state in nums) for t in range(3))
    return sum(
        1
        for d in set(degrees)
        for a in range(d + 1)
        for c in range(d + 1 - a)
        if chi and (alpha or a == 0) and (nu or a + c == d)
    )


@SETTINGS
@given(
    masked_keys(),
    st.lists(st.integers(0, 40), min_size=1, max_size=6),
    st.integers(0, 400),
)
def test_row_guard_matches_brute_row_count(key, degrees, guard):
    rows = brute_table_rows(key, degrees)
    with patch.object(algorithms, "TABLE_ROW_GUARD", guard):
        if rows > guard:
            with pytest.raises(SpaceTooLargeError, match=f"need {rows}$"):
                _check_table_rows(key, degrees)
        else:
            assert _check_table_rows(key, degrees) == sorted(set(degrees))
    listed = sum(
        len(columns[0]) for d in set(degrees) for _a, _first, columns in _rows(key[1], d)
    )
    assert listed == rows
    built = sum(len(nonzero_rows(key, d)) for d in set(degrees))
    # Some rows may weigh zero in every state; none does when some state
    # has all three types.
    if any(all(state) for state in key[1]):
        assert built == rows
    else:
        assert built <= rows


def reference_row_scan(key, inside, outside, levels, degree):
    """Each level's summed weights and maximal runs (a, lo, hi) from the
    reference degree table: a row reaches p when its posterior mass on the
    set, S / (S + R), is at least p."""
    sums, runs = [], []
    for p in levels:
        hits = [
            (row, w) for row, w in reference_degree_table(key, degree)
            if F(dot(inside, w), dot(inside, w) + dot(outside, w)) >= p
        ]
        sums.append(tuple(sum(w[i] for _row, w in hits) for i in range(len(inside))))
        level = []
        for (a, c, _v), _w in hits:
            if level and level[-1][0] == a and level[-1][2] == c:
                level[-1] = (a, level[-1][1], c + 1)
            else:
                level.append((a, c, c + 1))
        runs.append(tuple(level))
    return tuple(sums), runs


def dot(xs, ys):
    return sum(x * y for x, y in zip(xs, ys))


@st.composite
def scan_instances(draw):
    """A row-scan input: 2-4 states whose alpha, chi and nu masses are
    each zero or not, a proper subset of them (with three or more states
    often unordered by chi/nu), degree 0-10 and 1-3 ascending levels from
    the eighths and the exact posteriors of rows on the subset (ties)."""
    k = draw(st.integers(2, 4))
    states = []
    for i in range(k):
        w = [draw(st.integers(1, 5)) if draw(st.booleans()) else 0 for _ in range(3)]
        w[1] += not any(w)
        prob = draw(st.integers(1, 9))
        states.append(StatePrior(f"s{i}", F(prob), TypeDistribution(*(F(x, sum(w)) for x in w))))
    total = sum(s.prob for s in states)
    prior = Prior(F(1, 2), F(1, 2), tuple(replace(s, prob=s.prob / total) for s in states))
    chosen = draw(st.lists(st.sampled_from(prior.labels), min_size=1, max_size=k - 1, unique=True))
    key = _type_key(prior.states)
    inside, outside = map(tuple, algorithms._split_weights(prior, chosen))
    degree = draw(st.integers(0, 10))
    ties = [
        F(dot(inside, w), dot(inside, w) + dot(outside, w))
        for _row, w in reference_degree_table(key, degree)
    ]
    level = st.integers(0, 8).map(lambda j: F(j, 8))
    if ties:
        level |= st.sampled_from(ties)
    levels = sorted(set(draw(st.lists(level, min_size=1, max_size=3))))
    return key, inside, outside, levels, degree


@SETTINGS
@given(scan_instances())
@example((DISJOINT_KEY, (1, 0), (0, 1), [F(0), F(1, 2), F(1)], 6))
def test_row_scan_matches_table_reference(instance):
    key, inside, outside, levels, degree = instance
    bounds = tuple((p.numerator, p.denominator) for p in levels)
    sums, runs = _row_scan(key, inside, outside, bounds, degree)
    assert (sums, [runs(j) for j in range(len(levels))]) == reference_row_scan(
        key, inside, outside, levels, degree
    )


@st.composite
def level_lists(draw):
    """A kernel instance, a threshold p (its own p, 0 or 1) and an
    ascending list of two or more distinct levels that holds p."""
    prior, degrees, chosen = draw(kernel_instances())
    p = draw(st.sampled_from([prior.p, F(0), F(1)]))
    others = draw(st.lists(st.integers(0, 8).map(lambda j: F(j, 8)), min_size=1, max_size=4))
    levels = sorted({p, *others})
    assume(len(levels) > 1)
    return prior, degrees, chosen, p, levels


@SETTINGS
@given(level_lists())
def test_one_level_scan_matches_many_level_scan(instance):
    prior, degrees, chosen, p, levels = instance
    n = len(degrees)
    (one,), one_scan = _candidate_masses(prior, degrees, chosen, [p], n)
    masses, scan = _candidate_masses(prior, degrees, chosen, levels, n)
    j = levels.index(p)
    assert masses[j] == one
    assert [(d, run_rows(d, runs(j))) for d, runs in scan] == [
        (d, run_rows(d, runs(0))) for d, runs in one_scan
    ]
    assert scan_contexts(scan, j) == scan_contexts(one_scan, 0)


@st.composite
def cache_instances(draw):
    """A prior that is, in turn, two-state with alpha = 0 in both states
    (as the sweep priors are), two-state as `mixed_dists` draws it (zero
    masses mixed in, or all six positive) or three-state; degrees 0-12, a
    proper subset of the states and 1-4 ascending levels from the eighths."""
    shape = draw(st.sampled_from(["alpha0", "mixed", "three"]))
    count = 3 if shape == "three" else 2
    weights = draw(st.lists(st.integers(1, 9), min_size=count, max_size=count, unique=True))
    dists = [draw(mixed_dists()) for _ in weights]
    if shape == "alpha0":
        dists = [TypeDistribution(F(0), t.chi, t.alpha + t.nu) for t in dists]
    states = tuple(
        StatePrior(f"s{i}", F(w, sum(weights)), t) for i, (w, t) in enumerate(zip(weights, dists))
    )
    prior = Prior(F(1, 2), F(1, 2), states)
    degrees = draw(st.lists(st.integers(0, 12), min_size=1, max_size=6))
    chosen = draw(st.lists(st.sampled_from(prior.labels), min_size=1, max_size=count - 1, unique=True))
    eighths = st.integers(0, 8).map(lambda j: F(j, 8))
    levels = sorted(set(draw(st.lists(eighths, min_size=1, max_size=4))))
    return prior, degrees, chosen, levels


@SETTINGS
@given(cache_instances())
def test_candidate_masses_same_cold_and_warm(instance):
    prior, degrees, chosen, levels = instance

    def answer():
        masses, scan = _candidate_masses(prior, degrees, chosen, levels, len(degrees))
        return masses, [scan_contexts(scan, j) for j in range(len(levels))]

    before = answer()
    clear_kernel_caches()
    cold = answer()
    assert before == cold == answer()


WALK_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def walk_priors(draw):
    """A two-state prior with positive chi and nu masses and unequal state
    probabilities, with alpha positive in both states, in one or in
    neither; half the time chi_A nu_B = chi_B nu_A, so that every a-run is
    all-or-none."""
    weights = st.integers(1, 6)
    alpha_a, chi_a, nu_a, alpha_b = (draw(weights) for _ in range(4))
    no_alpha = draw(st.sampled_from(["", "", "A", "B", "AB"]))
    alpha_a *= "A" not in no_alpha
    alpha_b *= "B" not in no_alpha
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        chi_b, nu_b = k * chi_a, k * nu_a
    else:
        chi_b, nu_b = draw(weights), draw(weights)

    def dist(*w):
        return TypeDistribution(*(F(x, sum(w)) for x in w))

    prob_a = F(draw(st.sampled_from([1, 2, 3, 4, 6, 7, 8, 9])), 10)
    return two_state_prior(
        F(1, 2), F(1, 2), dist(alpha_a, chi_a, nu_a), dist(alpha_b, chi_b, nu_b), prob_a
    )


@st.composite
def set_posteriors(draw, prior, degrees, chosen):
    """The exact posterior on the states `chosen` of a possible row of one
    of the degrees (a = 0 when no state has alpha agents)."""
    d = draw(st.sampled_from(degrees))
    a = draw(st.integers(0, d if any(s.types.alpha for s in prior.states) else 0))
    c = draw(st.integers(0, d - a))
    post = state_posterior(ContextClass(AgentType.CHI, a, c, d - a - c), prior)
    return sum(post[s] for s in chosen)


def walk_levels(prior, degrees, state):
    """1-4 ascending distinct levels from {0, 1}, the eighths and the exact
    posteriors on `state` of rows of the degrees (ties)."""
    level = st.one_of(
        st.sampled_from([F(0), F(1)]),
        st.integers(0, 8).map(lambda j: F(j, 8)),
        set_posteriors(prior, degrees, [state]),
        set_posteriors(prior, degrees, [state]),
    )
    return st.lists(level, min_size=1, max_size=4).map(lambda ls: sorted(set(ls)))


@st.composite
def walk_instances(draw):
    """A walk prior, degrees 0-40 with at least one repeat, a candidate
    state and its levels."""
    prior = draw(walk_priors())
    degrees = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    degrees.append(draw(st.sampled_from(degrees)))
    state = draw(st.sampled_from(["A", "B"]))
    return prior, degrees, state, draw(walk_levels(prior, degrees, state))


def no_table(key, inside, outside, bounds, d):
    """`_row_scan`, except on the degrees that the cost rule sends to the
    walk (k <= (d + 2)/2 for k levels), which must not reach it."""
    if 2 * len(bounds) <= d + 2:
        raise AssertionError("the walk prior went through the row scan")
    return _row_scan(key, inside, outside, bounds, d)


@WALK_SETTINGS
@given(walk_instances())
def test_boundary_walk_matches_row_scan_and_reference(instance):
    prior, degrees, state, levels = instance
    n = len(degrees)
    with patch.object(algorithms, "_row_scan", no_table):
        masses, scan = _candidate_masses(prior, degrees, {state}, levels, n)
    with patch.object(algorithms, "_boundary_walk", algorithms._row_scan):
        row_masses, row_scan = _candidate_masses(prior, degrees, {state}, levels, n)
    assert masses == row_masses
    # Both kernels join a level's candidate rows into the same maximal runs.
    assert [[runs(j) for _d, runs in scan] for j in range(len(levels))] == [
        [runs(j) for _d, runs in row_scan] for j in range(len(levels))
    ]
    posts = posteriors(prior, degrees)
    for j, p in enumerate(levels):
        assert masses[j] == reference_candidate_mass(replace(prior, p=p), degrees, {state}, n)
        want = [c for c, post in posts if post[state] >= p]
        assert scan_contexts(scan, j) == scan_contexts(row_scan, j) == want


# chi_A nu_B < chi_B nu_A: state A's candidates in an a-run are a prefix in
# c, so a walk for A runs on the mirror.
PREFIX_PRIOR = two_state_prior(
    F(1, 2), F(1, 2),
    TypeDistribution(F(1, 2), F(1, 10), F(2, 5)),
    TypeDistribution(F(1, 20), F(1, 5), F(3, 4)),
)


@pytest.mark.parametrize("others", [[], [F(1, 10), F(9, 10)]], ids=["one-level", "three-levels"])
def test_mirrored_walk_matches_row_scan_and_reference(others):
    d = 8
    tie = state_posterior(ContextClass(AgentType.CHI, 2, 3, 3), PREFIX_PRIOR)["A"]
    levels = sorted({tie, *others})
    key = _type_key(PREFIX_PRIOR.states)
    inside, outside = map(tuple, algorithms._split_weights(PREFIX_PRIOR, {"A"}))
    bounds = tuple((p.numerator, p.denominator) for p in levels)
    sums, runs = algorithms._boundary_walk(key, inside, outside, bounds, d)
    row_sums, row_runs = _row_scan(key, inside, outside, bounds, d)
    assert sums == row_sums
    posts = posteriors(PREFIX_PRIOR, [d])
    for j, p in enumerate(levels):
        assert runs(j) == row_runs(j)
        want = [c for c, post in posts if post["A"] >= p]
        assert 0 < len(want) < len(posts)
        assert listed_contexts([(d, runs(j))]) == want
        mass = reference_candidate_mass(replace(PREFIX_PRIOR, p=p), [d], {"A"}, 1)
        assert [F(x, key[0] ** (d + 1)) for x in sums[j]] == [mass["A"], mass["B"]]
    # Every a-run that holds a candidate starts at c = 0.
    assert all(lo == 0 for j in range(len(levels)) for _a, lo, _hi in runs(j))


@st.composite
def walk_thresholds(draw):
    """A walk prior, up to 3 revealed agents, degrees 0-40 with a repeat
    (empty, half the time, when agents are revealed) and up to 5 (p, mu)
    pairs with p from the levels of either state."""
    prior = draw(walk_priors())
    revealed = draw(st.integers(0, 3))
    degrees = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    degrees.append(draw(st.sampled_from(degrees)))
    ps = draw(walk_levels(prior, degrees, "A")) + draw(walk_levels(prior, degrees, "B"))
    if revealed and draw(st.booleans()):
        degrees = []
    mus = st.integers(0, 8).map(lambda j: F(j, 8))
    thresholds = draw(st.lists(st.tuples(st.sampled_from(ps), mus), min_size=1, max_size=5))
    return prior, degrees, revealed, thresholds


WALK_PRIOR = two_state_prior(
    F(1, 2), F(1, 2),
    TypeDistribution(F(1, 10), F(7, 10), F(1, 5)),
    TypeDistribution(F(1, 20), F(1, 5), F(3, 4)),
    F(2, 5),
)


@WALK_SETTINGS
@given(walk_thresholds())
@example((WALK_PRIOR, [1, 2, 2, 40], 3, [(F(2, 5), F(1, 2)), (F(0), F(1, 2)), (F(1), F(1, 4))]))
@example((WALK_PRIOR, [], 2, [(F(2, 5), F(1, 2)), (F(0), F(3, 4)), (F(1), F(1, 4))]))
def test_walk_fixpoints_match_row_scan_and_reference(instance):
    prior, degrees, revealed, thresholds = instance
    with patch.object(algorithms, "_row_scan", no_table):
        got = _fixpoints(degrees, prior, thresholds, revealed=revealed)
    with patch.object(algorithms, "_boundary_walk", algorithms._row_scan):
        rows = _fixpoints(degrees, prior, thresholds, revealed=revealed)
    assert [answer[:2] for answer in got] == [answer[:2] for answer in rows] == [
        reference_fixpoint(degrees, replace(prior, p=p, mu=mu), revealed)
        for p, mu in thresholds
    ]
    for (_sizes, _survivors, last), (_s, _v, row_last) in zip(got, rows):
        assert (last is None) == (row_last is None)
        if last is not None:
            assert scan_contexts(*last) == scan_contexts(*row_last)


@st.composite
def multistate_walk_instances(draw):
    """A prior with 3-5 states in random order, every chi and nu mass
    positive, alpha positive in every state, in some or in none, and
    unequal state probabilities; degrees 0-16 with a repeat; a proper
    subset of the states: those above a cut in chi/nu order, those below
    it (half the time the two states either side of the cut get equal
    chi/nu) or any subset; and 1-3 ascending levels from {0, 1}, the
    eighths and the exact posteriors of rows on the subset (ties)."""
    k = draw(st.integers(3, 5))
    weight = st.integers(1, 6)
    types = sorted(
        ([draw(weight) for _ in range(3)] for _ in range(k)), key=lambda t: F(t[1], t[2])
    )
    cut = draw(st.integers(1, k - 1))
    if draw(st.booleans()):
        scale = draw(st.integers(1, 2))
        types[cut][1:] = [scale * types[cut - 1][1], scale * types[cut - 1][2]]
    no_alpha = draw(st.sampled_from(["none", "none", "some", "all"]))
    for t in types:
        if no_alpha == "all" or no_alpha == "some" and draw(st.booleans()):
            t[0] = 0
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k, unique=True))
    states = [
        StatePrior(f"s{i}", F(w, sum(weights)), TypeDistribution(*(F(x, sum(t)) for x in t)))
        for i, (w, t) in enumerate(zip(weights, types))
    ]
    labels = [s.label for s in states]
    chosen = draw(st.sampled_from([
        labels[cut:],
        labels[:cut],
        draw(st.lists(st.sampled_from(labels), min_size=1, max_size=k - 1, unique=True)),
    ]))
    prior = Prior(F(1, 2), F(1, 2), tuple(draw(st.permutations(states))))
    degrees = draw(st.lists(st.integers(0, 16), min_size=1, max_size=3))
    degrees.append(draw(st.sampled_from(degrees)))
    level = st.one_of(
        st.sampled_from([F(0), F(1)]),
        st.integers(0, 8).map(lambda j: F(j, 8)),
        set_posteriors(prior, degrees, chosen),
    )
    levels = sorted(set(draw(st.lists(level, min_size=1, max_size=3))))
    return prior, degrees, set(chosen), levels


def ordered_by_chi_nu(prior, chosen):
    """Whether no outside state's chi/nu exceeds an inside state's, or no
    inside state's exceeds an outside state's."""
    ratio = {s.label: s.types.chi / s.types.nu for s in prior.states}
    inside = [r for s, r in ratio.items() if s in chosen]
    outside = [r for s, r in ratio.items() if s not in chosen]
    return max(outside) <= min(inside) or max(inside) <= min(outside)


@WALK_SETTINGS
@given(multistate_walk_instances())
def test_multistate_walk_matches_row_scan_and_reference(instance):
    prior, degrees, chosen, levels = instance
    n = len(degrees)
    ordered = ordered_by_chi_nu(prior, chosen)
    walked = []

    def walk(key, inside, outside, bounds, d):
        walked.append(d)
        return _multistate_walk(key, inside, outside, bounds, d)

    with patch.object(algorithms, "_row_scan", no_table if ordered else _row_scan), \
            patch.object(algorithms, "_multistate_walk", walk):
        masses, scan = _candidate_masses(prior, degrees, chosen, levels, n)
    # Ordered sets walk on the degrees of the cost rule, unordered ones scan.
    cost_rule = [d for d in sorted(set(degrees)) if 2 * len(levels) <= d + 2]
    assert walked == (cost_rule if ordered else [])
    with patch.object(algorithms, "_multistate_walk", _row_scan):
        row_masses, row_scan = _candidate_masses(prior, degrees, chosen, levels, n)
    assert masses == row_masses
    assert [[runs(j) for _d, runs in scan] for j in range(len(levels))] == [
        [runs(j) for _d, runs in row_scan] for j in range(len(levels))
    ]
    posts = posteriors(prior, degrees)
    for j, p in enumerate(levels):
        assert masses[j] == reference_candidate_mass(replace(prior, p=p), degrees, chosen, n)
        want = [c for c, post in posts if sum(post[s] for s in chosen) >= p]
        assert scan_contexts(scan, j) == want


BIG = 10**20
TIED_PAIRS = [
    (BIG, BIG + 1), (BIG + 1, BIG + 2),  # both round to 1.0
    (10**30, 2 * 10**30), (10**30, 2 * 10**30 + 1),  # both round to 0.5 and -0.5
    (1, 10**400), (2, 10**400),  # both underflow to 0.0
    (1, 3), (2, 6), (0, 5), (0, 7), (5, 5),  # unreduced duplicates
]


@st.composite
def level_pairs(draw):
    """Integer pairs (x, t), 0 <= x <= t, t > 0: small ones, and ones whose
    float keys tie (near 1, near 1/2, below the smallest float), each
    scaled by a small factor so that duplicates come unreduced."""
    pairs = draw(st.lists(st.one_of(
        st.tuples(st.integers(0, 12), st.integers(1, 12)).filter(lambda q: q[0] <= q[1]),
        st.sampled_from(TIED_PAIRS),
        st.integers(0, 3).map(lambda j: (BIG + j, BIG + j + 1)),
        st.integers(0, 3).map(lambda j: (10**30, 2 * 10**30 + j)),
        st.integers(0, 3).map(lambda j: (j, 10**400)),
    ), max_size=12))
    scales = draw(st.lists(st.integers(1, 4), min_size=len(pairs), max_size=len(pairs)))
    return [(k * x, k * t) for (x, t), k in zip(pairs, scales)]


@SETTINGS
@given(level_pairs())
@example(TIED_PAIRS)
def test_ordered_levels_match_sorted_fractions(pairs):
    assert _ordered_levels(pairs) == [
        (q.numerator, q.denominator) for q in sorted({F(x, t) for x, t in pairs})
    ]


def reference_threshold_levels(degseq, prior):
    """A's posterior levels from the reference degree tables, one pair
    (pi_A W_A, sum of pi W) per table row, deduplicated and ordered
    exactly, with Fractions."""
    key = _type_key(prior.states)
    a = prior.labels.index("A")
    _common, probs = integer_weights(s.prob for s in prior.states)
    levels = {
        F(probs[a] * w[a], sum(pi * wi for pi, wi in zip(probs, w)))
        for d in _check_table_rows(key, degseq)
        for _row, w in reference_degree_table(key, d)
    }
    return [(q.numerator, q.denominator) for q in sorted(levels)]


@SETTINGS
@given(
    type_dists(), type_dists(), st.integers(1, 7), st.booleans(),
    st.lists(st.integers(0, 12), min_size=1, max_size=6),
)
def test_threshold_listing_matches_table_reference(dist_a, dist_b, prob_a, a_second, degseq):
    # type_dists puts zero alpha, chi or nu mass in some states.
    prior = two_state_prior(F(1, 2), F(1, 2), dist_a, dist_b, F(prob_a, 8))
    if a_second:
        prior = replace(prior, states=prior.states[::-1])
    listing = crucial_threshold_pairs(degseq, prior)
    levels = [q for k, q in listing.items() if k.startswith("posterior_A_level_")]
    assert levels == reference_threshold_levels(degseq, prior)


def swap_state_labels(prior):
    """Exchange the A and B labels (distributions and state probabilities
    travel with their worlds)."""
    a, b = prior.state("A"), prior.state("B")
    return Prior(
        p=prior.p,
        mu=prior.mu,
        states=(StatePrior("A", b.prob, b.types), StatePrior("B", a.prob, a.types)),
    )


def per_point_auto(degseq, prior):
    """algorithm1_auto one threshold at a time: algorithm1, and on a
    relabel error algorithm1 on the swapped labels. When both runs fail,
    exactly one state is the only candidate but has the smaller size: B
    when the first run found only B a candidate, else A."""
    try:
        return algorithm1(degseq, prior), False
    except MislabeledStatesError as exc:
        first = str(exc)
    try:
        swapped = algorithm1(degseq, swap_state_labels(prior))
    except MislabeledStatesError:
        sole, other = ("B", "A") if first.startswith("only state B") else ("A", "B")
        raise MislabeledStatesError(
            f"only state {sole} is a candidate, but computed X_{sole} < "
            f"X_{other}; no labeling satisfies X_A >= X_B"
        ) from None
    return {"A": swapped["B"], "B": swapped["A"]}, True


@SETTINGS
@given(two_state_priors(), degseqs, st.lists(st.integers(0, 8).map(lambda j: F(j, 8)), max_size=6))
# Neither labeling holds at p = 1: A alone reaches mu but has the smaller
# size, and in the mirror prior B does.
@example(
    two_state_prior(1, F(1, 2), TypeDistribution(F(1, 10), F(1, 2), F(2, 5)),
                    TypeDistribution(F(1, 5), F(1, 5), F(3, 5))),
    [2, 2, 3], [F(1, 2), F(1)],
)
@example(
    two_state_prior(1, F(1, 2), TypeDistribution(F(1, 5), F(1, 5), F(3, 5)),
                    TypeDistribution(F(1, 10), F(1, 2), F(2, 5))),
    [2, 2, 3], [F(1, 2), F(1)],
)
def test_auto_grid_matches_per_point_auto(prior, degseq, ps):
    def per_point():
        return [per_point_auto(degseq, replace(prior, p=p)) for p in ps]

    assert outcome(algorithm1_auto_grid, degseq, prior, ps) == outcome(per_point)


@SETTINGS
@given(two_state_priors(), degseqs, st.integers(1, 3), st.integers(1, 3))
def test_perturbed_pair_matches_two_runs(prior, degseq, tenths_d, tenths_e):
    delta, epsilon = F(tenths_d, 10), F(tenths_e, 10)
    try:
        inst = PromiseInstance(degseq, prior, F(1, 2), epsilon, delta)
    except ValidationError:
        assume(False)

    def two_runs():
        up = replace(prior, p=prior.p + delta / 3, mu=prior.mu + epsilon / 3)
        down = replace(prior, p=prior.p - delta / 3, mu=prior.mu - epsilon / 3)
        return algorithm1(degseq, up), algorithm1(degseq, down)

    assert outcome(_perturbed_sizes, inst) == outcome(two_runs)


@pytest.mark.parametrize("family, fixed", [("er", F(1, 20)), ("constant", F(3))])
@pytest.mark.parametrize("jobs", [1, 2])
def test_p_sweep_rows_match_per_point_auto(family, fixed, jobs, monkeypatch):
    # Only B reaches mu, so every trial is relabeled at every p; alpha_B >=
    # alpha_A keeps the relabeled run's order check passing when A' fails.
    prior = two_state_prior(
        F(1, 2), F(1, 2), TypeDistribution(F(1, 10), F(1, 5), F(7, 10)),
        TypeDistribution(F(1, 5), F(3, 5), F(1, 5)),
    )
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    cfg = SweepConfig(
        family=family, n=40, axis="p", values=grid(0, 1, F(1, 8)), prior=prior,
        fixed_param=fixed, trials=4, seed=7, jobs=jobs,
    )
    seqs = [generate_sequence(spec) for spec in experiments._specs(cfg, fixed)]
    want = [
        experiments._aggregate(value, [
            (sizes["A"], sizes["B"], relabeled)
            for sizes, relabeled in (
                per_point_auto(seq, replace(prior, p=value)) for seq in seqs
            )
        ])
        for value in cfg.values
    ]
    rows = run_sweep(cfg)
    assert rows == want
    assert {r["relabeled"] for r in rows} == {len(seqs)}


class BruteOracle:
    """The oracle's answers from first principles, in plain Fractions: every
    type assignment with its probability and its chi agents' cells, a cell
    being the vertex plus the types of its neighbors in sorted order."""

    def __init__(self, graph, prior):
        self.graph, self.prior = graph, prior
        self.worlds = []  # (probability, alpha count, chi cells)
        for s in prior.states:
            for types in product(AgentType, repeat=graph.n):
                prob = s.prob
                for t in types:
                    prob *= s.types.prob(t)
                if prob:
                    alpha = sum(1 for t in types if t is AgentType.ALPHA)
                    self.worlds.append((prob, alpha, self.chi_cells(types)))
        self.possible = {c for _, _, cells in self.worlds for c in cells}

    def chi_cells(self, types):
        return frozenset(
            (v, AgentType.CHI, tuple(types[u] for u in self.graph.neighbors(v)))
            for v in range(self.graph.n)
            if types[v] is AgentType.CHI
        )

    def threshold_probability(self, profile, cell):
        hit = seen = F(0)
        for prob, alpha, cells in self.worlds:
            if cell in cells:
                seen += prob
                if alpha + len(cells & (profile | {cell})) >= self.prior.mu * self.graph.n:
                    hit += prob
        return hit / seen

    def decision_probability(self, profile, mu_star):
        return sum(
            (p for p, alpha, cells in self.worlds
             if alpha + len(cells & profile) >= mu_star * self.graph.n),
            F(0),
        )

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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
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
    assert prob == brute.decision_probability(greatest.cells, mu_star)


class ReferenceOracle:
    """The oracle on one Python tuple per type assignment, the reference for
    the array enumeration: weights are integers over a per-state denominator
    (an assignment in state s has probability state_scale[s] * weight), and
    each entry keeps the assignment's alpha count and its chi cells."""

    def __init__(self, graph, prior):
        n = graph.n
        self.prior, self.n = prior, n
        supports = [tuple(t for t in AgentType if s.types.prob(t) > 0) for s in prior.states]
        self.entries = []  # (state index, weight, alpha count, chi cells)
        self.state_scale = []  # prob_s / den_s^n
        neighbor_lists = [graph.neighbors(v) for v in range(n)]
        for si, s in enumerate(prior.states):
            dist = s.types
            den = lcm(*(dist.prob(t).denominator for t in AgentType))
            nums = {t: int(dist.prob(t) * den) for t in AgentType}
            self.state_scale.append(s.prob / F(den**n))
            for types in product(supports[si], repeat=n):
                w = 1
                for t in types:
                    w *= nums[t]
                alpha_count = sum(1 for t in types if t is AgentType.ALPHA)
                chis = tuple(
                    (v, AgentType.CHI, tuple(types[u] for u in neighbor_lists[v]))
                    for v in range(n)
                    if types[v] is AgentType.CHI
                )
                self.entries.append((si, w, alpha_count, chis))
        totals = {}
        for si, w, _ac, chis in self.entries:
            for cell in chis:
                totals.setdefault(cell, [0] * len(prior.states))[si] += w
        self.cell_mass = {cell: self.mass(ws) for cell, ws in totals.items()}
        self.possible = frozenset(totals)

    def mass(self, weights):
        return sum((s * w for s, w in zip(self.state_scale, weights)), F(0))

    def counts(self, revolting):
        for si, w, alpha_count, chis in self.entries:
            yield si, w, chis, alpha_count + sum(1 for c in chis if c in revolting)

    def threshold_probabilities(self, revolting):
        need = ceil(self.prior.mu * self.n)
        weights = {cell: [0] * len(self.state_scale) for cell in self.cell_mass}
        for si, w, chis, count in self.counts(revolting):
            if count == need - 1:
                chis = [c for c in chis if c not in revolting]
            elif count < need:
                continue
            for cell in chis:
                weights[cell][si] += w
        return {c: self.mass(ws) / self.cell_mass[c] for c, ws in weights.items()}

    def iterate(self, start):
        trace = [frozenset(start)]
        while True:
            probs = self.threshold_probabilities(trace[-1])
            trace.append(frozenset(c for c, q in probs.items() if q >= self.prior.p))
            if trace[-1] == trace[-2]:
                return tuple(trace)

    def decision_probability(self, revolting, mu_star):
        weights = [0] * len(self.state_scale)
        for si, w, _chis, count in self.counts(revolting):
            if count >= mu_star * self.n:
                weights[si] += w
        return self.mass(weights)

    def expected_fraction(self, revolting, state):
        si_want = self.prior.labels.index(state)
        total = sum(w * count for si, w, _c, count in self.counts(revolting) if si == si_want)
        return self.state_scale[si_want] / self.prior.states[si_want].prob * total / self.n


@st.composite
def oracle_graphs(draw):
    """Up to 5 vertices: random edges on the first ones, the rest isolated."""
    n = draw(st.integers(1, 5))
    core = draw(st.integers(1, n))
    pairs = list(combinations(range(core), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return ConcreteGraph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def oracle_dists(draw):
    """A type distribution: a single type, alpha = 0, or all three types."""
    kind = draw(st.sampled_from(["one", "no_alpha", "mixed"]))
    if kind == "one":
        one = draw(st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        return TypeDistribution(*(F(x) for x in one))
    dist = draw(mixed_dists())
    if kind == "no_alpha":
        return TypeDistribution(F(0), dist.chi, dist.nu + dist.alpha)
    return dist


@st.composite
def oracle_instances(draw):
    """A graph and a 2- or 3-state prior, with mu in {0, 1} or on the
    quarters, and p in {0, 1}, on the quarters, or exactly some cell's
    threshold probability strictly between 0 and 1 in the greatest
    iteration's first step (a tie).
    mu_star is on the quarters; q_star is the decision probability itself
    half the time."""
    graph = draw(oracle_graphs())
    k = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    states = tuple(
        StatePrior(f"s{i}", F(w, sum(weights)), draw(oracle_dists()))
        for i, w in enumerate(weights)
    )
    mu = F(draw(st.sampled_from([0, 4, 1, 2, 3])), 4)
    prior = Prior(F(1, 2), mu, states)
    reference = ReferenceOracle(graph, prior)
    ties = sorted(
        {q for q in reference.threshold_probabilities(reference.possible).values() if 0 < q < 1}
    )
    kind = draw(st.sampled_from(["tie", "quarter", "zero", "one"]))
    if kind == "tie" and ties:
        p = draw(st.sampled_from(ties))
    elif kind in ("zero", "one"):
        p = F(kind == "one")
    else:
        p = F(draw(st.integers(0, 4)), 4)
    prior = replace(prior, p=p)
    mu_star = F(draw(st.integers(0, 4)), 4)
    return graph, prior, mu_star, draw(st.booleans())


@SETTINGS
@given(oracle_instances())
@example((  # vertex 4 sees neighbors 1 and 3 of unequal degree: digit order matters
    ConcreteGraph(5, [(1, 4), (2, 3), (2, 4), (3, 4)]),
    Prior(F(1), F(1, 2), (
        StatePrior("s0", F(1, 2), TypeDistribution(F(1), F(0), F(0))),
        StatePrior("s1", F(1, 2), TypeDistribution(F(0), F(1, 2), F(1, 2))),
    )),
    F(1, 2),
    False,
))
def test_oracle_matches_reference(instance):
    graph, prior, mu_star, tie_q = instance
    reference = ReferenceOracle(graph, prior)
    greatest = greatest_equilibrium(graph, prior)
    least = least_equilibrium(graph, prior)
    assert greatest.trace == reference.iterate(reference.possible)
    assert least.trace == reference.iterate(())
    assert (greatest.cells, least.cells) == (greatest.trace[-1], least.trace[-1])
    for profile in (greatest, least):
        probs = threshold_probabilities(graph, prior, profile)
        assert probs == reference.threshold_probabilities(profile.cells)
        assert list(probs) == sorted(probs, key=repr)
        for s in prior.labels:
            assert expected_revolt_fraction(graph, prior, profile, s) == (
                reference.expected_fraction(profile.cells, s)
            )
    want = reference.decision_probability(greatest.cells, mu_star)
    q_star = want if tie_q else F(1, 2)
    assert revolt_decision(RevoltInstance(graph, prior, mu_star, q_star)) == (
        want >= q_star, want
    )
    if graph.n <= 3:
        brute = BruteOracle(graph, prior)
        assert greatest.cells == brute.equilibrium(brute.possible)
        assert least.cells == brute.equilibrium(())
        assert want == brute.decision_probability(greatest.cells, mu_star)


# Two-state priors for the validator, one per survivor regime: alpha = 0,
# alpha > 0, no candidate state survives, every state survives.
REGIME_PRIORS = {
    "alpha0": two_state_prior(
        F(2, 5), F(1, 2), TypeDistribution(F(0), F(4, 5), F(1, 5)),
        TypeDistribution(F(0), F(1, 5), F(4, 5)),
    ),
    "alpha": two_state_prior(
        F(2, 5), F(1, 2), TypeDistribution(F(1, 10), F(7, 10), F(1, 5)),
        TypeDistribution(F(1, 20), F(1, 5), F(3, 4)),
    ),
    "none": two_state_prior(
        F(1, 2), F(7, 8), TypeDistribution(F(1, 8), F(1, 2), F(3, 8)),
        TypeDistribution(F(1, 8), F(1, 4), F(5, 8)),
    ),
    "all": two_state_prior(
        F(1, 2), F(1, 8), TypeDistribution(F(1, 4), F(1, 2), F(1, 4)),
        TypeDistribution(F(1, 8), F(1, 4), F(5, 8)), F(1, 3),
    ),
}


def test_regime_priors_cover_survivor_cases():
    survivors = {k: multistate_fixpoint([0, 1, 1, 2, 2, 2], p)[1] for k, p in REGIME_PRIORS.items()}
    assert survivors == {
        "alpha0": {"A"}, "alpha": {"A"}, "none": set(), "all": {"A", "B"},
    }
    assert REGIME_PRIORS["alpha"].type_prob("B", AgentType.ALPHA) > 0


@st.composite
def graphs_with_isolated(draw):
    """Up to 9 vertices with random edges, then up to 3 isolated vertices."""
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    isolated = draw(st.integers(0, 3))
    return ConcreteGraph(n + isolated, [e for e, k in zip(pairs, keep) if k])


def reference_revolting(degseq, prior):
    """The revolting contexts by Bayes' rule in plain Fractions: every
    possible chi context over the distinct degrees whose posterior mass on
    the survivors of the candidate-state fixpoint is at least p, in
    increasing degree order; none when no state survives."""
    _sizes, survivors = multistate_fixpoint(degseq, prior)
    if not survivors:
        return []
    return [
        c for c, post in posteriors(prior, degseq)
        if sum(post[s] for s in survivors) >= prior.p
    ]


@SETTINGS
@given(
    st.one_of(st.sampled_from(list(REGIME_PRIORS.values())), two_state_priors()),
    degseqs,
)
def test_sizes_are_alpha_plus_revolting_context_mass(prior, degseq):
    sizes = label_consistent_sizes(degseq, prior)
    returned, contexts = revolting_rule(degseq, prior)
    assert returned == sizes
    _sizes, survivors = multistate_fixpoint(degseq, prior)
    reference = reference_revolting(degseq, prior)
    # None stands for every chi context when every state survives.
    listed = None if contexts is None else listed_contexts(contexts)
    assert listed == (None if len(survivors) == 2 else reference)
    for s in ("A", "B"):
        alpha = prior.type_prob(s, AgentType.ALPHA)
        assert sizes[s] == alpha + expected_context_fraction(s, reference, prior, degseq)


def per_vertex_counts(graph, prior, state, seed, trials):
    """Each trial's (alpha, chi, candidate) agent counts, one vertex at a
    time: a chi vertex is a candidate iff its degree and alpha, chi and nu
    neighbor counts are those of a revolting context."""
    contexts = reference_revolting(graph.degree_sequence(), prior)
    revolting = {
        (c.degree, c.alpha_neighbors, c.chi_neighbors, c.nu_neighbors)
        for c in contexts
    }
    out = []
    for t in range(trials):
        types = sample_type_assignment(prior, state, graph.n, derive_seed(seed, t)).tolist()
        candidates = 0
        for v in range(graph.n):
            if types[v] != 1:
                continue
            seen = [0, 0, 0]
            for u in graph.neighbors(v):
                seen[types[u]] += 1
            candidates += (graph.degree(v), *seen) in revolting
        out.append((types.count(0), types.count(1), candidates))
    return out


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    graphs_with_isolated(),
    st.one_of(st.sampled_from(list(REGIME_PRIORS.values())), two_state_priors()),
    st.sampled_from(["A", "B"]),
    st.integers(0, 2**32),
)
def test_validate_counts_match_per_vertex_count(graph, prior, state, seed):
    degseq = graph.degree_sequence()
    try:
        report = run_validate(graph, prior, state, trials=3, seed=seed)
    except MislabeledStatesError:
        assume(False)
    rows = [(r["n_alpha"], r["n_chi"], r["n_candidates"]) for r in report["trial_rows"]]
    assert rows == per_vertex_counts(graph, prior, state, seed, 3)
    assert F(report["expected_candidate_fraction"]) == expected_context_fraction(
        state, reference_revolting(degseq, prior), prior, degseq
    )


@st.composite
def epistemic_instances(draw):
    """A model with up to 6 int- or string-labelled outcomes and up to 3
    agents, an event f (possibly empty), mu on the eighths (0 and 1
    included), and p in {0, 1}, on the eighths, or exactly some cell's
    conditional probability of some event (a tie)."""
    m = draw(st.integers(1, 6))
    labels = draw(st.one_of(
        st.lists(st.integers(-9, 99), min_size=m, max_size=m, unique=True),
        st.lists(st.text("ab1 ", max_size=3), min_size=m, max_size=m, unique=True),
    ))
    weights = draw(st.lists(st.integers(1, 8), min_size=m, max_size=m))
    prob = {o: F(w, sum(weights)) for o, w in zip(labels, weights)}
    partitions = {}
    for a in range(draw(st.integers(1, 3))):
        cell_of = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        partitions[f"a{a}"] = [
            [o for o, c in zip(labels, cell_of) if c == k] for k in set(cell_of)
        ]
    model = EpistemicModel.make(prob, partitions)
    subsets = st.lists(st.booleans(), min_size=m, max_size=m).map(
        lambda keep: frozenset(o for o, k in zip(labels, keep) if k)
    )
    f = draw(subsets)
    kind = draw(st.sampled_from(["tie", "eighth", "one", "zero"]))
    if kind == "tie":
        largest = max(model.partitions[0].cells, key=len)
        cell = [o for o in labels if o in largest]
        k = draw(st.integers(1, max(1, len(cell) - 1)))
        p = sum(prob[o] for o in cell[:k]) / sum(prob[o] for o in cell)
    elif kind == "eighth":
        p = F(draw(st.integers(0, 8)), 8)
    else:
        p = F(kind == "one")
    mu = F(draw(st.sampled_from([4, 8, 0, 1, 2, 3, 5, 6, 7])), 8)
    return model, p, mu, f


def fraction_belief(model, agent, p, event):
    """B_agent(event) in plain Fractions over frozensets."""
    prob = dict(zip(model.space.outcomes, model.space.probs))
    believed = set()
    for cell in model.partitions[model.agents.index(agent)].cells:
        inside = sum((prob[o] for o in event & cell), F(0))
        if inside >= p * sum((prob[o] for o in cell), F(0)):
            believed |= cell
    return frozenset(believed)


def pairwise_fixpoint(model, p, mu, f):
    """The common-belief event by the plain loop over every (J1, J2) pair
    of witness sets, one witness chain per pair."""
    universe = frozenset(model.space.outcomes)
    need = ceil(mu * len(model.agents))
    if need == 0:
        return universe
    result = set()
    for j2 in combinations(model.agents, need):
        anchor = universe
        for j in j2:
            anchor &= fraction_belief(model, j, p, f)
        if not anchor:
            continue
        for j1 in combinations(model.agents, need):
            current = anchor
            while True:
                nxt = anchor
                for j in j1:
                    nxt &= fraction_belief(model, j, p, current)
                if nxt == current:
                    break
                current = nxt
            result |= current
    return frozenset(result)


@SETTINGS
@given(epistemic_instances())
def test_belief_kernel_matches_fraction_reference(instance):
    model, p, mu, f = instance
    kernel = epistemic._BeliefKernel(model, p)
    outcomes = model.space.outcomes
    for bits in range(1 << len(outcomes)):
        e = frozenset(o for i, o in enumerate(outcomes) if bits >> i & 1)
        assert kernel.mask(e) == bits
        for j, agent in enumerate(model.agents):
            got = kernel.event(kernel.belief(j, bits))
            assert got == fraction_belief(model, agent, p, e), (agent, e)
    assert common_belief_fixpoint(model, p, mu, f) == pairwise_fixpoint(model, p, mu, f)


class ReferenceGraph:
    """The tuple-built graph: canonical pairs in a frozenset and sorted
    neighbor tuples, validated one edge at a time in input order."""

    def __init__(self, n, edges):
        if n < 0:
            raise ValidationError("graph size must be nonnegative")
        self.n = n
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u}, {v}) out of range for n={n}")
            canon.add((min(u, v), max(u, v)))
        self.edges = frozenset(canon)
        nbrs = [[] for _ in range(n)]
        for u, v in sorted(self.edges):
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._neighbors = tuple(tuple(sorted(ns)) for ns in nbrs)

    def neighbors(self, v):
        return self._neighbors[v]

    def degree_sequence(self):
        return [len(ns) for ns in self._neighbors]

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"ConcreteGraph(n={self.n}, edges={sorted(self.edges)})"


def outcome(build, *args):
    try:
        return build(*args)
    except ValidationError as exc:
        return str(exc)


endpoints = st.one_of(
    st.integers(-1, 9),
    st.sampled_from([2**63 - 1, 2**63, 2**64 + 5, -(2**63) - 1]),
)


@st.composite
def edge_inputs(draw):
    """n in 0..9 and up to 20 pairs, mostly in range, with duplicates,
    reversed pairs, self-loops, out-of-range and past-int64 endpoints."""
    n = draw(st.integers(0, 9))
    in_range = st.integers(0, max(n - 1, 0))
    pair = st.tuples(in_range, in_range) if n else st.tuples(endpoints, endpoints)
    pairs = draw(st.lists(
        st.one_of(pair, pair.map(lambda e: (e[1], e[0])), st.tuples(endpoints, endpoints)),
        max_size=20,
    ))
    if draw(st.booleans()):
        pairs = [e for e in pairs if e[0] != e[1] and all(0 <= x < n for x in e)]
    return n, pairs


@SETTINGS
@example((0, []))
@example((3, [(0, 1), (1, 0), (0, 1)]))
@example((3, [(0, 2**63), (1, 1)]))
@example((3, [(2, 2), (0, 2**64)]))
@example((4, [(-(2**63) - 1, 0)]))
@given(edge_inputs())
def test_csr_graph_matches_reference(instance):
    n, pairs = instance
    ref = outcome(ReferenceGraph, n, pairs)
    graph = outcome(ConcreteGraph, n, pairs)
    if isinstance(ref, str):
        assert graph == ref
        return
    assert graph.n == n and graph.edges == ref.edges
    assert graph.degree_sequence() == ref.degree_sequence()
    for v in range(n):
        assert graph.neighbors(v) == ref.neighbors(v)
        assert graph.degree(v) == len(ref.neighbors(v))
        assert graph.indices[graph.indptr[v] : graph.indptr[v + 1]].tolist() == list(
            ref.neighbors(v)
        )
    for u, v in product(range(-1, n + 1), repeat=2):
        assert graph.has_edge(u, v) == ref.has_edge(u, v)
    assert repr(graph) == repr(ref) and hash(graph) == hash(ref)
    assert graph.edge_list() == sorted(ref.edges)
    twin = ConcreteGraph(n, [(v, u) for u, v in reversed(pairs)])
    assert twin == graph and hash(twin) == hash(graph)
    if ref.edges:
        assert ConcreteGraph(n, sorted(ref.edges)[1:]) != graph
    assert ConcreteGraph(n + 1, pairs) != graph


def reference_er_edges(n, p_edge, seed):
    """G(n, p) by gap-skipping with one uniform per draw."""
    p = float(F(p_edge))
    if p == 0:
        return []
    if p == 1:
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = []
    log_q = np.log1p(-p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(np.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((v, w))
    return edges


def reference_ba_edges(n, m, seed):
    """Preferential attachment with one scalar draw per target."""
    rng = np.random.Generator(np.random.PCG64(seed))
    edges, repeated = [], []
    for new in range(m, n):
        if new == m:
            targets = list(range(m))
        else:
            targets, chosen = [], set()
            while len(targets) < m:
                t = repeated[int(rng.integers(len(repeated)))]
                if t not in chosen:
                    chosen.add(t)
                    targets.append(t)
        for t in targets:
            edges.append((new, t))
            repeated += [new, t]
    return edges


def assert_same_graph(graph, reference):
    assert repr(graph) == repr(reference)
    assert graph.degree_sequence() == reference.degree_sequence()


@pytest.mark.parametrize("n", [1, 2, 250])
@pytest.mark.parametrize(
    "p_edge", [F(0), F(1, 10**300), F(1, 10**9), F(1, 100), F(1, 2), F(1)]
)
def test_er_matches_scalar_sampler(n, p_edge):
    for seed in (0, 1, 2**63 + 7):
        reference = ReferenceGraph(n, reference_er_edges(n, p_edge, seed))
        assert_same_graph(er_graph(n, p_edge, seed), reference)
        assert er_sequence(n, p_edge, seed) == reference.degree_sequence()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 120), st.integers(1, 999).map(lambda k: F(k, 1000)), st.integers(0, 2**64 - 1))
def test_er_matches_scalar_sampler_at_random_p(n, p_edge, seed):
    reference = ReferenceGraph(n, reference_er_edges(n, p_edge, seed))
    assert_same_graph(er_graph(n, p_edge, seed), reference)
    assert er_sequence(n, p_edge, seed) == reference.degree_sequence()


@pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (250, 1), (250, 2), (250, 3)])
def test_ba_matches_scalar_sampler(n, m):
    for seed in (0, 1, 2**63 + 7):
        reference = ReferenceGraph(n, reference_ba_edges(n, m, seed))
        assert_same_graph(ba_graph(n, m, seed), reference)
        assert ba_sequence(n, m, seed) == reference.degree_sequence()


WORD128 = st.one_of(
    st.integers(0, 2**128 - 1),
    st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**128 - 1, netgen._PCG_MULT]),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(WORD128, min_size=1, max_size=8), WORD128, WORD128, WORD128, WORD128)
def test_word_arithmetic_matches_python_ints(xs, c, d, c2, offset):
    # The stream's 128-bit products and sums on uint64 words, against ints:
    # a row times an int, plus a row, plus np.uint64 scalar words (the form
    # the jump table's doubling and every block of doubles use), and a
    # stacked pair of rows times an int.
    hi, lo = (np.array(words, np.uint64) for words in zip(*map(netgen._words, xs)))
    ys = [(x + offset) % 2**128 for x in reversed(xs)]
    y_hi, y_lo = (np.array(words, np.uint64) for words in zip(*map(netgen._words, ys)))
    rows_hi, rows_lo = netgen._mul128(np.stack([hi, y_hi]), np.stack([lo, y_lo]), c2)
    assert list(map(netgen._as_int, rows_hi[0], rows_lo[0])) == [x * c2 % 2**128 for x in xs]
    assert list(map(netgen._as_int, rows_hi[1], rows_lo[1])) == [y * c2 % 2**128 for y in ys]
    hi, lo = netgen._mul128(hi, lo, c)
    assert list(map(netgen._as_int, hi, lo)) == [x * c % 2**128 for x in xs]
    netgen._add128(hi, lo, y_hi, y_lo)
    want = [(x * c + y) % 2**128 for x, y in zip(xs, ys)]
    assert list(map(netgen._as_int, hi, lo)) == want
    d_hi, d_lo = netgen._words(d)
    assert type(d_hi) is type(d_lo) is np.uint64
    netgen._add128(hi, lo, d_hi, d_lo)
    want = [(w + d) % 2**128 for w in want]
    assert list(map(netgen._as_int, hi, lo)) == want
    netgen._add128(hi, lo, y_hi[-1], y_lo[-1])
    assert list(map(netgen._as_int, hi, lo)) == [(w + ys[-1]) % 2**128 for w in want]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 4096])
def test_jump_table_from_empty_matches_python_ints(k, monkeypatch):
    # Built from G_1 alone by doubling, the table holds G_i = sum_{j<i} M**j
    # for i = 1..width, the first power of two >= k.
    monkeypatch.setattr(netgen, "_jumps", [np.zeros(1, np.uint64), np.ones(1, np.uint64)])
    hi, lo = netgen._jump_table(k)
    width = 1 << (k - 1).bit_length()
    assert hi.dtype == lo.dtype == np.uint64 and hi.shape == lo.shape == (width,)
    g, want = 0, []
    for i in range(width):
        g = (g * netgen._PCG_MULT + 1) % 2**128  # G_{i+1} = M*G_i + 1
        want.append(g)
    assert list(map(netgen._as_int, hi, lo)) == want
    assert netgen._jump_table(k)[0] is hi


CHUNK = netgen.DOUBLE_CHUNK

STREAM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("below"), st.integers(1, 2**32)),
        st.tuples(st.just("below"), st.sampled_from([1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32])),
        st.tuples(st.just("size"), st.integers(1, 2**32), st.integers(1, 5)),
        st.tuples(st.just("double")),
        st.tuples(st.just("block"), st.one_of(
            st.integers(0, 40),
            st.sampled_from([
                1024, 1025, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3,
            ]),
        )),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example(0, [("below", 2**32), ("size", 3, 2), ("block", 5)])
@example(2**32, [("double",), ("below", 7), ("block", CHUNK)])
@example(2**64 - 1, [("below", 5), ("block", CHUNK - 1), ("block", 3), ("below", 9)])
@example(7, [("below", 3), ("block", 2 * CHUNK + 3), ("below", 2**31 + 1), ("block", CHUNK + 1)])
@given(st.integers(0, 2**64 - 1), STREAM_OPS)
def test_stream_matches_numpy_generator(seed, ops):
    # Seeding, interleaved bounded draws (scalar and size=m, k up to 2^32,
    # which share numpy's buffered 32-bit half), scalar doubles, and blocks
    # of doubles around 1,024 and on either side of the chunk boundaries of
    # the jump table.
    stream = _Stream(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    for op in ops:
        if op[0] == "below":
            assert stream.below(op[1]) == int(rng.integers(op[1]))
        elif op[0] == "size":
            got = [stream.below(op[1]) for _ in range(op[2])]
            assert got == rng.integers(op[1], size=op[2]).tolist()
        elif op[0] == "double":
            assert stream.doubles(1).tolist() == [rng.random()]
        else:
            assert stream.doubles(op[1]).tolist() == rng.random(op[1]).tolist()
    state = rng.bit_generator.state
    assert (stream.state, stream.inc) == (state["state"]["state"], state["state"]["inc"])
    assert (stream.has_uint32, stream.uinteger) == (state["has_uint32"], state["uinteger"])


def reference_is_graphical(seq):
    """The Erdos-Gallai test one k at a time, with a bisection per k."""
    n = len(seq)
    if any(d >= n for d in seq) or sum(seq) % 2:
        return False
    d = sorted(seq, reverse=True)
    prefix = [0]
    for x in d:
        prefix.append(prefix[-1] + x)
    neg = [-x for x in d]  # ascending, for bisect
    for k in range(1, n + 1):
        j = max(k, bisect_left(neg, -(k - 1)))  # first j >= k with d[j] < k
        if prefix[k] > k * (k - 1) + (j - k) * k + (prefix[n] - prefix[j]):
            return False
    return True


@st.composite
def simple_graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, keep in zip(pairs, chosen) if keep]


def graph_degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


@st.composite
def degree_lists(draw):
    """Random lists, realizable sequences, and realizable sequences with one
    degree raised by one (an odd sum) or two (often just not graphical)."""
    kind = draw(st.integers(0, 2))
    if not kind:
        return draw(st.lists(st.integers(0, 15), min_size=1, max_size=16))
    seq = graph_degrees(*draw(simple_graphs()))
    if kind == 2:
        seq[draw(st.integers(0, len(seq) - 1))] += draw(st.integers(1, 2))
    return seq


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(degree_lists())
def test_is_graphical_matches_loop(seq):
    assert is_graphical(seq) == reference_is_graphical(seq)


def reference_realize_graph(seq, seed):
    """Havel-Hakimi on a list re-sorted after every vertex, then the
    double-edge-swap loop on numpy's Generator."""
    remaining = sorted(((d, v) for v, d in enumerate(seq)), reverse=True)
    edges = set()
    while remaining and remaining[0][0] > 0:
        d, v = remaining.pop(0)
        for i in range(d):
            du, u = remaining[i]
            edges.add((min(u, v), max(u, v)))
            remaining[i] = (du - 1, u)
        remaining.sort(reverse=True)
    edge_list = sorted(edges)
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(10 * len(edge_list)):
        if len(edge_list) < 2:
            break
        i, j = rng.integers(len(edge_list), size=2)
        if i == j:
            continue
        a, b = edge_list[i]
        c, d2 = edge_list[j]
        if int(rng.integers(2)):
            c, d2 = d2, c
        if len({a, b, c, d2}) < 4:
            continue
        e1, e2 = (min(a, d2), max(a, d2)), (min(c, b), max(c, b))
        if e1 in edges or e2 in edges:
            continue
        edges -= {(min(a, b), max(a, b)), (min(c, d2), max(c, d2))}
        edges |= {e1, e2}
        edge_list[i], edge_list[j] = e1, e2
    return ReferenceGraph(len(seq), edges)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(simple_graphs(14), st.integers(0, 2**64 - 1))
def test_realize_graph_matches_sorted_list_havel_hakimi(graph, seed):
    seq = graph_degrees(*graph)
    assert_same_graph(realize_graph(seq, seed), reference_realize_graph(seq, seed))


@st.composite
def hub_instances(draw):
    """A graph on 4..7 vertices with a hub joined to 3 or more others and a
    few edges among the rest, and a two-state prior (A's alpha + chi mass
    at least B's) in a regime where the finite game's greatest
    equilibrium is forced: p = 0 with a candidate state, or mu = 0."""
    n = draw(st.integers(4, 7))
    hub = set(draw(st.lists(st.integers(1, n - 1), min_size=3, max_size=n - 1, unique=True)))
    rest = draw(st.lists(st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)), max_size=2))
    edges = {(0, v) for v in hub} | {(min(e), max(e)) for e in rest if e[0] != e[1]}
    a, b = sorted((draw(type_dists()), draw(type_dists())), key=lambda t: t.alpha + t.chi)[::-1]
    if draw(st.booleans()):
        p, mu = F(0), F(draw(st.integers(0, 8)), 8)
        assume(a.alpha + a.chi >= mu)
    else:
        p, mu = F(draw(st.integers(0, 8)), 8), F(0)
    prior = two_state_prior(p, mu, a, b, F(draw(st.integers(1, 7)), 8))
    return ConcreteGraph(n, sorted(edges)), prior


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(hub_instances())
def test_general_variant_matches_oracle_on_hub_graphs(instance):
    # cutoff_c = 3/2 makes degree >= 3 a hub on up to 8 vertices, so the
    # hub's chi agents revolt by the revealed-state rule; at p = 0 that
    # rule must let them revolt in a state outside the candidate set too.
    graph, prior = instance
    seq = graph.degree_sequence()
    general = algorithm1_general(seq, prior, cutoff_c=F(3, 2))
    assert high_degree_cutoff(graph.n, F(3, 2)) == 3 and max(seq) >= 3
    greatest = greatest_equilibrium(graph, prior)
    assert general == {s: expected_revolt_fraction(graph, prior, greatest, s) for s in "AB"}


# ---------------------------------------------------------------------------
# The CLI's flag parser against argparse built from the same flag tables
# ---------------------------------------------------------------------------


def reference_parser() -> argparse.ArgumentParser:
    """argparse's tree for `cli.SUBCOMMANDS`, as the CLI built it before
    its own parser: one subparser per subcommand, one mutually exclusive
    group per flag group."""
    parser = argparse.ArgumentParser(prog="revolt")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags) in cli.SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=text)
        groups = {}
        for flag in flags:
            target = sub
            if flag.group:
                if flag.group not in groups:
                    groups[flag.group] = sub.add_mutually_exclusive_group(
                        required=flag.required
                    )
                target = groups[flag.group]
            if flag.kind == "const":
                target.add_argument(
                    flag.name, dest=flag.dest, action="store_const", const=flag.name[2:]
                )
            elif flag.kind == "true":
                target.add_argument(flag.name, action="store_true")
            else:
                target.add_argument(
                    flag.name,
                    default=flag.default,
                    required=flag.required and not flag.group,
                    type=None if flag.kind == "value" else int,
                    nargs=2 if flag.kind == "int2" else None,
                    choices=flag.choices or None,
                )
    return parser


def glued_negative(word):
    """Whether `word` is a negative number in the README's rational grammar
    that argparse reads as a flag: -1/2, -1e5 or -5., but not -1, -0.5 or
    -.5, which argparse reads as numbers."""
    return (
        word[:1] == "-"
        and RATIONAL_GRAMMAR.fullmatch(word) is not None
        and not re.fullmatch(r"-\d+|-\d*\.\d+", word)
    )


def glue_negatives(words):
    """`words` with each `glued_negative` word glued to the bare long flag
    before it, as --flag=word."""
    glued = []
    for word in words:
        flag = glued[-1] if glued else ""
        if flag.startswith("--") and "=" not in flag and glued_negative(word):
            glued[-1] = f"{flag}={word}"
        else:
            glued.append(word)
    return glued


def reference_parse_args(argv):
    """The former `cli.main` parse, with `glue_negatives` applied to the
    command line before its --config pre-parse and to the spliced config
    words: an argparse pre-parser finds --config, whose words are spliced
    in after the subcommand; an abbreviated --config is refused."""
    argv = glue_negatives(argv)
    config = None
    if any(word.startswith("--config") for word in argv):
        pre = argparse.ArgumentParser(prog="revolt", add_help=False, allow_abbrev=False)
        pre.add_argument("--config")
        config = pre.parse_known_args(argv)[0].config
        if config is not None:
            argv = argv[:1] + glue_negatives(cli._config_words(config)) + argv[1:]
    args = reference_parser().parse_args(argv)
    if args.config != config:
        raise ValidationError("spell out --config in full")
    return args


def parse_outcome(parse, argv):
    """The namespace `parse` gives `argv` as a dict, or ("exit", code)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return ("exit", exc.code)
        except Error:
            return ("exit", 2)


CONFIGS = {
    "smallest": {"smallest": True},
    "point": {"mu_star": "1/2"},
    "seed": {"seed": 3},
    "torus": {"torus": [3, 3]},
    "bad_int": {"n": "x"},
    "bad_choice": {"format": "xml"},
    "inputs": {"prior": "p.json", "degrees": "d.txt", "family": "ba", "n": 5},
    "nested": {"config": "other.json"},
    "unread": {"jobs": 2},
    "not_an_object": ["--smallest"],
}
CONFIG_MISSING = "missing"

# Values: plain words, ints good and bad, choices of every flag, negative
# numbers (-1, -0.5, -.5, -1e5, -5., -2.5E-3) and fractions (-1/2), words
# that look like flags.
PARSE_VALUES = [
    "1/2", "3", "0", "x", "1.5", "p.json", "csv", "json", "xml", "ba", "er", "ring",
    "param", "p", "graph", "sequence", "-1", "-0.5", "-.5", "-1/2", "-3/4", "-1e5",
    "-5.", "-2.5E-3", "", "a b", "-a b", "-", "--",
]
# Words no flag table reads as a flag with a value: an unknown flag, a
# single-dash word, the end of flags and help.
PARSE_JUNK = ["--", "-", "-x", "--bogus", "--h", "-h", "--help", "--he", "--=1", "-1/2"]


# Values a flag of each kind reads, negative numbers (-1, -0.5, -.5, -1e5,
# -5., -2.5E-3) and fractions (-1/2) among them.
GOOD_VALUES = {
    "value": [
        "1/2", "p.json", "-1/2", "-3/4", "-0.5", "-.5", "-1", "-1e5", "-5.", "-2.5E-3",
        "a b", "-a b", "-",
    ],
    "int": ["3", "0", "-1", " 7", "+2"],
}


def flag_value(flag):
    if flag.choices:
        return st.sampled_from(flag.choices)
    return st.sampled_from(GOOD_VALUES["value" if flag.kind == "value" else "int"])


@st.composite
def command_lines(draw):
    """A subcommand's line from its own flags (in full, cut to a prefix,
    or as --flag=value), other subcommands' flags, junk words and
    --config files; most lines start from the required flags, and most
    values are of the flag's kind."""
    command = draw(st.sampled_from(sorted(cli.SUBCOMMANDS)))
    flags = cli.SUBCOMMANDS[command][1]
    chunks = []
    if draw(st.integers(0, 7)):
        for flag in flags:
            if flag.required and not flag.group:
                chunks.append([flag.name, draw(flag_value(flag))])
        for group in dict.fromkeys(f.group for f in flags if f.group and f.required):
            member = draw(st.sampled_from([f for f in flags if f.group == group]))
            count = {"int2": 2, "value": 1, "int": 1}.get(member.kind, 0)
            chunks.append([member.name] + [draw(flag_value(member)) for _ in range(count)])
    all_flags = [f for _, fs in cli.SUBCOMMANDS.values() for f in fs]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            chunks.append([draw(st.sampled_from(PARSE_JUNK))])
        elif kind == 1:
            name = draw(st.sampled_from([CONFIG_MISSING] + sorted(CONFIGS)))
            spelling = draw(st.sampled_from(["--config {}", "--config={}", "--conf {}"]))
            chunks.append(spelling.format("{" + name + "}").split())
        else:
            flag = draw(st.sampled_from(flags if kind > 2 else all_flags))
            name = flag.name
            if not draw(st.integers(0, 3)):
                name = name[: draw(st.integers(3, len(name)))]
            arity = {"int2": 2, "value": 1, "int": 1}.get(flag.kind, 0)
            good = flag_value(flag)
            if draw(st.integers(0, 3)):
                words = [draw(good) for _ in range(arity)]
            else:
                count = draw(st.integers(max(arity - 1, 0), arity + 1))
                words = [draw(st.sampled_from(PARSE_VALUES) | good) for _ in range(count)]
            if len(words) == 1 and not draw(st.integers(0, 3)):
                chunks.append([f"{name}={words[0]}"])
            else:
                chunks.append([name] + words)
    order = draw(st.permutations(range(len(chunks))))
    return [command] + [word for i in order for word in chunks[i]]


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("configs")
    paths = {CONFIG_MISSING: str(folder / "missing.json")}
    for name, doc in CONFIGS.items():
        paths[name] = str(folder / f"{name}.json")
        (folder / f"{name}.json").write_text(json.dumps(doc))
    return paths


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(command_lines())
@example(["analyze", "--prior", "p.json", "--degrees", "d.txt", "--config", "{smallest}",
          "--multistate"])
@example(["epistemic", "--model", "m.json", "--mu", "-1/2", "--p=-1/3"])
@example(["validate", "--prior", "p.json", "--torus", "-3", "-3", "--torus", "4", "5"])
@example(["promise", "--prior", "p.json", "--degrees", "d.txt", "--mu-star", "1/2",
          "--epsilon", "0", "--delta", "0", "--s"])
def test_flag_parser_matches_argparse(config_paths, line):
    # The same namespace from both parsers, or exit 2 (0 for help) from both.
    # One difference is meant: the old join made --help -1/2 into the
    # refused --help=-1/2, where the parser now shows the help.
    assume(not any(
        "--help".startswith(a) and len(a) > 2 and glued_negative(b)
        for a, b in zip(line, line[1:])
    ))
    argv = [word.format(**config_paths) for word in line]
    ours = parse_outcome(cli.parse_args, argv)
    assert ours == parse_outcome(reference_parse_args, argv)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["--he"], ["--help=x"], ["-hx"], ["-h", "analyze"], ["bogus"],
    ["Analyze"], ["--", "analyze"], ["--bogus", "analyze"], ["analyze", "--help", "--bogus"],
])
def test_top_level_matches_argparse(argv):
    # Help words, a missing or unknown subcommand, and help past a bad flag.
    assert parse_outcome(cli.parse_args, argv) == parse_outcome(reference_parse_args, argv)


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()  # 0 (none) before 3.10.7
LONG = "1" * ((DIGIT_LIMIT or 4300) + 1)  # a numeral past the limit
NUMERAL = st.one_of(
    st.text("0123456789", min_size=1, max_size=12),
    st.sampled_from(["0", "007", "1_000", "1__0", "_1", "1_", "\u0663", "\uff11\uff12", "\u00b2"]),
)
SIGN = st.sampled_from(["", "+", "-", "--", "+-"])
BLANK = st.sampled_from(["", " ", "\t", "\n ", "\u2003"])
RATIONAL_TAIL = st.one_of(
    st.just(""),
    st.builds("/{}".format, NUMERAL | st.sampled_from(["", "0", "-2", "+2"])),
    st.builds(" / {}".format, NUMERAL),
    st.builds(".{}".format, NUMERAL | st.just("")),
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["e", "E", ".5e", "/2e"]),
        SIGN,
        NUMERAL | st.sampled_from([str(DIGIT_LIMIT), str(DIGIT_LIMIT + 1), "1_0"]),
    ),
)
RATIONAL_TEXT = st.one_of(
    st.builds("{}{}{}{}{}".format, BLANK, SIGN, NUMERAL | st.just(""), RATIONAL_TAIL, BLANK),
    st.sampled_from([
        LONG, "-" + LONG, "1/" + LONG, LONG + "/0", "0." + LONG, "." + LONG + "e5",
        "0." + "1_" * len(LONG) + "1", "0." + "1_" * (len(LONG) // 4), " 1/" + "0" * len(LONG),
        "x." + LONG, "1/2." + LONG, "1.2." + LONG, LONG + "." + LONG + "1", "-." + LONG + "e-1_0",
    ]),
)


# The README's rational grammar, one alternative per spelling, ASCII digits.
RATIONAL_GRAMMAR = re.compile(
    r"[-+]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)"
)


def rational_reference(text):
    """Fraction of the stripped text if it is in the README's grammar, or
    the ParseError message for it: any other text gets the one refusal, a
    decimal exponent past the interpreter's digit limit and a zero
    denominator are refused, a digit run past that limit gets int's error,
    and an echo of the text is clipped."""
    string = text.strip()
    try:
        if not RATIONAL_GRAMMAR.fullmatch(string):
            raise ValueError("not an integer, num/den or decimal")
        exponent = re.search(r"[eE]([-+]?[0-9]+)$", string)
        if DIGIT_LIMIT and exponent and abs(int(exponent[1])) > DIGIT_LIMIT:
            raise ValueError(
                f"exponent past {DIGIT_LIMIT}, the interpreter's integer-digit limit"
            )
        return F(string)
    except ValueError as exc:
        return f"bad rational {fileio._shown(text)}: {exc}"
    except ZeroDivisionError:
        return f"bad rational {fileio._shown(text)}: zero denominator"


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(RATIONAL_TEXT)
@example("1/0")
@example("/2")
@example("1/-2")
@example("-0/0")
@example(" 007/0350 ")
@example(".")
@example("")
@example("5.")
@example("-.5E-3")
@example("1 / 2")
def test_parse_rational_matches_fraction(text):
    # On the README's grammar the value is Fraction's and a digit run past
    # the interpreter's limit gets int's error; every other text, underscores
    # and non-ASCII digits included, gets the one refusal.
    try:
        got = fileio.parse_rational(text)
    except ParseError as exc:
        got = str(exc)
    assert got == rational_reference(text)
    assert len(got if isinstance(got, str) else "") < 300
