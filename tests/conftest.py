from fractions import Fraction as F

import pytest

from factional_belief import (
    AgentType,
    ContextClass,
    EpistemicModel,
    Prior,
    TypeDistribution,
    two_state_prior,
)
from factional_belief import algorithms


def clear_kernel_caches():
    for cached in (
        algorithms._degree_table,
        algorithms._row_scan,
        algorithms._boundary_walk,
        algorithms._multistate_walk,
    ):
        cached.cache_clear()


def run_rows(d, runs):
    """The rows (a, c, v) of a degree's candidacy runs, in order: a run
    (a, lo, hi) holds c = lo..hi-1, v = d - a - c."""
    return [(a, c, d - a - c) for a, lo, hi in runs for c in range(lo, hi)]


def listed_contexts(candidacy):
    """The chi contexts of (d, runs) pairs, as `revolting_rule` returns them."""
    return [
        ContextClass(AgentType.CHI, *row) for d, runs in candidacy for row in run_rows(d, runs)
    ]


def scan_contexts(scan, j):
    """The chi contexts of a `_candidate_masses` scan at its levels[j]."""
    return listed_contexts((d, runs(j)) for d, runs in scan)


@pytest.fixture
def cold_caches():
    """Empty the degree-table and candidacy-kernel caches first, so that a
    test that counts table builds or kernel calls (or forbids them) does not
    depend on which tests ran before it."""
    clear_kernel_caches()


@pytest.fixture
def motivating_prior() -> Prior:
    """Two equally likely states; the anti-government one is 4/5 chi, the
    pro-government one 4/5 nu; thresholds p = 2/5, mu = 1/2."""
    return two_state_prior(
        F(2, 5),
        F(1, 2),
        TypeDistribution(alpha=F(0), chi=F(4, 5), nu=F(1, 5)),
        TypeDistribution(alpha=F(0), chi=F(1, 5), nu=F(4, 5)),
    )


@pytest.fixture
def die_model() -> EpistemicModel:
    """Fair die, one agent who has learned nothing."""
    return EpistemicModel.make(
        {i: F(1, 6) for i in range(1, 7)}, {"i": [[1, 2, 3, 4, 5, 6]]}
    )


@pytest.fixture
def two_agent_die() -> EpistemicModel:
    """Fair die; agent 1 learns the outcome up to pairs, agent 2 nothing."""
    return EpistemicModel.make(
        {i: F(1, 6) for i in range(1, 7)},
        {"1": [[1, 2], [3, 4], [5, 6]], "2": [[1, 2, 3, 4, 5, 6]]},
    )


def make_dist(alpha, chi, nu) -> TypeDistribution:
    return TypeDistribution(alpha=F(alpha), chi=F(chi), nu=F(nu))
