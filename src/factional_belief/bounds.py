"""Closed-form probability bounds: Markov on the non-candidate count, the
dependent Chernoff-Hoeffding bound parameterized by a fractional-chromatic
bound on the dependency graph, and the high-degree state-detection bound.

Rational quantities stay exact; the exponential bounds are evaluated in
240-bit binary floating point via mpmath. Comparisons of bound values
against data use a documented 1e-15 tolerance at report precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import mpmath

from .errors import ValidationError
from .model import (
    ConcreteGraph,
    DegreeSequence,
    Prior,
    chi_alpha,
    validate_degree_sequence,
)

PRECISION_BITS = 240
REPORT_TOLERANCE = 1e-15

BoundValue = Union[Fraction, mpmath.mpf]


@dataclass(frozen=True)
class BoundReport:
    """A named bound evaluation. Values above 1 are vacuous as probability
    bounds and get clamped to 1 with the flag set."""

    name: str
    inputs: dict
    value: BoundValue
    clamped: bool = field(default=False)

    @classmethod
    def build(
        cls, name: str, inputs: dict, value: BoundValue, probability: bool = True
    ) -> "BoundReport":
        if probability and value > 1:
            return cls(name, inputs, Fraction(1), clamped=True)
        return cls(name, inputs, value, clamped=False)

    def value_str(self) -> str:
        if isinstance(self.value, Fraction):
            return str(self.value)
        return mpmath.nstr(self.value, 20)


def markov_noncandidate_bound(
    expect_per_agent: Fraction, threshold_fraction: Fraction, n: int
) -> Fraction:
    """Markov bound on the chance the non-candidate count reaches the
    threshold fraction: (expect * n) / (threshold * n), exact."""
    expect_per_agent = Fraction(expect_per_agent)
    threshold_fraction = Fraction(threshold_fraction)
    if threshold_fraction <= 0:
        raise ValidationError("threshold fraction must be positive")
    return expect_per_agent / threshold_fraction


def noncandidate_expectation_torus(prior: Prior, state: str) -> Fraction:
    """Per-agent non-candidate probability on a 4-regular graph, in the given
    state: Pr[nu] + Pr[chi] * Pr[at most one chi neighbor of four]."""
    prior.require_two_states()
    dist = prior.state(state).types
    chi = dist.chi
    none = (1 - chi) ** 4
    one = 4 * chi * (1 - chi) ** 3
    return dist.nu + chi * (none + one)


def dependent_chernoff(n: int, t, chi_star) -> mpmath.mpf:
    """One-sided tail bound exp(-2 t^2 / (chi_star * n)) for sums of [0,1]
    variables whose dependency graph has fractional chromatic number at most
    chi_star."""
    t = Fraction(t)
    chi_star = Fraction(chi_star)
    if n < 1:
        raise ValidationError("n must be at least 1")
    if t <= 0:
        raise ValidationError("t must be positive")
    if chi_star < 1:
        raise ValidationError("chi_star must be at least 1")
    with mpmath.workprec(PRECISION_BITS):
        expo = mpmath.mpf(-2) * _to_mpf(t) ** 2 / (_to_mpf(chi_star) * n)
        return mpmath.exp(expo)


def dependency_chi_star_bound(degseq: DegreeSequence) -> int:
    """Trivial fractional-chromatic bound on the candidate-indicator
    dependency graph from a degree sequence: indicators of agents within two
    hops can be correlated, so the dependency degree is at most
    d_max + d_max*(d_max - 1); plus one for the coloring bound."""
    seq = validate_degree_sequence(degseq)
    d_max = max(seq)
    return d_max + d_max * (d_max - 1) + 1


def dependency_chi_star_bound_graph(graph: ConcreteGraph) -> int:
    """Graph form of the same bound: exact maximum 2-ball size (excluding
    the center) plus one."""
    ptr, ids = graph.indptr.tolist(), graph.indices.tolist()
    best = 0
    for v in range(graph.n):
        nbrs = ids[ptr[v] : ptr[v + 1]]
        ball = set(nbrs)
        for u in nbrs:
            ball.update(ids[ptr[u] : ptr[u + 1]])
        ball.discard(v)
        best = max(best, len(ball))
    return best + 1


def high_degree_state_bound(epsilon0, c, n: int) -> mpmath.mpf:
    """Tail bound 2 exp(-2 (epsilon0 * c)^2 * n^(1/3)) on a high-degree
    agent's neighborhood count deviating enough to confuse the state."""
    epsilon0 = Fraction(epsilon0)
    c = Fraction(c)
    if epsilon0 <= 0 or c <= 0:
        raise ValidationError("epsilon0 and c must be positive")
    if n < 1:
        raise ValidationError("n must be at least 1")
    with mpmath.workprec(PRECISION_BITS):
        root = mpmath.cbrt(mpmath.mpf(n))
        return 2 * mpmath.exp(mpmath.mpf(-2) * _to_mpf((epsilon0 * c) ** 2) * root)


def high_degree_separation(prior: Prior, epsilon0) -> bool:
    """Whether epsilon0 is small enough that the expected revolting-type
    neighbor counts in the two states are separated by more than twice the
    deviation window: |e_A(chi+alpha) - e_B(chi+alpha)| > 2 * epsilon0.
    (Both sides of the raw inequality share the degree factor, so the
    comparison is exact.)"""
    prior.require_two_states()
    epsilon0 = Fraction(epsilon0)
    mass = chi_alpha(prior)
    return abs(mass["A"] - mass["B"]) > 2 * epsilon0


def chernoff_envelope(n: int, chi_star: int, trials: int, level=Fraction(1, 100)) -> mpmath.mpf:
    """Deviation t at which the union bound over `trials` two-sided
    dependent-Chernoff tails reaches `level`:
    t = sqrt(chi_star * n * ln(2 * trials / level) / 2)."""
    level = Fraction(level)
    if n < 1:
        raise ValidationError("n must be at least 1")
    if chi_star < 1:
        raise ValidationError("chi_star must be at least 1")
    if trials < 1 or not 0 < level <= 1:
        raise ValidationError("need trials >= 1 and 0 < level <= 1")
    with mpmath.workprec(PRECISION_BITS):
        inner = mpmath.log(_to_mpf(Fraction(2 * trials) / level))
        return mpmath.sqrt(mpmath.mpf(chi_star) * n * inner / 2)


def _to_mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
