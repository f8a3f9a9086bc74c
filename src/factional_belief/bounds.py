"""Closed-form probability bounds: Markov on the non-candidate count, the
dependent Chernoff-Hoeffding bound parameterized by a fractional-chromatic
bound on the dependency graph, and the high-degree state-detection bound.

Rational quantities stay exact; the exponential bounds are evaluated in
90-digit decimal floating point with the standard library's `decimal`,
whose exp, ln and sqrt are correctly rounded. Its exponent range is opened
to the widest the module allows, so that tails such as e^(-2*10^18) keep
their digits; a bound below that range is refused rather than rounded to 0.
Comparisons of bound values against data use a documented 1e-15 tolerance
at report precision.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from decimal import (
    MAX_EMAX,
    MIN_EMIN,
    ROUND_HALF_UP,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
    Subnormal,
    Underflow,
    localcontext,
)
from fractions import Fraction
from typing import Union

from .errors import ValidationError
from .model import (
    ConcreteGraph,
    DegreeSequence,
    Prior,
    chi_alpha,
    validate_degree_sequence,
)

PRECISION_DIGITS = 90
REPORT_DIGITS = 20
REPORT_TOLERANCE = 1e-15
CONTEXT = Context(
    prec=PRECISION_DIGITS,
    Emin=MIN_EMIN,
    Emax=MAX_EMAX,
    traps=[InvalidOperation, DivisionByZero, Overflow, Underflow, Subnormal],
)

BoundValue = Union[Fraction, Decimal]


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
        return _report_digits(self.value)


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


def dependent_chernoff(n: int, t, chi_star) -> Decimal:
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
    with _evaluation():
        return (-2 * _to_decimal(t) ** 2 / (_to_decimal(chi_star) * n)).exp()


def dependency_chi_star_bound(degseq: DegreeSequence) -> int:
    """Trivial fractional-chromatic bound on the candidate-indicator
    dependency graph from a degree sequence: indicators of agents within two
    hops can be correlated, so the dependency degree is at most
    d_max + d_max*(d_max - 1); plus one for the coloring bound."""
    return _chi_star_from_max_degree(max(validate_degree_sequence(degseq)))


def _chi_star_from_max_degree(d_max: int) -> int:
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


def high_degree_state_bound(epsilon0, c, n: int) -> Decimal:
    """Tail bound 2 exp(-2 (epsilon0 * c)^2 * n^(1/3)) on a high-degree
    agent's neighborhood count deviating enough to confuse the state."""
    epsilon0 = Fraction(epsilon0)
    c = Fraction(c)
    if epsilon0 <= 0 or c <= 0:
        raise ValidationError("epsilon0 and c must be positive")
    if n < 1:
        raise ValidationError("n must be at least 1")
    with _evaluation():
        root = (Decimal(n).ln() / 3).exp()
        return 2 * (-2 * _to_decimal((epsilon0 * c) ** 2) * root).exp()


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


def chernoff_envelope(n: int, chi_star: int, trials: int, level=Fraction(1, 100)) -> Decimal:
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
    with _evaluation():
        inner = _to_decimal(Fraction(2 * trials) / level).ln()
        return (Decimal(chi_star) * n * inner / 2).sqrt()


@contextmanager
def _evaluation():
    """Evaluate in CONTEXT, refusing a result below its exponent range."""
    with localcontext(CONTEXT):
        try:
            yield
        except Subnormal:  # Underflow is a Subnormal too
            raise ValidationError(
                f"bound is below 1E{MIN_EMIN}, the smallest value it can be evaluated to"
            ) from None


def _to_decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / x.denominator


def _report_digits(x: Decimal) -> str:
    """A positive x in the report format: REPORT_DIGITS significant digits,
    rounded half up on the next one, trailing zeros stripped but one kept
    after the point, and fixed point when the leading digit's exponent lies
    strictly between -6 and 20, else `<digits>e<signed exponent>`."""
    with localcontext(CONTEXT):
        lead = x.adjusted()
        head = int(x.scaleb(REPORT_DIGITS - 1 - lead).to_integral_value(ROUND_HALF_UP))
    if head == 10**REPORT_DIGITS:  # the rounding carried into a new digit
        head, lead = head // 10, lead + 1
    digits = str(head).rstrip("0")
    if not -6 < lead < REPORT_DIGITS:
        return f"{digits[0]}.{digits[1:] or '0'}e{lead:+d}"
    if lead < 0:
        return "0." + "0" * (-lead - 1) + digits
    return f"{digits[: lead + 1].ljust(lead + 1, '0')}.{digits[lead + 1 :] or '0'}"
