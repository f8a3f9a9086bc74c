"""Seeded degree-sequence and graph generators, graphicality checking, and
Havel-Hakimi realization.

All randomness flows through numpy's PCG64 generator seeded from explicit
64-bit integers; nothing reads OS entropy. Derived seeds (per trial, per
sweep point) come from `derive_seed`, a SplitMix64 chain, so experiment
batches are reproducible from a single master seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Union

import numpy as np

from .errors import (
    GenerationError,
    NotGraphicalError,
    SpaceTooLargeError,
    ValidationError,
)
from .model import (  # VERTEX_GUARD stays importable as netgen.VERTEX_GUARD
    VERTEX_GUARD,
    ConcreteGraph,
    DegreeSequence,
    check_vertex_count,
    validate_degree_sequence,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
EDGE_GUARD = 5_000_000  # edges, or expected edges for G(n, p), one generator may make
ER_BLOCK = 1 << 16  # most uniforms er_graph draws at once
POWERLAW_ATTEMPTS = 10_000  # whole-sequence draws powerlaw_sequence makes


def splitmix64(x: int) -> int:
    """One SplitMix64 step (Steele/Lea/Flood constants)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Mix a master seed with counter indices: z = splitmix64(master), then
    z = splitmix64(z ^ splitmix64(index + 1)) per index, left to right."""
    z = splitmix64(master & _MASK64)
    for idx in indices:
        z = splitmix64(z ^ splitmix64((idx + 1) & _MASK64))
    return z


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def is_graphical(degseq: DegreeSequence) -> bool:
    """Can a simple graph realize this degree sequence? Erdos-Gallai test
    (equivalent to Havel-Hakimi, which `realize_graph` uses to build an
    actual realization); near-linear, so it is cheap inside resampling
    loops."""
    seq = validate_degree_sequence(degseq)
    n = len(seq)
    if any(d >= n for d in seq):
        return False
    if sum(seq) % 2:
        return False
    d = sorted(seq, reverse=True)
    prefix = [0]
    for x in d:
        prefix.append(prefix[-1] + x)
    from bisect import bisect_left

    neg = [-x for x in d]  # ascending, for bisect
    for k in range(1, n + 1):
        # first index j >= k with d[j] < k
        j = max(k, bisect_left(neg, -(k - 1)))
        rhs = k * (k - 1) + (j - k) * k + (prefix[n] - prefix[j])
        if prefix[k] > rhs:
            return False
    return True


def constant_sequence(n: int, d: int) -> list[int]:
    """n copies of d; rejects the non-graphical parity/range cases."""
    if not 0 <= d < n:
        raise ValidationError(f"need 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2:
        raise NotGraphicalError(f"n*d must be even, got n={n}, d={d}")
    return [d] * n


def powerlaw_sequence(n: int, gamma, seed: int) -> list[int]:
    """n i.i.d. draws from the truncated discrete distribution with mass
    proportional to d**(-gamma) on d = 1..n-1, resampled as a whole until
    the sequence is graphical.

    The truncation window [1, n-1] is fixed and recorded by `gen` output
    metadata. Heavy exponents below ~1.7 may exhaust the attempt cap.
    """
    try:
        gamma = float(gamma)
    except OverflowError:
        raise ValidationError("gamma is out of float range") from None
    if gamma <= 1:
        raise ValidationError("gamma must exceed 1")
    if n < 2:
        raise ValidationError("need n >= 2 for a power-law sequence")
    rng = _rng(seed)
    support = np.arange(1, n, dtype=np.int64)
    weights = support.astype(np.float64) ** (-gamma)
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    for _ in range(POWERLAW_ATTEMPTS):
        draws = support[np.searchsorted(cumulative, rng.random(n), side="left")]
        seq = [int(d) for d in draws]
        if is_graphical(seq):
            return seq
    raise GenerationError(
        f"no graphical power-law sequence in {POWERLAW_ATTEMPTS} attempts "
        f"(n={n}, gamma={gamma})"
    )


def check_edge_count(count: int, what: str = "edges") -> None:
    """Raise SpaceTooLargeError past EDGE_GUARD edges."""
    if count > EDGE_GUARD:
        raise SpaceTooLargeError(f"graphs limited to {EDGE_GUARD} {what}, not {count}")


def _ba_endpoints(n: int, m: int, seed: int) -> list[int]:
    """Preferential attachment as a flat endpoint list: edge i is
    (ends[2i], ends[2i + 1]). m isolated seed vertices; each arriving vertex
    draws m distinct targets with probability proportional to current degree
    (the first arrival connects to all seed vertices)."""
    if not 1 <= m < n:
        raise ValidationError(f"need 1 <= m < n, got m={m}, n={n}")
    check_edge_count(m * (n - m))
    rng = _rng(seed)
    ends: list[int] = []  # one entry per endpoint, so draws ~ degree
    for new in range(m, n):
        if new == m:
            targets = list(range(m))
        else:
            targets = []
            chosen: set[int] = set()
            while len(targets) < m:
                t = ends[int(rng.integers(len(ends)))]
                if t not in chosen:
                    chosen.add(t)
                    targets.append(t)
        for t in targets:
            ends.append(new)
            ends.append(t)
    return ends


def ba_graph(n: int, m: int, seed: int) -> ConcreteGraph:
    """Preferential-attachment graph; edge count is exactly m * (n - m)."""
    return ConcreteGraph(n, np.reshape(_ba_endpoints(n, m, seed), (-1, 2)))


def ba_sequence(n: int, m: int, seed: int) -> list[int]:
    return np.bincount(_ba_endpoints(n, m, seed), minlength=n).tolist()


def _er_pairs(n: int, p_edge, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges (v, w), v > w, of G(n, p_edge) by geometric gap-skipping
    (Batagelj & Brandes 2005) over the pair index v(v - 1)/2 + w. The gaps
    are drawn in blocks of uniforms, which are the doubles the one-at-a-time
    draws give; each gap is clamped to the pair count, which ends the walk
    either way, so a tiny p cannot overflow an int64."""
    if not 0 <= Fraction(p_edge) <= 1:
        raise ValidationError("p_edge must lie in [0, 1]")
    p = float(Fraction(p_edge))
    if n < 0:
        raise ValidationError("n must be nonnegative")
    pairs = n * (n - 1) // 2
    check_edge_count(ceil(Fraction(p_edge) * pairs), "expected edges")
    if p == 0:
        index = np.empty(0, np.int64)
    elif p == 1:
        index = np.arange(pairs, dtype=np.int64)
    else:
        rng = _rng(seed)
        log_q = np.log1p(-p)
        found = []
        last = -1
        while True:
            k = min(ER_BLOCK, int((pairs - last) * p) + 64)
            gaps = np.minimum(np.log(1.0 - rng.random(k)) / log_q, pairs)
            ahead = last + np.cumsum(gaps.astype(np.int64) + 1)
            stop = int(np.searchsorted(ahead, pairs))
            found.append(ahead[:stop])
            if stop < k:
                break
            last = int(ahead[-1])
        index = np.concatenate(found)
    row_start = np.cumsum(np.arange(n, dtype=np.int64))  # v(v + 1)/2
    v = np.searchsorted(row_start, index, side="right")
    return v, index - row_start[v - 1]


def er_graph(n: int, p_edge, seed: int) -> ConcreteGraph:
    """G(n, p): every vertex pair is an edge independently with probability
    p_edge, sampled in O(edges) time; refused past EDGE_GUARD expected
    edges."""
    v, w = _er_pairs(n, p_edge, seed)
    return ConcreteGraph(n, np.stack((w, v), axis=1))


def er_sequence(n: int, p_edge, seed: int) -> list[int]:
    return np.bincount(np.concatenate(_er_pairs(n, p_edge, seed)), minlength=n).tolist()


def realize_graph(degseq: DegreeSequence, seed: int) -> ConcreteGraph:
    """Havel-Hakimi deterministic realization followed by 10 * |E| seeded
    double-edge-swap attempts (degree-preserving shuffling; approximate, not
    uniform, sampling of graphs with this degree sequence)."""
    seq = validate_degree_sequence(degseq)
    check_edge_count(sum(seq) // 2)
    if not is_graphical(seq):
        raise NotGraphicalError(f"degree sequence {seq} is not graphical")
    n = len(seq)
    remaining = sorted(((d, v) for v, d in enumerate(seq)), reverse=True)
    edges: set[tuple[int, int]] = set()
    while remaining and remaining[0][0] > 0:
        d, v = remaining.pop(0)
        if d > len(remaining):
            raise AssertionError("graphical sequence failed to realize")
        for i in range(d):
            du, u = remaining[i]
            edges.add((min(u, v), max(u, v)))
            remaining[i] = (du - 1, u)
        remaining.sort(reverse=True)

    edge_list = sorted(edges)
    rng = _rng(seed)
    attempts = 10 * len(edge_list)
    for _ in range(attempts):
        if len(edge_list) < 2:
            break
        i, j = rng.integers(len(edge_list), size=2)
        if i == j:
            continue
        a, b = edge_list[int(i)]
        c, d2 = edge_list[int(j)]
        if int(rng.integers(2)):
            c, d2 = d2, c
        if len({a, b, c, d2}) < 4:
            continue
        e1, e2 = (min(a, d2), max(a, d2)), (min(c, b), max(c, b))
        if e1 in edges or e2 in edges:
            continue
        edges.discard((min(a, b), max(a, b)))
        edges.discard((min(c, d2), max(c, d2)))
        edges.add(e1)
        edges.add(e2)
        edge_list[int(i)] = e1
        edge_list[int(j)] = e2
    return ConcreteGraph(n, edges)


def torus_grid(rows: int, cols: int) -> ConcreteGraph:
    """4-regular wrap-around grid; needs both dimensions >= 3 so the wrap
    edges stay simple."""
    if rows < 3 or cols < 3:
        raise ValidationError("torus dimensions must both be at least 3")
    check_vertex_count(rows * cols)
    ids = np.arange(rows * cols).reshape(rows, cols)
    right, down = np.roll(ids, -1, axis=1), np.roll(ids, -1, axis=0)
    edges = np.stack((np.tile(ids.ravel(), 2), np.concatenate((right, down), None)), 1)
    return ConcreteGraph(rows * cols, edges)


FAMILIES = ("constant", "powerlaw", "ba", "er")


@dataclass(frozen=True)
class GenSpec:
    """One generator request: family, size, the family parameter
    (d / gamma / m / p_edge), and a 64-bit seed."""

    family: str
    n: int
    param: Union[int, Fraction, float]
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.n < 1:
            raise ValidationError("n must be at least 1")
        check_vertex_count(self.n)
        if not 0 <= self.seed <= _MASK64:
            raise ValidationError("seed must be an unsigned 64-bit integer")


def _integer_param(spec: GenSpec) -> int:
    value = Fraction(spec.param)
    if value.denominator != 1:
        raise ValidationError(
            f"family {spec.family!r} needs an integer parameter, got {spec.param}"
        )
    return value.numerator


def generate_sequence(spec: GenSpec) -> list[int]:
    if spec.family == "constant":
        return constant_sequence(spec.n, _integer_param(spec))
    if spec.family == "powerlaw":
        return powerlaw_sequence(spec.n, spec.param, spec.seed)
    if spec.family == "ba":
        return ba_sequence(spec.n, _integer_param(spec), spec.seed)
    return er_sequence(spec.n, spec.param, spec.seed)


def generate_graph(spec: GenSpec) -> ConcreteGraph:
    if spec.family == "ba":
        return ba_graph(spec.n, _integer_param(spec), spec.seed)
    if spec.family == "er":
        return er_graph(spec.n, spec.param, spec.seed)
    seq = generate_sequence(spec)
    return realize_graph(seq, derive_seed(spec.seed, 1))
