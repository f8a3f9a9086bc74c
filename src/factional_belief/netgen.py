"""Seeded degree-sequence and graph generators, graphicality checking, and
Havel-Hakimi realization.

All randomness flows through `_Stream`, numpy's PCG64 computed in Python
ints and, for blocks of doubles, in numpy uint64 words through 128-bit jump
tables: seeded from explicit 64-bit integers as `np.random.PCG64(seed)` is,
and bit-identical to `np.random.Generator(np.random.PCG64(seed))` for the
bounded integers and doubles it draws, without importing `numpy.random`;
nothing reads OS entropy.
Derived seeds (per trial, per sweep point) come from `derive_seed`, a
SplitMix64 chain, so experiment batches are reproducible from a single
master seed.
"""

from __future__ import annotations

import heapq
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
REALIZE_EDGE_GUARD = 500_000  # edges realize_graph may make: 10 swap attempts each
ER_BLOCK = 1 << 16  # most uniforms er_graph draws at once
POWERLAW_ATTEMPTS = 10_000  # whole-sequence draws powerlaw_sequence makes
POWERLAW_DOUBLES = 25_000_000  # doubles those draws take in all (n each)


def splitmix64(x: int) -> int:
    """One SplitMix64 step (Steele/Lea/Flood constants)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def check_seed(seed: int) -> None:
    """Refuse a master seed outside the unsigned 64-bit range."""
    if not 0 <= seed <= _MASK64:
        raise ValidationError("seed must be an unsigned 64-bit integer")


def derive_seed(master: int, *indices: int) -> int:
    """Mix a master seed with counter indices: z = splitmix64(master), then
    z = splitmix64(z ^ splitmix64(index + 1)) per index, left to right."""
    z = splitmix64(master & _MASK64)
    for idx in indices:
        z = splitmix64(z ^ splitmix64((idx + 1) & _MASK64))
    return z


_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit LCG multiplier
_DOUBLE_UNIT = np.float64(2.0**-53)
DOUBLE_CHUNK = 1 << 12  # most LCG states one pass of `_Stream.doubles` computes
# Word constants stay np.uint64 so that every operand of the word arithmetic
# is uint64, which gives the same wrapping results under numpy 1.x's
# value-based casting and under NEP 50.
_LOW32 = np.uint64(_MASK32)
_W1, _W11, _W32, _W58, _W63 = (np.uint64(w) for w in (1, 11, 32, 58, 63))


def _words(x: int) -> tuple[np.uint64, np.uint64]:
    """The (high, low) 64-bit words of a 128-bit int."""
    return np.uint64(x >> 64), np.uint64(x & _MASK64)


def _as_int(hi, lo) -> int:
    """The 128-bit int whose words are the uint64 scalars hi and lo."""
    return int(hi) << 64 | int(lo)


def _mul128(hi, lo, c: int):
    """(hi, lo) * c mod 2**128 for uint64 word arrays hi, lo and an int c:
    the high word of lo * c_lo is summed from 32-bit limb products, none of
    whose partial sums can pass 2**64; the cross terms wrap mod 2**64."""
    c_hi, c_lo = _words(c)
    c0, c1 = np.uint64(c & _MASK32), np.uint64(c >> 32 & _MASK32)
    a0, a1 = lo & _LOW32, lo >> _W32
    low_mid = a0 * c0
    low_mid >>= _W32
    mid = a1 * c0
    mid += low_mid
    other_mid = a0 * c1
    other_mid += mid & _LOW32
    top = a1 * c1
    mid >>= _W32
    top += mid
    other_mid >>= _W32
    top += other_mid
    top += hi * c_lo
    top += lo * c_hi
    return top, lo * c_lo


def _add128(hi, lo, c_hi, c_lo) -> None:
    """(hi, lo) += (c_hi, c_lo) mod 2**128 in place, for uint64 words."""
    lo += c_lo
    hi += c_hi
    hi += lo < c_lo


# The words (high, low) of G_i = sum_{j<i} M**j for i = 1..width: as
# M**i = (M - 1)*G_i + 1, the i-th LCG state after s is G_i*K + s, with
# K = (M - 1)*s + inc one int per block.
_jumps = [np.zeros(1, np.uint64), np.ones(1, np.uint64)]


def _jump_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The G words for at least k states, grown by doubling: G_{n+j} =
    A_n*G_j + G_n, with A_n = M**n = (M - 1)*G_n + 1. Built once a process,
    up to the first power of two >= k."""
    hi, lo = _jumps
    while len(hi) < k:
        a_n = ((_PCG_MULT - 1) * _as_int(hi[-1], lo[-1]) + 1) & _MASK128
        top_hi, top_lo = _mul128(hi, lo, a_n)
        _add128(top_hi, top_lo, hi[-1], lo[-1])
        hi, lo = _jumps[:] = np.concatenate((hi, top_hi)), np.concatenate((lo, top_lo))
    return hi, lo


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """The (state, inc) of `np.random.PCG64(seed)` for a seed below 2**64:
    numpy's SeedSequence hashes the seed's two 32-bit words, low first, and
    two zero words into a pool of four and draws four 64-bit words from it,
    the first two PCG's initial state and the last two its stream; then
    PCG's srandom steps twice."""
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    w = [out[2 * i] | out[2 * i + 1] << 32 for i in range(4)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    state = inc + (w[0] << 64 | w[1])
    return (state * _PCG_MULT + inc) & _MASK128, inc


class _Stream:
    """`np.random.Generator(np.random.PCG64(seed))` in Python ints and numpy
    words, for the draws the generators make: `below(k)` is `integers(k)`
    (a run of calls is `integers(k, size=m)`) and `doubles(k)` is
    `random(k)`.

    A draw steps the 128-bit LCG and outputs XSL-RR of the new state.
    `below` steps it in Python ints and takes 32-bit halves as numpy's
    `next_uint32` does, low half first with the high half kept for the next
    call, and bounds them by Lemire's multiply-and-reject method. `doubles`
    computes its states in blocks of at most DOUBLE_CHUNK from the jump
    table (`_jump_table`) and leaves the kept half alone, as numpy's
    `next_double` does; a double is the top 53 bits of a 64-bit output
    times 2**-53."""

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, seed: int):
        self.state, self.inc = _pcg64_seed(seed & _MASK64)
        self.has_uint32 = 0
        self.uinteger = 0

    def below(self, k: int) -> int:
        """A uniform integer in [0, k), 1 <= k <= 2**32, drawn as numpy's
        bounded Lemire draw: u is the kept high half or the low half of a
        fresh output, and m = u * k is accepted when its low word reaches
        the threshold (2**32 - k) mod k. Every threshold is below k, so it
        is computed only for a low word below k; at k = 2**32 it is 0 and
        m >> 32 is u."""
        if k == 1:
            return 0
        assert 1 < k <= 1 << 32, k
        while True:
            if self.has_uint32:
                self.has_uint32 = 0
                u = self.uinteger
            else:
                s = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
                x = (s >> 64 ^ s) & _MASK64
                rot = s >> 122
                x = (x >> rot | x << (64 - rot)) & _MASK64
                self.has_uint32, self.uinteger = 1, x >> 32
                u = x & _MASK32
            m = u * k
            low = m & _MASK32
            if low >= k or low >= ((1 << 32) - k) % k:
                return m >> 32

    def doubles(self, k: int) -> np.ndarray:
        """k uniform doubles in [0, 1). Each block of states is G_i*K + s
        for the block's start state s, K = (M - 1)*s + inc: one 128-bit
        product per state."""
        out = np.empty(k)
        table_hi, table_lo = _jump_table(min(k, DOUBLE_CHUNK))
        s = self.state
        for start in range(0, k, DOUBLE_CHUNK):
            n = min(DOUBLE_CHUNK, k - start)
            step = ((_PCG_MULT - 1) * s + self.inc) & _MASK128
            hi, lo = _mul128(table_hi[:n], table_lo[:n], step)
            _add128(hi, lo, *_words(s))
            s = _as_int(hi[-1], lo[-1])
            lo ^= hi  # XSL-RR: rotate hi ^ lo right by the top 6 bits
            hi >>= _W58
            rotated = lo >> hi
            hi ^= _W63  # lo << (64 - rot) as lo << 1 << (63 - rot)
            lo <<= _W1
            lo <<= hi
            rotated |= lo
            rotated >>= _W11
            np.multiply(rotated, _DOUBLE_UNIT, out=out[start : start + n])
        self.state = s
        return out


def is_graphical(degseq: DegreeSequence) -> bool:
    """Can a simple graph realize this degree sequence? The Erdos-Gallai
    test of `_graphical` (equivalent to Havel-Hakimi, which `realize_graph`
    uses to build an actual realization) on the validated sequence."""
    seq = validate_degree_sequence(degseq)
    # A degree of n or more fails, and failing here keeps int64 in range.
    if max(seq) >= len(seq):
        return False
    return _graphical(np.sort(np.array(seq, dtype=np.int64)))


def _graphical(ascending: np.ndarray) -> bool:
    """The Erdos-Gallai test on a nonempty ascending int64 array of
    nonnegative degrees: with d sorted descending, prefix sums S and c_k the
    count of degrees >= k, the degree sum is even and S_k <= k(k - 1) +
    (j - k)k + S_n - S_j, j = max(k, c_k), for every k. Cheap inside
    resampling loops."""
    n = len(ascending)
    if ascending[-1] >= n:
        return False
    prefix = np.zeros(n + 1, np.int64)
    np.cumsum(ascending[::-1], out=prefix[1:])
    if prefix[n] % 2:
        return False
    k = np.arange(1, n + 1, dtype=np.int64)
    j = np.maximum(k, n - np.searchsorted(ascending, k))
    return bool(np.all(prefix[1:] <= k * (k - 1) + (j - k) * k + prefix[n] - prefix[j]))


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
    metadata. Heavy exponents below ~1.7 may exhaust the attempt cap,
    POWERLAW_ATTEMPTS draws, or POWERLAW_DOUBLES // n draws past n = 2,500,
    so that a request that cannot succeed fails in seconds.
    """
    try:
        gamma = float(gamma)
    except OverflowError:
        raise ValidationError("gamma is out of float range") from None
    if gamma <= 1:
        raise ValidationError("gamma must exceed 1")
    if n < 2:
        raise ValidationError("need n >= 2 for a power-law sequence")
    stream = _Stream(seed)
    support = np.arange(1, n, dtype=np.int64)
    weights = support.astype(np.float64) ** (-gamma)
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    attempts = min(POWERLAW_ATTEMPTS, POWERLAW_DOUBLES // n)
    for _ in range(attempts):
        draws = support[np.searchsorted(cumulative, stream.doubles(n), side="left")]
        if _graphical(np.sort(draws)):
            return draws.tolist()
    raise GenerationError(
        f"no graphical power-law sequence in {attempts} attempts "
        f"(n={n}, gamma={gamma}; at most {POWERLAW_ATTEMPTS} attempts "
        f"and {POWERLAW_DOUBLES} doubles in all)"
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
    below = _Stream(seed).below
    ends: list[int] = []  # one entry per endpoint, so draws ~ degree
    for new in range(m, n):
        if new == m:
            targets = list(range(m))
        else:
            targets = []
            chosen: set[int] = set()
            while len(targets) < m:
                t = ends[below(len(ends))]
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
        stream = _Stream(seed)
        log_q = np.log1p(-p)
        found = []
        last = -1
        while True:
            k = min(ER_BLOCK, int((pairs - last) * p) + 64)
            gaps = np.minimum(np.log(1.0 - stream.doubles(k)) / log_q, pairs)
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
    count = sum(seq) // 2
    check_edge_count(count)
    if count > REALIZE_EDGE_GUARD:
        raise SpaceTooLargeError(
            f"realized graphs limited to {REALIZE_EDGE_GUARD} edges "
            f"(10 edge-swap attempts each), not {count}"
        )
    if not _graphical(np.sort(np.array(seq, dtype=np.int64))):
        raise NotGraphicalError(f"degree sequence {seq} is not graphical")
    n = len(seq)
    # Havel-Hakimi: the vertex of highest (d, v) joins the d next highest.
    heap = [(-d, -v) for v, d in enumerate(seq) if d]
    heapq.heapify(heap)
    edges: set[tuple[int, int]] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if -d > len(heap):
            raise AssertionError("graphical sequence failed to realize")
        for du, u in [heapq.heappop(heap) for _ in range(-d)]:
            edges.add((-u, -v) if u > v else (-v, -u))
            if du < -1:
                heapq.heappush(heap, (du + 1, u))

    edge_list = sorted(edges)
    m = len(edge_list)
    below = _Stream(seed).below
    for _ in range(10 * m if m > 1 else 0):
        i, j = below(m), below(m)
        if i == j:
            continue
        a, b = edge_list[i]
        c, d = edge_list[j]
        if below(2):
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        e1, e2 = (a, d) if a < d else (d, a), (c, b) if c < b else (b, c)
        if e1 in edges or e2 in edges:
            continue
        edges.discard(edge_list[i])
        edges.discard(edge_list[j])
        edges.add(e1)
        edges.add(e2)
        edge_list[i] = e1
        edge_list[j] = e2
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
        check_seed(self.seed)


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
