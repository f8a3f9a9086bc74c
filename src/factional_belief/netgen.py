"""Seeded degree-sequence and graph generators, graphicality checking, and
Havel-Hakimi realization.

All randomness flows through `_Stream`, numpy's PCG64 computed in Python
ints: seeded from explicit 64-bit integers as `np.random.PCG64(seed)` is,
and bit-identical to `np.random.Generator(np.random.PCG64(seed))` for the
bounded integers and doubles it draws; nothing reads OS entropy. Large
blocks of doubles are drawn by numpy's own PCG64 from the stream's state.
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
_DOUBLE_UNIT = 2.0**-53
HANDOFF_DOUBLES = 1 << 14  # doubles a process draws in Python before numpy takes over
HANDOFF_BLOCK = 1 << 11  # a block of doubles this large goes to numpy at once
_handoff = {"python_doubles": 0, "generator": None}


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
    """`np.random.Generator(np.random.PCG64(seed))` in Python ints, for the
    draws the generators make: `below(k)` is `integers(k)` (a run of calls
    is `integers(k, size=m)`) and `doubles(k)` is `random(k)`.

    A draw steps the 128-bit LCG and outputs XSL-RR of the new state.
    `below` takes 32-bit halves as numpy's `next_uint32` does, low half
    first with the high half kept for the next call, and bounds them by
    Lemire's multiply-and-reject method. A double is the top 53 bits of a
    64-bit output times 2**-53. Python draws save a process the
    `numpy.random` import; once a block reaches HANDOFF_BLOCK or the
    process has drawn HANDOFF_DOUBLES doubles here, blocks are drawn by
    numpy's PCG64 from this stream's state, which is then read back."""

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, seed: int):
        self.state, self.inc = _pcg64_seed(seed & _MASK64)
        self.has_uint32 = 0
        self.uinteger = 0

    def _next32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        s = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        self.has_uint32, self.uinteger = 1, x >> 32
        return x & _MASK32

    def below(self, k: int) -> int:
        """A uniform integer in [0, k), 1 <= k <= 2**32."""
        if k == 1:
            return 0
        assert 1 < k <= 1 << 32, k
        u = self._next32()
        if k == 1 << 32:
            return u
        m = u * k
        if m & _MASK32 < k:
            threshold = ((1 << 32) - k) % k
            while m & _MASK32 < threshold:
                m = self._next32() * k
        return m >> 32

    def doubles(self, k: int) -> np.ndarray:
        """k uniform doubles in [0, 1)."""
        if k < HANDOFF_BLOCK and _handoff["python_doubles"] + k <= HANDOFF_DOUBLES:
            _handoff["python_doubles"] += k
            s, inc, out = self.state, self.inc, [0.0] * k
            mult, mask128, mask64, unit = _PCG_MULT, _MASK128, _MASK64, _DOUBLE_UNIT
            for i in range(k):
                s = (s * mult + inc) & mask128
                x = (s >> 64 ^ s) & mask64
                rot = s >> 122
                out[i] = (((x >> rot | x << (64 - rot)) & mask64) >> 11) * unit
            self.state = s
            return np.array(out)
        _handoff["python_doubles"] = HANDOFF_DOUBLES + 1
        if _handoff["generator"] is None:
            from numpy.random import PCG64, Generator

            _handoff["generator"] = Generator(PCG64(0))
        generator = _handoff["generator"]
        generator.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self.state, "inc": self.inc},
            "has_uint32": self.has_uint32,
            "uinteger": self.uinteger,
        }
        out = generator.random(k)
        self.state = generator.bit_generator.state["state"]["state"]
        return out


def is_graphical(degseq: DegreeSequence) -> bool:
    """Can a simple graph realize this degree sequence? Erdos-Gallai test
    (equivalent to Havel-Hakimi, which `realize_graph` uses to build an
    actual realization) on int64 arrays: with d sorted descending, prefix
    sums S and c_k the count of degrees >= k, S_k <= k(k - 1) + (j - k)k +
    S_n - S_j, j = max(k, c_k), for every k. Cheap inside resampling loops."""
    seq = validate_degree_sequence(degseq)
    n = len(seq)
    if max(seq) >= n or sum(seq) % 2:
        return False
    ascending = np.sort(np.array(seq, dtype=np.int64))
    prefix = np.zeros(n + 1, np.int64)
    np.cumsum(ascending[::-1], out=prefix[1:])
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
    stream = _Stream(seed)
    support = np.arange(1, n, dtype=np.int64)
    weights = support.astype(np.float64) ** (-gamma)
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    for _ in range(POWERLAW_ATTEMPTS):
        draws = support[np.searchsorted(cumulative, stream.doubles(n), side="left")]
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
    stream = _Stream(seed)
    ends: list[int] = []  # one entry per endpoint, so draws ~ degree
    for new in range(m, n):
        if new == m:
            targets = list(range(m))
        else:
            targets = []
            chosen: set[int] = set()
            while len(targets) < m:
                t = ends[stream.below(len(ends))]
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
    if not is_graphical(seq):
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
