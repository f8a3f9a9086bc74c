from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest

from factional_belief import (
    GenSpec,
    ba_graph,
    ba_sequence,
    constant_sequence,
    derive_seed,
    er_graph,
    er_sequence,
    is_graphical,
    powerlaw_sequence,
    realize_graph,
    torus_grid,
)
from factional_belief import netgen
from factional_belief.errors import (
    GenerationError,
    NotGraphicalError,
    SpaceTooLargeError,
    ValidationError,
)
from factional_belief.netgen import (
    VERTEX_GUARD,
    generate_graph,
    generate_sequence,
    splitmix64,
)


class TestSeeding:
    def test_splitmix_known_stream(self):
        # golden-ratio increment stream from a zero seed, first outputs
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
        assert derive_seed(42, 1) != derive_seed(43, 1)

    def test_derive_seed_range(self):
        for i in range(50):
            assert 0 <= derive_seed(7, i) < 2**64


class TestConstant:
    def test_thousand_fours(self):
        seq = constant_sequence(1000, 4)
        assert len(seq) == 1000 and set(seq) == {4}

    def test_pair(self):
        assert constant_sequence(2, 1) == [1, 1]

    def test_parity_violation(self):
        with pytest.raises(NotGraphicalError):
            constant_sequence(3, 1)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            constant_sequence(4, 4)


class TestIsGraphical:
    def test_k4(self):
        assert is_graphical([3, 3, 3, 3])

    def test_degree_exceeds_order(self):
        assert not is_graphical([3, 1])

    def test_odd_sum(self):
        assert not is_graphical([2, 1])

    def test_known_infeasible(self):
        assert not is_graphical([4, 4, 4, 1, 1])

    def test_five_vertex_exhaustive(self):
        # ground truth: degree sequences of all 2^10 graphs on 5 vertices
        feasible = set()
        pairs = list(combinations(range(5), 2))
        for mask in range(1 << 10):
            degs = [0] * 5
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    degs[u] += 1
                    degs[v] += 1
            feasible.add(tuple(sorted(degs, reverse=True)))
        for seq in ([4, 4, 4, 1, 1], [4, 4, 2, 1, 1], [3, 3, 2, 2, 2], [4, 3, 2, 1, 0]):
            assert is_graphical(seq) == (tuple(sorted(seq, reverse=True)) in feasible)


class TestPowerLaw:
    def test_pmf_ratio(self):
        # at gamma = 3 the pmf gives Pr[1]/Pr[2] = 8 exactly
        assert F(1) ** -1 / F(2**-3) == 8

    def test_output_graphical(self):
        for s in range(5):
            assert is_graphical(powerlaw_sequence(60, 2.5, derive_seed(1, s)))

    def test_empirical_frequency_ratio(self):
        ones = twos = 0
        for s in range(100):
            seq = powerlaw_sequence(10_000, 3.0, derive_seed(9, s))
            counts = Counter(seq)
            ones += counts[1]
            twos += counts[2]
        assert 6.5 <= ones / twos <= 9.5

    def test_gamma_guard(self):
        with pytest.raises(ValidationError):
            powerlaw_sequence(10, 1.0, 0)

    def test_attempts_capped_by_doubles_drawn(self, monkeypatch):
        # Up to n = 2,500 every request keeps its 10,000 attempts.
        assert netgen.POWERLAW_DOUBLES // 2_500 == netgen.POWERLAW_ATTEMPTS == 10_000
        monkeypatch.setattr(netgen, "POWERLAW_ATTEMPTS", 7)
        monkeypatch.setattr(netgen, "POWERLAW_DOUBLES", 500)
        drawn = []
        monkeypatch.setattr(
            netgen, "_graphical", lambda ascending: drawn.append(len(ascending)) and False
        )
        for n, attempts in ((50, 7), (100, 5), (250, 2), (501, 0)):
            drawn.clear()
            with pytest.raises(GenerationError, match=(
                rf"in {attempts} attempts .*at most 7 attempts and 500 doubles in all"
            )):
                powerlaw_sequence(n, 2.5, 0)
            assert drawn == [n] * attempts


class TestBarabasiAlbert:
    @pytest.mark.parametrize("n,m", [(50, 1), (100, 2), (60, 3)])
    def test_edge_count_identity(self, n, m):
        g = ba_graph(n, m, derive_seed(2, n, m))
        assert len(g.edges) == m * (n - m)
        assert sum(g.degree_sequence()) == 2 * m * (n - m)

    def test_minimum_degree_of_arrived_vertices(self):
        for s in range(100):
            g = ba_graph(1000, 2, derive_seed(3, s))
            degs = g.degree_sequence()
            assert all(degs[v] >= 2 for v in range(2, 1000))

    def test_sequence_matches_graph(self):
        assert ba_sequence(40, 2, 123) == ba_graph(40, 2, 123).degree_sequence()

    def test_param_range(self):
        with pytest.raises(ValidationError):
            ba_graph(5, 5, 0)


class TestErdosRenyi:
    def test_zero_probability(self):
        assert er_sequence(100, 0, 5) == [0] * 100

    def test_full_probability(self):
        assert er_sequence(50, 1, 5) == [49] * 50

    def test_mean_degree(self):
        total = 0
        for s in range(100):
            total += sum(er_sequence(1000, F(1, 250), derive_seed(4, s)))
        mean = total / (100 * 1000)
        assert 3.8 <= mean <= 4.2

    def test_probability_range(self):
        with pytest.raises(ValidationError):
            er_graph(10, F(3, 2), 0)


class TestRealizeGraph:
    @pytest.mark.parametrize(
        "seq",
        [[3, 3, 3, 3], [2, 2, 2, 2, 2], [4, 4, 2, 2, 2, 2], [1, 1, 0], [5, 3, 3, 3, 2, 2]],
    )
    def test_degrees_preserved(self, seq):
        g = realize_graph(seq, 99)
        assert sorted(g.degree_sequence()) == sorted(seq)

    def test_not_graphical_rejected(self):
        with pytest.raises(NotGraphicalError):
            realize_graph([4, 4, 4, 1, 1], 0)

    def test_deterministic(self):
        a = realize_graph([3, 2, 2, 2, 1], 7)
        b = realize_graph([3, 2, 2, 2, 1], 7)
        assert a.edges == b.edges

    def test_seed_shuffles(self):
        seq = [2] * 8
        variants = {realize_graph(seq, s).edges for s in range(8)}
        assert len(variants) > 1


class TestTorus:
    def test_three_by_three(self):
        g = torus_grid(3, 3)
        assert g.n == 9 and g.degree_sequence() == [4] * 9

    def test_five_by_four(self):
        g = torus_grid(5, 4)
        assert g.n == 20 and len(g.edges) == 40

    def test_dimension_guard(self):
        with pytest.raises(ValidationError):
            torus_grid(2, 5)

    def test_vertex_guard(self, monkeypatch):
        # Refused before any edge is made; at the bound the (stubbed) graph
        # is built.
        def built(n, _edges):
            raise LookupError(n)

        monkeypatch.setattr(netgen, "ConcreteGraph", built)
        rows = VERTEX_GUARD // 4
        with pytest.raises(LookupError):
            torus_grid(rows, 4)
        with pytest.raises(SpaceTooLargeError, match=str(4 * rows + 4)):
            torus_grid(rows + 1, 4)


class TestEdgeGuard:
    def test_boundaries(self, monkeypatch):
        # Each generator refuses one edge past the guard, and makes a graph
        # at it (for G(n, p), the expected count C(n, 2) p is guarded).
        monkeypatch.setattr(netgen, "EDGE_GUARD", 12)
        er_graph(9, F(1, 3), 0)
        with pytest.raises(SpaceTooLargeError, match="12 expected edges, not 13"):
            er_graph(9, F(37, 108), 0)
        with pytest.raises(SpaceTooLargeError, match="not 13"):
            er_sequence(9, F(37, 108), 0)
        assert len(ba_graph(8, 2, 0).edges) == 12 and sum(ba_sequence(8, 2, 0)) == 24
        with pytest.raises(SpaceTooLargeError, match="12 edges, not 14"):
            ba_sequence(9, 2, 0)
        assert len(realize_graph([3] * 8, 0).edges) == 12
        with pytest.raises(SpaceTooLargeError, match="not 15"):
            realize_graph([3] * 10, 0)

    def test_realize_boundary(self, monkeypatch):
        # Realization runs 10 Python edge-swap attempts per edge, so it has
        # its own, lower bound, checked before the sequence is tested (this
        # one is not graphical).
        monkeypatch.setattr(netgen, "REALIZE_EDGE_GUARD", 12)
        assert len(realize_graph([3] * 8, 0).edges) == 12
        with pytest.raises(SpaceTooLargeError, match="realized graphs limited to 12 edges"):
            realize_graph([10, 10, 10] + [0] * 8, 0)


class TestGenSpec:
    def test_family_checked(self):
        with pytest.raises(ValidationError):
            GenSpec("ring", 10, 1)

    def test_vertex_guard(self):
        assert GenSpec("ba", VERTEX_GUARD, 2).n == VERTEX_GUARD
        with pytest.raises(SpaceTooLargeError, match=str(VERTEX_GUARD + 1)):
            GenSpec("ba", VERTEX_GUARD + 1, 2)

    def test_sequence_dispatch_deterministic(self):
        spec = GenSpec("er", 200, F(1, 50), 77)
        assert generate_sequence(spec) == generate_sequence(spec)

    def test_graph_for_sequence_families(self):
        g = generate_graph(GenSpec("constant", 10, 3, 5))
        assert sorted(g.degree_sequence()) == [3] * 10

    def test_every_family_emits_graphical_sequences(self):
        specs = [
            GenSpec("constant", 20, 4, 0),
            GenSpec("powerlaw", 40, 2.5, 1),
            GenSpec("ba", 30, 2, 2),
            GenSpec("er", 30, F(1, 5), 3),
        ]
        for spec in specs:
            assert is_graphical(generate_sequence(spec)), spec.family


REFUSALS = [
    pytest.param(lambda: GenSpec("ba", 0, 2), ValidationError,
                 "n must be at least 1", id="genspec-n-0"),
    pytest.param(lambda: generate_sequence(GenSpec("ba", 10, F(3, 2))), ValidationError,
                 "family 'ba' needs an integer parameter, got 3/2", id="ba-sequence-param-3/2"),
    pytest.param(lambda: generate_graph(GenSpec("ba", 10, F(3, 2))), ValidationError,
                 "family 'ba' needs an integer parameter, got 3/2", id="ba-graph-param-3/2"),
    pytest.param(lambda: powerlaw_sequence(1, 3, 0), ValidationError,
                 "need n >= 2 for a power-law sequence", id="powerlaw-n-1"),
    pytest.param(lambda: er_graph(-1, F(1, 2), 0), ValidationError,
                 "n must be nonnegative", id="er-n-negative"),
]

@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
