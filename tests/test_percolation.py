import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunkbed import percolation
from bunkbed.graphs import Graph, bunkbed, connected_in_subset
from bunkbed.percolation import (
    ConnectivitySpec,
    EnumerationCapError,
    SymmetricWeight,
    Weight,
    WeightParseError,
    atom_probability,
    connection_probability,
    connectivity_distribution,
    connectivity_distributions,
    event_probability,
    format_symmetric_weight,
    format_weight,
    parse_symmetric_weight_file,
    parse_weight_file,
    sum_over_all_atoms,
)

from oracles import naive_event_probability

F = Fraction

P3 = Graph(3, ((0, 1), (1, 2)))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
K2 = Graph(2, ((0, 1),))


def random_graph(rng, n, p=0.5):
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
    return Graph(n, edges)


def random_weight(rng, g, denominator=12):
    return Weight(
        g, tuple(F(rng.randint(0, denominator), denominator) for _ in range(g.edge_count))
    )


class TestWeightTypes:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Weight(K2, (F(3, 2),))
        with pytest.raises(ValueError):
            Weight(K2, ())
        with pytest.raises(ValueError):
            Weight(K2, (F(-1, 2),))

    def test_symmetric_weight_structural(self):
        bb = bunkbed(P3)
        sw = SymmetricWeight(bb, (F(1, 3), F(2, 3)), (F(1, 5), F(1, 7), F(1, 2)))
        w = sw.to_weight()
        for e in range(P3.edge_count):
            assert w.values[bb.minus_edge(e)] == w.values[bb.plus_edge(e)] == sw.base_values[e]
        for x in range(3):
            assert w.values[bb.post_edge(x)] == sw.post_values[x]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ConnectivitySpec(positive=((0, 9),)).validate(P3)
        with pytest.raises(ValueError):
            ConnectivitySpec(positive=((0, 1),), restriction=frozenset({7})).validate(P3)


class TestAtomProbability:
    def test_single_edge(self):
        w = Weight(K2, (F(1, 3),))
        assert atom_probability(w, {0}) == F(1, 3)
        assert atom_probability(w, set()) == F(2, 3)

    def test_two_edges_half(self):
        w = Weight.uniform(P3, F(1, 2))
        assert atom_probability(w, {0}) == F(1, 4)

    def test_deterministic_edge_forces_zero(self):
        w = Weight(P3, (F(1), F(1, 2)))
        assert atom_probability(w, {1}) == 0


class TestEventProbability:
    def test_path_both_edges_needed(self):
        w = Weight.uniform(P3, F(1, 2))
        assert event_probability(w, ConnectivitySpec.connected(0, 2)).value == F(1, 4)

    def test_triangle(self):
        w = Weight.uniform(TRIANGLE, F(1, 2))
        assert event_probability(w, ConnectivitySpec.connected(0, 1)).value == F(5, 8)

    def test_bunkbed_k2_both_layers(self):
        bb = bunkbed(K2)
        w = SymmetricWeight.uniform(bb, F(1, 2)).to_weight()
        assert event_probability(w, ConnectivitySpec.connected(0, 1)).value == F(9, 16)
        assert event_probability(w, ConnectivitySpec.connected(0, 3)).value == F(7, 16)

    def test_negative_constraints(self):
        w = Weight.uniform(P3, F(1, 2))
        spec = ConnectivitySpec(positive=((0, 1),), negative=((0, 2),))
        # first edge open, second closed
        assert event_probability(w, spec).value == F(1, 4)

    def test_matches_naive_oracle_random(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 5))
            w = random_weight(rng, g)
            pos = tuple(
                (rng.randrange(g.vertex_count), rng.randrange(g.vertex_count))
                for _ in range(rng.randint(0, 2))
            )
            neg = tuple(
                (rng.randrange(g.vertex_count), rng.randrange(g.vertex_count))
                for _ in range(rng.randint(0, 1))
            )
            spec = ConnectivitySpec(positive=pos, negative=neg)
            assert event_probability(w, spec).value == naive_event_probability(w, pos, neg)

    def test_restriction_marginalizes(self):
        rng = random.Random(37)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 5))
            if g.edge_count == 0:
                continue
            w = random_weight(rng, g)
            mask = frozenset(e for e in range(g.edge_count) if rng.random() < 0.6)
            x = rng.randrange(g.vertex_count)
            y = rng.randrange(g.vertex_count)
            spec = ConnectivitySpec(positive=((x, y),), restriction=mask)
            got = event_probability(w, spec)
            assert got.atoms_evaluated == 1 << len(mask)
            assert got.value == naive_event_probability(w, ((x, y),), (), restriction=mask)

    def test_report_fields(self):
        w = Weight.uniform(P3, F(1, 2))
        rep = event_probability(w, ConnectivitySpec.connected(0, 2))
        assert rep.method == "brute_force"
        assert rep.atoms_evaluated == 4
        assert rep.elapsed >= 0

    def test_empty_restriction_is_the_single_empty_atom(self):
        w = Weight.uniform(P3, F(1, 2))
        same = ConnectivitySpec(positive=((1, 1),), restriction=frozenset())
        rep = event_probability(w, same)
        assert (rep.value, rep.atoms_evaluated) == (F(1), 1)
        apart = ConnectivitySpec(positive=((0, 2),), restriction=frozenset())
        assert event_probability(w, apart).value == 0

    def test_empty_graph(self):
        g = Graph(0, ())
        w = Weight(g, ())
        assert sum_over_all_atoms(w) == 1
        assert atom_probability(w, set()) == 1

    def test_cap(self):
        g = Graph(8, tuple((i, j) for i in range(8) for j in range(i + 1, 8)))
        w = Weight.uniform(g, F(1, 2))
        with pytest.raises(EnumerationCapError):
            event_probability(w, ConnectivitySpec.connected(0, 1), cap=20)


class TestKernelAgainstOracle:
    def test_kernel_matches_naive_oracle(self):
        # one batch per graph: weights of 0 and 1, small denominators, and
        # common denominators just below and at least 2^62
        rng = random.Random(89)
        graphs = [Graph(3, ()), Graph(1, ())]
        while len(graphs) < 40:
            g = random_graph(rng, rng.randint(1, 6), rng.choice([0.2, 0.5, 0.8]))
            if g.edge_count <= 8:
                graphs.append(g)
        seen = set()
        for g in graphs:
            n, m = g.vertex_count, g.edge_count
            if m == 0:
                seen.add("no edges")
            if any(all(x not in e for e in g.edges) for x in range(n)):
                seen.add("isolated vertex")
            batch = [
                Weight(g, tuple(F(rng.randint(0, 1)) for _ in range(m))),
                random_weight(rng, g),
            ]
            if m:
                below = int(2 ** (62 / m))
                while below**m >= 1 << 62:
                    below -= 1
                while (below + 1) ** m < 1 << 62:
                    below += 1
                for d in (below, below + 1):
                    batch.append(Weight(g, tuple(F(rng.choice([1, d - 1]), d) for _ in range(m))))
            for _ in range(3):
                pos = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2)))
                neg = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2)))
                mask = None
                if rng.random() < 0.5:
                    mask = frozenset(e for e in range(m) if rng.random() < 0.6)
                    seen.add("restriction")
                if any(x != y for x, y in neg):
                    seen.add("negative pair")
                spec = ConnectivitySpec(positive=pos, negative=neg, restriction=mask)
                dists = connectivity_distributions(g, batch, restriction=mask)
                for w, dist in zip(batch, dists):
                    want = naive_event_probability(w, pos, neg, restriction=mask)
                    assert dist.probability(spec) == want
                    assert event_probability(w, spec).value == want
                    if mask is None and m:
                        seen.add("below 2^62" if dist.denominator < 1 << 62 else "at least 2^62")
        assert seen == {
            "no edges", "isolated vertex", "restriction", "negative pair", "below 2^62", "at least 2^62",
        }


def nonzero(dist) -> dict:
    return {lab: num for lab, num in zip(dist.labels, dist.numerators) if num}


def projected(dist, terminals) -> dict:
    """An all-vertex distribution read on `terminals` alone, each terminal
    labelled by the smallest terminal of its component."""
    out: dict = {}
    for lab, num in zip(dist.labels, dist.numerators):
        key = tuple(min(s for s in terminals if lab[s] == lab[t]) for t in terminals)
        out[key] = out.get(key, 0) + num
    return {key: num for key, num in out.items() if num}


class TestTerminalDistributions:
    def test_projection_of_the_all_vertex_distribution(self):
        # weights of 0 and 1, isolated vertices, disconnected graphs,
        # restriction masks, empty and full terminal sets
        rng = random.Random(97)
        seen = set()
        for _ in range(60):
            n = rng.randint(1, 6)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            m = g.edge_count
            if any(all(x not in e for e in g.edges) for x in range(n)):
                seen.add("isolated vertex")
            if not g.is_connected():
                seen.add("disconnected")
            batch = [
                Weight(g, tuple(F(rng.randint(0, 1)) for _ in range(m))),
                random_weight(rng, g),
                random_weight(rng, g, denominator=5),
            ]
            mask = None
            if rng.random() < 0.4:
                mask = frozenset(e for e in range(m) if rng.random() < 0.6)
                seen.add("restriction")
            terminals = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            seen.add(("terminals", len(terminals) == 0, len(terminals) == n))
            whole = connectivity_distributions(g, batch, restriction=mask)
            part = connectivity_distributions(g, batch, restriction=mask, terminals=terminals)
            for w, full, dist in zip(batch, whole, part):
                assert dist.terminals == terminals
                assert dist.denominator == full.denominator
                assert nonzero(dist) == projected(full, terminals)
                assert 1 <= dist.states and dist.width <= n
        assert {"isolated vertex", "disconnected", "restriction"} <= seen
        assert ("terminals", True, False) in seen and ("terminals", False, True) in seen

    def test_bunkbed_events_match_naive_oracle(self):
        # random bases with up to 6 vertices, symmetric weights with posts
        # at 0 and 1 among others, positive and negative pairs
        rng = random.Random(101)
        checked = 0
        while checked < 25:
            base = random_graph(rng, rng.randint(1, 6), rng.choice([0.2, 0.4]))
            bb = bunkbed(base)
            if bb.total.edge_count > 12:
                continue
            sw = SymmetricWeight(
                bb,
                tuple(F(rng.randint(0, 4), 4) for _ in range(base.edge_count)),
                tuple(F(rng.randint(0, 4), 4) for _ in range(base.vertex_count)),
            )
            w = sw.to_weight()
            n2 = bb.total.vertex_count
            pos = tuple((rng.randrange(n2), rng.randrange(n2)) for _ in range(rng.randint(1, 2)))
            neg = tuple((rng.randrange(n2), rng.randrange(n2)) for _ in range(rng.randint(0, 1)))
            mask = None
            if rng.random() < 0.3:
                mask = frozenset(e for e in range(bb.total.edge_count) if rng.random() < 0.7)
            spec = ConnectivitySpec(positive=pos, negative=neg, restriction=mask)
            want = naive_event_probability(w, pos, neg, restriction=mask)
            assert event_probability(w, spec).value == want
            terminals = {x for pair in pos + neg for x in pair}
            dist = connectivity_distribution(w, restriction=mask, terminals=terminals)
            assert dist.probability(spec) == want
            checked += 1

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        edge_bits=st.integers(0, (1 << 15) - 1),
        data=st.data(),
    )
    def test_shuffled_edge_order_gives_the_identical_fraction(self, n, edge_bits, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, tuple(e for k, e in enumerate(pairs) if edge_bits >> k & 1))
        m = g.edge_count
        values = data.draw(st.lists(st.fractions(0, 1, max_denominator=6), min_size=m, max_size=m))
        w = Weight(g, tuple(values))
        terminals = tuple(data.draw(st.sets(st.integers(0, n - 1))))
        order = data.draw(st.permutations(range(m)))
        x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        spec = ConnectivitySpec(positive=((x, y),))
        greedy_dist = connectivity_distribution(w, terminals=terminals)
        greedy = event_probability(w, spec).value
        shuffled = lambda n, edges, terminals: percolation._walk(edges, terminals, order)
        with mock.patch.object(percolation, "_edge_schedule", shuffled):
            dist = connectivity_distribution(w, terminals=terminals)
            value = event_probability(w, spec).value
        assert value == greedy
        assert nonzero(dist) == nonzero(greedy_dist)

    def test_pair_outside_the_terminals_is_refused(self):
        w = Weight.uniform(P3, F(1, 2))
        dist = connectivity_distribution(w, terminals=(0, 2))
        assert dist.connection(0, 2) == F(1, 4)
        with pytest.raises(ValueError, match="not a terminal"):
            dist.probability(ConnectivitySpec.connected(0, 1))
        with pytest.raises(ValueError, match="not a terminal"):
            dist.connection(1, 2)
        with pytest.raises(ValueError):
            connectivity_distribution(w, terminals=(0, 3))

    def test_width_and_states_follow_the_front(self):
        # the bunkbed of a 13-vertex path: 26 vertices, but the sweep holds
        # only the terminals and a rung or two of the ladder at a time
        p13 = Graph(13, tuple((i, i + 1) for i in range(12)))
        w = SymmetricWeight.uniform(bunkbed(p13), F(1, 3)).to_weight()
        dist = connectivity_distribution(w, terminals=(0, 12), cap=38)
        assert (dist.width, dist.states, len(dist.labels)) == (4, 10, 2)
        full = connectivity_distribution(Weight.uniform(TRIANGLE, F(1, 2)))
        assert (full.width, full.states, len(full.labels)) == (3, 5, 5)


class TestConnectionProbability:
    def test_same_vertex(self):
        w = Weight.uniform(P3, F(1, 2))
        assert connection_probability(w, 1, 1) == 1

    def test_single_edge(self):
        for p in (F(0), F(1, 3), F(7, 9), F(1)):
            assert connection_probability(Weight(K2, (p,)), 0, 1) == p

    def test_c4_adjacent_closed_form(self):
        c4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        for p in (F(0), F(1, 4), F(1, 2), F(2, 3), F(1)):
            w = Weight.uniform(c4, p)
            assert connection_probability(w, 0, 1) == p + (1 - p) * p**3
        assert connection_probability(Weight.uniform(c4, F(1, 2)), 0, 1) == F(9, 16)


class TestNormalization:
    def test_single_edge(self):
        assert sum_over_all_atoms(Weight(K2, (F(3, 7),))) == 1

    def test_triangle_third(self):
        assert sum_over_all_atoms(Weight.uniform(TRIANGLE, F(1, 3))) == 1

    def test_random_graphs(self):
        rng = random.Random(43)
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 6))
            if g.edge_count > 12:
                continue
            w = Weight(
                g,
                tuple(
                    F(rng.randint(0, d), d)
                    for d in (rng.randint(1, 64) for _ in range(g.edge_count))
                ),
            )
            assert sum_over_all_atoms(w) == 1


class TestMeasureProperties:
    def test_multilinearity_in_each_edge(self):
        rng = random.Random(47)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 5))
            if g.edge_count == 0:
                continue
            w = random_weight(rng, g)
            e = rng.randrange(g.edge_count)
            t = F(rng.randint(0, 10), 10)
            x, y = rng.randrange(g.vertex_count), rng.randrange(g.vertex_count)
            spec = ConnectivitySpec(
                positive=((x, y),),
                negative=((rng.randrange(g.vertex_count), rng.randrange(g.vertex_count)),)
                if rng.random() < 0.4
                else (),
            )
            p_t = event_probability(w.replace(e, t), spec).value
            p_0 = event_probability(w.replace(e, 0), spec).value
            p_1 = event_probability(w.replace(e, 1), spec).value
            assert p_t == (1 - t) * p_0 + t * p_1

    def test_monotone_in_each_coordinate(self):
        rng = random.Random(53)
        grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 5))
            if g.edge_count == 0:
                continue
            w = random_weight(rng, g)
            x, y = rng.randrange(g.vertex_count), rng.randrange(g.vertex_count)
            spec = ConnectivitySpec(positive=((x, y),))
            e = rng.randrange(g.edge_count)
            values = [event_probability(w.replace(e, t), spec).value for t in grid]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_zero_one_weights_are_deterministic(self):
        rng = random.Random(59)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 6))
            w = Weight(g, tuple(F(rng.randint(0, 1)) for _ in range(g.edge_count)))
            open_set = [e for e in range(g.edge_count) if w.values[e] == 1]
            x, y = rng.randrange(g.vertex_count), rng.randrange(g.vertex_count)
            value = event_probability(w, ConnectivitySpec.connected(x, y)).value
            assert value in (0, 1)
            assert (value == 1) == connected_in_subset(g, open_set, x, y)

    def test_layer_swap_symmetry(self):
        rng = random.Random(61)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 4))
            bb = bunkbed(g)
            sw = SymmetricWeight(
                bb,
                tuple(F(rng.randint(0, 8), 8) for _ in range(g.edge_count)),
                tuple(F(rng.randint(0, 8), 8) for _ in range(g.vertex_count)),
            )
            w = sw.to_weight()
            n = g.vertex_count
            for _ in range(4):
                x, y = rng.randrange(n), rng.randrange(n)
                assert connection_probability(w, x, y) == connection_probability(w, x + n, y + n)
                assert connection_probability(w, x, y + n) == connection_probability(w, x + n, y)


class TestConnectivityDistribution:
    def test_matches_event_probability(self):
        rng = random.Random(67)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 5))
            w = random_weight(rng, g)
            dist = connectivity_distribution(w)
            for _ in range(5):
                x, y = rng.randrange(g.vertex_count), rng.randrange(g.vertex_count)
                z = rng.randrange(g.vertex_count)
                spec = ConnectivitySpec(positive=((x, y), (x, z)))
                assert dist.probability(spec) == event_probability(w, spec).value
                assert dist.connection(x, y) == connection_probability(w, x, y)

    def test_batch_equals_single(self):
        rng = random.Random(71)
        g = random_graph(rng, 5, 0.6)
        ws = [random_weight(rng, g) for _ in range(6)]
        batch = connectivity_distributions(g, ws)
        for w, d in zip(ws, batch):
            single = connectivity_distribution(w)
            for x in range(g.vertex_count):
                for y in range(x + 1, g.vertex_count):
                    assert d.connection(x, y) == single.connection(x, y)

    def test_total_mass_is_one(self):
        rng = random.Random(73)
        g = random_graph(rng, 4, 0.7)
        w = random_weight(rng, g)
        dist = connectivity_distribution(w)
        assert sum(dist.numerators) == dist.denominator

    def test_restriction(self):
        rng = random.Random(79)
        g = random_graph(rng, 5, 0.7)
        w = random_weight(rng, g)
        mask = frozenset(range(0, g.edge_count, 2))
        dist = connectivity_distribution(w, restriction=mask)
        for x in range(g.vertex_count):
            for y in range(x + 1, g.vertex_count):
                spec = ConnectivitySpec(positive=((x, y),), restriction=mask)
                assert dist.connection(x, y) == event_probability(w, spec).value


class TestWeightFiles:
    def test_plain_round_trip(self):
        rng = random.Random(83)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 6))
            w = random_weight(rng, g, denominator=rng.randint(1, 60))
            text = format_weight(w)
            assert parse_weight_file(text, g) == w

    def test_default_fills_unspecified(self):
        w = parse_weight_file("default 1/3\nw 0 1 1/2\n", P3)
        assert w.values == (F(1, 2), F(1, 3))

    def test_symmetric_round_trip(self):
        bb = bunkbed(P3)
        sw = SymmetricWeight(bb, (F(1, 3), F(5, 8)), (F(0), F(1), F(1, 2)))
        text = format_symmetric_weight(sw)
        assert parse_symmetric_weight_file(text, bb) == sw

    def test_symmetric_default(self):
        bb = bunkbed(K2)
        sw = parse_symmetric_weight_file("default 1/2\n", bb)
        assert sw.base_values == (F(1, 2),)
        assert sw.post_values == (F(1, 2), F(1, 2))

    def test_errors(self):
        with pytest.raises(WeightParseError):
            parse_weight_file("w 0 1 1/2\n", P3)  # edge (1,2) uncovered
        with pytest.raises(WeightParseError):
            parse_weight_file("default 1/2\nw 0 2 1/2\n", P3)  # unknown edge
        with pytest.raises(WeightParseError):
            parse_weight_file("default 1/2\npost 0 1/2\n", P3)  # post on plain graph
        with pytest.raises(WeightParseError):
            parse_weight_file("default 3/2\n", P3)  # out of range
        with pytest.raises(WeightParseError):
            parse_weight_file("default 1/2\nw 0 1 x\n", P3)
        with pytest.raises(WeightParseError):
            parse_weight_file("w 0 1 1/2\nw 1 0 1/2\ndefault 0\n", P3)  # duplicate
