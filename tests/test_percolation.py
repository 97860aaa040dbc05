import itertools
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

from oracles import (
    BunkbedGridOracle,
    frontier_counts,
    naive_event_probability,
    naive_terminal_distribution,
)

F = Fraction

P3 = Graph(3, ((0, 1), (1, 2)))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
K2 = Graph(2, ((0, 1),))


def cycle(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


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

    def test_state_cap(self, monkeypatch):
        # a level of the kernel's table may hold STATE_CAP entries, not one more
        w = SymmetricWeight.uniform(bunkbed(cycle(6)), F(1, 3)).to_weight()
        spec = ConnectivitySpec.connected(0, 9)
        peak = connectivity_distribution(w, terminals=(0, 9)).states
        monkeypatch.setattr(percolation, "STATE_CAP", peak)
        assert event_probability(w, spec).value == naive_event_probability(w, ((0, 9),), ())
        monkeypatch.setattr(percolation, "STATE_CAP", peak - 1)
        message = f"over {peak} states exceeds the cap of {peak - 1}"
        with pytest.raises(EnumerationCapError, match=message):
            event_probability(w, spec)

    def test_state_cap_while_compiling(self, monkeypatch):
        # as above, with the plan cache cleared first: the guard stops the
        # walk that compiles the plan, not the replay of a cached one
        w = SymmetricWeight.uniform(bunkbed(cycle(6)), F(1, 3)).to_weight()
        spec = ConnectivitySpec.connected(0, 9)
        want = event_probability(w, spec).value
        peak = connectivity_distribution(w, terminals=(0, 9)).states
        monkeypatch.setattr(percolation, "STATE_CAP", peak)
        percolation._cached_plan.cache_clear()
        assert event_probability(w, spec).value == want
        monkeypatch.setattr(percolation, "STATE_CAP", peak - 1)
        percolation._cached_plan.cache_clear()
        message = f"over {peak} states exceeds the cap of {peak - 1}"
        with pytest.raises(EnumerationCapError, match=message):
            event_probability(w, spec)
        info = percolation._cached_plan.cache_info()
        assert (info.currsize, info.hits, info.misses) == (0, 0, 1)

    def test_state_cap_on_the_orbit_walk(self, monkeypatch):
        # both copies of 0 and 3 are swap-closed terminals: the walk runs
        # over orbits of the layer swap, and the guard counts orbits
        w = SymmetricWeight.uniform(bunkbed(cycle(6)), F(1, 3)).to_weight()
        terminals = (0, 3, 6, 9)
        want = naive_event_probability(w, ((0, 9),), ())
        assert percolation._walks(12, w.graph.edges, terminals).swap is not None
        percolation._cached_plan.cache_clear()
        peak = connectivity_distribution(w, terminals=terminals).states
        message = f"over {peak} states exceeds the cap of {peak - 1}"
        # the plan compiled under the full cap is kept and replayed
        monkeypatch.setattr(percolation, "STATE_CAP", peak)
        assert connectivity_distribution(w, terminals=terminals).connection(0, 9) == want
        monkeypatch.setattr(percolation, "STATE_CAP", peak - 1)
        with pytest.raises(EnumerationCapError, match=message):
            connectivity_distribution(w, terminals=terminals)
        info = percolation._cached_plan.cache_info()
        assert (info.currsize, info.hits, info.misses) == (1, 2, 1)
        # a cold compile
        percolation._cached_plan.cache_clear()
        with pytest.raises(EnumerationCapError, match=message):
            connectivity_distribution(w, terminals=terminals)
        info = percolation._cached_plan.cache_info()
        assert (info.currsize, info.hits, info.misses) == (0, 0, 1)
        monkeypatch.setattr(percolation, "STATE_CAP", peak)
        assert connectivity_distribution(w, terminals=terminals).connection(0, 9) == want


def swap_image(g: Graph, edge: tuple[int, int]) -> tuple[int, int]:
    """The edge's image under the layer swap x -> (x + n/2) mod n."""
    h = g.vertex_count // 2
    return tuple(sorted((x + h) % g.vertex_count for x in edge))


def swap_symmetric(g: Graph, weights, terminals) -> bool:
    """Whether the layer swap maps the graph, with every post (x, x + n/2),
    the terminals and each weight to themselves."""
    n, h = g.vertex_count, g.vertex_count // 2
    index = {e: k for k, e in enumerate(g.edges)}
    return (
        n > 0 and n % 2 == 0
        and all((x, x + h) in index for x in range(h))
        and all(swap_image(g, e) in index for e in g.edges)
        and {(t + h) % n for t in terminals} == set(terminals)
        and all(
            w.values[k] == w.values[index[swap_image(g, e)]]
            for w in weights
            for k, e in enumerate(g.edges)
        )
    )


def partition_masses(dist) -> dict:
    """The distribution as {partition of the terminals into blocks: mass},
    partitions of mass 0 left out."""
    got = {}
    for lab, num in zip(dist.labels, dist.numerators):
        if num:
            blocks = frozenset(
                frozenset(t for k, t in enumerate(dist.terminals) if lab[k] == root) for root in lab
            )
            got[blocks] = got.get(blocks, 0) + F(num, dist.denominator)
    return got


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

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 6), data=st.data())
    def test_distribution_states_and_width_match_the_oracles(self, n, data):
        # 1-3 weight columns valued in {0, 1/3, 1/2, 1}, so a batch's
        # columns may take different branches of one edge; at most 10
        # edges, since the oracles list every edge subset
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = []
        if pairs:
            edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
        g = Graph(n, tuple(edges))
        m = g.edge_count
        value = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)])
        weights = [
            Weight(g, tuple(data.draw(st.lists(value, min_size=m, max_size=m))))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        terminals = tuple(sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))))
        dists = connectivity_distributions(g, weights, terminals=terminals)
        # a draw the layer swap maps to itself (n = 2 with its post, say)
        # is walked over the swap's orbits where that schedule is no wider
        swap = 0
        if swap_symmetric(g, weights, terminals) and percolation._walks(n, g.edges, terminals).swap:
            swap = n // 2
            order = percolation._walks(n, g.edges, terminals).swap.order
        else:
            order = percolation._walks(n, g.edges, terminals).ordinary.order
        branches = [
            (any(w.values[k] > 0 for w in weights), any(w.values[k] < 1 for w in weights))
            for k in order
        ]
        width, states = frontier_counts(n, [g.edges[k] for k in order], terminals, branches, swap)
        for w, dist in zip(weights, dists):
            assert (dist.width, dist.states) == (width, states)
            assert partition_masses(dist) == naive_terminal_distribution(w, terminals)


class TestSwapWalk:
    """A walk the layer swap maps to itself keeps one partition per orbit of
    the swap; every other input takes the ordinary walk."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), data=st.data())
    def test_swap_walk_matches_the_naive_oracle(self, n, data):
        # bunkbeds of bases on at most 4 vertices and 4 edges, 1-3
        # symmetric columns valued in {0, 1/3, 1/2, 1}, terminals both
        # copies of a random set of base vertices
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = []
        if pairs:
            edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))
        bb = bunkbed(Graph(n, tuple(edges)))
        value = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)])
        weights = [
            SymmetricWeight(
                bb,
                tuple(data.draw(st.lists(value, min_size=len(edges), max_size=len(edges)))),
                tuple(data.draw(st.lists(value, min_size=n, max_size=n))),
            ).to_weight()
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        lower = data.draw(st.sets(st.integers(0, n - 1)) | st.just(set(range(n))))
        terminals = tuple(sorted(lower | {x + n for x in lower}))
        assert swap_symmetric(bb.total, weights, terminals)
        dists = connectivity_distributions(bb.total, weights, terminals=terminals)
        for w, dist in zip(weights, dists):
            assert dist.terminals == terminals
            assert partition_masses(dist) == naive_terminal_distribution(w, terminals)

    def test_symmetric_inputs_walk_the_orbits(self):
        # the table holds orbits, the oracle's count of them, and callers
        # still get every partition of the terminals
        cases = [
            (bunkbed(cycle(4)), (0, 2, 4, 6), 57),
            (bunkbed(cycle(4)), tuple(range(8)), 516),
            (bunkbed(P3), (0, 3), 10),
            (bunkbed(TRIANGLE), tuple(range(6)), 68),
        ]
        for bb, terminals, orbits in cases:
            g = bb.total
            n, h = g.vertex_count, g.vertex_count // 2
            w = SymmetricWeight(
                bb,
                tuple(F(k + 1, k + 3) for k in range(bb.base.edge_count)),
                tuple(F(1, k + 2) for k in range(bb.base.vertex_count)),
            ).to_weight()
            dist = connectivity_distribution(w, terminals=terminals)
            order = percolation._walks(n, g.edges, terminals).swap.order
            walk = [g.edges[k] for k in order]
            width, states = frontier_counts(n, walk, terminals, [(True, True)] * len(walk), h)
            assert (dist.width, dist.states) == (width, states)
            assert states == orbits
            assert partition_masses(dist) == naive_terminal_distribution(w, terminals)
            if len(terminals) == n:  # nothing is forgotten: the last table is the largest
                assert dist.states < len(dist.labels) < 2 * dist.states

    def test_fallbacks_keep_the_ordinary_walk(self):
        # each input breaks one condition of the swap walk: the values and
        # states are those of the ordinary walk, pinned
        c4 = bunkbed(cycle(4))
        g = c4.total
        sym = SymmetricWeight(
            c4, (F(1, 3), F(1, 2), F(2, 3), F(1, 4)), (F(1, 2), F(1, 3), F(3, 4), F(1, 5))
        ).to_weight()
        alone = connectivity_distribution(sym, terminals=(0, 2, 4, 6))
        assert alone.states == 57
        # a batch with one asymmetric column
        asym = sym.replace(c4.plus_edge(0), F(1, 7))
        dists = connectivity_distributions(g, [sym, asym], terminals=(0, 2, 4, 6))
        assert [d.states for d in dists] == [138, 138]
        assert [d.connection(0, 6) for d in dists] == [F(959, 2430), F(6607, 18144)]
        assert [d.connection(0, 2) for d in dists] == [F(1813, 4320), F(1993, 5040)]
        assert dists[0].connection(0, 6) == alone.connection(0, 6)
        # a restriction that drops one copy of a base edge
        mask = frozenset(range(g.edge_count)) - {c4.plus_edge(0)}
        dist = connectivity_distribution(sym, restriction=mask, terminals=(0, 2, 4, 6))
        assert dist.states == 111
        assert (dist.connection(0, 6), dist.connection(0, 2)) == (F(5897, 17280), F(2173, 5760))
        # terminals 0- and 3+ on C6
        w6 = SymmetricWeight.uniform(bunkbed(cycle(6)), F(1, 3)).to_weight()
        dist = connectivity_distribution(w6, terminals=(0, 9))
        assert (dist.states, dist.width) == (84, 6)
        assert dist.connection(0, 9) == F(453497, 4782969)
        assert event_probability(w6, ConnectivitySpec.connected(0, 9)).value == F(453497, 4782969)
        # every post, but the image (3, 4) of (0, 1) is missing
        odd = Graph(6, ((0, 1), (1, 2), (4, 5), (0, 3), (1, 4), (2, 5)))
        dist = connectivity_distribution(Weight.uniform(odd, F(1, 2)), terminals=(0, 1, 3, 4))
        assert (dist.states, dist.width) == (48, 6)
        assert (dist.connection(0, 4), dist.connection(1, 3)) == (F(9, 32), F(1, 4))


class TestKernelEdges:
    """Inputs at the edges of the kernel, each pinned to its value."""

    def test_no_weights(self):
        assert connectivity_distributions(P3, []) == []
        assert connectivity_distributions(P3, [], terminals=(0, 2)) == []

    def test_edgeless_and_empty_graphs(self):
        three = Weight(Graph(3, ()), ())
        dist = connectivity_distribution(three, terminals=(0, 2))
        assert (dist.labels, dist.numerators, dist.denominator) == ([(0, 2)], [1], 1)
        assert (dist.width, dist.states) == (0, 1)
        assert event_probability(three, ConnectivitySpec.connected(0, 2)).value == 0
        assert event_probability(three, ConnectivitySpec.connected(1, 1)).value == 1
        empty = Weight(Graph(0, ()), ())
        dist = connectivity_distribution(empty)
        assert (dist.labels, dist.numerators, dist.denominator) == ([()], [1], 1)
        assert event_probability(empty, ConnectivitySpec()).value == 1

    def test_all_zero_and_all_one_weights(self):
        g = cycle(5)
        closed = connectivity_distribution(Weight.uniform(g, 0))
        assert (closed.labels, closed.numerators, closed.states) == ([(0, 1, 2, 3, 4)], [1], 1)
        opened = connectivity_distribution(Weight.uniform(g, 1))
        assert (opened.labels, opened.numerators, opened.states) == ([(0, 0, 0, 0, 0)], [1], 1)
        for p, want in ((0, 0), (1, 1)):
            spec = ConnectivitySpec.connected(0, 2)
            assert event_probability(Weight.uniform(g, p), spec).value == want

    def test_a_batch_whose_columns_take_different_branches(self):
        # edge 0 is 0 in one column and 1 in the other: both branches are
        # walked, and each column keeps only the partitions it reaches
        closed = Weight(P3, (F(0), F(1, 2)))
        opened = Weight(P3, (F(1), F(1, 2)))
        first, second = connectivity_distributions(P3, [closed, opened])
        assert first.labels is second.labels
        assert dict(zip(first.labels, first.numerators)) == {
            (0, 1, 1): 1, (0, 1, 2): 1, (0, 0, 0): 0, (0, 0, 2): 0,
        }
        assert dict(zip(second.labels, second.numerators)) == {
            (0, 1, 1): 0, (0, 1, 2): 0, (0, 0, 0): 1, (0, 0, 2): 1,
        }
        assert first.states == second.states == 4
        assert (first.connection(0, 2), second.connection(0, 2)) == (0, F(1, 2))

    def test_empty_negative_only_and_same_vertex_specs(self):
        w = Weight.uniform(TRIANGLE, F(1, 3))
        assert event_probability(w, ConnectivitySpec()).value == 1
        apart = ConnectivitySpec(negative=((0, 1),))
        assert event_probability(w, apart).value == naive_event_probability(w, (), ((0, 1),))
        assert event_probability(w, apart).value == F(2, 3) * F(8, 9)
        assert event_probability(w, ConnectivitySpec.connected(2, 2)).value == 1
        assert event_probability(w, ConnectivitySpec(negative=((2, 2),))).value == 0

    def test_labels_past_chr_255(self):
        # a path on 300 vertices: the kernel names vertices by chr, so its
        # labels reach past chr(255); the closed form is a product of edges
        n = 300
        w = Weight.uniform(Graph(n, tuple((i, i + 1) for i in range(n - 1))), F(1, 2))
        dist = connectivity_distribution(w, terminals=(0, 260, 299), cap=n)
        near, far = F(1, 2**260), F(1, 2**39)
        assert dict(zip(dist.labels, (F(x, dist.denominator) for x in dist.numerators))) == {
            (0, 260, 299): (1 - near) * (1 - far),
            (0, 0, 299): near * (1 - far),
            (0, 260, 260): (1 - near) * far,
            (0, 0, 0): near * far,
        }
        spec = ConnectivitySpec.connected(0, 299)
        assert event_probability(w, spec, cap=n).value == near * far


class TestCompiledWalk:
    """The kernel compiles a walk once per graph, terminals, schedule and
    branch pattern, and replays the compiled plan per weight."""

    def test_a_cached_plan_replays_a_new_batch(self):
        # the grid of symmetric weights on the triangle's bunkbed, in two
        # batches: the second replays the plan the first compiled
        grid = (F(1, 3), F(1, 2), F(3, 4))
        oracle = BunkbedGridOracle(TRIANGLE, grid)
        bb = oracle.bb
        x, same, cross = bb.minus_vertex(0), bb.minus_vertex(2), bb.plus_vertex(2)
        tensors = {y: oracle.event_tensor([(x, y)]) for y in (same, cross)}
        points = list(itertools.product(range(len(grid)), repeat=6))
        weights = [oracle.weight_at(point).to_weight() for point in points]
        percolation._cached_plan.cache_clear()
        half = len(points) // 2
        dists = connectivity_distributions(bb.total, weights[:half])
        compiled = percolation._cached_plan.cache_info()
        dists += connectivity_distributions(bb.total, weights[half:])
        replayed = percolation._cached_plan.cache_info()
        assert (compiled.misses, replayed.misses, replayed.hits - compiled.hits) == (1, 1, 1)
        for point, dist in zip(points, dists):
            for y, tensor in tensors.items():
                assert dist.connection(x, y) == oracle.value_at(tensor, point)

    def test_each_branch_pattern_has_its_own_plan(self):
        # one schedule, batches that differ only in which branches some
        # weight can take: edge 0 at 0 or at 1 in a whole batch prunes a
        # branch; at 0 in one weight only does not.  In either order of the
        # batches, each gives the naive values and the states of a fresh walk.
        rng = random.Random(107)
        g = bunkbed(cycle(4)).total
        terminals, spec = (0, 6), ConnectivitySpec.connected(0, 6)

        def batch(first=None):
            out = [Weight(g, tuple(F(rng.randint(1, 6), 7) for _ in g.edges)) for _ in range(3)]
            if first is not None:
                out = [w.replace(0, first) for w in out]
            return out

        # the last two generic weights have common denominators below and at
        # least 2^62 (35^12 < 2^62 <= 37^12)
        generic = batch() + [Weight.uniform(g, F(2, 35)), Weight.uniform(g, F(3, 37))]
        batches = {
            "generic": generic,
            "closed": batch(0),
            "open": batch(1),
            "one closed": batch() + [generic[0].replace(0, 0)],
        }
        want = {
            id(w): naive_event_probability(w, spec.positive) for b in batches.values() for w in b
        }
        fresh = {}
        for name, ws in batches.items():
            percolation._cached_plan.cache_clear()
            fresh[name] = connectivity_distributions(g, ws, terminals=terminals)[0].states
        assert fresh["closed"] < fresh["generic"] and fresh["open"] < fresh["generic"]
        for order in (list(batches), list(reversed(batches))):
            percolation._cached_plan.cache_clear()
            for name in order:
                dists = connectivity_distributions(g, batches[name], terminals=terminals)
                assert [d.states for d in dists] == [fresh[name]] * len(dists)
                for w, dist in zip(batches[name], dists):
                    assert dist.probability(spec) == want[id(w)]
                if name == "generic":
                    assert dists[3].denominator < 1 << 62 <= dists[4].denominator
            assert percolation._cached_plan.cache_info().currsize == 3

    def test_a_batch_of_zero_weights(self):
        # only closed branches are walked: one partition, every vertex alone
        g = bunkbed(cycle(4)).total
        zero = Weight.uniform(g, 0)
        for dist in connectivity_distributions(g, [zero, zero]):
            assert (dist.labels, dist.numerators, dist.denominator) == ([tuple(range(8))], [1], 1)
            assert dist.states == 1
            assert dist.connection(0, 6) == naive_event_probability(zero, ((0, 6),)) == 0

    def test_returned_labels_are_fresh(self):
        w = Weight.uniform(cycle(4), F(1, 3))
        first = connectivity_distribution(w)
        second = connectivity_distribution(w)
        assert first.labels == second.labels and first.labels is not second.labels
        first.labels.clear()
        assert connectivity_distribution(w).labels == second.labels

    def test_distinct_small_plans_are_compiled_once(self):
        # 400 plans, more than the 256 an older cache held: cycling them
        # twice compiles each once
        plans = 400
        graphs = [Graph(k + 2, ((0, 1),)) for k in range(plans)]
        percolation._cached_plan.cache_clear()
        with mock.patch.object(percolation, "_compile", wraps=percolation._compile) as compile_:
            for _ in range(2):
                for g in graphs:
                    dist = connectivity_distribution(Weight.uniform(g, F(1, 3)), terminals=(0, 1))
                    assert dist.connection(0, 1) == F(1, 3)
        assert compile_.call_count == plans
        assert percolation._cached_plan.cache_info().currsize == plans

    def test_a_plan_past_the_retain_bound_is_replayed_and_dropped(self, monkeypatch):
        # the C6 event's plan holds far more index entries than its peak
        # of states: with STATE_CAP at that peak it is walked, not kept
        w = SymmetricWeight.uniform(bunkbed(cycle(6)), F(1, 3)).to_weight()
        dist = connectivity_distribution(w, terminals=(0, 9))
        want, peak = dist.connection(0, 9), dist.states
        percolation._cached_plan.cache_clear()
        monkeypatch.setattr(percolation, "STATE_CAP", peak)
        for _ in range(2):
            assert connectivity_distribution(w, terminals=(0, 9)).connection(0, 9) == want
            assert event_probability(w, ConnectivitySpec.connected(0, 9)).value == want
        info = percolation._cached_plan.cache_info()
        assert (info.currsize, info.hits, info.misses) == (0, 0, 4)

    def test_plan_sizes_are_pinned(self, monkeypatch):
        # the plans of two swap walks and two ordinary ones under weights of
        # 1/3: walk, peak states, width, then the lengths of the index runs,
        # of the step records and of the final labels
        k4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        cases = [
            (cycle(6), None, "swap", 24_501, 12, 81_199, 120, 48_284),
            (cycle(4), (0, 2, 4, 6), "swap", 57, 6, 463, 80, 15),
            (cycle(6), (0, 9), "ordinary", 84, 6, 760, 126, 2),
            (k4, (0, 1, 4, 5), "ordinary", 432, 7, 3_861, 112, 15),
        ]
        compile_, plans = percolation._compile, []

        def recording(*args):
            plans.append(compile_(*args))
            return plans[-1]

        monkeypatch.setattr(percolation, "_compile", recording)
        for base, terminals, *want in cases:
            percolation._cached_plan.cache_clear()
            plans.clear()
            connectivity_distribution(Weight.uniform(bunkbed(base).total, F(1, 3)), terminals=terminals)
            (plan,) = plans
            got = [
                "swap" if plan.expand else "ordinary", plan.states, plan.width,
                len(plan.indices), len(plan.steps), len(plan.labels),
            ]
            assert got == want


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
        shuffled = lambda n, edges, terminals: percolation._Walks(
            percolation._walk(edges, terminals, order), None, None
        )
        # the plan cache is keyed by graph, terminals and branches, not by
        # the order: clear it so the shuffled order is compiled, and again
        # so its plans do not outlive the patch
        percolation._cached_plan.cache_clear()
        with mock.patch.object(percolation, "_walks", shuffled):
            dist = connectivity_distribution(w, terminals=terminals)
            value = event_probability(w, spec).value
        percolation._cached_plan.cache_clear()
        assert value == greedy
        assert nonzero(dist) == nonzero(greedy_dist)

    def test_every_candidate_order_walks_each_edge_once(self):
        # random graphs with isolated vertices, several components and
        # restriction masks; bunkbed totals whole (the layer-paired order is
        # a candidate) and with one post masked out (it is not)
        rng = random.Random(103)
        seen = set()
        cases = []
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.5]))
            edges = range(g.edge_count)
            if rng.random() < 0.4:
                edges = [e for e in edges if rng.random() < 0.6]
                seen.add("restriction")
            if any(all(x not in e for e in g.edges) for x in range(g.vertex_count)):
                seen.add("isolated vertex")
            if len(g.components()) > 1:
                seen.add("several components")
            cases.append((g, edges))
        for _ in range(20):
            bb = bunkbed(random_graph(rng, rng.randint(1, 5)))
            cases.append((bb.total, range(bb.total.edge_count)))
            post = bb.post_edge(rng.randrange(bb.base.vertex_count))
            cases.append((bb.total, [e for e in range(bb.total.edge_count) if e != post]))
        paired_seen = set()
        for g, edges in cases:
            n, pairs = g.vertex_count, tuple(g.edges[e] for e in edges)
            terminals = tuple(sorted(rng.sample(range(n), rng.randint(0, min(n, 4)))))
            orders = percolation._candidate_orders(n, pairs, terminals)
            paired = n % 2 == 0 and all((x, x + n // 2) in pairs for x in range(n // 2))
            paired_seen.add(paired)
            assert len(orders) == (2 if paired else 1)
            for order in orders:
                assert sorted(order) == list(range(len(pairs)))
            greedy = percolation._walk(pairs, terminals, orders[0])
            assert percolation._walks(n, pairs, terminals).ordinary.width <= greedy.width
        assert seen == {"restriction", "isolated vertex", "several components"}
        assert paired_seen == {True, False}

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

    def test_same_vertex_outside_the_terminals_is_refused(self):
        # connection(x, x) is 1 only for a terminal, as probability reads it
        dist = connectivity_distribution(Weight.uniform(P3, F(1, 2)), terminals=(0, 2))
        assert dist.connection(0, 0) == dist.connection(2, 2) == 1
        for x in (1, 99):
            with pytest.raises(ValueError):
                dist.connection(x, x)
        with pytest.raises(ValueError, match="not a terminal"):
            dist.connection(1, 1)

    def test_width_and_states_follow_the_front(self):
        # the bunkbed of a 13-vertex path: 26 vertices, but the sweep holds
        # only the terminals and a rung or two of the ladder at a time
        p13 = Graph(13, tuple((i, i + 1) for i in range(12)))
        w = SymmetricWeight.uniform(bunkbed(p13), F(1, 3)).to_weight()
        dist = connectivity_distribution(w, terminals=(0, 12), cap=38)
        assert (dist.width, dist.states, len(dist.labels)) == (4, 10, 2)
        full = connectivity_distribution(Weight.uniform(TRIANGLE, F(1, 2)))
        assert (full.width, full.states, len(full.labels)) == (3, 5, 5)
        # a cycle's bunkbed is swept as a ladder, both copies of each base
        # vertex together; the greedy order walks the whole lower layer
        # first (C6: width 8, 360 states; C12: width 14, 26,508 states)
        c6 = SymmetricWeight.uniform(bunkbed(cycle(6)), F(1, 3)).to_weight()
        dist = connectivity_distribution(c6, terminals=(0, 9))
        assert dist.width <= 6 and dist.states <= 84
        c12 = SymmetricWeight.uniform(bunkbed(cycle(12)), F(1, 3)).to_weight()
        dist = connectivity_distribution(c12, terminals=(0, 6, 12, 18), cap=36)
        assert dist.width <= 7 and dist.states <= 270


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
