import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunkbed.checker import (
    BoundExceededError,
    BunkbedDelta,
    WeightSource,
    _free_tree_count,
    bunkbed_delta,
    check_graph,
    enumerate_trees,
    load_violation,
    recheck_violation,
    save_violation,
    search_candidates,
    tree_canonical_form,
)
from bunkbed.graphs import Graph, bunkbed, glue
from bunkbed.percolation import EnumerationCapError, SymmetricWeight, Weight, connection_probability
from bunkbed.reduction import layer_probabilities, two_point_probability

F = Fraction

K2 = Graph(2, ((0, 1),))
P3 = Graph(3, ((0, 1), (1, 2)))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
K4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))


class TestBunkbedDelta:
    def test_k2_half(self):
        sw = SymmetricWeight.uniform(bunkbed(K2), F(1, 2))
        d = bunkbed_delta(K2, sw, 0, 1)
        assert d.same_layer == F(9, 16)
        assert d.cross_layer == F(7, 16)
        assert d.delta == F(1, 8)

    def test_diagonal(self):
        bb = bunkbed(P3)
        rng = random.Random(1)
        sw = SymmetricWeight(
            bb,
            tuple(F(rng.randint(0, 8), 8) for _ in range(2)),
            tuple(F(rng.randint(0, 8), 8) for _ in range(3)),
        )
        d = bunkbed_delta(P3, sw, 1, 1)
        assert d.same_layer == 1
        assert d.delta == 1 - connection_probability(sw.to_weight(), 1, 4)
        assert d.delta >= 0

    def test_zero_posts_disconnect_layers(self):
        bb = bunkbed(P3)
        sw = SymmetricWeight(bb, (F(1, 2), F(1, 2)), (F(0), F(0), F(0)))
        d = bunkbed_delta(P3, sw, 0, 2)
        assert d.cross_layer == 0
        assert d.delta == d.same_layer

    def test_delta_symmetry(self):
        rng = random.Random(2)
        for g in (P3, TRIANGLE, C4):
            bb = bunkbed(g)
            sw = SymmetricWeight(
                bb,
                tuple(F(rng.randint(0, 4), 4) for _ in range(g.edge_count)),
                tuple(F(rng.randint(0, 4), 4) for _ in range(g.vertex_count)),
            )
            for x in range(g.vertex_count):
                for y in range(x + 1, g.vertex_count):
                    assert bunkbed_delta(g, sw, x, y).delta == bunkbed_delta(g, sw, y, x).delta

    def test_all_weights_one_connected_pair(self):
        sw = SymmetricWeight.uniform(bunkbed(P3), F(1))
        d = bunkbed_delta(P3, sw, 0, 2)
        assert d.same_layer == d.cross_layer == 1
        assert d.delta == 0

    def test_invariant_enforced(self):
        sw = SymmetricWeight.uniform(bunkbed(K2), F(1, 2))
        with pytest.raises(ValueError):
            BunkbedDelta(K2, sw, 0, 1, F(1, 2), F(1, 4), F(1, 8))


C5 = Graph(5, tuple((i, (i + 1) % 5) for i in range(5)))
K4_CHAIN_2 = Graph(7, K4.edges + tuple((u + 3, v + 3) for u, v in K4.edges))
# K2 beside P3, and K2 beside an isolated vertex: pairs in two components
TWO_COMPONENTS = Graph(5, ((0, 1), (2, 3), (3, 4)))
ISOLATED = Graph(3, ((0, 1),))
# 0 and 1 among the values: closed and sure edges reach the kernel
LAYER_VALUES = (F(0), F(1, 3), F(1, 2), F(3, 4), F(1))


def _layer_weights(base, seed, count=3):
    """Random symmetric weights and asymmetric weights on the bunkbed,
    valued in LAYER_VALUES."""
    rng = random.Random(seed)
    bb = bunkbed(base)
    pick = lambda k: tuple(rng.choice(LAYER_VALUES) for _ in range(k))
    sym = [SymmetricWeight(bb, pick(base.edge_count), pick(base.vertex_count)) for _ in range(count)]
    plain = [Weight(bb.total, pick(bb.total.edge_count)) for _ in range(count)]
    return sym + plain


def _two_solves(base, w, x, y):
    n = base.vertex_count
    return (
        two_point_probability(base, w, x, y).value,
        two_point_probability(base, w, x, y + n).value,
    )


class TestLayerProbabilities:
    @pytest.mark.parametrize(
        "base",
        [*enumerate_trees(5), C4, C5, K4, K4_CHAIN_2, TWO_COMPONENTS, ISOLATED],
        ids=["tree5-0", "tree5-1", "tree5-2", "C4", "C5", "K4", "K4-chain-x2", "two-components", "isolated"],
    )
    def test_equals_two_point_probability_on_every_pair(self, base):
        n = base.vertex_count
        for i, w in enumerate(_layer_weights(base, seed=n * 31 + base.edge_count)):
            for x in range(n):
                for y in range(n):
                    assert layer_probabilities(base, w, x, y) == _two_solves(base, w, x, y), (i, x, y)

    def test_pairs_across_and_within_components(self):
        w = SymmetricWeight.uniform(bunkbed(TWO_COMPONENTS), F(1))
        assert layer_probabilities(TWO_COMPONENTS, w, 1, 4) == (0, 0)
        assert layer_probabilities(TWO_COMPONENTS, w, 4, 2) == (1, 1)
        assert layer_probabilities(ISOLATED, SymmetricWeight.uniform(bunkbed(ISOLATED), F(1, 2)), 2, 2) == (1, F(1, 2))

    def test_matches_the_grid_oracle(self):
        from oracles import BunkbedGridOracle

        oracle = BunkbedGridOracle(P3, (0, F(1, 2), 1))
        bb = oracle.bb
        for x in range(3):
            for y in range(3):
                same = oracle.event_tensor([(bb.minus_vertex(x), bb.minus_vertex(y))])
                cross = oracle.event_tensor([(bb.minus_vertex(x), bb.plus_vertex(y))])
                for point in itertools.product(range(3), repeat=5):
                    got = layer_probabilities(P3, oracle.weight_at(point), x, y)
                    assert got == (oracle.value_at(same, point), oracle.value_at(cross, point)), (x, y, point)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), edge_bits=st.integers(0, (1 << 10) - 1), data=st.data())
    def test_random_graphs(self, n, edge_bits, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        base = Graph(n, tuple(e for k, e in enumerate(pairs) if edge_bits >> k & 1))
        value = st.sampled_from(LAYER_VALUES)
        bb = bunkbed(base)
        if data.draw(st.booleans()):
            w = SymmetricWeight(
                bb,
                tuple(data.draw(st.lists(value, min_size=base.edge_count, max_size=base.edge_count))),
                tuple(data.draw(st.lists(value, min_size=n, max_size=n))),
            )
        else:
            m = bb.total.edge_count
            w = Weight(bb.total, tuple(data.draw(st.lists(value, min_size=m, max_size=m))))
        x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        assert layer_probabilities(base, w, x, y) == _two_solves(base, w, x, y)

    def test_cap_error_names_block(self):
        cycle8 = Graph(8, tuple((i, (i + 1) % 8) for i in range(8)))
        sw = SymmetricWeight.uniform(bunkbed(cycle8), F(1, 2))
        with pytest.raises(EnumerationCapError, match="block on base vertices"):
            layer_probabilities(cycle8, sw, 0, 4, cap=10)

    @pytest.mark.parametrize("x, y", [(7, 0), (0, -1)])
    def test_rejects_a_vertex_out_of_range(self, x, y):
        with pytest.raises(ValueError, match="out of range"):
            layer_probabilities(P3, SymmetricWeight.uniform(bunkbed(P3), F(1, 2)), x, y)

    def test_saved_delta_rechecks_to_its_recorded_values(self, tmp_path):
        for base, (x, y) in ((K4_CHAIN_2, (5, 1)), (C5, (2, 2)), (TWO_COMPONENTS, (0, 3))):
            w = _layer_weights(base, seed=5)[0]
            d = bunkbed_delta(base, w, x, y)
            assert (d.same_layer, d.cross_layer) == _two_solves(base, w, x, y)
            recorded, recomputed = recheck_violation(save_violation(d, tmp_path))
            assert (recomputed.same_layer, recomputed.cross_layer, recomputed.delta) == (
                recorded.same_layer, recorded.cross_layer, recorded.delta,
            ) == (d.same_layer, d.cross_layer, d.delta)


class TestWeightSource:
    def test_grid_size(self):
        src = WeightSource.grid([F(1, 4), F(1, 2), F(3, 4)])
        bb = bunkbed(K2)
        weights = list(src.iter_weights(bb))
        assert len(weights) == 27  # 3 symmetric dimensions
        assert len(set((w.base_values, w.post_values) for w in weights)) == 27

    def test_random_is_deterministic(self):
        src = WeightSource.random(5, seed=99)
        bb = bunkbed(P3)
        a = [(w.base_values, w.post_values) for w in src.iter_weights(bb)]
        b = [(w.base_values, w.post_values) for w in src.iter_weights(bb)]
        assert a == b
        assert len(a) == 5

    def test_random_values_in_range(self):
        src = WeightSource.random(10, denominator=7, seed=3)
        for w in src.iter_weights(bunkbed(P3)):
            for v in w.base_values + w.post_values:
                assert 0 <= v <= 1 and v.denominator <= 7

    def test_explicit_file(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("default 1/2\npost 0 1/4\n")
        src = WeightSource.explicit(p)
        weights = list(src.iter_weights(bunkbed(K2)))
        assert len(weights) == 1
        assert weights[0].post_values == (F(1, 4), F(1, 2))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            WeightSource.grid([F(5, 4)])
        with pytest.raises(ValueError):
            WeightSource.grid([])


class TestCheckGraph:
    def test_k2_full_grid(self):
        grid = (F(1, 4), F(1, 2), F(3, 4))
        report = check_graph(K2, WeightSource.grid(grid))
        assert report.weights_checked == 27
        assert report.pairs_checked == 3  # (0,0), (0,1), (1,1)
        assert not report.violations
        # the independent closed-form evaluation gives the same minimum
        from itertools import product

        from oracles import BunkbedGridOracle

        oracle = BunkbedGridOracle(K2, grid)
        tensors = {(x, y): oracle.delta_tensor(x, y) for x in range(2) for y in range(x, 2)}
        expected_min = min(
            oracle.value_at(t, point)
            for t in tensors.values()
            for point in product(range(3), repeat=3)
        )
        assert report.min_delta == expected_min
        assert expected_min >= 0

    def test_tree_random_source(self):
        tree = Graph(5, ((0, 1), (1, 2), (1, 3), (3, 4)))
        report = check_graph(tree, WeightSource.random(8, seed=5))
        assert not report.violations
        assert report.min_delta >= 0

    def test_empty_graph(self):
        g = Graph(3, ())
        report = check_graph(g, WeightSource.grid([F(1, 2)]))
        assert not report.violations
        for (x, y), d in report.worst_by_pair.items():
            if x != y:
                assert d.same_layer == d.cross_layer == 0

    def test_deterministic_given_seed(self):
        r1 = check_graph(P3, WeightSource.random(4, seed=11), graph_id="g")
        r2 = check_graph(P3, WeightSource.random(4, seed=11), graph_id="g")
        j1, j2 = r1.to_json(), r2.to_json()
        j1.pop("elapsed_ms")
        j2.pop("elapsed_ms")
        assert j1 == j2

    def test_report_json_schema(self):
        report = check_graph(K2, WeightSource.random(3, seed=1), graph_id="k2")
        payload = report.to_json()
        assert set(payload) == {
            "graph", "pairs", "min_delta", "violations", "errors",
            "seed", "method", "weight_source", "elapsed_ms",
        }
        assert payload["graph"] == "k2"
        assert payload["seed"] == 1
        assert payload["weight_source"].startswith("random(")
        for entry in payload["pairs"]:
            assert set(entry) == {"x", "y", "same_layer", "cross_layer", "delta"}
            num, den = entry["delta"].split("/")
            int(num), int(den)
        json.dumps(payload)

    def test_cap_errors_recorded_not_fatal(self):
        report = check_graph(K4, WeightSource.grid([F(1, 2)]), cap=5)
        assert report.errors
        assert report.weights_checked == 1
        assert not report.violations

    def test_restricted_pairs(self):
        report = check_graph(P3, WeightSource.grid([F(1, 2)]), pairs=[(0, 2)])
        assert report.pairs_checked == 1
        assert set(report.worst_by_pair) == {(0, 2)}


class TestVerifyGluingClosure:
    def test_bowtie_full_two_value_grid_nonnegative(self):
        # the glued pair of triangles over every {1/4, 3/4} symmetric weight,
        # all 2^11 grid points evaluated exactly in closed form, plus a
        # sampled engine agreement
        from oracles import BunkbedGridOracle

        bowtie, v = glue(TRIANGLE, 0, TRIANGLE, 1)
        grid = (F(1, 4), F(3, 4))
        oracle = BunkbedGridOracle(bowtie, grid)
        rng = random.Random(33)
        for x in range(5):
            for y in range(x, 5):
                delta = oracle.delta_tensor(x, y)
                assert delta.min() >= 0, (x, y)
                point = tuple(rng.randrange(2) for _ in range(11))
                sw = oracle.weight_at(point)
                d = bunkbed_delta(bowtie, sw, x, y)
                assert d.delta == oracle.value_at(delta, point)


class TestEnumerateTrees:
    def test_counts(self):
        assert [len(enumerate_trees(n)) for n in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]

    def test_k2(self):
        assert enumerate_trees(2) == [Graph(2, ((0, 1),))]

    def test_all_outputs_are_trees(self):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                assert t.vertex_count == n
                assert t.edge_count == n - 1
                assert t.is_connected()

    def test_no_isomorphic_duplicates(self):
        for n in range(2, 8):
            forms = [tree_canonical_form(t) for t in enumerate_trees(n)]
            assert len(forms) == len(set(forms))

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            enumerate_trees(9)
        for n in (0, -1):  # below 1 is a failed precondition, not a bound
            with pytest.raises(ValueError) as info:
                enumerate_trees(n)
            assert not isinstance(info.value, BoundExceededError)
        assert len(enumerate_trees(8)) == 23

    def test_first_of_each_class_in_pruefer_order(self):
        # the early stop returns exactly what a scan of every sequence does
        from oracles import first_trees_by_pruefer

        for n in range(1, 9):
            got = [(t.vertex_count, t.edges) for t in enumerate_trees(n)]
            assert got == first_trees_by_pruefer(n), n

    def test_free_tree_count_matches_networkx(self):
        import networkx as nx

        for n in range(1, 21):
            assert _free_tree_count(n) == nx.number_of_nonisomorphic_trees(n), n


class TestSearch:
    def test_trees_all_skipped_with_filter(self):
        trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
        reports = list(
            search_candidates(trees, WeightSource.grid([F(1, 2)]), require_two_connected=True)
        )
        assert len(reports) == len(trees)
        assert all(r.method == "skipped" and r.weights_checked == 0 for r in reports)

    def test_two_connected_candidates_are_checked(self):
        reports = list(
            search_candidates([C4, K4], WeightSource.random(2, seed=23), require_two_connected=True)
        )
        assert [r.method for r in reports] == ["decomposition", "decomposition"]
        assert all(not r.violations for r in reports)

    def test_generator_errors_propagate(self):
        def gen():
            yield K2
            raise RuntimeError("stream broke")

        stream = search_candidates(gen(), WeightSource.grid([F(1, 2)]))
        first = next(stream)
        assert not first.violations
        with pytest.raises(RuntimeError, match="stream broke"):
            next(stream)

    def test_violations_are_persisted_before_streaming_on(self, tmp_path, monkeypatch):
        # no real counterexample exists at this scale, so fake the delta
        # computation and confirm search writes the violation immediately
        import bunkbed.checker as checker_mod

        real = checker_mod.bunkbed_delta

        def fake(base, w, x, y, *, cap=30):
            d = real(base, w, x, y, cap=cap)
            if (x, y) == (0, 1):
                return BunkbedDelta(
                    base=d.base, weight=d.weight, x=x, y=y,
                    same_layer=F(0), cross_layer=F(1, 3), delta=F(-1, 3),
                )
            return d

        monkeypatch.setattr(checker_mod, "bunkbed_delta", fake)
        reports = list(
            search_candidates(
                [K2], WeightSource.grid([F(1, 2)]), persist_dir=tmp_path / "v"
            )
        )
        assert len(reports) == 1
        assert not reports[0].ok
        assert len(reports[0].violations) == 1
        files = list((tmp_path / "v").iterdir())
        assert len(files) == 1
        recorded = load_violation(files[0])
        assert recorded.delta == F(-1, 3)


class TestViolationPersistence:
    def test_round_trip_and_recheck(self, tmp_path):
        # no real violation is available; persist a computed delta record
        # and confirm the recheck reproduces it exactly
        sw = SymmetricWeight.uniform(bunkbed(K2), F(1, 2))
        d = bunkbed_delta(K2, sw, 0, 1)
        path = save_violation(d, tmp_path)
        recorded = load_violation(path)
        assert recorded.base == d.base
        assert (recorded.same_layer, recorded.cross_layer, recorded.delta) == (
            d.same_layer, d.cross_layer, d.delta,
        )
        rec, recomputed = recheck_violation(path)
        assert (recomputed.same_layer, recomputed.cross_layer, recomputed.delta) == (
            rec.same_layer, rec.cross_layer, rec.delta,
        )

    def test_filename_is_content_addressed(self, tmp_path):
        sw = SymmetricWeight.uniform(bunkbed(K2), F(1, 2))
        d = bunkbed_delta(K2, sw, 0, 1)
        p1 = save_violation(d, tmp_path)
        p2 = save_violation(d, tmp_path)
        assert p1 == p2
        assert len(list(tmp_path.iterdir())) == 1
