import json
import random
from fractions import Fraction

import pytest

from bunkbed.checker import (
    BoundExceededError,
    BunkbedDelta,
    WeightSource,
    bunkbed_delta,
    check_graph,
    enumerate_trees,
    load_violation,
    recheck_violation,
    save_violation,
    search_candidates,
    tree_canonical_form,
    verify_gluing_closure,
)
from bunkbed.graphs import Graph, bunkbed, glue
from bunkbed.percolation import SymmetricWeight, connection_probability

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
    def test_two_edges(self):
        report = verify_gluing_closure(K2, 1, K2, 0, WeightSource.grid([F(1, 4), F(3, 4)]))
        assert not report.violations

    def test_triangles_random_weights(self):
        report = verify_gluing_closure(TRIANGLE, 0, TRIANGLE, 1, WeightSource.random(10, seed=17))
        assert not report.violations
        assert report.graph.vertex_count == 5
        assert report.graph.edge_count == 6

    def test_isolated_vertex_glue_is_well_defined(self):
        single = Graph(1, ())
        report = verify_gluing_closure(single, 0, K2, 0, WeightSource.grid([F(1, 2)]))
        assert not report.violations
        assert report.graph.vertex_count == 2

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

    def test_deterministic_order(self):
        assert [t.edges for t in enumerate_trees(6)] == [t.edges for t in enumerate_trees(6)]


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

        def fake(base, w, x, y, *, cap=30, threads=1):
            d = real(base, w, x, y, cap=cap, threads=threads)
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
