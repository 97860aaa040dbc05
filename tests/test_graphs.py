import random

import pytest

from bunkbed.graphs import (
    DegenerateSplitError,
    Graph,
    GraphParseError,
    NotACutVertexError,
    all_splits,
    bunkbed,
    cut_vertices,
    format_graph,
    glue,
    parse_graph,
    split_at,
    two_connected,
)

from oracles import canonical_edge_set, naive_cut_vertices

P3 = Graph(3, ((0, 1), (1, 2)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
BOWTIE = Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))


def random_graph(rng, n, p=0.5):
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )
    return Graph(n, edges)


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((0, 0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((0, 2),))

    def test_edges_normalized_order_preserved(self):
        g = Graph(4, ((3, 1), (0, 2)))
        assert g.edges == ((1, 3), (0, 2))

    def test_components(self):
        g = Graph(5, ((0, 1), (2, 3)))
        assert g.components() == [[0, 1], [2, 3], [4]]
        assert g.components(skip=1) == [[0], [2, 3], [4]]


class TestBunkbed:
    def test_single_vertex(self):
        bb = bunkbed(Graph(1, ()))
        assert bb.total.vertex_count == 2
        assert bb.total.edges == ((0, 1),)

    def test_k2_is_four_cycle(self):
        bb = bunkbed(Graph(2, ((0, 1),)))
        assert bb.total.vertex_count == 4
        assert set(bb.total.edges) == {(0, 1), (2, 3), (0, 2), (1, 3)}

    def test_c4(self):
        bb = bunkbed(C4)
        assert bb.total.vertex_count == 8
        assert bb.total.edge_count == 12

    def test_counts_random(self):
        rng = random.Random(42)
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 7))
            bb = bunkbed(g)
            assert bb.total.vertex_count == 2 * g.vertex_count
            assert bb.total.edge_count == 2 * g.edge_count + g.vertex_count

    def test_copies_and_posts_land_where_tagged(self):
        g = Graph(3, ((0, 1), (1, 2)))
        bb = bunkbed(g)
        for e, (u, v) in enumerate(g.edges):
            assert bb.total.edges[bb.minus_edge(e)] == (u, v)
            assert bb.total.edges[bb.plus_edge(e)] == (u + 3, v + 3)
        for x in range(3):
            assert bb.total.edges[bb.post_edge(x)] == (x, x + 3)
            assert bb.vertex_map[x] == (x, x + 3)


class TestGlue:
    def test_two_edges_make_path(self):
        k2 = Graph(2, ((0, 1),))
        g, v = glue(k2, 1, k2, 0)
        assert (g.vertex_count, g.edge_count) == (3, 2)
        assert canonical_edge_set(3, g.edges) == canonical_edge_set(3, P3.edges)

    def test_paths_make_longer_path(self):
        g, v = glue(P3, 2, P3, 0)
        assert (g.vertex_count, g.edge_count) == (5, 4)
        path5 = Graph(5, tuple((i, i + 1) for i in range(4)))
        assert canonical_edge_set(5, g.edges) == canonical_edge_set(5, path5.edges)

    def test_triangles_make_bowtie(self):
        g, v = glue(TRIANGLE, 0, TRIANGLE, 2)
        assert (g.vertex_count, g.edge_count) == (5, 6)
        assert g.degree(v) == 4
        assert canonical_edge_set(5, g.edges) == canonical_edge_set(5, BOWTIE.edges)

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            glue(P3, 5, P3, 0)


class TestCutVertices:
    def test_path(self):
        assert cut_vertices(P3) == {1}

    def test_cycle(self):
        assert cut_vertices(C4) == set()

    def test_bowtie(self):
        assert cut_vertices(BOWTIE) == naive_cut_vertices(BOWTIE) == {2}

    def test_matches_naive_exhaustively_small(self):
        # every labeled graph on up to 6 vertices
        for n in range(7):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for mask in range(1 << len(pairs)):
                edges = tuple(pairs[i] for i in range(len(pairs)) if (mask >> i) & 1)
                g = Graph(n, edges)
                assert cut_vertices(g) == naive_cut_vertices(g), (n, edges)

    def test_matches_naive_random_7(self):
        rng = random.Random(7)
        for _ in range(400):
            g = random_graph(rng, 7, rng.uniform(0.15, 0.85))
            assert cut_vertices(g) == naive_cut_vertices(g), g.edges

    def test_disconnected(self):
        g = Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
        assert cut_vertices(g) == {1, 4} == naive_cut_vertices(g)


class TestTwoConnected:
    def test_examples(self):
        assert two_connected(C4)
        assert not two_connected(P3)
        assert not two_connected(BOWTIE)
        assert not two_connected(Graph(2, ((0, 1),)))
        assert not two_connected(Graph(1, ()))
        assert not two_connected(Graph(4, ((0, 1), (2, 3))))


class TestSplitAt:
    def test_path_at_middle(self):
        s = split_at(P3, 1, [0])
        assert s.side_g.edge_count == 1
        assert s.side_h.edge_count == 1
        assert s.cut_vertex == 1
        assert set(s.g_vertices) | set(s.h_vertices) == {0, 1, 2}
        assert set(s.g_vertices) & set(s.h_vertices) == {1}

    def test_bowtie_at_center(self):
        s = split_at(BOWTIE, 2, [0])
        assert (s.side_g.vertex_count, s.side_g.edge_count) == (3, 3)
        assert (s.side_h.vertex_count, s.side_h.edge_count) == (3, 3)

    def test_star_two_leaves(self):
        star = Graph(4, ((0, 1), (0, 2), (0, 3)))
        s = split_at(star, 0, [0, 1])
        assert (s.side_g.vertex_count, s.side_g.edge_count) == (3, 2)
        assert (s.side_h.vertex_count, s.side_h.edge_count) == (2, 1)

    def test_rejects_non_cut_vertex(self):
        with pytest.raises(NotACutVertexError):
            split_at(C4, 0, [0])

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateSplitError):
            split_at(P3, 1, [])
        with pytest.raises(DegenerateSplitError):
            split_at(P3, 1, [0, 1])

    def test_edge_images_partition(self):
        rng = random.Random(13)
        found = 0
        while found < 25:
            g = random_graph(rng, rng.randint(3, 7), rng.uniform(0.25, 0.6))
            cuts = cut_vertices(g)
            if not cuts:
                continue
            found += 1
            for s in all_splits(g):
                imgs = sorted(s.g_edges) + sorted(s.h_edges)
                assert sorted(imgs) == list(range(g.edge_count))

    def test_all_splits_counts(self):
        star = Graph(4, ((0, 1), (0, 2), (0, 3)))
        assert len(list(all_splits(star))) == 6  # any proper nonempty leaf subset
        p4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
        assert len(list(all_splits(p4))) == 4  # two cut vertices, two sides each
        assert list(all_splits(C4)) == []

    def test_split_then_glue_restores_graph(self):
        rng = random.Random(17)
        found = 0
        while found < 25:
            g = random_graph(rng, rng.randint(3, 7), rng.uniform(0.25, 0.6))
            if not cut_vertices(g) or not g.is_connected():
                continue
            found += 1
            for s in all_splits(g):
                reglued, v = glue(s.side_g, s.cut_in_g, s.side_h, s.cut_in_h)
                assert reglued.edge_count == g.edge_count
                assert reglued.vertex_count == g.vertex_count
                assert canonical_edge_set(g.vertex_count, reglued.edges) == canonical_edge_set(
                    g.vertex_count, g.edges
                )


class TestTextFormat:
    def test_round_trip_exact(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 7))
            text = format_graph(g)
            assert parse_graph(text) == g
            assert format_graph(parse_graph(text)) == text

    def test_labels_round_trip(self):
        g = Graph(3, ((0, 1), (1, 2)), labels=("a", None, "c node"))
        text = format_graph(g)
        assert parse_graph(text) == g

    def test_comments_and_blank_lines(self):
        text = "# a triangle\nvertices 3\n\nedge 0 1\nedge 1 2\n# middle\nedge 0 2\n"
        g = parse_graph(text)
        assert g.edge_count == 3

    def test_parse_errors(self):
        with pytest.raises(GraphParseError):
            parse_graph("edge 0 1\n")
        with pytest.raises(GraphParseError):
            parse_graph("vertices 2\nedge 0 5\n")
        with pytest.raises(GraphParseError):
            parse_graph("vertices 2\nedgy 0 1\n")
        with pytest.raises(GraphParseError):
            parse_graph("vertices two\n")
        with pytest.raises(GraphParseError):
            parse_graph("vertices 3\nedge 0 1\nedge 1 0\n")
