import random
from fractions import Fraction

import pytest

from bunkbed import reduction
from bunkbed.graphs import Graph, all_splits, bunkbed, cut_vertices, glue, split_at
from bunkbed.percolation import (
    ConnectivitySpec,
    EnumerationCapError,
    SymmetricWeight,
    Weight,
    connection_probability,
    connectivity_distribution,
    event_probability,
)
from bunkbed.reduction import (
    collapse_side,
    layer_probabilities,
    two_point_probability,
    zero_post_weight,
)

from support import lift_vertex, side_weight

F = Fraction

P3 = Graph(3, ((0, 1), (1, 2)))
BOWTIE = Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))


def random_connected_with_cut(rng, n_max=5):
    while True:
        n = rng.randint(3, n_max)
        edges = tuple(
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45
        )
        g = Graph(n, edges)
        if g.is_connected() and cut_vertices(g):
            return g


def random_bb_weight(rng, bb, denominator=8):
    return Weight(
        bb.total,
        tuple(F(rng.randint(0, denominator), denominator) for _ in range(bb.total.edge_count)),
    )


class TestCollapseSide:
    def test_path_at_half(self):
        f = bunkbed(P3)
        mu = Weight.uniform(f.total, F(1, 2))
        cs = collapse_side(f, mu, split_at(P3, 1, [0]))
        assert cs.collapsed_post_value == F(9, 16)
        # every other edge keeps its weight
        post = cs.reduced_bunkbed.post_edge(cs.split.cut_in_h)
        for e, val in enumerate(cs.reduced_weight.values):
            if e != post:
                assert val == F(1, 2)

    def test_all_closed_side_collapses_to_zero(self):
        f = bunkbed(P3)
        mu = Weight(f.total, (F(0),) * f.total.edge_count)
        cs = collapse_side(f, mu, split_at(P3, 1, [0]))
        assert cs.collapsed_post_value == 0

    def test_open_post_collapses_to_one(self):
        f = bunkbed(P3)
        values = [F(0)] * f.total.edge_count
        values[f.post_edge(1)] = F(1)
        cs = collapse_side(f, Weight(f.total, tuple(values)), split_at(P3, 1, [0]))
        assert cs.collapsed_post_value == 1

    def test_preserves_all_kept_side_probabilities(self):
        # arbitrary, not necessarily symmetric weights
        rng = random.Random(5)
        for _ in range(15):
            g = random_connected_with_cut(rng)
            f = bunkbed(g)
            mu = random_bb_weight(rng, f)
            dist = connectivity_distribution(mu)
            for s in all_splits(g):
                cs = collapse_side(f, mu, s)
                reduced_dist = connectivity_distribution(cs.reduced_weight)
                nh = s.side_h.vertex_count
                for hx in range(2 * nh):
                    for hy in range(hx, 2 * nh):
                        fx = s.h_vertices[hx % nh] + (hx // nh) * g.vertex_count
                        fy = s.h_vertices[hy % nh] + (hy // nh) * g.vertex_count
                        assert dist.connection(fx, fy) == reduced_dist.connection(hx, hy)

    def test_endpoint_copies_included(self):
        # the kept side includes both copies of the cut vertex itself
        g = Graph(4, ((0, 1), (1, 2), (1, 3)))
        f = bunkbed(g)
        rng = random.Random(11)
        mu = random_bb_weight(rng, f)
        s = split_at(g, 1, [0])
        cs = collapse_side(f, mu, s)
        v_minus = f.minus_vertex(1)
        v_plus = f.plus_vertex(1)
        lhs = connection_probability(mu, v_minus, v_plus)
        rhs = connection_probability(
            cs.reduced_weight, cs.map_vertex(v_minus), cs.map_vertex(v_plus)
        )
        assert lhs == rhs

    def test_side_over_the_edge_cap_is_solved_per_block(self):
        # side G of P16 cut at 14 is P15, a 43-edge bunkbed, over the
        # default cap of 30; each of its blocks is one edge's 4-edge bunkbed
        p16 = Graph(16, tuple((i, i + 1) for i in range(15)))
        f = bunkbed(p16)
        s = split_at(p16, 14, [0])
        g = bunkbed(s.side_g)
        assert g.total.edge_count == 43
        cs = collapse_side(f, Weight.uniform(f.total, F(1, 3)), s)
        whole_side = connection_probability(
            Weight.uniform(g.total, F(1, 3)), s.cut_in_g, g.plus_vertex(s.cut_in_g), cap=60
        )
        assert cs.collapsed_post_value == whole_side
        assert whole_side == F(118172508262033346635, 328256967394537077627)

    def test_side_components_away_from_the_cut_vertex_are_not_enumerated(self):
        # K4 on 0-3, vertex 4 isolated, a pendant 5 at 0; side G is the K4
        # and vertex 4, whose bunkbed has 17 edges.  Only the K4 block, 16
        # edges, can reach 0- or 0+, so it alone meets the cap of 16
        k4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        base = Graph(6, k4 + ((0, 5),))
        f = bunkbed(base)
        s = split_at(base, 0, [0, 1])
        assert s.g_vertices == (0, 1, 2, 3, 4)
        cs = collapse_side(f, Weight.uniform(f.total, F(1, 2)), s, cap=16)
        block = bunkbed(Graph(4, k4))
        assert cs.collapsed_post_value == connection_probability(
            Weight.uniform(block.total, F(1, 2)), 0, block.plus_vertex(0)
        )


class TestZeroPostWeight:
    def test_idempotent(self):
        bb = bunkbed(P3)
        mu = Weight.uniform(bb.total, F(1, 2))
        z1 = zero_post_weight(bb, mu, 1)
        assert zero_post_weight(bb, z1, 1) == z1

    def test_matches_deleted_post_graph(self):
        bb = bunkbed(Graph(2, ((0, 1),)))
        mu = Weight.uniform(bb.total, F(1, 2))
        z = zero_post_weight(bb, mu, 0)
        mask = frozenset(range(bb.total.edge_count)) - {bb.post_edge(0)}
        for y in range(bb.total.vertex_count):
            lhs = connection_probability(z, bb.minus_vertex(0), y)
            rhs = event_probability(
                mu, ConnectivitySpec(positive=((bb.minus_vertex(0), y),), restriction=mask)
            ).value
            assert lhs == rhs

    def test_identity_random(self):
        rng = random.Random(13)
        for _ in range(12):
            g = random_connected_with_cut(rng, n_max=4)
            bb = bunkbed(g)
            mu = random_bb_weight(rng, bb)
            v = rng.randrange(g.vertex_count)
            z = zero_post_weight(bb, mu, v)
            mask = frozenset(range(bb.total.edge_count)) - {bb.post_edge(v)}
            for y in range(bb.total.vertex_count):
                lhs = connection_probability(z, bb.minus_vertex(v), y)
                rhs = event_probability(
                    mu,
                    ConnectivitySpec(positive=((bb.minus_vertex(v), y),), restriction=mask),
                ).value
                assert lhs == rhs

    def test_only_the_post_changes(self):
        bb = bunkbed(P3)
        rng = random.Random(17)
        mu = random_bb_weight(rng, bb)
        z = zero_post_weight(bb, mu, 2)
        for e in range(bb.total.edge_count):
            if e == bb.post_edge(2):
                assert z.values[e] == 0
            else:
                assert z.values[e] == mu.values[e]


class TestCrossSideProbability:
    """The three-term identity for a pair straddling a cut vertex v:
    P(x ~ y) = P_G(x ~ v-) P_H0(v- ~ y) + P_G(x ~ v+) P_H0(v+ ~ y)
    - P_G(x ~ v-, x ~ v+) P_H0(v- ~ y, v+ ~ y), with H0 side H under the
    shared post closed (zero_post_weight)."""

    def test_path_identity_against_full_enumeration(self):
        f = bunkbed(P3)
        mu = Weight.uniform(f.total, F(1, 2))
        s = split_at(P3, 1, [0])
        g_bb, h_bb = bunkbed(s.side_g), bunkbed(s.side_h)
        gw = side_weight(f, mu, g_bb, s.g_vertices, s.g_edges)
        h0w = zero_post_weight(
            h_bb, side_weight(f, mu, h_bb, s.h_vertices, s.h_edges), s.cut_in_h
        )
        ng, nh = 2, 2
        a_g = g_bb.minus_vertex(s.g_vertex_index[0])  # a-
        b_h = h_bb.minus_vertex(s.h_vertex_index[2])  # b-
        vg_m, vg_p = s.cut_in_g, s.cut_in_g + ng
        vh_m, vh_p = s.cut_in_h, s.cut_in_h + nh
        g_minus = connection_probability(gw, a_g, vg_m)
        g_plus = connection_probability(gw, a_g, vg_p)
        g_both = event_probability(
            gw, ConnectivitySpec(positive=((a_g, vg_m), (a_g, vg_p)))
        ).value
        h0_minus = connection_probability(h0w, vh_m, b_h)
        h0_plus = connection_probability(h0w, vh_p, b_h)
        h0_both = event_probability(
            h0w, ConnectivitySpec(positive=((vh_m, b_h), (vh_p, b_h)))
        ).value
        # against exhaustive enumeration over all 2^7 subsets of the whole bunkbed
        whole = connection_probability(mu, 0, 2)
        assert f.total.edge_count == 7
        assert g_minus * h0_minus + g_plus * h0_plus - g_both * h0_both == whole

    def test_identity_random_straddling_pairs(self):
        rng = random.Random(19)
        for _ in range(10):
            g = random_connected_with_cut(rng, n_max=5)
            f = bunkbed(g)
            mu = random_bb_weight(rng, f)
            dist = connectivity_distribution(mu)
            for s in all_splits(g):
                g_bb, h_bb = bunkbed(s.side_g), bunkbed(s.side_h)
                g_dist = connectivity_distribution(
                    side_weight(f, mu, g_bb, s.g_vertices, s.g_edges)
                )
                h0_dist = connectivity_distribution(
                    zero_post_weight(
                        h_bb, side_weight(f, mu, h_bb, s.h_vertices, s.h_edges), s.cut_in_h
                    )
                )
                ng = s.side_g.vertex_count
                nh = s.side_h.vertex_count
                vg = (s.cut_in_g, s.cut_in_g + ng)
                vh = (s.cut_in_h, s.cut_in_h + nh)
                for gx in range(2 * ng):
                    for hy in range(2 * nh):
                        g_both = g_dist.probability(
                            ConnectivitySpec(positive=((gx, vg[0]), (gx, vg[1])))
                        )
                        h0_both = h0_dist.probability(
                            ConnectivitySpec(positive=((vh[0], hy), (vh[1], hy)))
                        )
                        cross = (
                            g_dist.connection(gx, vg[0]) * h0_dist.connection(vh[0], hy)
                            + g_dist.connection(gx, vg[1]) * h0_dist.connection(vh[1], hy)
                            - g_both * h0_both
                        )
                        fx = lift_vertex(s.g_vertices, g.vertex_count, gx)
                        fy = lift_vertex(s.h_vertices, g.vertex_count, hy)
                        assert cross == dist.connection(fx, fy)


class TestTwoPointProbability:
    def test_same_vertex(self):
        sw = SymmetricWeight.uniform(bunkbed(P3), F(1, 2))
        assert two_point_probability(P3, sw, 0, 0).value == 1

    def test_method_label(self):
        sw = SymmetricWeight.uniform(bunkbed(P3), F(1, 2))
        assert two_point_probability(P3, sw, 0, 2).method == "decomposition"

    def test_bowtie_cross_tips_matches_full_enumeration(self):
        sw = SymmetricWeight.uniform(bunkbed(BOWTIE), F(1, 2))
        dec = two_point_probability(BOWTIE, sw, 0, 3 + 5)
        assert bunkbed(BOWTIE).total.edge_count == 17
        brute = connection_probability(sw.to_weight(), 0, 8)
        assert dec.value == brute

    def test_disconnected_projections_give_zero(self):
        g = Graph(4, ((0, 1), (2, 3)))
        sw = SymmetricWeight.uniform(bunkbed(g), F(1, 2))
        assert two_point_probability(g, sw, 0, 2).value == 0
        assert two_point_probability(g, sw, 0, 2 + 4).value == 0

    def test_matches_enumeration_randomized(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_connected_with_cut(rng, n_max=5)
            bb = bunkbed(g)
            mu = random_bb_weight(rng, bb)
            dist = connectivity_distribution(mu)
            n2 = bb.total.vertex_count
            for _ in range(8):
                a, b = rng.randrange(n2), rng.randrange(n2)
                assert two_point_probability(g, mu, a, b).value == dist.connection(a, b)

    @pytest.mark.parametrize("case", ["P13", "K4-chain-x3", "K4-chain-x3-cap16"])
    def test_engine_equals_the_whole_bunkbed_kernel(self, case):
        # the kernel over the whole bunkbed, cap raised past its edge count,
        # against the engine's cut-vertex recursion over terminal leaves; at
        # cap 16 every leaf is one K4 block's 16-edge bunkbed, so a cross
        # that enumerated two blocks at once would raise
        cap = 16 if case.endswith("cap16") else 30
        if case == "P13":
            base, a, b = Graph(13, tuple((i, i + 1) for i in range(12))), 0, 12
        else:
            k4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
            base = Graph(10, tuple((u + o, v + o) for o in (0, 3, 6) for u, v in k4))
            a, b = 0, 9
        bb = bunkbed(base)
        rng = random.Random(29)
        sw = SymmetricWeight(
            bb,
            tuple(F(2 * rng.randrange(32) + 1, 64) for _ in range(base.edge_count)),
            tuple(F(2 * rng.randrange(32) + 1, 64) for _ in range(base.vertex_count)),
        )
        n = base.vertex_count
        for y in (b, b + n):
            whole = event_probability(
                sw.to_weight(), ConnectivitySpec.connected(a, y), cap=bb.total.edge_count
            )
            assert two_point_probability(base, sw, a, y, cap=cap).value == whole.value

    K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    # case -> (base, a, b, P(a ~ b), atoms_evaluated, leaf calls, distinct leaves)
    PINNED = {
        "P13": (Graph(13, tuple((i, i + 1) for i in range(12))), 0, 12 + 13,
                F(9960215618987, 450283905890997363), 192, 12, 2),
        "bowtie": (BOWTIE, 0, 3 + 5, F(23164019, 129140163), 1024, 2, 2),
        "K4x2": (Graph(7, K4_EDGES + tuple((u + 3, v + 3) for u, v in K4_EDGES)), 0, 6,
                 F(68648443486489, 205891132094649), 131072, 2, 2),
        "C4+P2": (Graph(6, ((0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5))), 5, 1 + 6,
                  F(186725, 4782969), 4128, 3, 3),
        "K1,3": (Graph(4, ((0, 1), (0, 2), (0, 3))), 0, 4, F(23897, 59049), 48, 3, 3),
        "C3+P2": (Graph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4))), 2, 2 + 5,
                  F(6111307, 14348907), 544, 3, 3),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_recursion_is_pinned(self, case):
        # weight 1/3 everywhere; the leaf calls are the kernel tables the
        # recursion asks for, the distinct ones those it had to compute
        base, a, b, value, atoms, leaf_calls, distinct = self.PINNED[case]
        reduction._cached_distribution.cache_clear()
        report = two_point_probability(base, SymmetricWeight.uniform(bunkbed(base), F(1, 3)), a, b)
        info = reduction._cached_distribution.cache_info()
        assert (report.value, report.atoms_evaluated) == (value, atoms)
        assert (info.hits + info.misses, info.misses) == (leaf_calls, distinct)

    def test_accepts_symmetric_and_plain_weights(self):
        bb = bunkbed(P3)
        sw = SymmetricWeight.uniform(bb, F(1, 3))
        assert (
            two_point_probability(P3, sw, 0, 5).value
            == two_point_probability(P3, sw.to_weight(), 0, 5).value
        )

    def test_cap_error_names_block(self):
        cycle8 = Graph(8, tuple((i, (i + 1) % 8) for i in range(8)))
        sw = SymmetricWeight.uniform(bunkbed(cycle8), F(1, 2))
        with pytest.raises(EnumerationCapError, match="block on base vertices"):
            two_point_probability(cycle8, sw, 0, 4, cap=10)

    @pytest.mark.parametrize("solve", [two_point_probability, layer_probabilities])
    def test_cap_error_after_a_split_names_the_block_in_the_query_graphs_vertices(self, solve):
        # P3 glued at its end 2 to an 8-cycle on 2-9: the engine splits at
        # 2, and the refused leaf, the cycle, is vertices 0-7 of its piece
        cycle8 = Graph(8, tuple((i, (i + 1) % 8) for i in range(8)))
        base, _ = glue(P3, 2, cycle8, 0)
        sw = SymmetricWeight.uniform(bunkbed(base), F(1, 2))
        with pytest.raises(EnumerationCapError, match=r"base vertices \[2, 3, 4, 5, 6, 7, 8, 9\]\)"):
            solve(base, sw, 0, 5, cap=10)

    def test_rejects_mismatched_weight(self):
        sw = SymmetricWeight.uniform(bunkbed(P3), F(1, 2))
        with pytest.raises(ValueError):
            two_point_probability(BOWTIE, sw, 0, 1)


class TestDeepInputs:
    """Hundreds of blocks glued at cut vertices: the engine splits at the
    most balanced cut vertex, so its recursion stays logarithmically deep."""

    def test_long_path_from_an_end(self):
        # P500, p = q = 1/3: a_k = P(k- ~ k+) on the path k..499 satisfies
        # a_499 = q and a_k = 1 - (1 - q)(1 - p^2 a_{k+1})
        p = q = F(1, 3)
        base = Graph(500, tuple((i, i + 1) for i in range(499)))
        a = q
        for _ in range(499):
            a = 1 - (1 - q) * (1 - p * p * a)
        sw = SymmetricWeight.uniform(bunkbed(base), p)
        assert layer_probabilities(base, sw, 0, 0) == (1, a)

    def test_large_star_at_its_centre(self):
        # K1,599, p = q = 1/3: 0- reaches 0+ by its own post or through
        # some leaf whose two edges and post are open
        p = q = F(1, 3)
        base = Graph(600, tuple((0, i) for i in range(1, 600)))
        sw = SymmetricWeight.uniform(bunkbed(base), p)
        cross = 1 - (1 - q) * (1 - p * p * q) ** 599
        assert layer_probabilities(base, sw, 0, 0) == (1, cross)
