import random
from fractions import Fraction

import pytest

from bunkbed.graphs import Graph, all_splits, bunkbed, cut_vertices, split_at
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
    CrossSideTerms,
    bunkbed_split,
    collapse_side,
    cross_side_probability,
    two_point_probability,
    zero_post_weight,
)

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


class TestBunkbedSplit:
    def test_path_sides_are_four_cycles(self):
        s = split_at(P3, 1, [0])
        bs = bunkbed_split(s)
        assert (bs.g.total.vertex_count, bs.g.total.edge_count) == (4, 4)
        assert (bs.h.total.vertex_count, bs.h.total.edge_count) == (4, 4)
        assert bs.h0.edge_count == 3
        # the cut vertex post is in both sides' bunkbeds but only counted in g
        shared = bs.f.post_edge(1)
        assert shared in bs.g_edge_to_whole
        h0_whole = {bs.h_edge_to_whole[e] for e in bs.h0_edge_to_h}
        assert shared not in h0_whole

    def test_bowtie(self):
        s = split_at(BOWTIE, 2, [0])
        bs = bunkbed_split(s)
        assert bs.g.total.edge_count == 2 * 3 + 3
        assert bs.h.total.edge_count == 2 * 3 + 3
        assert bs.h0.edge_count == 2 * 3 + 3 - 1

    def test_edge_partition_counts(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_connected_with_cut(rng)
            for s in all_splits(g):
                bs = bunkbed_split(s)
                assert bs.f.total.edge_count == bs.h0.edge_count + bs.g.total.edge_count


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
    def test_all_zero(self):
        t = CrossSideTerms(F(0), F(0), F(0), F(0), F(0), F(0))
        assert cross_side_probability(t) == 0

    def test_all_one(self):
        t = CrossSideTerms(F(1), F(1), F(1), F(1), F(1), F(1))
        assert cross_side_probability(t) == 1

    def test_rejects_joint_above_single(self):
        with pytest.raises(ValueError):
            CrossSideTerms(F(1, 4), F(1, 2), F(1, 3), F(0), F(0), F(0))

    def test_path_identity_against_full_enumeration(self):
        f = bunkbed(P3)
        mu = Weight.uniform(f.total, F(1, 2))
        s = split_at(P3, 1, [0])
        bs = bunkbed_split(s)
        g_vals = tuple(mu.values[bs.g_edge_to_whole[j]] for j in range(bs.g.total.edge_count))
        h_vals = tuple(mu.values[bs.h_edge_to_whole[j]] for j in range(bs.h.total.edge_count))
        gw = Weight(bs.g.total, g_vals)
        hw = Weight(bs.h.total, h_vals)
        ng, nh = 2, 2
        a_g = bs.g.vertex_map[s.g_vertex_index[0]][0]  # a-
        b_h = bs.h.vertex_map[s.h_vertex_index[2]][0]  # b-
        vg_m, vg_p = s.cut_in_g, s.cut_in_g + ng
        vh_m, vh_p = s.cut_in_h, s.cut_in_h + nh
        post = bs.h.post_edge(s.cut_in_h)
        mask = frozenset(range(bs.h.total.edge_count)) - {post}
        terms = CrossSideTerms(
            g_minus=connection_probability(gw, a_g, vg_m),
            g_plus=connection_probability(gw, a_g, vg_p),
            g_both=event_probability(
                gw, ConnectivitySpec(positive=((a_g, vg_m), (a_g, vg_p)))
            ).value,
            h0_minus=event_probability(
                hw, ConnectivitySpec(positive=((vh_m, b_h),), restriction=mask)
            ).value,
            h0_plus=event_probability(
                hw, ConnectivitySpec(positive=((vh_p, b_h),), restriction=mask)
            ).value,
            h0_both=event_probability(
                hw, ConnectivitySpec(positive=((vh_m, b_h), (vh_p, b_h)), restriction=mask)
            ).value,
        )
        # against exhaustive enumeration over all 2^7 subsets of the whole bunkbed
        whole = connection_probability(mu, 0, 2)
        assert bs.f.total.edge_count == 7
        assert cross_side_probability(terms) == whole

    def test_identity_random_straddling_pairs(self):
        rng = random.Random(19)
        for _ in range(10):
            g = random_connected_with_cut(rng, n_max=5)
            f = bunkbed(g)
            mu = random_bb_weight(rng, f)
            dist = connectivity_distribution(mu)
            for s in all_splits(g):
                bs = bunkbed_split(s)
                g_vals = tuple(mu.values[bs.g_edge_to_whole[j]] for j in range(bs.g.total.edge_count))
                h_vals = tuple(mu.values[bs.h_edge_to_whole[j]] for j in range(bs.h.total.edge_count))
                gw = Weight(bs.g.total, g_vals)
                hw = Weight(bs.h.total, h_vals)
                g_dist = connectivity_distribution(gw)
                post = bs.h.post_edge(s.cut_in_h)
                mask = frozenset(range(bs.h.total.edge_count)) - {post}
                h0_dist = connectivity_distribution(hw, restriction=mask)
                ng = s.side_g.vertex_count
                nh = s.side_h.vertex_count
                vg = (s.cut_in_g, s.cut_in_g + ng)
                vh = (s.cut_in_h, s.cut_in_h + nh)
                for gx in range(2 * ng):
                    for hy in range(2 * nh):
                        terms = CrossSideTerms(
                            g_minus=g_dist.connection(gx, vg[0]),
                            g_plus=g_dist.connection(gx, vg[1]),
                            g_both=g_dist.probability(
                                ConnectivitySpec(positive=((gx, vg[0]), (gx, vg[1])))
                            ),
                            h0_minus=h0_dist.connection(vh[0], hy),
                            h0_plus=h0_dist.connection(vh[1], hy),
                            h0_both=h0_dist.probability(
                                ConnectivitySpec(
                                    positive=((vh[0], hy), (vh[1], hy)), restriction=mask
                                )
                            ),
                        )
                        fx = bs.g_vertex_to_whole(gx)
                        fy = bs.h_vertex_to_whole(hy)
                        assert cross_side_probability(terms) == dist.connection(fx, fy)


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

    @pytest.mark.parametrize("case", ["P13", "K4-chain-x3"])
    def test_engine_equals_the_whole_bunkbed_kernel(self, case):
        # the kernel over the whole bunkbed, cap raised past its edge count,
        # against the engine's cut-vertex recursion over terminal leaves
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
            assert two_point_probability(base, sw, a, y).value == whole.value

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

    def test_rejects_mismatched_weight(self):
        sw = SymmetricWeight.uniform(bunkbed(P3), F(1, 2))
        with pytest.raises(ValueError):
            two_point_probability(BOWTIE, sw, 0, 1)
