"""Heavy-lift helpers for the acceptance suites.

The identity criteria compare exhaustive enumeration against the reduction
transforms over many weights per graph.  The partition walk of the kernel is
weight-independent, so each graph gets one shared enumeration per edge set
(connectivity_distributions) and the per-pair probabilities are then read
out of the slot tables with vectorized masks.  Weight denominators are
kept small enough that every numerator fits in int64; arithmetic stays
exact throughout.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from bunkbed.graphs import Graph, all_splits, bunkbed
from bunkbed.percolation import (
    SymmetricWeight,
    Weight,
    connectivity_distributions,
)
from bunkbed.reduction import bunkbed_split, collapse_side, two_point_probability

CAP = 30


class DistTable:
    """Vectorized pair/joint queries over distributions sharing one label set."""

    def __init__(self, dists):
        self.labels = np.array(dists[0].labels, dtype=np.uint8)
        self.nums = np.array([d.numerators for d in dists], dtype=np.int64)
        self.denominators = [d.denominator for d in dists]
        for d in dists:
            assert d.denominator < (1 << 62), "numerators would overflow int64"

    def mask(self, pairs) -> np.ndarray:
        m = np.ones(self.labels.shape[0], dtype=bool)
        for x, y in pairs:
            if x != y:
                m &= self.labels[:, x] == self.labels[:, y]
        return m

    def probabilities(self, pairs) -> list[Fraction]:
        """P(conjunction of pair connections), one value per weight."""
        sums = self.nums @ self.mask(pairs).astype(np.int64)
        return [Fraction(int(s), d) for s, d in zip(sums, self.denominators)]


def random_values(rng: random.Random, count: int, denominator: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(0, denominator), denominator) for _ in range(count))


def weight_denominator_for(total_edges: int) -> int:
    """Largest power-of-two weight denominator keeping the full atom-sum
    denominator below 2^62."""
    return 8 if 3 * total_edges <= 60 else 4


def random_weights(graph, count: int, seed: int) -> list[Weight]:
    rng = random.Random(seed)
    d = weight_denominator_for(graph.edge_count)
    return [Weight(graph, random_values(rng, graph.edge_count, d)) for _ in range(count)]


def random_symmetric_weights(bb, count: int, seed: int) -> list[SymmetricWeight]:
    rng = random.Random(seed)
    d = weight_denominator_for(bb.total.edge_count)
    return [
        SymmetricWeight(
            bb,
            random_values(rng, bb.base.edge_count, d),
            random_values(rng, bb.base.vertex_count, d),
        )
        for _ in range(count)
    ]


def run_identity_checks(entry: tuple[int, tuple], index: int, n_weights: int = 20) -> dict:
    """Verify, on one catalog graph, both reduction identities against
    exhaustive enumeration: the collapse transform for every split and
    every kept-side pair, and the three-term cross formula for every split
    and every straddling pair.  Returns counters and failure descriptions.
    """
    n, edges = entry
    base = Graph(n, edges)
    f_bb = bunkbed(base)
    weights = random_weights(f_bb.total, n_weights, seed=31337 + index)
    f_table = DistTable(connectivity_distributions(f_bb.total, weights, cap=CAP))

    collapse_checks = 0
    cross_checks = 0
    failures: list[str] = []

    for split in all_splits(base):
        bs = bunkbed_split(split)

        # collapse route: P in the whole bunkbed == P in the reduced one
        collapsed = [collapse_side(f_bb, w, split, cap=CAP) for w in weights]
        h_table = DistTable(
            connectivity_distributions(
                bs.h.total, [c.reduced_weight for c in collapsed], cap=CAP
            )
        )
        nh2 = bs.h.total.vertex_count
        for hx in range(nh2):
            for hy in range(hx, nh2):
                lhs = f_table.probabilities(
                    [(bs.h_vertex_to_whole(hx), bs.h_vertex_to_whole(hy))]
                )
                rhs = h_table.probabilities([(hx, hy)])
                collapse_checks += len(weights)
                if lhs != rhs:
                    failures.append(
                        f"collapse mismatch: graph {index} split at {split.cut_vertex} pair ({hx},{hy})"
                    )

        # cross route: three-term identity for pairs straddling the cut
        g_weights = [
            Weight(
                bs.g.total,
                tuple(
                    w.values[bs.g_edge_to_whole[j]]
                    for j in range(bs.g.total.edge_count)
                ),
            )
            for w in weights
        ]
        h_weights = [
            Weight(
                bs.h.total,
                tuple(
                    w.values[bs.h_edge_to_whole[j]]
                    for j in range(bs.h.total.edge_count)
                ),
            )
            for w in weights
        ]
        g_table = DistTable(connectivity_distributions(bs.g.total, g_weights, cap=CAP))
        post = bs.h.post_edge(split.cut_in_h)
        h0_mask = frozenset(range(bs.h.total.edge_count)) - {post}
        h0_table = DistTable(
            connectivity_distributions(bs.h.total, h_weights, restriction=h0_mask, cap=CAP)
        )
        ng = split.side_g.vertex_count
        nh = split.side_h.vertex_count
        vg_minus, vg_plus = split.cut_in_g, split.cut_in_g + ng
        vh_minus, vh_plus = split.cut_in_h, split.cut_in_h + nh
        g_terms = {
            gx: (
                g_table.probabilities([(gx, vg_minus)]),
                g_table.probabilities([(gx, vg_plus)]),
                g_table.probabilities([(gx, vg_minus), (gx, vg_plus)]),
            )
            for gx in range(2 * ng)
        }
        h_terms = {
            hy: (
                h0_table.probabilities([(vh_minus, hy)]),
                h0_table.probabilities([(vh_plus, hy)]),
                h0_table.probabilities([(vh_minus, hy), (vh_plus, hy)]),
            )
            for hy in range(2 * nh)
        }
        for gx in range(2 * ng):
            gm, gp, gb = g_terms[gx]
            fx = bs.g_vertex_to_whole(gx)
            for hy in range(2 * nh):
                hm, hp, hb = h_terms[hy]
                fy = bs.h_vertex_to_whole(hy)
                lhs = f_table.probabilities([(fx, fy)])
                cross_checks += len(weights)
                for wi in range(len(weights)):
                    rhs = gm[wi] * hm[wi] + gp[wi] * hp[wi] - gb[wi] * hb[wi]
                    if lhs[wi] != rhs:
                        failures.append(
                            f"cross mismatch: graph {index} split at {split.cut_vertex} "
                            f"pair ({gx},{hy}) weight {wi}"
                        )
    return {
        "collapse_checks": collapse_checks,
        "cross_checks": cross_checks,
        "failures": failures,
    }


def run_engine_vs_enumeration(base: Graph, index: int, n_weights: int = 10) -> dict:
    """Compare the decomposition engine against exhaustive enumeration for
    every bunkbed vertex pair under random symmetric weights."""
    bb = bunkbed(base)
    weights = random_symmetric_weights(bb, n_weights, seed=77001 + index)
    table = DistTable(
        connectivity_distributions(bb.total, [w.to_weight() for w in weights], cap=CAP)
    )
    n2 = bb.total.vertex_count
    checks = 0
    failures: list[str] = []
    for a in range(n2):
        for b in range(a, n2):
            brute = table.probabilities([(a, b)])
            for wi, w in enumerate(weights):
                dec = two_point_probability(base, w, a, b, cap=CAP).value
                checks += 1
                if dec != brute[wi]:
                    failures.append(
                        f"engine mismatch: graph {index} pair ({a},{b}) weight {wi}: "
                        f"{dec} vs {brute[wi]}"
                    )
    return {"checks": checks, "failures": failures}
