"""Cut-vertex reductions for bunkbed percolation.

Two exact transforms drive everything here.  Collapsing replaces one side
of a bunkbed, beyond a cut vertex v, by a single post-edge weight equal to
the side's own v- to v+ connection probability; every connection
probability between vertices of the kept side is preserved.  Crossing
combines the two sides' connection probabilities into the whole-graph
probability for a pair separated by v via a three-term
inclusion-exclusion.  two_point_probability composes both recursively
along the block structure.  What is left, a block with no usable cut
vertex or a joint term of a cross, goes to the enumeration kernel with
both layers of the queried base vertices as terminals, so it costs the
partitions of a narrow sweep front rather than of the whole piece; the
pair, cross-layer and joint queries on one piece share one cached
terminal distribution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graphs import BunkbedGraph, Graph, SplitAtCutVertex, bunkbed, cut_vertices, split_at
from .percolation import (
    DEFAULT_ENUMERATION_CAP,
    ONE,
    ZERO,
    ConnectivitySpec,
    EnumerationCapError,
    ProbabilityReport,
    SymmetricWeight,
    Weight,
    connectivity_distribution,
    event_probability,
)


@dataclass(frozen=True)
class BunkbedSplit:
    """Bunkbeds of the two sides of a split, with their edge and vertex
    images inside the bunkbed of the whole graph.

    h0 is the H-side bunkbed minus the shared post edge at the cut vertex,
    so the G and H0 edge images partition the whole bunkbed's edges.
    """

    split: SplitAtCutVertex
    f: BunkbedGraph
    g: BunkbedGraph
    h: BunkbedGraph
    h0: Graph
    g_edge_to_whole: tuple[int, ...]
    h_edge_to_whole: tuple[int, ...]
    h0_edge_to_h: tuple[int, ...]

    def g_vertex_to_whole(self, gv: int) -> int:
        ng = self.g.base.vertex_count
        return self.split.g_vertices[gv % ng] + (gv // ng) * self.f.base.vertex_count

    def h_vertex_to_whole(self, hv: int) -> int:
        nh = self.h.base.vertex_count
        return self.split.h_vertices[hv % nh] + (hv // nh) * self.f.base.vertex_count


def _bunkbed_edge_images(f: BunkbedGraph, side: BunkbedGraph, vertex_emb, edge_emb):
    """Total-edge map side -> whole, following the fixed bunkbed layout."""
    out = []
    for j in range(side.base.edge_count):
        out.append(f.minus_edge(edge_emb[j]))
        out.append(f.plus_edge(edge_emb[j]))
    for i in range(side.base.vertex_count):
        out.append(f.post_edge(vertex_emb[i]))
    return tuple(out)


def bunkbed_split(split: SplitAtCutVertex) -> BunkbedSplit:
    """Lift a base-graph split to the bunkbed level."""
    f = bunkbed(split.whole)
    g = bunkbed(split.side_g)
    h = bunkbed(split.side_h)
    g_map = _bunkbed_edge_images(f, g, split.g_vertices, split.g_edges)
    h_map = _bunkbed_edge_images(f, h, split.h_vertices, split.h_edges)
    shared_post = h.post_edge(split.cut_in_h)
    h0_edges = []
    h0_edge_to_h = []
    for i, e in enumerate(h.total.edges):
        if i == shared_post:
            continue
        h0_edges.append(e)
        h0_edge_to_h.append(i)
    h0 = Graph(h.total.vertex_count, tuple(h0_edges), h.total.labels)
    bs = BunkbedSplit(
        split=split,
        f=f,
        g=g,
        h=h,
        h0=h0,
        g_edge_to_whole=g_map,
        h_edge_to_whole=h_map,
        h0_edge_to_h=tuple(h0_edge_to_h),
    )
    whole_from_h0 = {h_map[e] for e in h0_edge_to_h}
    whole_from_g = set(g_map)
    assert not (whole_from_h0 & whole_from_g)
    assert len(whole_from_h0) + len(whole_from_g) == f.total.edge_count
    return bs


def _side_values(base_values, base: Graph, side: Graph, side_bb: BunkbedGraph, vertex_emb, edge_emb):
    """Restrict a value list on bunkbed(base).total to a side's bunkbed."""
    ne = base.edge_count
    out = [ZERO] * side_bb.total.edge_count
    for j in range(side.edge_count):
        e = edge_emb[j]
        out[side_bb.minus_edge(j)] = base_values[2 * e]
        out[side_bb.plus_edge(j)] = base_values[2 * e + 1]
    for i in range(side.vertex_count):
        out[side_bb.post_edge(i)] = base_values[2 * ne + vertex_emb[i]]
    return out


@dataclass(frozen=True)
class CollapsedSide:
    """Result of collapsing the G side of a split into a post-edge weight.

    reduced_weight agrees with the original weight on every kept edge and
    assigns the computed connection probability to the post edge at the cut
    vertex; every same-side connection probability is unchanged.
    """

    reduced_bunkbed: BunkbedGraph
    reduced_weight: Weight
    collapsed_post_value: Fraction
    split: SplitAtCutVertex

    @property
    def reduced_graph(self) -> Graph:
        return self.reduced_bunkbed.total

    def map_vertex(self, whole_total_vertex: int) -> int:
        """Map a vertex of the whole bunkbed into the reduced bunkbed."""
        n = self.split.whole.vertex_count
        vbar, layer = whole_total_vertex % n, whole_total_vertex // n
        idx = self.split.h_vertex_index.get(vbar)
        if idx is None:
            raise ValueError(f"vertex {whole_total_vertex} is not on the kept side")
        return idx + layer * self.split.side_h.vertex_count


def collapse_side(
    f: BunkbedGraph,
    mu: Weight,
    split: SplitAtCutVertex,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> CollapsedSide:
    """Collapse the G side of the split, preserving all H-side connection
    probabilities.  Works for arbitrary (not necessarily symmetric) weights.

    The collapsed post value is computed by exhaustive enumeration of the G
    side's bunkbed, so that side must fit under the cap.  `threads` is
    accepted for compatibility; the kernel runs in one process.
    """
    if split.whole != f.base:
        raise ValueError("split does not belong to the given bunkbed's base graph")
    if mu.graph != f.total:
        raise ValueError("weight does not live on the bunkbed's total graph")
    bs = bunkbed_split(split)
    g_vals = _side_values(mu.values, f.base, split.side_g, bs.g, split.g_vertices, split.g_edges)
    ng = split.side_g.vertex_count
    vm = split.cut_in_g
    try:
        post_value = event_probability(
            Weight(bs.g.total, tuple(g_vals)),
            ConnectivitySpec.connected(vm, vm + ng),
            cap=cap,
        ).value
    except EnumerationCapError as exc:
        raise EnumerationCapError(
            exc.needed, exc.cap, context="collapsed side enumeration"
        ) from exc
    h_vals = _side_values(mu.values, f.base, split.side_h, bs.h, split.h_vertices, split.h_edges)
    h_vals[bs.h.post_edge(split.cut_in_h)] = post_value
    return CollapsedSide(
        reduced_bunkbed=bs.h,
        reduced_weight=Weight(bs.h.total, tuple(h_vals)),
        collapsed_post_value=post_value,
        split=split,
    )


def zero_post_weight(h: BunkbedGraph, mu: Weight, v: int) -> Weight:
    """The weight equal to mu except that the post edge of base vertex v is 0.

    Closing that post makes the bunkbed behave exactly like the graph with
    the post edge deleted: every connection probability not reading the
    post is unchanged, and the post itself can never be open.
    """
    if mu.graph != h.total:
        raise ValueError("weight does not live on the bunkbed's total graph")
    if not 0 <= v < h.base.vertex_count:
        raise ValueError(f"base vertex {v} out of range")
    return mu.replace(h.post_edge(v), ZERO)


@dataclass(frozen=True)
class CrossSideTerms:
    """The six side probabilities combined when a pair straddles a cut vertex.

    g_* live in the side containing x (connection of x to the cut vertex's
    two copies, and to both jointly); h0_* are the same quantities from y's
    side with the shared post edge removed.
    """

    g_minus: Fraction
    g_plus: Fraction
    g_both: Fraction
    h0_minus: Fraction
    h0_plus: Fraction
    h0_both: Fraction

    def __post_init__(self):
        for name in ("g_minus", "g_plus", "g_both", "h0_minus", "h0_plus", "h0_both"):
            v = getattr(self, name)
            if not ZERO <= v <= ONE:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.g_both > min(self.g_minus, self.g_plus):
            raise ValueError("joint term exceeds a single term on the g side")
        if self.h0_both > min(self.h0_minus, self.h0_plus):
            raise ValueError("joint term exceeds a single term on the h0 side")


def cross_side_probability(terms: CrossSideTerms) -> Fraction:
    """Combine the six terms by inclusion-exclusion over which copy of the
    cut vertex carries the connection."""
    return (
        terms.g_minus * terms.h0_minus
        + terms.g_plus * terms.h0_plus
        - terms.g_both * terms.h0_both
    )


# ---------------------------------------------------------------------------
# Recursive decomposition engine
# ---------------------------------------------------------------------------


class _Stats:
    __slots__ = ("atoms",)

    def __init__(self):
        self.atoms = 0


# an entry is a distribution over at most four terminals (two base vertices,
# both layers), so at most 15 partitions: a deep cache stays small
@lru_cache(maxsize=256)
def _cached_distribution(graph: Graph, values: tuple, restriction, terminals: tuple, cap: int):
    """Enumeration results for one (graph, weight, terminal set), shared
    across the many pair and joint queries the engine makes against the
    same piece."""
    return connectivity_distribution(
        Weight(graph, values), restriction=restriction, cap=cap, terminals=terminals
    )


def _leaf_probability(total, values, spec, stats, cap, context):
    """One enumeration leaf of the engine: a pair or joint event on a piece
    with no further decomposition.  The terminals are both layers of every
    base vertex the spec names, so the same-layer, cross-layer and joint
    queries on one piece share one cached distribution."""
    m = total.edge_count if spec.restriction is None else len(spec.restriction)
    n = total.vertex_count // 2
    base = {x % n for pair in spec.positive + spec.negative for x in pair}
    terminals = tuple(sorted(base | {x + n for x in base}))
    try:
        dist = _cached_distribution(total, tuple(values), spec.restriction, terminals, cap)
    except EnumerationCapError as exc:
        raise EnumerationCapError(exc.needed, exc.cap, context=context) from exc
    stats.atoms += 1 << m
    return dist.probability(spec)


def _edges_within(base: Graph, vertex_set: set[int]) -> int:
    return sum(1 for u, v in base.edges if u in vertex_set and v in vertex_set)


def _solve(base, values, a, b, origin, stats, cap) -> Fraction:
    """Exact a~b connection probability in bunkbed(base) under `values`.

    `origin` maps current base vertices to vertices of the original query
    graph, for error reporting only.
    """
    if a == b:
        return ONE
    n = base.vertex_count
    abar, layer_a = a % n, a // n
    bbar, layer_b = b % n, b // n

    comps = base.components()
    if len(comps) > 1:
        comp_a = next(c for c in comps if abar in c)
        if bbar not in comp_a:
            return ZERO
        sub, vemb, eemb = base.induced(comp_a)
        sub_bb = bunkbed(sub)
        sub_vals = _side_values(values, base, sub, sub_bb, vemb, eemb)
        pos = {w: i for i, w in enumerate(vemb)}
        na = len(comp_a)
        return _solve(
            sub,
            sub_vals,
            pos[abar] + layer_a * na,
            pos[bbar] + layer_b * na,
            tuple(origin[w] for w in vemb),
            stats,
            cap,
        )

    cuts = sorted(cut_vertices(base))

    # Collapse first: strip every component hanging off a cut vertex away
    # from the query pair, preferring the collapse that removes most edges.
    best = None
    for v in cuts:
        comps_v = base.components(skip=v)
        chosen = [i for i, c in enumerate(comps_v) if abar not in c and bbar not in c]
        if not chosen:
            continue
        if len(chosen) == len(comps_v):
            # both query vertices project onto v itself; keep the cheapest
            # component on the query side so the split stays proper
            cheapest = min(
                chosen,
                key=lambda i: 2 * _edges_within(base, set(comps_v[i]) | {v}) + len(comps_v[i]),
            )
            chosen = [i for i in chosen if i != cheapest]
        side_set = {v} | {w for i in chosen for w in comps_v[i]}
        gain = 2 * _edges_within(base, side_set) + len(side_set) - 1
        if best is None or gain > best[0]:
            best = (gain, v, chosen)
    if best is not None:
        _, v, chosen = best
        split = split_at(base, v, chosen)
        g_bb = bunkbed(split.side_g)
        g_vals = _side_values(values, base, split.side_g, g_bb, split.g_vertices, split.g_edges)
        ng = split.side_g.vertex_count
        origin_g = tuple(origin[w] for w in split.g_vertices)
        post_value = _solve(
            split.side_g, g_vals, split.cut_in_g, split.cut_in_g + ng,
            origin_g, stats, cap,
        )
        h_bb = bunkbed(split.side_h)
        h_vals = _side_values(values, base, split.side_h, h_bb, split.h_vertices, split.h_edges)
        h_vals[h_bb.post_edge(split.cut_in_h)] = post_value
        nh = split.side_h.vertex_count
        hpos = split.h_vertex_index
        return _solve(
            split.side_h, h_vals,
            hpos[abar] + layer_a * nh,
            hpos[bbar] + layer_b * nh,
            tuple(origin[w] for w in split.h_vertices),
            stats, cap,
        )

    # Cross at a cut vertex separating the projections, choosing the one
    # whose larger side enumeration (the joint terms) is smallest.
    best_cross = None
    for v in cuts:
        if v == abar or v == bbar:
            continue
        comps_v = base.components(skip=v)
        ia = next(i for i, c in enumerate(comps_v) if abar in c)
        ib = next(i for i, c in enumerate(comps_v) if bbar in c)
        if ia == ib:
            continue
        eg = _edges_within(base, set(comps_v[ia]) | {v})
        eh = _edges_within(base, set(comps_v[ib]) | {v})
        m_g = 2 * eg + len(comps_v[ia]) + 1
        m_h0 = 2 * eh + len(comps_v[ib])
        cost = max(m_g, m_h0)
        if best_cross is None or cost < best_cross[0]:
            best_cross = (cost, v, ia)
    if best_cross is not None:
        _, v, ia = best_cross
        split = split_at(base, v, [ia])
        g_bb = bunkbed(split.side_g)
        g_vals = _side_values(values, base, split.side_g, g_bb, split.g_vertices, split.g_edges)
        ng = split.side_g.vertex_count
        a_g = split.g_vertex_index[abar] + layer_a * ng
        vg_minus = split.cut_in_g
        vg_plus = split.cut_in_g + ng
        origin_g = tuple(origin[w] for w in split.g_vertices)
        g_minus = _solve(split.side_g, g_vals, a_g, vg_minus, origin_g, stats, cap)
        g_plus = _solve(split.side_g, g_vals, a_g, vg_plus, origin_g, stats, cap)
        if g_minus == ZERO or g_plus == ZERO:
            g_both = ZERO
        else:
            g_both = _joint_probability(
                g_bb.total, g_vals, ((a_g, vg_minus), (a_g, vg_plus)),
                None, origin_g, stats, cap,
            )

        h_bb = bunkbed(split.side_h)
        h_vals = _side_values(values, base, split.side_h, h_bb, split.h_vertices, split.h_edges)
        nh = split.side_h.vertex_count
        b_h = split.h_vertex_index[bbar] + layer_b * nh
        vh_minus = split.cut_in_h
        vh_plus = split.cut_in_h + nh
        origin_h = tuple(origin[w] for w in split.h_vertices)
        zero_vals = list(h_vals)
        zero_vals[h_bb.post_edge(split.cut_in_h)] = ZERO
        h0_minus = _solve(split.side_h, zero_vals, vh_minus, b_h, origin_h, stats, cap)
        h0_plus = _solve(split.side_h, zero_vals, vh_plus, b_h, origin_h, stats, cap)
        if h0_minus == ZERO or h0_plus == ZERO:
            h0_both = ZERO
        else:
            mask = frozenset(range(h_bb.total.edge_count)) - {h_bb.post_edge(split.cut_in_h)}
            h0_both = _joint_probability(
                h_bb.total, h_vals, ((vh_minus, b_h), (vh_plus, b_h)),
                mask, origin_h, stats, cap,
            )
        terms = CrossSideTerms(
            g_minus=g_minus, g_plus=g_plus, g_both=g_both,
            h0_minus=h0_minus, h0_plus=h0_plus, h0_both=h0_both,
        )
        return cross_side_probability(terms)

    # No usable cut vertex: exhaustive enumeration of this block's bunkbed.
    bb = bunkbed(base)
    return _leaf_probability(
        bb.total, values, ConnectivitySpec.connected(a, b), stats, cap,
        context=f"block on base vertices {sorted(origin)}",
    )


def _joint_probability(total, values, pairs, restriction, origin, stats, cap):
    """Joint connectivity events are not decomposed further; they go to the
    generic enumeration engine."""
    spec = ConnectivitySpec(positive=tuple(pairs), restriction=restriction)
    return _leaf_probability(
        total, values, spec, stats, cap,
        context=f"joint term on base vertices {sorted(origin)}",
    )


def two_point_probability(
    base: Graph,
    weight: Weight | SymmetricWeight,
    a: int,
    b: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> ProbabilityReport:
    """Exact connection probability between two bunkbed vertices of base.

    Recursively collapses sides away from the pair, crosses separating cut
    vertices by inclusion-exclusion (joint terms via the kernel's
    terminal distributions), and falls back to the kernel on pieces with no
    usable cut vertex.  Accepts an arbitrary weight on bunkbed(base).total
    or a SymmetricWeight; collapsed weights are generally not symmetric, so
    all internal work is on arbitrary weights.  `threads` is accepted for
    compatibility; the kernel runs in one process.
    """
    t0 = time.perf_counter()
    if isinstance(weight, SymmetricWeight):
        if weight.bunkbed.base != base:
            raise ValueError("symmetric weight belongs to a different base graph")
        values = list(weight.to_weight().values)
    else:
        bb = bunkbed(base)
        if (weight.graph.vertex_count, weight.graph.edges) != (bb.total.vertex_count, bb.total.edges):
            raise ValueError("weight does not live on the bunkbed of the given base graph")
        values = list(weight.values)
    n2 = 2 * base.vertex_count
    for t in (a, b):
        if not 0 <= t < n2:
            raise ValueError(f"bunkbed vertex {t} out of range")
    stats = _Stats()
    value = _solve(base, values, a, b, tuple(range(base.vertex_count)), stats, cap)
    return ProbabilityReport(
        value=value,
        method="decomposition",
        atoms_evaluated=stats.atoms,
        elapsed=time.perf_counter() - t0,
    )
