"""Independent reference implementations used only by the tests.

Everything here is deliberately written against different primitives than
the package (breadth-first search instead of union-find, direct Fraction
sums instead of integer tables, tensor contraction instead of per-point
evaluation) so that agreement between the two is meaningful.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import networkx as nx
import numpy as np

from bunkbed.graphs import Graph, bunkbed
from bunkbed.percolation import SymmetricWeight, Weight


def component_count(n: int, edges, skip: int | None = None) -> int:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if u == skip or v == skip:
            continue
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    if skip is not None:
        seen[skip] = True
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return comps


def naive_cut_vertices(g: Graph) -> set[int]:
    """Delete each vertex in turn and count components."""
    base = component_count(g.vertex_count, g.edges)
    out = set()
    for v in range(g.vertex_count):
        if component_count(g.vertex_count, g.edges, skip=v) > base:
            out.add(v)
    return out


def bfs_reachable(n: int, edges, sources) -> set[int]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set(sources)
    stack = list(sources)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def naive_event_probability(w: Weight, positive=(), negative=(), restriction=None) -> Fraction:
    """Direct Fraction sum over all subsets of the (possibly masked) edges."""
    g = w.graph
    if restriction is None:
        edge_ids = list(range(g.edge_count))
    else:
        edge_ids = sorted(restriction)
    total = Fraction(0)
    for r in range(len(edge_ids) + 1):
        for combo in itertools.combinations(edge_ids, r):
            open_edges = [g.edges[e] for e in combo]
            reach = {}
            ok = True
            for x, y in positive:
                if x not in reach:
                    reach[x] = bfs_reachable(g.vertex_count, open_edges, [x])
                if y not in reach[x]:
                    ok = False
                    break
            if ok:
                for x, y in negative:
                    if x not in reach:
                        reach[x] = bfs_reachable(g.vertex_count, open_edges, [x])
                    if y in reach[x]:
                        ok = False
                        break
            if not ok:
                continue
            p = Fraction(1)
            chosen = set(combo)
            for e in edge_ids:
                p *= w.values[e] if e in chosen else 1 - w.values[e]
            total += p
    return total


def naive_terminal_distribution(w: Weight, terminals) -> dict[frozenset, Fraction]:
    """The measure of each partition of `terminals` into open components,
    as a set of blocks, by a direct Fraction sum over all edge subsets;
    partitions of measure 0 are left out."""
    g = w.graph
    out: dict[frozenset, Fraction] = {}
    for r in range(g.edge_count + 1):
        for combo in itertools.combinations(range(g.edge_count), r):
            p = Fraction(1)
            for e in range(g.edge_count):
                p *= w.values[e] if e in combo else 1 - w.values[e]
            if not p:
                continue
            open_edges = [g.edges[e] for e in combo]
            reach = {s: bfs_reachable(g.vertex_count, open_edges, [s]) for s in terminals}
            blocks = frozenset(frozenset(t for t in terminals if t in reach[s]) for s in terminals)
            out[blocks] = out.get(blocks, Fraction(0)) + p
    return out


def frontier_counts(n: int, walk, terminals, branches, swap: int = 0) -> tuple[int, int]:
    """(width, states) of a walk that takes the edges `walk` in order, where
    branches[s] tells whether the s-th edge may open and may close.

    A non-terminal vertex is forgotten after the last edge it lies on.  The
    width is the most vertices met and not yet forgotten while an edge is
    taken; the states are the most partitions of the vertices not yet
    forgotten, over every subset of the edges taken so far that respects
    the branches (at least 1).  Found here by listing the subsets.

    With swap = h the walk runs over orbits of the layer swap
    x -> (x + h) mod n: it takes each edge but a post (x, x + h) together
    with the edge's image, and keeps a table only after a post or a pair.
    The states are then the most classes {P, image of P} among the
    partitions listed at those levels, after forgetting.
    """
    last = {}
    for s, edge in enumerate(walk):
        for x in edge:
            last[x] = s
    image = lambda x: (x + swap) % n
    levels = []  # (index of the level's last edge, forgotten by then)
    s = 0
    while s < len(walk):
        u, v = walk[s]
        if swap and v != image(u):
            assert sorted(map(image, walk[s])) == list(walk[s + 1]), "an edge beside its image"
            s += 1
        levels.append(s)
        s += 1
    width, states = 0, 1
    for s in range(len(walk)):
        forgotten = {x for x, t in last.items() if t < s and x not in terminals}
        met = {x for edge in walk[: s + 1] for x in edge}
        width = max(width, len(met - forgotten))
        if swap:
            if s not in levels:
                continue
            forgotten = {x for x, t in last.items() if t <= s and x not in terminals}
        kept = [x for x in range(n) if x not in forgotten]
        choices = [
            [bit for bit, allowed in ((True, may_open), (False, may_close)) if allowed]
            for may_open, may_close in branches[: s + 1]
        ]
        partitions = set()
        for bits in itertools.product(*choices):
            open_edges = [edge for edge, bit in zip(walk, bits) if bit]
            partitions.add(frozenset(
                frozenset(y for y in bfs_reachable(n, open_edges, [x]) if y in kept)
                for x in kept
            ))
        if swap:
            partitions = {
                frozenset((p, frozenset(frozenset(map(image, block)) for block in p)))
                for p in partitions
            }
        states = max(states, len(partitions))
    return width, states


def canonical_edge_set(n: int, edges) -> tuple:
    """Minimum edge-set representation over all vertex permutations."""
    best = None
    for p in itertools.permutations(range(n)):
        r = tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
        if best is None or r < best:
            best = r
    return best


def first_trees_by_pruefer(n: int) -> list[tuple[int, tuple]]:
    """The first labeled tree of each isomorphism class in lexicographic
    Pruefer order, as (vertex count, sorted-pair edges), from a full scan.

    All n^(n-2) sequences are decoded at once with the textbook rule (the
    smallest current leaf, found by a scan rather than a heap), and each
    tree is keyed by the multiset of its vertices' sorted distance rows
    (Floyd-Warshall over the whole batch) rather than by a rooted encoding.
    That key is an isomorphism invariant; it separates every class because
    it takes as many values as networkx counts trees, which is checked.
    """
    if n == 1:
        return [(1, ())]
    count = n ** (n - 2)
    rows = np.arange(count)
    seqs = np.empty((count, n - 2), dtype=np.int64)
    degree = np.ones((count, n), dtype=np.int8)
    for k in range(n - 2):
        seqs[:, k] = rows // n ** (n - 3 - k) % n
        degree[rows, seqs[:, k]] += 1
    edges = np.empty((count, n - 1, 2), dtype=np.int64)
    for k in range(n - 2):
        leaf = np.argmax(degree == 1, axis=1)
        edges[:, k, 0] = np.minimum(leaf, seqs[:, k])
        edges[:, k, 1] = np.maximum(leaf, seqs[:, k])
        degree[rows, leaf] = 0
        degree[rows, seqs[:, k]] -= 1
    last = degree == 1
    edges[:, n - 2, 0] = np.argmax(last, axis=1)
    edges[:, n - 2, 1] = n - 1 - np.argmax(last[:, ::-1], axis=1)

    dist = np.full((count, n, n), 63, dtype=np.int8)  # 63 + 63 still fits
    dist[:, range(n), range(n)] = 0
    for k in range(n - 1):
        dist[rows, edges[:, k, 0], edges[:, k, 1]] = 1
        dist[rows, edges[:, k, 1], edges[:, k, 0]] = 1
    for k in range(n):
        dist = np.minimum(dist, dist[:, :, k, None] + dist[:, None, k, :])
    dist.sort(axis=2)
    digits = np.zeros((count, n), dtype=np.int64)
    for j in range(n):
        digits = digits * n + dist[:, :, j]
    keys = np.sort(digits, axis=1)
    order = np.lexsort(keys.T[::-1])  # stable: a class's first tree leads its run
    keys = keys[order]
    first = order[np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]]
    assert len(first) == nx.number_of_nonisomorphic_trees(n)
    return [
        (n, tuple((int(u), int(v)) for u, v in edges[i])) for i in sorted(first)
    ]


# ---------------------------------------------------------------------------
# Exact evaluation of layer probabilities over a full symmetric weight grid.
#
# For a fixed base graph, P(event) is a polynomial in the symmetric weight
# coordinates: degree <= 2 in each base-edge value (two tied copies) and
# <= 1 in each post value.  Evaluating the 0/1 corner tensor of the full
# (untied) edge space and contracting each tied coordinate with its exact
# moment matrix yields every grid point at once, in integer arithmetic.
# ---------------------------------------------------------------------------


class BunkbedGridOracle:
    """Exact same-layer / cross-layer probabilities for every point of a
    symmetric weight product grid, for every vertex pair of a base graph."""

    def __init__(self, base: Graph, grid_values):
        self.base = base
        self.bb = bunkbed(base)
        self.grid = [Fraction(v) for v in grid_values]
        m = self.bb.total.edge_count
        if m > 20:
            raise ValueError(f"corner space 2^{m} too large for the grid oracle")
        n2 = self.bb.total.vertex_count
        edges = self.bb.total.edges
        labels = np.empty((1 << m, n2), dtype=np.uint8)
        for mask in range(1 << m):
            open_edges = [edges[e] for e in range(m) if (mask >> e) & 1]
            adj = [[] for _ in range(n2)]
            for u, v in open_edges:
                adj[u].append(v)
                adj[v].append(u)
            seen = [255] * n2
            for s in range(n2):
                if seen[s] != 255:
                    continue
                seen[s] = s
                stack = [s]
                while stack:
                    u = stack.pop()
                    for w in adj[u]:
                        if seen[w] == 255:
                            seen[w] = s
                            stack.append(w)
            labels[mask] = seen
        self._labels = labels
        self._m = m

        # moment matrices: pair rows over den^2, post rows over den
        pair_rows = []
        post_rows = []
        pair_dens = []
        post_dens = []
        for t in self.grid:
            a, b = t.numerator, t.denominator
            pair_rows.append([(b - a) * (b - a), (b - a) * a, a * (b - a), a * a])
            pair_dens.append(b * b)
            post_rows.append([b - a, a])
            post_dens.append(b)
        self._pair_matrix = np.array(pair_rows, dtype=np.int64)
        self._post_matrix = np.array(post_rows, dtype=np.int64)

        ne = base.edge_count
        nv = base.vertex_count
        dens = [np.array(pair_dens, dtype=np.int64)] * ne + [
            np.array(post_dens, dtype=np.int64)
        ] * nv
        den = np.int64(1)
        for d in dens:
            den = np.multiply.outer(den, d)
        self.denominators = den  # shape (k,)*(ne+nv), axis order: base edges then posts
        assert int(self.denominators.max()) < (1 << 62)

        # einsum plan: corner axis j corresponds to total edge m-1-j
        letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        corner_sub = letters[:m]
        operands_sub = []
        out_sub = []
        next_letter = m
        self._operand_matrices = []
        for i in range(ne):
            g_letter = letters[next_letter]
            next_letter += 1
            plus_axis = m - 1 - (2 * i + 1)
            minus_axis = m - 1 - (2 * i)
            operands_sub.append(g_letter + corner_sub[plus_axis] + corner_sub[minus_axis])
            self._operand_matrices.append(
                self._pair_matrix.reshape(len(self.grid), 2, 2)
            )
            out_sub.append(g_letter)
        for x in range(nv):
            g_letter = letters[next_letter]
            next_letter += 1
            axis = m - 1 - (2 * ne + x)
            operands_sub.append(g_letter + corner_sub[axis])
            self._operand_matrices.append(self._post_matrix)
            out_sub.append(g_letter)
        self._einsum = corner_sub + "," + ",".join(operands_sub) + "->" + "".join(out_sub)

        # normalization self-test: the sure event must integrate to 1
        ones = np.ones(1 << m, dtype=np.int64)
        norm = self._contract(ones)
        assert (norm == self.denominators).all()

    def _contract(self, indicator: np.ndarray) -> np.ndarray:
        corner = indicator.astype(np.int64).reshape((2,) * self._m)
        return np.einsum(self._einsum, corner, *self._operand_matrices, optimize=True)

    def event_tensor(self, pairs) -> np.ndarray:
        """Grid tensor of integer numerators for a conjunction of pair
        connectivity constraints (over self.denominators)."""
        ind = np.ones(1 << self._m, dtype=bool)
        for x, y in pairs:
            ind &= self._labels[:, x] == self._labels[:, y]
        return self._contract(ind)

    def delta_tensor(self, x: int, y: int) -> np.ndarray:
        """same_layer - cross_layer numerators over the whole grid."""
        bb = self.bb
        same = self.event_tensor([(bb.minus_vertex(x), bb.minus_vertex(y))])
        cross = self.event_tensor([(bb.minus_vertex(x), bb.plus_vertex(y))])
        return same - cross

    def weight_at(self, point) -> SymmetricWeight:
        """The symmetric weight at a grid point (base edge indices first,
        then post indices, matching the tensor axis order)."""
        ne = self.base.edge_count
        base_vals = tuple(self.grid[i] for i in point[:ne])
        post_vals = tuple(self.grid[i] for i in point[ne:])
        return SymmetricWeight(self.bb, base_vals, post_vals)

    def value_at(self, tensor: np.ndarray, point) -> Fraction:
        return Fraction(int(tensor[point]), int(self.denominators[point]))
