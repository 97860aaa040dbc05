"""Finite simple graphs with stable edge indexing, bunkbed construction,
gluing, and cut-vertex / split machinery.

Vertices are dense integers 0..n-1.  The edge list order is significant:
it defines the global edge index that every other module (weights, subset
enumeration, file formats) keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache


class GraphParseError(ValueError):
    """Raised when a graph text document cannot be parsed."""


class NotACutVertexError(ValueError):
    """Raised when an operation requires a cut vertex and the vertex is not one."""


class DegenerateSplitError(ValueError):
    """Raised when a split selects no components or all of them."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    Edges are stored as (min, max) pairs in construction order; no
    self-loops, no duplicates.  `labels`, when present, holds one display
    name per vertex (entries may be None).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str | None, ...] | None = None

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        normalized = []
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.vertex_count} vertices")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            normalized.append(e)
        object.__setattr__(self, "edges", tuple(normalized))
        if self.labels is not None and len(self.labels) != self.vertex_count:
            raise ValueError("labels length must equal vertex_count")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, tuple of (neighbor, edge index)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return tuple(tuple(a) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def components(self, skip: int | None = None) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest
        member.  With `skip`, that vertex is removed first."""
        seen = [False] * self.vertex_count
        if skip is not None:
            seen[skip] = True
        comps = []
        for s in range(self.vertex_count):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                u = stack.pop()
                for w, _ in self.adjacency[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def induced(self, vertices: list[int]) -> tuple["Graph", tuple[int, ...], tuple[int, ...]]:
        """Induced subgraph on `vertices` (given order defines new indices).

        Returns (subgraph, vertex_embedding, edge_embedding) where the
        embeddings map subgraph indices back to indices in self.
        """
        index_of = {v: i for i, v in enumerate(vertices)}
        if len(index_of) != len(vertices):
            raise ValueError("duplicate vertices in induced set")
        sub_edges = []
        edge_map = []
        for i, (u, v) in enumerate(self.edges):
            if u in index_of and v in index_of:
                sub_edges.append((index_of[u], index_of[v]))
                edge_map.append(i)
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[v] for v in vertices)
        sub = Graph(len(vertices), tuple(sub_edges), labels)
        return sub, tuple(vertices), tuple(edge_map)


@dataclass(frozen=True)
class BunkbedGraph:
    """Two tagged copies of a base graph joined by one post edge per vertex.

    Layout (fixed, relied on throughout): base vertex x has copies
    x (lower) and x + n (upper).  Base edge e contributes total edges
    2e (lower copy) and 2e+1 (upper copy); the post of vertex x is total
    edge 2*|E(base)| + x.
    """

    base: Graph
    total: Graph
    vertex_map: tuple[tuple[int, int], ...]

    def minus_vertex(self, x: int) -> int:
        return self.vertex_map[x][0]

    def plus_vertex(self, x: int) -> int:
        return self.vertex_map[x][1]

    def minus_edge(self, e: int) -> int:
        return 2 * e

    def plus_edge(self, e: int) -> int:
        return 2 * e + 1

    def post_edge(self, x: int) -> int:
        return 2 * self.base.edge_count + x


@lru_cache(maxsize=4096)
def bunkbed(base: Graph) -> BunkbedGraph:
    """Build the bunkbed of `base`: two copies plus one post edge per vertex.

    Graphs are immutable, so results are cached; repeated construction of
    the same side graphs dominates the decomposition engine otherwise.  The
    kernel's layer-paired edge order is built for exactly the layout that
    has_bunkbed_layout recognizes, so a change to the vertex numbering here
    must change it too.
    """
    n = base.vertex_count
    edges: list[tuple[int, int]] = []
    for u, v in base.edges:
        edges.append((u, v))
        edges.append((u + n, v + n))
    for x in range(n):
        edges.append((x, x + n))
    labels = None
    if base.labels is not None:
        lower = tuple(None if s is None else s + "-" for s in base.labels)
        upper = tuple(None if s is None else s + "+" for s in base.labels)
        labels = lower + upper
    total = Graph(2 * n, tuple(edges), labels)
    vmap = tuple((x, x + n) for x in range(n))
    return BunkbedGraph(base=base, total=total, vertex_map=vmap)


def has_bunkbed_layout(vertex_count: int, edges) -> bool:
    """Whether the vertices and edges have the layout `bunkbed` gives its
    total graph: 2h vertices, copies x and x + h, and the post edge
    (x, x + h) for every x < h."""
    h, odd = divmod(vertex_count, 2)
    return not odd and {(x, x + h) for x in range(h)} <= set(edges)


def glue(a_graph: Graph, a: int, b_graph: Graph, b: int) -> tuple[Graph, int]:
    """Disjoint union of the two graphs with vertices a and b identified.

    Vertices of `a_graph` keep their indices; vertices of `b_graph` are
    appended in order, except b which maps to a.  Returns the glued graph
    and the index of the identified vertex.
    """
    if not 0 <= a < a_graph.vertex_count:
        raise ValueError(f"vertex {a} not in first graph")
    if not 0 <= b < b_graph.vertex_count:
        raise ValueError(f"vertex {b} not in second graph")
    na = a_graph.vertex_count
    remap = {}
    nxt = na
    for v in range(b_graph.vertex_count):
        if v == b:
            remap[v] = a
        else:
            remap[v] = nxt
            nxt += 1
    edges = list(a_graph.edges)
    existing = set(edges)
    for u, v in b_graph.edges:
        e = (remap[u], remap[v])
        e = e if e[0] < e[1] else (e[1], e[0])
        # the graphs are disjoint before identification, so no edge can collide
        assert e not in existing, "gluing produced a duplicate edge"
        existing.add(e)
        edges.append(e)
    return Graph(nxt, tuple(edges)), a


def cut_vertices(g: Graph) -> set[int]:
    """Vertices whose removal strictly increases the number of components.

    Iterative lowpoint depth-first search; O(V + E).
    """
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    result: set[int] = set()
    adj = g.adjacency
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        # stack entries: (vertex, parent, iterator position)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, parent, i = stack.pop()
            if i < len(adj[u]):
                stack.append((u, parent, i + 1))
                w = adj[u][i][0]
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    if u == root:
                        root_children += 1
                    stack.append((w, u, 0))
                elif w != parent:
                    if disc[w] < low[u]:
                        low[u] = disc[w]
            else:
                # u is fully explored; fold its lowpoint into its parent
                if parent != -1:
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if parent != root and low[u] >= disc[parent]:
                        result.add(parent)
        if root_children > 1:
            result.add(root)
    return result


def two_connected(g: Graph) -> bool:
    """True iff g is connected, has at least 3 vertices, and no cut vertex."""
    return g.vertex_count >= 3 and g.is_connected() and not cut_vertices(g)


@dataclass(frozen=True)
class SplitAtCutVertex:
    """A graph cut open at a cut vertex v into two sides sharing only v.

    side_g / side_h are induced subgraphs; the *_vertices and *_edges
    tuples map side indices back to indices in `whole`, and the edge
    images partition the whole edge set.
    """

    whole: Graph
    cut_vertex: int
    side_g: Graph
    side_h: Graph
    g_vertices: tuple[int, ...]
    g_edges: tuple[int, ...]
    h_vertices: tuple[int, ...]
    h_edges: tuple[int, ...]

    @property
    def cut_in_g(self) -> int:
        return self.g_vertices.index(self.cut_vertex)

    @property
    def cut_in_h(self) -> int:
        return self.h_vertices.index(self.cut_vertex)

    @cached_property
    def g_vertex_index(self) -> dict[int, int]:
        return {w: i for i, w in enumerate(self.g_vertices)}

    @cached_property
    def h_vertex_index(self) -> dict[int, int]:
        return {w: i for i, w in enumerate(self.h_vertices)}


def split_at(g: Graph, v: int, side_selector) -> SplitAtCutVertex:
    """Split g at cut vertex v.

    `side_selector` is a collection of indices into g.components(skip=v);
    the selected components plus v form side_g, the rest plus v form
    side_h.  Empty or full selections are rejected as degenerate.
    """
    if v not in cut_vertices(g):
        raise NotACutVertexError(f"vertex {v} is not a cut vertex")
    comps = g.components(skip=v)
    chosen = set(side_selector)
    if not chosen.issubset(range(len(comps))):
        raise ValueError(f"component indices out of range (have {len(comps)} components)")
    if not chosen or len(chosen) == len(comps):
        raise DegenerateSplitError("a split must select a nonempty proper subset of components")
    g_verts = sorted({v} | {w for i in chosen for w in comps[i]})
    h_verts = sorted({v} | {w for i in range(len(comps)) if i not in chosen for w in comps[i]})
    side_g, gv, ge = g.induced(g_verts)
    side_h, hv, he = g.induced(h_verts)
    # v is the only shared vertex, so every whole edge lands in exactly one side
    assert len(ge) + len(he) == g.edge_count
    return SplitAtCutVertex(
        whole=g,
        cut_vertex=v,
        side_g=side_g,
        side_h=side_h,
        g_vertices=gv,
        g_edges=ge,
        h_vertices=hv,
        h_edges=he,
    )


def all_splits(g: Graph):
    """Yield every SplitAtCutVertex of g: every cut vertex and every
    nonempty proper component selection."""
    from itertools import combinations

    for v in sorted(cut_vertices(g)):
        comps = g.components(skip=v)
        k = len(comps)
        for r in range(1, k):
            for chosen in combinations(range(k), r):
                yield split_at(g, v, chosen)


# ---------------------------------------------------------------------------
# Text format: `vertices N`, `edge u v`, optional `label u name`, `#` comments.
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the one-graph-per-file text format."""
    vertex_count = None
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "vertices" and len(parts) == 2:
                if vertex_count is not None:
                    raise GraphParseError(f"line {lineno}: repeated vertices line")
                vertex_count = int(parts[1])
            elif parts[0] == "edge" and len(parts) == 3:
                edges.append((int(parts[1]), int(parts[2])))
            elif parts[0] == "label" and len(parts) >= 3:
                labels[int(parts[1])] = " ".join(parts[2:])
            else:
                raise GraphParseError(f"line {lineno}: unrecognized line {line!r}")
        except ValueError as exc:
            if isinstance(exc, GraphParseError):
                raise
            raise GraphParseError(f"line {lineno}: {exc}") from exc
    if vertex_count is None:
        raise GraphParseError("missing 'vertices N' line")
    label_tuple = None
    if labels:
        if not all(0 <= k < vertex_count for k in labels):
            raise GraphParseError("label refers to a vertex out of range")
        label_tuple = tuple(labels.get(i) for i in range(vertex_count))
    try:
        return Graph(vertex_count, tuple(edges), label_tuple)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from exc


def format_graph(g: Graph) -> str:
    """Render a graph in the text format; exact inverse of parse_graph."""
    lines = [f"vertices {g.vertex_count}"]
    if g.labels is not None:
        for i, name in enumerate(g.labels):
            if name is not None:
                lines.append(f"label {i} {name}")
    for u, v in g.edges:
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"
