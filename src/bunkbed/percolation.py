"""Exact edge-percolation probability space.

Every edge e is independently open with probability mu(e); an atom is one
subset K of the edge set and has probability
prod_{e in K} mu(e) * prod_{e not in K} (1 - mu(e)).
All weights are rationals and all arithmetic is exact: event probabilities
are sums of atom probabilities, computed as integer numerator sums over the
product of the per-edge denominators.

One kernel, _partition_numerators, does every enumeration: it walks the
edges once, keeping one integer numerator per weight for each partition of
the vertices into open components, so atoms that leave the same partition
share all later work.  Edges outside a spec's restriction mask never enter
the enumeration; their factors sum to 1 and are marginalized analytically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Sequence

from .graphs import BunkbedGraph, Graph

DEFAULT_ENUMERATION_CAP = 30

# below this many atoms a process pool costs more than it saves
PARALLEL_MIN_ATOMS = 1 << 18

ZERO = Fraction(0)
ONE = Fraction(1)


class EnumerationCapError(RuntimeError):
    """Raised when an exact enumeration would exceed the configured cap."""

    def __init__(self, needed: int, cap: int, context: str = ""):
        self.needed = needed
        self.cap = cap
        self.context = context
        where = f" ({context})" if context else ""
        super().__init__(
            f"enumeration over {needed} edges exceeds the cap of {cap}{where}"
        )


class WeightParseError(ValueError):
    """Raised when a weight file cannot be parsed or does not cover the graph."""


def _check_probability(value: Fraction, what: str) -> Fraction:
    if not ZERO <= value <= ONE:
        raise ValueError(f"{what} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class Weight:
    """A per-edge rational open probability on a fixed graph."""

    graph: Graph
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.graph.edge_count:
            raise ValueError(
                f"need {self.graph.edge_count} edge values, got {len(self.values)}"
            )
        vals = tuple(Fraction(v) for v in self.values)
        for i, v in enumerate(vals):
            _check_probability(v, f"weight of edge {i}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def uniform(cls, graph: Graph, p) -> "Weight":
        return cls(graph, (Fraction(p),) * graph.edge_count)

    def replace(self, edge: int, value) -> "Weight":
        vals = list(self.values)
        vals[edge] = Fraction(value)
        return Weight(self.graph, tuple(vals))


@dataclass(frozen=True)
class SymmetricWeight:
    """A weight on a bunkbed whose two copies of each base edge are equal.

    The symmetry is structural: only one value per base edge is stored, so
    unequal copies cannot be represented.  Post edges are unconstrained.
    """

    bunkbed: BunkbedGraph
    base_values: tuple[Fraction, ...]
    post_values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.base_values) != self.bunkbed.base.edge_count:
            raise ValueError("one value per base edge required")
        if len(self.post_values) != self.bunkbed.base.vertex_count:
            raise ValueError("one value per base vertex required")
        bv = tuple(Fraction(v) for v in self.base_values)
        pv = tuple(Fraction(v) for v in self.post_values)
        for i, v in enumerate(bv):
            _check_probability(v, f"weight of base edge {i}")
        for i, v in enumerate(pv):
            _check_probability(v, f"weight of post {i}")
        object.__setattr__(self, "base_values", bv)
        object.__setattr__(self, "post_values", pv)

    @classmethod
    def uniform(cls, bb: BunkbedGraph, p) -> "SymmetricWeight":
        f = Fraction(p)
        return cls(bb, (f,) * bb.base.edge_count, (f,) * bb.base.vertex_count)

    def to_weight(self) -> Weight:
        """The induced weight on the bunkbed's total graph."""
        values = [ZERO] * self.bunkbed.total.edge_count
        for e, v in enumerate(self.base_values):
            values[self.bunkbed.minus_edge(e)] = v
            values[self.bunkbed.plus_edge(e)] = v
        for x, v in enumerate(self.post_values):
            values[self.bunkbed.post_edge(x)] = v
        return Weight(self.bunkbed.total, tuple(values))


@dataclass(frozen=True)
class ConnectivitySpec:
    """A conjunction of pairwise connectivity constraints.

    positive pairs must be connected, negative pairs must not be.  With a
    restriction, connectivity is read from K intersected with the given
    edge-index mask and only masked edges are enumerated; the event must
    not depend on edges outside the mask.
    """

    positive: tuple[tuple[int, int], ...] = ()
    negative: tuple[tuple[int, int], ...] = ()
    restriction: frozenset[int] | None = None

    @classmethod
    def connected(cls, x: int, y: int, restriction=None) -> "ConnectivitySpec":
        r = None if restriction is None else frozenset(restriction)
        return cls(positive=((x, y),), restriction=r)

    def validate(self, graph: Graph) -> None:
        for x, y in self.positive + self.negative:
            if not (0 <= x < graph.vertex_count and 0 <= y < graph.vertex_count):
                raise ValueError(f"pair ({x}, {y}) out of range")
        if self.restriction is not None:
            for e in self.restriction:
                if not 0 <= e < graph.edge_count:
                    raise ValueError(f"restriction edge {e} out of range")


@dataclass(frozen=True)
class ProbabilityReport:
    """An exact probability plus how it was obtained.

    atoms_evaluated is the total size of the enumerated atom spaces; it is
    a deterministic function of the inputs, independent of internal result
    caching.
    """

    value: Fraction
    method: str  # 'brute_force' or 'decomposition'
    atoms_evaluated: int
    elapsed: float

    def __post_init__(self):
        _check_probability(self.value, "probability")


def atom_probability(w: Weight, edge_subset) -> Fraction:
    """Probability of the single atom K = edge_subset."""
    k = set(edge_subset)
    p = ONE
    for i, v in enumerate(w.values):
        p *= v if i in k else ONE - v
    return p


# ---------------------------------------------------------------------------
# Enumeration core
# ---------------------------------------------------------------------------


def _partition_numerators(
    n: int,
    edges: Sequence[tuple[int, int]],
    factors: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
    count: int,
    start: int = 0,
    stop: int | None = None,
) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The exact integer numerator of every partition into open components.

    The one enumeration loop of the package.  An atom opens or closes each
    of the m `edges`; read as a binary number whose highest bit is
    edges[0], the atoms are 0 .. 2^m - 1, and only atoms with
    start <= atom < stop are summed (all of them by default), so disjoint
    slices add up exactly to the whole.  factors[i] holds the open and the
    closed numerator of edge i under each of `count` weights.  Returns the
    partitions, each as the smallest vertex of every vertex's component,
    and one column of numerators per weight.

    The edges are walked in order, keeping one entry per partition: all
    atoms whose edges so far leave the same components share it and its
    numerator per weight.  An edge inside one component multiplies the
    entry by the edge's whole denominator; an edge between two components
    splits it into a closed and a merged entry.  A branch whose factor is 0
    under every weight is dropped.  A slice is the atoms below stop minus
    those below start: the one prefix still equal to a bound's is carried
    apart, and each time the bound has a 1 bit, the atoms that close that
    edge fall below the bound and join the table, negated for start.
    """
    m = len(edges)
    if stop is None:
        stop = 1 << m
    # character i of a key names the smallest vertex of vertex i's component,
    # so merging two components is one str.replace
    first = "".join(map(chr, range(n)))
    table: dict[str, tuple[int, ...]] = {}
    held = []  # [bound, key, numerators] of the prefix equal to the bound's
    if start < stop:
        if stop >> m:
            table[first] = (1,) * count
        else:
            held.append([stop, first, (1,) * count])
        if start:
            held.append([start, first, (-1,) * count])
    for i, (u, v) in enumerate(edges):
        opens, closeds = factors[i]
        wholes = tuple(map(add, opens, closeds))
        can_open, can_close = any(opens), any(closeds)
        nxt: dict[str, tuple[int, ...]] = {}
        get = nxt.get
        while table:  # popped, so that one level at a time is held
            lab, nums = table.popitem()
            a, b = lab[u], lab[v]
            if a == b:
                vals = tuple(map(mul, nums, wholes))
                old = get(lab)
                nxt[lab] = vals if old is None else tuple(map(add, old, vals))
                continue
            if can_close:
                vals = tuple(map(mul, nums, closeds))
                old = get(lab)
                nxt[lab] = vals if old is None else tuple(map(add, old, vals))
            if can_open:
                key = lab.replace(b, a) if a < b else lab.replace(a, b)
                vals = tuple(map(mul, nums, opens))
                old = get(key)
                nxt[key] = vals if old is None else tuple(map(add, old, vals))
        for path in held:
            bound, lab, nums = path
            closed = tuple(map(mul, nums, closeds))
            if bound >> (m - 1 - i) & 1:
                old = get(lab)
                nxt[lab] = closed if old is None else tuple(map(add, old, closed))
                a, b = sorted((lab[u], lab[v]))
                path[1:] = lab.replace(b, a), tuple(map(mul, nums, opens))
            else:
                path[2] = closed
        table = nxt
    labels: list[tuple[int, ...]] = []
    columns: list[list[int]] = [[] for _ in range(count)]
    while table:
        lab, nums = table.popitem()
        if any(nums):  # a partition met only by atoms of the other slices
            labels.append(tuple(map(ord, lab)))
            for column, num in zip(columns, nums):
                column.append(num)
    return labels, columns


def _enumerated_edges(graph: Graph, restriction, cap: int) -> list[int]:
    """The edge indices an enumeration walks, within the cap."""
    edges = list(range(graph.edge_count)) if restriction is None else sorted(restriction)
    if len(edges) > cap:
        raise EnumerationCapError(len(edges), cap)
    return edges


def _distributions(
    graph: Graph,
    weights: Sequence[Weight],
    edges: list[int],
    restriction: tuple[int, ...] | None,
    start: int = 0,
    stop: int | None = None,
) -> list[ConnectivityDistribution]:
    """Run the kernel over `edges` for every weight at once."""
    factors = []
    denominators = [1] * len(weights)
    for e in edges:
        values = [w.values[e] for w in weights]
        factors.append((
            tuple(p.numerator for p in values),
            tuple(p.denominator - p.numerator for p in values),
        ))
        denominators = [d * p.denominator for d, p in zip(denominators, values)]
    labels, columns = _partition_numerators(
        graph.vertex_count, [graph.edges[e] for e in edges], factors, len(weights), start, stop
    )
    return [
        ConnectivityDistribution(graph, restriction, labels, nums, d)
        for nums, d in zip(columns, denominators)
    ]


def event_probability(
    w: Weight,
    spec: ConnectivitySpec,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> ProbabilityReport:
    """Exact probability of the event by exhaustive enumeration.

    Sums the measure of every edge subset satisfying all positive and
    negative constraints.  With a restriction only masked edges are
    enumerated (2^|mask| atoms); unmasked edges marginalize to 1.
    """
    t0 = time.perf_counter()
    spec.validate(w.graph)
    edges = _enumerated_edges(w.graph, spec.restriction, cap)
    atoms = 1 << len(edges)
    value = None
    if threads > 1 and atoms >= PARALLEL_MIN_ATOMS:
        value = _parallel_event(w, edges, spec, atoms, threads)
    if value is None:
        value = _slice_probability((w, edges, spec, 0, atoms))
    return ProbabilityReport(
        value=value,
        method="brute_force",
        atoms_evaluated=atoms,
        elapsed=time.perf_counter() - t0,
    )


def _slice_probability(task) -> Fraction:
    """The event's measure over one slice of the atoms."""
    w, edges, spec, start, stop = task
    return _distributions(w.graph, [w], edges, None, start, stop)[0].probability(spec)


def _parallel_event(w, edges, spec, atoms, threads) -> Fraction | None:
    """Split the atoms into one slice per worker and add the exact parts.

    Returns None if a worker pool cannot be created; the caller then falls
    back to the sequential path.
    """
    from concurrent.futures import ProcessPoolExecutor

    step = -(-atoms // threads)
    tasks = [(w, edges, spec, lo, min(lo + step, atoms)) for lo in range(0, atoms, step)]
    try:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return sum(pool.map(_slice_probability, tasks), ZERO)
    except OSError:
        return None


def connection_probability(
    w: Weight,
    x: int,
    y: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
    restriction=None,
) -> Fraction:
    """Probability that x and y end up in one open component; 1 when x == y."""
    if x == y:
        if not 0 <= x < w.graph.vertex_count:
            raise ValueError(f"vertex {x} out of range")
        return ONE
    spec = ConnectivitySpec.connected(x, y, restriction=restriction)
    return event_probability(w, spec, cap=cap, threads=threads).value


def sum_over_all_atoms(w: Weight, *, cap: int = DEFAULT_ENUMERATION_CAP) -> Fraction:
    """Sum of all atom probabilities; must be exactly 1 (normalization self-test)."""
    dist = _distributions(w.graph, [w], _enumerated_edges(w.graph, None, cap), None)[0]
    return Fraction(sum(dist.numerators), dist.denominator)


# ---------------------------------------------------------------------------
# Aggregated enumeration: the full measure grouped by connectivity partition
# ---------------------------------------------------------------------------


@dataclass
class ConnectivityDistribution:
    """The exact measure of one enumeration, grouped by the partition of the
    vertex set into open components.

    labels[i] maps each vertex to the smallest vertex of its component, so
    every partition has one slot; numerators[i] is the total atom numerator
    landing on that partition, over `denominator`.  Any conjunction of
    connectivity constraints measurable over the enumerated edges can be
    read off exactly.
    """

    graph: Graph
    restriction: tuple[int, ...] | None
    labels: list[tuple[int, ...]]
    numerators: list[int]
    denominator: int

    def probability(self, spec: ConnectivitySpec) -> Fraction:
        spec.validate(self.graph)
        pos = spec.positive
        neg = spec.negative
        total = 0
        for lab, num in zip(self.labels, self.numerators):
            ok = True
            for x, y in pos:
                if lab[x] != lab[y]:
                    ok = False
                    break
            if ok:
                for x, y in neg:
                    if lab[x] == lab[y]:
                        ok = False
                        break
            if ok:
                total += num
        return Fraction(total, self.denominator)

    def connection(self, x: int, y: int) -> Fraction:
        if x == y:
            return ONE
        total = 0
        for lab, num in zip(self.labels, self.numerators):
            if lab[x] == lab[y]:
                total += num
        return Fraction(total, self.denominator)


def connectivity_distributions(
    graph: Graph,
    weights: Sequence[Weight],
    *,
    restriction=None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[ConnectivityDistribution]:
    """One enumeration shared by several weights on the same graph.

    The partitions the kernel walks are the same for every weight, so
    checking many weights against one graph costs one walk plus one
    multiply-add per weight per partition entry.
    """
    for w in weights:
        if w.graph is not graph and w.graph != graph:
            raise ValueError("all weights must live on the given graph")
    edges = _enumerated_edges(graph, restriction, cap)
    return _distributions(graph, weights, edges, None if restriction is None else tuple(edges))


def connectivity_distribution(
    w: Weight, *, restriction=None, cap: int = DEFAULT_ENUMERATION_CAP
) -> ConnectivityDistribution:
    return connectivity_distributions(w.graph, [w], restriction=restriction, cap=cap)[0]


# ---------------------------------------------------------------------------
# Weight file format
# ---------------------------------------------------------------------------


def parse_rational(token: str) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise WeightParseError(f"bad rational {token!r}") from exc


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parse_weight_lines(text: str):
    default = None
    edge_lines: dict[tuple[int, int], Fraction] = {}
    post_lines: dict[int, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "default" and len(parts) == 2:
                if default is not None:
                    raise WeightParseError(f"line {lineno}: repeated default")
                default = parse_rational(parts[1])
            elif parts[0] == "w" and len(parts) == 4:
                u, v = int(parts[1]), int(parts[2])
                key = (u, v) if u < v else (v, u)
                if key in edge_lines:
                    raise WeightParseError(f"line {lineno}: duplicate weight for edge {key}")
                edge_lines[key] = parse_rational(parts[3])
            elif parts[0] == "post" and len(parts) == 3:
                x = int(parts[1])
                if x in post_lines:
                    raise WeightParseError(f"line {lineno}: duplicate post weight for {x}")
                post_lines[x] = parse_rational(parts[2])
            else:
                raise WeightParseError(f"line {lineno}: unrecognized line {line!r}")
        except ValueError as exc:
            if isinstance(exc, WeightParseError):
                raise
            raise WeightParseError(f"line {lineno}: {exc}") from exc
    return default, edge_lines, post_lines


def parse_weight_file(text: str, graph: Graph) -> Weight:
    """Parse a plain weight file for `graph` (w lines keyed by endpoints)."""
    default, edge_lines, post_lines = _parse_weight_lines(text)
    if post_lines:
        raise WeightParseError("post lines are only valid for symmetric bunkbed weights")
    values = []
    for e in graph.edges:
        if e in edge_lines:
            values.append(edge_lines.pop(e))
        elif default is not None:
            values.append(default)
        else:
            raise WeightParseError(f"no weight for edge {e} and no default")
    if edge_lines:
        raise WeightParseError(f"weights given for unknown edges: {sorted(edge_lines)}")
    try:
        return Weight(graph, tuple(values))
    except ValueError as exc:
        raise WeightParseError(str(exc)) from exc


def parse_symmetric_weight_file(text: str, bb: BunkbedGraph) -> SymmetricWeight:
    """Parse a symmetric weight file: w lines keyed by base edge endpoints,
    post lines keyed by base vertex."""
    default, edge_lines, post_lines = _parse_weight_lines(text)
    base_values = []
    for e in bb.base.edges:
        if e in edge_lines:
            base_values.append(edge_lines.pop(e))
        elif default is not None:
            base_values.append(default)
        else:
            raise WeightParseError(f"no weight for base edge {e} and no default")
    if edge_lines:
        raise WeightParseError(f"weights given for unknown base edges: {sorted(edge_lines)}")
    post_values = []
    for x in range(bb.base.vertex_count):
        if x in post_lines:
            post_values.append(post_lines.pop(x))
        elif default is not None:
            post_values.append(default)
        else:
            raise WeightParseError(f"no weight for post {x} and no default")
    if post_lines:
        raise WeightParseError(f"posts given for unknown vertices: {sorted(post_lines)}")
    try:
        return SymmetricWeight(bb, tuple(base_values), tuple(post_values))
    except ValueError as exc:
        raise WeightParseError(str(exc)) from exc


def format_weight(w: Weight) -> str:
    """Render a plain weight with one explicit line per edge."""
    lines = [f"w {u} {v} {format_rational(val)}" for (u, v), val in zip(w.graph.edges, w.values)]
    return "\n".join(lines) + "\n"


def format_symmetric_weight(sw: SymmetricWeight) -> str:
    lines = [
        f"w {u} {v} {format_rational(val)}"
        for (u, v), val in zip(sw.bunkbed.base.edges, sw.base_values)
    ]
    lines += [f"post {x} {format_rational(val)}" for x, val in enumerate(sw.post_values)]
    return "\n".join(lines) + "\n"
