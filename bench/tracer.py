"""Per-layer spans and work counters for the traced run.

The tracer wraps the program's public functions at run time, in every
bunkbed module namespace that holds them, so that names a module imported
from another one (reduction's `connectivity_distribution`, checker's
`two_point_probability`) are traced too.  A span opens when a call crosses
into a layer from another layer or from the benchmark; calls inside one
layer open none.  A layer's self time is its span time minus the time of
the spans opened inside it.  Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("graphs", "percolation", "reduction", "checker", "cli")
# public methods traced besides the module-level functions
METHODS = {
    "graphs": {"Graph": ("components", "induced")},
    "percolation": {
        "ConnectivityDistribution": ("probability", "connection"),
        "SymmetricWeight": ("to_weight",),
    },
}
# a common denominator this large leaves the int64 accumulation path
BIGINT_DENOMINATOR = 1 << 62
ATOM_METRICS = tuple(f"percolation.{m}" for m in ("atoms", "atoms_per_s", "max_edges", "slots", "bigint_atom_share"))
COUNTERS = ("atoms", "bigint_atoms", "max_edges", "slots", "pool_calls", "atoms_reported", "deltas")


def _enumerated_edges(graph, restriction) -> list[int]:
    return list(range(graph.edge_count)) if restriction is None else sorted(restriction)


def _denominator(values, edges) -> int:
    d = 1
    for e in edges:
        d *= values[e].denominator
    return d


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [layer, start, time in child spans]
        self.layers = {name: {"calls": 0, "span_s": 0.0, "self_s": 0.0} for name in LAYERS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.cache = {"hits": 0, "misses": 0}
        self.missing: dict[str, str] = {}  # metric -> why it cannot be measured
        self._cache_info = None
        self.pool_min_atoms = None

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        modules = {name: importlib.import_module(f"bunkbed.{name}") for name in LAYERS}
        perc = modules["percolation"]
        self.pool_min_atoms = getattr(perc, "PARALLEL_MIN_ATOMS", None)
        if self.pool_min_atoms is None:
            self.missing["percolation.pool_calls"] = "bunkbed.percolation.PARALLEL_MIN_ATOMS not found"
        cached = getattr(modules["reduction"], "_cached_distribution", None)
        self._cache_info = getattr(cached, "cache_info", None)
        if self._cache_info is None:
            self.missing["reduction.cache_hit_ratio"] = "bunkbed.reduction._cached_distribution LRU not found"
        # (layer, function) -> (counter, runs on every call rather than per span, metrics it feeds)
        hooks = {
            ("percolation", "event_probability"): (self._event_work, False, ATOM_METRICS + ("percolation.pool_calls",)),
            ("percolation", "connection_probability"): (self._connection_work, False, ATOM_METRICS),
            ("percolation", "connectivity_distributions"): (self._distributions_work, False, ATOM_METRICS),
            ("percolation", "connectivity_distribution"): (self._distribution_work, False, ATOM_METRICS),
            ("percolation", "sum_over_all_atoms"): (self._all_atoms_work, False, ATOM_METRICS),
            ("reduction", "two_point_probability"): (self._engine_work, False, ("reduction.atoms_reported",)),
            ("checker", "bunkbed_delta"): (self._delta_work, True, ("checker.deltas",)),
        }
        present = {key for key in hooks if callable(getattr(modules[key[0]], key[1], None))}
        for metric in {m for _, _, metrics in hooks.values() for m in metrics}:
            feeding = [key for key, hook in hooks.items() if metric in hook[2]]
            if not any(key in present for key in feeding):
                self.missing[metric] = "not found: " + ", ".join(f"bunkbed.{l}.{n}" for l, n in feeding)

        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue  # classes and constants; an lru_cache object counts as a function
                if inspect.isgeneratorfunction(inspect.unwrap(obj)):
                    continue  # its body runs after the call has returned
                counter, every_call, metrics = hooks.get((layer, name), (None, False, ()))
                wrappers[id(obj)] = self._wrap(layer, obj, counter, every_call, metrics)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = None if cls is None else cls.__dict__.get(meth)
                    if inspect.isfunction(fn):
                        setattr(cls, meth, self._wrap(layer, fn, None, False, ()))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "bunkbed" or mod_name.startswith("bunkbed."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and not name.startswith("__"):
                        setattr(mod, name, wrappers[id(obj)])
        return self

    def _wrap(self, layer, fn, counter, every_call, metrics):
        stack = self.stack
        stats = self.layers[layer]
        clock = time.perf_counter
        signature = inspect.signature(fn) if counter is not None and not every_call else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if every_call:
                counter()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span = [layer, clock(), 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                took = clock() - span[1]
                stats["calls"] += 1
                stats["span_s"] += took
                stats["self_s"] += took - span[2]
                if stack:
                    stack[-1][2] += took
            if signature is not None:
                try:
                    counter(signature.bind(*args, **kwargs).arguments, result)
                except (KeyError, AttributeError, TypeError) as exc:  # the function's interface changed
                    for metric in metrics:
                        self.missing[metric] = f"cannot read {fn.__qualname__}: {exc!r}"
            return result

        return traced

    # -- work counters, read from call arguments and results ---------------

    def _enumeration(self, edges: int, denominator: int) -> None:
        atoms = 1 << edges
        c = self.counters
        c["atoms"] += atoms
        c["max_edges"] = max(c["max_edges"], edges)
        if denominator >= BIGINT_DENOMINATOR:
            c["bigint_atoms"] += atoms

    def _event_work(self, args, report) -> None:
        w, spec = args["w"], args["spec"]
        edges = _enumerated_edges(w.graph, spec.restriction)
        self._enumeration(len(edges), _denominator(w.values, edges))
        threads = args.get("threads", 1)
        if self.pool_min_atoms is not None and threads > 1 and (1 << len(edges)) >= self.pool_min_atoms:
            self.counters["pool_calls"] += 1

    def _connection_work(self, args, value) -> None:
        if args["x"] != args["y"]:
            w = args["w"]
            edges = _enumerated_edges(w.graph, args.get("restriction"))
            self._enumeration(len(edges), _denominator(w.values, edges))

    def _distributions_work(self, args, dists) -> None:
        edges = _enumerated_edges(args["graph"], args.get("restriction"))
        denominator = max((d.denominator for d in dists), default=1)
        self._enumeration(len(edges), denominator)
        if dists:
            self.counters["slots"] += len(dists[0].labels)

    def _distribution_work(self, args, dist) -> None:
        edges = _enumerated_edges(args["w"].graph, args.get("restriction"))
        self._enumeration(len(edges), dist.denominator)
        self.counters["slots"] += len(dist.labels)

    def _all_atoms_work(self, args, value) -> None:
        w = args["w"]
        edges = list(range(w.graph.edge_count))
        self._enumeration(len(edges), _denominator(w.values, edges))

    def _engine_work(self, args, report) -> None:
        self.counters["atoms_reported"] += report.atoms_evaluated

    def _delta_work(self) -> None:
        self.counters["deltas"] += 1

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        cache = dict(self.cache)
        if self._cache_info is not None:
            info = self._cache_info()
            cache["hits"] += info.hits
            cache["misses"] += info.misses
        return {
            "layers": self.layers,
            "counters": self.counters,
            "cache": cache,
            "missing": self.missing,
        }

    def merge(self, snap: dict) -> None:
        """Add a snapshot taken in another process, such as a CLI run."""
        for name, stats in snap["layers"].items():
            for key, value in stats.items():
                self.layers[name][key] += value
        for key, value in snap["counters"].items():
            if key == "max_edges":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        for key, value in snap["cache"].items():
            self.cache[key] += value
        self.missing.update(snap["missing"])
