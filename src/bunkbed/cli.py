"""Command-line front end.

Exit codes: 0 success, 1 a bunkbed violation was found, 2 parse error or a
file that cannot be read (missing, a directory, not UTF-8 text) or written,
3 enumeration cap or family bound exceeded, or the input ran out of the
interpreter's recursion depth or of memory, 4 precondition failed,
5 internal error (any other exception), 141 standard output closed early
(as 128 + SIGPIPE).  Every code but 0 and 1 prints one `error:` line on
standard error and no traceback.
Rationals are printed as num/den; decimals are labeled approximations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .checker import (
    BoundExceededError,
    DEFAULT_TREE_BOUND,
    WeightSource,
    check_graph,
    enumerate_trees,
    read_input,
    search_candidates,
)
from .graphs import (
    DegenerateSplitError,
    GraphParseError,
    NotACutVertexError,
    bunkbed,
    format_graph,
    parse_graph,
    split_at,
)
from .percolation import (
    DEFAULT_ENUMERATION_CAP,
    ConnectivitySpec,
    EnumerationCapError,
    WeightParseError,
    event_probability,
    format_rational,
    format_weight,
    parse_symmetric_weight_file,
    parse_weight_file,
)
from .reduction import collapse_side, two_point_probability

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


class ArgumentParseError(ValueError):
    """Raised when a command-line token or an environment variable the CLI
    reads does not parse."""


def _cap(args) -> int:
    """The enumeration cap: --cap, else BUNKBED_CAP, else the default.
    Checks that --cap and --threads are at least 1."""
    cap = args.cap
    if cap is None:
        env = os.environ.get("BUNKBED_CAP")
        try:
            cap = DEFAULT_ENUMERATION_CAP if env is None else int(env)
        except ValueError:
            raise ArgumentParseError(f"BUNKBED_CAP must be an integer, got {env!r}") from None
    if cap < 1:
        raise ValueError("enumeration cap must be at least 1")
    if args.threads is not None and args.threads < 1:
        raise ValueError("threads must be at least 1")
    return cap


def _parse_weight_source(spec: str | None, seed: int) -> WeightSource:
    if spec is None or spec == "grid":
        return WeightSource.grid()
    kind, sep, body = spec.partition(":")
    if not sep or kind not in ("grid", "random"):
        return WeightSource.explicit(spec)
    # a token that does not parse is a parse error; a parsed value out of
    # range is left to WeightSource, a failed precondition
    try:
        if kind == "grid":
            values = [Fraction(tok) for tok in body.split(",") if tok]
            if not values:
                raise ValueError("no grid values")
        else:
            numbers = [int(tok) for tok in body.split(":")]
            if len(numbers) > 2:
                raise ValueError("more than two fields")
    except (ValueError, ZeroDivisionError) as exc:
        raise WeightParseError(f"malformed weight source {spec!r}") from exc
    if kind == "grid":
        return WeightSource.grid(values)
    denominator = numbers[1] if len(numbers) > 1 else 64
    return WeightSource.random(numbers[0], denominator=denominator, seed=seed)


def _parse_vertex(token: str, n: int, tagged: bool) -> int:
    """A vertex token: with `tagged`, a bunkbed vertex written as '3-' or
    '3+' over a base of n vertices, else a plain vertex index.  A token
    that does not parse is a parse error; a tagged base vertex out of
    range is a failed precondition."""
    number, tag = (token[:-1], token[-1:]) if tagged else (token, None)
    try:
        if tag not in ("-", "+", None):
            raise ValueError
        x = int(number)
    except ValueError:
        form = "a base vertex followed by - or +" if tagged else "an integer"
        raise ArgumentParseError(f"vertex {token!r} is not {form}") from None
    if tag is None:
        return x
    if not 0 <= x < n:
        raise ValueError(f"base vertex {x} out of range")
    return x if tag == "-" else x + n


def _print_probability(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps({
            "value": format_rational(report.value),
            "decimal_approx": f"{float(report.value):.6f}",
            "method": report.method,
            "atoms_evaluated": report.atoms_evaluated,
            "elapsed_ms": int(report.elapsed * 1000),
        }))
    else:
        print(f"{format_rational(report.value)} (~{float(report.value):.6f})")


def _cmd_prob(args) -> int:
    cap = _cap(args)
    graph = read_input(args.graph, parse_graph)
    if args.bunkbed:
        sw = read_input(args.weights, parse_symmetric_weight_file, bunkbed(graph))
        x = _parse_vertex(args.x, graph.vertex_count, tagged=True)
        y = _parse_vertex(args.y, graph.vertex_count, tagged=True)
        if args.method == "brute":
            report = event_probability(
                sw.to_weight(), ConnectivitySpec.connected(x, y), cap=cap
            )
        else:
            report = two_point_probability(graph, sw, x, y, cap=cap)
    else:
        w = read_input(args.weights, parse_weight_file, graph)
        if args.method == "decomp":
            raise ValueError("--method decomp requires --bunkbed")
        x = _parse_vertex(args.x, graph.vertex_count, tagged=False)
        y = _parse_vertex(args.y, graph.vertex_count, tagged=False)
        report = event_probability(w, ConnectivitySpec.connected(x, y), cap=cap)
    _print_probability(report, args.json)
    return EXIT_OK


def _cmd_check(args) -> int:
    cap = _cap(args)
    graph = read_input(args.graph, parse_graph)
    source = _parse_weight_source(args.weights, args.seed)
    report = check_graph(graph, source, pairs=args.pair, graph_id=args.graph, cap=cap)
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _cmd_reduce(args) -> int:
    cap = _cap(args)
    base = read_input(args.graph, parse_graph)
    bb = bunkbed(base)
    sw = read_input(args.weights, parse_symmetric_weight_file, bb)
    # a token that does not parse is a parse error; an index out of range
    # is left to split_at, a failed precondition
    side = []
    for tok in filter(None, args.side.split(",")):
        try:
            side.append(int(tok))
        except ValueError:
            raise ArgumentParseError(f"side component {tok!r} is not an integer") from None
    split = split_at(base, args.cut_vertex, side)
    collapsed = collapse_side(bb, sw.to_weight(), split, cap=cap)
    Path(args.out_graph).write_text(format_graph(collapsed.reduced_graph))
    Path(args.out_weights).write_text(format_weight(collapsed.reduced_weight))
    print(format_rational(collapsed.collapsed_post_value))
    return EXIT_OK


def _cmd_trees(args) -> int:
    cap = _cap(args)
    trees = enumerate_trees(args.n, bound=args.bound)
    if args.check:
        source = _parse_weight_source(args.weights or "grid:1/2", args.seed)
        worst = EXIT_OK
        for i, t in enumerate(trees):
            report = check_graph(t, source, graph_id=f"tree-{args.n}-{i}", cap=cap)
            print(json.dumps(report.to_json()))
            if report.violations:
                worst = EXIT_VIOLATION
        return worst
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, t in enumerate(trees):
            (out / f"tree_{args.n}_{i}.txt").write_text(format_graph(t))
        print(f"wrote {len(trees)} trees to {out}")
    else:
        for i, t in enumerate(trees):
            print(f"# tree {i + 1}/{len(trees)} on {args.n} vertices")
            sys.stdout.write(format_graph(t))
            print()
    return EXIT_OK


def _cmd_search(args) -> int:
    cap = _cap(args)
    source = _parse_weight_source(args.weights, args.seed)
    # built up front, so an order past the bound is refused before any report
    trees = [t for n in range(1, args.trees + 1) for t in enumerate_trees(n)]

    def candidates():
        for path in args.graphs:
            yield read_input(path, parse_graph)
        yield from trees

    found = False
    for report in search_candidates(
        candidates(), source,
        require_two_connected=args.two_connected_only,
        persist_dir=args.persist,
        cap=cap,
    ):
        print(json.dumps(report.to_json()))
        if report.violations:
            found = True
    return EXIT_VIOLATION if found else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bunkbed",
        description="Exact bunkbed percolation probabilities, reductions, and inequality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--cap", type=int, default=None,
                       help="enumeration cap in edges (default 30, env BUNKBED_CAP)")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility, at least 1; the kernel runs in one process")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="seed for random weight sources")

    p = sub.add_parser("prob", help="exact connection probability between two vertices")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--bunkbed", action="store_true",
                   help="graph is a base graph; weights are symmetric; vertices tagged like 3- or 3+")
    p.add_argument("--method", choices=("auto", "brute", "decomp"), default="auto")
    p.add_argument("--json", action="store_true")
    common(p, seed=False)
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("check", help="check the bunkbed inequality over a weight source")
    p.add_argument("graph")
    p.add_argument("--weights", default=None,
                   help="grid | grid:v1,v2,... | random:N[:den] | weight file path (default grid)")
    p.add_argument("--pair", nargs=2, type=int, action="append", metavar=("X", "Y"),
                   help="check only these pairs (repeatable; default all pairs)")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", help="collapse one side of a bunkbed at a cut vertex")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("--cut-vertex", type=int, required=True)
    p.add_argument("--side", required=True,
                   help="comma-separated component indices (of graph minus the cut vertex) to collapse")
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-weights", required=True)
    common(p, seed=False)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("trees", help="enumerate unlabeled trees, optionally checking each")
    p.add_argument("n", type=int)
    p.add_argument("--check", action="store_true")
    p.add_argument("--weights", default=None, help="weight source for --check (default grid:1/2)")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--bound", type=int, default=DEFAULT_TREE_BOUND)
    common(p)
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("search", help="stream inequality checks over candidate graphs")
    p.add_argument("graphs", nargs="*", help="graph files")
    p.add_argument("--trees", type=int, default=0,
                   help=f"also check all trees up to this order (at most {DEFAULT_TREE_BOUND})")
    p.add_argument("--weights", default=None)
    p.add_argument("--two-connected-only", action="store_true",
                   help="skip candidates that are not 2-connected")
    p.add_argument("--persist", default=None, help="directory for violation files")
    common(p)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: silence the flush at exit, end as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (GraphParseError, WeightParseError, ArgumentParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EnumerationCapError, BoundExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (RecursionError, MemoryError) as exc:
        # a limit of this process, not a fault: the input is too large
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return EXIT_CAP
    except (NotACutVertexError, DegenerateSplitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        # never exit 1, which means a violation was found; the line names
        # where the exception was raised in place of the traceback
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno}"
        print(f"error: internal error at {where}: {_describe(exc)}", file=sys.stderr)
        return EXIT_INTERNAL


def _describe(exc: BaseException) -> str:
    """The exception's type and message, on one line."""
    text = " ".join(str(exc).split())
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


if __name__ == "__main__":
    sys.exit(main())
