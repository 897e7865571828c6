"""Command line interface: one binary, six subcommands.

Exit codes: 0 success (an empty simulation result is success), 1 usage
error, 2 data or validation error, 3 benchmark correctness mismatch.
Diagnostics go to stderr; data goes to stdout or the -o file.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .baseline import simulate_on_graph
from .bench import (BenchConfigError, BenchMismatchError, parse_config,
                    run_bench, to_csv)
from .compress import compress
from .generate import GraphGenParams, PatternGenParams, gen_graph, gen_pattern
from .graph import GraphFormatError, load_graph, save_graph, valid_label
from .grammar import (GrammarFormatError, GrammarValidationError, decompress,
                      format_grammar, format_path_map, parse_grammar,
                      parse_path_map)
from .simulate import expand_by_node, simulate_on_grammar
from .suffix import SuffixFormatError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MISMATCH = 3


class _DataError(Exception):
    """I/O or content problem with user-supplied data (exit 2)."""


class _UsageError(Exception):
    """Flag combination problem argparse cannot express (exit 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2
    # for data errors, so remap to 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _DataError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _parse_file(path: str, parse):
    """`parse` applied to the text of the file at `path`; an error in the
    text names the file."""
    text = _read_text(path)
    try:
        return parse(text)
    except ValueError as exc:
        raise _DataError(f"{path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_compress(args: argparse.Namespace) -> int:
    graph = _parse_file(args.input, load_graph)
    grammar, path_map = compress(graph, min_count=args.min_count)
    _write_text(args.output, format_grammar(grammar))
    map_path = args.map if args.map is not None else args.output + ".map"
    _write_text(map_path, format_path_map(path_map))
    return EXIT_OK


def _cmd_decompress(args: argparse.Namespace) -> int:
    grammar = _parse_file(args.input, parse_grammar)
    graph, path_map = decompress(grammar)
    _write_text(args.output, save_graph(graph))
    if args.map is not None:
        _write_text(args.map, format_path_map(path_map))
    return EXIT_OK


def _simulate_lines(args: argparse.Namespace) -> list[str]:
    pattern = _parse_file(args.pattern, load_graph)
    if args.graph is not None:
        if args.optimized:
            raise _UsageError("--optimized applies to --grammar only")
        result = simulate_on_graph(_parse_file(args.graph, load_graph), pattern)
        return [f"{u} {v}" for u in sorted(result) for v in sorted(result[u])]
    grammar = _parse_file(args.grammar, parse_grammar)
    result = simulate_on_grammar(grammar, pattern, optimized=args.optimized)
    if args.expand:
        # the sidecar compress writes maps paths back to the input's ids
        map_path = args.grammar + ".map"
        path_map = (_parse_file(map_path, parse_path_map)
                    if os.path.exists(map_path) else None)
        try:
            by_node = expand_by_node(grammar, result, path_map)
        except KeyError as exc:
            raise _DataError(f"{map_path} has no node for path {exc.args[0]}") from exc
        return [f"{u} {v}" for u in sorted(by_node) for v in sorted(by_node[u])]
    return [f"{u} {s}" for u in sorted(result.candidates)
            for s in result.candidates[u]]


def _cmd_simulate(args: argparse.Namespace) -> int:
    lines = _simulate_lines(args)
    _write_text(args.output, "\n".join(lines) + "\n" if lines else "NO-MATCH\n")
    return EXIT_OK


def _cmd_gen_graph(args: argparse.Namespace) -> int:
    graph = gen_graph(GraphGenParams(
        base_nodes=args.base_nodes, variations=args.variations,
        delete_fraction=args.delete_fraction, edges_per_node=args.edges_per_node,
        label_alphabet=args.labels, seed=args.seed))
    _write_text(args.output, save_graph(graph))
    return EXIT_OK


def _cmd_gen_pattern(args: argparse.Namespace) -> int:
    if args.alphabet is not None:
        labels = [token.strip() for token in args.alphabet.split(",") if token.strip()]
        bad = [label for label in labels if not valid_label(label) or label.isdigit()]
        if bad:
            raise _DataError(f"invalid alphabet labels: {', '.join(bad)}")
        alphabet = frozenset(labels)
    else:
        alphabet = _parse_file(args.from_graph, load_graph).label_set()
    pattern = gen_pattern(
        PatternGenParams(nodes=args.nodes, edges=args.edges, seed=args.seed), alphabet)
    text = save_graph(pattern)
    if args.edges < args.nodes - 1:
        text = "# disconnected: fewer edges than nodes - 1\n" + text
    _write_text(args.output, text)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.repetitions is not None and args.repetitions < 1:
        # a timing needs one sample; checked before anything is generated
        raise _UsageError("--repetitions must be at least 1")
    config = parse_config(_read_text(args.config))
    overrides = {}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.repetitions is not None:
        overrides["repetitions"] = args.repetitions
    if overrides:
        config = dataclasses.replace(config, **overrides)
    records = run_bench(config, progress=lambda note: print(note, file=sys.stderr))
    _write_text(args.output, to_csv(records))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="gramsim",
                     description="Graph grammar compression and pattern simulation.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    cmd = commands.add_parser("compress", help="compress an edge-list graph to a grammar")
    cmd.add_argument("-i", "--input", required=True, help="edge-list graph file")
    cmd.add_argument("-o", "--output", required=True, help="grammar file to write")
    cmd.add_argument("--map", help="path-map sidecar file (default: <output>.map)")
    cmd.add_argument("--min-count", type=int, default=2,
                     help="smallest digram count worth a rule (default 2)")
    cmd.set_defaults(func=_cmd_compress)

    cmd = commands.add_parser("decompress", help="expand a grammar back to an edge list")
    cmd.add_argument("-i", "--input", required=True, help="grammar file")
    cmd.add_argument("-o", "--output", help="edge-list file to write (default stdout)")
    cmd.add_argument("--map", help="also write the path map of the expansion")
    cmd.set_defaults(func=_cmd_decompress)

    cmd = commands.add_parser("simulate", help="compute which nodes simulate a pattern")
    source = cmd.add_mutually_exclusive_group(required=True)
    source.add_argument("--grammar", help="run on a compressed grammar file")
    source.add_argument("--graph", help="run the baseline on an edge-list file")
    cmd.add_argument("--pattern", required=True, help="pattern edge-list file")
    cmd.add_argument("--optimized", action="store_true",
                     help="defer removals and re-coalesce suffix sets")
    cmd.add_argument("--expand", action="store_true",
                     help="print matched node ids instead of path suffixes (the "
                          "ids of <grammar>.map when that file exists)")
    cmd.add_argument("-o", "--output", help="result file (default stdout)")
    cmd.set_defaults(func=_cmd_simulate)

    cmd = commands.add_parser("gen-graph", help="generate a redundant random graph")
    cmd.add_argument("--base-nodes", type=int, required=True)
    cmd.add_argument("--variations", type=int, required=True)
    cmd.add_argument("--delete-fraction", type=float, default=0.5)
    cmd.add_argument("--edges-per-node", type=float, default=1.25)
    cmd.add_argument("--labels", type=int, default=4, help="label alphabet size")
    cmd.add_argument("--seed", type=int, required=True)
    cmd.add_argument("-o", "--output", help="edge-list file (default stdout)")
    cmd.set_defaults(func=_cmd_gen_graph)

    cmd = commands.add_parser("gen-pattern", help="generate a random pattern graph")
    cmd.add_argument("--nodes", type=int, required=True)
    cmd.add_argument("--edges", type=int, required=True)
    cmd.add_argument("--seed", type=int, required=True)
    alphabet = cmd.add_mutually_exclusive_group(required=True)
    alphabet.add_argument("--alphabet", help="comma-separated labels")
    alphabet.add_argument("--from-graph", help="take the alphabet from this edge list")
    cmd.add_argument("-o", "--output", help="edge-list file (default stdout)")
    cmd.set_defaults(func=_cmd_gen_pattern)

    cmd = commands.add_parser("bench", help="run the engine comparison benchmark")
    cmd.add_argument("--config", required=True, help="key = value sweep file")
    cmd.add_argument("-o", "--output", help="CSV file (default stdout)")
    cmd.add_argument("--seed", type=int, help="replace the config's seed list")
    cmd.add_argument("--repetitions", type=int, help="override timing repetitions")
    cmd.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"gramsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BenchMismatchError as exc:
        print(f"gramsim: error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (_DataError, GraphFormatError, GrammarFormatError, SuffixFormatError,
            GrammarValidationError, BenchConfigError, ValueError) as exc:
        print(f"gramsim: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
