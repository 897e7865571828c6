"""Benchmark harness: generate, compress, time both engines, emit CSV.

Every cell verifies that the grammar engine and the baseline agree on the
expanded result before any timing is recorded; a disagreement aborts the
whole run with the reproducing seed in the error.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from .baseline import simulate_on_graph
from .compress import compress, compression_ratio, size_metrics
from .generate import GraphGenParams, PatternGenParams, gen_graph, gen_pattern
from .simulate import expand_by_node, simulate_on_grammar

CSV_HEADER = ("graphindex,nodes,edges,grammar_size,ratio,baseline_ms,grammar_ms,pat_nodes,"
              "pat_edges,seed,compress_ms")

# seeds for a cell must differ between graph and pattern streams
_PATTERN_SEED_OFFSET = 1000003


class BenchMismatchError(RuntimeError):
    """The two engines disagreed; carries the reproducing cell."""


class BenchConfigError(ValueError):
    """Raised for malformed benchmark config files."""


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark sweep."""

    base_nodes: int = 50
    variations: tuple[int, ...] = (10,)
    delete_fraction: float = 0.5
    edges_per_node: float = 1.25
    label_alphabet: int = 4
    pattern_nodes: int = 6
    pattern_edges: int = 8
    seeds: tuple[int, ...] = (1,)
    repetitions: int = 5
    optimized: bool = True
    min_count: int = 2


@dataclass(frozen=True)
class BenchRecord:
    graph_index: int
    nodes: int
    edges: int
    grammar_size: int
    ratio: float
    baseline_ms: float
    grammar_ms: float
    pattern_nodes: int
    pattern_edges: int
    seed: int
    compress_ms: float

    def csv_row(self) -> str:
        return (f"{self.graph_index},{self.nodes},{self.edges},{self.grammar_size},"
                f"{self.ratio:.6f},{self.baseline_ms:.3f},{self.grammar_ms:.3f},"
                f"{self.pattern_nodes},{self.pattern_edges},{self.seed},"
                f"{self.compress_ms:.3f}")


_INT_KEYS = {"base_nodes", "label_alphabet", "pattern_nodes", "pattern_edges",
             "repetitions", "min_count"}
_FLOAT_KEYS = {"delete_fraction", "edges_per_node"}
_LIST_KEYS = {"variations", "seeds"}
_BOOL_KEYS = {"optimized"}
# each numeric key's range (a list key's, for each item), as GraphGenParams,
# PatternGenParams, run_bench and compress enforce it; edges <= nodes²
# spans two keys and is left to run_bench
_RANGES = {"base_nodes": (1, math.inf), "variations": (1, math.inf),
           "delete_fraction": (0.0, 0.5), "edges_per_node": (0.0, math.inf),
           "label_alphabet": (1, math.inf), "pattern_nodes": (1, math.inf),
           "pattern_edges": (0, math.inf), "repetitions": (1, math.inf),
           "min_count": (2, math.inf)}


def parse_config(text: str) -> BenchConfig:
    """Parse a flat `key = value` config; `variations` and `seeds` take
    comma-separated sweep lists, `#` starts a comment.

    Raises:
        BenchConfigError: on a malformed line, an unknown key, a value of
            the wrong type, an empty list, or a value out of its key's
            range (say variations 0 or delete_fraction 1.5), with the line
            number.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise BenchConfigError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        try:
            if not value.isascii():
                # int() and float() read other scripts' digits as numbers
                raise ValueError(f"non-ASCII characters in value {value!r}")
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
                if not math.isfinite(values[key]):
                    # float() also reads nan and inf
                    raise ValueError(f"{key} must be a finite number, got {value!r}")
            elif key in _LIST_KEYS:
                values[key] = tuple(int(v.strip()) for v in value.split(",") if v.strip())
                if not values[key]:
                    raise ValueError(f"{key} list is empty")
            elif key in _BOOL_KEYS:
                if value.lower() not in ("true", "false"):
                    raise ValueError(f"expected true or false, got {value!r}")
                values[key] = value.lower() == "true"
            else:
                raise ValueError(f"unknown key {key!r}")
            if key in _RANGES:
                low, high = _RANGES[key]
                for v in values[key] if key in _LIST_KEYS else (values[key],):
                    if not low <= v <= high:
                        bound = f"at least {low}" if high == math.inf else f"within [{low}, {high}]"
                        raise ValueError(f"{key} must be {bound}, got {v}")
        except ValueError as exc:
            raise BenchConfigError(f"line {lineno}: {exc}") from exc
    return BenchConfig(**values)  # type: ignore[arg-type]


def _timed(fn: Callable[[], object], repetitions: int) -> tuple[float, object]:
    """Median wall-clock milliseconds over `repetitions` runs, after one
    untimed warmup; returns (median_ms, last result)."""
    result = fn()  # warmup; results are deterministic across repetitions
    samples = []
    for _ in range(repetitions):
        started = time.perf_counter()
        result = fn()
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples), result


def run_bench(config: BenchConfig,
              progress: Callable[[str], None] | None = None) -> list[BenchRecord]:
    """Run every (graph index, seed) cell of the sweep.

    Per cell: generate the graph, compress once (timed, a single call),
    generate a pattern over the graph's labels, time the simulation phase
    of both engines (median of `repetitions` after a warmup), verify the
    expanded results match, and record.

    Raises:
        ValueError: repetitions below 1, min_count below 2 or a cell's
            generator parameters out of range, before any cell is
            generated.
        BenchMismatchError: engines disagree (message names the cell).
    """
    if config.repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    if config.min_count < 2:
        raise ValueError("min_count must be at least 2")
    # building every cell's parameters first runs their checks, so a bad
    # cell fails the sweep before the cells ahead of it are run
    cells = [(graph_index, seed,
              GraphGenParams(base_nodes=config.base_nodes, variations=variations,
                             delete_fraction=config.delete_fraction,
                             edges_per_node=config.edges_per_node,
                             label_alphabet=config.label_alphabet, seed=seed),
              PatternGenParams(nodes=config.pattern_nodes, edges=config.pattern_edges,
                               seed=seed + _PATTERN_SEED_OFFSET))
             for graph_index, variations in enumerate(config.variations, start=1)
             for seed in config.seeds]
    records = []
    for graph_index, seed, graph_params, pattern_params in cells:
        cell = f"graphindex {graph_index}, seed {seed}"
        if progress:
            progress(f"{cell}: generating")
        graph = gen_graph(graph_params)
        pattern = gen_pattern(pattern_params, graph.label_set())
        if progress:
            progress(f"{cell}: compressing {len(graph)} nodes")
        started = time.perf_counter()
        grammar, path_map = compress(graph, min_count=config.min_count)
        compress_ms = (time.perf_counter() - started) * 1000.0
        if progress:
            progress(f"{cell}: timing")
        baseline_ms, baseline_result = _timed(
            lambda: simulate_on_graph(graph, pattern), config.repetitions)
        grammar_ms, grammar_result = _timed(
            lambda: simulate_on_grammar(grammar, pattern, optimized=config.optimized),
            config.repetitions)
        expanded = expand_by_node(grammar, grammar_result, path_map)
        if expanded != baseline_result:
            raise BenchMismatchError(
                f"engines disagree at {cell}: rerun with base_nodes={config.base_nodes} "
                f"variations={graph_params.variations} delete_fraction={config.delete_fraction} "
                f"edges_per_node={config.edges_per_node} seed={seed}")
        records.append(BenchRecord(
            graph_index=graph_index, nodes=len(graph), edges=len(graph.edges),
            grammar_size=size_metrics(grammar),
            ratio=compression_ratio(graph, grammar),
            baseline_ms=baseline_ms, grammar_ms=grammar_ms,
            pattern_nodes=config.pattern_nodes, pattern_edges=config.pattern_edges,
            seed=seed, compress_ms=compress_ms))
    return records


def to_csv(records: list[BenchRecord]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"
