"""Grammar-based graph compression with simulation directly on the grammar.

The package compresses node-labeled directed graphs into linear
context-free graph grammars by repeated digram replacement, and decides
which graph nodes simulate a pattern without decompressing: candidate
sets are kept as grammar path suffixes and sharpened to a fixpoint. A
plain-graph baseline of the same relation serves as correctness oracle
and benchmark opponent.
"""

from .baseline import GraphSharpeningStep, simulate_on_graph
from .bench import (BenchConfig, BenchConfigError, BenchMismatchError,
                    BenchRecord, parse_config, run_bench, to_csv)
from .compress import compress, compression_ratio, size_metrics
from .generate import (GraphGenParams, PatternGenParams, gen_graph,
                       gen_pattern)
from .graph import (GraphFormatError, LabeledGraph, PatternGraph,
                    graphs_isomorphic_under_map, load_graph, predecessors,
                    save_graph)
from .grammar import (GrammarFormatError, GrammarValidationError, GraphGrammar,
                      PathMap, Rule, decompress, format_grammar,
                      format_path_map, parse_grammar, parse_path_map,
                      represented_node_union)
from .simulate import (GrammarSharpeningStep, SimulationResult, expand_by_node,
                       expand_to_nodes, predecessor_suffixes,
                       simulate_on_grammar, suffix_set_difference)
from .suffix import (GrammarPathSuffix, SuffixFormatError, SuffixSet, bare,
                     parse_suffix)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig", "BenchConfigError", "BenchMismatchError", "BenchRecord",
    "GrammarFormatError", "GrammarPathSuffix", "GrammarSharpeningStep",
    "GrammarValidationError", "GraphFormatError", "GraphGenParams",
    "GraphGrammar", "GraphSharpeningStep", "LabeledGraph", "PathMap",
    "PatternGenParams", "PatternGraph", "Rule", "SimulationResult",
    "SuffixFormatError", "SuffixSet", "bare", "compress", "compression_ratio",
    "decompress", "expand_by_node", "expand_to_nodes", "format_grammar",
    "format_path_map", "gen_graph", "gen_pattern",
    "graphs_isomorphic_under_map", "load_graph", "parse_config",
    "parse_grammar", "parse_path_map", "parse_suffix", "predecessor_suffixes",
    "predecessors", "represented_node_union", "run_bench", "save_graph",
    "simulate_on_graph", "simulate_on_grammar", "size_metrics",
    "suffix_set_difference", "to_csv",
]
