"""The package's public surface: exactly these names, each importable."""

import gramsim

PUBLIC = [
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
    "simulate_on_grammar", "simulate_on_graph", "size_metrics",
    "suffix_set_difference", "to_csv",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 46
    assert sorted(gramsim.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(gramsim, name) is not None
