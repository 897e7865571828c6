import hashlib
import random

import pytest

from gramsim import (Digram, GraphGenParams, bare, compress, compression_ratio,
                     decompress, format_grammar, format_path_map, gen_graph,
                     graphs_isomorphic_under_map, load_graph, parse_suffix,
                     size_metrics)
from gramsim.compress import digram_census, initial_work_graph, replace_digram

from .conftest import random_soup, seeded_case


def census_by_text(wg):
    return {(str(d.source_path), str(d.target_path)): n
            for d, n in digram_census(wg).items()}


def assert_round_trip(graph):
    """Compress, decompress, and check isomorphism under the recorded maps.

    The decompressed graph is canonically numbered, so the original ids are
    recovered by composing the two path maps."""
    gg, pm_c = compress(graph)
    assert gg.validate() == []
    out, pm_d = decompress(gg)
    mapping = {nid: pm_c.node_for(path) for path, nid in pm_d}
    assert graphs_isomorphic_under_map(out, graph, mapping)


def test_initial_census(fig1_graph):
    wg = initial_work_graph(fig1_graph)
    assert census_by_text(wg) == {("c", "d"): 4, ("d", "c"): 2, ("b", "c"): 1}
    assert wg.size() == 17


def test_census_counts_node_disjoint_occurrences():
    # a chain a->a->a has two (a,a) edges but they share the middle node
    g = load_graph("1 a\n2 a\n3 a\n1 2\n2 3\n")
    wg = initial_work_graph(g)
    assert census_by_text(wg) == {("a", "a"): 1}


def test_self_loops_are_not_digrams():
    g = load_graph("1 a\n1 1\n")
    assert digram_census(initial_work_graph(g)) == {}


def test_replace_digram_step(fig1_graph):
    wg = initial_work_graph(fig1_graph)
    wg2 = replace_digram(wg, Digram(bare("c"), bare("d")), "X")
    assert census_by_text(wg2) == {("X/2:d", "X/1:c"): 2, ("b", "X/1:c"): 1}
    # the original work graph is untouched
    assert census_by_text(wg) == {("c", "d"): 4, ("d", "c"): 2, ("b", "c"): 1}


def test_replace_digram_rejects_bad_inputs(fig1_graph):
    wg = initial_work_graph(fig1_graph)
    with pytest.raises(ValueError):
        replace_digram(wg, Digram(bare("b"), bare("c")), "X")   # count 1
    with pytest.raises(ValueError):
        replace_digram(wg, Digram(bare("c"), bare("d")), "b")   # name in use
    wg2 = replace_digram(wg, Digram(bare("c"), bare("d")), "X")
    with pytest.raises(ValueError):
        replace_digram(wg2, Digram(parse_suffix("X/2:d"), parse_suffix("X/1:c")), "X")
    # a terminal stays taken after its last work node has been merged away
    g = load_graph("1 c\n2 d\n3 c\n4 d\n5 c\n6 d\n7 c\n8 d\n"
                   "1 2\n3 4\n5 6\n7 8\n2 4\n6 8\n")
    merged = replace_digram(initial_work_graph(g), Digram(bare("c"), bare("d")), "X")
    assert "c" not in merged.labels.values()
    with pytest.raises(ValueError):
        replace_digram(merged, Digram(parse_suffix("X/2:d"), parse_suffix("X/2:d")), "c")


def work_state(wg):
    return (wg.nodes, wg.work_edges, wg.size(), wg.rules, wg.rule_pairs, digram_census(wg))


def test_value_equal_keys_act_like_census_keys(fig1_graph):
    wg = replace_digram(initial_work_graph(fig1_graph), Digram(bare("c"), bare("d")), "X")
    built = Digram(parse_suffix("X/2:d"), parse_suffix("X/1:c"))
    census = digram_census(wg)
    assert census[built] == 2
    taken = next(d for d in census if d == built)
    assert taken.source_path is not built.source_path
    before = work_state(wg)
    edges, node_paths = dict(wg.edges), {nid: dict(p) for nid, p in wg.node_paths.items()}
    held = {pid for _, sp, _, dp in wg.edges.values() for pid in (sp, dp)}
    held |= {pid for paths in wg.node_paths.values() for pid in paths}
    shared = {pid: wg.paths[pid] for pid in held}
    by_built = replace_digram(wg, built, "Y")
    by_taken = replace_digram(wg, taken, "Y")
    assert work_state(by_built) == work_state(by_taken)
    assert by_built.node_paths == by_taken.node_paths
    # the source is unchanged, down to the shared suffix objects it refers to
    assert work_state(wg) == before
    assert wg.edges == edges and wg.node_paths == node_paths
    assert all(wg.paths[pid] is path for pid, path in shared.items())


def test_compress_fig1_sizes(fig1_graph):
    gg, _ = compress(fig1_graph)
    assert size_metrics(fig1_graph) == 17
    assert size_metrics(gg) == 11
    assert compression_ratio(fig1_graph, gg) == pytest.approx(11 / 17)
    # two levels of pairing: c-d chunks, then chunk pairs
    assert gg.rules["R1"].body == ((1, "c"), (2, "d"))
    assert gg.rules["R2"].body == ((1, "R1"), (2, "R1"))
    assert gg.rules[gg.start].body == ((1, "b"), (2, "R2"), (3, "R2"))


def test_compress_fig1_round_trips(fig1_graph):
    assert_round_trip(fig1_graph)


def test_compress_is_deterministic(fig1_graph):
    a, _ = compress(fig1_graph)
    b, _ = compress(fig1_graph)
    assert format_grammar(a) == format_grammar(b)


def test_compress_rejects_min_count_below_two(fig1_graph):
    with pytest.raises(ValueError):
        compress(fig1_graph, min_count=1)


def test_compress_high_min_count_keeps_everything(fig1_graph):
    gg, _ = compress(fig1_graph, min_count=5)
    assert not set(gg.rules) - {gg.start}
    assert size_metrics(gg) == size_metrics(fig1_graph)
    assert_round_trip(fig1_graph)


def test_compress_rejects_empty_graph():
    from gramsim import LabeledGraph
    with pytest.raises(ValueError):
        compress(LabeledGraph([], set()))


def test_start_name_avoids_terminal_collision():
    g = load_graph("1 S\n2 S\n1 2\n")
    gg, _ = compress(g)
    assert gg.start not in gg.terminals
    assert_round_trip(g)


def test_self_loop_round_trip():
    assert_round_trip(load_graph("1 a\n1 1\n"))
    assert_round_trip(load_graph("1 a\n2 a\n3 a\n4 a\n1 1\n1 2\n2 1\n3 4\n"))


def test_repeated_chunks_compress_below_unity():
    # ten disjoint a->b edges: one rule, ten bodies collapse to ten leaves
    lines = [f"{i} {'a' if i % 2 else 'b'}" for i in range(1, 21)]
    lines += [f"{i} {i + 1}" for i in range(1, 21, 2)]
    g = load_graph("\n".join(lines) + "\n")
    gg, _ = compress(g)
    assert compression_ratio(g, gg) < 1.0
    assert_round_trip(g)


# sha256 of format_grammar + format_path_map for compress on the benchmark's
# reduced graph sizes: any change to the compressor's output shows here.
GOLDEN = [
    ((40, 50, 0.0, 1.25, 2, 1),
     "c484bf3262ea35dd3d8915665b1d7c8a9bf1653aa2d8641357de2f1772c4862a"),
    ((50, 40, 0.5, 2.0, 4, 1),
     "7b8edca5e9785484296614827527a9358647a71343c156b1d83ba15f26b68414"),
    ((16, 10, 0.5, 1.25, 2, 0),
     "35968e0ef2dd5281398adfd45905af2e0870dacb63356995e017b61882ba4c0c"),
    ((16, 10, 0.5, 1.25, 2, 1),
     "e341de1ac6c46cc75bd3284bf705faab2a4c920d03e32270c8e23400c699d861"),
    ((16, 10, 0.5, 1.25, 2, 2),
     "e79f534538d4cebf1916365891441bc42571165bad2480f062693ab397f800fe"),
]


@pytest.mark.parametrize("params, digest", GOLDEN)
def test_compress_output_is_pinned(params, digest):
    gg, pm = compress(gen_graph(GraphGenParams(*params)))
    text = format_grammar(gg) + format_path_map(pm)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_random_round_trips():
    rng = random.Random(20240817)
    for _ in range(30):
        assert_round_trip(random_soup(rng))
    for seed in range(12):
        graph, _ = seeded_case(seed)
        assert_round_trip(graph)
