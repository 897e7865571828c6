import hashlib
import random
from collections import Counter, defaultdict

import pytest

from gramsim import (GrammarPathSuffix, GraphGenParams, LabeledGraph,
                     compress, compression_ratio, decompress, format_grammar,
                     format_path_map, gen_graph, graphs_isomorphic_under_map,
                     load_graph, parse_grammar, save_graph, size_metrics)
from gramsim.compress import WorkGraph, _allocate_names

from .conftest import entry_lines, random_soup, seeded_case


def assert_round_trip(graph):
    """Compress, decompress, and check isomorphism under the recorded maps.

    The decompressed graph is canonically numbered, so the original ids are
    recovered by composing the two path maps."""
    gg, pm_c = compress(graph)
    assert gg.validate() == []
    out, pm_d = decompress(gg)
    mapping = {nid: pm_c.node_for(path) for path, nid in pm_d}
    assert graphs_isomorphic_under_map(out, graph, mapping)


def rule_names(gg):
    return set(gg.rules) - {gg.start}


def start_pair_edges(gg):
    """The digrams left between distinct start-rule nodes, each with its
    edges as (source, target) start-rule ordinals; a pair within one node
    is a self-loop."""
    edges = defaultdict(list)
    for left, right in gg.edge_pairs:
        if left.steps[0][0] == gg.start and left.steps[0] != right.steps[0]:
            key = (str(GrammarPathSuffix(left.steps[1:], left.terminal)),
                   str(GrammarPathSuffix(right.steps[1:], right.terminal)))
            edges[key].append((left.steps[0][1], right.steps[0][1]))
    return edges


def start_pair_shapes(gg):
    """start_pair_edges' digrams with the number of edge pairs of each."""
    return {key: len(edges) for key, edges in start_pair_edges(gg).items()}


def greedy_disjoint_count(edges):
    """The compressor's count: node-disjoint edges taken in ascending order."""
    used = set()
    count = 0
    for src, dst in sorted(edges):
        if src not in used and dst not in used:
            used.update((src, dst))
            count += 1
    return count


def test_initial_census(fig1_graph):
    # (c, d) is the one digram counted four times; no digram reaches five
    gg, _ = compress(fig1_graph, min_count=4)
    assert rule_names(gg) == {"R1"}
    assert gg.rules["R1"].body == ((1, "c"), (2, "d"))
    assert [(str(left), str(right)) for left, right in gg.edge_pairs
            if left.steps[0][0] == "R1"] == [("R1/1:c", "R1/2:d")]
    gg, _ = compress(fig1_graph, min_count=5)
    assert not rule_names(gg)
    assert size_metrics(gg) == size_metrics(fig1_graph) == 17


def test_census_counts_node_disjoint_occurrences():
    # a chain a->a->a has two (a,a) edges but they share the middle node
    gg, _ = compress(load_graph("1 a\n2 a\n3 a\n1 2\n2 3\n"))
    assert not rule_names(gg)


def test_self_loops_are_not_digrams():
    assert not rule_names(compress(load_graph("1 a\n1 1\n"))[0])
    # two node-disjoint loops would count twice if a loop were a digram
    assert not rule_names(compress(load_graph("1 a\n2 a\n1 1\n2 2\n"))[0])


def test_replace_digram_step(fig1_graph):
    # after (c, d) is replaced, the counts left are all below three
    gg, _ = compress(fig1_graph, min_count=3)
    assert rule_names(gg) == {"R1"}
    assert start_pair_shapes(gg) == {("R1/2:d", "R1/1:c"): 2, ("b", "R1/1:c"): 1}
    # the back edge 7 -> 6 now runs within one R1 node
    assert [(str(left), str(right)) for left, right in gg.edge_pairs
            if left.steps[0] == right.steps[0]] == [("S/4:R1/2:d", "S/4:R1/1:c")]


def test_equal_counts_go_in_key_text_order_and_higher_counts_first():
    # the c->d edges come first in the edge list, so only the key text
    # puts a->b ahead of them
    nodes = "1 c\n2 d\n3 c\n4 d\n5 a\n6 b\n7 a\n8 b\n"
    edges = "1 2\n3 4\n5 6\n7 8\n"
    gg, _ = compress(load_graph(nodes + edges))
    assert [gg.rules[name].body for name in ("R1", "R2")] == [
        ((1, "a"), (2, "b")), ((1, "c"), (2, "d"))]
    # three e->f edges outcount both
    nodes += "9 e\n10 f\n11 e\n12 f\n13 e\n14 f\n"
    edges += "9 10\n11 12\n13 14\n"
    gg, _ = compress(load_graph(nodes + edges))
    assert [gg.rules[name].body for name in ("R1", "R2", "R3")] == [
        ((1, "e"), (2, "f")), ((1, "a"), (2, "b")), ((1, "c"), (2, "d"))]


@pytest.mark.parametrize("min_count", [2, 3])
def test_compress_stops_only_when_every_count_is_below_min_count(min_count):
    rng = random.Random(20261019)
    graphs = [random_soup(rng) for _ in range(30)]
    graphs += [seeded_case(seed)[0] for seed in range(12)]
    for graph in graphs:
        gg, _ = compress(graph, min_count=min_count)
        for key, edges in start_pair_edges(gg).items():
            assert greedy_disjoint_count(edges) < min_count, key


def test_equal_edge_pair_sides_are_one_object():
    # the simulator memoizes sides, and a hit on an equal but distinct
    # object pays a Python-level __eq__
    for seed in range(12):
        gg, _ = compress(seeded_case(seed)[0])
        sides = [side for pair in gg.edge_pairs for side in pair]
        assert len({id(side) for side in sides}) == len(set(sides))


def three_copies(loops=(1, 2, 3)):
    """Three copies of c -> a -> b with a back edge b -> a, and a loop on
    the a of each copy in `loops`."""
    return LabeledGraph(
        [(3 * k + i, label) for k in range(3) for i, label in ((1, "a"), (2, "b"), (3, "c"))],
        [edge for k in range(3) for edge in ((3 * k + 1, 3 * k + 2), (3 * k + 2, 3 * k + 1),
                                             (3 * k + 3, 3 * k + 1))]
        + [(3 * k - 2, 3 * k - 2) for k in loops])


@pytest.mark.pinned
def test_edges_inside_every_instance_fold_into_the_rule():
    # R1 = (a, b) leaves each back edge as a loop on an R1 node, and
    # R2 = (c, R1) moves the loops on a under R2: every instance has both,
    # so the back edge folds into R1, and the loop on a folds into R2 and
    # on into R1, where both its sides run through the terminal R1/1
    gg, _ = compress(three_copies())
    assert gg.rules["R2"].body == ((1, "c"), (2, "R1"))
    assert gg.rules[gg.start].body == ((1, "R2"), (2, "R2"), (3, "R2"))
    assert [(str(left), str(right)) for left, right in gg.edge_pairs] == [
        ("R1/1:a", "R1/1:a"), ("R1/1:a", "R1/2:b"), ("R1/2:b", "R1/1:a"),
        ("R2/1:c", "R2/2:R1/1:a")]
    assert_round_trip(three_copies())
    # a loop that two of the three instances have stays a pair of each
    gg, _ = compress(three_copies(loops=(1, 2)))
    assert [(str(left), str(right)) for left, right in gg.edge_pairs
            if left.steps[0][0] == gg.start] == [
        ("S/1:R2/2:R1/1:a", "S/1:R2/2:R1/1:a"), ("S/2:R2/2:R1/1:a", "S/2:R2/2:R1/1:a")]
    assert_round_trip(three_copies(loops=(1, 2)))


def foldable_shapes(gg):
    """The shapes (sides below their shared first step) of edge pairs whose
    sides share their first step into a rule R, where the shape runs
    through every body position that calls R."""
    calls = Counter(label for rule in gg.rules.values() for _, label in rule.body)
    positions = defaultdict(set)
    for left, right in gg.edge_pairs:
        step = left.steps[0]
        if len(left.steps) > 1 and right.steps[0] == step:
            positions[(left.steps[1][0], GrammarPathSuffix(left.steps[1:], left.terminal),
                       GrammarPathSuffix(right.steps[1:], right.terminal))].add(step)
    return [shape for shape, steps in positions.items() if len(steps) == calls[shape[0]]]


@pytest.mark.pinned
def test_compress_leaves_no_shape_to_fold():
    rng = random.Random(20261020)
    graphs = [seeded_case(seed)[0] for seed in range(12)]
    graphs += [random_soup(rng) for _ in range(30)]
    graphs.append(three_copies())
    folded = 0
    for graph in graphs:
        gg, _ = compress(graph)
        assert foldable_shapes(gg) == []
        # each rule of compress has one pair of its own; any other pair
        # anchored at it was folded there
        folded += sum(left.steps[0][0] != gg.start for left, _ in gg.edge_pairs) - (
            len(gg.rules) - 1)
    assert folded > 0


@pytest.mark.pinned
def test_query_stream_graph_folds_to_33_edge_pairs():
    # perfbench's query-stream graph: 3,270 edge pairs before the fold,
    # 3,250 of them copies of 13 shapes inside merged nodes
    graph = gen_graph(GraphGenParams(40, 250, 0.0, 1.25, 2, 1))
    gg, _ = compress(graph)
    assert len(gg.edge_pairs) == 33
    assert compression_ratio(graph, gg) == pytest.approx(0.0366, abs=5e-5)


def assert_bookkeeping(wg, node_ids):
    """`touching` and `by_digram` equal what `edges` implies, and every
    intern table entry names its path with the table's step in front."""
    touching = {nid: set() for nid in wg.labels}
    by_digram = defaultdict(set)
    for eid, (src, sp, dst, dp) in wg.edges.items():
        touching[src].add(eid)
        touching[dst].add(eid)
        if src != dst:
            by_digram[(sp, dp)].add(eid)
    assert wg.touching == touching
    assert wg.by_digram == by_digram
    assert all(wg.by_digram.values())
    for step, table in wg.interned.items():
        for pid, out in table.items():
            assert wg.paths[out] == wg.paths[pid].prepend((step,))
    # each original node sits under exactly one live node
    assert wg.leaves.keys() == wg.labels.keys()
    assert sorted(leaf for leaves in wg.leaves.values() for leaf in leaves) == list(node_ids)


def shapes_on_every_node(wg, name):
    """The loop shapes that every work node labeled `name` has."""
    nodes = sum(label == name for label in wg.labels.values())
    shapes = Counter((sp, dp) for src, sp, dst, dp in wg.edges.values()
                     if src == dst and wg.labels[src] == name)
    return [shape for shape, count in shapes.items() if count == nodes]


@pytest.mark.pinned
@pytest.mark.parametrize("min_count", [2, 3, 4])
def test_replace_keeps_edge_bookkeeping_exact(min_count):
    # replace step by step with every count exact (highest count first,
    # ties by key text), checking the bookkeeping after every replacement,
    # and that the replacement folded every loop shape all its new nodes
    # have; compress, whose heap holds bounds, must pick the same digrams
    rng = random.Random(20261019)
    graphs = [random_soup(rng, max_nodes=16) for _ in range(40)]
    graphs += [seeded_case(seed)[0] for seed in range(16)]
    # three copies of a -> b with a back edge b -> a and a loop on a, fed
    # by c -> a: merging (a, b) visits the back edge from both sides and
    # turns it into a loop, and merging (c, R1) then moves both loops
    graphs.append(three_copies())
    for graph in graphs:
        wg = WorkGraph(graph)
        start_name, fresh_names = _allocate_names(wg.terminals)
        assert_bookkeeping(wg, graph.node_ids)
        while True:
            counts = {key: len(wg._occurrences(key)) for key in wg.by_digram}
            best = min(counts, default=None, key=lambda key: (
                -counts[key], str(wg.paths[key[0]]), str(wg.paths[key[1]])))
            if best is None or counts[best] < min_count:
                break
            name = next(fresh_names)
            wg.replace(best, name, wg._occurrences(best))
            assert_bookkeeping(wg, graph.node_ids)
            assert shapes_on_every_node(wg, name) == []
        gg, pm = wg.to_grammar(wg.terminals, start_name)
        want_gg, want_pm = compress(graph, min_count=min_count)
        assert format_grammar(gg) + format_path_map(pm) == (
            format_grammar(want_gg) + format_path_map(want_pm))


@pytest.mark.pinned
def test_compress_counts_a_digram_only_at_the_heap_top(monkeypatch):
    # A many-small graph of 602 nodes: recounting every digram whose bucket
    # a replacement changed, and the replaced one again in replace, took
    # 286 counts for its 33 rules. The heap of bucket-size bounds counts a
    # key only when its bound reaches the top. Keys are int pairs, so the
    # number does not depend on the hash seed.
    calls = []
    occurrences = WorkGraph._occurrences
    monkeypatch.setattr(WorkGraph, "_occurrences",
                        lambda wg, key: calls.append(key) or occurrences(wg, key))
    gg, _ = compress(gen_graph(GraphGenParams(16, 50, 0.5, 1.25, 2, 0)))
    assert (len(gg.rules) - 1, len(calls)) == (33, 41)


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
    # a fresh rule name skips terminals too
    g = load_graph("1 R1\n2 c\n3 R1\n4 c\n1 2\n3 4\n")
    gg, _ = compress(g)
    assert rule_names(gg) == {"R2"}
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
# reduced graph sizes and on its full query-stream and ingest graphs: any
# change to the compressor's output shows here.
GOLDEN = [
    ((40, 50, 0.0, 1.25, 2, 1),
     "fdfed791e7270745be854763115a368b7724ca5994affb01503e33ceb538218d"),
    ((50, 40, 0.5, 2.0, 4, 1),
     "2ea869ef4b123068645ab6264b8e48b7f4bb0c80bd4e2beff7810dd84e195550"),
    ((16, 10, 0.5, 1.25, 2, 0),
     "845fb571ee103167eb1392a1c74ccfc5717a275c8aa49924ec567f0cfe1548ef"),
    ((16, 10, 0.5, 1.25, 2, 1),
     "e341de1ac6c46cc75bd3284bf705faab2a4c920d03e32270c8e23400c699d861"),
    ((16, 10, 0.5, 1.25, 2, 2),
     "051f87d2defbfab64fc5b4465481b16af1973f7432e322bcee4353c85213fa4e"),
    ((40, 250, 0.0, 1.25, 2, 1),
     "0453ce4570cfbd07a6b245f83d411059b6ade08a10cdff4418977ad70ca36e7f"),
    ((50, 200, 0.5, 2.0, 4, 1),
     "794f65551103b472139fb3dfa2199fd74336fed2316b705ab5248ce4f7e9f87f"),
]


# sha256 of save_graph + format_path_map for decompress of each GOLDEN
# graph's grammar, read back from its text: the graph and the canonical
# map decompress builds from a stored grammar.
GOLDEN_DECOMPRESS = [
    ((40, 50, 0.0, 1.25, 2, 1),
     "b83db00e4fa85cdc2a89bc3d07788df4e55c6251d9b8a2b40b24931764454e1b"),
    ((50, 40, 0.5, 2.0, 4, 1),
     "9d44231d4e1c0303c5ae2b64060dc0eee865249224d7a21829d58d774012cb6f"),
    ((16, 10, 0.5, 1.25, 2, 0),
     "16057ba4432eccb4ffa6100dab9a91a6832d44c024e2e57635f782b9c9100cac"),
    ((16, 10, 0.5, 1.25, 2, 1),
     "62a4664ece9dcb9022a598d4bc14b3b224a1b8cde6879aafdc7e2cdf62457895"),
    ((16, 10, 0.5, 1.25, 2, 2),
     "d23994535968a5d47e3e66cc47898d5e9d29a522e1c27111c45ba81e734c2121"),
    ((40, 250, 0.0, 1.25, 2, 1),
     "e6e39ee10b8aa039c7c4cdd50ee25c4763032128abb617077ce0098687273971"),
    ((50, 200, 0.5, 2.0, 4, 1),
     "2f2c60329773c3115fc94bbc8a0d6142f6326e685ba7a87e5f12163fc4184a64"),
]


def _graph_id(params):
    # the test id names the graph, not the digest, so a re-pin keeps it
    *shape, seed = params
    return "-".join(map(str, shape)) + f"-s{seed}"


@pytest.mark.pinned
@pytest.mark.parametrize("params, digest", GOLDEN,
                         ids=[_graph_id(params) for params, _ in GOLDEN])
def test_compress_output_is_pinned(params, digest):
    # the map as `<path> <id>` lines, so the digest pins every entry
    # whatever form format_path_map writes
    gg, pm = compress(gen_graph(GraphGenParams(*params)))
    text = format_grammar(gg) + entry_lines(pm)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.pinned
@pytest.mark.parametrize("params, digest", GOLDEN_DECOMPRESS,
                         ids=[_graph_id(params) for params, _ in GOLDEN_DECOMPRESS])
def test_decompress_output_is_pinned(params, digest):
    gg, _ = compress(gen_graph(GraphGenParams(*params)))
    graph, pm = decompress(parse_grammar(format_grammar(gg)))
    text = save_graph(graph) + entry_lines(pm)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the text the CLI stores for the same graphs: format_grammar +
# format_path_map of compress's output, and save_graph + format_path_map
# of decompress's output from the stored grammar; both maps are written
# in table form
GOLDEN_TABLE = [
    ((40, 50, 0.0, 1.25, 2, 1),
     "bfd7630fd609158473238a6217faeba5553b2c110aae53593e147166ab25b952"),
    ((50, 40, 0.5, 2.0, 4, 1),
     "bc1c1ee2edc68e204c134a37f434dd053d983ae4f453e8e639cbb551cc7b227f"),
    ((16, 10, 0.5, 1.25, 2, 0),
     "1114dfb5b678c4b3d83a9cac33e960b9893c44c34c8a05e169c13f13894c22bf"),
    ((16, 10, 0.5, 1.25, 2, 1),
     "1b853ec78807fa5a7b1d8cfaea6cd09e32abd4384b099d8ffcc95ba60a9e4339"),
    ((16, 10, 0.5, 1.25, 2, 2),
     "27e09e223dd9409b9093f6ab23d966f7dc92f5e6e8a3a97f51355e54ebaf0f83"),
    ((40, 250, 0.0, 1.25, 2, 1),
     "16c7c867354fedbbf91cfe7af1314fa3204d794cde5db9ed50d30e9e04243f50"),
    ((50, 200, 0.5, 2.0, 4, 1),
     "27586802931623270ccad510fc570039b2e27c47d78777fdce48315a87042b03"),
]

GOLDEN_DECOMPRESS_TABLE = [
    ((40, 50, 0.0, 1.25, 2, 1),
     "a565d9fb3d056d8ea5e3399ba319e21127a3e7488f5eebdbc1737ef1e012aa9b"),
    ((50, 40, 0.5, 2.0, 4, 1),
     "3d49cc3e84815e43a8d22016e9645409f8e88dc408ae7a934c014e2ff06c0b9b"),
    ((16, 10, 0.5, 1.25, 2, 0),
     "a6e6b4758e5e062f672bdbe443386296322ced05b72f5972a2b8210ce85d0e88"),
    ((16, 10, 0.5, 1.25, 2, 1),
     "b1d620ea251dca06ae49a8e43f7791d18471326847fc9f3f13db64724c449eab"),
    ((16, 10, 0.5, 1.25, 2, 2),
     "dcfde666ef67e790fb98fcc2dd7c95709bd2d11ce07c771c8c14f422062917e0"),
    ((40, 250, 0.0, 1.25, 2, 1),
     "19651ee61bffd86bd83a8cad9134a646548be0d87ec69ad6880f1497ed0bb2ba"),
    ((50, 200, 0.5, 2.0, 4, 1),
     "dadc7f8785d6d48297c98e24517c03d36df960db0e16a570d70bbbd6dcee0045"),
]


@pytest.mark.pinned
@pytest.mark.parametrize("params, digest", GOLDEN_TABLE,
                         ids=[_graph_id(params) for params, _ in GOLDEN_TABLE])
def test_compress_map_text_is_pinned(params, digest):
    gg, pm = compress(gen_graph(GraphGenParams(*params)))
    text = format_grammar(gg) + format_path_map(pm)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.pinned
@pytest.mark.parametrize("params, digest", GOLDEN_DECOMPRESS_TABLE,
                         ids=[_graph_id(params) for params, _ in GOLDEN_DECOMPRESS_TABLE])
def test_decompress_map_text_is_pinned(params, digest):
    gg, _ = compress(gen_graph(GraphGenParams(*params)))
    graph, pm = decompress(parse_grammar(format_grammar(gg)))
    text = save_graph(graph) + format_path_map(pm)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_random_round_trips():
    rng = random.Random(20240817)
    for _ in range(30):
        assert_round_trip(random_soup(rng))
    for seed in range(12):
        graph, _ = seeded_case(seed)
        assert_round_trip(graph)
