"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines;
each line carries the measured values behind the verdict.
"""

import gc
import random
import statistics
import time
from pathlib import Path

import pytest

from gramsim import (GraphGenParams, GraphGrammar, LabeledGraph, PatternGenParams,
                     bare, compress, compression_ratio, decompress, expand_by_node,
                     expand_to_nodes, gen_graph, gen_pattern,
                     graphs_isomorphic_under_map, load_graph, parse_path_map,
                     parse_suffix, predecessor_suffixes, predecessors,
                     represented_node_union, simulate_on_graph,
                     simulate_on_grammar, suffix_set_difference)
from gramsim.cli import main as cli_main

from .conftest import random_soup

DATA = Path(__file__).parent / "data"
FIG1_EL = str(DATA / "fig1.el")
FIG1_GG = str(DATA / "fig1.gg")
CD_EL = str(DATA / "cd.el")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_fixture_regression(fig1_grammar, fig1_graph, cd_pattern):
    started = time.perf_counter()

    steps = []
    result = simulate_on_grammar(fig1_grammar, cd_pattern, on_step=steps.append)
    first_ok = {str(s) for s in steps[0].candidates[2]} == {"CDCD/1:CD/2:d"}
    expand_ok = expand_to_nodes(fig1_grammar, result) == {(1, 6), (2, 7)}

    base_steps = []
    base = simulate_on_graph(fig1_graph, cd_pattern, on_step=base_steps.append)
    base_ok = base == {1: frozenset({6}), 2: frozenset({7})}
    inter_ok = (base_steps[0].predecessors == {2, 5, 7}
                and base_steps[0].removed == {1, 3, 4, 6, 8, 9})

    elapsed = time.perf_counter() - started
    ok = first_ok and expand_ok and base_ok and inter_ok and elapsed < 1.0
    _report(1, ok, f"worked example exact on both engines, {elapsed * 1000:.0f} ms")


def test_criterion_2_delta_pre_anchors(fig1_grammar):
    delta = suffix_set_difference(
        fig1_grammar, [bare("b"), bare("c"), bare("d")],
        [parse_suffix("CDCD/1:CD/2:d"), parse_suffix("S/2:b")])
    delta_ok = {str(s) for s in delta} == {"c", "CDCD/2:CD/2:d"}
    pre = predecessor_suffixes(fig1_grammar, [bare("c")])
    pre_ok = {str(s) for s in pre} == {"CDCD/1:CD/2:d", "S/2:b"}
    _report(2, delta_ok and pre_ok,
            f"difference given {sorted(str(s) for s in delta)}, "
            f"predecessors given {sorted(str(s) for s in pre)}")


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    cases = 0
    for seed in range(1000):
        rng = random.Random(900000 + seed)
        graph = gen_graph(GraphGenParams(
            base_nodes=rng.randint(6, 40), variations=rng.randint(2, 5),
            delete_fraction=rng.choice([0.0, 0.25, 0.5]),
            edges_per_node=rng.choice([0.8, 1.25, 1.6]),
            label_alphabet=rng.choice([1, 2, 3]), seed=rng.randrange(10 ** 6)))
        assert len(graph) <= 200
        nodes = rng.randint(1, 5)
        pattern = gen_pattern(
            PatternGenParams(nodes=nodes, edges=min(rng.randint(0, 6), nodes * nodes),
                             seed=rng.randrange(10 ** 6)),
            graph.label_set())
        want = simulate_on_graph(graph, pattern)
        gg, pm = compress(graph)
        plain = expand_by_node(gg, simulate_on_grammar(gg, pattern), pm)
        fast = expand_by_node(gg, simulate_on_grammar(gg, pattern, optimized=True), pm)
        if plain != want or fast != want:
            _report(3, False, f"engines disagree on case seed {seed}")
        cases += 1
    elapsed = time.perf_counter() - started
    _report(3, cases == 1000 and elapsed < 300,
            f"{cases} cases, both engine modes equal the baseline, {elapsed:.0f} s")


def test_criterion_4_rep_semantics():
    cases = 0
    for grammar_seed in range(25):
        rng = random.Random(770000 + grammar_seed)
        graph = gen_graph(GraphGenParams(
            base_nodes=rng.randint(6, 16), variations=rng.randint(2, 4),
            delete_fraction=rng.choice([0.0, 0.3, 0.5]),
            edges_per_node=rng.choice([1.0, 1.25, 1.6]),
            label_alphabet=rng.choice([1, 2]), seed=rng.randrange(10 ** 6)))
        gg, _ = compress(graph)
        plain, _ = decompress(gg)
        pool = []
        for steps, terminal in gg.iter_full_paths():
            for k in range(len(steps) + 1):
                pool.append(parse_suffix(
                    ":".join([f"{n}/{o}" for n, o in steps[k:]] + [terminal])))
        pool = sorted(set(pool), key=lambda s: str(s))
        for _ in range(40):
            a = rng.sample(pool, min(len(pool), rng.randint(1, 6)))
            b = rng.sample(pool, min(len(pool), rng.randint(1, 6)))
            rep = lambda items: represented_node_union(gg, items)
            delta = suffix_set_difference(gg, a, b)
            if rep(delta) != rep(a) - rep(b):
                _report(4, False, f"difference identity broken, grammar seed {grammar_seed}")
            pre = predecessor_suffixes(gg, a)
            if rep(pre) != predecessors(plain, rep(a)):
                _report(4, False, f"predecessor identity broken, grammar seed {grammar_seed}")
            reps = [rep([s]) for s in pre]
            for i, left in enumerate(reps):
                for right in reps[i + 1:]:
                    if left & right:
                        _report(4, False, f"overlapping predecessors, grammar seed {grammar_seed}")
            cases += 1
    _report(4, cases == 1000, f"{cases} suffix-set cases over 25 grammars, identities exact")


def test_criterion_5_round_trip(fig1_graph):
    def check(graph):
        gg, pm_c = compress(graph)
        out, pm_d = decompress(gg)
        mapping = {nid: pm_c.node_for(path) for path, nid in pm_d}
        return graphs_isomorphic_under_map(out, graph, mapping)

    cases = 0
    rng = random.Random(550001)
    for _ in range(700):
        if not check(random_soup(rng, max_nodes=30)):
            _report(5, False, "soup graph failed the round trip")
        cases += 1
    for seed in range(300):
        graph = gen_graph(GraphGenParams(
            base_nodes=rng.randint(20, 100), variations=rng.randint(2, 5),
            delete_fraction=rng.choice([0.0, 0.25, 0.5]),
            edges_per_node=rng.choice([0.8, 1.25, 1.6, 2.0]),
            label_alphabet=rng.choice([1, 2, 4]), seed=seed))
        assert len(graph) <= 500
        if not check(graph):
            _report(5, False, f"generated graph seed {seed} failed the round trip")
        cases += 1
    fig1_ok = check(fig1_graph)
    _report(5, cases == 1000 and fig1_ok,
            f"{cases} random graphs plus the worked example, all isomorphic")


def test_criterion_6_compression_effectiveness():
    def ratio(variations, edges_per_node):
        graph = gen_graph(GraphGenParams(
            base_nodes=50, variations=variations, delete_fraction=0.5,
            edges_per_node=edges_per_node, label_alphabet=1, seed=7))
        assert len(graph) >= 10000 and variations >= 20
        gg, _ = compress(graph)
        return compression_ratio(graph, gg)

    gate = ratio(4800, 1.25)
    sweep = {epn: ratio(1200, epn) for epn in (1.25, 1.6, 2.0)}
    gate_ok = gate <= 1 / 3
    bound_ok = sweep[2.0] <= 1 / 1.5
    monotone_ok = sweep[1.25] < sweep[1.6] < sweep[2.0]
    _report(6, gate_ok and bound_ok and monotone_ok,
            f"ratio {gate:.4f} at 1.25 edges/node (gate 0.3333); density sweep "
            f"{sweep[1.25]:.4f} < {sweep[1.6]:.4f} < {sweep[2.0]:.4f}, "
            f"2.0 bound 0.6667")


def test_criterion_7_speedup_trend():
    def seconds(fn, *args, **kwargs):
        # collection runs outside the timed call: the heap holds both
        # engines' data, so a collection inside it would charge one engine
        # for traversing the other's objects
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            return time.perf_counter() - started, result
        finally:
            gc.enable()

    def first_answer(gg, pattern):
        gg.validate()
        return simulate_on_grammar(gg, pattern, optimized=True)

    def cell(variations, edges_per_node):
        """One entry per seed (3, 5, 7): the compression ratio, the cold
        first query and the warm query (median of three runs after the
        cold ones) on each engine. A seed's cold time is the median of
        three cold calls, each on fresh objects: validate plus optimized
        simulation on a grammar rebuilt from the compress output (the same
        shared sides, no cached state), and simulate_on_graph on a graph
        rebuilt from its nodes and edges."""
        seeds = []
        for seed in (3, 5, 7):
            graph = gen_graph(GraphGenParams(
                base_nodes=40, variations=variations, delete_fraction=0.0,
                edges_per_node=edges_per_node, label_alphabet=1, seed=seed))
            assert len(graph) == 40 * variations
            pattern = gen_pattern(PatternGenParams(nodes=6, edges=8, seed=seed + 1000003),
                                  graph.label_set())
            out, pm = compress(graph)
            gram_cold, base_cold = [], []
            for _ in range(3):
                gg = GraphGrammar(out.terminals, out.rules.values(), out.start, out.edge_pairs)
                elapsed, cold = seconds(first_answer, gg, pattern)
                gram_cold.append(elapsed)
                fresh_graph = LabeledGraph(graph.nodes, graph.edges)
                elapsed, want = seconds(simulate_on_graph, fresh_graph, pattern)
                base_cold.append(elapsed)
            # the warm runs use the last fresh objects, each run once cold
            base_runs = [seconds(simulate_on_graph, fresh_graph, pattern) for _ in range(3)]
            gram_runs = [seconds(simulate_on_grammar, gg, pattern, optimized=True)
                         for _ in range(3)]
            for answer in (cold, gram_runs[-1][1]):
                if expand_by_node(gg, answer, pm) != want:
                    _report(7, False, f"engines disagree at {variations} variations, "
                                      f"{edges_per_node} edges/node, seed {seed}")
            seeds.append({"ratio": compression_ratio(graph, out),
                          "gram_cold": statistics.median(gram_cold),
                          "base_cold": statistics.median(base_cold),
                          "gram_warm": statistics.median(t for t, _ in gram_runs),
                          "base_warm": statistics.median(t for t, _ in base_runs)})
        return seeds

    def median(seeds, kind):
        return statistics.median(seed[kind] for seed in seeds)

    densities = (2.0, 1.6, 1.25)
    big = {epn: cell(2500, epn) for epn in densities}
    small = {epn: cell(500, epn) for epn in densities}
    warm_big = {epn: median(s, "base_warm") / median(s, "gram_warm") for epn, s in big.items()}
    warm_small = {epn: median(s, "base_warm") / median(s, "gram_warm")
                  for epn, s in small.items()}
    faster_ok = median(big[1.25], "gram_warm") < median(big[1.25], "base_warm")
    size_ok = all(warm_big[epn] > warm_small[epn] for epn in densities)
    # The paper's axis is compression strength, measured here as the
    # ratio: the three most compressed of the nine 100000-node cells must
    # beat the graph engine cold by more than the three least compressed,
    # and every cell must beat it
    cells = sorted((seed["ratio"], seed["base_cold"] / seed["gram_cold"])
                   for seeds in big.values() for seed in seeds)
    strongest = statistics.median(speedup for _, speedup in cells[:3])
    weakest = statistics.median(speedup for _, speedup in cells[-3:])
    strength_ok = strongest > weakest
    cold_ok = all(speedup > 1 for _, speedup in cells)

    def listing(values, fmt):
        return ", ".join(f"{epn}: {fmt.format(values[epn])}" for epn in densities)

    _report(7, faster_ok and size_ok and strength_ok and cold_ok,
            f"warm ms at 100000 nodes, 1.25 edges/node: grammar "
            f"{median(big[1.25], 'gram_warm') * 1000:.2f} vs baseline "
            f"{median(big[1.25], 'base_warm') * 1000:.2f}; "
            f"median warm speedup by density at 100000 nodes {listing(warm_big, '{:.1f}')} "
            f"vs 20000 nodes {listing(warm_small, '{:.1f}')}; "
            f"cold speedup at 100000 nodes by compression ratio "
            f"{', '.join(f'{ratio:.4f}: {speedup:.1f}' for ratio, speedup in cells)}; "
            f"median of the three lowest ratios {strongest:.1f} vs the three highest "
            f"{weakest:.1f}; lowest cold speedup {min(s for _, s in cells):.1f} (bound 1)")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    def run_twice(*argv):
        cli_main(list(argv))
        first = capsys.readouterr().out
        cli_main(list(argv))
        return first, capsys.readouterr().out

    mismatches = []

    gg_a, gg_b = tmp_path / "a.gg", tmp_path / "b.gg"
    cli_main(["compress", "-i", FIG1_EL, "-o", str(gg_a)])
    cli_main(["compress", "-i", FIG1_EL, "-o", str(gg_b)])
    if gg_a.read_bytes() != gg_b.read_bytes():
        mismatches.append("compress grammar")
    if (tmp_path / "a.gg.map").read_bytes() != (tmp_path / "b.gg.map").read_bytes():
        mismatches.append("compress map")

    for name, argv in [
        ("decompress", ("decompress", "-i", FIG1_GG)),
        ("simulate suffixes", ("simulate", "--grammar", FIG1_GG, "--pattern", CD_EL)),
        ("simulate expand", ("simulate", "--grammar", FIG1_GG, "--pattern", CD_EL, "--expand")),
        ("simulate optimized", ("simulate", "--grammar", FIG1_GG, "--pattern", CD_EL,
                                "--optimized", "--expand")),
        ("simulate baseline", ("simulate", "--graph", FIG1_EL, "--pattern", CD_EL)),
        ("gen-graph", ("gen-graph", "--base-nodes", "12", "--variations", "3", "--seed", "7")),
        ("gen-pattern", ("gen-pattern", "--nodes", "4", "--edges", "5", "--seed", "3",
                         "--alphabet", "a,b")),
    ]:
        first, second = run_twice(*argv)
        if first != second:
            mismatches.append(name)

    config = tmp_path / "tiny.cfg"
    config.write_text("base_nodes = 8\nvariations = 2\nseeds = 1\nrepetitions = 1\n"
                      "pattern_nodes = 3\npattern_edges = 3\ndelete_fraction = 0.25\n"
                      "edges_per_node = 1.0\nlabel_alphabet = 2\n")
    first, second = run_twice("bench", "--config", str(config))

    def stable_columns(text):
        # wall-clock columns (baseline_ms, grammar_ms, compress_ms) vary
        # run to run
        rows = [line.split(",") for line in text.strip().splitlines()]
        kept = [i for i, name in enumerate(rows[0])
                if name not in ("baseline_ms", "grammar_ms", "compress_ms")]
        return [[row[i] for i in kept] for row in rows]

    if stable_columns(first) != stable_columns(second):
        mismatches.append("bench")

    _report(8, not mismatches,
            "all commands byte-identical across repeat runs; bench compared on "
            "its non-timing columns" + (f"; mismatches: {mismatches}" if mismatches else ""))
