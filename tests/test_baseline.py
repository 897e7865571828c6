import pytest

from gramsim import LabeledGraph, load_graph, simulate_on_graph

from .conftest import greatest_simulation, random_soup, seeded_case


def test_fig1_result(fig1_graph, cd_pattern):
    got = simulate_on_graph(fig1_graph, cd_pattern)
    assert got == {1: frozenset({6}), 2: frozenset({7})}


def test_fig1_first_step(fig1_graph, cd_pattern):
    steps = []
    simulate_on_graph(fig1_graph, cd_pattern, on_step=steps.append)
    first = steps[0]
    assert first.node == 1
    assert first.predecessors == {2, 5, 7}
    assert first.removed == {1, 3, 4, 6, 8, 9}
    assert first.candidates[1] == {1, 3, 6, 8}
    assert first.candidates[2] == {2, 7}
    # the first visit of every pattern node always produces a step
    assert {s.node for s in steps} == {1, 2}


def test_no_match_returns_empty(fig1_graph):
    pattern = load_graph("1 z\n")
    assert simulate_on_graph(fig1_graph, pattern) == {}


def test_unsatisfiable_edge_returns_empty():
    g = load_graph("1 a\n2 b\n1 2\n")
    p = load_graph("1 b\n2 a\n1 2\n")  # b -> a edge exists nowhere
    assert simulate_on_graph(g, p) == {}


def test_self_loop_pattern_needs_a_cycle():
    chain = load_graph("1 a\n2 a\n1 2\n")
    loop = LabeledGraph([(1, "a")], {(1, 1)})
    # every node carries the right label, yet none has an endless a-walk
    assert simulate_on_graph(chain, loop) == {}
    cycle = load_graph("1 a\n2 a\n1 2\n2 1\n")
    assert simulate_on_graph(cycle, loop) == {1: frozenset({1, 2})}


def test_edge_free_pattern_is_label_matching(fig1_graph):
    p = load_graph("1 c\n2 d\n")
    got = simulate_on_graph(fig1_graph, p)
    assert got == {1: frozenset({1, 3, 6, 8}), 2: frozenset({2, 4, 7, 9})}


def test_rejects_empty_inputs(fig1_graph):
    empty = LabeledGraph([], set())
    with pytest.raises(ValueError):
        simulate_on_graph(empty, fig1_graph)
    with pytest.raises(ValueError):
        simulate_on_graph(fig1_graph, empty)


def test_matches_brute_force_oracle():
    import random
    rng = random.Random(97)
    checked = 0
    for _ in range(60):
        g = random_soup(rng, max_nodes=9)
        p = random_soup(rng, max_nodes=3)
        want = greatest_simulation(g, p)
        assert simulate_on_graph(g, p) == want
        checked += 1
    assert checked == 60


def test_matches_oracle_on_generated_inputs():
    for seed in range(25):
        graph, pattern = seeded_case(seed, max_base=8)
        assert simulate_on_graph(graph, pattern) == greatest_simulation(graph, pattern)
