import pytest
from hypothesis import given, settings, strategies as st

from gramsim import (GraphFormatError, LabeledGraph, graphs_isomorphic_under_map,
                     load_graph, predecessors, save_graph)

from .conftest import corrupt_line, random_soup


def test_load_minimal():
    g = load_graph("1 a\n2 b\n1 2\n")
    assert g.node_ids == (1, 2)
    assert g.label(1) == "a"
    assert g.label(2) == "b"
    assert g.edges == frozenset({(1, 2)})


def test_load_ignores_comments_and_blanks():
    g = load_graph("# header\n\n1 a\n# mid\n2 a\n\n1 2\n")
    assert g.node_ids == (1, 2)
    assert len(g.edges) == 1


def test_save_load_round_trip(fig1_graph):
    assert load_graph(save_graph(fig1_graph)) == fig1_graph


def test_save_is_canonical(fig1_graph):
    text = save_graph(fig1_graph)
    assert text == save_graph(load_graph(text))
    assert text.endswith("\n")
    # nodes ascending, then edges sorted
    lines = text.strip().splitlines()
    assert lines[0].split()[0] == "1"
    assert lines[9].split() == ["1", "2"]


@pytest.mark.parametrize("text,fragment", [
    ("1\n", "line 1"),
    ("1 a extra\n", "line 1"),
    ("0 a\n", "positive"),
    ("-3 a\n", "integer node id"),
    ("1 a\n1 b\n", "duplicate"),
    ("1 a\n2 b\n1 2\n3 c\n", "after edge"),
    ("1 a\n1 2\n", "undeclared"),
    ("1 a*\n", "label"),
    ("² a\n", "line 1: non-ASCII"),  # int() rejects it
    ("1 a\n١ b\n", "line 2: non-ASCII"),  # int() reads it as 1
    ("1 a\n2 b\n1 ٢\n", "line 3: non-ASCII"),
    # more digits than int() converts
    pytest.param("1" * 5000 + " a\n", "line 1: ", id="over-long-node-id"),
    pytest.param("1 a\n2 b\n1 " + "2" * 5000 + "\n", "line 3: ", id="over-long-edge-end"),
])
def test_load_rejects(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        load_graph(text)
    assert fragment in str(err.value)


def test_load_reports_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        load_graph("1 a\n2 b\nbroken line here\n")
    assert "line 3" in str(err.value)


def test_save_rejects_all_digit_label():
    g = LabeledGraph([(1, "7")], set())
    with pytest.raises(ValueError):
        save_graph(g)


def test_labeled_graph_validates():
    with pytest.raises(ValueError):
        LabeledGraph([(0, "a")], set())
    with pytest.raises(ValueError):
        LabeledGraph([(1, "a"), (1, "b")], set())
    with pytest.raises(ValueError):
        LabeledGraph([(1, "a")], {(1, 2)})
    with pytest.raises(ValueError):
        LabeledGraph([(1, "not ok")], set())
    # True == 1 as an int, but the edge-list and path-map formats cannot
    # hold it
    with pytest.raises(ValueError, match="positive integer, got True"):
        LabeledGraph([(True, "a"), (2, "a")], [(True, 2)])
    for end in (True, 1.0):
        with pytest.raises(ValueError, match=f"undeclared node {end!r}"):
            LabeledGraph([(1, "a"), (2, "a")], [(end, 2)])
        with pytest.raises(ValueError, match=f"undeclared node {end!r}"):
            LabeledGraph([(1, "a"), (2, "a")], [(2, end)])


def test_predecessors_matches_edge_scan(fig1_graph):
    for target in fig1_graph.node_ids:
        got = predecessors(fig1_graph, {target})
        want = {s for (s, t) in fig1_graph.edges if t == target}
        assert got == want


def test_predecessors_of_set(fig1_graph):
    assert predecessors(fig1_graph, {6}) == {5, 7}
    assert predecessors(fig1_graph, {6, 9}) == {5, 7, 8}
    assert predecessors(fig1_graph, set()) == set()


def test_predecessors_rejects_unknown_node(fig1_graph):
    with pytest.raises(ValueError):
        predecessors(fig1_graph, {99})


def test_indexes_agree_with_edges(fig1_graph):
    pred = fig1_graph.predecessor_index()
    for (s, t) in fig1_graph.edges:
        assert s in pred[t]
    assert sum(len(v) for v in pred.values()) == len(fig1_graph.edges)


def test_equality_ignores_construction_order():
    g1 = LabeledGraph([(1, "a"), (2, "b")], {(1, 2), (2, 1)})
    g2 = LabeledGraph([(2, "b"), (1, "a")], {(2, 1), (1, 2)})
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != LabeledGraph([(1, "a"), (2, "b")], {(1, 2)})


def test_nodes_ascend_and_edges_are_plain_tuples_however_given():
    edge = (3, 1)
    g = LabeledGraph([(3, "c"), (1, "a"), (2, "b")], [[1, 2], edge])
    assert g.nodes == ((1, "a"), (2, "b"), (3, "c"))
    assert g.node_ids == (1, 2, 3)
    assert g.edges == {(1, 2), (3, 1)}
    assert all(type(e) is tuple for e in g.edges)
    # a tuple given as an edge is kept, not copied
    assert any(e is edge for e in g.edges)
    g2 = LabeledGraph(g.nodes, g.edges)
    assert g2 == g and g2.nodes == g.nodes


def test_isomorphic_under_map_identity(fig1_graph):
    ident = {n: n for n in fig1_graph.node_ids}
    assert graphs_isomorphic_under_map(fig1_graph, fig1_graph, ident)


def test_isomorphic_under_map_relabeled():
    g1 = load_graph("1 a\n2 b\n1 2\n")
    g2 = load_graph("5 a\n9 b\n5 9\n")
    assert graphs_isomorphic_under_map(g1, g2, {1: 5, 2: 9})
    assert not graphs_isomorphic_under_map(g1, g2, {1: 9, 2: 5})


def test_isomorphic_under_map_detects_missing_edge():
    g1 = load_graph("1 a\n2 a\n1 2\n")
    g2 = load_graph("1 a\n2 a\n2 1\n")
    assert not graphs_isomorphic_under_map(g1, g2, {1: 1, 2: 2})


def test_isomorphic_under_map_requires_total_mapping(fig1_graph):
    with pytest.raises(ValueError):
        graphs_isomorphic_under_map(fig1_graph, fig1_graph, {1: 1})


@given(st.integers(0, 10**6))
def test_soup_round_trip(seed):
    import random
    g = random_soup(random.Random(seed))
    assert load_graph(save_graph(g)) == g


# ---- parser fuzzing ----

LABELS = st.from_regex(r"[A-Za-z0-9_]{1,6}", fullmatch=True).filter(lambda t: not t.isdigit())


@st.composite
def graphs(draw):
    ids = draw(st.lists(st.integers(1, 10**9), min_size=1, max_size=12, unique=True))
    nodes = [(nid, draw(LABELS)) for nid in ids]
    edges = draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=24))
    return LabeledGraph(nodes, edges)


@given(graphs())
def test_generated_graphs_round_trip(g):
    assert load_graph(save_graph(g)) == g


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_a_corrupted_line_fails_on_the_first_bad_line(g, data):
    lineno, text = corrupt_line(save_graph(g), data)
    lines = text.split("\n")
    try:
        got = load_graph(text)
    except GraphFormatError as exc:
        where, _, _ = str(exc).partition(": ")
        assert where.startswith("line ")
        bad = int(where[5:])
        # the corrupted line, or a later one it made inconsistent, such as
        # an edge to a node whose line it turned into a comment; either
        # way the text before the named line is still a graph
        assert bad >= lineno
        load_graph("\n".join(lines[:bad - 1]) + "\n")
        return
    assert load_graph(save_graph(got)) == got
