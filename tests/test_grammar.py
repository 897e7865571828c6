import gc
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gramsim import (GrammarFormatError, GrammarPathSuffix, GrammarValidationError,
                     GraphGrammar, GraphGenParams, PathMap, Rule, SuffixFormatError,
                     SuffixSet, bare, compress, decompress, expand_by_node,
                     format_grammar, format_path_map, gen_graph, load_graph,
                     parse_grammar, parse_path_map, parse_suffix,
                     represented_node_union, simulate_on_graph, simulate_on_grammar)
from gramsim.grammar import _fit_shift
from gramsim.simulate import _state

from .conftest import (anchored_paths, corrupt_line, dict_expansion, entry_lines,
                       full_path_suffixes, full_paths, seeded_case)

DATA = Path(__file__).parent / "data"


def test_fig1_text_round_trips_byte_for_byte():
    text = (DATA / "fig1.gg").read_text()
    assert format_grammar(parse_grammar(text)) == text


def test_parse_basics(fig1_grammar):
    gg = fig1_grammar
    assert gg.terminals == frozenset({"b", "c", "d"})
    assert gg.start == "S"
    assert set(gg.rules) == {"CD", "CDCD", "S"}
    assert gg.rules["CD"].body == ((1, "c"), (2, "d"))
    assert gg.rules["S"].body == ((1, "CDCD"), (2, "b"), (3, "CDCD"))
    assert len(gg.edge_pairs) == 4
    assert gg.validate() == []


def test_rule_validation():
    with pytest.raises(ValueError):
        Rule("bad name", ())
    with pytest.raises(ValueError):
        Rule("A", ((0, "x"),))
    with pytest.raises(ValueError):
        Rule("A", ((1, "x"), (1, "y")))
    # True is an int, but format_grammar would write it as "True:a",
    # which parse_grammar rejects
    with pytest.raises(ValueError, match="ordinal must be a positive integer, got True"):
        Rule("S", ((True, "a"), (2, "a")))
    # body is kept sorted by ordinal
    assert Rule("A", ((2, "y"), (1, "x"))).body == ((1, "x"), (2, "y"))


@pytest.mark.parametrize("pair", [
    ("S/1:a", "S/1:a"),
    (parse_suffix("S/1:a"),),
    (parse_suffix("S/1:a"),) * 3,
    [parse_suffix("S/1:a")] * 2,
    (parse_suffix("S/1:a"), "a"),
])
def test_grammar_rejects_a_malformed_edge_pair(pair):
    good = (parse_suffix("S/1:a"), parse_suffix("S/2:a"))
    with pytest.raises(ValueError, match="is not two GrammarPathSuffix values"):
        GraphGrammar(["a"], [Rule("S", ((1, "a"), (2, "a")))], "S", [good, pair])


@pytest.mark.parametrize("text,fragment", [
    ("RULE A => 1:a\n", "before TERMINALS"),
    ("TERMINALS a\nSTART S\nSTART S\n", "duplicate START"),
    ("TERMINALS a\nTERMINALS b\n", "duplicate TERMINALS"),
    ("TERMINALS a\nSTART S\nRULE S = 1:a\n", "=>"),
    ("TERMINALS a\nSTART S\nRULE S => 1-a\n", "line 3: malformed body item '1-a'"),
    ("TERMINALS a\nSTART S\nRULE S => x:a\n", "line 3: malformed body item 'x:a'"),
    # the line gives an item's shape, and Rule checks what it holds
    ("TERMINALS a\nSTART S\nRULE S => 0:a\n",
     "line 3: rule S: ordinal must be a positive integer, got 0"),
    ("TERMINALS a\nSTART S\nRULE S => 1:a-b\n", "line 3: rule S: invalid label 'a-b'"),
    ("TERMINALS a\nSTART S\nRULE S => 1:\n", "line 3: rule S: invalid label ''"),
    ("TERMINALS a\nSTART S\nRULE S-1 => 1:a\n", "line 3: invalid rule name 'S-1'"),
    pytest.param("TERMINALS a\nSTART S\nRULE S => " + "9" * 5000 + ":a\n", "line 3: ",
                 id="over-long-ordinal"),
    ("TERMINALS a\nSTART S\nRULE S => ²:a\n", "line 3: non-ASCII"),
    ("TERMINALS a\nSTART S\nRULE S => ١:a\n", "line 3: non-ASCII"),
    ("TERMINALS a\nSTART S\nRULE S => 1:a\nEDGE S/١:a S/1:a\n", "line 4: non-ASCII"),
    ("TERMINALS a\nSTART S\nRULE S => 1:a\nRULE S => 1:a\n", "already defined on line 3"),
    ("TERMINALS a\nSTART S\nEDGE S/1:a\n", "two suffixes"),
    ("TERMINALS a\nSTART S\nEDGE S/1:a S/0:a\n", "ordinal"),
    ("TERMINALS a\nSTART S\nWHAT is this\n", "unknown directive"),
    ("START S\nRULE S =>\n", "before TERMINALS"),
    ("TERMINALS a\n", "missing START"),
    ("", "missing TERMINALS"),
])
def test_parse_rejects(text, fragment):
    with pytest.raises(GrammarFormatError) as err:
        parse_grammar(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,fragment", [
    ("TERMINALS a\nSTART S\nRULE S => 1:nope\n", "unknown label"),
    ("TERMINALS a\nSTART S\nRULE S => 1:S\n", "start symbol S appears in body"),
    ("TERMINALS a S\nSTART S\nRULE S => 1:a\n", "both a terminal and a nonterminal"),
    ("TERMINALS a\nSTART S\n", "start symbol S has no rule"),
    ("TERMINALS a\nSTART S\nRULE S => 1:A\nRULE A => 1:B\nRULE B => 1:A\n",
     "recursive grammar: A -> B -> A"),
    # a cycle that only a later root reaches, after the start rule's walk
    ("TERMINALS a\nSTART S\nRULE S => 1:B\nRULE B => 1:a\n"
     "RULE X => 1:Y\nRULE Y => 1:B 2:Z\nRULE Z => 1:X\n",
     "recursive grammar: X -> Y -> Z -> X"),
    ("TERMINALS a\nSTART S\nRULE S => 1:A\nRULE A => 1:a 2:A\n", "recursive grammar: A -> A"),
    # two cycles: the one the walk meets first is named
    ("TERMINALS a\nSTART S\nRULE S => 1:A\nRULE A => 1:B 2:C\nRULE B => 1:A\nRULE C => 1:C\n",
     "recursive grammar: A -> B -> A"),
    ("TERMINALS a\nSTART S\nRULE S => 1:a\nEDGE S/2:a S/1:a\n", "no ordinal 2"),
    ("TERMINALS a\nSTART S\nRULE S => 1:a 2:a\nEDGE a S/1:a\n", "without an anchor"),
    ("TERMINALS a\nSTART S\nRULE S => 1:A 2:A\nRULE A => 1:a\nEDGE S/1:A/1:a A/1:a\n",
     "anchor rules differ"),
])
def test_validate_reports(text, fragment):
    gg = parse_grammar(text)
    assert any(fragment in v for v in gg.validate())
    with pytest.raises(GrammarValidationError):
        decompress(gg)


def test_decompress_fig1(fig1_grammar, fig1_graph):
    graph, pm = decompress(fig1_grammar)
    assert graph == fig1_graph
    assert len(pm) == 9
    assert pm.node_for(parse_suffix("S/1:CDCD/1:CD/1:c")) == 1
    assert pm.node_for(parse_suffix("S/2:b")) == 5
    assert pm.node_for(parse_suffix("S/3:CDCD/2:CD/2:d")) == 9
    assert [str(path) for path, nid in pm if nid == 6] == ["S/3:CDCD/1:CD/1:c"]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_path_node_agrees_with_path_map(fig1_grammar, seed):
    # a full path stands for one node, its canonical id
    _, pm = decompress(fig1_grammar)
    for path, nid in pm:
        assert represented_node_union(fig1_grammar, [path]) == {nid}
    assert fig1_grammar.node_count() == 9
    # offsets and leaf counts against a depth-first walk that uses neither
    gg, _ = compress(seeded_case(seed, max_base=10)[0])
    paths = list(gg.iter_full_paths())
    for i, (steps, terminal) in enumerate(paths, start=1):
        assert represented_node_union(gg, [GrammarPathSuffix(steps, terminal)]) == {i}
    assert gg.node_count() == len(paths)


# U is reached from no rule, so its instances, and the edges of its
# EDGE pair, are none; a still has a body position in U
UNREACHED = """TERMINALS a b
START S
RULE A => 1:a 2:b
RULE S => 1:A 2:b 3:A
RULE U => 1:A 2:a
EDGE A/1:a A/2:b
EDGE S/2:b S/1:A/1:a
EDGE U/1:A/2:b U/2:a
"""


def test_a_rule_the_start_does_not_reach_adds_no_nodes_or_edges():
    gg = parse_grammar(UNREACHED)
    assert gg.validate() == []
    assert gg.node_count() == 5
    graph, _ = decompress(gg)
    assert graph.edges == frozenset({(1, 2), (4, 5), (3, 1)})
    assert represented_node_union(gg, [parse_suffix("U/2:a")]) == frozenset()
    assert represented_node_union(gg, [parse_suffix("U/1:A/2:b")]) == frozenset()
    assert represented_node_union(gg, [bare("a")]) == {1, 4}
    # a -> b -> a matches only along U's pair, so its first node's
    # candidates are anchored at U and stand for no node
    for text in ("1 a\n2 b\n1 2\n", "1 b\n2 a\n1 2\n", "1 a\n2 b\n3 a\n1 2\n2 3\n",
                 "1 b\n2 a\n3 b\n1 2\n2 3\n"):
        pattern = load_graph(text)
        want = simulate_on_graph(graph, pattern)
        for optimized in (False, True):
            result = simulate_on_grammar(gg, pattern, optimized=optimized)
            assert expand_by_node(gg, result) == want


def test_represented_nodes(fig1_grammar):
    gg = fig1_grammar
    assert represented_node_union(gg, [parse_suffix("CDCD/1:CD/2:d")]) == {2, 7}
    assert represented_node_union(gg, [parse_suffix("d")]) == {2, 4, 7, 9}
    assert represented_node_union(gg, [bare("b")]) == {5}
    assert represented_node_union(gg, [parse_suffix("S/2:b")]) == {5}
    assert represented_node_union(
        gg, [parse_suffix("CD/1:c"), parse_suffix("d")]) == {1, 2, 3, 4, 6, 7, 8, 9}


def test_anchored_paths(fig1_grammar):
    # a suffix stands for the nodes of the full paths that end with it
    _, pm = decompress(fig1_grammar)
    s = parse_suffix("CD/2:d")
    got = anchored_paths(fig1_grammar, s)
    assert {str(p) for p in got} == {
        "S/1:CDCD/1:CD/2:d", "S/1:CDCD/2:CD/2:d",
        "S/3:CDCD/1:CD/2:d", "S/3:CDCD/2:CD/2:d",
    }
    assert represented_node_union(fig1_grammar, [s]) == {pm.node_for(p) for p in got}
    with pytest.raises(ValueError):
        represented_node_union(fig1_grammar, [parse_suffix("CD/1:d")])


def extensions(gg, s):
    """The one-step extensions of `s` as the simulator's code table has them."""
    state = _state(gg)
    key = state.encode(s)
    return [state.decode(key + c) for c in state.extensions[key[-state.width:]]]


def test_one_step_extensions(fig1_grammar):
    gg = fig1_grammar
    assert [str(s) for s in extensions(gg, bare("d"))] == ["CD/2:d"]
    assert [str(s) for s in extensions(gg, parse_suffix("CD/2:d"))] == [
        "CDCD/1:CD/2:d", "CDCD/2:CD/2:d"]
    # start-anchored suffixes extend to nothing
    assert not extensions(gg, parse_suffix("S/2:b"))
    # against the rule bodies: one extension per body position carrying
    # the suffix's first label, in canonical order
    for s in full_path_suffixes(gg):
        want = SuffixSet(GrammarPathSuffix(((rule.name, ordinal),) + s.steps, s.terminal)
                         for rule in gg.rules.values()
                         for ordinal, label in rule.body if label == s.first_label)
        assert extensions(gg, s) == list(want)


def test_extension_partition(fig1_grammar):
    # one-step extensions split a suffix's nodes without loss or overlap
    gg = fig1_grammar
    for text in ["d", "c", "CD/2:d", "CD/1:c"]:
        s = parse_suffix(text)
        parts = [represented_node_union(gg, [e]) for e in extensions(gg, s)]
        assert frozenset().union(*parts) == represented_node_union(gg, [s])
        total = sum(len(p) for p in parts)
        assert total == len(represented_node_union(gg, [s]))


def test_grammar_equality_order_insensitive():
    a = parse_grammar("TERMINALS a b\nSTART S\nRULE S => 1:a 2:b\nEDGE S/1:a S/2:b\n")
    b = parse_grammar("TERMINALS b a\nSTART S\nRULE S => 2:b 1:a\nEDGE S/1:a S/2:b\n")
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_grammar("TERMINALS a b\nSTART S\nRULE S => 1:a 2:b\n")


def test_grammar_is_immutable(fig1_grammar):
    with pytest.raises(AttributeError):
        fig1_grammar.start = "X"


def test_path_map_round_trip(fig1_grammar):
    _, pm = decompress(fig1_grammar)
    assert parse_path_map(format_path_map(pm)) == pm


@pytest.mark.parametrize("text,message", [
    ("a one\n", "line 1: expected '<path> <id>'"),
    # a bare terminal is no full path
    ("a 1\nb 2\n", "line 1: path a has no steps"),
    ("S/1:a 0\n", "line 1: node id must be a positive int, got 0"),
    ("S/1:a 1\nS/2:a 00\n", "line 2: node id must be a positive int, got 0"),
    ("S/1:a 1\nS/2:a 1\n", "line 2: duplicate node id 1"),
    ("# header\n\nS/1:a 1\nS/2:a 2\nS/1:a 3\n", "line 5: duplicate path S/1:a"),
    ("S/1:a 1\nT/1:a 2\n", "line 2: path T/1:a is anchored at T, not S"),
    ("S/1:a 1\nS/1:b 2\n", "line 2: path S/1:b: ordinal 1 of rule S is labeled both a and b"),
    ("S/1:T/1:a 1\nS/2:T 2\n", "line 2: path S/2:T: T is both a terminal and a rule"),
    ("S/1:T 1\nS/2:T/1:a 2\n", "line 2: path S/2:T/1:a: T is both a terminal and a rule"),
    # what only the whole list shows is reported on its last line
    ("S/1:T/1:U/2:a 1\nS/2:U/1:T/2:b 2\n# end\n", "line 2: recursive rules: T -> U -> T"),
    ("", "no entries"),
    ("# only a comment\n\n", "no entries"),
    ("S/1:T/1:a 1\nS/2:a 2\nS/3:T/2:b 3\n",
     "line 3: 3 paths for the 5 full paths the rules derive; missing S/1:T/2:b"),
])
def test_path_map_rejects_duplicates(text, message):
    with pytest.raises(GrammarFormatError) as err:
        parse_path_map(text)
    assert str(err.value) == message


@pytest.mark.parametrize("entries,message", [
    ([("S/1:a", 1)], "path must be a GrammarPathSuffix, got 'S/1:a'"),
    ([(parse_suffix("S/1:a"), 1), (None, 2)], "path must be a GrammarPathSuffix, got None"),
    ([(bare("a"), 1)], "path a has no steps"),
    ([(GrammarPathSuffix((5,), "a"), 1)], "step must be a (str, int) pair, got 5"),
    ([(GrammarPathSuffix((("S", 1),), ("a",)), 1)], "terminal must be a str, got ('a',)"),
    ([(parse_suffix("S/1:a"), 0)], "node id must be a positive int, got 0"),
    ([(parse_suffix("S/1:a"), -3)], "node id must be a positive int, got -3"),
    ([(parse_suffix("S/1:a"), True)], "node id must be a positive int, got True"),
    ([(parse_suffix("S/1:a"), "1")], "node id must be a positive int, got '1'"),
    ([(parse_suffix("S/1:a"), 1.0)], "node id must be a positive int, got 1.0"),
    ([(parse_suffix("S/1:a"), 1), (parse_suffix("S/1:a"), 2)], "duplicate path S/1:a"),
    ([(parse_suffix("S/1:a"), 1), (parse_suffix("S/2:a"), 1)], "duplicate node id 1"),
    ([(parse_suffix("S/1:a"), 1), (parse_suffix("T/1:a"), 2)],
     "path T/1:a is anchored at T, not S"),
    ([(parse_suffix("S/1:a"), 1), (parse_suffix("S/1:b"), 2)],
     "path S/1:b: ordinal 1 of rule S is labeled both a and b"),
    ([(parse_suffix("S/1:T/1:a"), 1), (parse_suffix("S/2:T"), 2)],
     "path S/2:T: T is both a terminal and a rule"),
    # names, ordinals and labels are Rule's to check
    ([(GrammarPathSuffix((("S", 1),), "a b"), 1)], "rule S: invalid label 'a b'"),
    ([(GrammarPathSuffix((("S", 0),), "a"), 1)],
     "rule S: ordinal must be a positive integer, got 0"),
    ([(GrammarPathSuffix((("S", True),), "a"), 1)],
     "rule S: ordinal must be a positive integer, got True"),
    ([(GrammarPathSuffix((("S:T", 1),), "a"), 1)], "invalid rule name 'S:T'"),
    ([(parse_suffix("S/1:T/1:U/2:a"), 1), (parse_suffix("S/2:U/1:T/2:b"), 2)],
     "recursive rules: T -> U -> T"),
    ([], "no entries"),
    ([(parse_suffix("S/1:T/1:a"), 1), (parse_suffix("S/2:T/2:b"), 2)],
     "2 paths for the 4 full paths the rules derive; missing S/1:T/2:b"),
])
def test_path_map_rejects_entries_the_map_format_cannot_hold(entries, message):
    with pytest.raises(ValueError) as err:
        PathMap(entries)
    assert str(err.value) == message
    assert not isinstance(err.value, GrammarFormatError)


_path_texts = st.sampled_from(["a", "b", "S/1:a", "S/2:a", "S/1:T/3:b", "R2/1:S/1:a"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(_path_texts.map(parse_suffix), _path_texts, st.none(),
              st.sampled_from([GrammarPathSuffix((("S", 0),), "a b"),
                               GrammarPathSuffix((("S", True),), "a"),
                               GrammarPathSuffix((("S", 1),), "a b")])),
    st.one_of(st.integers(-3, 8), st.booleans(), st.integers(1, 8).map(str))), max_size=6))
def test_every_accepted_path_map_round_trips(entries):
    try:
        pm = PathMap(entries)
    except ValueError:
        return
    text = format_path_map(pm)
    again = parse_path_map(text)
    assert again == pm and format_path_map(again) == text
    assert list(again) == list(pm)


# ---- the per-document token memo behind both parsers ----


def test_a_step_token_is_not_a_terminal_once_seen_as_a_step():
    message = "suffix 'S/2:S/1' must end with a terminal label, not a step"
    with pytest.raises(GrammarFormatError) as err:
        parse_path_map("S/1:a 1\nS/2:S/1 2\n")
    assert str(err.value) == f"line 2: {message}"
    with pytest.raises(GrammarFormatError) as err:
        parse_grammar("TERMINALS a\nSTART S\nRULE S => 1:a 2:a\nEDGE S/1:a S/2:S/1\n")
    assert str(err.value) == f"line 4: {message}"


def test_a_terminal_token_is_not_a_step_once_seen_as_a_terminal():
    # 'a' is checked as a terminal on each of the first 200 lines; as a
    # step on line 201 it still fails with that line's number
    good = "".join(f"S/{i}:a {i}\n" for i in range(1, 201))
    with pytest.raises(GrammarFormatError) as err:
        parse_path_map(good + "S/1:a:a 201\n")
    assert str(err.value) == "line 201: step 'a' has no '/' in suffix 'S/1:a:a'"
    head = "TERMINALS a\nSTART S\nRULE S => " + " ".join(f"{i}:a" for i in range(1, 201)) + "\n"
    edges = "".join(f"EDGE S/{i}:a S/{i + 1}:a\n" for i in range(1, 200))
    with pytest.raises(GrammarFormatError) as err:
        parse_grammar(head + edges + "EDGE S/1:a S/2:a:a\n")
    assert str(err.value) == "line 203: step 'a' has no '/' in suffix 'S/2:a:a'"


def test_a_repeated_edge_token_is_one_suffix_and_a_bad_one_fails_each_time():
    head = "TERMINALS a\nSTART S\nRULE S => 1:T 2:T\nRULE T => 1:a 2:a\n"
    gg = parse_grammar(head + "EDGE T/1:a T/2:a\nEDGE T/2:a T/1:a\n")
    (l1, r1), (l2, r2) = gg.edge_pairs
    assert l1 is r2 and r1 is l2
    # a token that failed is not remembered: the same token fails again,
    # with the same message, on whichever line it comes first
    for lines, lineno in [(["EDGE T/1:a T/0:a", "EDGE T/1:a T/0:a"], 5),
                          (["EDGE T/1:a T/2:a", "EDGE T/1:a T/0:a"], 6)]:
        with pytest.raises(GrammarFormatError) as err:
            parse_grammar(head + "\n".join(lines) + "\n")
        assert str(err.value) == f"line {lineno}: invalid ordinal '0' in suffix 'T/0:a'"


@pytest.mark.parametrize("bad,message", [
    ("S/0:a", "invalid ordinal '0' in suffix 'S/0:a'"),
    ("S/1:T/x:a", "invalid ordinal 'x' in suffix 'S/1:T/x:a'"),
    ("S/1:T-1/1:a", "invalid rule name 'T-1' in suffix 'S/1:T-1/1:a'"),
    ("S/1:b-", "invalid terminal 'b-' in suffix 'S/1:b-'"),
])
def test_a_bad_token_after_many_good_lines_reports_its_own_line(bad, message):
    good = "".join(f"S/{i}:T/{i}:a {i}\n" for i in range(1, 301))
    with pytest.raises(GrammarFormatError) as err:
        parse_path_map(good + f"{bad} 301\n")
    assert str(err.value) == f"line 301: {message}"
    assert type(err.value.__cause__) is SuffixFormatError


def test_leading_zero_ordinals_parse_to_the_same_path():
    with pytest.raises(GrammarFormatError) as err:
        parse_path_map("S/1:a 1\nS/01:a 2\n")
    assert str(err.value) == "line 2: duplicate path S/1:a"
    with pytest.raises(GrammarFormatError) as err:
        parse_path_map("S/01:a 1\nS/1:a 2\n")
    assert str(err.value) == "line 2: duplicate path S/1:a"
    pm = parse_path_map("S/01:T/010:a 1\nS/01:T/9:b 2\n")
    assert [str(path) for path, _ in pm] == ["S/1:T/10:a", "S/1:T/9:b"]
    assert format_path_map(pm) == "CANONICAL\nSTART S\nRULE T => 9:b 10:a\nRULE S => 1:T\n2\n1\n"
    gg = parse_grammar("TERMINALS a\nSTART S\nRULE S => 1:a 2:a\nEDGE S/01:a S/2:a\n"
                       "EDGE S/1:a S/02:a\n")
    assert format_grammar(gg).endswith("\nEDGE S/1:a S/2:a\n")
    assert gg.validate() == []


@pytest.mark.parametrize("text,fragment", [
    ("S/1:a 1\nS/2:a ١\n", "line 2: non-ASCII"),  # int() reads it as 1
    ("S/1:a ²\n", "line 1: non-ASCII"),
    ("S/١:a 1\n", "line 1: non-ASCII"),
])
def test_path_map_rejects_non_ascii_digits(text, fragment):
    with pytest.raises(GrammarFormatError) as err:
        parse_path_map(text)
    assert fragment in str(err.value)


def test_reloaded_grammar_hashes_and_compares_equal(fig1_grammar):
    graph = gen_graph(GraphGenParams(base_nodes=12, variations=4, delete_fraction=0.3,
                                     edges_per_node=1.25, label_alphabet=2, seed=5))
    for gg in (fig1_grammar, compress(graph)[0]):
        copy = parse_grammar(format_grammar(gg))
        assert copy is not gg
        assert copy == gg
        assert hash(copy) == hash(gg)


def test_empty_rule_body_round_trips():
    text = "TERMINALS a\nSTART S\nRULE S => 1:a 2:A\nRULE A =>\n"
    gg = parse_grammar(text)
    assert gg.rules["A"].body == ()
    assert format_grammar(parse_grammar(format_grammar(gg))) == format_grammar(gg)
    graph, _ = decompress(gg)
    assert graph.node_ids == (1,)


# ---- expansion by instance offsets, against the anchored-path reference ----


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_expansion_matches_anchored_paths(seed):
    graph, pattern = seeded_case(seed, max_base=10)
    gg, pm = compress(graph)
    rng = random.Random(seed)
    # what expansion meets: result suffixes and their one-step extensions,
    # a bare terminal, and start-anchored full paths
    result = simulate_on_grammar(gg, pattern, optimized=rng.random() < 0.5)
    probes = [s for sset in result.candidates.values() for s in sset]
    probes += [e for s in list(probes) for e in extensions(gg, s)]
    probes.append(bare(rng.choice(sorted(gg.terminals))))
    full = [path for path, _ in pm]
    probes += rng.sample(full, min(3, len(full)))
    _, canonical = decompress(gg)
    for s in probes:
        paths = anchored_paths(gg, s)
        assert represented_node_union(gg, [s]) == {canonical.node_for(p) for p in paths}
        assert represented_node_union(gg, [s], pm) == {pm.node_for(p) for p in paths}


OTHER_S = """TERMINALS b c d
START S
RULE CD => 1:c 2:d
RULE CDCD => 1:CD 2:CD
RULE S => 1:b 2:CDCD 3:CDCD
EDGE CD/1:c CD/2:d
"""


def test_expansion_of_a_path_missing_from_the_map_raises_key_error(fig1_grammar):
    # the map of fig1 with b moved to the front of S holds fig1's S/3
    # paths, but neither its S/1 paths nor S/2:b
    _, pm = decompress(parse_grammar(OTHER_S))
    assert represented_node_union(fig1_grammar, [parse_suffix("S/3:CDCD/1:CD/1:c")], pm) == {6}
    with pytest.raises(KeyError) as err:
        represented_node_union(fig1_grammar, [parse_suffix("CD/1:c")], pm)
    assert err.value.args == (parse_suffix("S/1:CDCD/1:CD/1:c"),)
    result = simulate_on_grammar(fig1_grammar, load_graph("1 c\n"))
    with pytest.raises(KeyError):
        expand_by_node(fig1_grammar, result, pm)


def _numbered(gg, first):
    # gg's full paths as a plain dict, numbered from `first` up in
    # canonical order
    return {path: nid for nid, path in enumerate(full_paths(gg), start=first)}


def test_one_path_map_follows_each_grammar_it_expands_against(fig1_grammar):
    # in OTHER_S canonical ids 1-4 name other paths than in fig1, so a
    # table kept from one grammar gives the other wrong ids, not an error
    other = parse_grammar(OTHER_S)
    reload = parse_grammar(format_grammar(fig1_grammar))
    probes = [[parse_suffix("CD/1:c"), bare("b")], [parse_suffix("S/3:CDCD/2:CD/1:c")]]
    for own, first in ((fig1_grammar, 101), (other, 201)):
        ref = _numbered(own, first)
        pm = PathMap(ref.items())
        for gg in (fig1_grammar, other, reload, other, fig1_grammar):
            for probe in probes:
                assert _union_outcome(gg, probe, pm) == dict_expansion(gg, probe, ref)
    pm = PathMap(_numbered(fig1_grammar, 101).items())
    assert represented_node_union(reload, probes[0], pm) == {101, 103, 105, 106, 108}
    assert _union_outcome(other, probes[0], pm) == (parse_suffix("S/1:b"),)


def test_path_map_does_not_keep_its_grammar_alive(fig1_grammar):
    gg = parse_grammar(format_grammar(fig1_grammar))
    _, pm = decompress(gg)
    assert represented_node_union(gg, [bare("b")], pm) == {5}
    checks = _reference_checks(pm, gg, [fig1_grammar, parse_grammar(OTHER_S)])
    ref = weakref.ref(gg)
    del gg
    gc.collect()
    assert ref() is None
    assert represented_node_union(fig1_grammar, [bare("b")], pm) == {5}
    _assert_acts_like_its_dict(pm, *checks)


def test_compress_map_does_not_keep_its_grammar_alive():
    graph, pattern = seeded_case(11, max_base=10)
    gg, pm = compress(graph)
    text = format_grammar(gg)
    other = compress(seeded_case(10, max_base=10)[0])[0]
    checks = _reference_checks(pm, gg, [parse_grammar(text), other])
    # the map finds its own table for gg, and holds gg only weakly
    assert pm._ids_by_canonical(gg) is pm._table
    ref = weakref.ref(gg)
    del gg
    gc.collect()
    assert ref() is None
    assert pm._dense[0]() is None
    reloaded = parse_grammar(text)
    result = simulate_on_grammar(reloaded, pattern, optimized=True)
    assert expand_by_node(reloaded, result, pm) == simulate_on_graph(graph, pattern)
    assert pm._ids_by_canonical(reloaded) == _reference_ids(checks[0], reloaded)
    _assert_acts_like_its_dict(pm, *checks)


# ---- path maps against a plain dict of their full paths ----


def _misfits(gg, full, rng):
    # paths that name no node of gg, made from a sample of its full paths
    out = []
    for path in rng.sample(full, min(8, len(full))):
        steps, terminal = path.steps, path.terminal
        if len(steps) > 1:
            out.append(GrammarPathSuffix(steps[1:], terminal))    # non-start anchor
            out.append(GrammarPathSuffix(steps[:-1], steps[-1][0]))  # nonterminal end
        i = rng.randrange(len(steps))
        expected = steps[i + 1][0] if i + 1 < len(steps) else terminal
        wrong = [(n, o) for n, o, label in _positions(gg) if label != expected]
        if wrong:   # broken label chain at depth i
            broken = steps[:i] + (rng.choice(wrong),) + steps[i + 1:]
            out.append(GrammarPathSuffix(broken, terminal))
        name, ordinal = steps[i]
        for step in [("NoSuchRule", ordinal),   # unknown rule
                     (name, max(o for o, _ in gg.rules[name].body) + 1)]:   # unknown ordinal
            out.append(GrammarPathSuffix(steps[:i] + (step,) + steps[i + 1:], terminal))
    return out


def _as_dict(pm, gg):
    """pm, a map of gg's full paths, as a plain dict: gg's full paths and
    the ids its text lists for them, in the same canonical order."""
    full = full_paths(gg)
    ids = format_path_map(pm).split("\n")[-len(full) - 1:-1]
    return dict(zip(full, map(int, ids)))


def _reference_checks(pm, gg, grammars):
    """What _assert_acts_like_its_dict needs, taken while gg is alive: pm
    as a dict, misfits of gg, and the grammars to expand through."""
    ref = _as_dict(pm, gg)
    full = list(ref)
    misfits = _misfits(gg, full, random.Random(len(full)))
    # a step that is no (rule, ordinal) pair names no node either
    misfits.append(GrammarPathSuffix(((gg.start,),), full[0].terminal))
    return ref, misfits, grammars


def _union_outcome(gg, suffixes, pm):
    try:
        return represented_node_union(gg, suffixes, pm)
    except KeyError as err:
        return err.args


def _assert_acts_like_its_dict(pm, ref, misfits, grammars):
    entries = sorted(ref.items(), key=lambda entry: entry[1])
    assert len(pm) == len(ref)
    assert list(pm) == entries
    # the same entries read back to an equal map
    assert pm == PathMap(entries) and PathMap(entries) == pm
    swapped = PathMap([(entries[0][0], entries[-1][1])] + entries[1:-1]
                      + [(entries[-1][0], entries[0][1])])
    shifted = PathMap((path, nid + 1) for path, nid in entries)
    for unequal in (swapped, shifted):
        assert pm != unequal and unequal != pm
    # the map's text reads back to an equal map that writes the same
    # text, and so do its entries as `<path> <id>` lines
    text = format_path_map(pm)
    lines = "".join(f"{path} {nid}\n" for path, nid in entries)
    assert entry_lines(pm) == lines
    for again in (parse_path_map(text), parse_path_map(lines)):
        assert again == pm and pm == again and format_path_map(again) == text
    for path, nid in ref.items():
        assert path in pm
        assert pm.node_for(path) == nid
    for path in misfits:
        assert path not in pm and path not in ref
        with pytest.raises(KeyError) as err:
            pm.node_for(path)
        assert err.value.args == (path,)
    for g in grammars:
        probe = [bare(t) for t in sorted(g.terminals)]
        assert _union_outcome(g, probe, pm) == dict_expansion(g, probe, ref)


def _maps_with_grammars(case):
    # the compress map and the decompress map of one case, each with the
    # grammar it was built for, and each parsed back from its text, with
    # the reloaded grammar
    if case == "fig1":
        graph = load_graph((DATA / "fig1.el").read_text())
    else:
        graph, _ = seeded_case(case, max_base=10)
    gg, compressed = compress(graph)
    reloaded = parse_grammar(format_grammar(gg))
    decompressed = decompress(reloaded)[1]
    parsed = [parse_path_map(format_path_map(pm)) for pm in (compressed, decompressed)]
    return [(compressed, gg), (decompressed, reloaded)] + [(pm, reloaded) for pm in parsed]


def _other_grammar(case):
    return parse_grammar(OTHER_S) if case == "fig1" else compress(
        seeded_case((case + 1) % 12, max_base=10)[0])[0]


@pytest.mark.parametrize("case", [*range(12), "fig1"])
def test_path_map_acts_like_a_dict_of_its_full_paths(case):
    other = _other_grammar(case)
    pairs = _maps_with_grammars(case)
    key_errors = 0
    for pm, gg in pairs:
        grammars = [parse_grammar(format_grammar(gg)), other]
        _assert_acts_like_its_dict(pm, *_reference_checks(pm, gg, grammars))
        # the other grammar's paths are not all in pm, so expansion
        # through it reports a missing path
        probe = [bare(t) for t in sorted(other.terminals)]
        key_errors += isinstance(_union_outcome(other, probe, pm), tuple)
    assert key_errors == len(pairs)


def _counting_constructions(monkeypatch):
    # a list whose length counts the GrammarPathSuffix objects built
    made = []
    init = GrammarPathSuffix.__init__

    def counting_init(self, steps, terminal):
        made.append(None)
        init(self, steps, terminal)

    monkeypatch.setattr(GrammarPathSuffix, "__init__", counting_init)
    return made


def test_decompress_builds_no_path_per_node(monkeypatch):
    # perfbench's query-stream graph: 10,000 nodes, 33 edge pairs
    gg, _ = compress(gen_graph(GraphGenParams(40, 250, 0.0, 1.25, 2, 1)))
    gg = parse_grammar(format_grammar(gg))
    made = _counting_constructions(monkeypatch)
    graph, pm = decompress(gg)
    assert len(graph) == 10_000 and len(gg.edge_pairs) == 33
    # the edge pairs' sides are the only paths a grammar holds
    assert len(made) <= 2 * len(gg.edge_pairs)
    full = [GrammarPathSuffix(steps, terminal) for steps, terminal in gg.iter_full_paths()]
    made.clear()
    # lookups walk the asked path and build no path dict
    assert all(path in pm and pm.node_for(path) == i for i, path in enumerate(full, start=1))
    assert len(made) == 0


def test_a_table_map_is_stored_reloaded_and_expanded_without_paths(monkeypatch):
    # perfbench's query-stream graph: 10,000 nodes
    graph = gen_graph(GraphGenParams(40, 250, 0.0, 1.25, 2, 1))
    gg, pm = compress(graph)
    reloaded = parse_grammar(format_grammar(gg))
    bare_terminals = [bare(t) for t in sorted(reloaded.terminals)]
    made = _counting_constructions(monkeypatch)
    text = format_path_map(pm)
    parsed = parse_path_map(text)
    assert parsed == pm and format_path_map(parsed) == text
    # the reloaded grammar has the map's rules, so its table is the map's
    table = parsed._ids_by_canonical(reloaded)
    assert table is parsed._table
    nodes = represented_node_union(reloaded, bare_terminals, parsed)
    assert len(made) == 0
    monkeypatch.undo()
    assert nodes == set(graph.node_ids)
    assert len(text) < len(entry_lines(pm)) // 10
    assert table == _reference_ids(_as_dict(pm, reloaded), reloaded)


_TABLE_MAP = "CANONICAL\nSTART S\nRULE A => 1:a 2:b\nRULE S => 1:A 2:c 3:A\n"


@pytest.mark.parametrize("text,message", [
    ("CANONICAL\nRULE S => 1:a\n1\n", "line 3: missing START line"),
    ("CANONICAL\nRULE S => 1:a\n", "line 2: missing START line"),
    ("CANONICAL\nSTART S\nSTART S\nRULE S => 1:a\n1\n", "line 3: duplicate START line"),
    ("CANONICAL\nSTART S T\nRULE S => 1:a\n1\n", "line 2: START expects one symbol"),
    ("CANONICAL\nSTART S\nRULE S 1:a\n1\n", "line 3: expected 'RULE name => items'"),
    ("CANONICAL\nSTART S\nRULE S => 1-a\n1\n", "line 3: malformed body item '1-a'"),
    ("CANONICAL\nSTART S\nRULE S => 1:a-b\n1\n", "line 3: rule S: invalid label 'a-b'"),
    ("CANONICAL\nSTART S\nRULE S => 0:a\n1\n",
     "line 3: rule S: ordinal must be a positive integer, got 0"),
    # beyond int()'s digit limit, where one is set
    pytest.param("CANONICAL\nSTART S\nRULE S => " + "9" * 5000 + ":a\n1\n", "line 3: ",
                 id="over-long-ordinal"),
    ("CANONICAL\nSTART S\nRULE S => 1:a 1:b\n1\n", "line 3: rule S: duplicate ordinal 1"),
    ("CANONICAL\nSTART S\nRULE S => 1:a\nRULE S => 1:b\n1\n",
     "line 4: rule S already defined on line 3"),
    ("CANONICAL\nSTART T\nRULE S => 1:a\n1\n", "line 2: start symbol T has no rule"),
    ("CANONICAL\nSTART S\nRULE S => 1:A\nRULE A => 1:a 2:S\n1\n",
     "line 4: start symbol S appears in body of rule A"),
    ("CANONICAL\nSTART S\nRULE S => 1:A\nRULE A => 1:B\nRULE B => 1:a 2:A\n1\n",
     "line 4: recursive rules: A -> B -> A"),
    (_TABLE_MAP + "1\n2\nx\n", "line 7: expected one node id"),
    (_TABLE_MAP + "1\n2\n-3\n", "line 7: expected one node id"),
    (_TABLE_MAP + "1\n2 3\n", "line 6: expected one node id"),
    (_TABLE_MAP + "1\n0\n", "line 6: node id must be positive, got 0"),
    (_TABLE_MAP + "1\n2\n00\n", "line 7: node id must be positive, got 0"),
    (_TABLE_MAP + "1\n²\n", "line 6: non-ASCII characters"),
    (_TABLE_MAP + "1\n٣\n", "line 6: non-ASCII characters"),
    (_TABLE_MAP + "1\n2\n3\n2\n5\n", "line 8: duplicate node id 2"),
    (_TABLE_MAP + "1\n2\n01\n", "line 7: duplicate node id 1"),
    (_TABLE_MAP + "1\n2\n3\n4\n", "line 8: 4 node ids for the 5 nodes the rules derive"),
    (_TABLE_MAP + "1\n2\n3\n# four\n\n", "line 7: 3 node ids for the 5 nodes "
     "the rules derive"),
    (_TABLE_MAP, "line 4: 0 node ids for the 5 nodes the rules derive"),
    (_TABLE_MAP + "1\n2\n3\n4\n5\n6\n",
     "line 10: more node ids than the 5 nodes the rules derive"),
    (_TABLE_MAP + "1\n2\n3\n4\n5\nRULE B => 1:b\n", "line 10: expected one node id"),
    # beyond int()'s digit limit, where one is set
    pytest.param(_TABLE_MAP + "1\n2\n3\n4\n" + "9" * 5000 + "\n", "line 9: ",
                 id="over-long-node-id"),
])
def test_a_hostile_table_map_fails_on_its_line(text, message):
    with pytest.raises(GrammarFormatError) as err:
        parse_path_map(text)
    assert str(err.value).startswith(message)


def test_a_table_map_reads_comments_blanks_and_padded_ids():
    plain = parse_path_map(_TABLE_MAP + "5\n4\n3\n2\n1\n")
    assert [str(path) for path, _ in plain][:2] == ["S/3:A/2:b", "S/3:A/1:a"]
    padded = ("# a map\n\n" + _TABLE_MAP.replace("\n", " \r\n") + "05\n\n4\n# three\n3\n"
              "  2\t\n1")
    again = parse_path_map(padded)
    assert again == plain and format_path_map(again) == format_path_map(plain)
    # an empty grammar derives no node, and its map holds no id
    empty = parse_path_map("CANONICAL\nSTART S\nRULE S =>\n")
    assert len(empty) == 0 and list(empty) == []
    assert format_path_map(empty) == "CANONICAL\nSTART S\nRULE S =>\n"


@pytest.mark.parametrize("case", [*range(12), "fig1"])
def test_entry_text_parses_to_a_map_equal_to_its_table_text(case):
    pairs = _maps_with_grammars(case)
    grammars = [gg for _, gg in pairs[:2]] + [_other_grammar(case)]
    for pm, _ in pairs[:2]:
        old = parse_path_map(entry_lines(pm))
        new = parse_path_map(format_path_map(pm))
        assert old == new and new == old and old == pm
        assert list(old) == list(new)
        # the rules read from the paths come in the order compress gives
        assert format_path_map(old) == format_path_map(pm)
        for gg in grammars:
            probe = [bare(t) for t in sorted(gg.terminals)]
            assert _union_outcome(gg, probe, old) == _union_outcome(gg, probe, new)


@pytest.mark.pinned
def test_the_kept_entry_text_of_fig1_equals_its_table_text():
    # the decompress map of fig1.gg in `<path> <id>` lines, as the CLI
    # wrote it before the table form, converts to the table text it writes
    # now, byte for byte
    old = parse_path_map((DATA / "fig1.restored.entries.map").read_text())
    table_text = (DATA / "fig1.restored.map").read_text()
    assert format_path_map(old) == table_text
    assert old == parse_path_map(table_text) and len(old) == 9


# ---- parser fuzzing over compressor output ----

def _compressed_documents(seed: int) -> tuple[str, str]:
    graph, _ = seeded_case(seed, max_base=10)
    gg, pm = compress(graph)
    return format_grammar(gg), format_path_map(pm)


def _first_suffix_error(tokens: list[str]) -> SuffixFormatError | None:
    for token in tokens:
        try:
            parse_suffix(token)
        except SuffixFormatError as exc:
            return exc
    return None


def _assert_suffix_error_matches(exc: GrammarFormatError, lineno: int,
                                 fresh: SuffixFormatError | None) -> None:
    # the document fails on a suffix exactly when that suffix fails alone,
    # with the same exception type and message, on the corrupted line
    cause = exc.__cause__ if isinstance(exc.__cause__, SuffixFormatError) else None
    assert type(cause) is type(fresh)
    if fresh is not None:
        assert str(exc) == f"line {lineno}: {fresh}"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_documents_round_trip_and_parse_like_fresh_suffixes(seed):
    grammar_text, map_text = _compressed_documents(seed)
    gg = parse_grammar(grammar_text)
    pm = parse_path_map(map_text)
    assert format_grammar(gg) == grammar_text
    assert format_path_map(pm) == map_text
    # every suffix parsed with the document's memo equals a fresh parse
    parsed = [s for pair in gg.edge_pairs for s in pair] + [path for path, _ in pm]
    for s in parsed:
        fresh = parse_suffix(str(s))
        assert fresh == s and fresh.steps == s.steps and str(fresh) == str(s)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_a_corrupted_path_map_line_fails_on_that_line(seed, data):
    # a map in `<path> <id>` lines, the form parse_path_map still reads
    _, pm = compress(seeded_case(seed, max_base=10)[0])
    original = entry_lines(pm)
    lineno, text = corrupt_line(original, data)
    line = text.split("\n")[lineno - 1].strip()
    tokens = line.split()
    comment = line.startswith("#")
    shaped = not comment and line.isascii() and len(tokens) == 2 and tokens[1].isdigit()
    fresh = _first_suffix_error(tokens[:1]) if shaped else None
    try:
        pm = parse_path_map(text)
    except GrammarFormatError as exc:
        where, _, message = str(exc).partition(": ")
        # a corrupted line can also clash with a later line, and a line
        # dropped or changed can leave the paths short of a full path or
        # recursive, which the last line reports
        clash = ("duplicate", "anchored at", "labeled both", "both a terminal and a rule")
        whole = ("full paths the rules derive", "recursive rules")
        assert where == f"line {lineno}" or any(kind in message for kind in whole) or (
            where.startswith("line ") and int(where[5:]) > lineno
            and any(kind in message for kind in clash))
        _assert_suffix_error_matches(exc, lineno, fresh)
        return
    if comment:
        # accepted: a line made a comment drops its path, and the other
        # paths are still every full path of one grammar when the dropped
        # path was the only one through a rule ordinal (rules may skip an
        # ordinal); every other path keeps its id
        dropped = parse_suffix(original.split("\n")[lineno - 1].split()[0])
        assert len(pm) == len(original.split("\n")) - 2
        assert dropped not in pm
        for path, nid in parse_path_map(original):
            if path != dropped:
                assert pm.node_for(path) == nid
    else:
        # accepted: the line is still a well-formed entry whose path parses
        # alone to what the document holds
        assert shaped and fresh is None
        assert pm.node_for(parse_suffix(tokens[0])) == int(tokens[1])
    assert parse_path_map(format_path_map(pm)) == pm


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_a_corrupted_table_map_line_fails_or_reads_back(seed, data):
    grammar_text, map_text = _compressed_documents(seed)
    pm = parse_path_map(map_text)
    # the full paths in canonical order, which the id lines follow
    full = [GrammarPathSuffix(steps, terminal)
            for steps, terminal in parse_grammar(grammar_text).iter_full_paths()]
    lineno, text = corrupt_line(map_text, data)
    first_id = map_text.count("\n") - len(pm) + 1
    token = text.split("\n")[lineno - 1].strip()
    try:
        again = parse_path_map(text)
    except GrammarFormatError as exc:
        where, _, _ = str(exc).partition(": ")
        assert where.startswith("line ") and 1 <= int(where[5:]) <= map_text.count("\n")
        if lineno >= first_id and "duplicate" not in str(exc):
            # an id line fails on itself, or, dropped as a comment or blank,
            # leaves one id too few, reported at the end
            assert where == f"line {lineno}" or (
                token[:1] in ("", "#") and "node ids for the" in str(exc))
        return
    # accepted: a changed id is a new id at the same path, a changed
    # header derives as many nodes, and the map reads back equal
    if lineno >= first_id:
        assert token.isdigit()
        assert again.node_for(full[lineno - first_id]) == int(token)
        assert len(again) == len(pm)
    assert parse_path_map(format_path_map(again)) == again


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_a_corrupted_edge_line_fails_on_that_line(seed, data):
    grammar_text, _ = _compressed_documents(seed)
    if "\nEDGE " not in grammar_text:
        return
    lineno, text = corrupt_line(grammar_text, data, "EDGE ")
    line = text.split("\n")[lineno - 1].strip()
    tokens = line.split()
    shaped = line.isascii() and len(tokens) == 3 and tokens[0] == "EDGE"
    fresh = _first_suffix_error(tokens[1:]) if shaped else None
    try:
        gg = parse_grammar(text)
    except GrammarFormatError as exc:
        assert str(exc).startswith(f"line {lineno}: ")
        _assert_suffix_error_matches(exc, lineno, fresh)
        return
    assert fresh is None
    if shaped:
        assert (parse_suffix(tokens[1]), parse_suffix(tokens[2])) in gg.edge_pairs
    assert parse_grammar(format_grammar(gg)) == gg


# ---- fit checks and the path-map table, against step-by-step references ----


def _reference_violation(gg, s):
    # suffix_violation as a walk over the rules, step by step from the
    # anchor, stopping at the first misfit: the messages it must reproduce.
    # A step that is no (rule, ordinal) pair is named before any misfit.
    for step in s.steps:
        if not (isinstance(step, tuple) and len(step) == 2):
            return f"suffix {s}: step {step!r} is not a (rule, ordinal) pair"
    for i, (name, ordinal) in enumerate(s.steps):
        rule = gg.rules.get(name)
        if rule is None:
            return f"suffix {s}: no rule named {name}"
        label = dict(rule.body).get(ordinal)
        if label is None:
            return f"suffix {s}: no ordinal {ordinal} in rule {name}"
        expected = s.steps[i + 1][0] if i + 1 < len(s.steps) else s.terminal
        if label != expected:
            return f"suffix {s}: ordinal {ordinal} of rule {name} is labeled {label}, not {expected}"
    if s.terminal not in gg.terminals:
        return f"suffix {s}: {s.terminal} is not a terminal"
    return None


def _positions(gg):
    return [(rule.name, ordinal, label) for rule in gg.rules.values()
            for ordinal, label in rule.body]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_suffix_violation_matches_the_step_walk(seed, data):
    graph, _ = seeded_case(seed, max_base=10)
    gg, pm = compress(graph)
    # a full path's shift is the id decompress numbers it with
    _, canonical = decompress(gg)
    rules, offsets = gg.rules, gg._derivation().offsets
    for path, _ in pm:
        assert _fit_shift(rules, offsets, path) == canonical.node_for(path)
    fitting = [path for path, _ in pm] + [s for pair in gg.edge_pairs for s in pair]
    s = data.draw(st.sampled_from(fitting))
    steps = list(s.steps[data.draw(st.integers(0, len(s.steps))):])
    terminal = s.terminal
    # up to two corruptions, so that one misfit can sit outside another
    kinds = data.draw(st.lists(st.sampled_from(
        ["unknown rule", "missing ordinal", "wrong label", "nonterminal end",
         "malformed step"]), max_size=2))
    for kind in kinds:
        if not steps:
            return
        if not all(isinstance(step, tuple) and len(step) == 2 for step in steps):
            break  # a step that is no pair is named, whatever else misfits
        if kind == "nonterminal end":
            # drop the innermost step: the chain above it still holds, but
            # ends at a rule
            terminal = steps.pop()[0]
            continue
        i = data.draw(st.integers(0, len(steps) - 1))
        name, ordinal = steps[i]
        if kind == "malformed step":
            steps[i] = data.draw(st.sampled_from([name, ordinal, (name,), (name, ordinal, 1), ()]))
        elif kind == "unknown rule":
            steps[i] = ("NoSuchRule", ordinal)
        elif kind == "missing ordinal":
            if name not in gg.rules:
                return
            steps[i] = (name, max(o for o, _ in gg.rules[name].body) + 1)
        else:
            expected = steps[i + 1][0] if i + 1 < len(steps) else terminal
            wrong = [(n, o) for n, o, label in _positions(gg) if label != expected]
            if not wrong:
                return
            steps[i] = data.draw(st.sampled_from(wrong))
    probe = GrammarPathSuffix(tuple(steps), terminal)
    message = gg.suffix_violation(probe)
    assert message == _reference_violation(gg, probe)
    # the last corruption leaves its own step (or the end) misfitting
    assert (message is None) == (not kinds)
    # the shift walk fits exactly the suffixes suffix_violation passes
    shift = _fit_shift(rules, offsets, probe) if probe.terminal in gg.terminals else None
    assert (shift is None) == (message is not None)


def test_validate_lists_a_repeated_bad_side_once_per_occurrence(fig1_grammar):
    # edge pairs are kept sorted, so the bad sides come in the order
    # CD/3:c (after CD/1:c), CD/1:e, CD/3:c (after CD/2:d)
    extra = "EDGE CD/2:d CD/3:c\nEDGE CD/1:e CD/2:d\nEDGE CD/1:c CD/3:c\n"
    want = ["suffix CD/3:c: no ordinal 3 in rule CD",
            "suffix CD/1:e: ordinal 1 of rule CD is labeled c, not e",
            "suffix CD/3:c: no ordinal 3 in rule CD"]
    parsed = parse_grammar(format_grammar(fig1_grammar) + extra)
    # the parser shares one object per repeated token; build the same
    # pairs from equal but distinct objects too
    pairs = [(parse_suffix(str(left)), parse_suffix(str(right)))
             for left, right in parsed.edge_pairs]
    built = GraphGrammar(parsed.terminals, parsed.rules.values(), parsed.start, pairs)
    for gg in (parsed, built):
        assert gg.validate() == want
        assert gg.validate() == want  # the kept list


def _reference_ids(ref, gg):
    # the table's definition: for each full path of gg in canonical
    # (depth-first) order, the plain dict's id for it, None where it has
    # none
    return [None] + [ref.get(path) for path in full_paths(gg)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_path_map_table_matches_its_definition(seed, other_seed):
    gg, pm = compress(seeded_case(seed, max_base=10)[0])
    other, other_pm = compress(seeded_case(other_seed, max_base=10)[0])
    reloaded_gg = parse_grammar(format_grammar(gg))
    reloaded_map = parse_path_map(entry_lines(other_pm))
    ref, other_ref = _as_dict(pm, gg), _as_dict(other_pm, other)
    # maps from compress and decompress read their own table for their
    # grammar; every other pair builds it
    decompressed = [decompress(g)[1] for g in (gg, reloaded_gg)]
    for g, m in [(gg, pm), (other, other_pm), (gg, decompressed[0]),
                 (reloaded_gg, decompressed[1])]:
        assert m._ids_by_canonical(g) is m._table
        assert m._dense[0]() is g
    canonical = _numbered(gg, 1)
    # another grammar's map has gaps in gg's paths, and paths that misfit
    for g, m, want in [(gg, pm, ref), (other, other_pm, other_ref), (gg, decompressed[0], canonical),
                       (reloaded_gg, decompressed[1], canonical), (gg, other_pm, other_ref),
                       (reloaded_gg, reloaded_map, other_ref), (other, reloaded_map, other_ref),
                       (reloaded_gg, parse_path_map(format_path_map(pm)), ref),
                       (gg, reloaded_map, other_ref),
                       # a compress map used with an equal grammar object,
                       # then with its own again
                       (reloaded_gg, pm, ref), (gg, pm, ref), (gg, decompressed[1], canonical)]:
        assert m._ids_by_canonical(g) == _reference_ids(want, g)
        assert m._dense[0]() is g
