import gc
import hashlib
import random
import weakref
from collections import Counter
from collections.abc import Collection, Mapping

import pytest
from hypothesis import given, settings, strategies as st

from gramsim import (GrammarPathSuffix, GrammarValidationError, GraphGenParams,
                     GraphGrammar, PathMap, PatternGenParams, SimulationResult, SuffixSet, bare, compress, decompress,
                     expand_by_node, expand_to_nodes, format_grammar, gen_graph,
                     gen_pattern, load_graph,
                     parse_grammar, parse_suffix, predecessors,
                     predecessor_suffixes, represented_node_union,
                     simulate_on_graph, simulate_on_grammar,
                     suffix_set_difference)
from gramsim import grammar, simulate
from gramsim.grammar import _Memo
from gramsim.simulate import _coalesce, _GrammarState, _inside, _reduce, _state

from .conftest import (dict_expansion, full_path_suffixes, full_paths, is_suffix_of,
                       seeded_case)


def texts(suffixes):
    return {str(s) for s in suffixes}


def rep(gg, suffixes):
    return represented_node_union(gg, suffixes)


# ---- suffix-set difference and predecessors ----


def test_difference_splits_to_minimal_survivors(fig1_grammar):
    got = suffix_set_difference(
        fig1_grammar,
        [bare("b"), bare("c"), bare("d")],
        [parse_suffix("CDCD/1:CD/2:d"), parse_suffix("S/2:b")])
    assert texts(got) == {"c", "CDCD/2:CD/2:d"}


def test_difference_drops_covered_items(fig1_grammar):
    got = suffix_set_difference(fig1_grammar, [parse_suffix("CD/2:d")], [bare("d")])
    assert not got
    got = suffix_set_difference(fig1_grammar, [bare("d")], [bare("c")])
    assert texts(got) == {"d"}


def lookup(gg, s):
    """The predecessor index's lookup of one suffix, decoded."""
    state = _state(gg)
    return [state.decode(key) for key in state.lookup(state.encode(s))]


def test_predecessors_of_single_suffix(fig1_grammar):
    got = lookup(fig1_grammar, bare("c"))
    # not subsumption-reduced
    assert sorted(map(str, got)) == ["CDCD/1:CD/2:d", "S/2:b", "S/3:CDCD/1:CD/2:d"]


def test_predecessors_of_set_are_reduced(fig1_grammar):
    got = predecessor_suffixes(fig1_grammar, [bare("c")])
    assert texts(got) == {"CDCD/1:CD/2:d", "S/2:b"}


def test_predecessors_reanchor_under_longer_suffix(fig1_grammar):
    # pair (CD/1:c, CD/2:d) seen from a start-anchored copy of its target
    got = lookup(fig1_grammar, parse_suffix("S/1:CDCD/2:CD/2:d"))
    assert "S/1:CDCD/2:CD/1:c" in texts(got)
    assert texts(predecessor_suffixes(
        fig1_grammar, [parse_suffix("S/1:CDCD/2:CD/2:d")])) == {"S/1:CDCD/2:CD/1:c"}


def test_predecessor_rep_identity(fig1_grammar):
    gg = fig1_grammar
    graph, _ = decompress(gg)
    for items in [[bare("c")], [bare("d")], [bare("b"), parse_suffix("CD/2:d")],
                  [parse_suffix("S/3:CDCD/1:CD/1:c")]]:
        pre = predecessor_suffixes(gg, items)
        assert rep(gg, pre) == predecessors(graph, rep(gg, items))
        # reduced elements never overlap node-wise
        reps = [rep(gg, [s]) for s in pre]
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert not (a & b)


def test_suffix_arguments_must_fit_the_grammar(fig1_grammar):
    with pytest.raises(ValueError):
        predecessor_suffixes(fig1_grammar, [parse_suffix("CD/1:d")])
    with pytest.raises(ValueError):
        predecessor_suffixes(fig1_grammar, [bare("zzz")])
    with pytest.raises(ValueError):
        suffix_set_difference(fig1_grammar, [bare("zzz")], [])


# ---- the sharpening loop, plain mode ----


def test_fig1_plain_run(fig1_grammar):
    steps = []
    result = simulate_on_grammar(fig1_grammar, load_graph("1 c\n2 d\n1 2\n2 1\n"),
                                 on_step=steps.append)
    first = steps[0]
    assert first.node == 1
    assert texts(first.predecessor_suffixes) == {"CDCD/1:CD/2:d", "S/2:b"}
    assert texts(first.removed) == {"c", "CDCD/2:CD/2:d"}
    assert texts(first.candidates[2]) == {"CDCD/1:CD/2:d"}
    assert texts(result.candidates[1]) == {"S/3:CDCD/1:CD/1:c"}
    assert texts(result.candidates[2]) == {"S/3:CDCD/1:CD/2:d"}
    assert expand_to_nodes(fig1_grammar, result) == {(1, 6), (2, 7)}


def test_fig1_expansion_matches_baseline(fig1_grammar, fig1_graph, cd_pattern):
    result = simulate_on_grammar(fig1_grammar, cd_pattern)
    assert expand_by_node(fig1_grammar, result) == simulate_on_graph(fig1_graph, cd_pattern)


def test_no_match_is_falsy(fig1_grammar):
    result = simulate_on_grammar(fig1_grammar, load_graph("1 z\n"))
    assert not result
    assert result == SimulationResult({})
    assert expand_by_node(fig1_grammar, result) == {}


def test_result_value_semantics(fig1_grammar, cd_pattern):
    a = simulate_on_grammar(fig1_grammar, cd_pattern)
    b = simulate_on_grammar(fig1_grammar, cd_pattern)
    assert a == b and a.pairs == b.pairs and bool(a)
    assert (1, parse_suffix("S/3:CDCD/1:CD/1:c")) in a.pairs


def test_rejects_degenerate_inputs(fig1_grammar):
    with pytest.raises(ValueError):
        simulate_on_grammar(fig1_grammar, load_graph(""))
    empty_gg = parse_grammar("TERMINALS a\nSTART S\nRULE S =>\n")
    with pytest.raises(ValueError):
        simulate_on_grammar(empty_gg, load_graph("1 a\n"))
    broken = parse_grammar("TERMINALS a\nSTART S\nRULE S => 1:nope\n")
    with pytest.raises(GrammarValidationError):
        simulate_on_grammar(broken, load_graph("1 a\n"))


# ---- optimized mode ----


def test_optimized_expands_identically_on_fig1(fig1_grammar, cd_pattern):
    plain = simulate_on_grammar(fig1_grammar, cd_pattern)
    fast = simulate_on_grammar(fig1_grammar, cd_pattern, optimized=True)
    assert expand_by_node(fig1_grammar, fast) == expand_by_node(fig1_grammar, plain)
    assert bool(fast) == bool(plain)


def test_optimized_emits_no_steps(fig1_grammar, cd_pattern):
    steps = []
    simulate_on_grammar(fig1_grammar, cd_pattern, optimized=True, on_step=steps.append)
    assert steps == []


@pytest.fixture
def lookups(monkeypatch):
    """Counts the predecessor lookups of each simulation state."""
    counts = Counter()
    real = _GrammarState.lookup

    def counting(self, key):
        counts[self] += 1
        return real(self, key)

    monkeypatch.setattr(_GrammarState, "lookup", counting)
    return counts


def test_a_node_without_pattern_predecessors_looks_nothing_up(fig1_grammar, lookups):
    # nothing reads the pre set of a node no pattern edge enters, unless
    # plain mode reports it through on_step
    gg = parse_grammar(format_grammar(fig1_grammar))
    pattern = load_graph("1 c\n")
    for optimized in (True, False):
        assert texts(simulate_on_grammar(gg, pattern, optimized=optimized).candidates[1]) == {"c"}
    state = _state(gg)
    assert not lookups and not state.pre_sets
    steps = []
    simulate_on_grammar(gg, pattern, on_step=steps.append)
    assert [step.node for step in steps] == [1] and lookups[state]


def test_both_modes_match_baseline_on_generated_inputs():
    for seed in range(40):
        graph, pattern = seeded_case(seed, max_base=10)
        gg, pm = compress(graph)
        want = simulate_on_graph(graph, pattern)
        plain = simulate_on_grammar(gg, pattern)
        fast = simulate_on_grammar(gg, pattern, optimized=True)
        assert expand_by_node(gg, plain, pm) == want
        assert expand_by_node(gg, fast, pm) == want


def test_difference_rep_identity_on_random_sets():
    rng = random.Random(4242)
    for seed in range(15):
        graph, _ = seeded_case(seed, max_base=8)
        gg, _ = compress(graph)
        pool = list(SuffixSet(full_path_suffixes(gg)))
        state = _state(gg)
        plain_graph, _ = decompress(gg)
        for _ in range(8):
            a = rng.sample(pool, min(len(pool), rng.randint(1, 5)))
            b = rng.sample(pool, min(len(pool), rng.randint(1, 5)))
            got = suffix_set_difference(gg, a, b)
            assert rep(gg, got) == rep(gg, a) - rep(gg, b)
            inside = _inside(map(state.encode, a), _reduce(map(state.encode, b)))
            assert rep(gg, map(state.decode, inside)) == rep(gg, a) & rep(gg, b)
            pre = predecessor_suffixes(gg, a)
            assert rep(gg, pre) == predecessors(plain_graph, rep(gg, a))
            for s in a:
                assert (rep(gg, predecessor_suffixes(gg, [s]))
                        == predecessors(plain_graph, rep(gg, [s])))


# ---- internal helpers the optimized loop is built on ----


def coalesce(gg, suffixes):
    state = _state(gg)
    return state.decode_set(_coalesce(state, _reduce(map(state.encode, suffixes))))


def test_coalesce_collapses_complete_families(fig1_grammar):
    gg = fig1_grammar
    full = [parse_suffix("CDCD/1:CD/2:d"), parse_suffix("CDCD/2:CD/2:d")]
    got = coalesce(gg, SuffixSet(full))
    assert texts(got) == {"d"}
    assert rep(gg, got) == rep(gg, full)
    partial = SuffixSet([parse_suffix("CDCD/1:CD/2:d")])
    assert texts(coalesce(gg, partial)) == {"CDCD/1:CD/2:d"}
    # a singleton occurrence collapses on its own
    assert texts(coalesce(gg, SuffixSet([parse_suffix("S/2:b")]))) == {"b"}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_pre_set_node_counts_match_their_expansion(seed):
    # optimized mode detects a predecessor loss by a drop in this count
    graph, pattern = seeded_case(seed, max_base=10)
    gg, _ = compress(graph)
    simulate_on_grammar(gg, pattern, optimized=True)
    state = _state(gg)
    all_terminals = tuple(sorted(state.encode(bare(t)) for t in gg.terminals))
    state.coalesced_predecessors(all_terminals)
    assert state.node_count(all_terminals) == gg.node_count()
    for keys, (_, count) in state.pre_sets.items():
        pre = _coalesce(state, state.predecessors(keys))
        assert count == state.node_count(pre) == len(rep(gg, map(state.decode, pre)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_predecessor_index_lookup_matches_its_definition(seed):
    # a pair (l, r) contributes l when s is a suffix of r, and l re-anchored
    # under the steps s has beyond r when r is a proper suffix of s
    graph, _ = seeded_case(seed, max_base=10)
    gg, _ = compress(graph)
    state = _state(gg)
    for s in full_path_suffixes(gg):
        want = Counter()
        for left, right in gg.edge_pairs:
            if is_suffix_of(s, right):
                want[left] += 1
            elif is_suffix_of(right, s):
                want[left.prepend(s.steps[:len(s.steps) - len(right.steps)])] += 1
        assert Counter(map(state.decode, state.lookup(state.encode(s)))) == want, s


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([None, 2, 3, 5]))
def test_codes_follow_the_suffix_algebra(seed, capacity):
    # codes, of one or more characters per key element, must order, nest,
    # extend and count as the suffixes they stand for
    graph, _ = seeded_case(seed, max_base=10)
    gg, _ = compress(graph)
    state = _state(gg) if capacity is None else _GrammarState(gg, capacity)
    width = state.width
    suffixes = sorted(full_path_suffixes(gg), key=lambda s: s.sort_key)
    codes = [state.encode(s) for s in suffixes]
    assert [state.decode(key) for key in codes] == suffixes
    assert sorted(codes) == codes
    for s, key in zip(suffixes, codes):
        assert len(key) == width * (1 + len(s))
        # one extension per body position carrying s's first label
        positions = sorted((rule.name, ordinal) for rule in gg.rules.values()
                           for ordinal, label in rule.body if label == s.first_label)
        assert [state.decode(key + c) for c in state.extensions[key[-width:]]] == [
            GrammarPathSuffix((position,) + s.steps, s.terminal) for position in positions]
        assert state.node_count([key]) == len(rep(gg, [s]))
    for a, ka in zip(suffixes, codes):
        for b, kb in zip(suffixes, codes):
            assert kb.startswith(ka) == is_suffix_of(a, b)


@pytest.mark.parametrize("capacity", [2, 3, 6])
def test_codes_wider_than_one_character_simulate_the_same(capacity):
    # a grammar with more terminals and steps than one character codes
    # gets wider codes, which must give the same sets as one-character ones
    for seed in range(12):
        graph, pattern = seeded_case(seed, max_base=10)
        gg, pm = compress(graph)
        narrow = parse_grammar(format_grammar(gg))
        state = _GrammarState(gg, capacity)
        assert state.width > 1
        object.__setattr__(gg, "_sim_state", state)
        want = simulate_on_graph(graph, pattern)
        for optimized in (False, True):
            got = simulate_on_grammar(gg, pattern, optimized=optimized)
            assert got == simulate_on_grammar(narrow, pattern, optimized=optimized)
            assert expand_by_node(gg, got, pm) == want
        assert _state(gg) is state and _state(narrow).width == 1


def _suffix_text(sset):
    return ",".join(str(s) for s in sset)


def _candidates_text(candidates):
    return ";".join(f"{u}={_suffix_text(candidates[u])}" for u in sorted(candidates))


def _simulation_transcript(seed):
    graph, pattern = seeded_case(seed)
    gg, _ = compress(graph)
    steps = []
    plain = simulate_on_grammar(gg, pattern, on_step=steps.append)
    fast = simulate_on_grammar(gg, pattern, optimized=True)
    lines = [f"seed {seed}", "plain " + _candidates_text(plain.candidates),
             "optimized " + _candidates_text(fast.candidates)]
    for step in steps:
        lines.append(f"step {step.node} pre {_suffix_text(step.predecessor_suffixes)} "
                     f"removed {_suffix_text(step.removed)} "
                     f"candidates {_candidates_text(step.candidates)}")
    return "\n".join(lines) + "\n"


# sha256 over both modes' result sets and plain mode's step snapshots, each
# set in canonical order, on twenty generated cases: any change to what the
# simulator returns, or to the order its sets iterate in, shows here.
SIMULATION_DIGEST = "0166a8789cb71135d545155ad213d623c429718447e3855bbf33bc6a6bd6c7f0"


@pytest.mark.pinned
def test_simulation_output_is_pinned():
    text = "".join(_simulation_transcript(seed) for seed in range(20))
    assert hashlib.sha256(text.encode()).hexdigest() == SIMULATION_DIGEST


# ---- simulation state lives on the grammar object ----


def test_a_reloaded_grammar_starts_with_empty_state(fig1_grammar, cd_pattern, lookups):
    gg = parse_grammar(format_grammar(fig1_grammar))
    want = simulate_on_grammar(gg, cd_pattern, optimized=True)
    state = _state(gg)
    assert lookups[state] and state.pre_sets
    # a second run finds every predecessor set it needs kept
    before = lookups[state]
    assert simulate_on_grammar(gg, cd_pattern, optimized=True) == want
    assert lookups[state] == before
    copy = parse_grammar(format_grammar(gg))
    assert copy == gg
    fresh = _state(copy)
    assert fresh is not state
    assert not fresh.pre_sets
    assert simulate_on_grammar(copy, cd_pattern, optimized=True) == want
    assert lookups[fresh] and lookups[state] == before
    assert _state(gg) is state and _state(copy) is fresh


def _module_held_objects():
    held = []
    for value in vars(simulate).values():
        if isinstance(value, Mapping):
            held.extend(x for item in value.items() for x in item)
        elif isinstance(value, Collection) and not isinstance(value, (str, bytes)):
            held.extend(value)
    return held


def test_grammar_state_dies_with_its_grammar(fig1_grammar, cd_pattern):
    def live_states():
        return sum(isinstance(o, _GrammarState) for o in gc.get_objects())

    gc.collect()
    before = live_states()
    gg = parse_grammar(format_grammar(fig1_grammar))
    simulate_on_grammar(gg, cd_pattern, optimized=True)
    simulate_on_grammar(gg, cd_pattern)
    assert live_states() == before + 1
    assert not any(isinstance(o, (GraphGrammar, _GrammarState))
                   for o in _module_held_objects())
    ref = weakref.ref(gg)
    del gg
    gc.collect()
    assert ref() is None
    assert live_states() == before


def _count_encodes(monkeypatch):
    calls = []
    encode = _GrammarState.encode

    def counted(self, s):
        calls.append(s)
        return encode(self, s)

    monkeypatch.setattr(_GrammarState, "encode", counted)
    return calls


def test_each_distinct_edge_pair_side_is_coded_once(monkeypatch):
    graph, _ = seeded_case(3, max_base=10)
    gg = parse_grammar(format_grammar(compress(graph)[0]))
    sides = [s for pair in gg.edge_pairs for s in pair]
    assert len(set(sides)) < len(sides)
    rights = {_GrammarState.encode(_state(gg), right) for _, right in gg.edge_pairs}
    calls = _count_encodes(monkeypatch)
    state = _GrammarState(gg)
    for key in sorted(rights):
        state.lookup(key)
    assert None not in state._lefts
    assert len(calls) == len(set(sides))
    # with every left coded, the memo is dropped
    assert state._side_codes is None


def test_pre_sets_stay_under_their_limit_and_answers_hold(monkeypatch):
    # a limit a few sets fill, so that a long stream on one grammar evicts
    limit = 400
    monkeypatch.setattr(simulate, "_PRE_SET_CODES", limit)
    graph = gen_graph(GraphGenParams(16, 10, 0.5, 1.25, 2, seed=1))
    gg, pm = compress(graph)
    state = _state(gg)
    evictions = 0
    for seed in range(60):
        pattern = gen_pattern(PatternGenParams(nodes=4, edges=5, seed=seed),
                              graph.label_set())
        kept = list(state.pre_sets)
        result = simulate_on_grammar(gg, pattern, optimized=True)
        assert expand_by_node(gg, result, pm) == simulate_on_graph(graph, pattern)
        held = sum(len(keys) + len(pre) for keys, (pre, _) in state.pre_sets.items())
        assert held == state.pre_sets.held <= limit
        evictions += not set(kept) <= set(state.pre_sets)
    assert evictions >= 5


def test_expansion_builds_no_simulation_state(fig1_grammar, cd_pattern):
    suffixes = [bare("c"), parse_suffix("S/1:CDCD/2:CD/2:d"), parse_suffix("CD/1:c")]
    want = represented_node_union(fig1_grammar, suffixes)
    result = simulate_on_grammar(fig1_grammar, cd_pattern)
    _, canonical = decompress(fig1_grammar)
    gg = parse_grammar(format_grammar(fig1_grammar))
    for path_map in (None, canonical):
        assert represented_node_union(gg, suffixes, path_map) == want
        assert expand_by_node(gg, result, path_map) == {1: {6}, 2: {7}}
    assert gg._sim_state is None
    assert simulate_on_grammar(gg, cd_pattern) == result
    assert gg._sim_state is not None


# ---- expansion ----


def _expanded(gg, result, path_map):
    """expand_by_node's ids per pattern node, or the KeyError it raises."""
    try:
        return expand_by_node(gg, result, path_map)
    except KeyError as exc:
        return exc.args


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.booleans(), st.integers(0, 10**6))
def test_expansion_matches_the_graph_and_the_path_map(seed, reload, optimized, other_seed):
    graph, pattern = seeded_case(seed, max_base=10)
    gg, pm = compress(graph)
    if reload:
        gg = parse_grammar(format_grammar(gg))
    # another grammar's map leaves gaps in gg's paths and holds paths that
    # misfit it; the plain dict it is read from is the reference
    other_gg = compress(seeded_case(other_seed, max_base=10)[0])[0]
    ref = {path: nid for nid, path in enumerate(full_paths(other_gg), start=1001)}
    other_map = PathMap(ref.items())
    result = simulate_on_grammar(gg, pattern, optimized=optimized)
    want = simulate_on_graph(graph, pattern)
    # the compress map's ids are the graph's, and without a map the
    # canonical ids of the same full paths
    path_of = {nid: path for path, nid in pm}
    _, canonical = decompress(gg)
    no_map = {u: frozenset(canonical.node_for(path_of[v]) for v in nodes)
              for u, nodes in want.items()}
    # the other map names the smallest missing path of the first pattern
    # node that has one
    with_other = {}
    for u, sset in result.candidates.items():
        outcome = dict_expansion(gg, sset, ref)
        if isinstance(outcome, tuple):
            with_other = outcome
            break
        with_other[u] = outcome
    # an equal grammar object that did not make the result expands it alike
    other = parse_grammar(format_grammar(gg))
    assert other == gg and other is not gg
    for grammar in (gg, other):
        assert _expanded(grammar, result, None) == no_map
        assert _expanded(grammar, result, pm) == want
        assert _expanded(grammar, result, other_map) == with_other


def test_expansion_fit_checks_every_result(fig1_grammar, cd_pattern):
    misfit = SimulationResult({1: SuffixSet([parse_suffix("CD/1:d")])})
    with pytest.raises(ValueError, match="CD/1:d"):
        expand_by_node(fig1_grammar, misfit)
    other = parse_grammar("TERMINALS c d\nSTART S\nRULE S => 1:d 2:c\nEDGE S/2:c S/1:d\n")
    result = simulate_on_grammar(fig1_grammar, cd_pattern)
    with pytest.raises(ValueError):
        expand_by_node(other, result)


def test_a_repeated_result_expands_to_the_same_frozenset(fig1_grammar, cd_pattern):
    gg = parse_grammar(format_grammar(fig1_grammar))
    other = parse_grammar(format_grammar(fig1_grammar))
    _, canonical = decompress(gg)
    # every pattern node of this result holds the same set
    twin = SimulationResult({1: SuffixSet([bare("c")]), 2: SuffixSet([bare("c")])})
    for path_map in (None, canonical):
        first = expand_by_node(gg, simulate_on_grammar(gg, cd_pattern), path_map)
        # an equal result of another run, made of other SuffixSet objects
        again = expand_by_node(gg, simulate_on_grammar(gg, cd_pattern, optimized=True), path_map)
        assert first == {1: {6}, 2: {7}}
        assert all(again[u] is first[u] for u in first)
        twins = expand_by_node(gg, twin, path_map)
        assert twins[1] is twins[2] == {1, 3, 6, 8}
    # the map's memo starts afresh once it expands through another grammar
    result = simulate_on_grammar(gg, cd_pattern)
    before = expand_by_node(gg, result, canonical)
    assert expand_by_node(other, result, canonical) == before
    after = expand_by_node(gg, result, canonical)
    assert after == before and after[1] is not before[1]


def test_expansion_memo_stays_under_its_limit_and_answers_hold(monkeypatch):
    # one id per node, which a few sets fill, so that a long stream on one
    # grammar evicts
    monkeypatch.setattr(grammar, "_EXPANDED_IDS_PER_NODE", 1)
    graph = gen_graph(GraphGenParams(16, 10, 0.5, 1.25, 2, seed=1))
    gg, pm = compress(graph)
    limit = gg.node_count()
    evictions = 0
    for seed in range(60):
        pattern = gen_pattern(PatternGenParams(nodes=4, edges=5, seed=seed),
                              graph.label_set())
        result = simulate_on_grammar(gg, pattern, optimized=True)
        for path_map, memo in ((None, gg._derivation().expanded), (pm, pm._expanded_sets(gg))):
            kept = list(memo)
            expanded = expand_by_node(gg, result, path_map)
            if path_map is pm:
                assert expanded == simulate_on_graph(graph, pattern)
            held = sum(len(ids) + 1 for ids in memo.values())
            assert held == memo.held <= limit
            evictions += not set(kept) <= set(memo)
    assert evictions >= 5


def test_a_memo_holds_the_sizes_of_its_entries_and_drops_the_oldest_first():
    # an entry's size is its key's length plus its value
    memo = _Memo(lambda key, value: len(key) + value, 10)
    for key, value, keys in [("a", 2, ["a"]), ("bb", 1, ["a", "bb"]),
                             ("c", 3, ["a", "bb", "c"]),
                             # one over the limit drops the oldest alone
                             ("d", 0, ["bb", "c", "d"]),
                             # more drops the oldest until the rest fit
                             ("eee", 3, ["d", "eee"]),
                             ("f", 9, ["f"]),
                             # an entry larger than the limit leaves none
                             ("g", 10, [])]:
        memo.add(key, value)
        assert list(memo) == keys
        assert memo.held == sum(len(k) + v for k, v in memo.items()) <= memo.limit


@pytest.mark.parametrize("steps", [pytest.param(("CD", 1), id="a-pair-as-the-steps"),
                                   pytest.param((("CD",),), id="one-item-step"),
                                   pytest.param((("CD", 1, 2),), id="three-item-step")])
@pytest.mark.parametrize("call", ["represented_node_union", "expand_by_node",
                                  "predecessor_suffixes", "suffix_set_difference", "validate"])
def test_a_step_that_is_no_pair_is_a_misfit_named_with_its_suffix(fig1_grammar, steps, call):
    bad = GrammarPathSuffix(steps, "c")
    want = f"suffix {bad}: step {steps[0]!r} is not a (rule, ordinal) pair"
    if call == "validate":
        gg = GraphGrammar(fig1_grammar.terminals, fig1_grammar.rules.values(), fig1_grammar.start,
                          [*fig1_grammar.edge_pairs, (bad, parse_suffix("CD/2:d"))])
        assert gg.validate() == [want]
        return
    calls = {
        "represented_node_union": lambda: represented_node_union(fig1_grammar, [bare("b"), bad]),
        "expand_by_node": lambda: expand_by_node(
            fig1_grammar, SimulationResult({1: SuffixSet([bad])})),
        "predecessor_suffixes": lambda: predecessor_suffixes(fig1_grammar, [bad]),
        "suffix_set_difference": lambda: suffix_set_difference(fig1_grammar, [bare("c")], [bad]),
    }
    with pytest.raises(ValueError) as raised:
        calls[call]()
    assert type(raised.value) is ValueError and str(raised.value) == want


def test_expansion_errors_are_raised_every_time_and_never_stored(fig1_grammar):
    gg = parse_grammar(format_grammar(fig1_grammar))
    hub = SuffixSet([parse_suffix("S/2:b")])
    # a map of the first five of fig1's full paths lacks the second CDCD's
    smaller = PathMap((path, nid) for nid, path in enumerate(full_paths(gg)[:5], start=1))
    missing = SimulationResult({1: hub, 2: SuffixSet([parse_suffix("S/3:CDCD/1:CD/1:c")])})
    misfit = SimulationResult({1: hub, 2: SuffixSet([parse_suffix("CD/1:d")])})
    for _ in range(3):
        with pytest.raises(KeyError):
            expand_by_node(gg, missing, smaller)
        with pytest.raises(ValueError, match="CD/1:d"):
            expand_by_node(gg, misfit)
        with pytest.raises(ValueError, match="CD/1:d"):
            expand_by_node(gg, misfit, smaller)
    # the first pattern node's set expanded and is kept; the failing ones
    # are not
    assert dict(smaller._expanded_sets(gg)) == {hub: {5}}
    assert dict(gg._derivation().expanded) == {hub: {5}}


def test_a_result_keeps_neither_grammar_nor_state_alive(fig1_grammar, cd_pattern):
    def live_states():
        return sum(isinstance(o, _GrammarState) for o in gc.get_objects())

    gc.collect()
    before = live_states()
    gg = parse_grammar(format_grammar(fig1_grammar))
    _, canonical = decompress(gg)
    result = simulate_on_grammar(gg, cd_pattern, optimized=True)
    assert expand_by_node(gg, result) == {1: {6}, 2: {7}}
    assert expand_by_node(gg, result, canonical) == {1: {6}, 2: {7}}
    ref = weakref.ref(gg)
    del gg
    gc.collect()
    assert ref() is None
    assert live_states() == before
    assert expand_by_node(fig1_grammar, result) == {1: {6}, 2: {7}}
    assert expand_by_node(fig1_grammar, result, canonical) == {1: {6}, 2: {7}}
