import pytest
from hypothesis import given, settings, strategies as st

from gramsim import (GrammarPathSuffix, SuffixFormatError, SuffixSet, bare,
                     compress, parse_suffix, represented_node_union)
from gramsim.simulate import _reduce, _state

from .conftest import full_path_suffixes, is_suffix_of, seeded_case

NAMES = st.sampled_from(["S", "A", "B", "R1", "R2"])
TERMINALS = st.sampled_from(["a", "b", "c"])


@st.composite
def suffixes(draw):
    steps = tuple((draw(NAMES), draw(st.integers(1, 3)))
                  for _ in range(draw(st.integers(0, 4))))
    return GrammarPathSuffix(steps, draw(TERMINALS))


def test_parse_and_str_round_trip():
    for text in ["a", "A/1:b", "S/3:CDCD/1:CD/2:d", "R9/12:x"]:
        assert str(parse_suffix(text)) == text


def test_parse_prints_leading_zero_ordinals_without_them():
    s = parse_suffix("S/01:T/010:a")
    assert s == parse_suffix("S/1:T/10:a")
    assert str(s) == "S/1:T/10:a"


def test_parse_bare():
    s = parse_suffix("c")
    assert s.steps == ()
    assert s.terminal == "c"
    assert s == bare("c")
    assert len(s) == 0


def test_parse_steps():
    s = parse_suffix("A/1:B/2:c")
    assert s.steps == (("A", 1), ("B", 2))
    assert s.terminal == "c"
    assert s.first_label == "A"
    assert bare("c").first_label == "c"


@pytest.mark.parametrize("text", [
    "",
    "A:b",            # step without an ordinal
    "A/0:b",
    "A/-1:b",
    "A/x:b",
    "A/1",            # ends in a step, not a terminal
    "A/1:",
    "a b/1:c",
    "A/1:b c",
    "A/١:b",          # Arabic-Indic one, which int() reads as 1
    "A/²:b",
    # more digits than int() converts
    pytest.param("S/" + "1" * 5000 + ":a", id="over-long-ordinal"),
])
def test_parse_rejects(text):
    with pytest.raises(SuffixFormatError):
        parse_suffix(text)


def test_is_suffix_of_table(fig1_grammar):
    # on a grammar's codes, `a` is a suffix of `b` exactly when b's code
    # starts with a's
    state = _state(fig1_grammar)

    def is_suffix(shorter, longer):
        return state.encode(parse_suffix(longer)).startswith(state.encode(parse_suffix(shorter)))

    assert is_suffix("d", "d")
    assert is_suffix("d", "CD/2:d")
    assert is_suffix("d", "CDCD/1:CD/2:d")
    assert is_suffix("CD/2:d", "CDCD/1:CD/2:d")
    assert not is_suffix("CD/2:d", "d")
    assert not is_suffix("CDCD/1:CD/2:d", "CD/2:d")
    assert not is_suffix("CDCD/1:CD/2:d", "CDCD/2:CD/2:d")
    assert not is_suffix("c", "d")
    # same length, different step
    assert not is_suffix("CD/1:c", "CD/2:d")
    assert not is_suffix("S/1:CDCD/1:CD/2:d", "S/3:CDCD/1:CD/2:d")


@given(suffixes(), suffixes())
def test_is_suffix_of_via_str(a, b):
    # textual containment at ':' boundaries is the same relation
    want = str(b).endswith(str(a)) and (len(a.steps) == 0 or
                                        str(b) == str(a) or
                                        str(b)[-len(str(a)) - 1] == ":")
    if a.terminal != b.terminal:
        want = False
    assert is_suffix_of(a, b) == want


def test_immutable():
    s = parse_suffix("A/1:b")
    with pytest.raises(AttributeError):
        s.terminal = "c"


def test_prepend():
    s = parse_suffix("CD/2:d")
    assert str(s.prepend((("S", 3), ("CDCD", 1)))) == "S/3:CDCD/1:CD/2:d"
    assert s.prepend(()) is s


def test_canonical_order_groups_by_terminal_then_inner_steps():
    texts = ["CD/2:d", "d", "CDCD/1:CD/1:c", "c", "S/2:b", "CD/1:c", "b"]
    got = [str(s) for s in SuffixSet(parse_suffix(t) for t in texts)]
    assert got == ["b", "S/2:b", "c", "CD/1:c", "CDCD/1:CD/1:c", "d", "CD/2:d"]


def test_suffix_set_basics():
    a, b = parse_suffix("a"), parse_suffix("A/1:a")
    s = SuffixSet([a, b, a])
    assert len(s) == 2
    assert a in s and b in s
    assert parse_suffix("b") not in s
    assert s == SuffixSet([b, a])
    assert hash(s) == hash(SuffixSet([b, a]))
    assert not SuffixSet()
    assert s


def test_suffix_set_names_a_suffix_whose_sort_key_does_not_compare():
    # a pair as the steps puts an int where the other suffix has a step
    # tuple in the sort key; the set names it instead of failing its sort
    bad = GrammarPathSuffix(("CD", 1), "c")
    with pytest.raises(ValueError) as raised:
        SuffixSet([bad, GrammarPathSuffix((("CD", 1),), "c")])
    assert type(raised.value) is ValueError
    assert str(raised.value) == (f"suffix {bad}: steps must be (str, int) pairs "
                                 f"and the terminal a str")
    # so is a step whose ordinal is no int, and a terminal that is no str
    for bad, good in [(GrammarPathSuffix((("CD", "1"),), "c"), parse_suffix("CD/1:c")),
                      (GrammarPathSuffix((), 3), bare("c"))]:
        with pytest.raises(ValueError, match="steps must be"):
            SuffixSet([good, bad])


def reduced(gg, suffixes):
    """_reduce over the codes of `suffixes`, decoded back."""
    state = _state(gg)
    return [state.decode(key) for key in _reduce(map(state.encode, suffixes))]


def test_remove_subsumed_example(fig1_grammar):
    kept = reduced(fig1_grammar, [parse_suffix(t) for t in
                                  ["d", "CD/2:d", "CDCD/1:CD/2:d", "CD/1:c", "d"]])
    assert [str(s) for s in kept] == ["CD/1:c", "d"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_remove_subsumed_properties(seed, data):
    gg, _ = compress(seeded_case(seed, max_base=8)[0])
    pool = sorted(full_path_suffixes(gg), key=str)
    items = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    kept = reduced(gg, items)
    # canonical order, and every dropped suffix has a kept suffix of itself
    assert kept == list(SuffixSet(kept))
    for s in items:
        assert any(is_suffix_of(k, s) for k in kept)
    # kept elements are pairwise incomparable
    for a in kept:
        for b in kept:
            if a != b:
                assert not is_suffix_of(a, b)
    # idempotent, and the same nodes
    assert reduced(gg, kept) == kept
    assert represented_node_union(gg, kept) == represented_node_union(gg, items)
