"""Pattern simulation evaluated directly on a compressed grammar.

Mirrors the uncompressed engine, but candidate sets hold grammar path
suffixes instead of node ids: a suffix stands for every decompressed node
whose full derivation path ends with it. Both modes and the helpers below
share one core, which runs on code strings instead of suffix objects.
Each grammar codes every element of a sort_key, a terminal or a (rule,
ordinal) step, as a fixed number of characters, ranked so that a
suffix's code sorts as its sort_key does. Then `a` is a suffix of `b`
exactly when b's code starts with a's; the codes extending a code are one
bisect range of a sorted list; a parent drops its last element and a
one-step extension appends one; and re-anchoring a suffix under the
outer steps of a longer one is a concatenation. Every set in the core is
a sorted tuple of codes. Predecessor lookup bisects the edge pairs sorted
by their right side's code, and set subtraction bisects the sorted
removal codes, splitting a code into its extensions until the parts to
drop become syntactic. Optimized mode adds deferred removals and
re-coalescing. Suffixes are coded once they are checked against the
grammar, and results are decoded into SuffixSets on the way out.
Expansion into node ids is grammar.represented_node_union, which runs on
the grammar's derivation tables and builds no simulation state. The
grammar object holds the code table, the index and, for optimized runs,
each candidate set's predecessor set, so they die with it; an equal
grammar builds its own.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .graph import PatternGraph, _pattern_predecessors
from .grammar import GraphGrammar, PathMap, _check_fit, represented_node_union
from .suffix import GrammarPathSuffix, SuffixSet

# The digits of a code are the characters below _CAPACITY, and _ABOVE
# sorts after every digit, so the codes that start with `key` are exactly
# those in the half-open range [key, key + _ABOVE).
_CAPACITY = sys.maxunicode
_ABOVE = chr(_CAPACITY)

# The most codes, keys and values together, that one grammar's optimized
# runs keep in _GrammarState.pre_sets; the oldest sets go first beyond it.
# The benchmark's ingest grammar holds about 50,000 after 48 answers.
_PRE_SET_CODES = 500_000

# The most ids, per node of the grammar, that one memo of expand_by_node
# holds (each set counts one more); the oldest sets go first beyond it.
# The benchmark's memos hold at most 2.7 times the node count, and at 2
# times query-stream's share of pattern-node results that hit falls from
# 0.62 to 0.57.
_EXPANDED_IDS_PER_NODE = 4


@dataclass(frozen=True)
class GrammarSharpeningStep:
    """Snapshot after one worklist iteration of simulate_on_grammar."""

    node: int
    predecessor_suffixes: SuffixSet
    removed: SuffixSet
    candidates: Mapping[int, SuffixSet]


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Map from pattern node to its candidate suffixes; empty when the
    pattern has no simulation in the decompressed graph."""

    candidates: Mapping[int, SuffixSet]

    def __bool__(self) -> bool:
        return bool(self.candidates)

    @property
    def pairs(self) -> frozenset[tuple[int, GrammarPathSuffix]]:
        return frozenset((u, s) for u, sset in self.candidates.items() for s in sset)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationResult):
            return NotImplemented
        return dict(self.candidates) == dict(other.candidates)


def _reduce(keys: Iterable[str]) -> tuple[str, ...]:
    """Subsumption removal on codes: sorted, without duplicates and
    without any code that extends another, since it names a subset of its
    nodes. All extensions of a kept code follow it, so one sweep
    suffices."""
    out = []
    last = _ABOVE  # no code starts with it
    for key in sorted(keys):
        if not key.startswith(last):
            out.append(key)
            last = key
    return tuple(out)


def _outside(state: _GrammarState, items: Iterable[str],
             removals: tuple[str, ...]) -> list[str]:
    """The parts of `items` outside the nodes of `removals`, a sorted and
    subsumption-free tuple of codes.

    A code's nearest removal at or below it decides it with one bisect:
    when that removal is a prefix of it, a removal covers it (drop);
    otherwise, when the next removal extends it, it is split into its
    one-step extensions, each of which either leaves the removals' shadow
    or is decided a round later; otherwise no removal touches it (keep).
    Without subsumption, a removal that is a prefix of the code is the
    nearest one at or below it, since everything sorting between them
    would extend that removal. Subsumption-free items in canonical order
    give parts in canonical order."""
    width = state.width
    extensions = state.extensions
    size = len(removals)
    out = []
    stack = list(items)
    stack.reverse()
    while stack:
        key = stack.pop()
        i = bisect_right(removals, key)
        if i and key.startswith(removals[i - 1]):
            continue
        if i < size and removals[i].startswith(key):
            stack += [key + c for c in reversed(extensions[key[-width:]])]
        else:
            out.append(key)
    return out


def _inside(items: Iterable[str], removals: tuple[str, ...]) -> list[str]:
    """The parts of `items` inside the nodes of `removals`, sorted and
    subsumption-free codes: each item a removal covers, and for any other
    item the removals that extend it."""
    size = len(removals)
    out = []
    for key in items:
        i = bisect_right(removals, key)
        if i and key.startswith(removals[i - 1]):
            out.append(key)
        elif i < size and removals[i].startswith(key):
            out += removals[i:bisect_left(removals, key + _ABOVE, i)]
    return out


def _coalesce(state: _GrammarState, items: tuple[str, ...]) -> tuple[str, ...]:
    """Undo splitting where it no longer distinguishes anything: when every
    one-step extension of a parent suffix is present, the family is the
    parent's exact partition and collapses back to it, and so on upwards.
    Keeps sets at the shallowest granularity that still describes the same
    node set. `items` must be sorted and subsumption-free.

    Families are counted by their parent's code. Mostly no family is
    complete, and `items` comes back as it is."""
    width = state.width
    extensions = state.extensions
    counts = Counter([key[:-width] for key in items])
    complete = {up for up, count in counts.items()
                if up and count == len(extensions[up[-width:]])}
    if not complete:
        return items
    work = list(complete)
    while work:
        up = work.pop()[:-width]
        if up:
            counts[up] += 1
            if counts[up] == len(extensions[up[-width:]]):
                complete.add(up)
                work.append(up)
    # members of a complete family give way to its parent
    out = [key for key in items if key[:-width] not in complete]
    out += [key for key in complete if key[:-width] not in complete]
    out.sort()
    return tuple(out)


def _apply_removal_pair(state: _GrammarState, cand: tuple[str, ...],
                        old: tuple[str, ...], new: tuple[str, ...]) -> tuple[str, ...]:
    # cand minus (old \ new), rewritten as (cand \ old) union
    # (cand intersect new) so the removal set itself is never built; the
    # two parts are sorted runs, which the sort in _reduce merges
    kept = _outside(state, cand, old)
    kept += _inside(cand, new)
    return _coalesce(state, _reduce(kept))


class _GrammarState:
    """Simulation state for one grammar object.

    The code table gives each terminal and each (rule, ordinal) step of
    the grammar a code of `width` characters: terminals are ranked by
    name and steps by (rule, ordinal), so codes sort as sort_key tuples
    do. The width is the fewest characters that tell all of them apart.
    Two tables are kept by the code of a suffix's last element, its
    outermost step or its bare terminal: the codes its one-step
    extensions append, in canonical order, and the nodes it stands for.

    The predecessor index is the edge pairs sorted by their right side's
    code. The rights `s` is a suffix of, which contribute their left
    unchanged, are the bisect range of codes that start with s's code.
    The rights that are proper suffixes of `s`, which contribute their
    left re-anchored under the steps of `s` they leave over, have the
    proper prefixes of s's code: at most len(s) exact dict hits. A left
    side is coded on the first lookup that returns it. Each side object
    is coded once, through a memo keyed by identity (compress and
    parse_grammar give equal sides as one object) that is dropped once
    every left is coded; until then the grammar and `_left_sides` keep
    every side alive.

    The one cache, for optimized runs, holds the coalesced predecessor
    set and its node count per candidate set, up to _PRE_SET_CODES codes
    in all, oldest sets out first; a lookup's codes are kept only inside
    it."""

    __slots__ = ("width", "codes", "_elements", "extensions", "_nodes", "_side_codes",
                 "_rights", "_ends", "_left_sides", "_lefts", "_uncoded", "pre_sets",
                 "_pre_codes")

    def __init__(self, gg: GraphGrammar, capacity: int = _CAPACITY):
        derived = gg._derivation()
        occurrences = derived.occurrences
        terminals = sorted(gg.terminals)
        steps = sorted((rule.name, ordinal) for rule in gg.rules.values()
                       for ordinal, _ in rule.body)
        elements = terminals + steps
        width = 1
        while capacity ** width < len(elements):
            width += 1
        # a rank's digits in base `capacity`, most significant first
        codes = ["".join([chr(rank // capacity ** k % capacity) for k in range(width - 1, -1, -1)])
                 for rank in range(len(elements))]
        self.width = width
        # terminal or step -> its code, and back
        self.codes: dict = dict(zip(elements, codes))
        self._elements: dict = dict(zip(codes, elements))
        # a suffix anchored at rule N stands for one node per instance of
        # N, a bare terminal for one per instance of each body occurrence;
        # the occurrences of the same label extend it
        instances = {name: len(bases) for name, bases in derived.bases.items()}
        for t in terminals:
            instances[t] = sum(instances[name] for name, _ in occurrences.get(t, ()))
        self.extensions: dict[str, tuple[str, ...]] = {}
        self._nodes: dict[str, int] = {}
        for element, code in zip(elements, codes):
            label = element if isinstance(element, str) else element[0]
            self.extensions[code] = tuple(self.codes[p] for p in occurrences.get(label, ()))
            self._nodes[code] = instances[label]
        pairs = gg.edge_pairs
        self._side_codes: dict[int, str] = {}
        rights = [self._side_code(right) for _, right in pairs]
        order = sorted(range(len(rights)), key=rights.__getitem__)
        self._rights = [rights[i] for i in order]
        # each right's code -> the end of its run of the sorted pairs
        self._ends = dict(zip(self._rights, range(1, len(order) + 1)))
        self._left_sides = [pairs[i][0] for i in order]
        self._lefts: list[str | None] = [None] * len(order)
        self._uncoded = len(order)
        self.pre_sets: dict[tuple[str, ...], tuple[tuple[str, ...], int]] = {}
        self._pre_codes = 0  # codes held in pre_sets, keys and values

    def encode(self, s: GrammarPathSuffix) -> str:
        """The code of `s`, which must fit the grammar."""
        codes = self.codes
        return codes[s.terminal] + "".join([codes[step] for step in reversed(s.steps)])

    def decode(self, key: str) -> GrammarPathSuffix:
        width = self.width
        parts = key if width == 1 else [key[i:i + width] for i in range(0, len(key), width)]
        elements = self._elements
        return GrammarPathSuffix(tuple([elements[part] for part in parts[:0:-1]]),
                                 elements[parts[0]])

    def decode_set(self, keys: Iterable[str]) -> SuffixSet:
        """The SuffixSet of `keys`, which must be distinct and sorted."""
        return SuffixSet._canonical(tuple(map(self.decode, keys)))

    def node_count(self, keys: Iterable[str]) -> int:
        """Nodes represented by `keys`, whose suffixes must cover pairwise
        disjoint node sets."""
        width = self.width
        nodes = self._nodes
        return sum([nodes[key[-width:]] for key in keys])

    def _side_code(self, s: GrammarPathSuffix) -> str:
        code = self._side_codes.get(id(s))
        if code is None:
            code = self._side_codes[id(s)] = self.encode(s)
        return code

    def _left_codes(self, start: int, end: int) -> list[str]:
        lefts = self._lefts
        found = lefts[start:end]
        uncoded = found.count(None)
        if uncoded:
            sides = self._left_sides
            for i in range(start, end):
                if lefts[i] is None:
                    lefts[i] = self._side_code(sides[i])
            self._uncoded -= uncoded
            if not self._uncoded:
                self._side_codes = self._left_sides = None
            found = lefts[start:end]
        return found

    def lookup(self, key: str) -> list[str]:
        """Codes of the suffix-level predecessors of `key`, deduplicated
        neither by value nor by subsumption."""
        rights = self._rights
        start = bisect_left(rights, key)
        out = self._left_codes(start, bisect_left(rights, key + _ABOVE, start))
        ends = self._ends
        width = self.width
        for m in range(width, len(key), width):
            right = key[:m]
            end = ends.get(right)
            if end is not None:
                tail = key[m:]
                lefts = self._left_codes(bisect_left(rights, right, 0, end), end)
                out += [left + tail for left in lefts]
        return out

    def predecessors(self, keys: Iterable[str]) -> tuple[str, ...]:
        out: list[str] = []
        lookup = self.lookup
        for key in keys:
            out += lookup(key)
        return _reduce(out)

    def coalesced_predecessors(self, keys: tuple[str, ...]) -> tuple[tuple[str, ...], int]:
        cached = self.pre_sets.get(keys)
        if cached is None:
            pre = _coalesce(self, self.predecessors(keys))
            cached = self.pre_sets[keys] = (pre, self.node_count(pre))
            self._pre_codes += len(keys) + len(pre)
            if self._pre_codes > _PRE_SET_CODES:
                self._evict_pre_sets()
        return cached

    def _evict_pre_sets(self) -> None:
        # drop the oldest sets until the rest fit under _PRE_SET_CODES
        sets = self.pre_sets
        held = self._pre_codes
        oldest = []
        for keys, (pre, _) in sets.items():
            if held <= _PRE_SET_CODES:
                break
            held -= len(keys) + len(pre)
            oldest.append(keys)
        for keys in oldest:
            del sets[keys]
        self._pre_codes = held


def _state(gg: GraphGrammar) -> _GrammarState:
    # grammars are immutable, so the state lives on the grammar object
    # across its runs, as a LabeledGraph keeps its predecessor index
    state = gg._sim_state
    if state is None:
        state = _GrammarState(gg)
        object.__setattr__(gg, "_sim_state", state)
    return state


def predecessor_suffixes(gg: GraphGrammar, candidates: Iterable[GrammarPathSuffix]) -> SuffixSet:
    """Suffix-level predecessors of a whole set, subsumption-reduced.

    The represented node set equals the graph predecessors of the
    represented nodes of `candidates`, and the result elements represent
    pairwise disjoint node sets.
    """
    candidates = list(candidates)
    _check_fit(gg, candidates)
    state = _state(gg)
    return state.decode_set(state.predecessors(map(state.encode, candidates)))


def suffix_set_difference(gg: GraphGrammar, items: Iterable[GrammarPathSuffix],
                          removes: Iterable[GrammarPathSuffix]) -> SuffixSet:
    """Candidates minus removals, computed on suffixes.

    Drops every element covered by a removal suffix, and splits elements
    that cover a longer removal suffix into their one-step extensions
    until the overlap becomes syntactic. The represented node set of the
    result is exactly items' nodes minus removes' nodes.
    """
    items, removes = list(items), list(removes)
    _check_fit(gg, items + removes)
    state = _state(gg)
    encode = state.encode
    kept = _outside(state, map(encode, items), _reduce(map(encode, removes)))
    return state.decode_set(sorted(set(kept)))


def simulate_on_grammar(gg: GraphGrammar, pattern: PatternGraph, *,
                        optimized: bool = False,
                        on_step: Callable[[GrammarSharpeningStep], None] | None = None,
                        ) -> SimulationResult:
    """Greatest simulation of `pattern` in the graph `gg` denotes.

    Same sharpening loop and FIFO policy as simulate_on_graph, with all
    node sets replaced by suffix sets. Both modes take predecessors from
    the same sorted index, which is built on the first run on a grammar
    object and kept for later runs on that object; an equal grammar,
    such as a reloaded one, builds its own. Optimized runs also keep the
    predecessor set of each candidate set they look up. With
    optimized=True, removals are deferred as (before, after) predecessor
    snapshots and applied when the target node is next inspected, and
    sets are re-coalesced to the shallowest equivalent suffixes; the
    expanded result is identical, the syntactic suffix sets need not be.
    Iteration snapshots are only emitted in plain mode.

    Raises:
        GrammarValidationError: if the grammar is invalid.
        ValueError: empty pattern, a grammar denoting no nodes, or a
            pattern label that is not a valid label.
    """
    gg.ensure_valid()
    if len(pattern) == 0:
        raise ValueError("pattern has no nodes")
    if gg.node_count() == 0:
        raise ValueError("grammar denotes an empty graph")

    state = _state(gg)
    codes = state.codes
    all_terminals = tuple(sorted(codes[t] for t in gg.terminals))
    candidates = {u: (codes[pattern.label(u)],) if pattern.label(u) in gg.terminals
                  else () for u in pattern.node_ids}
    # None marks "never sharpened", matching the plain-graph engine: the
    # first visit of each pattern node must run even when its label set
    # covers everything
    previous: dict[int, tuple[str, ...] | None] = {u: None for u in pattern.node_ids}
    pattern_pred = _pattern_predecessors(pattern)

    queue = deque(pattern.node_ids)
    queued = set(pattern.node_ids)

    if optimized:
        start = (all_terminals, gg.node_count())
        prev_pre = {u: start for u in pattern.node_ids}
        pending: dict[int, list[tuple[tuple[str, ...], tuple[str, ...]]]] = {
            u: [] for u in pattern.node_ids}
        while queue:
            u = queue.popleft()
            queued.discard(u)
            updates = pending[u]
            if updates:
                pending[u] = []
                cand = candidates[u]
                for old, new in updates:
                    if not cand:
                        break
                    cand = _apply_removal_pair(state, cand, old, new)
                candidates[u] = cand
            if candidates[u] == previous[u]:
                continue
            previous[u] = candidates[u]
            if not pattern_pred[u]:
                continue  # nothing reads the pre set of a node without predecessors
            pre, pre_count = state.coalesced_predecessors(candidates[u])
            old, old_count = prev_pre[u]
            # enqueue only on a real predecessor loss; a reshaped but
            # node-equal pre set must not keep the queue alive. Pre sets
            # only shrink and their elements cover disjoint node sets, so
            # a loss is exactly a drop in the node count
            if pre_count < old_count:
                for u2 in pattern_pred[u]:
                    pending[u2].append((old, pre))
                    if u2 not in queued:
                        queue.append(u2)
                        queued.add(u2)
            prev_pre[u] = (pre, pre_count)
    else:
        previous_pre = {u: all_terminals for u in pattern.node_ids}
        while queue:
            u = queue.popleft()
            queued.discard(u)
            if candidates[u] == previous[u]:
                continue
            previous[u] = candidates[u]
            if not pattern_pred[u] and on_step is None:
                continue  # nothing reads the pre set of a node without predecessors
            pre_u = state.predecessors(candidates[u])
            # every set here is subsumption-free and in canonical order,
            # so its leaves are too
            removed = tuple(_outside(state, previous_pre[u], pre_u))
            for u2 in pattern_pred[u]:
                narrowed = tuple(_outside(state, candidates[u2], removed))
                if narrowed != candidates[u2]:
                    candidates[u2] = narrowed
                    if u2 not in queued:
                        queue.append(u2)
                        queued.add(u2)
            previous_pre[u] = pre_u
            if on_step is not None:
                decode = state.decode_set
                on_step(GrammarSharpeningStep(u, decode(pre_u), decode(removed), {
                    v: decode(c) for v, c in candidates.items()}))

    # a suffix anchored at a rule the start rule does not reach
    # represents no node
    if all(state.node_count(c) for c in candidates.values()):
        return SimulationResult({u: state.decode_set(c) for u, c in candidates.items()})
    return SimulationResult({})


def expand_by_node(gg: GraphGrammar, result: SimulationResult,
                   path_map: PathMap | None = None) -> dict[int, frozenset[int]]:
    """Expand a simulation result to concrete node ids per pattern node.

    Without a path map, ids are the canonical decompression ids; with
    one (e.g. from compress), each node's full path is translated through
    it. Each pattern node's SuffixSet is looked up in a memo of expanded
    sets, keyed by the SuffixSet's value: a hit costs one dict lookup and
    returns the frozenset stored before, so equal results share one
    frozenset. A miss goes through represented_node_union, whose cost is
    linear in the matched nodes, and stores its ids. The memo belongs to
    what the ids depend on: without a path map it lives with the grammar
    object's derivation tables, and with one it lives on the map beside
    its table for the grammar last expanded through it, which holds that
    grammar only weakly and starts afresh for another grammar. Each memo
    holds at most 4 ids per node of the grammar, oldest sets out first.
    An error is raised, never stored. No simulation state is built. A
    path map holds its ids as a table over the full paths of its own
    rules: a grammar of those rules reads it as it is, and a grammar of
    other rules builds its table on first use.

    Raises:
        GrammarValidationError: if the grammar is invalid.
        ValueError: if a suffix of the result does not fit `gg`.
        KeyError: with the smallest full path the path map has no entry
            for, for the first pattern node that has one.
    """
    if not result:
        return {}  # no match: nothing to check or to expand
    gg.ensure_valid()
    memo = gg._derivation().expanded if path_map is None else path_map._expanded_sets(gg)
    limit = _EXPANDED_IDS_PER_NODE * gg.node_count()
    out = {}
    for u, sset in result.candidates.items():
        ids = memo.get(sset)
        if ids is None:
            ids = represented_node_union(gg, sset, path_map)
            memo.add(sset, ids, limit)
        out[u] = ids
    return out


def expand_to_nodes(gg: GraphGrammar, result: SimulationResult,
                    path_map: PathMap | None = None) -> frozenset[tuple[int, int]]:
    """Flatten expand_by_node into (pattern node, graph node) pairs."""
    return frozenset((u, v) for u, nodes in expand_by_node(gg, result, path_map).items()
                     for v in nodes)
