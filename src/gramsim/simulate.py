"""Pattern simulation evaluated directly on a compressed grammar.

Mirrors the uncompressed engine, but candidate sets hold grammar path
suffixes instead of node ids: a suffix stands for every decompressed node
whose full derivation path ends with it. Both modes share one core, and
every set in it is kept in the canonical sort_key order, in which one
suffix is a suffix of another exactly when its key is a prefix of the
other's. Predecessor lookup bisects the edge pairs sorted by their right
side's key, and set subtraction bisects the sorted keys of the removal
set, splitting a suffix into longer ones until the parts to drop become
syntactic. Optimized mode adds deferred removals and re-coalescing. The
grammar object holds the index and the lookups, so they die with it; an
equal grammar builds its own.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .graph import PatternGraph
from .grammar import GraphGrammar, PathMap, _check_fit, represented_node_union
from .suffix import (_AFTER, GrammarPathSuffix, SuffixSet, _sort_key, bare,
                     remove_subsumed)


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


class _RemovalIndex:
    """A subsumption-free removal set as its sorted keys.

    A candidate's key decides it with one bisect: when the nearest key at
    or below it is a prefix of it, that removal is a suffix of the
    candidate (drop); otherwise, when the next key extends it, every
    removal in the run of keys that start with its key strictly extends
    it (split); otherwise no removal touches it (keep). Without
    subsumption, a removal that is a suffix of the candidate is the
    nearest key at or below it, since everything sorting between them
    would extend that removal."""

    __slots__ = ("items", "keys")

    def __init__(self, removes: SuffixSet):
        self.items = removes.items
        self.keys = [s.sort_key for s in self.items]


def _leaves(gg: GraphGrammar, items: Iterable[GrammarPathSuffix],
            index: _RemovalIndex, inside: bool) -> Iterator[GrammarPathSuffix]:
    """The parts of `items` outside the index's suffixes, or inside them
    when `inside` is set. A part some removal strictly extends is split
    into its one-step extensions, each of which either leaves the
    removals' shadow or is covered a round later; its inside parts are
    exactly the removals below it. Subsumption-free items in canonical
    order give parts in canonical order."""
    keys, removals = index.keys, index.items
    size = len(keys)
    stack = list(items)
    stack.reverse()
    while stack:
        ext = stack.pop()
        key = ext.sort_key
        i = bisect_right(keys, key)
        if i and key[:len(keys[i - 1])] == keys[i - 1]:
            if inside:
                yield ext
        elif i < size and keys[i][:len(key)] == key:
            if inside:
                yield from removals[i:bisect_left(keys, key + _AFTER, i)]
            else:
                stack.extend(reversed(gg.extensions(ext)))
        elif not inside:
            yield ext


def _coalesce(gg: GraphGrammar, items: SuffixSet) -> SuffixSet:
    """Undo splitting where it no longer distinguishes anything: when every
    one-step extension of a parent suffix is present, the family is the
    parent's exact partition and collapses back to it, and so on upwards.
    Keeps sets at the shallowest granularity that still describes the same
    node set. `items` must be subsumption-free.

    Families are counted by their parent's key, and only the parents
    that survive are built. Mostly no family is complete, and `items`
    comes back as it is."""
    sizes = _state(gg).family_sizes
    counts = Counter([s._key[:-1] for s in items])
    complete = {key for key, count in counts.items() if key and count == sizes[key[-1]]}
    if not complete:
        return items
    work = list(complete)
    while work:
        up = work.pop()[:-1]
        if up:
            counts[up] += 1
            if counts[up] == sizes[up[-1]]:
                complete.add(up)
                work.append(up)
    # members of a complete family give way to its parent
    out = [s for s in items if s._key[:-1] not in complete]
    out.extend(GrammarPathSuffix(key[:0:-1], key[0])
               for key in complete if key[:-1] not in complete)
    return SuffixSet._canonical(tuple(sorted(out, key=_sort_key)))


def _apply_removal_pair(gg: GraphGrammar, cand: SuffixSet,
                        old_index: _RemovalIndex, new_index: _RemovalIndex) -> SuffixSet:
    # cand minus (old_pre \ new_pre), rewritten as (cand \ old_pre) union
    # (cand intersect new_pre) so the removal set itself is never built.
    kept = list(_leaves(gg, cand, old_index, False))
    kept.extend(_leaves(gg, cand, new_index, True))
    return _coalesce(gg, remove_subsumed(kept))


class _PredecessorIndex:
    """Edge pairs sorted by their right side's key. The rights `s` is a
    suffix of, which contribute their left unchanged, are the bisect
    range of keys that start with s's key. The rights that are proper
    suffixes of `s`, which contribute their left re-anchored under the
    steps of `s` they leave over, have the proper prefixes of s's key:
    at most len(s) exact dict hits."""

    __slots__ = ("_keys", "_lefts", "_runs")

    def __init__(self, pairs: Iterable[tuple[GrammarPathSuffix, GrammarPathSuffix]]):
        ordered = sorted(pairs, key=lambda pair: pair[1].sort_key)
        self._keys = [right.sort_key for _, right in ordered]
        self._lefts = [left for left, _ in ordered]
        # each right's key -> its run [start, end) of the sorted pairs
        runs: dict[tuple, list[int]] = {}
        for i, key in enumerate(self._keys):
            runs.setdefault(key, [i, i])[1] = i + 1
        self._runs = runs

    def lookup(self, s: GrammarPathSuffix) -> tuple[GrammarPathSuffix, ...]:
        key = s.sort_key
        keys = self._keys
        lefts = self._lefts
        start = bisect_left(keys, key)
        out = lefts[start:bisect_left(keys, key + _AFTER, start)]
        steps = s.steps
        n = len(steps)
        runs = self._runs
        for m in range(1, n + 1):
            run = runs.get(key[:m])
            if run is not None:
                prefix = steps[:n + 1 - m]
                out.extend(left.prepend(prefix) for left in lefts[run[0]:run[1]])
        return tuple(out)


class _GrammarState:
    """Simulation caches for one grammar object: the predecessor index, its
    lookups per suffix and, for optimized runs, the removal index and node
    count of the coalesced predecessor set per candidate set."""

    __slots__ = ("index", "contrib", "pre_sets", "family_sizes", "_nodes")

    def __init__(self, gg: GraphGrammar):
        self.index = _PredecessorIndex(gg.edge_pairs)
        self.contrib: dict[GrammarPathSuffix, tuple[GrammarPathSuffix, ...]] = {}
        self.pre_sets: dict[SuffixSet, tuple[_RemovalIndex, int]] = {}
        # nodes a suffix stands for: one per instance of its anchor rule,
        # or for a bare terminal one per instance of each body occurrence
        derived = gg._derivation()
        nodes = {name: len(bases) for name, bases in derived.bases.items()}
        occurrences = derived.occurrences
        for t in gg.terminals:
            nodes[t] = sum(nodes[name] for name, _ in occurrences.get(t, ()))
        self._nodes = nodes
        # one-step extensions of a suffix, by the last element of its key:
        # its outermost step, or its terminal when it is bare
        sizes: dict = {t: len(occurrences.get(t, ())) for t in gg.terminals}
        for rule in gg.rules.values():
            for ordinal, _ in rule.body:
                sizes[(rule.name, ordinal)] = len(occurrences.get(rule.name, ()))
        self.family_sizes = sizes

    def node_count(self, sset: Iterable[GrammarPathSuffix]) -> int:
        """Nodes represented by `sset`, whose elements must cover
        pairwise disjoint node sets."""
        nodes = self._nodes
        return sum(nodes[s.steps[0][0] if s.steps else s.terminal] for s in sset)

    def represents_a_node(self, sset: Iterable[GrammarPathSuffix]) -> bool:
        """Whether some element of `sset` represents a node: one anchored
        at a rule the start rule does not reach represents none."""
        nodes = self._nodes
        return any(nodes[s.steps[0][0] if s.steps else s.terminal] for s in sset)

    def lookup(self, s: GrammarPathSuffix) -> tuple[GrammarPathSuffix, ...]:
        found = self.contrib.get(s)
        if found is None:
            found = self.index.lookup(s)
            self.contrib[s] = found
        return found

    def predecessors(self, sset: Iterable[GrammarPathSuffix]) -> SuffixSet:
        out: list[GrammarPathSuffix] = []
        for s in sset:
            out.extend(self.lookup(s))
        return remove_subsumed(out)

    def coalesced_predecessors(self, gg: GraphGrammar,
                               sset: SuffixSet) -> tuple[_RemovalIndex, int]:
        cached = self.pre_sets.get(sset)
        if cached is None:
            pre = _coalesce(gg, self.predecessors(sset))
            cached = (_RemovalIndex(pre), self.node_count(pre))
            self.pre_sets[sset] = cached
        return cached


def _state(gg: GraphGrammar) -> _GrammarState:
    # grammars are immutable, so the state lives on the grammar object
    # across its runs, as a LabeledGraph keeps its predecessor index
    state = gg._sim_state
    if state is None:
        state = _GrammarState(gg)
        object.__setattr__(gg, "_sim_state", state)
    return state


def predecessor_suffixes_of(gg: GraphGrammar, s: GrammarPathSuffix) -> SuffixSet:
    """Suffix-level predecessors of one suffix, deduplicated only.

    An edge pair (l, r) contributes l whenever `s` covers r (s is a
    suffix of r), and contributes l re-anchored under s's extra prefix
    whenever r covers `s`.

    Raises:
        ValueError: if `s` does not fit the grammar.
    """
    _check_fit(gg, [s])
    return SuffixSet(_state(gg).lookup(s))


def predecessor_suffixes(gg: GraphGrammar, candidates: Iterable[GrammarPathSuffix]) -> SuffixSet:
    """Suffix-level predecessors of a whole set, subsumption-reduced.

    The represented node set equals the graph predecessors of the
    represented nodes of `candidates`, and the result elements represent
    pairwise disjoint node sets.
    """
    candidates = list(candidates)
    _check_fit(gg, candidates)
    return _state(gg).predecessors(candidates)


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
    return SuffixSet(_leaves(gg, items, _RemovalIndex(remove_subsumed(removes)), False))


def simulate_on_grammar(gg: GraphGrammar, pattern: PatternGraph, *,
                        optimized: bool = False,
                        on_step: Callable[[GrammarSharpeningStep], None] | None = None,
                        ) -> SimulationResult:
    """Greatest simulation of `pattern` in the graph `gg` denotes.

    Same sharpening loop and FIFO policy as simulate_on_graph, with all
    node sets replaced by suffix sets. Both modes take predecessors from
    the same sorted index, which is built on the first run on a grammar
    object and kept, with its lookups, for later runs on that object; an
    equal grammar, such as a reloaded one, builds its own. With
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
    all_terminals = SuffixSet(bare(t) for t in gg.terminals)
    empty = SuffixSet()
    candidates = {u: SuffixSet([bare(pattern.label(u))]) if pattern.label(u) in gg.terminals
                  else empty for u in pattern.node_ids}
    # None marks "never sharpened", matching the plain-graph engine: the
    # first visit of each pattern node must run even when its label set
    # covers everything
    previous: dict[int, SuffixSet | None] = {u: None for u in pattern.node_ids}
    pattern_pred: dict[int, list[int]] = {u: [] for u in pattern.node_ids}
    for src, dst in sorted(pattern.edges):
        pattern_pred[dst].append(src)

    queue = deque(pattern.node_ids)
    queued = set(pattern.node_ids)

    if optimized:
        start = (_RemovalIndex(all_terminals), gg.node_count())
        prev_pre = {u: start for u in pattern.node_ids}
        pending: dict[int, list[tuple[_RemovalIndex, _RemovalIndex]]] = {
            u: [] for u in pattern.node_ids}
        while queue:
            u = queue.popleft()
            queued.discard(u)
            updates = pending[u]
            if updates:
                pending[u] = []
                cand = candidates[u]
                for old_index, new_index in updates:
                    if not cand:
                        break
                    cand = _apply_removal_pair(gg, cand, old_index, new_index)
                candidates[u] = cand
            if candidates[u] == previous[u]:
                continue
            previous[u] = candidates[u]
            pre_index, pre_count = state.coalesced_predecessors(gg, candidates[u])
            old_index, old_count = prev_pre[u]
            # enqueue only on a real predecessor loss; a reshaped but
            # node-equal pre set must not keep the queue alive. Pre sets
            # only shrink and their elements cover disjoint node sets, so
            # a loss is exactly a drop in the node count
            if pattern_pred[u] and pre_count < old_count:
                for u2 in pattern_pred[u]:
                    pending[u2].append((old_index, pre_index))
                    if u2 not in queued:
                        queue.append(u2)
                        queued.add(u2)
            prev_pre[u] = (pre_index, pre_count)
    else:
        previous_pre = {u: all_terminals for u in pattern.node_ids}
        while queue:
            u = queue.popleft()
            queued.discard(u)
            if candidates[u] == previous[u]:
                continue
            previous[u] = candidates[u]
            pre_u = state.predecessors(candidates[u])
            # every set here is subsumption-free and in canonical order,
            # so its leaves are too
            removed = SuffixSet._canonical(tuple(
                _leaves(gg, previous_pre[u], _RemovalIndex(pre_u), False)))
            removed_index = _RemovalIndex(removed)
            for u2 in pattern_pred[u]:
                narrowed = SuffixSet._canonical(tuple(
                    _leaves(gg, candidates[u2], removed_index, False)))
                if narrowed != candidates[u2]:
                    candidates[u2] = narrowed
                    if u2 not in queued:
                        queue.append(u2)
                        queued.add(u2)
            previous_pre[u] = pre_u
            if on_step is not None:
                on_step(GrammarSharpeningStep(u, pre_u, removed, dict(candidates)))

    if all(state.represents_a_node(c) for c in candidates.values()):
        return SimulationResult(candidates)
    return SimulationResult({})


def expand_by_node(gg: GraphGrammar, result: SimulationResult,
                   path_map: PathMap | None = None) -> dict[int, frozenset[int]]:
    """Expand a simulation result to concrete node ids per pattern node.

    Without a path map, ids are the canonical decompression ids; with
    one (e.g. from compress), each node's full path is translated through
    it. Cost is linear in the matched nodes: the grammar's derivation
    tables and the path map's table for the grammar are built on first
    use and kept.

    Raises:
        KeyError: with the full path, if the path map has no entry for a
            matched node.
    """
    return {u: represented_node_union(gg, sset, path_map)
            for u, sset in result.candidates.items()}


def expand_to_nodes(gg: GraphGrammar, result: SimulationResult,
                    path_map: PathMap | None = None) -> frozenset[tuple[int, int]]:
    """Flatten expand_by_node into (pattern node, graph node) pairs."""
    return frozenset((u, v) for u, nodes in expand_by_node(gg, result, path_map).items()
                     for v in nodes)
