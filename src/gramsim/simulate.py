"""Pattern simulation evaluated directly on a compressed grammar.

Mirrors the uncompressed engine, but candidate sets hold grammar path
suffixes instead of node ids: a suffix stands for every decompressed node
whose full derivation path ends with it. Both modes share one core:
predecessor lookup walks a trie over the edge pairs' right sides, and set
subtraction walks a trie over the removal suffixes, splitting a suffix
into longer ones until the parts to drop become syntactic. Optimized mode
adds deferred removals and re-coalescing. The grammar object holds the
trie and the lookups, so they die with it; an equal grammar builds its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .graph import PatternGraph
from .grammar import GraphGrammar, PathMap, represented_node_union
from .suffix import GrammarPathSuffix, SuffixSet, bare, remove_subsumed


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


_EXACT = object()  # trie key under which a removal suffix ends


class _RemovalIndex:
    """Removal suffixes as per-terminal tries over reversed steps.

    Walking a candidate's steps from the end decides it: passing a node
    where a removal ends means the removal is a suffix of the candidate
    (drop); falling off the trie means no removal touches it (keep);
    running out of steps inside the trie means every removal below
    strictly extends it (split). A one-step extension of a split
    candidate continues the walk one child down."""

    __slots__ = ("_roots",)

    def __init__(self, removes: Iterable[GrammarPathSuffix]):
        roots: dict[str, dict] = {}
        for rem in removes:
            node = roots.setdefault(rem.terminal, {})
            for step in reversed(rem.steps):
                node = node.setdefault(step, {})
            node[_EXACT] = rem
        self._roots = roots

    def locate(self, ext: GrammarPathSuffix) -> dict | None:
        """None to keep `ext`, a node holding _EXACT to drop it, else the
        node to split it at."""
        node = self._roots.get(ext.terminal)
        steps = ext.steps
        position = len(steps)
        while node is not None and position and _EXACT not in node:
            position -= 1
            node = node.get(steps[position])
        return node


def _ends_below(node: dict) -> Iterator[GrammarPathSuffix]:
    """The shallowest removals in the subtree of a split node."""
    stack = list(node.values())
    while stack:
        child = stack.pop()
        if _EXACT in child:
            yield child[_EXACT]
        else:
            stack.extend(child.values())


def _leaves(gg: GraphGrammar, items: Iterable[GrammarPathSuffix],
            index: _RemovalIndex, inside: bool) -> Iterator[GrammarPathSuffix]:
    """The parts of `items` outside the index's suffixes, or inside them
    when `inside` is set. A part some removal strictly extends is split
    into its one-step extensions, each of which either leaves the
    removals' shadow or is covered a round later; its inside parts are
    exactly the removals below it."""
    stack = [(s, index.locate(s)) for s in items]
    stack.reverse()
    while stack:
        ext, node = stack.pop()
        if node is None:
            if not inside:
                yield ext
        elif _EXACT in node:
            if inside:
                yield ext
        elif inside:
            yield from _ends_below(node)
        else:
            stack.extend(reversed([(child, node.get(child.steps[0]))
                                   for child in gg.extensions(ext)]))


def _coalesce(gg: GraphGrammar, items: Iterable[GrammarPathSuffix]) -> list[GrammarPathSuffix]:
    # Undo splitting where it no longer distinguishes anything: when every
    # one-step extension of a parent suffix is present, the family is the
    # parent's exact partition and collapses back to it. Keeps sets at the
    # shallowest granularity that still describes the same node set.
    by_depth: dict[int, set[GrammarPathSuffix]] = {}
    for s in items:
        by_depth.setdefault(len(s.steps), set()).add(s)
    if not by_depth:
        return []
    occurrences = gg.label_occurrences()
    out: list[GrammarPathSuffix] = []
    for depth in range(max(by_depth), 0, -1):
        pool = by_depth.get(depth)
        if not pool:
            continue
        groups: dict[GrammarPathSuffix, list[GrammarPathSuffix]] = {}
        for s in pool:
            parent = GrammarPathSuffix(s.steps[1:], s.terminal)
            groups.setdefault(parent, []).append(s)
        for parent, members in groups.items():
            if len(members) == len(occurrences.get(parent.first_label, ())):
                by_depth.setdefault(depth - 1, set()).add(parent)
            else:
                out.extend(members)
    out.extend(by_depth.get(0, ()))
    return out


def _apply_removal_pair(gg: GraphGrammar, cand: SuffixSet,
                        old_index: _RemovalIndex, new_index: _RemovalIndex) -> SuffixSet:
    # cand minus (old_pre \ new_pre), rewritten as (cand \ old_pre) union
    # (cand intersect new_pre) so the removal set itself is never built.
    kept = list(_leaves(gg, cand, old_index, False))
    kept.extend(_leaves(gg, cand, new_index, True))
    return SuffixSet(_coalesce(gg, remove_subsumed(kept)))


class _PredNode:
    __slots__ = ("children", "exact", "subtree")

    def __init__(self):
        self.children: dict = {}
        self.exact: list[GrammarPathSuffix] = []
        self.subtree: list[GrammarPathSuffix] = []


class _PredecessorIndex:
    """Edge pairs as per-terminal tries over each right side's reversed
    steps, so one walk along a suffix collects both contribution kinds:
    rights that end on the walked path are suffixes of the query and
    contribute their left re-anchored under the unconsumed prefix, and
    rights in the subtree where the walk ends extend the query and
    contribute their left unchanged."""

    __slots__ = ("_roots",)

    def __init__(self, pairs: Iterable[tuple[GrammarPathSuffix, GrammarPathSuffix]]):
        roots: dict[str, _PredNode] = {}
        for left, right in pairs:
            node = roots.setdefault(right.terminal, _PredNode())
            node.subtree.append(left)
            for step in reversed(right.steps):
                node = node.children.setdefault(step, _PredNode())
                node.subtree.append(left)
            node.exact.append(left)
        self._roots = roots

    def lookup(self, s: GrammarPathSuffix) -> tuple[GrammarPathSuffix, ...]:
        node = self._roots.get(s.terminal)
        if node is None:
            return ()
        steps = s.steps
        n = len(steps)
        out: list[GrammarPathSuffix] = []
        if node.exact:  # bare rights are suffixes of every same-terminal s
            if n:
                out.extend(left.prepend(steps) for left in node.exact)
            else:
                out.extend(node.exact)
        completed = True
        for depth in range(1, n + 1):
            node = node.children.get(steps[n - depth])
            if node is None:
                completed = False
                break
            prefix = steps[:n - depth]
            if prefix:
                out.extend(left.prepend(prefix) for left in node.exact)
            else:
                out.extend(node.exact)
        if completed:
            out.extend(node.subtree)
        return tuple(out)


class _GrammarState:
    """Simulation caches for one grammar object: the right-side trie, its
    lookups per suffix and, for optimized runs, the removal index and node
    count of the coalesced predecessor set per candidate set."""

    __slots__ = ("index", "contrib", "pre_sets", "_nodes")

    def __init__(self, gg: GraphGrammar):
        self.index = _PredecessorIndex(gg.edge_pairs)
        self.contrib: dict[GrammarPathSuffix, tuple[GrammarPathSuffix, ...]] = {}
        self.pre_sets: dict[SuffixSet, tuple[_RemovalIndex, int]] = {}
        # nodes a suffix stands for: one per instance of its anchor rule,
        # or for a bare terminal one per instance of each body occurrence
        nodes = {name: len(bases) for name, bases in gg._base_table().items()}
        occurrences = gg.label_occurrences()
        for t in gg.terminals:
            nodes[t] = sum(nodes[name] for name, _ in occurrences.get(t, ()))
        self._nodes = nodes

    def node_count(self, sset: Iterable[GrammarPathSuffix]) -> int:
        """Nodes represented by `sset`, whose elements must cover
        pairwise disjoint node sets."""
        nodes = self._nodes
        return sum(nodes[s.steps[0][0] if s.steps else s.terminal] for s in sset)

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


def _check_fit(gg: GraphGrammar, suffixes: Iterable[GrammarPathSuffix]) -> None:
    gg.ensure_valid()
    for s in suffixes:
        err = gg.suffix_violation(s)
        if err:
            raise ValueError(err)


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
    return SuffixSet(_leaves(gg, items, _RemovalIndex(removes), False))


def simulate_on_grammar(gg: GraphGrammar, pattern: PatternGraph, *,
                        optimized: bool = False,
                        on_step: Callable[[GrammarSharpeningStep], None] | None = None,
                        ) -> SimulationResult:
    """Greatest simulation of `pattern` in the graph `gg` denotes.

    Same sharpening loop and FIFO policy as simulate_on_graph, with all
    node sets replaced by suffix sets. Both modes take predecessors from
    the same trie index, which is built on the first run on a grammar
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
            removed = SuffixSet(_leaves(gg, previous_pre[u], _RemovalIndex(pre_u), False))
            removed_index = _RemovalIndex(removed)
            for u2 in pattern_pred[u]:
                narrowed = SuffixSet(_leaves(gg, candidates[u2], removed_index, False))
                if narrowed != candidates[u2]:
                    candidates[u2] = narrowed
                    if u2 not in queued:
                        queue.append(u2)
                        queued.add(u2)
            previous_pre[u] = pre_u
            if on_step is not None:
                on_step(GrammarSharpeningStep(u, pre_u, removed, dict(candidates)))

    if all(candidates.values()):
        return SimulationResult(candidates)
    return SimulationResult({})


def expand_by_node(gg: GraphGrammar, result: SimulationResult,
                   path_map: PathMap | None = None) -> dict[int, frozenset[int]]:
    """Expand a simulation result to concrete node ids per pattern node.

    Without a path map, ids are the canonical decompression ids; with
    one (e.g. from compress), each node's full path is translated through
    it. Cost is linear in the matched nodes: the grammar's per-rule
    instance offsets and the path map's table for the grammar are built
    on the first expansion and kept.

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
