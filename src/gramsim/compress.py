"""Digram replacement: compress a labeled graph into a graph grammar.

The compressor repeatedly finds the most frequent digram (an edge shape:
the label paths hanging under its two endpoints), replaces every
non-overlapping occurrence with a fresh two-node rule, and records the
replaced edge shape as an edge pair of that rule. A merge leaves every
other edge between its two nodes as a self-loop on the new node; a loop
shape that every instance of the new rule has becomes an edge pair of
that rule at once, and any other loop stays a work edge, which a later
rule whose instances all have it folds the same way. Whatever survives
becomes the start rule.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Iterable

from .graph import LabeledGraph
from .grammar import GraphGrammar, PathMap, Rule
from .suffix import GrammarPathSuffix, bare


class WorkGraph:
    """Mutable intermediate state of a compression run.

    Nodes are (ordinal, label); each work edge remembers, per endpoint,
    the path from the current node down to the original terminal node it
    attaches to (the bare label for an unmerged node). Replacing a digram
    merges node pairs and grows those paths. `leaves[n]` lists the
    original nodes under work node n in derivation order: a merged node's
    list is its first part's followed by its second's.

    Paths are hash-consed into int ids (`paths[i]` is path i): each bare
    terminal gets one id, and each step has one intern table,
    `interned[step]`, that maps the id of a path to the id of that path
    with `step` in front. A path is its first step plus the rest, so the
    tables name each distinct path once and each is built once; `edges`
    and the `by_digram` keys hold ints. The tables belong to the run and
    are freed with it.
    """

    def __init__(self, graph: LabeledGraph):
        if len(graph) == 0:
            raise ValueError("cannot compress an empty graph")
        self.labels: dict[int, str] = dict(graph.nodes)
        self.terminals: frozenset[str] = graph.label_set()
        self.paths: list[GrammarPathSuffix] = [bare(label) for label in sorted(self.terminals)]
        self.interned: defaultdict[tuple[str, int], dict[int, int]] = defaultdict(dict)
        bares = {path.terminal: pid for pid, path in enumerate(self.paths)}
        self.leaves: dict[int, list[int]] = {nid: [nid] for nid in self.labels}
        self.edges: dict[int, tuple[int, int, int, int]] = {}
        self.touching: dict[int, set[int]] = {nid: set() for nid in self.labels}
        # digram key -> the ids of its non-loop edges
        self.by_digram: dict[tuple[int, int], set[int]] = {}
        self.rules: list[Rule] = []
        self.rule_pairs: list[tuple[GrammarPathSuffix, GrammarPathSuffix]] = []
        self.max_ordinal = max(self.labels)
        for eid, (src, dst) in enumerate(sorted(graph.edges)):
            record = (src, bares[self.labels[src]], dst, bares[self.labels[dst]])
            self.edges[eid] = record
            self.touching[src].add(eid)
            self.touching[dst].add(eid)
            if src != dst:
                self.by_digram.setdefault((record[1], record[3]), set()).add(eid)

    def _extend(self, step: tuple[str, int], pid: int) -> int:
        """The id of path `pid` with `step` in front, built on first request."""
        table = self.interned[step]
        out = table.get(pid)
        if out is None:
            out = table[pid] = len(self.paths)
            self.paths.append(self.paths[pid].prepend((step,)))
        return out

    def _occurrences(self, key: tuple[int, int]) -> list[int]:
        """Greedy maximal node-disjoint occurrence set, ascending (src, dst)."""
        bucket = self.by_digram.get(key)
        if not bucket:
            return []
        edges = self.edges
        used: set[int] = set()
        out: list[int] = []
        # a bucket's edges share their paths, so their records sort by
        # (src, dst), which is unique within a bucket: a path under a node
        # names one original node, and original edges are distinct pairs
        for eid in sorted(bucket, key=edges.__getitem__):
            src, _, dst, _ = edges[eid]
            if src in used or dst in used:
                continue
            used.add(src)
            used.add(dst)
            out.append(eid)
        return out

    def replace(self, key: tuple[int, int], fresh_name: str) -> set[tuple[int, int]]:
        """Replace all counted occurrences of `key` by fresh_name nodes.

        Each loop shape on the new nodes that all of them have becomes an
        edge pair of the new rule, and its loops leave the work graph.
        Returns every digram key whose edge bucket changed. Requires a
        non-overlapping count of at least 2.
        """
        source, target = self.paths[key[0]], self.paths[key[1]]
        occurrences = self._occurrences(key)
        if len(occurrences) < 2:
            raise ValueError(f"digram ({source}, {target}) has non-overlapping count "
                             f"{len(occurrences)}, need at least 2")
        self.rules.append(Rule(fresh_name, ((1, source.first_label),
                                            (2, target.first_label))))
        first = (fresh_name, 1)
        second = (fresh_name, 2)
        extend = self._extend
        self.rule_pairs.append((self.paths[extend(first, key[0])],
                                self.paths[extend(second, key[1])]))
        affected: set[tuple[int, int]] = {key}
        edges, touching, by_digram = self.edges, self.touching, self.by_digram
        sides = ((first, self.interned[first]), (second, self.interned[second]))
        bucket = by_digram[key]
        bucket.difference_update(occurrences)
        if not bucket:
            del by_digram[key]
        # loop shape on a new node -> (node, edge id) of each such loop
        loops: defaultdict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        for eid in occurrences:
            v1, _, v2, _ = edges.pop(eid)
            n = self.max_ordinal + 1
            self.max_ordinal = n
            self.labels[n] = fresh_name
            moved = touching[n] = set()
            self.leaves[n] = self.leaves.pop(v1) + self.leaves.pop(v2)
            # Only the end at `old` moves: the other end's touching set
            # keeps the edge id. The occurrence itself is gone, and both
            # touching sets that hold it are popped whole. Any other edge
            # between v1 and v2 is visited from each side and ends as a
            # self-loop on n; a self-loop on `old` moves both ends in one
            # visit.
            for old, (step, table) in zip((v1, v2), sides):
                for other in touching.pop(old):
                    if other == eid:
                        continue
                    src, sp, dst, dp = edges[other]
                    if src != dst:
                        key_was = (sp, dp)
                        bucket = by_digram[key_was]
                        bucket.discard(other)
                        if not bucket:
                            del by_digram[key_was]
                        affected.add(key_was)
                    if src == old:
                        src, pid = n, table.get(sp)
                        sp = extend(step, sp) if pid is None else pid
                    if dst == old:
                        dst, pid = n, table.get(dp)
                        dp = extend(step, dp) if pid is None else pid
                    edges[other] = (src, sp, dst, dp)
                    moved.add(other)
                    if src != dst:
                        key_now = (sp, dp)
                        bucket = by_digram.get(key_now)
                        if bucket is None:
                            bucket = by_digram[key_now] = set()
                        bucket.add(other)
                        affected.add(key_now)
                    else:  # a loop on n, found on its last visit
                        loops[(sp, dp)].append((n, other))
                del self.labels[old]
        # Every instance of the rule is made here, and no later merge adds
        # an edge inside one, so a loop shape every new node has is an edge
        # pair of the rule. A loop shape only some have stays a loop, and
        # may fold into a later rule whose instances all have it. A node
        # has a shape at most once: a path under a node names one original
        # node, and original edges are distinct pairs.
        for (sp, dp), found in loops.items():
            if len(found) == len(occurrences):
                self.rule_pairs.append((self.paths[sp], self.paths[dp]))
                for n, other in found:
                    del edges[other]
                    touching[n].discard(other)
        return affected

    def to_grammar(self, terminals: Iterable[str], start_name: str
                   ) -> tuple[GraphGrammar, PathMap]:
        """Freeze the current state: survivors become the start rule, and
        each work edge left, self-loops included, one of its edge pairs."""
        paths, extend = self.paths, self._extend
        survivors = sorted(self.labels)
        dense = {nid: i for i, nid in enumerate(survivors, start=1)}
        body = tuple((dense[nid], self.labels[nid]) for nid in survivors)
        rules = self.rules + [Rule(start_name, body)]
        # every side is a path id interned in `paths`, so that equal sides
        # are one object
        pairs = self.rule_pairs + [(paths[extend((start_name, dense[src]), sp)],
                                    paths[extend((start_name, dense[dst]), dp)])
                                   for src, sp, dst, dp in self.edges.values()]
        grammar = GraphGrammar(terminals, rules, start_name, pairs)
        # the grammar's full paths, depth first, run in the survivors'
        # leaf order
        originals = [nid for survivor in survivors for nid in self.leaves[survivor]]
        return grammar, PathMap._canonical(grammar, originals)


def _allocate_names(terminals: frozenset[str]):
    start_name = "S"
    i = 0
    while start_name in terminals:
        start_name = f"S{i}"
        i += 1

    def fresh():
        n = 1
        while True:
            name = f"R{n}"
            if name not in terminals and name != start_name:
                yield name
            n += 1

    return start_name, fresh()


def compress(graph: LabeledGraph, *, min_count: int = 2) -> tuple[GraphGrammar, PathMap]:
    """Compress a graph into a grammar plus the path map back to its nodes.

    Repeatedly replaces the digram with the highest non-overlapping count
    (ties: lexicographically smallest key text) until every count is below
    min_count. The returned PathMap sends each full grammar path to the
    original node id it stands for. It holds those ids in the grammar's
    canonical path order and builds no path: lookups walk the asked path,
    and iterating or formatting the map builds its paths then.

    Raises:
        ValueError: empty graph, or min_count < 2.
    """
    if min_count < 2:
        raise ValueError("min_count below 2 would allow size-increasing replacements")
    wg = WorkGraph(graph)
    terminals = wg.terminals
    start_name, fresh_names = _allocate_names(terminals)

    # Max-heap of exact counts, ties broken by key text. counts holds the
    # count of every key that reaches min_count, and each such key has a
    # heap entry with that count: every key a replacement touches is
    # recounted at once, and an entry whose count is no longer its key's
    # is stale. A bucket with fewer than min_count edges cannot reach it,
    # so it is not sorted. A replaced key's bucket always empties, so its
    # own recount drops it.
    counts: dict[tuple[int, int], int] = {}
    heap: list[tuple[int, str, str, tuple[int, int]]] = []
    paths = wg.paths

    def recount(key: tuple[int, int]) -> None:
        enough = len(wg.by_digram.get(key, ())) >= min_count
        count = len(wg._occurrences(key)) if enough else 0
        if count < min_count:
            counts.pop(key, None)
        elif counts.get(key) != count:
            counts[key] = count
            heapq.heappush(heap, (-count, str(paths[key[0]]), str(paths[key[1]]), key))

    for key in wg.by_digram:
        recount(key)
    while heap:
        negc, _, _, key = heapq.heappop(heap)
        if counts.get(key) != -negc:
            continue
        for touched in wg.replace(key, next(fresh_names)):
            recount(touched)

    return wg.to_grammar(terminals, start_name)


def size_metrics(graph_or_grammar) -> int:
    """Size of a graph (nodes + edges) or grammar (body nodes + edge pairs)."""
    if isinstance(graph_or_grammar, LabeledGraph):
        return len(graph_or_grammar) + len(graph_or_grammar.edges)
    if isinstance(graph_or_grammar, GraphGrammar):
        gg = graph_or_grammar
        return sum(len(rule.body) for rule in gg.rules.values()) + len(gg.edge_pairs)
    raise TypeError(f"expected LabeledGraph or GraphGrammar, got {type(graph_or_grammar)!r}")


def compression_ratio(graph: LabeledGraph, grammar: GraphGrammar) -> float:
    """size(grammar) / size(graph); below 1.0 means the grammar is smaller."""
    return size_metrics(grammar) / size_metrics(graph)
