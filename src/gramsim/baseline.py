"""Pattern simulation on an uncompressed graph.

Reference engine: sharpen per-pattern-node candidate sets by comparing
the predecessors of a node's current candidates against the predecessors
it had last time, and subtracting the difference from every pattern
predecessor. Runs to a fixpoint over a FIFO worklist.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

from .graph import LabeledGraph, PatternGraph, _pattern_predecessors


@dataclass(frozen=True)
class GraphSharpeningStep:
    """Snapshot after one worklist iteration of simulate_on_graph."""

    node: int
    predecessors: frozenset[int]
    removed: frozenset[int]
    candidates: Mapping[int, frozenset[int]]


def simulate_on_graph(graph: LabeledGraph, pattern: PatternGraph, *,
                      on_step: Callable[[GraphSharpeningStep], None] | None = None,
                      ) -> dict[int, frozenset[int]]:
    """Greatest label-respecting simulation of `pattern` in `graph`.

    Returns a map from pattern node to its simulating graph nodes, or an
    empty map when some pattern node ends up with none. In the result,
    every candidate v of u has, for each pattern edge (u, u2), an edge to
    some candidate of u2.

    Raises:
        ValueError: empty graph or empty pattern.
    """
    if len(graph) == 0:
        raise ValueError("graph has no nodes")
    if len(pattern) == 0:
        raise ValueError("pattern has no nodes")

    all_nodes = frozenset(graph.node_ids)
    index = graph.predecessor_index()

    def pre_of(targets: frozenset[int]) -> frozenset[int]:
        out: set[int] = set()
        for v in targets:
            out |= index[v]
        return frozenset(out)

    by_label: dict[str, set[int]] = {}
    for nid, label in graph.nodes:
        by_label.setdefault(label, set()).add(nid)

    candidates = {u: frozenset(by_label.get(pattern.label(u), ()))
                  for u in pattern.node_ids}
    # previous[u] = None marks "never sharpened": the first visit must run
    # even when the label set already covers all nodes, because that first
    # pass is what prunes nodes lacking the required successors
    previous: dict[int, frozenset[int] | None] = {u: None for u in pattern.node_ids}
    previous_pre = {u: all_nodes for u in pattern.node_ids}
    pattern_pred = _pattern_predecessors(pattern)

    queue = deque(pattern.node_ids)
    queued = set(pattern.node_ids)
    while queue:
        u = queue.popleft()
        queued.discard(u)
        if candidates[u] == previous[u]:
            continue
        previous[u] = candidates[u]
        pre_u = pre_of(candidates[u])
        removed = previous_pre[u] - pre_u
        for u2 in pattern_pred[u]:
            narrowed = candidates[u2] - removed
            if narrowed != candidates[u2]:
                candidates[u2] = narrowed
                if u2 not in queued:
                    queue.append(u2)
                    queued.add(u2)
        previous_pre[u] = pre_u
        if on_step is not None:
            on_step(GraphSharpeningStep(u, pre_u, frozenset(removed), dict(candidates)))

    if all(candidates.values()):
        return candidates
    return {}
