"""Node-labeled directed graphs and the edge-list text format."""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class GraphFormatError(ValueError):
    """Raised for malformed edge-list documents."""


def valid_label(name: str) -> bool:
    """True if name is a usable node label: non-empty, over [A-Za-z0-9_]."""
    return bool(LABEL_RE.match(name))


class LabeledGraph:
    """Immutable directed graph with labeled nodes and unlabeled edges.

    Nodes are (id, label) pairs with caller-supplied positive integer ids,
    not bools, which the edge-list format cannot hold; ids need not be
    dense, and ascending id order is the node order. Edges are a set of
    (src, dst) id pairs. Self-loops are allowed, parallel edges collapse.
    Instances never change after construction and are safe to share
    across threads.
    """

    __slots__ = ("_labels", "_edges", "_pred")

    def __init__(self, nodes: Iterable[tuple[int, str]], edges: Iterable[tuple[int, int]] = ()):
        labels: dict[int, str] = {}
        for nid, label in nodes:
            if isinstance(nid, bool) or not isinstance(nid, int) or nid < 1:
                raise ValueError(f"node id must be a positive integer, got {nid!r}")
            if nid in labels:
                raise ValueError(f"duplicate node id {nid}")
            if not isinstance(label, str) or not valid_label(label):
                raise ValueError(f"invalid label {label!r} for node {nid}")
            labels[nid] = label
        edge_set = set()
        for edge in edges:
            src, dst = edge
            # True and 1.0 find node 1 in labels, but would be stored as
            # they are
            if src not in labels or isinstance(src, bool) or not isinstance(src, int):
                raise ValueError(f"edge ({src}, {dst}) references undeclared node {src!r}")
            if dst not in labels or isinstance(dst, bool) or not isinstance(dst, int):
                raise ValueError(f"edge ({src}, {dst}) references undeclared node {dst!r}")
            # a given pair is stored as it is, so that a graph built from
            # another's edges or from decompress makes no tuple per edge
            edge_set.add(edge if type(edge) is tuple else (src, dst))
        ids = list(labels)
        # ids given in ascending order, as decompress and most edge lists
        # give them, keep their dict without a sorted copy
        self._labels = labels if ids == sorted(ids) else dict(sorted(labels.items()))
        self._edges = frozenset(edge_set)
        self._pred: dict[int, frozenset[int]] | None = None

    @property
    def nodes(self) -> tuple[tuple[int, str], ...]:
        return tuple(self._labels.items())

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(self._labels)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    @property
    def labels(self) -> Mapping[int, str]:
        return self._labels

    def label(self, nid: int) -> str:
        return self._labels[nid]

    def __contains__(self, nid: int) -> bool:
        return nid in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def label_set(self) -> frozenset[str]:
        return frozenset(self._labels.values())

    def predecessor_index(self) -> dict[int, frozenset[int]]:
        """Map each node id to the set of its direct predecessors."""
        if self._pred is None:
            pred: dict[int, set[int]] = {nid: set() for nid in self._labels}
            for src, dst in self._edges:
                pred[dst].add(src)
            self._pred = {nid: frozenset(s) for nid, s in pred.items()}
        return self._pred

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._labels == other._labels and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((tuple(self._labels.items()), self._edges))

    def __repr__(self) -> str:
        return f"LabeledGraph({len(self._labels)} nodes, {len(self._edges)} edges)"


# A pattern is just a small labeled graph; it may be disconnected.
PatternGraph = LabeledGraph


def _pattern_predecessors(pattern: PatternGraph) -> dict[int, list[int]]:
    """Each pattern node's predecessors, in sorted edge order. Both
    simulation engines read them from here, so that they visit pattern
    nodes in the same FIFO order."""
    pred: dict[int, list[int]] = {u: [] for u in pattern.node_ids}
    for src, dst in sorted(pattern.edges):
        pred[dst].append(src)
    return pred


def predecessors(graph: LabeledGraph, targets: Iterable[int]) -> frozenset[int]:
    """All nodes with an edge into any node of `targets`.

    Raises:
        ValueError: if some id in `targets` is not a node of `graph`.
    """
    index = graph.predecessor_index()
    result: set[int] = set()
    for nid in targets:
        if nid not in graph:
            raise ValueError(f"node {nid} not in graph")
        result |= index[nid]
    return frozenset(result)


def _lines(text: str, error: type[ValueError]) -> Iterator[tuple[int, list[str]]]:
    """Yield the 1-based number and the tokens of each line of a text
    document that is neither blank nor a `#` comment; raise `error`, with
    the line number, on a line with non-ASCII characters."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.isascii():
            # ids and symbols are ASCII; str.isdigit would also pass other
            # scripts' digits, which int() misreads or rejects
            raise error(f"line {lineno}: non-ASCII characters")
        yield lineno, line.split()


def load_graph(text: str) -> LabeledGraph:
    """Parse an edge-list document.

    The format is line-based: `#` starts a comment, blank lines are
    skipped, `<id> <label>` declares a node and `<src> <dst>` declares an
    edge. A line whose two tokens are both integers is always an edge, so
    node labels must not consist of digits only. All node lines must
    precede all edge lines.

    Raises:
        GraphFormatError: on any malformed or inconsistent line, with the
            1-based line number in the message.
    """
    labels: dict[int, str] = {}
    edges: set[tuple[int, int]] = set()
    seen_edge = False
    for lineno, tokens in _lines(text, GraphFormatError):
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected two tokens, got {len(tokens)}")
        first, second = tokens
        if not first.isdigit():
            raise GraphFormatError(f"line {lineno}: expected an integer node id, got {first!r}")
        try:
            nid = int(first)
            dst = int(second) if second.isdigit() else None
        except ValueError as exc:  # more digits than int() converts
            raise GraphFormatError(f"line {lineno}: {exc}") from exc
        if nid < 1:
            raise GraphFormatError(f"line {lineno}: node id must be positive, got {nid}")
        if dst is not None:
            # edge line
            if nid not in labels:
                raise GraphFormatError(f"line {lineno}: edge references undeclared node {nid}")
            if dst not in labels:
                raise GraphFormatError(f"line {lineno}: edge references undeclared node {dst}")
            edges.add((nid, dst))
            seen_edge = True
        else:
            if seen_edge:
                raise GraphFormatError(f"line {lineno}: node line after edge lines")
            if not valid_label(second):
                raise GraphFormatError(f"line {lineno}: invalid label {second!r}")
            if nid in labels:
                raise GraphFormatError(f"line {lineno}: duplicate node id {nid}")
            labels[nid] = second
    return LabeledGraph(labels.items(), edges)


def save_graph(graph: LabeledGraph) -> str:
    """Serialize a graph to the edge-list format, deterministically.

    Nodes are written in ascending id order, then edges sorted by
    (src, dst). Inverse of load_graph up to comments and whitespace.

    Raises:
        GraphFormatError: if some label consists of digits only (such a
            node line would parse back as an edge).
    """
    lines = []
    for nid, label in graph.nodes:
        if label.isdigit():
            raise GraphFormatError(f"label {label!r} of node {nid} is all digits and cannot be written unambiguously")
        lines.append(f"{nid} {label}")
    for src, dst in sorted(graph.edges):
        lines.append(f"{src} {dst}")
    return "\n".join(lines) + "\n" if lines else ""


def graphs_isomorphic_under_map(g1: LabeledGraph, g2: LabeledGraph, mapping: Mapping[int, int]) -> bool:
    """Check that `mapping` is a label- and edge-preserving bijection g1 -> g2.

    Returns False on any mismatch. A mapping that is not total on g1's
    nodes is a precondition violation and raises ValueError instead.
    """
    if set(mapping) != set(g1.node_ids):
        raise ValueError("mapping is not total on the first graph's nodes")
    if len(g1) != len(g2):
        return False
    image = set(mapping.values())
    if len(image) != len(mapping) or image != set(g2.node_ids):
        return False
    for nid, label in g1.nodes:
        if g2.label(mapping[nid]) != label:
            return False
    mapped = {(mapping[s], mapping[d]) for s, d in g1.edges}
    return mapped == g2.edges
