"""Shared fixtures and oracles.

The worked example (two c-d chains hanging off a b hub, one back edge)
appears in two forms: the plain graph in data/fig1.el and the grammar in
data/fig1.gg, authored so that decompressing the grammar reproduces the
graph with identical node ids.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from gramsim import (GrammarPathSuffix, GraphGenParams, LabeledGraph,
                     PatternGenParams, gen_graph, gen_pattern, load_graph,
                     parse_grammar)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def fig1_graph() -> LabeledGraph:
    return load_graph((DATA / "fig1.el").read_text())


@pytest.fixture(scope="session")
def fig1_grammar():
    return parse_grammar((DATA / "fig1.gg").read_text())


@pytest.fixture(scope="session")
def cd_pattern() -> LabeledGraph:
    return load_graph((DATA / "cd.el").read_text())


def greatest_simulation(graph: LabeledGraph, pattern: LabeledGraph) -> dict[int, frozenset[int]]:
    """Brute-force oracle: shrink the label-compatible relation until every
    pattern edge is mirrored, then demand totality. Quadratic and slow, but
    independent of both engines."""
    rel = {(u, v) for u in pattern.node_ids for v in graph.node_ids
           if pattern.label(u) == graph.label(v)}
    succ = {v: set() for v in graph.node_ids}
    for src, dst in graph.edges:
        succ[src].add(dst)
    changed = True
    while changed:
        changed = False
        for (u, v) in sorted(rel):
            for (src, dst) in pattern.edges:
                if src != u:
                    continue
                if not any((dst, w) in rel for w in succ[v]):
                    rel.discard((u, v))
                    changed = True
                    break
    out = {u: frozenset(v for (uu, v) in rel if uu == u) for u in pattern.node_ids}
    return out if all(out.values()) else {}


def is_suffix_of(shorter: GrammarPathSuffix, longer: GrammarPathSuffix) -> bool:
    """Step-granular suffix relation (reflexive): the same terminal, and
    the steps of `shorter` are the last steps of `longer`."""
    n = len(shorter.steps)
    return (shorter.terminal == longer.terminal and n <= len(longer.steps)
            and longer.steps[len(longer.steps) - n:] == shorter.steps)


def full_path_suffixes(gg) -> set[GrammarPathSuffix]:
    """Every suffix of every full path of `gg`, each once."""
    return {GrammarPathSuffix(steps[k:], terminal)
            for steps, terminal in gg.iter_full_paths() for k in range(len(steps) + 1)}


def anchored_paths(gg, s: GrammarPathSuffix) -> list[GrammarPathSuffix]:
    """The full paths of `gg` that end with `s`, in depth-first order."""
    paths = (GrammarPathSuffix(steps, terminal) for steps, terminal in gg.iter_full_paths())
    return [path for path in paths if is_suffix_of(s, path)]


def full_paths(gg) -> list[GrammarPathSuffix]:
    """The full paths of `gg` in depth-first (canonical) order."""
    return [GrammarPathSuffix(steps, terminal) for steps, terminal in gg.iter_full_paths()]


def dict_expansion(gg, suffixes, ref: dict) -> frozenset[int] | tuple:
    """Expansion through the plain dict `ref` (full path -> id): the ids
    of the full paths of `gg` that end with a suffix of `suffixes`, or, as
    the args of the KeyError expansion raises, the first of those paths in
    depth-first order that `ref` lacks."""
    paths = [path for s in suffixes for path in anchored_paths(gg, s)]
    missing = [path for path in full_paths(gg) if path in paths and path not in ref]
    return (missing[0],) if missing else frozenset(ref[path] for path in paths)


def random_soup(rng: random.Random, max_nodes: int = 12,
                labels: tuple[str, ...] = ("a", "b", "c")) -> LabeledGraph:
    """A uniform random labeled digraph, self-loops included; covers shapes
    the redundancy generator never produces."""
    n = rng.randint(1, max_nodes)
    nodes = [(i, rng.choice(labels)) for i in range(1, n + 1)]
    edge_count = rng.randint(0, min(2 * n, n * n))
    edges = set()
    for _ in range(edge_count):
        edges.add((rng.randint(1, n), rng.randint(1, n)))
    return LabeledGraph(nodes, edges)


def seeded_case(seed: int, max_base: int = 14) -> tuple[LabeledGraph, LabeledGraph]:
    """One (graph, pattern) pair drawn from the package's own generators,
    parameter ranges kept inside their validity envelope."""
    rng = random.Random(seed)
    base = rng.randint(6, max_base)
    graph = gen_graph(GraphGenParams(
        base_nodes=base, variations=rng.randint(2, 4),
        delete_fraction=rng.choice([0.0, 0.3, 0.5]),
        edges_per_node=rng.choice([0.8, 1.25, 1.6]),
        label_alphabet=rng.choice([1, 1, 2, 3]), seed=rng.randrange(10**6)))
    nodes = rng.randint(1, 4)
    edges = min(rng.randint(0, 6), nodes * nodes)
    pattern = gen_pattern(PatternGenParams(nodes=nodes, edges=edges,
                                           seed=rng.randrange(10**6)),
                          graph.label_set())
    return graph, pattern


# characters a one-character corruption writes: separators, digits (a
# leading zero among them), name characters, blanks, a comment mark and a
# non-ASCII digit
CORRUPTIONS = st.sampled_from(list(":/0123456789aSR_- \t#²"))


def corrupt_line(text: str, data, kind: str | None = None,
                 alphabet=CORRUPTIONS) -> tuple[int, str]:
    """Overwrite one character of one line (of those starting with `kind`)
    with a drawn one; returns the 1-based line number and the new text."""
    lines = text.split("\n")[:-1]
    candidates = [i for i, line in enumerate(lines)
                  if line and (kind is None or line.startswith(kind))]
    i = data.draw(st.sampled_from(candidates))
    j = data.draw(st.integers(0, len(lines[i]) - 1))
    lines[i] = lines[i][:j] + data.draw(alphabet) + lines[i][j + 1:]
    return i + 1, "\n".join(lines) + "\n"


def entry_lines(pm) -> str:
    """A path map as `<path> <id>` lines in ascending id order: the older
    text form, which parse_path_map still reads."""
    return "".join(f"{path} {nid}\n" for path, nid in pm)
