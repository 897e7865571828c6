"""Linear (non-recursive) context-free graph grammars.

A grammar holds one rule per nonterminal, a start rule, and a global set
of edge pairs. Each rule body is a small node sequence (ordinal, label);
an edge pair is two grammar path suffixes anchored at the same rule and
stands for one original edge per instantiation of that rule. The start
symbol appears in no body, so derivation is a finite DAG unfolding.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .graph import LabeledGraph, _lines, valid_label
from .suffix import GrammarPathSuffix, SuffixSet, _parse_suffix


class GrammarFormatError(ValueError):
    """Raised for malformed grammar documents."""


class GrammarValidationError(ValueError):
    """Raised when an operation needs a valid grammar but validation fails."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid grammar: " + "; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Rule:
    """One production: a named body of (ordinal, label) nodes."""

    name: str
    body: tuple[tuple[int, str], ...]

    def __post_init__(self):
        if not valid_label(self.name):
            raise ValueError(f"invalid rule name {self.name!r}")
        body = tuple(sorted(self.body))
        seen = set()
        for ordinal, label in body:
            if isinstance(ordinal, bool) or not isinstance(ordinal, int) or ordinal < 1:
                raise ValueError(f"rule {self.name}: ordinal must be a positive integer, got {ordinal!r}")
            if ordinal in seen:
                raise ValueError(f"rule {self.name}: duplicate ordinal {ordinal}")
            if not valid_label(label):
                raise ValueError(f"rule {self.name}: invalid label {label!r}")
            seen.add(ordinal)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_by_ordinal", dict(body))


class _ExpandedSets(dict):
    """expand_by_node's memo for one grammar object and one path map, or
    none: each SuffixSet it expanded -> the frozenset of ids it gave,
    oldest first. `held` counts their ids, plus one per set, so that sets
    of no ids are bounded too."""

    __slots__ = ("held",)

    def __init__(self):
        super().__init__()
        self.held = 0

    def add(self, sset: SuffixSet, ids: frozenset[int], limit: int) -> None:
        """Remember `ids` for `sset`, then drop the oldest sets until the
        rest hold at most `limit`."""
        self[sset] = ids
        self.held += len(ids) + 1
        if self.held > limit:
            oldest = []
            for old, old_ids in self.items():
                if self.held <= limit:
                    break
                self.held -= len(old_ids) + 1
                oldest.append(old)
            for old in oldest:
                del self[old]


class _Derivation(NamedTuple):
    """The grammar's derivation structure, built in one go from its rules."""

    # for each label, the (rule, ordinal) body positions carrying it, in
    # canonical order
    occurrences: dict[str, list[tuple[str, int]]]
    # leaves each rule derives
    leaf_counts: dict[str, int]
    # leaves strictly before each body position, within its rule
    offsets: dict[tuple[str, int], int]
    # for each rule, the leaves before each of its instances in the whole
    # graph; the start rule's single instance has base 0, and a rule the
    # start rule does not reach has no instances
    bases: dict[str, list[int]]
    # for each terminal, the canonical ids of the nodes it labels, listed
    # on first use by represented_node_union
    bare_ids: dict[str, list[int]]
    # expand_by_node's memo of the sets it expanded without a path map
    expanded: _ExpandedSets


class GraphGrammar:
    """Immutable grammar value; semantic checks live in validate()."""

    __slots__ = ("terminals", "start", "_rules", "edge_pairs", "_violations",
                 "_derived", "_hash", "_sim_state", "__weakref__")

    def __init__(self, terminals: Iterable[str], rules: Iterable[Rule], start: str,
                 edge_pairs: Iterable[tuple[GrammarPathSuffix, GrammarPathSuffix]] = ()):
        terms = frozenset(terminals)
        for t in terms:
            if not valid_label(t):
                raise ValueError(f"invalid terminal {t!r}")
        if not valid_label(start):
            raise ValueError(f"invalid start symbol {start!r}")
        rule_map: dict[str, Rule] = {}
        for rule in rules:
            if rule.name in rule_map:
                raise ValueError(f"more than one rule named {rule.name}")
            rule_map[rule.name] = rule
        pairs = list(edge_pairs)
        for pair in pairs:
            if (not isinstance(pair, tuple) or len(pair) != 2
                    or not isinstance(pair[0], GrammarPathSuffix)
                    or not isinstance(pair[1], GrammarPathSuffix)):
                raise ValueError(f"edge pair {pair!r} is not two GrammarPathSuffix values")
        pairs = sorted(set(pairs), key=lambda p: (str(p[0]), str(p[1])))
        object.__setattr__(self, "terminals", terms)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "_rules", rule_map)
        object.__setattr__(self, "edge_pairs", tuple(pairs))
        object.__setattr__(self, "_violations", None)
        object.__setattr__(self, "_derived", None)
        object.__setattr__(self, "_hash", None)
        # filled by the simulator on its first run; dies with the grammar
        object.__setattr__(self, "_sim_state", None)

    def __setattr__(self, name, value):
        raise AttributeError("GraphGrammar is immutable")

    @property
    def rules(self) -> Mapping[str, Rule]:
        return self._rules

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphGrammar):
            return NotImplemented
        return (self.terminals == other.terminals and self.start == other.start
                and self._rules == other._rules and set(self.edge_pairs) == set(other.edge_pairs))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.terminals, self.start, frozenset(self._rules.items()),
                      frozenset(self.edge_pairs)))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return (f"GraphGrammar({len(self._rules)} rules, {len(self.edge_pairs)} edge pairs, "
                f"start {self.start!r})")

    # ---- validation ----

    def validate(self) -> list[str]:
        """Return all semantic violations, empty when the grammar is usable."""
        cached = self._violations
        if cached is not None:
            return list(cached)
        v: list[str] = []
        for name in sorted(self.terminals & set(self._rules)):
            v.append(f"symbol {name} is both a terminal and a nonterminal")
        if self.start not in self._rules:
            v.append(f"start symbol {self.start} has no rule")
        for rule in self._rules.values():
            for ordinal, label in rule.body:
                if label == self.start:
                    v.append(f"start symbol {self.start} appears in body of rule {rule.name}")
                elif label not in self.terminals and label not in self._rules:
                    v.append(f"rule {rule.name}: unknown label {label} at ordinal {ordinal}")
        _, cycle = _walk_calls(self._rules)
        if cycle:
            v.append("recursive grammar: " + " -> ".join(cycle))
        # a side shared by many edge pairs is checked once per call, and
        # reported once per occurrence; compress and parse_grammar give
        # equal sides as one object, so the memo keys by identity, without
        # hashing a suffix (the grammar keeps every side alive meanwhile)
        checked: dict[int, str | None] = {}
        for left, right in self.edge_pairs:
            for s in (left, right):
                key = id(s)
                if key in checked:
                    err = checked[key]
                else:
                    err = checked[key] = self.suffix_violation(s)
                if err:
                    v.append(err)
            if not left.steps or not right.steps:
                v.append(f"EDGES pair ({left}, {right}): suffix without an anchor step")
            elif left.steps[0][0] != right.steps[0][0]:
                v.append(f"EDGES pair ({left}, {right}): anchor rules differ "
                         f"({left.steps[0][0]} vs {right.steps[0][0]})")
        object.__setattr__(self, "_violations", tuple(v))
        return v

    def suffix_violation(self, s: GrammarPathSuffix) -> str | None:
        """Explain why `s` does not fit this grammar, or None if it does."""
        # Innermost-out, each step is checked against the rule of the step
        # after it; a later (outer) reason replaces an earlier one, so the
        # message names the first misfit from the anchor on.
        err = None
        if s.terminal not in self.terminals:
            err = f"suffix {s}: {s.terminal} is not a terminal"
        rules = self._rules
        expected = s.terminal
        for name, ordinal in reversed(s.steps):
            rule = rules.get(name)
            if rule is None:
                err = f"suffix {s}: no rule named {name}"
            else:
                label = rule._by_ordinal.get(ordinal)
                if label is None:
                    err = f"suffix {s}: no ordinal {ordinal} in rule {name}"
                elif label != expected:
                    err = f"suffix {s}: ordinal {ordinal} of rule {name} is labeled {label}, not {expected}"
            expected = name
        return err

    def _canonical_shift(self, s: GrammarPathSuffix,
                         offsets: dict[tuple[str, int], int]) -> int | None:
        """1 + the offsets of the steps of `s`, or None if `s` does not fit
        this grammar, which must be valid. A full path's canonical id is
        its shift; any other suffix's ids are its shift over the bases of
        its anchor rule's instances. `offsets` is the derivation's table,
        read once by the caller rather than once per suffix."""
        if s.terminal not in self.terminals:
            return None
        return _fit_shift(self._rules, offsets, s)

    # ---- derived structure (valid grammars only) ----

    def ensure_valid(self) -> None:
        violations = self.validate()
        if violations:
            raise GrammarValidationError(violations)

    def _derivation(self) -> _Derivation:
        derived = self._derived
        if derived is None:
            rules = self._rules
            order, _ = _walk_calls(rules)
            occurrences, leaf_counts, offsets = _position_tables(rules, order)
            bases: dict[str, list[int]] = {name: [] for name in rules}
            bases[self.start] = [0]
            for name in reversed(order):  # callers first
                own = bases[name]
                if not own:
                    continue  # unreachable from the start symbol
                for ordinal, label in rules[name].body:
                    if label in rules:
                        shift = offsets[(name, ordinal)]
                        bases[label].extend(base + shift for base in own)
            derived = _Derivation(occurrences, leaf_counts, offsets, bases, {},
                                  _ExpandedSets())
            object.__setattr__(self, "_derived", derived)
        return derived

    def node_count(self) -> int:
        """Number of nodes of the denoted graph (needs a valid grammar)."""
        if self.start not in self._rules:
            return 0
        return self._derivation().leaf_counts[self.start]

    def iter_full_paths(self) -> Iterator[tuple[tuple[tuple[str, int], ...], str]]:
        """Yield (steps, terminal) of every full path in depth-first order."""
        return _full_paths(self._rules, self.start)


# ---- path semantics ----


def _walk_calls(rules: Mapping[str, Rule]) -> tuple[list[str], list[str] | None]:
    """One depth-first walk over rule calls, from each rule in turn: the
    rules callee-first, and the first cycle met (its rules from the first
    repeated one on, that one again at the end) or None."""
    order: list[str] = []
    cycle = None
    state: dict[str, bool] = {}  # True while on the trail, then False
    for root in rules:
        if root in state:
            continue
        state[root] = True
        trail = [root]
        stack = [iter(rules[root].body)]
        while stack:
            for _, label in stack[-1]:
                if label not in rules:
                    continue
                if label not in state:
                    state[label] = True
                    trail.append(label)
                    stack.append(iter(rules[label].body))
                    break
                if state[label] and cycle is None:
                    cycle = trail[trail.index(label):] + [label]
            else:
                name = trail.pop()
                state[name] = False
                order.append(name)
                stack.pop()
    return order, cycle


def _position_tables(rules: Mapping[str, Rule], order: list[str]
                     ) -> tuple[dict[str, list[tuple[str, int]]], dict[str, int],
                                dict[tuple[str, int], int]]:
    """The derivation's tables of body positions, from non-recursive rules
    and `order`, their callee-first order: each label's positions in
    canonical order, each rule's leaf count, and each position's offset
    (the leaves before it within its rule). A label that names no rule is
    a leaf."""
    occurrences: dict[str, list[tuple[str, int]]] = {}
    leaf_counts: dict[str, int] = {}
    offsets: dict[tuple[str, int], int] = {}
    for name in order:  # callees first, so their leaf counts are known
        before = 0
        for ordinal, label in rules[name].body:
            # one tuple serves both tables, so the build makes no more
            # objects for the collector than the offsets alone
            position = (name, ordinal)
            occurrences.setdefault(label, []).append(position)
            offsets[position] = before
            before += leaf_counts[label] if label in rules else 1
        leaf_counts[name] = before
    for positions in occurrences.values():
        positions.sort()
    return occurrences, leaf_counts, offsets


def _fit_shift(rules: Mapping[str, Rule], offsets: dict[tuple[str, int], int],
               s: GrammarPathSuffix) -> int | None:
    # GraphGrammar._canonical_shift on the grammar's rules and offsets,
    # which a canonical path map holds without the grammar:
    # suffix_violation's walk, stopping at the first misfit, with no
    # message to word; whether s ends in a terminal is the caller's check
    expected = s.terminal
    shift = 1
    for step in reversed(s.steps):
        rule = rules.get(step[0])
        if rule is None or rule._by_ordinal.get(step[1]) != expected:
            return None
        expected = step[0]
        shift += offsets[step]
    return shift


def _full_paths(rules: Mapping[str, Rule], start: str
                ) -> Iterator[tuple[tuple[tuple[str, int], ...], str]]:
    # GraphGrammar.iter_full_paths on the grammar's rules and start symbol
    if start not in rules:
        return
    stack: list[list] = [[start, rules[start].body, 0, False]]
    prefix: list[tuple[str, int]] = []
    while stack:
        frame = stack[-1]
        name, body, idx, own_step = frame
        if idx == len(body):
            stack.pop()
            if own_step:
                prefix.pop()
            continue
        frame[2] += 1
        ordinal, label = body[idx]
        rule = rules.get(label)
        if rule is not None:
            prefix.append((name, ordinal))
            stack.append([label, rule.body, 0, True])
        else:
            yield tuple(prefix) + ((name, ordinal),), label


def _check_fit(gg: GraphGrammar, suffixes: Iterable[GrammarPathSuffix]) -> None:
    """Raise GrammarValidationError if `gg` is invalid, else ValueError with
    the first suffix of `suffixes` that does not fit it."""
    gg.ensure_valid()
    for s in suffixes:
        err = gg.suffix_violation(s)
        if err:
            raise ValueError(err)


class PathMap:
    """Bijection between the full paths of one grammar and node ids.

    A map holds that grammar's rules and start symbol, which name its
    paths, and its ids in the canonical (depth-first) order of those
    paths: `_table[c]` is the id of the full path with canonical id c. A
    path is found by the fit-and-offset walk that gives its canonical id,
    so no path is built until the map is iterated. The rules are not
    recursive, and the start symbol has a rule and is in no body.

    `PathMap(entries)` reads (path, id) entries: every full path of one
    grammar, each given once, each id a distinct positive int (not a
    bool). The rules are read from the paths, callee first: each step
    names a rule and an ordinal, labeled with the next step's rule or,
    for the last step, with the path's terminal. Rule names, ordinals and
    labels are checked by Rule. The entries are checked one at a time,
    and the map as a whole once the last is read.

    Raises:
        ValueError: on a path that is not a GrammarPathSuffix, has a step
            that is not a (str, int) pair or a terminal that is not a str,
            or has no steps, an id that is not a positive int, a repeated
            path or id, paths anchored at different rules, a rule ordinal
            with two labels, a symbol that is both a terminal and a rule,
            an invalid rule, no entries, recursive rules, or a full path
            of the rules that no entry gives (the first such path is
            named).
    """

    __slots__ = ("_rules", "_start", "_offsets", "_table", "_dense")

    def __init__(self, entries: Iterable[tuple[GrammarPathSuffix, int]]):
        by_path: dict[GrammarPathSuffix, int] = {}
        ids: set[int] = set()
        bodies: dict[str, dict[int, str]] = {}
        terminals: set[str] = set()
        start = None
        for path, nid in entries:
            if not isinstance(path, GrammarPathSuffix):
                raise ValueError(f"path must be a GrammarPathSuffix, got {path!r}")
            steps, terminal = path.steps, path.terminal
            if not isinstance(terminal, str):
                raise ValueError(f"terminal must be a str, got {terminal!r}")
            for step in steps:
                if not (isinstance(step, tuple) and len(step) == 2
                        and isinstance(step[0], str) and isinstance(step[1], int)):
                    raise ValueError(f"step must be a (str, int) pair, got {step!r}")
            if not steps:
                raise ValueError(f"path {path} has no steps")
            if isinstance(nid, bool) or not isinstance(nid, int) or nid < 1:
                raise ValueError(f"node id must be a positive int, got {nid!r}")
            if path in by_path:
                raise ValueError(f"duplicate path {path}")
            if nid in ids:
                raise ValueError(f"duplicate node id {nid}")
            if start is None:
                start = steps[0][0]
            elif steps[0][0] != start:
                raise ValueError(f"path {path} is anchored at {steps[0][0]}, not {start}")
            labels = [name for name, _ in steps[1:]] + [terminal]
            for (name, ordinal), label in zip(steps, labels):
                had = bodies.setdefault(name, {}).setdefault(ordinal, label)
                if had != label:
                    raise ValueError(f"path {path}: ordinal {ordinal} of rule {name} "
                                     f"is labeled both {had} and {label}")
                if name in terminals:
                    raise ValueError(f"path {path}: {name} is both a terminal and a rule")
            if terminal in bodies:
                raise ValueError(f"path {path}: {terminal} is both a terminal and a rule")
            terminals.add(terminal)
            by_path[path] = nid
            ids.add(nid)
        if start is None:
            raise ValueError("no entries")
        rules = {name: Rule(name, tuple(body.items())) for name, body in bodies.items()}
        order, cycle = _walk_calls(rules)
        if cycle:
            raise ValueError("recursive rules: " + " -> ".join(cycle))
        rules = {name: rules[name] for name in order}
        _, leaf_counts, offsets = _position_tables(rules, order)
        count = leaf_counts[start]
        # the rules were read from the paths, so each path fits them, and
        # distinct full paths have distinct canonical ids
        table: list[int | None] = [None] * (count + 1)
        for path, nid in by_path.items():
            table[_fit_shift(rules, offsets, path)] = nid
        if len(by_path) < count:
            steps, terminal = next(islice(_full_paths(rules, start),
                                          table.index(None, 1) - 1, None))
            raise ValueError(f"{len(by_path)} paths for the {count} full paths the rules "
                             f"derive; missing {GrammarPathSuffix(steps, terminal)}")
        self._rules, self._start, self._offsets, self._table = rules, start, offsets, table
        self._dense: tuple[weakref.ref, list[int | None], _ExpandedSets] | None = None

    @classmethod
    def _from_table(cls, rules: Mapping[str, Rule], start: str,
                    offsets: dict[tuple[str, int], int], table: list[int | None]) -> PathMap:
        # a map of the given parts, unchecked
        pm = cls.__new__(cls)
        pm._rules, pm._start, pm._offsets, pm._table = rules, start, offsets, table
        pm._dense = None
        return pm

    @classmethod
    def _canonical(cls, gg: GraphGrammar, ids: Sequence[int]) -> PathMap:
        """The map that gives gg's full paths, taken in canonical order,
        the ids `ids` (canonical id i gets ids[i - 1]). It holds the table
        [None, *ids], which is also its table for gg, and gg's rules,
        start symbol and derivation offsets, but not gg itself. The
        entries are not checked: gg must be valid, and `ids` distinct
        positive ints, one per node of gg."""
        pm = cls._from_table(gg._rules, gg.start, gg._derivation().offsets, [None, *ids])
        pm._dense = (weakref.ref(gg), pm._table, _ExpandedSets())
        return pm

    def _same_paths(self, rules: Mapping[str, Rule], start: str) -> bool:
        # equal rules and start symbols derive the same full paths in the
        # same canonical order
        return start == self._start and rules == self._rules

    def _shift(self, path: GrammarPathSuffix) -> int | None:
        # the canonical id of `path`, or None if it is no full path: a full
        # path is anchored at the start rule and ends in a label that names
        # no rule, and the start symbol is in no body, so every path that
        # fits from there is one
        if not isinstance(path, GrammarPathSuffix):
            return None
        steps = path.steps
        try:
            if not steps or steps[0][0] != self._start or path.terminal in self._rules:
                return None
            return _fit_shift(self._rules, self._offsets, path)
        except (IndexError, KeyError, TypeError):
            return None  # a step that is no (rule, ordinal) pair

    def _pairs(self) -> Iterable[tuple[GrammarPathSuffix, int]]:
        """The (path, id) entries in canonical order."""
        paths = (GrammarPathSuffix(steps, terminal)
                 for steps, terminal in _full_paths(self._rules, self._start))
        return zip(paths, islice(self._table, 1, None))

    def node_for(self, path: GrammarPathSuffix) -> int:
        shift = self._shift(path)
        if shift is None:
            raise KeyError(path)
        return self._table[shift]

    def _ids_by_canonical(self, gg: GraphGrammar) -> list[int | None]:
        # Dense canonical id -> this map's id table over gg's full paths,
        # None where the map lacks the path; gg must be valid. Kept for the
        # grammar last asked about, checked by identity, through a weak
        # reference so the map never keeps a grammar alive, together with
        # expand_by_node's memo of the sets it expanded through the map on
        # that grammar; both start afresh for another grammar.
        dense = self._dense
        if dense is not None and dense[0]() is gg:
            return dense[1]
        table = self._table_for(gg)
        self._dense = (weakref.ref(gg), table, _ExpandedSets())
        return table

    def _expanded_sets(self, gg: GraphGrammar) -> _ExpandedSets:
        # expand_by_node's memo for gg, kept beside the table above
        self._ids_by_canonical(gg)
        return self._dense[2]

    def _table_for(self, gg: GraphGrammar) -> list[int | None]:
        # A grammar of the map's own rules, such as the reloaded grammar
        # beside a parsed map, reads the map's table as it is. For any
        # other, the map's paths fill the table: a path that is a full path
        # of gg, anchored at its start rule and fitting it, lands at its
        # canonical id; any other path names no node of gg. One walk per
        # path checks the fit and sums the offsets: a separate fit check
        # and offset sum per path made a cold first answer about 9% slower
        # on a grammar whose paths are 11 steps deep.
        if self._same_paths(gg._rules, gg.start):
            return self._table
        start = gg.start
        shift = gg._canonical_shift
        offsets = gg._derivation().offsets
        table: list[int | None] = [None] * (gg.node_count() + 1)
        for path, nid in self._pairs():
            if path.steps[0][0] == start:
                cid = shift(path, offsets)
                if cid is not None:
                    table[cid] = nid
        return table

    def __len__(self) -> int:
        return len(self._table) - 1

    def __iter__(self) -> Iterator[tuple[GrammarPathSuffix, int]]:
        """The (path, id) entries in ascending id order."""
        return iter(sorted(self._pairs(), key=itemgetter(1)))

    def __contains__(self, path: GrammarPathSuffix) -> bool:
        return self._shift(path) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathMap):
            return NotImplemented
        if self._same_paths(other._rules, other._start):
            return self._table == other._table
        # ids are distinct, so equal maps list equal entries in id order
        return len(self) == len(other) and list(self) == list(other)

    def __repr__(self) -> str:
        return f"PathMap({len(self)} paths)"


def represented_node_union(gg: GraphGrammar, suffixes: Iterable[GrammarPathSuffix],
                           path_map: PathMap | None = None) -> frozenset[int]:
    """All nodes represented by some suffix of `suffixes`: canonical ids,
    or with a path map the ids it gives their full paths.

    A full path's canonical id, 1 + the offsets of its steps, is additive
    along the steps, so a suffix's ids are its canonical shift over the
    bases of its anchor rule's instances, and no full path is built. A
    bare terminal's ids are listed once per grammar and kept.

    Raises:
        GrammarValidationError: if the grammar is invalid.
        ValueError: if a suffix does not fit the grammar.
        KeyError: with the smallest full path the path map has no entry
            for.
    """
    gg.ensure_valid()
    derived = gg._derivation()
    bases = derived.bases
    offsets = derived.offsets
    bare_ids = derived.bare_ids
    canonical: list[int] = []
    for s in suffixes:
        shift = gg._canonical_shift(s, offsets)
        if shift is None:
            raise ValueError(gg.suffix_violation(s))
        if s.steps:
            canonical += [base + shift for base in bases[s.steps[0][0]]]
            continue
        ids = bare_ids.get(s.terminal)
        if ids is None:
            # one id per instance of each body position carrying it
            ids = bare_ids[s.terminal] = []
            for position in derived.occurrences.get(s.terminal, ()):
                first = shift + offsets[position]
                ids += [base + first for base in bases[position[0]]]
        canonical += ids
    if path_map is None:
        return frozenset(canonical)
    table = path_map._ids_by_canonical(gg)
    out = frozenset(map(table.__getitem__, canonical))
    if None in out:
        missing = min(c for c in canonical if table[c] is None)
        steps, terminal = next(islice(gg.iter_full_paths(), missing - 1, None))
        raise KeyError(GrammarPathSuffix(steps, terminal))
    return out


def decompress(gg: GraphGrammar) -> tuple[LabeledGraph, PathMap]:
    """Unfold a grammar into the graph it denotes.

    Node ids are assigned in depth-first path order (start rule ordinal 1
    first, recursively), so the result is canonical. Each edge pair
    contributes one edge per instance of its anchor rule. The returned
    PathMap is the identity on canonical ids: it holds the ids 1..n and
    builds no full path until it is iterated or formatted.

    Raises:
        GrammarValidationError: if validate() reports violations.
    """
    gg.ensure_valid()
    # each rule's leaf labels in depth-first order, built callees first
    # from one walk over rule calls, so the start rule's list is the
    # nodes' labels in canonical id order and no path is built
    rules = gg._rules
    order, _ = _walk_calls(rules)
    leaves: dict[str, list[str]] = {}
    for name in order:
        out = leaves[name] = []
        for _, label in rules[name].body:
            if label in rules:
                out += leaves[label]
            else:
                out.append(label)
    labels = leaves[gg.start]
    # the canonical id of ctx + steps is 1 + the anchor instance's base +
    # the offsets of steps, so no instance's step prefix is built
    derived = gg._derivation()
    bases = derived.bases
    offsets = derived.offsets
    edges = set()
    for left, right in gg.edge_pairs:
        src = 1 + sum(offsets[step] for step in left.steps)
        dst = 1 + sum(offsets[step] for step in right.steps)
        edges.update((base + src, base + dst) for base in bases[left.steps[0][0]])
    graph = LabeledGraph(enumerate(labels, start=1), edges)
    return graph, PathMap._canonical(gg, range(1, len(labels) + 1))


# ---- text format ----


def _start_line(lineno: int, tokens: list[str], start: str | None) -> str:
    """The symbol of a START line; `start` is the one read before, if any."""
    if start is not None:
        raise GrammarFormatError(f"line {lineno}: duplicate START line")
    if len(tokens) != 2 or not valid_label(tokens[1]):
        raise GrammarFormatError(f"line {lineno}: START expects one symbol")
    return tokens[1]


def _rule_line(lineno: int, tokens: list[str], rule_lines: dict[str, int]) -> Rule:
    """The rule of a RULE line, noted in `rule_lines` (rule name -> line),
    which must not hold it yet. The line gives each body item's shape;
    Rule checks the name, ordinals and labels."""
    if len(tokens) < 3 or tokens[2] != "=>":
        raise GrammarFormatError(f"line {lineno}: expected 'RULE name => items'")
    name = tokens[1]
    if name in rule_lines:
        raise GrammarFormatError(
            f"line {lineno}: rule {name} already defined on line {rule_lines[name]}")
    body = []
    for item in tokens[3:]:
        ordinal, colon, label = item.partition(":")
        if not colon or not ordinal.isdigit():
            raise GrammarFormatError(f"line {lineno}: malformed body item {item!r}")
        body.append((ordinal, label))
    try:
        # int() in here, as it fails beyond its digit limit
        rule = Rule(name, tuple((int(ordinal), label) for ordinal, label in body))
    except ValueError as exc:
        raise GrammarFormatError(f"line {lineno}: {exc}") from exc
    rule_lines[name] = lineno
    return rule


def _rule_text(rule: Rule) -> str:
    items = " ".join(f"{ordinal}:{label}" for ordinal, label in rule.body)
    return f"RULE {rule.name} => {items}" if items else f"RULE {rule.name} =>"


def parse_grammar(text: str) -> GraphGrammar:
    """Parse the grammar text format.

    Lines: `TERMINALS a b c`, `START S`, `RULE N => 1:L 2:L`, and
    `EDGE <suffix> <suffix>`; `#` comments and blank lines are skipped.
    TERMINALS and START must each appear exactly once, before any RULE or
    EDGE line. Semantic problems are left to validate().

    Raises:
        GrammarFormatError: on malformed lines, with the line number.
    """
    terminals: list[str] | None = None
    start: str | None = None
    rules: list[Rule] = []
    rule_lines: dict[str, int] = {}
    pairs: list[tuple[GrammarPathSuffix, GrammarPathSuffix]] = []
    step_memo: dict[str, tuple[str, int]] = {}
    terminal_memo: dict[str, str] = {}
    # whole EDGE tokens already parsed in this document: a side repeated on
    # many lines is one dict hit and one shared suffix. A token that fails
    # never enters, so it fails with the same message on every line.
    suffix_memo: dict[str, GrammarPathSuffix] = {}

    def suffix(token: str) -> GrammarPathSuffix:
        s = suffix_memo.get(token)
        if s is None:
            s = suffix_memo[token] = _parse_suffix(token, step_memo, terminal_memo)
        return s

    for lineno, tokens in _lines(text, GrammarFormatError):
        kind = tokens[0]
        if kind == "TERMINALS":
            if terminals is not None:
                raise GrammarFormatError(f"line {lineno}: duplicate TERMINALS line")
            for t in tokens[1:]:
                if not valid_label(t):
                    raise GrammarFormatError(f"line {lineno}: invalid terminal {t!r}")
            terminals = tokens[1:]
        elif kind == "START":
            start = _start_line(lineno, tokens, start)
        elif kind == "RULE":
            if terminals is None or start is None:
                raise GrammarFormatError(f"line {lineno}: RULE before TERMINALS/START header")
            rules.append(_rule_line(lineno, tokens, rule_lines))
        elif kind == "EDGE":
            if terminals is None or start is None:
                raise GrammarFormatError(f"line {lineno}: EDGE before TERMINALS/START header")
            if len(tokens) != 3:
                raise GrammarFormatError(f"line {lineno}: EDGE expects two suffixes")
            try:
                pairs.append((suffix(tokens[1]), suffix(tokens[2])))
            except ValueError as exc:
                raise GrammarFormatError(f"line {lineno}: {exc}") from exc
        else:
            raise GrammarFormatError(f"line {lineno}: unknown directive {kind!r}")
    if terminals is None:
        raise GrammarFormatError("missing TERMINALS line")
    if start is None:
        raise GrammarFormatError("missing START line")
    try:
        return GraphGrammar(terminals, rules, start, pairs)
    except ValueError as exc:
        raise GrammarFormatError(str(exc)) from exc


def format_grammar(gg: GraphGrammar) -> str:
    """Serialize a grammar deterministically (inverse of parse_grammar)."""
    lines = ["TERMINALS " + " ".join(sorted(gg.terminals)), f"START {gg.start}"]
    lines += map(_rule_text, gg.rules.values())
    for left, right in gg.edge_pairs:
        lines.append(f"EDGE {left} {right}")
    return "\n".join(lines) + "\n"


# first line of a path map in table form; a `<path> <id>` line has two tokens
_TABLE_MARKER = "CANONICAL"


def format_path_map(pm: PathMap) -> str:
    """Serialize a path map; parse_path_map reads the text back.

    The map is written in table form: a `CANONICAL` line, the `START`
    line and the `RULE` lines of the grammar whose full paths it maps, as
    format_grammar writes them, and then one id per line, in the
    canonical (depth-first) order of those full paths. No path is built."""
    lines = [_TABLE_MARKER, f"START {pm._start}"]
    lines += map(_rule_text, pm._rules.values())
    lines += map(str, islice(pm._table, 1, None))
    return "\n".join(lines) + "\n"


def parse_path_map(text: str) -> PathMap:
    """Parse a path map in table form, as format_path_map writes it, or
    in the older `<path> <id>` form.

    `#` comments and blank lines are skipped. A document whose first line
    is `CANONICAL` is in table form: the START and RULE lines, read as
    parse_grammar reads them, then one positive id per line, as many as
    the rules derive nodes from the start symbol, in the canonical order
    of their full paths. The map holds the rules, the start symbol and the
    ids, and builds no path. Any other document is `<path> <id>` lines,
    each path in suffix syntax and each id a positive integer, which
    PathMap(entries) reads: they must list every full path of one grammar.

    Raises:
        GrammarFormatError: with the line number, on a malformed line or
            path, or an entry PathMap rejects; an error that only the
            whole list shows, such as a missing path, names the last line.
            In table form also on a missing or repeated START line, a
            malformed or repeated RULE line, a start symbol with no rule or
            in a body, recursive rules, an id below 1 or seen before, or an
            id count other than the number of nodes the rules derive.
    """
    lines = _lines(text, GrammarFormatError)
    first = next(lines, None)
    if first is not None and first[1] == [_TABLE_MARKER]:
        return _parse_table_map(first[0], lines)
    step_memo: dict[str, tuple[str, int]] = {}
    terminal_memo: dict[str, str] = {}
    lineno = 0

    def entries() -> Iterator[tuple[GrammarPathSuffix, int]]:
        nonlocal lineno
        for lineno, tokens in _lines(text, GrammarFormatError):
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise GrammarFormatError(f"line {lineno}: expected '<path> <id>'")
            try:
                path = _parse_suffix(tokens[0], step_memo, terminal_memo)
            except ValueError as exc:
                raise GrammarFormatError(f"line {lineno}: {exc}") from exc
            yield path, int(tokens[1])

    try:
        return PathMap(entries())
    except GrammarFormatError:
        raise
    except ValueError as exc:
        # PathMap checks each entry before it asks for the next, so the
        # line read last holds the entry it rejected
        raise GrammarFormatError(f"line {lineno}: {exc}" if lineno else str(exc)) from exc


def _parse_table_map(lineno: int, lines: Iterator[tuple[int, list[str]]]) -> PathMap:
    # parse_path_map's table form; `lines` stands after the marker line,
    # which is line `lineno`
    start: str | None = None
    start_lineno = 0
    rules: dict[str, Rule] = {}
    rule_lines: dict[str, int] = {}
    first_id = None
    for lineno, tokens in lines:
        if tokens[0] == "START":
            start = _start_line(lineno, tokens, start)
            start_lineno = lineno
        elif tokens[0] == "RULE":
            rule = _rule_line(lineno, tokens, rule_lines)
            rules[rule.name] = rule
        else:
            first_id = lineno, tokens
            break
    if start is None:
        raise GrammarFormatError(f"line {lineno}: missing START line")
    if start not in rules:
        raise GrammarFormatError(f"line {start_lineno}: start symbol {start} has no rule")
    for rule in rules.values():
        if any(label == start for _, label in rule.body):
            raise GrammarFormatError(f"line {rule_lines[rule.name]}: start symbol {start} "
                                     f"appears in body of rule {rule.name}")
    order, cycle = _walk_calls(rules)
    if cycle:
        raise GrammarFormatError(f"line {rule_lines[cycle[0]]}: recursive rules: "
                                 + " -> ".join(cycle))
    _, leaf_counts, offsets = _position_tables(rules, order)
    count = leaf_counts[start]
    if first_id is None:
        ids = _table_ids((), count, lineno)
    else:
        ids = _table_ids(chain([first_id], lines), count, lineno)
    return PathMap._from_table(rules, start, offsets, [None, *ids])


def _table_ids(lines: Iterable[tuple[int, list[str]]], count: int, lineno: int) -> list[int]:
    # the id lines of a table-form map, one line at a time, so that the
    # first bad line is the one reported; `lineno` is the line before them
    ids: list[int] = []
    seen: set[int] = set()
    for lineno, tokens in lines:
        if len(tokens) != 1 or not tokens[0].isdigit():
            raise GrammarFormatError(f"line {lineno}: expected one node id")
        try:
            nid = int(tokens[0])
        except ValueError as exc:
            raise GrammarFormatError(f"line {lineno}: {exc}") from exc
        if nid < 1:
            raise GrammarFormatError(f"line {lineno}: node id must be positive, got {nid}")
        if nid in seen:
            raise GrammarFormatError(f"line {lineno}: duplicate node id {nid}")
        if len(ids) == count:
            raise GrammarFormatError(f"line {lineno}: more node ids than the {count} nodes "
                                     "the rules derive")
        ids.append(nid)
        seen.add(nid)
    if len(ids) != count:
        raise GrammarFormatError(f"line {lineno}: {len(ids)} node ids for the {count} nodes "
                                 "the rules derive")
    return ids
