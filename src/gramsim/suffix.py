"""Grammar path suffixes and canonically ordered sets of them.

A grammar path suffix names a trailing segment of a derivation path: zero
or more `rule/ordinal` steps followed by one terminal label, written
`N1/i1:N2/i2:...:F`. A bare terminal is the empty-step case. Suffixes are
immutable and hashable; sets of them are kept in a canonical order so set
results are reproducible byte for byte.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator

from .graph import valid_label


class SuffixFormatError(ValueError):
    """Raised for text that does not parse as a grammar path suffix."""


class GrammarPathSuffix:
    """An immutable (steps, terminal) pair; steps are (rule, ordinal)."""

    __slots__ = ("steps", "terminal", "_hash", "_text")

    def __init__(self, steps: tuple[tuple[str, int], ...], terminal: str):
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "terminal", terminal)
        object.__setattr__(self, "_hash", hash((steps, terminal)))
        object.__setattr__(self, "_text", None)

    def __setattr__(self, name, value):
        raise AttributeError("GrammarPathSuffix is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrammarPathSuffix):
            return NotImplemented
        return self.terminal == other.terminal and self.steps == other.steps

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        """Number of steps (a bare terminal has length 0)."""
        return len(self.steps)

    @property
    def first_label(self) -> str:
        """Rule name of the first step, or the terminal for a bare suffix."""
        return self.steps[0][0] if self.steps else self.terminal

    @property
    def sort_key(self) -> tuple:
        # Terminal first, then steps innermost-out: `a` is a suffix of `b`
        # exactly when a's key is a prefix of b's, so a suffix sorts
        # immediately before all of its extensions, and those form one
        # contiguous run of the canonical order.
        return (self.terminal,) + self.steps[::-1]

    def prepend(self, steps: tuple[tuple[str, int], ...]) -> "GrammarPathSuffix":
        """The longer suffix obtained by adding `steps` in front."""
        if not steps:
            return self
        return GrammarPathSuffix(steps + self.steps, self.terminal)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            try:
                parts = [f"{name}/{ordinal}" for name, ordinal in self.steps]
                parts.append(self.terminal)
                text = ":".join(parts)
            except (TypeError, ValueError):
                # steps that are no pairs, or a terminal that is no str
                text = f"{self.steps!r}:{self.terminal!r}"
            object.__setattr__(self, "_text", text)
        return text

    def __repr__(self) -> str:
        return f"GrammarPathSuffix({str(self)!r})"


# the sort key without a lambda around the property
_sort_key = GrammarPathSuffix.sort_key.fget


def bare(terminal: str) -> GrammarPathSuffix:
    """The zero-step suffix for a terminal label."""
    return GrammarPathSuffix((), terminal)


def parse_suffix(text: str) -> GrammarPathSuffix:
    """Parse `N1/i1:...:Nn/in:F` (n >= 0) into a GrammarPathSuffix.

    Raises:
        SuffixFormatError: empty or non-ASCII input, malformed step,
            non-positive or non-numeric ordinal, or an invalid rule/terminal
            name.
    """
    return _parse_suffix(text, {}, {})


def _parse_suffix(text: str, step_memo: dict[str, tuple[str, int]],
                  terminal_memo: dict[str, str]) -> GrammarPathSuffix:
    # parse_suffix with the tokens already checked in this document: a
    # repeated step or terminal token is one dict hit, and every suffix of
    # the document shares its step tuples. Only tokens that passed every
    # check enter a memo. Steps and terminals keep separate memos, since a
    # valid step token is not a valid terminal. A suffix written the way it
    # prints keeps its text, so str() need not rebuild it.
    if not text:
        raise SuffixFormatError("empty grammar path suffix")
    if not text.isascii():
        # names are ASCII; str.isdigit would also pass other scripts' digits
        raise SuffixFormatError(f"non-ASCII characters in suffix {text!r}")
    *parts, terminal = text.split(":")
    steps = []
    canonical = True
    for part in parts:
        step = step_memo.get(part)
        if step is None:
            name, slash, ordinal = part.partition("/")
            if not slash:
                raise SuffixFormatError(f"step {part!r} has no '/' in suffix {text!r}")
            if not valid_label(name):
                raise SuffixFormatError(f"invalid rule name {name!r} in suffix {text!r}")
            try:
                number = int(ordinal) if ordinal.isdigit() else 0
            except ValueError:  # more digits than int() converts
                number = 0
            if number < 1:
                raise SuffixFormatError(f"invalid ordinal {ordinal!r} in suffix {text!r}")
            step = (name, number)
            if ordinal[0] == "0":
                # "S/01" prints as "S/1"; kept out of the memo, so that a
                # memo hit is always a step that prints as written
                canonical = False
            else:
                step_memo[part] = step
        steps.append(step)
    checked = terminal_memo.get(terminal)
    if checked is None:
        if "/" in terminal:
            raise SuffixFormatError(f"suffix {text!r} must end with a terminal label, not a step")
        if not valid_label(terminal):
            raise SuffixFormatError(f"invalid terminal {terminal!r} in suffix {text!r}")
        checked = terminal_memo[terminal] = terminal
    suffix = GrammarPathSuffix(tuple(steps), checked)
    if canonical:
        object.__setattr__(suffix, "_text", text)
    return suffix


def _well_typed(s: GrammarPathSuffix) -> bool:
    # steps a tuple of (str, int) pairs and a str terminal: the sort keys
    # of such suffixes always compare
    return isinstance(s.terminal, str) and isinstance(s.steps, tuple) and all(
        isinstance(step, tuple) and len(step) == 2 and isinstance(step[0], str)
        and isinstance(step[1], int) for step in s.steps)


class SuffixSet:
    """A duplicate-free collection of suffixes in canonical order.

    Ordering is by GrammarPathSuffix.sort_key, which tells distinct
    suffixes apart, so two SuffixSets hold the same suffixes exactly when
    their ordered items are equal.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Iterable[GrammarPathSuffix] = ()):
        """The distinct suffixes of `items` in canonical order.

        Raises:
            ValueError: naming the first suffix whose steps are not all
                (str, int) pairs or whose terminal is not a str, when such
                a suffix makes the sort keys incomparable.
        """
        items = tuple(items)
        try:
            ordered = sorted(items, key=_sort_key)
        except TypeError:
            for s in items:
                if not _well_typed(s):
                    raise ValueError(f"suffix {s}: steps must be (str, int) pairs and "
                                     f"the terminal a str") from None
            raise
        out: list[GrammarPathSuffix] = []
        for s in ordered:
            if not out or s != out[-1]:  # equal suffixes sort next to each other
                out.append(s)
        self._items: tuple[GrammarPathSuffix, ...] = tuple(out)
        self._hash: int | None = None

    @classmethod
    def _canonical(cls, items: tuple[GrammarPathSuffix, ...]) -> "SuffixSet":
        """Wrap `items`, which must be distinct and in canonical order."""
        sset = object.__new__(cls)
        sset._items = items
        sset._hash = None
        return sset

    def __iter__(self) -> Iterator[GrammarPathSuffix]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, GrammarPathSuffix):
            return False
        items = self._items
        i = bisect_left(items, item.sort_key, key=_sort_key)
        return i < len(items) and items[i] == item

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuffixSet):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self._items)
        return h

    def __repr__(self) -> str:
        return "SuffixSet({" + ", ".join(str(s) for s in self._items) + "})"

