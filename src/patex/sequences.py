"""Sequences over an unbounded alphabet, equal up to letter renaming.

Letters are arbitrary tokens at the I/O boundary and dense non-negative
integer ids internally.  Two sequences are isomorphic when some bijective
relabeling maps one onto the other; ``normalize`` picks the canonical
representative whose letters are 0, 1, 2, ... in order of first occurrence.
Adjacent equal letters are allowed everywhere and never collapsed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from patex.errors import PreconditionError


@dataclass(frozen=True)
class Sequence:
    """Immutable list of letter ids."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        letters = tuple(int(x) for x in self.letters)
        if any(x < 0 for x in letters):
            raise PreconditionError("letter ids must be non-negative")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    @property
    def distinct(self) -> int:
        return len(set(self.letters))


def as_sequence(u: Sequence | Iterable[int] | str) -> Sequence:
    """Coerce letters, a string, or a Sequence into a Sequence."""
    if isinstance(u, Sequence):
        return u
    if isinstance(u, str):
        return parse_sequence(u)
    return Sequence(tuple(u))


def normalize(u: Sequence | Iterable[int] | str) -> Sequence:
    """Canonical representative: letters relabeled by first occurrence.

    Idempotent, and two sequences are isomorphic iff they normalize to the
    same value.
    """
    seq = as_sequence(u)
    ids: dict[int, int] = {}
    out = []
    for letter in seq.letters:
        if letter not in ids:
            ids[letter] = len(ids)
        out.append(ids[letter])
    return Sequence(tuple(out))


def is_isomorphic(u, v) -> bool:
    """True iff u and v are equal after bijective letter relabeling."""
    return normalize(u).letters == normalize(v).letters


def alternation(n: int) -> Sequence:
    """The two-letter alternation 0 1 0 1 ... of length n."""
    if n < 0:
        raise PreconditionError("alternation length must be >= 0")
    return Sequence(tuple(i % 2 for i in range(n)))


def parse_sequence(text: str) -> Sequence:
    """Parse the canonical sequence format: one line of whitespace-separated
    tokens, mapped to dense ids in first-occurrence order.

    A single run with no whitespace is read one letter per character, so
    "abab" and "a b a b" parse to the same sequence.
    """
    tokens = text.split()
    if len(tokens) == 1 and len(tokens[0]) > 1:
        tokens = list(tokens[0])
    ids: dict[str, int] = {}
    out = []
    for tok in tokens:
        if tok not in ids:
            ids[tok] = len(ids)
        out.append(ids[tok])
    return Sequence(tuple(out))


def format_sequence(u) -> str:
    """Serialize to the canonical one-line token format."""
    return " ".join(str(x) for x in as_sequence(u).letters)
