"""Semigroup presentations read off from diagrams.

Letters are the arcs.  Each crossing with over arc y and under arcs x, z
contributes the defining relations xy = yz and yx = zy; when the two under
arcs coincide both collapse to the single relation xy = yx, and a crossing
whose three arcs are all the same contributes nothing.  All relations are
length-preserving (both sides have two letters), so the quotient semigroup
is graded by word length.
"""

from __future__ import annotations

from .diagrams import Diagram, _arc_names
from .errors import ParameterError

Word = tuple[int, ...]
Relation = tuple[Word, Word]


def _normalize_relation(lhs: Word, rhs: Word) -> Relation:
    return (lhs, rhs) if lhs <= rhs else (rhs, lhs)


class Presentation:
    __slots__ = ("alphabet_size", "relations", "letter_names")

    def __init__(
        self,
        alphabet_size: int,
        relations: tuple[Relation, ...],
        letter_names: tuple[str, ...] | None = None,
    ):
        if alphabet_size < 1:
            raise ParameterError(f"alphabet must be nonempty, got size {alphabet_size}")
        seen = []
        for lhs, rhs in relations:
            lhs, rhs = tuple(lhs), tuple(rhs)
            if not lhs or not rhs:
                raise ParameterError("relation words must be nonempty")
            if len(lhs) != len(rhs):
                raise ParameterError(
                    f"relation {lhs} = {rhs} is not length-preserving; the "
                    "quotient would not be graded"
                )
            for word in (lhs, rhs):
                for letter in word:
                    if not 0 <= letter < alphabet_size:
                        raise ParameterError(
                            f"letter {letter} out of range for alphabet of size {alphabet_size}"
                        )
            seen.append(_normalize_relation(lhs, rhs))
        if letter_names is not None and len(letter_names) != alphabet_size:
            raise ParameterError("letter_names length does not match alphabet_size")
        self.alphabet_size = alphabet_size
        self.relations = tuple(sorted(set(seen)))
        self.letter_names = letter_names

    def name_of(self, letter: int) -> str:
        if self.letter_names is not None:
            return self.letter_names[letter]
        return f"x{letter}"

    def format_word(self, word: Word) -> str:
        return " ".join(self.name_of(x) for x in word)

    def relabel(self, perm: tuple[int, ...]) -> "Presentation":
        """Apply a letter permutation: letter i becomes perm[i]."""
        if sorted(perm) != list(range(self.alphabet_size)):
            raise ParameterError(f"{perm} is not a permutation of the alphabet")
        relations = tuple(
            _normalize_relation(
                tuple(perm[x] for x in lhs),
                tuple(perm[x] for x in rhs),
            )
            for lhs, rhs in self.relations
        )
        names = None
        if self.letter_names is not None:
            names = list(self.letter_names)
            for i, name in zip(perm, self.letter_names):
                names[i] = name
            names = tuple(names)
        return Presentation(self.alphabet_size, relations, letter_names=names)

    def to_dict(self) -> dict:
        out = {
            "alphabet": self.alphabet_size,
            "relations": [[list(lhs), list(rhs)] for lhs, rhs in self.relations],
        }
        if self.letter_names is not None:
            out["names"] = list(self.letter_names)
        return out


def presentation_from_diagram(d: Diagram) -> Presentation:
    relations = []
    for c in d.crossings:
        x, z = c.under
        y = c.over
        if x == y == z:
            continue
        if x == z:
            relations.append(((x, y), (y, x)))
        else:
            relations.append(((x, y), (y, z)))
            relations.append(((y, x), (z, y)))
    return Presentation(d.arc_count, tuple(relations), letter_names=tuple(_arc_names(d)))

