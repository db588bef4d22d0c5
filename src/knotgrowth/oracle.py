"""Bounded congruence closure and isomorphism verification.

The closure decides which words over the presentation alphabet up to a
horizon H = max_len + pad are equal, but it stores classes, not words.
Relations preserve length, so the words of length d+1 are the words of
length d followed by one letter, and a class at degree d+1 is a union of
sets C·a for classes C at degree d.  The closure therefore builds one
level per degree: level 1 holds the letters, and level d+1 holds a node
R(C, a) for every class C at level d and letter a.  Nodes are merged in a
union-find structure.  Three kinds of merges happen:

* relations: the two sides of each defining relation are merged;
* extension: when two classes C, C' merge, R(C, a) and R(C', a) merge for
  every letter a, and so do L_b(C) and L_b(C'), where the left row
  L_b(C) is the class of b·C; so the partition is closed under two-sided
  multiplication within the horizon;
* cancellation: two nodes R(C, a), R(C', a) in one class merge C with C',
  and two classes whose L_b meet merge; these are found by signature
  tables over the nodes of a level, not over its words.

The levels are added one at a time, each followed by merging to a fixed
point.  Any merge derived under a smaller horizon is also derived within
H, so the result is the partition of all words up to H that the same
rules give when applied word by word, at a cost that follows the number
of classes times the alphabet size instead of k**H.  The same holds for
any order of building: the partition is the least fixed point of the
rules, and a merge derived among the nodes of part of a level is derived
in the whole level too.  So a level may be begun a few letter columns at
a time, only to merge the level below, and dropped again, as long as the
levels that remain are built in full and settled (see
`enumerate_classes`).  A level's class
count is its node count less the roots merged away there.  Each level
keeps its own block of births (the roots below that its nodes extend),
slots (where each of its classes extends to) and left rows, all built as
lists once the level above exists.  A level with no merged node gets the
same lists: the closure stops at such a top level once it is past the
longest relation (see below), so it builds on a merge-free level only
below that relation, which for a diagram means level 1 alone.

Every merge is forced in any cancellative semigroup satisfying the
relations, so the class counts per degree are upper bounds for the true
counts in the cancellative quotient.  The padding degrees give cancellation
room to act above the window being counted: a typical derivation multiplies
by a letter, rewrites at the longer length, and cancels back down.  No
level is built above a settled top level t at or past the longest relation
where no node merged: level t+1 could merge only by a relation of length
t+1, or by joining or extending a level-t merge, and there is neither.  So
every level above t settles with no merge, and no cancellation reaches back
below it.  Level t+j would hold k**j nodes per class at t, none merged, so
a class of degree t+j is C.s for a class C of degree t and a word s of
length j, and the degrees above t, up to max_len, are counted, not built.

Verification then squeezes from both sides.  A letter map into an
alternating-sum semigroup that respects the relations induces a map from
closure classes onto the semigroup's elements, so the element count is a
lower bound; when the two counts agree, the degree is pinned exactly and
the map is a bijection there.  Images go up the levels like the classes:
R(C, a) maps to the image of C followed by that of a, one step per node.
Given those lower bounds, the closure stops at the first level where the
counts are final, or where a certificate settles every higher degree (see
`enumerate_classes`), and skips every cancellation sweep that cannot
merge: each merge a sweep off level e makes lands on level e-1, whose
count cannot fall below its bound.  Any diagram gives such bounds without
a stated target: its Fox coloring is a letter map onto an alternating-sum
semigroup that respects every relation (`fox_bounds`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate, chain, compress, islice, product, repeat
from math import log2
from operator import ge, lt, mul, ne

from .altsum import AltSumSemigroup, conjecture_semigroup
from .diagrams import (
    FAMILIES,
    MAX_MODULUS,
    Diagram,
    _fox_target,
    build_family,
    conway_with_traces,
    fox_coloring,
    fox_target,
    parse_family_spec,
)
from .errors import (
    DEFAULT_WORD_BUDGET,
    DomainError,
    InternalConsistencyError,
    ParameterError,
    ResourceBudgetError,
)
from .presentation import Presentation, Word, presentation_from_diagram


class _UnionFind:
    """Growable array union-find with path halving; the smallest id wins as
    root.  The node numbering of `enumerate_classes` makes the root of a
    class the node whose birth word is the class's first word in colex order
    (last letter most significant).

    A root holds a shared negative sentinel instead of its own id: -1 while
    it has never absorbed another node, -2 once it has.  So a new node costs
    one list slot and no int object, and "is a root" and "is a singleton
    class" are each one comparison."""

    def __init__(self):
        self.parent: list[int] = []

    def add(self, count: int) -> int:
        """Append count singleton nodes and return the first new id."""
        start = len(self.parent)
        self.parent.extend(repeat(-1, count))
        return start

    def find(self, x: int) -> int:
        parent = self.parent
        p = parent[x]
        while p >= 0:
            g = parent[p]
            if g < 0:
                return p
            parent[x] = g
            x = g
            p = parent[x]
        return x


def _walk(word: Word, find, slots: list, base: list[int], width: list[int]) -> int:
    """The node holding a word: its first letter, then R(C, a) for the class
    C reached so far and each further letter a."""
    node = word[0]
    for j in range(1, len(word)):
        node = slots[j][find(node) - base[j]] + word[j] * width[j + 1]
    return node


class CongruencePartition:
    """Result of the bounded closure: class structure on words up to the
    levels built, with per-degree class counts over the requested window.
    The levels may stop below the horizon, and below max_len, at one of two
    tails (see `enumerate_classes`).  Above a "free" tail, at a merge-free
    top level t, each count is the one below times k, and the classes of
    degree t+j are C.s for the classes C of degree t and the words s of
    length j, so `classes_at_degree` lists them up to max_len.  Above a
    "certificate" tail, where bounds settle the counts, each count is the
    top's and `classes_at_degree` raises.  _tail is None when the levels
    reach the horizon.

    Words are not stored.  Level d holds k * _width[d] nodes from id
    _base[d] on; node _base[d] + a * _width[d] + i is R(C, a), the words of
    the level-(d-1) class C rooted at _births[d][i] followed by the letter
    a.  For a class root C at level d, _slots[d][C - _base[d]] is the id of
    R(C, 0) at level d+1; a node merged before level d+1 was built holds
    its root's.  In _uf.parent a class root holds a negative
    sentinel (-1 for a singleton class, -2 otherwise) and every other node
    an id on the way to its root.
    """

    __slots__ = (
        "alphabet_size", "max_len", "horizon", "levels", "degree_counts",
        "_uf", "_base", "_width", "_births", "_slots", "_tail",
    )

    def __init__(
        self,
        alphabet_size: int,
        max_len: int,
        horizon: int,
        levels: int,
        degree_counts: tuple[int, ...],
        _uf: _UnionFind,
        _base: list[int],
        _width: list[int],
        _births: list,
        _slots: list,
        _tail: str | None = None,
    ):
        self.alphabet_size = alphabet_size
        self.max_len = max_len
        self.horizon = horizon
        self.levels = levels
        self.degree_counts = degree_counts
        self._uf = _uf
        self._base = _base
        self._width = _width
        self._births = _births
        self._slots = _slots
        self._tail = _tail

    def _birth_word(self, node: int, degree: int) -> Word:
        """The word a node was built from: the birth word of its class
        C followed by its letter a, for R(C, a)."""
        letters = []
        for d in range(degree, 1, -1):
            letter, i = divmod(node - self._base[d], self._width[d])
            letters.append(letter)
            node = self._births[d][i]
        letters.append(node)
        return tuple(reversed(letters))

    def classes_at_degree(self, degree: int) -> list[list[Word]]:
        """All classes of words of the given length, each sorted, the list
        in colex order of the classes' colex-first words."""
        last = max(self.levels, self.max_len) if self._tail == "free" else self.levels
        if not 1 <= degree <= last:
            raise DomainError(f"degree {degree} outside the closed range 1..{last}")
        if degree > self.levels:
            # C.s lists its words as C does, and the colex-first word of C.s
            # is C's followed by s: the suffix s orders first, then C
            top = self.classes_at_degree(self.levels)
            suffixes = product(range(self.alphabet_size), repeat=degree - self.levels)
            return [[w + s[::-1] for w in words] for s in suffixes for words in top]
        groups: dict[int, list[Word]] = {}
        find = self._uf.find
        for word in product(range(self.alphabet_size), repeat=degree):
            root = find(_walk(word, find, self._slots, self._base, self._width))
            groups.setdefault(root, []).append(word)
        return [sorted(words) for root, words in sorted(groups.items())]


# The least int that str() refuses under Python's default 4 300-digit limit.
_UNPRINTABLE = 10**4300


def _checked_horizon(pres: Presentation, max_len: int, pad: int, budget: int) -> int:
    """The closure's horizon max_len + pad, once the window is valid and the
    words up to it, k + k**2 + ... + k**H, fit the budget.

    That is (k**(H+1) - k)/(k - 1), or H for one letter, and at least k**H:
    an over-budget count that does not print is named in that closed form,
    and not built at all when H log2 k alone puts it past the budget."""
    if max_len < 1:
        raise ParameterError(f"max_len must be at least 1, got {max_len}")
    if pad < 0:
        raise ParameterError(f"pad must not be negative, got {pad}")
    k = pres.alphabet_size
    horizon = max_len + pad
    longest_relation = max((len(lhs) for lhs, _ in pres.relations), default=1)
    if horizon < longest_relation:
        raise ParameterError(
            f"horizon {horizon} is shorter than the longest relation "
            f"({longest_relation}); raise max_len or pad"
        )
    closed_form = f"({k}^{horizon + 1} - {k})/{k - 1}"
    if k > 1 and horizon * log2(k) > max(budget, _UNPRINTABLE).bit_length() + 1:
        raise ResourceBudgetError(closed_form, budget)
    total = horizon if k == 1 else (k ** (horizon + 1) - k) // (k - 1)
    if total > budget:
        raise ResourceBudgetError(total if total < _UNPRINTABLE else closed_form, budget)
    return horizon


def enumerate_classes(
    pres: Presentation,
    max_len: int,
    pad: int = 2,
    budget: int = DEFAULT_WORD_BUDGET,
    bounds: tuple[int, ...] | None = None,
) -> CongruencePartition:
    """Run the bounded closure and count classes per degree 1..max_len.

    The budget caps the words up to the horizon, k + k**2 + ... + k**H,
    although only class nodes are stored.  Each count is the level's node
    count less its merges.

    bounds, if given, are lower bounds |T_d| on the counts of degrees
    1..max_len in every cancellative semigroup the relations present, from
    a target T that the letters map onto and in which right multiplication
    by a letter's image is injective, so that |T_d| never falls as d
    grows.  `verify_isomorphism` passes its target's element counts, or
    their maximum with a floor, and `diagram_classes`, for `classes` and
    both sides of `rmove`, the counts of the diagram's own Fox target
    (`fox_bounds`).  The closure then stops after the first settled top
    level h below the horizon where, for n the largest degree up to
    min(h, max_len) such that the counts of degrees 1..n all meet their
    bounds:

    * n = max_len: no count up to max_len can fall any further; or
    * c = min(n, h - 1) >= 1 and, for some letter z, the nodes of column z
      at level c+1 reach every root of that level.  Then every class at
      degree c+1 holds a word ending in z, and by left extension so does
      every class above, so the counts never rise above m, the count at
      degree c, which meets |T_c|; and |T_t| >= |T_c| for t > c.  So every
      degree above c has exactly m classes, also in the closure to the
      full horizon, and the degrees above h are counted as m.

    The bounds also skip sweeps.  Every union of sweep(e) acts on level
    e-1, whose count k * width[e-1] - absorbed[e-1] is at least the count
    at degree e-1 in the cancellative semigroup (every merge is forced
    there), and so at least its bound |T_{e-1}|.  At the bound no union can
    merge, so settle skips sweep(e) there, for e - 1 <= max_len, and a
    sweep stops as soon as its merges bring level e-1 to the bound.  The
    last bound holds above max_len too, but skipped no further sweep on
    any closure measured.

    The bounds also let a level be built column-first.  When the top level
    d is at or past the longest relation, d <= max_len, and, for W its
    count, first the number of letters in the first relation,

        first * W + |T_d| * k + r < k * W,

    grow() builds level d+1 only for the columns of those letters (for a
    diagram, the three arcs of one crossing), with the unions their nodes
    missed, and settles.  While level d stays above its bound, the columns
    built double, in the order in which the letters first appear in the
    relations, for as long as the rule holds with the columns built in
    place of first.  Once level d meets its bound, level d+1 is dropped:
    its nodes go from the union-find, and its lists are popped.  The
    merges it gave the levels below stay, since each is also derived with
    level d+1 built in full.  The stop rule above then reads full levels
    only, and if it does not fire, level d+1 is built in full on the
    classes that level d merged down to: |T_d| * k nodes, where the full
    level on W classes takes k * W, which is what the rule weighs.  The
    stop rule cannot fire at level d when d < max_len and |T_d| is above
    width[d], the nodes of one column, so that level d+1 is sure to be
    rebuilt, over level d's k * width[d] nodes walked again: that is r,
    and r = 0 otherwise.  (Without r, dtw:2,4 would take 126 nodes where
    the full level takes 144, and measured slower for the second walk.)
    Where
    the rule fails for the next batch, level d+1 is dropped too and built
    in full at once.  Either way every level kept is built in full and
    settled, so the counts and the partition are those of the closure
    without it, and the root of each class is still the node of its
    colex-first word; only the widths of the levels above d, and so their
    node ids, can differ.  For
    torus2:n, level 2 meets its bound of n on the first batch, and the
    certificate holds there with c = 1, so level 3 never gets past three
    columns: 3 * 9 605 nodes for torus2:99, against the 950 895 of level 3
    in full.

    With or without bounds, the closure also stops at the first settled top
    level t >= longest relation where no node merged (absorbed[t] == 0),
    whether t is below, at or above max_len.  A merge at level t+1 has
    three sources, each empty:

    * seed(t+1): no relation is longer than t;
    * join_merged(t): no node of level t was merged;
    * extension (drain) of a level-t merge: there is none, and settle left
      the queue empty.

    So level t+1 settles with no merge, and by induction so does every
    level up to the horizon; no cancellation reaches below t.  The counts
    and the partition of every degree up to t are those of the closure to
    the full horizon.  Level t+j holds k**j nodes per class at degree t,
    none of them merged, so a class of degree t+j is C.s for a class C at
    degree t and a word s of length j, and the count at degree t+j is
    k**j times the count at t.  This is the free tail; the certificate's
    keeps the count at its top level.  Only a presentation that never
    merges stops here.  Otherwise every level up to the horizon is built.

    Every level is built one way: its births, slots and left rows are
    lists, whether or not it merged.  That is enough, because this check
    runs before every grow(): a merge-free top level grows only while it
    lies below the longest relation, which for every diagram is level 1,
    so a leaner form for merge-free levels would serve no diagram.
    """
    horizon = _checked_horizon(pres, max_len, pad, budget)
    if bounds is not None and len(bounds) != max_len:
        raise ParameterError(f"{len(bounds)} bounds for max_len {max_len}")
    k = pres.alphabet_size

    uf = _UnionFind()
    find, parent = uf.find, uf.parent
    base, width, births = [0, 0], [0, 1], [[], []]
    slots: list = [[]]
    # left[d][b][i] is L_b(R(P, 0)), the node at level d+1 holding b followed
    # by the words of R(P, 0) for the class P rooted at births[d][i].  It is
    # stored once per class: L_b(R(P, a)) = R(L_b(P), a) is that node plus
    # col[d+1][a], so the level-d node base[d] + a * width[d] + i has L_b
    # at left[d][b][i] + col[d+1][a].  begin() builds left[d] with level
    # d+1, which fixes slots[d].
    left: list[list[list[int]]] = [[]]
    # absorbed[d]: roots of level d merged into another root
    absorbed = [0, 0]
    # col[d][a] is the offset from base[d] of letter a's column at level d,
    # None while it is not built, and live[d] holds the offsets built; a
    # level built in full has both as range(0, k * width[d], width[d])
    col: list = [None, range(k)]
    live: list = [None, range(k)]
    queue: list[tuple[int, int, int]] = []  # (level, root, root) merged
    dirty: set[int] = set()  # levels merged at since their last sweep
    top = 1

    def union(x: int, y: int, level: int) -> None:
        if parent[x] >= 0:
            x = find(x)
        if parent[y] >= 0:
            y = find(y)
        if x == y:
            return
        if x > y:
            x, y = y, x
        parent[y] = x
        parent[x] = -2
        absorbed[level] += 1
        dirty.add(level)
        if level < top:
            queue.append((level, x, y))

    def seed(level: int) -> None:
        for lhs, rhs in pres.relations:
            if len(lhs) == level:
                union(
                    _walk(lhs, find, slots, base, width),
                    _walk(rhs, find, slots, base, width),
                    level,
                )

    def join_left(d: int, x: int, y: int) -> None:
        """Merge L_b(x) with L_b(y) for every letter b, x and y at level d.
        L_b(x) lies in the column of x's last letter, so the join waits
        while either column is not built (see `grow`)."""
        w, offset = width[d], col[d + 1]
        ax, ix = divmod(x - base[d], w)
        ay, iy = divmod(y - base[d], w)
        ax, ay = offset[ax], offset[ay]
        if ax is None or ay is None:
            return
        for row in left[d]:
            union(row[ix] + ax, row[iy] + ay, d + 1)

    def drain() -> None:
        """Extension: two merged classes C, C' below the top level merge
        R(C, a) with R(C', a) and L_b(C) with L_b(C') for all letters."""
        while queue:
            d, x, y = queue.pop()
            slot, lo = slots[d], base[d]
            sx, sy = slot[x - lo], slot[y - lo]
            for a in live[d + 1]:
                union(sx + a, sy + a, d + 1)
            join_left(d, x, y)

    def sweep(e: int) -> None:
        """Cancellation off level e as signature tables: two nodes R(C, a),
        R(C', a) in one class merge C with C', and two roots C, C' whose
        L_b share a class merge.  Singleton classes are skipped: a lone node
        meets no other, and no two level-(e-1) roots share an L_b node,
        because rows are read off slots fixed at a fixed point, where L_b
        already tells the classes one level down apart.  The merges of each
        column are extended before the next column is read, so that it
        meets them, and the sweep stops once level e-1 meets its bound."""
        lo, classes = base[e], births[e]
        for start in live[e]:
            seen: dict[int, int] = {}
            for n, c in enumerate(classes, lo + start):
                p = parent[n]
                if p == -1:
                    continue
                if p >= 0:
                    n = p if parent[p] < 0 else find(n)
                if parent[c] >= 0:
                    c = find(c)
                other = seen.setdefault(n, c)
                if other != c:
                    union(other, c, e - 1)
            if queue:
                drain()
                if at_bound(e - 1):
                    return
        # the roots R(P, a) at level e-1 by letter a, with their columns and
        # L_b offsets, for the letters whose column is built at level e
        w = width[e - 1]
        blocks = [
            (offset, [
                (c, c - lo)
                for c in compress(range(lo, lo + w), map(lt, parent[lo:lo + w], repeat(0)))
            ])
            for offset, lo in zip(col[e], range(base[e - 1], base[e], w))
            if offset is not None
        ]
        for row in left[e - 1]:
            seen = {}
            for offset, roots in blocks:
                for c, i in roots:
                    # a node in a merged class is a root marked -2 or
                    # points into such a class
                    target = row[i] + offset
                    p = parent[target]
                    if p == -1:
                        continue
                    if p >= 0:
                        target = p if parent[p] < 0 else find(target)
                    other = seen.setdefault(target, c)
                    if other != c:
                        union(other, c, e - 1)

    def at_bound(d: int) -> bool:
        """Whether level d's count meets its bound, so that no union lands
        there (see the docstring)."""
        return bounds is not None and d <= max_len and k * width[d] - absorbed[d] == bounds[d - 1]

    def settle() -> None:
        drain()
        while dirty:
            e = dirty.pop()
            # at its bound, level e-1 takes none of sweep(e)'s unions (see the docstring)
            if e > 1 and not at_bound(e - 1):
                sweep(e)
                drain()

    def left_rows(d: int) -> list[list[int]]:
        """The left rows of level d, read off the slots of level d:
        L_b(a) = R(b, a) for a letter a, and L_b(R(P, 0)) = R(L_b(P), 0).
        The classes P of level d-1 are sorted, so each letter block a
        there holds a run of them, found once per level by bisection; P
        sits at column P - shift of its block, and the block's offset
        takes L_b(P) there to its index in slots[d].  The rows read only
        births[d], left[d-1] and slots[d], so they are final once level d+1
        exists."""
        slot = slots[d]
        if d == 1:
            return [[slot[b]] for b in range(k)]
        plo, pw, w, prev = base[d - 1], width[d - 1], width[d], births[d]
        blocks = []
        last = 0
        for a in range(k):
            shift = plo + a * pw
            first, last = last, bisect_left(prev, shift + pw, last)
            blocks.append((shift, a * w - base[d], first, last))
        return [
            [
                slot[row[p - shift] + offset]
                for shift, offset, first, last in blocks
                for p in islice(prev, first, last)
            ]
            for row in left[d - 1]
        ]

    def join_merged(d: int) -> None:
        """Classes of level d merged before level d+1 existed: merge L_b of
        each merged node with L_b of its root, one letter block of level d
        at a time, skipping blocks of roots only.  Level d+1 is the top, so
        nothing is queued.  A node two or more steps below its root is rare
        here and goes through find.

        Only one member per class and letter block is joined, and none whose
        root lies in its own block.  Two members R(P1, a), R(P2, a) of one
        class were right-cancelled to P1 ~ P2 by sweep(d) during settle, and
        extension then merged L_b(P1) ~ L_b(P2) before level d+1 existed.
        So those two nodes share a slot, and L_b(R(Pi, a)) = R(L_b(Pi), a)
        is one node for both members: joining the second repeats the
        first."""
        lo, w, step, roots = base[d], width[d], width[d + 1], births[d + 1]
        joined = 0
        last = 0
        for a in range(k):
            blo = lo + a * w
            first, last = last, bisect_left(roots, blo + w, last)
            if last - first == w:
                continue
            pairs = []
            seen = set()
            for n in compress(range(blo, blo + w), map(ge, parent[blo:blo + w], repeat(0))):
                root = find(n)
                if root >= blo or root in seen:
                    continue
                seen.add(root)
                ay, iy = divmod(root - lo, w)
                pairs.append((n - blo, iy, ay * step))
            ax = a * step
            for row in left[d]:
                for ix, iy, ay in pairs:
                    x, y = row[ix] + ax, row[iy] + ay
                    p = parent[x]
                    if p >= 0:
                        x = p if parent[p] < 0 else find(x)
                    p = parent[y]
                    if p >= 0:
                        y = p if parent[p] < 0 else find(y)
                    if x != y:
                        if x > y:
                            x, y = y, x
                        parent[y] = x
                        parent[x] = -2
                        joined += 1
        if joined:
            absorbed[d + 1] += joined
            dirty.add(d + 1)

    def begin() -> int:
        """Open level top+1 over the classes at the top level, with no node
        yet: its births, and the slots and left rows of the top level.
        Returns its width."""
        nonlocal top
        d = top
        lo = base[d]
        hi = lo + k * width[d]
        start = len(parent)
        # walk the merged nodes of level d: the roots between them take
        # consecutive slots from start on, and a merged node takes its
        # root's slot, so the left rows read slots[d] with no find
        roots: list[int] = []
        slot: list[int] = []
        after = lo
        for n in compress(range(lo, hi), map(ge, parent[lo:hi], repeat(0))):
            s = start + len(roots)
            roots += range(after, n)
            slot.extend(range(s, s + n - after))
            slot.append(slot[find(n) - lo])
            after = n + 1
        s = start + len(roots)
        roots += range(after, hi)
        slot.extend(range(s, s + hi - after))
        slots.append(slot)
        left.append(left_rows(d))
        absorbed.append(0)
        base.append(start)
        width.append(len(roots))
        births.append(roots)
        top = d + 1
        return len(roots)

    def grow() -> None:
        """Build level top+1 from the classes at the top level: in full, or
        column-first where the docstring's cost rule holds.  Column-first,
        the columns of the first relation's letters are built first, and
        after each settle that leaves level top above its bound the built
        columns double, in the letters' order of first appearance, while the
        rule still holds for the columns built.  Level top+1 is dropped as
        soon as level top meets its bound, and the main loop goes on from
        there.  Where the rule fails for the next batch, it is dropped as
        well and built in full at once, on the classes that level top has
        merged down to."""
        d = top
        w = begin()
        if bounds is not None and floor <= d <= max_len:
            # a batch of columns and level top+1 in full on top's bound
            # together must come to fewer nodes than level top+1 in full,
            # with level top's own nodes, walked again to build it, where
            # the stop rule cannot fire at level top
            spare = k * w - k * bounds[d - 1]
            if d < max_len and bounds[d - 1] > width[d]:
                spare -= k * width[d]
            if first * w < spare:
                col.append([None] * k)
                live.append([])
                built, batch = 0, first
                while batch * w < spare:
                    add_columns(order[built:batch])
                    built = batch
                    settle()
                    if at_bound(d):
                        drop()
                        return
                    batch = 2 * built
                drop()
                w = begin()
        uf.add(k * w)
        col.append(range(0, k * w, w))
        live.append(col[-1])
        join_merged(d)
        seed(top)

    def add_columns(letters) -> None:
        """Build the columns of these letters at the top level e, begun
        column-first, with every union their nodes missed.  R(C, a) merges
        with R(C', a) for the roots C, C' of level e-1 that merged since
        level e was begun, and L_b of each member of a merged class of level
        e-1 with L_b of the first member met in a built column.  The left
        joins are taken anew over every built column, since drain joins the
        L_b of two classes only where both roots' columns are built.  Level
        e is the top, so nothing is queued."""
        e = top
        d = e - 1
        lo, w, start, step = base[d], width[d], base[e], width[e]
        offset = col[e]
        new = []
        for a in letters:
            offset[a] = uf.add(step) - start
            new.append(offset[a])
        live[e] += new
        slot = slots[d]
        for n, c in enumerate(births[e], start):
            if parent[c] >= 0:
                root = slot[find(c) - lo]
                for a in new:
                    union(n + a, root + a, e)
        first_met: dict[int, int] = {}
        for blo in compress(range(lo, lo + k * w, w), map(ne, offset, repeat(None))):
            for x in compress(range(blo, blo + w), map(ne, parent[blo:blo + w], repeat(-1))):
                y = first_met.setdefault(find(x), x)
                if y != x:
                    join_left(d, x, y)

    def drop() -> None:
        """Remove the top level: its nodes, and every list built with it."""
        nonlocal top
        del parent[base[top]:]
        for stack in (base, width, births, absorbed, col, live, slots, left):
            stack.pop()
        top -= 1

    met = 0  # the degrees 1..met meet their bounds

    def settled() -> bool:
        """Whether the levels built fix every count up to max_len, by the
        stop rule in the docstring.  A count never falls below its lower
        bound, so one that meets it stays there, and n resumes from the
        last call's."""
        nonlocal met
        n = met
        while n < min(top, max_len) and k * width[n + 1] - absorbed[n + 1] == bounds[n]:
            n += 1
        met = n
        if n == max_len:
            return True
        c = min(n, top - 1)
        if c < 1:
            return False
        lo, w = base[c + 1], width[c + 1]
        roots = k * w - absorbed[c + 1]
        # a column holds w nodes, so it reaches at most w roots
        return roots <= w and any(
            len(set(map(find, range(z, z + w)))) == roots for z in range(lo, lo + k * w, w)
        )

    # past every relation, a top level that merged nothing settles every
    # level above it with no merge
    floor = max((len(lhs) for lhs, _ in pres.relations), default=1)
    # the letters in order of first appearance in the relations, then the
    # rest, and the number in the first relation: column-first growth
    # builds the columns in that order
    order = list(dict.fromkeys(chain(*chain(*pres.relations), range(k))))
    first = len(set(chain(*pres.relations[0]))) if pres.relations else k
    tail = None
    uf.add(k)
    seed(1)
    settle()
    while top < horizon:
        if top >= floor and not absorbed[top]:
            tail = "free"
            break
        if bounds is not None and settled():
            tail = "certificate"
            break
        grow()
        settle()

    counts = tuple(k * width[d] - absorbed[d] for d in range(1, min(top, max_len) + 1))
    # above the top level, each count is the one below times k over a free
    # tail, and the top's over a certificate's
    factor = k if tail == "free" else 1
    above = accumulate(repeat(factor, max_len - top), mul, initial=counts[-1])
    counts += tuple(islice(above, 1, None))
    return CongruencePartition(
        alphabet_size=k,
        max_len=max_len,
        horizon=horizon,
        levels=top,
        degree_counts=counts,
        _uf=uf,
        _base=base,
        _width=width,
        _births=births,
        _slots=slots,
        _tail=tail,
    )


# -- checking a letter map against a target semigroup ------------------------


def verify_homomorphism(pres: Presentation, phi, sg: AltSumSemigroup) -> bool:
    """Whether the letter map respects every defining relation.

    phi assigns each letter a generator of the target semigroup; the map
    extends to words letterwise and must send both sides of each relation
    to the same element.  Both sides have the same length, so that is the
    same state: each side's is one fold over the images of its letters, and
    the states of one relation length are checked against that level once
    (``AltSumSemigroup.states_of``).
    """
    phi = tuple(phi)
    if len(phi) != pres.alphabet_size:
        raise ParameterError(
            f"letter map has {len(phi)} entries for an alphabet of size "
            f"{pres.alphabet_size}"
        )
    generators = set(sg.generators)
    for image in phi:
        if image not in generators:
            raise ParameterError(f"letter image {image} is not a generator of {sg}")
    sides: dict[int, list[list[int]]] = {}  # relation length: lhs, rhs, ...
    for lhs, rhs in pres.relations:
        sides.setdefault(len(lhs), []).extend([[phi[x] for x in w] for w in (lhs, rhs)])
    for length, words in sides.items():
        states = sg.states_of(words, length)
        if states[::2] != states[1::2]:
            return False
    return True


def fox_bounds(
    diagram: Diagram, pres: Presentation, max_len: int, coloring=None
) -> tuple[int, ...] | None:
    """Lower bounds for the closure of pres, the diagram's presentation: the
    element counts at degrees 1..max_len of the diagram's Fox target.

    coloring, if given, is a Fox coloring of the diagram that labels every
    arc (``diagrams.fox_coloring``).  Without one, the coloring starts from
    the first crossing whose over arc is not one of its under arcs, with
    that under arc at 0 and the over arc at 1, so that it does not hang on
    the arc numbering.  The target is AS(Z_m, labels), strong for an even
    m (``diagrams.fox_target``).  Its generators are the labels, so the
    letters map onto them, and the map respects every relation; so the
    counts bound the closure's from below (see `enumerate_classes`).  None,
    and the closure runs without bounds, when no crossing qualifies (no
    crossings, or torus2:1), when an arc stays unlabeled, or when m is
    above MAX_MODULUS.
    """
    if coloring is None:
        anchors = next(
            ({c.under[0]: 0, c.over: 1} for c in diagram.crossings if c.over not in c.under),
            None,
        )
        coloring = anchors and fox_coloring(diagram, anchors)
    if coloring is None or (coloring[1] or 1) > MAX_MODULUS:
        return None
    sg, phi = fox_target(coloring)
    if not verify_homomorphism(pres, phi, sg):
        raise InternalConsistencyError("a Fox coloring breaks a relation of its own diagram")
    return tuple(sg.count_elements(degree) for degree in range(1, max_len + 1))


def diagram_classes(
    diagram: Diagram, max_len: int, pad: int = 2, budget: int = DEFAULT_WORD_BUDGET
) -> CongruencePartition:
    """`enumerate_classes` on a diagram's presentation, bounded by its Fox
    target (`fox_bounds`); the counts are those of the unbounded closure.
    A window over the budget is refused before the diagram is colored."""
    pres = presentation_from_diagram(diagram)
    _checked_horizon(pres, max_len, pad, budget)
    return enumerate_classes(
        pres, max_len, pad=pad, budget=budget, bounds=fox_bounds(diagram, pres, max_len)
    )


class DegreeVerdict(
    namedtuple("DegreeVerdict", "degree class_count element_count aligned verdict")
):
    """One degree of the squeeze; `verdict` is "verified" or "unresolved"."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "classes": self.class_count,
            "elements": self.element_count,
            "aligned": self.aligned,
            "verdict": self.verdict,
        }


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "description semigroup alphabet_size max_len pad phi homomorphism degrees warnings",
        defaults=((),),
    )
):
    __slots__ = ()

    @property
    def all_verified(self) -> bool:
        return self.homomorphism and bool(self.degrees) and all(
            d.verdict == "verified" for d in self.degrees
        )

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "semigroup": self.semigroup,
            "alphabet": self.alphabet_size,
            "max_len": self.max_len,
            "pad": self.pad,
            "phi": list(self.phi) if self.phi is not None else None,
            "homomorphism": self.homomorphism,
            "degrees": [d.to_json_dict() for d in self.degrees],
            "warnings": list(self.warnings),
            "all_verified": self.all_verified,
        }


def _split_class(
    partition: CongruencePartition, states: list[int], degree: int
) -> InternalConsistencyError:
    """The error for a closure class whose nodes have distinct states at a
    degree, naming the smallest such root and its number of states."""
    find, lo = partition._uf.find, partition._base[degree]
    images: dict = {}
    for n, s in enumerate(states, lo):
        images.setdefault(find(n), set()).add(s)
    root = min(root for root, found in images.items() if len(found) > 1)
    return InternalConsistencyError(
        f"closure class {partition._birth_word(root, degree)}... maps to "
        f"{len(images[root])} distinct elements despite the letter map "
        "respecting the relations; the closure merged a pair it should not have"
    )


def verify_isomorphism(
    pres: Presentation,
    phi,
    sg: AltSumSemigroup,
    max_len: int,
    pad: int = 2,
    budget: int = DEFAULT_WORD_BUDGET,
    description: str = "",
    warnings: tuple[str, ...] = (),
    floor: tuple[int, ...] | None = None,
) -> VerificationReport:
    """Squeeze the presentation against the target semigroup degree by degree.

    The bounded closure gives class counts from above; the target's element
    counts bound from below once the letter map is a homomorphism onto the
    generators.  A degree comes out "verified" when the counts agree and
    the classes sit in bijection with the elements, "unresolved" when the
    closure has not merged enough within its horizon to settle the
    question.

    With such a letter map the element counts go to the closure as bounds,
    and it may stop below max_len + pad: once the counts of degrees 1..n
    meet them, at n = max_len, or when every class one level above holds a
    word ending in one letter z (see `enumerate_classes`).  In the second
    case the three steps of the certificate settle every higher degree:
    (a) the squeeze meets at degree n, so the cancellative semigroup S has
    m elements there; (b) S_{t+1} = S_t z for every t >= n, so its counts
    never rise; (c) right multiplication in the target is injective, so
    its counts never fall.  Each degree above the levels built then has m
    classes, as in the closure to the full horizon; a bound other than m
    there is a bug.

    floor, if given, holds lower bounds on the closure's counts from
    another target, such as the Fox target of the presentation's diagram
    (`fox_bounds`).  The closure's bounds are its per-degree maximum with
    the element counts under a homomorphism onto the generators, and the
    floor alone with no letter map or one that breaks a relation; a
    homomorphism that misses a generator takes none, since only the image
    check can tell whether its classes align.  Above the levels of a
    certificate, a degree is aligned, and verified, when the map is a
    homomorphism onto the generators and the element count is m, as the
    image check would find: such a map sends the m classes onto the
    elements, a bijection when there are m of them and a collision when
    fewer.

    The image check runs once per closure node, not once per word, on the
    levels built.  A word w'a lies in the node R(C, a) for the class C of
    w', and the birth word of R(C, a) is the birth word of C followed by
    a; every birth word is a word of its class.  So, by induction on the
    degree, a class sends all its words to one element if it sends its
    nodes' birth words to one.  No birth word is built: the image of
    R(C, a) is one step on from that of C, kept as a packed state from the
    degree below.  One table per degree maps each class root to its first
    node's state, and any other state in the class fails the check; the
    degree is aligned when the table's states are distinct.  Above a free
    tail (see `enumerate_classes`) every class is one node, R(C, a) for a
    class C of the degree below, so the check goes on level by level with
    one state per class: the degree is aligned when they are distinct.

    With phi None there is no letter map: the homomorphism check is
    skipped and every degree stays unresolved.  The closure's budget is
    checked first, so a case over it is refused before the letter map is
    checked.
    """
    warnings = tuple(warnings)
    _checked_horizon(pres, max_len, pad, budget)
    hom = False
    if phi is not None:
        phi = tuple(phi)
        hom = verify_homomorphism(pres, phi, sg)
        if not hom:
            warnings += ("the letter map does not respect the relations",)
    onto = hom and set(phi) == set(sg.generators)
    if hom and not onto:
        warnings += (
            "the letter map does not cover all generators; element counts "
            "are not lower bounds and degrees stay unresolved",
        )
    elements = tuple(sg.count_elements(degree) for degree in range(1, max_len + 1))
    if onto:
        bounds = elements if floor is None else tuple(map(max, floor, elements))
    else:
        bounds = None if hom else floor
    partition = enumerate_classes(pres, max_len, pad=pad, budget=budget, bounds=bounds)

    verdicts = []
    find, base, births = partition._uf.find, partition._base, partition._births
    states = [0]  # the empty word's: one column below level 1
    for degree in range(1, max_len + 1):
        class_count = partition.degree_counts[degree - 1]
        element_count = elements[degree - 1]
        if degree > partition.levels and partition._tail == "certificate":
            if class_count != bounds[degree - 1]:
                raise InternalConsistencyError(
                    f"degree {degree}: the certificate gives {class_count} classes "
                    f"above level {partition.levels} but the lower bound there is "
                    f"{bounds[degree - 1]}; the bounds must not change there"
                )
            aligned = onto and class_count == element_count
        elif hom:
            if 1 < degree <= partition.levels:
                lo = base[degree - 1]
                states = [states[c - lo] for c in births[degree]]
            states = sg.extend_states(states, phi, degree)
            if degree > partition.levels:
                # above a free tail every class is one node, R(C, a) for a
                # class C of the degree below, whose states are all kept
                aligned = len(set(states)) == len(states)
            else:
                image: dict = {}
                for n, s in enumerate(states, base[degree]):
                    if image.setdefault(find(n), s) != s:
                        raise _split_class(partition, states, degree)
                aligned = len(set(image.values())) == len(image)
            if onto and class_count < element_count:
                raise InternalConsistencyError(
                    f"degree {degree}: {class_count} classes but {element_count} "
                    "elements; the closure undercounts a quotient it must refine"
                )
        else:
            aligned = False
        verified = onto and aligned and class_count == element_count
        verdicts.append(DegreeVerdict(
            degree, class_count, element_count, aligned, "verified" if verified else "unresolved"
        ))

    return VerificationReport(
        description=description,
        semigroup=repr(sg),
        alphabet_size=pres.alphabet_size,
        max_len=max_len,
        pad=pad,
        phi=phi,
        homomorphism=hom,
        degrees=tuple(verdicts),
        warnings=warnings,
    )


# -- theorem checks for the built-in families --------------------------------


def verify_family(
    spec: str,
    max_len: int,
    pad: int = 2,
    budget: int = DEFAULT_WORD_BUDGET,
    description: str | None = None,
) -> VerificationReport:
    """Check a family's stated isomorphism, e.g. ``verify_family("dtw:2,2", 3)``.

    The target semigroup and letter map are the diagram's Fox target
    (``diagrams.FAMILIES``), and the notes come from the family's row; the
    description defaults to the spec.
    """
    family = parse_family_spec(spec)
    diagram = build_family(family)
    sg, phi = _fox_target(diagram)
    return verify_isomorphism(
        presentation_from_diagram(diagram),
        phi,
        sg,
        max_len,
        pad=pad,
        budget=budget,
        description=spec if description is None else description,
        warnings=FAMILIES[family.kind].notes(*family.params),
    )


# -- probing the three-parameter conjecture -----------------------------------


def conjecture_probe(
    m: int,
    l: int,
    n: int,
    max_len: int = 3,
    pad: int = 2,
    budget: int = DEFAULT_WORD_BUDGET,
) -> VerificationReport:
    """Test the three-twist-region diagram against its conjectured semigroup.

    The diagram for twist counts (m, l, n) is compared with alternating sums
    on the conjectured generator set inside Z over (ml+1)n+m, whose m+l+n
    values match the diagram's m+l+n arcs in number.  The arc labels
    are the diagram's Fox coloring (``diagrams.fox_coloring``) from the
    natural anchors (0, 1) on the last twist region; they hold mod the
    conjectured modulus exactly when it divides the coloring's.  When they
    leave an arc unlabeled, fail mod the modulus, or are not all
    generators, the report has no letter map.  The diagram's own Fox
    target, from that coloring when it labels every arc, bounds the
    closure from below (`fox_bounds`) as a floor, once the budget has been
    checked.  A letter map that misses a generator gets none: its labels
    respect every relation, and `verify_isomorphism` drops the floor of
    such a homomorphism.
    """
    diagram, traces = conway_with_traces((m, l, n))
    sg = conjecture_semigroup(m, l, n)
    modulus = sg.group.modulus
    pres = presentation_from_diagram(diagram)
    _checked_horizon(pres, max_len, pad, budget)

    warnings = []
    if modulus % 2 == 0:
        warnings.append(
            f"modulus {modulus} is even; the conjecture is stated for odd moduli"
        )

    first, second = traces[-1][:2]
    phi = coloring = None
    if first != second:
        anchors = {first: 0, second: 1}
        coloring = fox_coloring(diagram, anchors)
        if coloring is not None and coloring[1] % modulus == 0:
            labels = tuple(v % modulus for v in coloring[0])
            if set(labels) <= set(sg.generators):
                phi = labels
    if phi is None:
        warnings.append(
            "no arc labeling satisfies the crossing constraints with values in "
            "the generator set"
        )
    floor = None
    if phi is None or set(phi) == set(sg.generators):
        floor = fox_bounds(diagram, pres, max_len, coloring)
    return verify_isomorphism(
        pres,
        phi,
        sg,
        max_len,
        pad=pad,
        budget=budget,
        description=f"cmln:{m},{l},{n}",
        warnings=tuple(warnings),
        floor=floor,
    )
