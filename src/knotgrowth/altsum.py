"""Exact arithmetic in alternating-sum semigroups.

Fix the cyclic group G = Z_m of integers mod m and a nonempty subset B of
G.  The alternating sum of a word b1 b2 ... bk over B is
alt(w) = b1 - b2 + b3 - ... + (-1)^(k+1) bk, computed in G.  Two words are
identified when they have the same length and the same alternating sum;
the quotient of the free semigroup B+ is the alternating-sum semigroup
AS(G, B).  The strong variant SAS(G, B) additionally requires equal counts
of letters that are even in G, where g is even when g = h + h for some h.

An element of length t is therefore one integer, its state alt + 2m * e,
where e is its number of even letters in the strong variant and 0 in the
plain one.  States are compared only at equal length, and all arithmetic
here is exact.  Counting the elements of a given length runs a
reachable-state recurrence rather than walking all |B|^t words:
prepending a letter b to a word with alternating sum a yields sum b - a,
so the set S_t of sums realized in length t satisfies

    S_0 = {0},    S_{t+1} = B + (-S_t),    -S_{t+1} = S_t + (-B).

For the strong variant the state also carries the even-letter count e,
which a letter b raises by one when b is even.  Each level is packed into
one integer: bit e*2m + a, the state, is set when some word of length t
has sum a and e even letters.  Carrying -S_t beside S_t makes a step
translations only: one copy per letter, shifted by b (or -b mod m) plus 2m
when the strong variant counts b as even, then one fold of bits m..2m-1
of every row back onto 0..m-1.  The shifts are grouped into arithmetic
runs, and the copies of a run of k shifts are ORed by doubling, in about
log2 k shifts.  When B = -B the two shift sets are equal (negation keeps
evenness), so S_t = -S_t at every level and one side is built.  Levels
are built on demand, iteratively, and each semigroup keeps the last
2 * _MAX_PERIOD built.  A run of counts stops building levels at a
checked shift, where each level is the one P before it moved up s rows
plus fixed low rows, and adds the rest of its counts up
(``level_counts``).
"""

from __future__ import annotations

from collections import deque, namedtuple

from .errors import (
    DomainError,
    InternalConsistencyError,
    ParameterError,
    refuse_assignment,
)

Word = tuple[int, ...]

_set = object.__setattr__

# The longest period level_counts checks a shift for.
_MAX_PERIOD = 4

# The largest target modulus.  MAX_ARCS does not bound it: it grows like
# the product of the twist counts, and each level is a bitset 2m bits
# wide, one per even count in the strong variant.  growth --terms 3 on the
# plain targets of dtw:50000,50000 (m = 2.5e9) ran 53 s and peaked at
# 4.8 GB, and on dtw:10000,10000 (m = 1e8) 0.7 s and 286 MB.  The link
# dtw:3161,3163 (m = 9 998 244, just under the bound) took 1.9 s and 208 MB
# with its strong target at --terms 3, and 6.3 s and 342 MB at --terms 40
# (2-vCPU host, one run each).
MAX_MODULUS = 10**7


class Zmod(namedtuple("Zmod", "modulus")):
    """The cyclic group of integers modulo a positive modulus."""

    __slots__ = ()
    __setattr__ = __delattr__ = refuse_assignment

    def __new__(cls, modulus: int):
        if modulus < 1:
            raise ParameterError(f"modulus must be positive, got {modulus}")
        return tuple.__new__(cls, (modulus,))

    def reduce(self, x: int) -> int:
        return x % self.modulus

    def is_even(self, x: int) -> bool:
        """Whether x is twice some group element.

        Every element is even when the modulus is odd; for even modulus the
        even elements are 0, 2, ..., modulus - 2.
        """
        return self.modulus % 2 == 1 or x % 2 == 0

    def __repr__(self):
        return f"Zmod({self.modulus})"


def _runs(shifts: list[int]) -> list[list[int]]:
    """Ascending shifts grouped greedily into arithmetic runs [start, step, count]."""
    runs: list[list[int]] = []
    for s in shifts:
        if runs and (runs[-1][2] == 1 or s == runs[-1][0] + runs[-1][1] * runs[-1][2]):
            start, _, count = runs[-1]
            runs[-1] = [start, (s - start) // count, count + 1]
        else:
            runs.append([s, 0, 1])
    return runs


def _spread(x: int, runs) -> int:
    """The OR of x shifted by every shift of the runs."""
    out = 0
    for start, step, count in runs:
        # after the doubling y holds offsets 0..span-1 of the run; one
        # overlapping shift adds span..count-1
        y, span = x, 1
        while 2 * span <= count:
            y |= y << step * span
            span *= 2
        if span < count:
            y |= y << step * (count - span)
        out |= y << start
    return out


class _Levels:
    """The packed state recurrence of one semigroup, extended on demand.

    ``seen`` holds the pairs (S, -S), each packed as described in the
    module docstring, of the last 2 * _MAX_PERIOD levels built, ending at
    level t = ``t``.  ``pos_runs`` and ``neg_runs`` are the two shift sets
    as arithmetic runs; ``neg_runs`` is None when the generator set is
    closed under negation, and then -S is S.  Level 0 is the empty word.
    Only that window is kept, so memory stays linear in t.  A request for a
    level below the window restarts from level 0.  The counts restart once
    and read levels in ascending order; ``verify_isomorphism`` reads its
    element counts and then its image checks from level 1 up, so up to
    max_len 2 * _MAX_PERIOD it never restarts.  ``step`` is one step of
    the recurrence on any pair of packed sets, and ``shift`` checks the
    shift of ``level_counts`` on the levels it is given.
    """

    def __init__(self, group: Zmod, generators: tuple[int, ...], strong: bool):
        m = group.modulus
        self.modulus = m
        self.width = 2 * m
        self.strong = strong
        lifts = [self.width if strong and group.is_even(b) else 0 for b in generators]
        pos_shifts = sorted(b + lift for b, lift in zip(generators, lifts))
        neg_shifts = sorted((-b) % m + lift for b, lift in zip(generators, lifts))
        self.pos_runs = _runs(pos_shifts)
        self.neg_runs = None if neg_shifts == pos_shifts else _runs(neg_shifts)
        self.row = (1 << m) - 1
        self._restart()

    def _restart(self) -> None:
        # low is the m-bit row mask repeated at stride 2m, one row per even
        # count up to t
        self.low = self.row
        self.t = 0
        self.seen = deque([(1, 1)], maxlen=2 * _MAX_PERIOD)

    def step(self, pos: int, neg: int, low: int) -> tuple[int, int]:
        """F: the level after the pair (pos, neg), each row folded under the
        row mask low, which must cover the rows of the result."""
        m = self.modulus
        nxt = _spread(neg, self.pos_runs)
        nxt_pos = (nxt & low) | ((nxt >> m) & low)
        if self.neg_runs is None:
            return nxt_pos, nxt_pos
        nxt = _spread(pos, self.neg_runs)
        return nxt_pos, (nxt & low) | ((nxt >> m) & low)

    def level(self, t: int) -> int:
        if t <= self.t - len(self.seen):
            self._restart()
        seen, low = self.seen, self.low
        for level in range(self.t + 1, t + 1):
            if self.strong:
                low |= self.row << (self.width * level)
            seen.append(self.step(*seen[-1], low))
            self.low, self.t = low, level
        return seen[t - self.t - 1][0]

    def shift(self, seen, period: int) -> tuple[int, list[int]] | None:
        """(s, [|B_0|, ..., |B_{P-1}|]) where the last 2P levels in seen,
        pairs (S, -S) ending at the level last built, meet the checked shift
        of period P (``level_counts``), else None."""
        # (a) at j = P - 1 puts the top row of the level last built s rows
        # above that of the level P before it, so s <= P, and F^P(B_j) has
        # rows below 2P, within the mask of that level
        bits = seen[-1][0].bit_length() - seen[-1 - period][0].bit_length()
        if bits < 0 or bits % self.width:
            return None
        below = (1 << bits) - 1
        gains = []
        for j in range(period):
            level, earlier = seen[j - period], seen[j - 2 * period]
            b = image = (level[0] & below, level[1] & below)
            for _ in range(period):
                image = self.step(*image, self.low)
            # (a), (b) and (c), on S and on -S
            if any(
                side >> bits != old or fp & below != x or fp >> bits & ~x
                for side, old, fp, x in zip(level, earlier, image, b)
            ):
                return None
            gains.append(b[0].bit_count())
        return bits // self.width, gains


class AltSumSemigroup:
    """AS(G, B), or SAS(G, B) when ``strong`` is set.

    ``generators`` is stored sorted, deduplicated and reduced into G.
    Equality and the hash cover the group, the generators and ``strong``.

    This is the target the squeeze in ``oracle`` checks a presentation
    against, and it reads a target only through ``generators``, the letters
    a letter map may use; ``states_of``, the states of the relations'
    sides of one length, one fold over the letter images each and one read
    of that level, for the homomorphism check (``class_of`` reads a word
    the same way); ``extend_states``, one letter appended to many
    states, for the image check; ``count_elements``, the lower bound at a
    degree; and ``repr``, which names the target in reports.  The closure's
    certificate also needs right multiplication by a letter's image to be
    injective at each degree, so that the element counts never fall as the
    degree grows: in AS and SAS it moves the alternating sum by plus or
    minus that image (and in SAS the even count by 0 or 1), which is
    injective on the words of one length.  A modulus above ``MAX_MODULUS``
    is refused before any level is allocated, so every target is bounded.
    """

    __slots__ = ("group", "generators", "strong", "_members", "_levels", "_hash")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, group: Zmod, generators: tuple[int, ...], strong: bool = False):
        if len(generators) == 0:
            raise ParameterError("generator set must be nonempty")
        if (m := group.modulus) > MAX_MODULUS:
            try:
                named = f"target modulus {m}"
            except ValueError:  # more digits than Python converts to str
                named = f"target modulus of {m.bit_length()} bits"
            raise ParameterError(f"{named} is above the bound {MAX_MODULUS}")
        members = frozenset(group.reduce(b) for b in generators)
        reduced = tuple(sorted(members))
        _set(self, "group", group)
        _set(self, "generators", reduced)
        _set(self, "_members", members)
        _set(self, "strong", strong)
        _set(self, "_levels", _Levels(group, reduced, strong))
        _set(self, "_hash", hash((group, reduced, strong)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.generators, self.strong) == (
            other.group, other.generators, other.strong
        )

    def __hash__(self):
        return self._hash

    def class_of(self, word: Word) -> int:
        """The state of the element a word over the generators represents.

        Letters may be given unreduced; reduced, they go through
        ``states_of``.
        """
        if len(word) == 0:
            raise DomainError("alternating sum of the empty word is undefined")
        m, members = self.group.modulus, self._members
        reduced = [letter % m for letter in word]
        for letter, b in zip(word, reduced):
            if b not in members:
                raise DomainError(f"letter {letter} is not a generator of {self}")
        return self.states_of((reduced,), len(word))[0]

    def states_of(self, words, degree: int) -> list[int]:
        """The states of words of length degree over ``generators``, one
        fold each: b1 - b2 + b3 - ... mod m, plus 2m per even letter in the
        strong variant.  Every state must be set in the level of that
        degree, which is read once."""
        m, width = self.group.modulus, self._levels.width
        states = []
        for w in words:
            state = (sum(w[::2]) - sum(w[1::2])) % m
            if self.strong:
                state += width * (degree if m % 2 else degree - sum(b & 1 for b in w))
            states.append(state)
        self._check_realized(set(states), degree)
        return states

    def extend_states(self, parents: list[int], letters: Word, degree: int) -> list[int]:
        """The states of the words w b at a degree, letter-major: for each
        generator b in letters, one state per state of a word w in parents.

        Appending b as the degree-th letter adds (-1)^(degree-1) b to the
        alternating sum, and one to the even count when the variant is
        strong and b is even.  Every state returned must be set in the level
        of that degree, which checks this step against the words the
        recurrence counts.
        """
        m, width = self._levels.modulus, self._levels.width
        states: list[int] = []
        for b in letters:
            if b not in self._members:
                raise DomainError(f"letter {b} is not a generator of {self}")
            step = b if degree % 2 else -b
            lift = width if self.strong and self.group.is_even(b) else 0
            states += [s - s % width + (s + step) % m + lift for s in parents]
        self._check_realized(set(states), degree)
        return states

    def _check_realized(self, states, degree: int) -> None:
        level = self._levels.level(degree)
        for s in states:
            if not level >> s & 1:
                raise InternalConsistencyError(
                    f"no word of length {degree} over {self} has state {s}; the "
                    "state disagrees with the level recurrence"
                )

    def level_counts(self, last: int) -> tuple[tuple[int, ...], bool]:
        """The element counts at lengths 0, 1, ..., `last`, where length 0
        holds the empty word alone, and whether the levels settle.

        One pass reads the levels L_t = (S_t, -S_t) in order and stops at
        the first checked shift.  Let F be one level step and sh the shift
        by one even-count row; F(X | Y) = F(X) | F(Y), F commutes with sh,
        and a step raises a state by at most one row.  At the level t0 + 2P
        - 1 just read, for a period P <= _MAX_PERIOD and t0 >= 0, let s be
        the rows L_{t0+2P-1} has above L_{t0+P-1}, and for each residue j =
        0..P-1 let B_j be the rows below s of L_{t0+j+P}.  The check asks,
        on S and on -S, for every j:

            (a) L_{t0+j+P} = sh^s(L_{t0+j}) | B_j;
            (b) the rows below s of F^P(B_j) are B_j;
            (c) F^P(B_j) is within B_j | sh^s(B_j).

        Then L_{t+P} = sh^s(L_t) | B_j for every t >= t0, j = (t - t0) mod
        P, by induction on t: (a) is the case t < t0 + P, and if it holds
        at t, then L_{t+2P} = F^P(sh^s(L_t) | B_j) = sh^s(L_{t+P}) |
        F^P(B_j) = sh^s(L_{t+P}) | B_j, since F^P(B_j) holds B_j by (b),
        and the rest of it lies in sh^s(B_j) by (c), within sh^s(L_{t+P})
        since L_{t+P} holds B_j at t.  So c_{t+P} = c_t + |B_j| for t >=
        t0, counting S alone, and the counts past the levels read are exact
        integer sums.  The check reads t0 + 2P - 1 levels and makes P steps
        on each B_j.  Every residue needs its check: SAS(Z_12, {0, 1, 5, 7,
        9}) meets (a)-(c) at t0 = 0, P = s = 2 for j = 0 alone, and c_3 -
        c_1 = 14, not |B_0| = 12.

        Where s = 0 every B_j is empty and the levels cycle.  With P = 1
        they settle: every later level is L_{t0}, the pass returns the
        counts through length t0 and True, and the last count returned is
        the count at every greater length.  Otherwise it returns all the
        counts and False, as it does where no shift is found by `last`.
        The levels of {1} in Z_5 cycle with period 2; those of a strong
        variant with an even generator gain one row per step, and the
        strong targets of hopf and even torus2 shift by s = P = 2.
        """
        levels = self._levels
        levels._restart()
        counts = [1]
        for t in range(1, last + 1):
            counts.append(levels.level(t).bit_count())
            for period in range(1, min(_MAX_PERIOD, (t + 1) // 2) + 1):
                found = levels.shift(levels.seen, period)
                if found is None:
                    continue
                rows, gains = found
                if period == 1 and not rows:
                    return tuple(counts[:-1]), True
                for u in range(t + 1, last + 1):
                    counts.append(counts[u - period] + gains[(u - t - 1) % period])
                return tuple(counts), False
        return tuple(counts), False

    def count_elements(self, t: int) -> int:
        """Number of distinct elements of length exactly t."""
        if t < 1:
            raise DomainError(f"length must be at least 1, got {t}")
        return self._levels.level(t).bit_count()

    def __repr__(self):
        kind = "SAS" if self.strong else "AS"
        return f"{kind}({self.group!r}, {{{', '.join(map(str, self.generators))}}})"


# -- generator families arising from knot diagrams -------------------------


class DtwAlphabet(namedtuple("DtwAlphabet", "n l")):
    """Generator set attached to the double twist knot with n clockwise and
    l anticlockwise half-twists: the subset {0..n} + {jn+1 : 0 <= j < l} of
    the integers mod ln+1.  It has exactly n + l elements.
    """

    __slots__ = ()

    def __new__(cls, n: int, l: int):
        if n < 1 or l < 1:
            raise ParameterError(f"twist counts must be positive, got ({n}, {l})")
        return tuple.__new__(cls, (n, l))

    @property
    def modulus(self) -> int:
        return self.l * self.n + 1

    @property
    def elements(self) -> frozenset[int]:
        base = set(range(self.n + 1))
        base.update(j * self.n + 1 for j in range(self.l))
        return frozenset(base)

    def semigroup(self) -> AltSumSemigroup:
        return AltSumSemigroup(Zmod(self.modulus), tuple(self.elements))


def dtw_alphabet(n: int, l: int) -> DtwAlphabet:
    return DtwAlphabet(n, l)


def conjecture_semigroup(m: int, l: int, n: int) -> AltSumSemigroup:
    """The conjectured target for the three-twist-region diagram with twist
    counts (m, l, n): alternating sums in the integers mod (ml+1)n + m on
    the generator set taken literally from its defining index ranges,

        {0..n+1}  +  {jn+1 : 0 <= j <= l+1}  +  {(kl+1)n + k : 0 <= k < m}

    all reduced mod (ml+1)n + m.  The conjecture is stated for odd moduli.
    """
    modulus = (m * l + 1) * n + m
    values = [*range(n + 2), *(j * n + 1 for j in range(l + 2))]
    values += [(k * l + 1) * n + k for k in range(m)]
    return AltSumSemigroup(Zmod(modulus), tuple(values))
