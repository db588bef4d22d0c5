"""Exact arithmetic in alternating-sum semigroups.

Fix the cyclic group G = Z_m of integers mod m and a nonempty subset B of
G.  The alternating sum of a word b1 b2 ... bk over B is
alt(w) = b1 - b2 + b3 - ... + (-1)^(k+1) bk, computed in G.  Two words are
identified when they have the same length and the same alternating sum;
the quotient of the free semigroup B+ is the alternating-sum semigroup
AS(G, B).  The strong variant SAS(G, B) additionally requires equal counts
of letters that are even in G, where g is even when g = h + h for some h.

Elements are therefore determined by a small tuple of integers, so all
arithmetic here is exact.  Enumeration of the elements of a given length
runs a reachable-state recurrence rather than walking all |B|^t words:
prepending a letter b to a word with alternating sum a yields sum b - a,
so the set S_t of sums realized in length t satisfies

    S_0 = {0},    S_{t+1} = B + (-S_t),    -S_{t+1} = S_t + (-B).

For the strong variant the state also carries the even-letter count e,
which a letter b raises by one when b is even.  Each level is packed into
one integer: bit e*2m + a is set when some word of length t has sum a and
e even letters (e is always 0 in the plain variant).  Carrying -S_t beside
S_t makes a step translations only: one shift per letter, by b (or -b mod
m) plus 2m when the strong variant counts b as even, then one fold of
bits m..2m-1 of every row back onto 0..m-1.  Levels are built on demand,
iteratively, and each semigroup keeps only the last one built.
"""

from __future__ import annotations

from .errors import (
    DomainError,
    InternalConsistencyError,
    NotRepresentableError,
    ParameterError,
    refuse_assignment,
)

Word = tuple[int, ...]

_set = object.__setattr__


class Zmod:
    """The cyclic group of integers modulo a positive modulus."""

    __slots__ = ("modulus",)
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ParameterError(f"modulus must be positive, got {modulus}")
        _set(self, "modulus", modulus)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self):
        return hash((self.modulus,))

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


class _Levels:
    """The packed state recurrence of one semigroup, extended on demand.

    ``pos`` packs S_t as described in the module docstring for the last
    level built, t = ``t``, and ``neg`` packs -S_t.  Level 0 is the empty
    word.  Only that level is kept, so memory stays linear in t.  A request
    for an earlier level restarts from level 0; the library reads levels in
    ascending order.
    """

    def __init__(self, group: Zmod, generators: tuple[int, ...], strong: bool):
        m = group.modulus
        self.modulus = m
        self.width = 2 * m
        self.strong = strong
        lifts = [self.width if strong and group.is_even(b) else 0 for b in generators]
        self.pos_shifts = tuple(b + lift for b, lift in zip(generators, lifts))
        self.neg_shifts = tuple((-b) % m + lift for b, lift in zip(generators, lifts))
        self.row = (1 << m) - 1
        self._restart()

    def _restart(self) -> None:
        # low is the m-bit row mask repeated at stride 2m, one row per even
        # count up to t
        self.low = self.row
        self.t = 0
        self.pos = self.neg = 1

    def level(self, t: int) -> int:
        if t < self.t:
            self._restart()
        m = self.modulus
        pos, neg, low = self.pos, self.neg, self.low
        for level in range(self.t + 1, t + 1):
            if self.strong:
                low |= self.row << (self.width * level)
            nxt = 0
            for shift in self.pos_shifts:
                nxt |= neg << shift
            nxt_neg = 0
            for shift in self.neg_shifts:
                nxt_neg |= pos << shift
            pos = (nxt & low) | ((nxt >> m) & low)
            neg = (nxt_neg & low) | ((nxt_neg >> m) & low)
        self.pos, self.neg, self.low, self.t = pos, neg, low, t
        return pos

    def states(self, t: int) -> frozenset:
        """Decode level t into alt values, or (alt, evens) pairs."""
        bits = bin(self.level(t))[:1:-1]
        set_bits = (i for i, c in enumerate(bits) if c == "1")
        if self.strong:
            return frozenset((i % self.width, i // self.width) for i in set_bits)
        return frozenset(set_bits)


class AltSumSemigroup:
    """AS(G, B), or SAS(G, B) when ``strong`` is set.

    ``generators`` is stored sorted, deduplicated and reduced into G.
    Equality and the hash cover the group, the generators and ``strong``.
    """

    __slots__ = ("group", "generators", "strong", "_members", "_levels", "_hash")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, group: Zmod, generators: tuple[int, ...], strong: bool = False):
        if len(generators) == 0:
            raise ParameterError("generator set must be nonempty")
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

    # -- word-level operations -------------------------------------------

    def alt(self, word: Word) -> int:
        """Alternating sum of a word, reduced into the group."""
        if len(word) == 0:
            raise DomainError("alternating sum of the empty word is undefined")
        total = 0
        sign = 1
        for b in word:
            total += sign * b
            sign = -sign
        return self.group.reduce(total)

    def even_count(self, word: Word) -> int:
        return sum(1 for b in word if self.group.is_even(b))

    def class_of(self, word: Word) -> "ASElement":
        """The element represented by a word over the generators."""
        if len(word) == 0:
            raise DomainError("alternating sum of the empty word is undefined")
        m, members = self.group.modulus, self._members
        all_even = m % 2
        total = evens = 0
        sign = 1
        for letter in word:
            b = letter % m
            if b not in members:
                raise DomainError(f"letter {letter} is not a generator of {self}")
            total += sign * b
            sign = -sign
            if all_even or not b % 2:
                evens += 1
        return ASElement(self, len(word), total % m, evens if self.strong else None)

    def extend_states(self, parents: list[int], letters: Word, degree: int) -> list[int]:
        """The states of the words w b at a degree, letter-major: for each
        generator b in letters, one state per state of a word w in parents.

        A state is a word's bit in the packed levels: alt + 2m * evens, with
        evens 0 in the plain variant.  Appending b as the degree-th letter
        adds (-1)^(degree-1) b to the alternating sum, and one to the even
        count when the variant is strong and b is even.  Every state
        returned must be set in the level of that degree, which checks this
        step against the words the recurrence counts.
        """
        levels = self._levels
        m, width = levels.modulus, levels.width
        states: list[int] = []
        for b in letters:
            if b not in self._members:
                raise DomainError(f"letter {b} is not a generator of {self}")
            step = b if degree % 2 else -b
            lift = width if self.strong and self.group.is_even(b) else 0
            states += [s - s % width + (s + step) % m + lift for s in parents]
        level = levels.level(degree)
        for s in set(states):
            if not level >> s & 1:
                raise InternalConsistencyError(
                    f"no word of length {degree} over {self} has state {s}; the "
                    "packed step disagrees with the level recurrence"
                )
        return states

    # -- element-level operations ----------------------------------------

    def element(self, length: int, alt: int, even_count: int | None = None) -> "ASElement":
        """Build an element from its invariants, validating realizability."""
        return ASElement(self, length, self.group.reduce(alt), even_count)

    def elements_of_length(self, t: int) -> frozenset:
        """All realized states at length t: alt values, or (alt, evens) pairs."""
        if t < 1:
            raise DomainError(f"length must be at least 1, got {t}")
        return self._levels.states(t)

    def count_elements(self, t: int) -> int:
        """Number of distinct elements of length exactly t."""
        if t < 1:
            raise DomainError(f"length must be at least 1, got {t}")
        return self._levels.level(t).bit_count()

    def __repr__(self):
        kind = "SAS" if self.strong else "AS"
        return f"{kind}({self.group!r}, {{{', '.join(map(str, self.generators))}}})"


class ASElement:
    """An element of an alternating-sum semigroup.

    Identified by word length and alternating sum, plus the even-letter
    count in the strong variant.  Construction validates that some word
    over the generators actually realizes these invariants.
    """

    __slots__ = ("semigroup", "length", "alt", "even_count")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(
        self, semigroup: AltSumSemigroup, length: int, alt: int, even_count: int | None = None
    ):
        if length < 1:
            raise ParameterError(f"length must be at least 1, got {length}")
        levels = semigroup._levels
        if levels.strong:
            if even_count is None:
                raise ParameterError("strong semigroup elements need an even-letter count")
            if not 0 <= even_count <= length:
                raise ParameterError(
                    f"even-letter count {even_count} out of range for length {length}"
                )
            bit = alt + levels.width * even_count
        elif even_count is not None:
            raise ParameterError("even-letter count given for a non-strong semigroup")
        else:
            bit = alt
        if not 0 <= alt < levels.modulus:
            raise ParameterError(f"alternating sum {alt} is not reduced")
        if not levels.level(length) >> bit & 1:
            state = (alt, even_count) if levels.strong else alt
            raise DomainError(f"no word of length {length} over {semigroup} realizes {state}")
        _set(self, "semigroup", semigroup)
        _set(self, "length", length)
        _set(self, "alt", alt)
        _set(self, "even_count", even_count)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.semigroup, self.length, self.alt, self.even_count) == (
            other.semigroup, other.length, other.alt, other.even_count
        )

    def __hash__(self):
        # the semigroup's cached hash stands in for hash(semigroup)
        return hash((self.semigroup._hash, self.length, self.alt, self.even_count))

    def __mul__(self, other: "ASElement") -> "ASElement":
        return multiply(self, other)


def multiply(x: ASElement, y: ASElement) -> ASElement:
    """Product in the semigroup; concatenation on representing words.

    alt(uv) = alt(u) + (-1)^|u| alt(v), lengths and even counts add.
    """
    if x.semigroup != y.semigroup:
        raise ParameterError("cannot multiply elements of different semigroups")
    sg = x.semigroup
    sign = -1 if x.length % 2 == 1 else 1
    alt = sg.group.reduce(x.alt + sign * y.alt)
    evens = x.even_count + y.even_count if sg.strong else None
    return ASElement(sg, x.length + y.length, alt, evens)


# -- generator families arising from knot diagrams -------------------------


class DtwAlphabet:
    """Generator set attached to the double twist knot with n clockwise and
    l anticlockwise half-twists: the subset {0..n} + {jn+1 : 0 <= j < l} of
    the integers mod ln+1.  It has exactly n + l elements.
    """

    __slots__ = ("n", "l")

    def __init__(self, n: int, l: int):
        if n < 1 or l < 1:
            raise ParameterError(f"twist counts must be positive, got ({n}, {l})")
        self.n = n
        self.l = l

    def __repr__(self):
        return f"DtwAlphabet(n={self.n!r}, l={self.l!r})"

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


class ConjectureAlphabet:
    """Conjectured generator set for the three-parameter pretzel-style family
    with twist counts (m, l, n), inside the integers mod (ml+1)n + m.

    The defining index ranges are taken literally:

        {0..n+1}  +  {jn+1 : 0 <= j <= l+1}  +  {(kl+1)n + k : 0 <= k < m}

    all reduced mod (ml+1)n + m.  The correspondence is only expected to
    make sense when the modulus is odd; ``modulus_is_odd`` flags that.
    """

    __slots__ = ("m", "l", "n")

    def __init__(self, m: int, l: int, n: int):
        if min(m, l, n) < 1:
            raise ParameterError(f"twist counts must be positive, got ({m}, {l}, {n})")
        self.m = m
        self.l = l
        self.n = n

    @property
    def modulus(self) -> int:
        return (self.m * self.l + 1) * self.n + self.m

    @property
    def modulus_is_odd(self) -> bool:
        return self.modulus % 2 == 1

    @property
    def elements(self) -> frozenset[int]:
        mod = self.modulus
        vals = set(range(self.n + 2))
        vals.update((j * self.n + 1) % mod for j in range(self.l + 2))
        vals.update(((k * self.l + 1) * self.n + k) % mod for k in range(self.m))
        return frozenset(v % mod for v in vals)

    def semigroup(self) -> AltSumSemigroup:
        return AltSumSemigroup(Zmod(self.modulus), tuple(self.elements))


def conjecture_alphabet(m: int, l: int, n: int) -> ConjectureAlphabet:
    return ConjectureAlphabet(m, l, n)


def canonical_word(alphabet: DtwAlphabet, element: ASElement) -> Word:
    """The canonical representing word for an element of AS over a double
    twist alphabet.

    For length t >= 2 the canonical words have one of the shapes

        s 0 0^(t-2)    for s in {0..n}
        0 q 0^(t-2)    for q in {1..n}   (sum -q)
        d c 0^(t-2)    for d in {2n+1, 3n+1, ..., (l-1)n+1}, c in {1..n}

    tried in that order; for l >= 2 exactly one shape matches any sum.
    Length-1 elements are their own single-letter word when the sum is a
    generator, and have no canonical word otherwise.
    """
    sg = alphabet.semigroup()
    if element.semigroup != sg:
        raise ParameterError(
            f"element of {element.semigroup} is not from the alternating-sum "
            f"semigroup over {alphabet}"
        )
    t, s = element.length, element.alt
    n, mod = alphabet.n, alphabet.modulus
    if t == 1:
        if s in alphabet.elements:
            return (s,)
        raise NotRepresentableError(f"sum {s} is not a single generator of {alphabet}")
    tail = (0,) * (t - 2)
    if s <= n:
        return (s, 0) + tail
    q = (-s) % mod
    if 1 <= q <= n:
        return (0, q) + tail
    for j in range(2, alphabet.l):
        d = j * n + 1
        c = (d - s) % mod
        if 1 <= c <= n:
            return (d, c) + tail
    raise InternalConsistencyError(
        f"no canonical word found for sum {s} at length {t} over {alphabet}"
    )
