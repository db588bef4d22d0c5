"""Knot and link diagrams as combinatorial data.

A diagram is a set of arcs (numbered 0..k-1) together with crossings; a
crossing records which arc passes over and the unordered pair of arcs that
meet it from below.  This is exactly the data needed to read off semigroup
relations, so no planar embedding is stored and none is checked.

Families
--------

* trivial: one arc, no crossings.
* torus2(n): the closed 2-strand braid with n crossings; arc i passes over
  the pair (i-1, i+1) mod n.  torus2(2) is the Hopf link.
* double_twist(n, l): n clockwise half-twists in one group and l
  anticlockwise in the other.  Arcs carry labels a_i with subscripts in
  {0..n} + {jn+1 : 1 <= j < l}, read mod ln+1; crossing subscripts follow
  the two twist groups.
* twist(n): double_twist(n, 2).
* conway(a1..ak): the two-bridge diagram in plat form.  Twist regions are
  laid left to right on four strand positions, alternating between the two
  inner pairs, with the strand shared by both pairs always passing under
  first; the closing caps on the right depend on the parity of k.  This
  normalization makes conway([n]) literally torus2(n) and conway([l, n])
  the double twist diagram with (n, l) twists, up to arc relabeling.
* custom diagrams can be loaded from a small JSON format.

``FAMILIES`` holds each family kind once: its parameter count, its builder
and its target alternating-sum semigroup and letter map, both from one Fox
coloring of its diagram.  The paper states the isomorphism for every
family but conway, whose target is Vernitski's conjecture.
``parse_family_spec`` is the one grammar for them, `verify` and `probe`
``--params`` included; ``AltSumSemigroup`` bounds every target's modulus.
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import gcd

from .altsum import MAX_MODULUS, AltSumSemigroup, Zmod  # noqa: F401 (MAX_MODULUS re-exported)
from .errors import InternalConsistencyError, MoveError, ParameterError, refuse_assignment

_set = object.__setattr__
_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# The most arcs a diagram read from outside may have.  Every family has at
# most sum(params) + 2 arcs, so a family spec is bounded by its parameters.
MAX_ARCS = 100_000


class Crossing(namedtuple("Crossing", "over under")):
    """One crossing: the over arc and the unordered under pair."""

    __slots__ = ()
    __setattr__ = __delattr__ = refuse_assignment

    def __new__(cls, over: int, under: tuple[int, int]):
        a, b = under
        return tuple.__new__(cls, (over, (b, a) if a > b else under))

    def arcs(self) -> tuple[int, int, int]:
        return (self.over,) + self.under


def crossing(over: int, under_a: int, under_b: int) -> Crossing:
    return Crossing(over, (under_a, under_b))


class Diagram:
    __slots__ = ("arc_count", "crossings", "arc_names")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(
        self,
        arc_count: int,
        crossings: tuple[Crossing, ...],
        arc_names: tuple[str, ...] | None = None,
    ):
        if arc_count < 1:
            raise ParameterError(f"a diagram needs at least one arc, got {arc_count}")
        for c in crossings:
            for a in c.arcs():
                if not 0 <= a < arc_count:
                    raise ParameterError(
                        f"crossing {c} references arc {a}, out of range for {arc_count} arcs"
                    )
        if arc_names is not None and len(arc_names) != arc_count:
            raise ParameterError("arc_names length does not match arc_count")
        _set(self, "arc_count", arc_count)
        _set(self, "crossings", crossings)
        _set(self, "arc_names", arc_names)

    # Equality is structural: same arc count and the same multiset of
    # crossings.  Crossing order only matters for addressing move sites.
    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.arc_count == other.arc_count and sorted(
            (c.over, c.under) for c in self.crossings
        ) == sorted((c.over, c.under) for c in other.crossings)

    def __hash__(self):
        return hash((self.arc_count, tuple(sorted((c.over, c.under) for c in self.crossings))))

    def arc_endpoints(self, arc: int) -> list[tuple[int, int]]:
        """Under-endpoints of an arc as (crossing index, slot) pairs."""
        out = []
        for ci, c in enumerate(self.crossings):
            for slot in (0, 1):
                if c.under[slot] == arc:
                    out.append((ci, slot))
        return out


def _default_names(k: int) -> tuple[str, ...]:
    if k <= len(_LETTERS):
        return tuple(_LETTERS[:k])
    return tuple(f"x{i}" for i in range(k))


def _arc_names(d: Diagram) -> tuple[str, ...]:
    """The diagram's arc names, or the default names of its arc count."""
    return d.arc_names if d.arc_names is not None else _default_names(d.arc_count)


# -- family builders --------------------------------------------------------


def build_trivial() -> Diagram:
    return Diagram(1, (), arc_names=("a",))


def _check_n(kind: str, n: int) -> None:
    """Refuse a count below 1 for a one-parameter family."""
    if n < 1:
        raise ParameterError(f"{kind} needs n >= 1, got {n}")


def build_torus2(n: int) -> Diagram:
    _check_n("torus2", n)
    crossings = tuple(crossing((i + 1) % n, i, (i + 2) % n) for i in range(n))
    return Diagram(n, crossings, arc_names=_default_names(n))


def double_twist_arc_values(n: int, l: int) -> tuple[int, ...]:
    """Subscript labels of the double twist arcs, in arc-index order.

    Arc i <= n carries subscript i; arc n+j carries subscript jn+1 for
    1 <= j < l.  The builder places the crossings by these subscripts, and
    read mod ln+1 they are the labels of the family's Fox coloring, so its
    letter map into the alternating-sum semigroup.
    """
    if n < 1 or l < 1:
        raise ParameterError(f"twist counts must be positive, got ({n}, {l})")
    return tuple(range(n + 1)) + tuple(j * n + 1 for j in range(1, l))


def build_double_twist(n: int, l: int) -> Diagram:
    values = double_twist_arc_values(n, l)
    modulus = l * n + 1
    index = {v: i for i, v in enumerate(values)}

    def arc(subscript: int) -> int:
        return index[subscript % modulus]

    crossings = []
    for i in range(1, n + 1):
        crossings.append(crossing(arc(i), arc(i - 1), arc(i + 1)))
    for j in range(l):
        crossings.append(
            crossing(
                arc((l - j) * n + 1),
                arc((l - j - 1) * n + 1),
                arc((l - j + 1) * n + 1),
            )
        )
    names = tuple(f"a{v}" for v in values)
    return Diagram(n + l, tuple(crossings), arc_names=names)


def conway_with_traces(twists: tuple[int, ...]) -> tuple[Diagram, list[list[int]]]:
    """Plat-form two-bridge builder; also returns each region's arc sequence.

    Four strand positions.  The left caps join positions (0,1) and (2,3).
    Odd-numbered regions twist positions (1,2), even-numbered (2,3); the
    shared position 2 passes under first in every region, which keeps the
    whole diagram alternating.  A region consuming arcs (p: x, q: y) with c
    crossings produces the arc sequence m with m[-1] = y, m[0] = x and
    crossing i reading (over m[i-1], under {m[i-2], m[i]}); it exits with
    m[c] at p and m[c-1] at q.  The right caps join (0,1),(2,3) for an odd
    region count and (1,2),(0,3) for an even one.
    """
    if len(twists) == 0:
        raise ParameterError("conway twist list must be nonempty")
    for a in twists:
        if a < 1:
            raise ParameterError(f"conway twist counts must be positive, got {a}")

    pos = [0, 0, 1, 1]
    next_id = 2
    raw_crossings: list[tuple[int, int, int]] = []
    traces: list[list[int]] = []
    for r, count in enumerate(twists, start=1):
        p = 1 if r % 2 == 1 else 3
        q = 2
        seq = [pos[q], pos[p]]
        for _ in range(count):
            new = next_id
            next_id += 1
            raw_crossings.append((seq[-1], seq[-2], new))
            seq.append(new)
        pos[p] = seq[-1]
        pos[q] = seq[-2]
        traces.append(seq)

    if len(twists) % 2 == 1:
        unions = [(pos[0], pos[1]), (pos[2], pos[3])]
    else:
        unions = [(pos[1], pos[2]), (pos[0], pos[3])]

    label, kept = _quotient_labels(next_id, unions)
    crossings = tuple(crossing(label[o], label[u1], label[u2]) for o, u1, u2 in raw_crossings)
    traces = [[label[x] for x in seq] for seq in traces]
    return Diagram(len(kept), crossings, arc_names=_default_names(len(kept))), traces


# -- family specs and dispatch ----------------------------------------------


def _build_twist(n: int) -> Diagram:
    """The twist knot: the double twist diagram with (n, 2) twists."""
    _check_n("twist", n)
    return build_double_twist(n, 2)


def fox_coloring(diagram: Diagram, anchors: dict[int, int]) -> tuple[list[int], int] | None:
    """The integer Fox coloring of a diagram from its anchor labels.

    Whenever a crossing has its over arc y and one under arc x labeled, the
    other under arc z gets 2y - x, until no crossing labels a new arc.
    Crossings fire in the order of scans of the crossing list repeated
    until one labels nothing, which fixes the labels where the crossings
    over-determine them.  Scans 0 and 1 are plain passes over every
    crossing, run while an arc is unlabeled, and one that labels no arc
    returns None at once.  If arcs remain after them, a heap keyed (scan,
    index) takes over: it starts at scan 2 with every crossing, and later
    scans visit only the crossings at a newly labeled arc, so the time is
    n log n in the crossings, not n^2.  ``heapq`` is imported only on that
    path.
    The modulus m is the gcd over all crossings of x + z - 2y, 0 when each
    one holds over the integers.  Mod any divisor d of m the labels hold
    x + z = 2y, so as a letter map they respect each relation xy = yz in
    AS(Z_d, labels), and in SAS for an even d, where x and z share a parity
    (Fox 1962; Przytycki 1998).  Returns the labels by arc and m, or None
    when some arc stays unlabeled.
    """
    labels = [anchors.get(arc) for arc in range(diagram.arc_count)]
    crossings = diagram.crossings

    def fire(i: int) -> int | None:
        """Label the other under arc of crossing i, and return it, if the
        crossing has its over arc and one under arc labeled."""
        c = crossings[i]
        x, z = c.under
        if labels[c.over] is None or (labels[x] is None) == (labels[z] is None):
            return None
        if labels[x] is None:
            x, z = z, x
        labels[z] = 2 * labels[c.over] - labels[x]
        return z

    # Scans 0 and 1 are plain passes, each run only while an arc is
    # unlabeled: the first labels every arc of the stated families from
    # either anchor rule, and the two finish 17 of the 27 probe colorings
    # up to 3,3,3, so those never import heapq.  A scan that labels no arc
    # ends the scans with an arc unlabeled, as on a diagram with a
    # component the anchors do not reach.
    for _ in range(2):
        unlabeled = labels.count(None)
        if not unlabeled:
            break
        for i in range(len(crossings)):
            fire(i)
        if labels.count(None) == unlabeled:
            return None
    if None in labels:
        from heapq import heappop, heappush  # loaded only on this path

        at: list[list[int]] = [[] for _ in labels]  # the crossings at each arc
        for i, c in enumerate(crossings):
            for arc in set(c.arcs()):
                at[arc].append(i)
        # Scan 2 visits every crossing, as scan 1 may have readied any
        # behind the one that fired.  After that a crossing turns ready only
        # when one of its arcs is labeled, and the scans reach it next later
        # in the same scan if it comes after the crossing that labeled the
        # arc, else in the next scan: it is queued for that place, and fires
        # there if it is ready then.
        queue = [(2, i) for i in range(len(crossings))]  # sorted: a heap
        while queue:
            scan, i = heappop(queue)
            z = fire(i)
            if z is not None:
                for j in at[z]:
                    heappush(queue, (scan + (j <= i), j))
    if None in labels:
        return None
    residuals = [
        labels[c.under[0]] + labels[c.under[1]] - 2 * labels[c.over] for c in diagram.crossings
    ]
    return labels, gcd(*residuals)


def fox_target(coloring: tuple[list[int], int]) -> tuple[AltSumSemigroup, tuple[int, ...]]:
    """The target and letter map of a Fox coloring (``fox_coloring``):
    AS(Z_m, labels), strong for an even m, with the labels mod m as the
    letter map and m = 1 when the coloring holds over the integers."""
    labels, m = coloring
    m = m or 1
    phi = tuple(v % m for v in labels)
    return AltSumSemigroup(Zmod(m), phi, strong=m % 2 == 0), phi


def _fox_target(diagram: Diagram) -> tuple[AltSumSemigroup, tuple[int, ...]]:
    """The Fox target of a family's diagram, colored from arc 0 to 0 and
    arc 1 to 1 (arc 0 alone for a one-arc diagram), the letter map that
    `verify` prints."""
    coloring = fox_coloring(diagram, {a: a for a in range(min(2, diagram.arc_count))})
    if coloring is None:
        raise InternalConsistencyError("a family's Fox coloring left an arc unlabeled")
    return fox_target(coloring)


def _odd_product_note(n: int, l: int) -> tuple[str, ...]:
    note = f"twist product {n}*{l} is odd; the isomorphism is only asserted for even products"
    return (note,) if n * l % 2 else ()


def _conjecture_note(*twists: int) -> tuple[str, ...]:
    return ("the target is Vernitski's conjecture, checked one diagram and one degree at a time",)


def _no_notes(*params: int) -> tuple[str, ...]:
    return ()


class Family(namedtuple("Family", "arity build notes", defaults=(_no_notes,))):
    """One family kind, read through its diagram's Fox target.  ``arity`` is
    its parameter count (None: any number) and ``notes`` maps the parameters
    to the notes its reports carry."""

    __slots__ = ()

    def target(self, *params):
        """(its diagram's Fox target, letter map indexed by arc, notes)."""
        return (*_fox_target(self.build(*params)), self.notes(*params))


FAMILIES = {
    "trivial": Family(0, build_trivial),
    "hopf": Family(0, lambda: build_torus2(2)),
    "torus2": Family(1, build_torus2),
    "twist": Family(1, _build_twist),
    "dtw": Family(2, build_double_twist, _odd_product_note),
    "conway": Family(None, lambda *twists: conway_with_traces(twists)[0], _conjecture_note),
}


class FamilySpec(namedtuple("FamilySpec", "kind params", defaults=((),))):
    __slots__ = ()
    __setattr__ = __delattr__ = refuse_assignment

    def __str__(self):
        if not self.params:
            return self.kind
        return f"{self.kind}:{','.join(map(str, self.params))}"


def parse_family_spec(text: str) -> FamilySpec:
    """Parse 'trivial', 'hopf', 'torus2:5', 'dtw:2,2', 'conway:2,1', ..."""
    head, _, tail = text.partition(":")
    head = head.strip()
    if head not in FAMILIES:
        raise ParameterError(f"unknown family {head!r}")
    arity = FAMILIES[head].arity
    if arity == 0:
        if tail:
            raise ParameterError(f"family {head!r} takes no parameters")
        return FamilySpec(head)
    if not tail:
        raise ParameterError(f"family {head!r} needs parameters, e.g. {head}:2")
    try:
        params = tuple(int(x) for x in tail.split(","))
    except ValueError:
        raise ParameterError(f"bad parameter list {tail!r} for family {head!r}") from None
    if arity is not None and len(params) != arity:
        raise ParameterError(f"family {head!r} takes {arity} parameter(s), got {len(params)}")
    if sum(params) > MAX_ARCS:
        raise ParameterError(
            f"family {head!r} with parameters summing to {sum(params)} is too large; "
            f"diagrams have at most {MAX_ARCS} arcs"
        )
    return FamilySpec(head, params)


def build_family(spec: FamilySpec) -> Diagram:
    if spec.kind not in FAMILIES:
        raise ParameterError(f"unknown family {spec.kind!r}")
    return FAMILIES[spec.kind].build(*spec.params)


# -- custom diagrams ---------------------------------------------------------


def _json_int(value, what: str) -> int:
    """A JSON integer as it stands: no float, string or bool is coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"malformed diagram data: {what} must be an integer, got {value!r}")
    return value


def diagram_from_dict(data: dict) -> Diagram:
    """Read {"arcs": k, "crossings": [{"over": i, "under": [j1, j2]}, ...]}.

    Anything of another shape or type raises ParameterError."""
    if not isinstance(data, dict) or "arcs" not in data or "crossings" not in data:
        raise ParameterError(
            'malformed diagram data: expected an object with "arcs" and "crossings"'
        )
    arcs = _json_int(data["arcs"], '"arcs"')
    if arcs > MAX_ARCS:
        raise ParameterError(f"diagram has {arcs} arcs; at most {MAX_ARCS} are supported")
    raw = data["crossings"]
    if not isinstance(raw, list):
        raise ParameterError(f'malformed diagram data: "crossings" must be a list, got {raw!r}')
    crossings = []
    for entry in raw:
        if not isinstance(entry, dict) or "over" not in entry or "under" not in entry:
            raise ParameterError(
                f'malformed crossing entry {entry!r}: expected an object with "over" and "under"'
            )
        under = entry["under"]
        if not isinstance(under, list) or len(under) != 2:
            raise ParameterError(
                f'malformed crossing entry {entry!r}: "under" must be a list of two arcs'
            )
        over = _json_int(entry["over"], '"over"')
        u1, u2 = (_json_int(u, '"under" entry') for u in under)
        crossings.append(crossing(over, u1, u2))
    return Diagram(arcs, tuple(crossings))


def diagram_to_dict(d: Diagram) -> dict:
    return {
        "arcs": d.arc_count,
        "crossings": [{"over": c.over, "under": list(c.under)} for c in d.crossings],
    }


def read_text(path, what: str) -> str:
    """The text of a UTF-8 file; other bytes raise ParameterError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise ParameterError(f"{what} file {path!r} is not UTF-8 text") from None


def load_pd(path) -> Diagram:
    text = read_text(path, "diagram")
    try:
        data = json.loads(text)
    except RecursionError:
        raise ParameterError(f"diagram file {path!r} is nested too deeply to read") from None
    return diagram_from_dict(data)


# -- Reidemeister moves -------------------------------------------------------


class ReidemeisterMove(
    namedtuple("ReidemeisterMove", "kind direction arc end over_arc crossings")
):
    """A local diagram rewrite.

    kind/direction select the rewrite; the remaining fields address it:

    * r1 insert: ``arc`` and ``end`` (which of the arc's under-endpoints,
      in crossing order, the kink sits before; 0 for a closed arc).
    * r2 insert: ``arc`` (pushed-under arc), ``over_arc``, ``end``.
    * r1 remove: ``crossings`` = (kink crossing index,).
    * r2 remove: ``crossings`` = the two crossing indices of the bigon.
    * r3: ``crossings`` = the three crossing indices of the triangle.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        direction: str = "insert",
        arc: int | None = None,
        end: int = 0,
        over_arc: int | None = None,
        crossings: tuple[int, ...] = (),
    ):
        if kind not in ("r1", "r2", "r3"):
            raise ParameterError(f"unknown move kind {kind!r}")
        if direction not in ("insert", "remove"):
            raise ParameterError(f"unknown move direction {direction!r}")
        if kind == "r3" and direction != "insert":
            raise ParameterError("the triangle move has no separate remove direction")
        return tuple.__new__(cls, (kind, direction, arc, end, over_arc, crossings))


def _extended_names(d: Diagram, extra: int) -> tuple[str, ...]:
    return tuple(_arc_names(d)) + tuple(f"n{d.arc_count + i}" for i in range(extra))


def _require_arc(d: Diagram, arc: int | None, role: str) -> int:
    if arc is None or not 0 <= arc < d.arc_count:
        raise MoveError(f"{role} arc {arc} is not an arc of the diagram")
    return arc


def _split_site(d: Diagram, arc: int, end: int) -> tuple[int, int] | None:
    """The (crossing, slot) whose under-reference moves past the insertion,
    or None for an arc with no under-endpoints."""
    ends = d.arc_endpoints(arc)
    if not ends:
        if end != 0:
            raise MoveError(f"arc {arc} has no under-endpoints; end must be 0")
        return None
    if not 0 <= end < len(ends):
        raise MoveError(f"arc {arc} has {len(ends)} under-endpoints; end {end} out of range")
    return ends[end]


def _replace_under(c: Crossing, slot_arc_old: int, new: int, slot: int) -> Crossing:
    under = list(c.under)
    assert under[slot] == slot_arc_old
    under[slot] = new
    return Crossing(c.over, (under[0], under[1]))


def _quotient_labels(arc_count: int, groups: list) -> tuple[list[int], list[int]]:
    """Dense arc labels after identifying the arcs of each group.

    Overlapping groups merge transitively.  Classes are numbered in order of
    their smallest arc; the second list holds those smallest arcs.
    """
    parent = list(range(arc_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in groups:
        roots = {find(a) for a in group}
        keep = min(roots)
        for r in roots:
            parent[r] = keep
    dense: dict[int, int] = {}
    label = [dense.setdefault(find(a), len(dense)) for a in range(arc_count)]
    return label, list(dense)


def _merge_arcs(d: Diagram, groups: list[set[int]], drop_crossings: set[int]) -> Diagram:
    """Quotient arcs by the given groups, drop crossings, relabel densely."""
    label, kept_arcs = _quotient_labels(d.arc_count, groups)
    crossings = tuple(
        crossing(label[c.over], label[c.under[0]], label[c.under[1]])
        for ci, c in enumerate(d.crossings)
        if ci not in drop_crossings
    )
    names = None
    if d.arc_names is not None:
        names = tuple(d.arc_names[a] for a in kept_arcs)
    return Diagram(len(kept_arcs), crossings, arc_names=names)


def apply_reidemeister(d: Diagram, move: ReidemeisterMove) -> Diagram:
    if move.kind == "r1" and move.direction == "insert":
        arc = _require_arc(d, move.arc, "kink")
        site = _split_site(d, arc, move.end)
        p = d.arc_count
        crossings = list(d.crossings)
        if site is not None:
            ci, slot = site
            crossings[ci] = _replace_under(crossings[ci], arc, p, slot)
        crossings.append(crossing(p, arc, p))
        return Diagram(d.arc_count + 1, tuple(crossings), arc_names=_extended_names(d, 1))

    if move.kind == "r2" and move.direction == "insert":
        arc = _require_arc(d, move.arc, "under")
        over = _require_arc(d, move.over_arc, "over")
        site = _split_site(d, arc, move.end)
        mid, p = d.arc_count, d.arc_count + 1
        crossings = list(d.crossings)
        if site is not None:
            ci, slot = site
            crossings[ci] = _replace_under(crossings[ci], arc, p, slot)
        crossings.append(crossing(over, arc, mid))
        crossings.append(crossing(over, mid, p))
        return Diagram(d.arc_count + 2, tuple(crossings), arc_names=_extended_names(d, 2))

    if move.kind == "r1" and move.direction == "remove":
        (ci,) = _check_crossing_indices(d, move.crossings, 1)
        c = d.crossings[ci]
        if c.over not in c.under:
            raise MoveError(f"crossing {ci} is not a kink: over arc is not an under arc")
        other = c.under[0] if c.under[1] == c.over else c.under[1]
        groups = [] if other == c.over else [{other, c.over}]
        return _merge_arcs(d, groups, {ci})

    if move.kind == "r2" and move.direction == "remove":
        i, j = _check_crossing_indices(d, move.crossings, 2)
        a, b = d.crossings[i], d.crossings[j]
        if a.over != b.over:
            raise MoveError("the two crossings do not share an over arc")
        shared = set(a.under) & set(b.under)
        if len(shared) != 1:
            raise MoveError("the two under pairs must share exactly one middle arc")
        mid = shared.pop()
        for ci, c in enumerate(d.crossings):
            if ci in (i, j):
                continue
            if mid in c.arcs():
                raise MoveError(f"middle arc {mid} is used by crossing {ci}; not a free bigon")
        if a.over == mid:
            raise MoveError("middle arc may not be the over arc")
        ends = set(a.under) | set(b.under)
        return _merge_arcs(d, [ends], {i, j})

    if move.kind == "r3":
        return _apply_triangle(d, move)

    raise MoveError(f"unsupported move {move.kind}/{move.direction}")


def _check_crossing_indices(d: Diagram, idx: tuple[int, ...], want: int) -> tuple[int, ...]:
    if len(idx) != want or len(set(idx)) != want:
        raise MoveError(f"move needs {want} distinct crossing indices, got {idx}")
    for ci in idx:
        if not 0 <= ci < len(d.crossings):
            raise MoveError(f"crossing index {ci} out of range")
    return idx


def _apply_triangle(d: Diagram, move: ReidemeisterMove) -> Diagram:
    """Slide the middle strand of a triangle across the top-bottom crossing.

    The three crossings must look like, for some arcs t, m1, m2, b1, b2, b3:

        (t; m1, m2)   top over middle
        (ms; bi, bmid) middle over bottom, ms one of m1/m2
        (t; bmid, bk) top over bottom

    where the two bottom under-pairs share exactly the arc bmid.  The
    rewrite toggles the middle crossing to the other middle segment and
    swaps the two bottom under-pairs; arc count is unchanged and applying
    the move again at the same site restores the diagram.
    """
    i, j, k = _check_crossing_indices(d, move.crossings, 3)
    triple = {i: d.crossings[i], j: d.crossings[j], k: d.crossings[k]}
    matches = []
    for mb_idx in (i, j, k):
        t_idx = [x for x in (i, j, k) if x != mb_idx]
        c_mb = triple[mb_idx]
        for tm_idx, tb_idx in (t_idx, t_idx[::-1]):
            c_tm, c_tb = triple[tm_idx], triple[tb_idx]
            if c_tm.over != c_tb.over:
                continue
            t = c_tm.over
            if c_mb.over not in c_tm.under or c_mb.over == t:
                continue
            shared = set(c_mb.under) & set(c_tb.under)
            if len(shared) != 1:
                continue
            matches.append((tm_idx, mb_idx, tb_idx))
    if not matches:
        raise MoveError("the three crossings do not form a slideable triangle")
    matches.sort()
    tm_idx, mb_idx, tb_idx = matches[0]
    c_tm, c_mb, c_tb = triple[tm_idx], triple[mb_idx], triple[tb_idx]
    other_mid = c_tm.under[0] if c_tm.under[1] == c_mb.over else c_tm.under[1]
    crossings = list(d.crossings)
    crossings[mb_idx] = Crossing(other_mid, c_tb.under)
    crossings[tb_idx] = Crossing(c_tb.over, c_mb.under)
    return Diagram(d.arc_count, tuple(crossings), arc_names=d.arc_names)
