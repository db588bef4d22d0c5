"""Growth series, skew growth, and dimension estimates.

The growth series of a graded semigroup with an identity adjoined is
P(t) = 1 + sum_d c_d t^d where c_d counts the elements of degree d.  The
skew series is its formal reciprocal, N(t) = 1/P(t).  A series is held as
its first `terms` coefficients, with an exact rational form attached when
one is known or detected.  A family's series is read off the levels of its
target semigroup in ``diagrams.FAMILIES``, and carries the form num/(1 - t)
where those levels settle; where they shift instead, its counts past the
levels read are exact sums, with no form claimed.  A series built from a
recurrence alone (a settled family's form, the skew of a series with a
form, and the skew of one without, from a quotient that agrees with 1/P
through its terms) expands the coefficients only when they are first
read.  The CLI prints every series from its recurrence, which for a
series given by its coefficients is coefficients/1.  Every skew so takes
time linear in the terms where the counts are a polynomial of degree
below 3 from some degree on, as those of every built-in family are.

Dimension estimates follow the usual pattern for graded growth: the
cumulative dimension 1 + c_1 + ... + c_d grows like d^k exactly when P has
a pole of order k at t = 1, and the estimate falls back to finite
differences of the cumulative sequence, then to a ratio test for
exponential growth, when no exact form is available.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import accumulate

from .diagrams import FAMILIES, Diagram, FamilySpec
from .errors import (
    DEFAULT_WORD_BUDGET,
    InternalConsistencyError,
    ParameterError,
    refuse_assignment,
)

# -- small polynomial helpers (ascending coefficient tuples) -----------------


def _trim(p) -> tuple[int, ...]:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


def _mul(p, q) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _divide_by_one_minus_t(p) -> tuple[int, ...] | None:
    """Quotient p / (1 - t) when exact, else None.  The quotient's
    coefficients are the partial sums of p, and exactness means the full
    sum p(1) vanishes."""
    sums = []
    acc = 0
    for a in p:
        acc += a
        sums.append(acc)
    if sums[-1] != 0:
        return None
    return _trim(sums[:-1]) if len(sums) > 1 else (0,)


class RationalForm(namedtuple("RationalForm", "numerator denominator")):
    """numerator/denominator, both ascending, denominator constant term 1."""

    __slots__ = ()
    __setattr__ = __delattr__ = refuse_assignment

    def __new__(cls, numerator: tuple[int, ...], denominator: tuple[int, ...]):
        numerator, denominator = _trim(numerator), _trim(denominator)
        if denominator[0] != 1:
            raise ParameterError(f"denominator constant term must be 1, got {denominator[0]}")
        return tuple.__new__(cls, (numerator, denominator))

    def expand(self, terms: int) -> tuple[int, ...]:
        return tuple(self.iter_coefficients(terms))

    def iter_coefficients(self, terms: int, number=int):
        """Yield c_0 .. c_{terms-1} by c_i = num_i - sum_j den_j c_{i-j}, in
        the arithmetic of `number`, keeping only the last `order` values.

        With ``number=Decimal`` the steps round under the caller's decimal
        context, so a caller that needs exact values sets one that cannot
        round, as ``cli._text_coefficients`` does.
        """
        num = [number(a) for a in self.numerator]
        negated = [number(-d) for d in self.denominator[1:]]
        recent = deque(maxlen=len(negated))  # c_{i-1}, c_{i-2}, ...
        zero = number(0)
        for i in range(terms):
            c = num[i] if i < len(num) else zero
            for d, r in zip(negated, recent):
                c += d * r
            yield c
            recent.appendleft(c)

    def to_json_dict(self) -> dict:
        return {"num": list(self.numerator), "den": list(self.denominator)}


class _Series:
    """Coefficients given as a tuple, or the first `terms` of a recurrence
    num/den, expanded on their first read and then kept.  Given
    coefficients are their own recurrence, coefficients/1, so the CLI
    prints every series from its recurrence.

    `rational` is the series' exact form, where one is known, and is then
    also its recurrence.  The skew of a series with no form has a
    recurrence that agrees with the reciprocal through `terms` coefficients
    only, and keeps `rational` None.
    """

    __slots__ = ()

    @classmethod
    def from_rational(cls, rational: RationalForm, terms: int, **fields):
        """The series of the first `terms` coefficients of `rational`, with
        the constructor's other `fields`."""
        series = cls._from_recurrence(rational, terms, **fields)
        series.rational = rational
        return series

    @classmethod
    def _from_recurrence(cls, recurrence: RationalForm, terms: int, **fields):
        """`from_rational` with no form claimed: `recurrence` gives the
        coefficients, and `rational` stays None."""
        if terms < 1:
            raise ParameterError(f"need at least one term, got {terms}")
        series = cls(recurrence.numerator[:1], **fields)  # checks the constant term
        series._coefficients, series._recurrence, series.terms = None, recurrence, terms
        return series

    @property
    def coefficients(self) -> tuple[int, ...]:
        if self._coefficients is None:
            self._coefficients = self._recurrence.expand(self.terms)
        return self._coefficients

    def json_fields(self) -> dict:
        """`to_json_dict()` without the coefficients, which it leaves unexpanded."""
        return {
            "rational": self.rational.to_json_dict() if self.rational else None,
            "source": self.source,
        }

    def to_json_dict(self) -> dict:
        return {"coefficients": list(self.coefficients), **self.json_fields()}


class GrowthSeries(_Series):
    """Coefficients of P(t), starting with the constant term 1."""

    __slots__ = ("_coefficients", "_recurrence", "terms", "rational", "source", "warnings")

    def __init__(
        self,
        coefficients: tuple[int, ...],
        rational: RationalForm | None = None,
        source: str = "counts",
        warnings: tuple[str, ...] = (),
    ):
        if not coefficients or coefficients[0] != 1:
            raise ParameterError("growth coefficients must start with the constant term 1")
        if rational is not None and rational.expand(len(coefficients)) != tuple(coefficients):
            raise InternalConsistencyError(
                "rational form does not expand to the stated coefficients"
            )
        self._coefficients = coefficients
        self._recurrence = rational or RationalForm(coefficients, (1,))
        self.terms = len(coefficients)
        self.rational = rational
        self.source = source
        self.warnings = warnings

    def counts(self) -> tuple[int, ...]:
        return self.coefficients[1:]

    def json_fields(self) -> dict:
        return {**super().json_fields(), "warnings": list(self.warnings)}


class SkewSeries(_Series):
    """Coefficients of N(t) = 1/P(t), starting with 1."""

    __slots__ = ("_coefficients", "_recurrence", "terms", "rational", "source")

    def __init__(
        self,
        coefficients: tuple[int, ...],
        rational: RationalForm | None = None,
        source: str = "counts",
    ):
        self._coefficients = coefficients
        self._recurrence = rational or RationalForm(coefficients, (1,))
        self.terms = len(coefficients)
        self.rational = rational
        self.source = source


def _constant_tail(coefficients) -> RationalForm:
    """num/(1 - t) for a series whose last coefficient holds at every greater
    degree: num is the coefficients times 1 - t, cut after the last one."""
    return RationalForm(_mul(coefficients, (1, -1))[:-1], (1, -1))


# The last this many counts must agree before a tail is called settled.
STABLE_WINDOW = 3
# skew_growth tries the denominators P (1 - t)^j for j up to this.
SKEW_DEGREES = 3


def growth_from_counts(counts) -> GrowthSeries:
    """Wrap per-degree counts; attach num/(1-t) when the tail has settled.

    The rational form asserts the counts continue at their last value.  That
    is an extrapolation from the counts alone, claimed only when the last
    STABLE_WINDOW counts agree.
    """
    counts = tuple(int(c) for c in counts)
    if not counts:
        raise ParameterError("need at least one count")
    if any(c < 1 for c in counts):
        raise ParameterError("counts must be positive")
    coefficients = (1,) + counts
    rational = None
    if len(counts) >= STABLE_WINDOW and len(set(counts[-STABLE_WINDOW:])) == 1:
        rational = _constant_tail(coefficients)
    return GrowthSeries(coefficients, rational=rational, source="counts")


def skew_growth(growth: GrowthSeries, terms: int | None = None) -> SkewSeries:
    """Formal reciprocal of the growth series, n_0 = 1 and
    n_k = -(p_1 n_{k-1} + ... + p_k n_0).

    When the growth series has a rational form num/den, the reciprocal is
    den/num and is expanded by that linear recurrence, in time linear in
    the terms; a power-series reciprocal is unique, so the coefficients are
    the same.

    With no form, the reciprocal is expanded from (1 - t)^j / Q_j, where
    Q_j = P (1 - t)^j cut after `terms` coefficients, which agrees with 1/P
    through those coefficients for every j.  Of j = 0..SKEW_DEGREES the
    shortest Q_j is kept: counts that are a polynomial of degree below j
    from degree d on, as hopf's t + 1 and even torus2:2k's k(t + 1), give
    a Q_j of at most d + j coefficients, so the expansion is linear in the
    terms (skew --family torus2:4 at 10 000 terms: 17.8 s as a power-series
    reciprocal, 0.19 s so, on a 2-vCPU host).  Other counts keep j = 0,
    the power-series reciprocal.  The series keeps `rational` None: the
    counts stop at the last term, and so does the claim of the quotient.
    """
    if terms is None:
        terms = growth.terms
    terms = max(terms, 1)  # n_0 is always given
    if growth.rational is None:
        if terms > growth.terms:
            raise ParameterError(
                f"only {growth.terms} growth coefficients known; "
                f"cannot expand the reciprocal to {terms} terms"
            )
        num = power = (1,)
        den = q = _trim(growth.coefficients[:terms])
        for _ in range(SKEW_DEGREES):
            q = _trim(_mul(q, (1, -1))[:terms])
            power = _mul(power, (1, -1))
            if len(q) < len(den):
                num, den = power, q
        return SkewSeries._from_recurrence(RationalForm(num, den), terms, source=growth.source)
    rational = RationalForm(growth.rational.denominator, growth.rational.numerator)
    return SkewSeries.from_rational(rational, terms, source=growth.source)


# -- dimension estimation -----------------------------------------------------


class GkEstimate(namedtuple("GkEstimate", "value infinite method evidence")):
    """`method` is "rational", "difference", "ratio" or "unresolved"."""

    __slots__ = ()

    def label(self) -> str:
        if self.infinite:
            return "infinity"
        if self.value is None:
            return "unresolved"
        return str(self.value)

    def to_json_dict(self) -> dict:
        return {"gk": self.label(), "method": self.method, "evidence": self.evidence}


def _pole_order_at_one(rational: RationalForm) -> int | None:
    """Order of the pole of num/den at t = 1 when den is a pure power of
    (1 - t); None when it is not."""
    num, den = rational.numerator, rational.denominator
    while True:
        n2 = _divide_by_one_minus_t(num)
        d2 = _divide_by_one_minus_t(den)
        if n2 is None or d2 is None:
            break
        num, den = n2, d2
    order = 0
    while den != (1,):
        d2 = _divide_by_one_minus_t(den)
        if d2 is None:
            return None
        den = d2
        order += 1
    if sum(num) == 0:
        return None
    return order


def _differences(values):
    return tuple(b - a for a, b in zip(values, values[1:]))


# The difference test needs this many vanishing tail entries; the ratio
# test needs this many tail ratios of at least 1 + RATIO_DELTA.
DIFF_WINDOW = 3
RATIO_WINDOW = 4
RATIO_DELTA = 0.2


def gk_dimension(source, method: str | None = None) -> GkEstimate:
    """Estimate the growth rate exponent of the cumulative dimension.

    source is a GrowthSeries or a plain sequence of per-degree counts.  With
    an exact rational form the answer is the pole order of P(t) at t = 1.
    Otherwise the finite differences of the cumulative dimensions are
    scanned for the first order whose tail vanishes (polynomial growth of
    one degree less), and failing that a ratio test on the tail decides
    exponential growth.
    """
    if isinstance(source, GrowthSeries):
        series = source
    else:
        counts = tuple(int(c) for c in source)
        series = None
    if method not in (None, "rational", "difference", "ratio"):
        raise ParameterError(f"unknown method {method!r}")

    if method in (None, "rational") and series is not None and series.rational is not None:
        order = _pole_order_at_one(series.rational)
        if order is not None:
            return GkEstimate(
                value=order,
                infinite=False,
                method="rational",
                evidence={"pole_order": order, "rational": series.rational.to_json_dict()},
            )
        if method == "rational":
            return GkEstimate(
                value=None,
                infinite=False,
                method="unresolved",
                evidence={"reason": "denominator is not a power of 1-t"},
            )
    if method == "rational":
        raise ParameterError("no rational form available for the rational method")
    if series is not None:
        counts = series.counts()  # only now: a form's series expands here

    cumulative = list(accumulate(counts, initial=1))

    if method in (None, "difference"):
        level = tuple(cumulative)
        for order in range(1, len(cumulative)):
            level = _differences(level)
            if len(level) < DIFF_WINDOW:
                break
            if all(v == 0 for v in level[-DIFF_WINDOW:]):
                return GkEstimate(
                    value=order - 1,
                    infinite=False,
                    method="difference",
                    evidence={
                        "difference_order": order,
                        "cumulative": cumulative,
                    },
                )
        if method == "difference":
            return GkEstimate(
                value=None,
                infinite=False,
                method="unresolved",
                evidence={"reason": "no vanishing difference order", "cumulative": cumulative},
            )

    ratios = [
        b / a for a, b in zip(cumulative, cumulative[1:]) if a > 0
    ][-RATIO_WINDOW:]
    if len(ratios) >= RATIO_WINDOW and all(r >= 1 + RATIO_DELTA for r in ratios):
        return GkEstimate(
            value=None,
            infinite=True,
            method="ratio",
            evidence={"ratios": [round(r, 4) for r in ratios], "threshold": 1 + RATIO_DELTA},
        )
    return GkEstimate(
        value=None,
        infinite=False,
        method="unresolved",
        evidence={"cumulative": cumulative},
    )


# -- dimension comparison across a diagram rewrite ----------------------------


class DimensionComparison(
    namedtuple(
        "DimensionComparison", "degree left_count right_count left_cumulative right_cumulative"
    )
):
    __slots__ = ()

    @property
    def equal(self) -> bool:
        return self.left_cumulative == self.right_cumulative

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "left": {"count": self.left_count, "cumulative": self.left_cumulative},
            "right": {"count": self.right_count, "cumulative": self.right_cumulative},
            "equal": self.equal,
        }


class RmoveReport(namedtuple("RmoveReport", "description max_len pad degrees")):
    __slots__ = ()

    @property
    def all_equal(self) -> bool:
        return all(d.equal for d in self.degrees)

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "max_len": self.max_len,
            "pad": self.pad,
            "degrees": [d.to_json_dict() for d in self.degrees],
            "all_equal": self.all_equal,
        }


def reidemeister_dimension_check(
    left: Diagram,
    right: Diagram,
    max_len: int,
    pad: int = 2,
    budget: int = DEFAULT_WORD_BUDGET,
    description: str = "",
) -> RmoveReport:
    """Compare cumulative class counts of two diagrams degree by degree.

    The counts are the closure's upper bounds, and a knot-preserving move
    is expected to keep the Gelfand-Kirillov dimension, not every count:
    R2 on ``dtw:2,2`` gives 4, 5, 5, ... against 5, 5, 5, ....  Each
    side's closure is bounded by its own diagram's Fox target
    (``oracle.diagram_classes``), so it stops where its counts are final,
    with the counts of the closure to the full horizon.
    """
    from .oracle import diagram_classes

    lp = diagram_classes(left, max_len, pad=pad, budget=budget)
    rp = diagram_classes(right, max_len, pad=pad, budget=budget)
    left_cumulative = tuple(accumulate(lp.degree_counts, initial=1))
    right_cumulative = tuple(accumulate(rp.degree_counts, initial=1))
    rows = []
    for degree in range(1, max_len + 1):
        rows.append(
            DimensionComparison(
                degree=degree,
                left_count=lp.degree_counts[degree - 1],
                right_count=rp.degree_counts[degree - 1],
                left_cumulative=left_cumulative[degree],
                right_cumulative=right_cumulative[degree],
            )
        )
    return RmoveReport(
        description=description, max_len=max_len, pad=pad, degrees=tuple(rows)
    )


def growth_for_family(kind: str, params: tuple[int, ...], terms: int = 10) -> GrowthSeries:
    """The first `terms` coefficients of a family's growth series, read off
    its target semigroup in ``diagrams.FAMILIES`` in one pass over its levels.

    The pass reads the levels up to length `terms`, one past the last
    coefficient, and stops at a checked shift (``level_counts``).  Where
    they settle, every later count is the last one read, so the form
    num/(1 - t) is exact.  The targets with an odd modulus settle by length
    3, and give the paper's forms (1 + (n-1)t)/(1 - t) for odd torus2:n and
    (1 + (n+l-1)t + (nl-n-l+1)t^2)/(1 - t) for dtw:n,l with nl even,
    twist:n being dtw:n,2.  The strong targets, those with an even modulus
    (hopf, even torus2 and dtw with nl odd), never settle: their levels
    shift by two rows every two steps from length 0 or 1, so 4 levels give
    every count, each later one the count two before it plus a fixed gain.
    Their series is those counts alone, with no form claimed.  Every series
    carries its family's notes: a conway series is its target's, which is
    the knot's only as far as Vernitski's conjecture holds.
    """
    if kind not in FAMILIES:
        raise ParameterError(f"unknown family {kind!r}")
    sg, _, notes = FAMILIES[kind].target(*params)
    source = str(FamilySpec(kind, params))
    counts, settled = sg.level_counts(terms)
    if settled:
        return GrowthSeries.from_rational(
            _constant_tail(counts), terms, source=source, warnings=notes
        )
    return GrowthSeries(counts[:terms], source=source, warnings=notes)
