"""Per-layer tracing from outside the package.

``Tracer.install`` wraps knotgrowth's public functions and replaces every
module binding of each one, because ``cli``, ``growth`` and ``oracle`` each
import ``enumerate_classes`` (and others) by name.  Each wrapped call is a
span with a parent, kept in memory.  Hot per-word calls
(``AltSumSemigroup.class_of``, ``count_elements``) are aggregated as a
count and a total time instead of one span per call.

Every ``*_s`` metric is self time: the time inside the layer's calls minus
the traced calls made from them, so the layers and ``trace.other_s`` (the
part of each case no wrapper covers) add up to the traced ``solve_s``.
"""

import sys
import time
from collections import Counter, defaultdict

from knotgrowth import altsum, cli, diagrams, growth, oracle, presentation
from knotgrowth.errors import ResourceBudgetError


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []  # [case, span id, parent id, layer, start, end]
        self._stack = []  # [span id, seconds spent in traced children]
        self._case = None

    # -- spans ---------------------------------------------------------------

    def case(self, case_id: str) -> list:
        self._case = case_id
        frame = [len(self.spans), 0.0]
        self.spans.append([case_id, frame[0], None, "case", time.perf_counter(), None])
        self._stack.append(frame)
        return frame

    def end_case(self, frame: list) -> None:
        span = self.spans[frame[0]]
        span[5] = time.perf_counter()
        self._stack.pop()
        self.self_s["trace.other"] += span[5] - span[4] - frame[1]

    def wrap(self, fn, layer: str, on_result=None, on_error=None):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else None
            spans.append([self._case, frame[0], parent, layer, time.perf_counter(), None])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                span = spans[frame[0]]
                span[5] = time.perf_counter()
                elapsed = span[5] - span[4]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
            if on_result:
                on_result(result, args)
            return result

        return traced

    def wrap_hot(self, fn, layer: str, on_result=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def aggregated(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if stack:
                    stack[-1][1] += elapsed
                self_s[layer] += elapsed
                calls[layer] += 1
            if on_result:
                on_result(result, args)
            return result

        return aggregated

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "knotgrowth"]

        def patch(module, name, wrapped_of):
            original = getattr(module, name)
            wrapped = wrapped_of(original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

        counts = self.counts

        def closure_done(partition, args):
            k, horizon = partition.alphabet_size, partition.horizon
            counts["oracle.universe_words"] += sum(k**h for h in range(1, horizon + 1))
            counts["oracle.classes"] += sum(partition.degree_counts)

        def closure_refused(exc):
            if isinstance(exc, ResourceBudgetError):
                counts["oracle.budget_refusals"] += 1

        def verdicts(report, args):
            for d in report.degrees:
                counts[f"oracle.{d.verdict}_degrees"] += 1

        def states(count, args):
            counts["altsum.states"] += count

        def relations(pres, args):
            counts["presentation.relations"] += len(pres.relations)

        def terms(series, args):
            counts["growth.terms"] += len(series.coefficients)

        patch(oracle, "enumerate_classes",
              lambda f: self.wrap(f, "oracle.closure", closure_done, closure_refused))
        patch(oracle, "verify_isomorphism", lambda f: self.wrap(f, "oracle.verify", verdicts))
        patch(presentation, "presentation_from_diagram",
              lambda f: self.wrap(f, "presentation.extract", relations))
        for name in ("build_family", "load_pd", "apply_reidemeister", "build_torus2",
                     "build_double_twist", "conway_with_traces"):
            patch(diagrams, name, lambda f: self.wrap(f, "diagrams.build"))
        patch(growth, "growth_for_family", lambda f: self.wrap(f, "growth.series", terms))
        patch(growth, "skew_growth", lambda f: self.wrap(f, "growth.skew", terms))
        patch(growth, "gk_dimension", lambda f: self.wrap(f, "growth.gk"))
        patch(cli, "main", lambda f: self.wrap(f, "cli"))

        partition = oracle.CongruencePartition
        partition.classes_at_degree = self.wrap(
            partition.classes_at_degree, "oracle.classes_at_degree"
        )
        semigroup = altsum.AltSumSemigroup
        semigroup.class_of = self.wrap_hot(semigroup.class_of, "altsum.class_of")
        semigroup.count_elements = self.wrap_hot(
            semigroup.count_elements, "altsum.count", states
        )

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        s, calls, counts = self.self_s, self.calls, self.counts
        closure_s = s["oracle.closure"]
        universe = counts["oracle.universe_words"]
        return {
            "oracle.closure_s": closure_s,
            "oracle.closure_calls": calls["oracle.closure"],
            "oracle.universe_words": universe,
            "oracle.closure_words_per_s": universe / closure_s if closure_s else 0.0,
            "oracle.classes": counts["oracle.classes"],
            "oracle.classes_at_degree_s": s["oracle.classes_at_degree"],
            "oracle.verify_self_s": s["oracle.verify"],
            "oracle.verified_degrees": counts["oracle.verified_degrees"],
            "oracle.unresolved_degrees": counts["oracle.unresolved_degrees"],
            "oracle.budget_refusals": counts["oracle.budget_refusals"],
            "altsum.class_of_s": s["altsum.class_of"],
            "altsum.class_of_calls": calls["altsum.class_of"],
            "altsum.count_s": s["altsum.count"],
            "altsum.count_calls": calls["altsum.count"],
            "altsum.states": counts["altsum.states"],
            "growth.series_s": s["growth.series"],
            "growth.skew_s": s["growth.skew"],
            "growth.gk_s": s["growth.gk"],
            "growth.terms": counts["growth.terms"],
            "cli.self_s": s["cli"],
            "diagrams.build_s": s["diagrams.build"],
            "presentation.extract_s": s["presentation.extract"],
            "presentation.relations": counts["presentation.relations"],
            "trace.other_s": s["trace.other"],
        }
