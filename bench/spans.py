"""Per-layer tracing of curvelab from outside the program.

Public functions are wrapped where their callers look them up: every
`curvelab.*` module that holds the same function object under the same
name gets the wrapper, so `buchberger` is traced whether `acm` or `cli`
calls it.  A name that no longer exists is reported as missing instead
of failing the run.

Two instrumented passes replay the same invocations:

- the span pass records one span per wrapped call (name, start, end,
  parent span, invocation id) and keeps them in memory;
- the counting pass counts the leaf calls (`Binomial.rewrite`,
  `MonomialOrder.compare`/`key`, `s_binomial`), which are far too
  frequent for spans and would inflate their callers' self times.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute); a dotted attribute is a method.
SPANNED = (
    ("cli.main", "cli", "main"),
    ("cli.build_parser", "cli", "build_parser"),
    ("cli.to_canonical_json", "cli", "to_canonical_json"),
    ("acm.analyze_member", "acm", "analyze_member"),
    ("acm.acm_by_criterion", "acm", "acm_by_criterion"),
    ("acm.acm_by_groebner", "acm", "acm_by_groebner"),
    ("acm.homogeneous_basis", "acm", "homogeneous_basis"),
    ("acm.cross_validate", "acm", "cross_validate"),
    ("bresinsky.d_from_a", "bresinsky", "d_from_a"),
    ("bresinsky.d_from_a_any_order", "bresinsky", "d_from_a_any_order"),
    ("bresinsky.closed_form_basis", "bresinsky", "closed_form_basis"),
    ("bresinsky.generators", "bresinsky", "generators"),
    ("bresinsky.case_conditions", "bresinsky", "case_conditions"),
    ("groebner.buchberger", "groebner", "buchberger"),
    ("groebner.reduce_basis", "groebner", "reduce_basis"),
    ("groebner.is_groebner", "groebner", "is_groebner"),
)

COUNTED = (
    ("monomials.compare", "monomials", "MonomialOrder.compare"),
    ("monomials.key", "monomials", "MonomialOrder.key"),
    ("groebner.rewrite", "groebner", "Binomial.rewrite"),
    ("groebner.s_binomial", "groebner", "s_binomial"),
)

# What a span keeps of its call's result.
_RESULT = {
    "groebner.buchberger": len,
    "groebner.reduce_basis": len,
    "bresinsky.d_from_a": lambda r: int(r is not None),
    "bresinsky.d_from_a_any_order": lambda r: int(bool(r)),
}


class Patches:
    """Installed wrappers, undone in reverse order by `undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, module: str, attr: str, make) -> None:
        home = sys.modules.get(f"curvelab.{module}")
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name, None)
            original = vars(owner).get(method) if isinstance(owner, type) else None
            owners = [owner]
        else:
            original = getattr(home, attr, None)
            method = attr
            owners = [
                mod for key, mod in sorted(sys.modules.items())
                if (key == "curvelab" or key.startswith("curvelab.")) and mod is not None
                and vars(mod).get(attr) is original
            ]
        if not callable(original):
            self.missing.append(name)
            return
        wrapper = functools.wraps(original)(make(original))
        for owner in owners:
            self._undo.append((owner, method, original))
            setattr(owner, method, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class SpanTracer:
    """Span pass: one record [name, start, end, parent, invocation, result]
    per wrapped call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.invocation = -1
        self._stack: list[int] = []
        self.patches = Patches()

    def install(self) -> None:
        for name, module, attr in SPANNED:
            self.patches.wrap(name, module, attr, functools.partial(self._make, name))

    def _make(self, name: str, fn):
        spans, stack, keep = self.spans, self._stack, _RESULT.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.invocation, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if keep is not None:
                    span[5] = keep(result)
                return result
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "invocation", "result"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def summary(self) -> dict:
        """Per name: calls, inclusive seconds (outermost spans of that name
        only), self seconds and the sum of kept results."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_s[s[3]] += s[2] - s[1]
        out: dict[str, Counter] = {}
        for i, s in enumerate(spans):
            name, dur = s[0], s[2] - s[1]
            c = out.setdefault(name, Counter())
            c["calls"] += 1
            c["self_s"] += dur - child_s[i]
            c["result"] += s[5] or 0
            p = s[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                c["s"] += dur
        return out


class CallCounter:
    """Counting pass: leaf call counts, plus the S-binomials formed and
    elements added inside `buchberger` for its useful-work ratio."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._depth = 0
        self.patches = Patches()

    def install(self) -> None:
        counts = self.counts

        def count(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                if self._depth and name == "groebner.s_binomial":
                    counts["buchberger.s_formed"] += 1
                return fn(*args, **kwargs)
            return counted

        def buchberger(fn):
            def counted(gens, *args, **kwargs):
                gens = tuple(gens)
                self._depth += 1
                try:
                    basis = fn(gens, *args, **kwargs)
                finally:
                    self._depth -= 1
                counts["buchberger.added"] += len(basis) - len(gens)
                return basis
            return counted

        for name, module, attr in COUNTED:
            self.patches.wrap(name, module, attr, functools.partial(count, name))
        self.patches.wrap("groebner.buchberger", "groebner", "buchberger", buchberger)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: SpanTracer, counter: CallCounter, untraced_s: float,
                  traced_s: float) -> tuple[dict, list[str]]:
    """The per-layer metrics as {name: (value, unit)}, and the names that
    could not be measured because a traced function is gone."""
    missing = set(spans.patches.missing) | set(counter.patches.missing)
    sm, cn = spans.summary(), counter.counts

    def span(name, key):
        return lambda: sm.get(name, Counter())[key]

    d, anyo = "bresinsky.d_from_a", "bresinsky.d_from_a_any_order"
    table = [
        ("cli.main.s", "s", ["cli.main"], span("cli.main", "s")),
        ("cli.self_s", "s", ["cli.main"], span("cli.main", "self_s")),
        ("cli.build_parser.s", "s", ["cli.build_parser"], span("cli.build_parser", "s")),
        ("cli.to_canonical_json.s", "s", ["cli.to_canonical_json"],
         span("cli.to_canonical_json", "s")),
        ("acm.analyze_member.calls", "count", ["acm.analyze_member"],
         span("acm.analyze_member", "calls")),
        ("acm.analyze_member.self_s", "s", ["acm.analyze_member"],
         span("acm.analyze_member", "self_s")),
        ("acm.acm_by_criterion.s", "s", ["acm.acm_by_criterion"],
         span("acm.acm_by_criterion", "s")),
        ("acm.acm_by_groebner.s", "s", ["acm.acm_by_groebner"],
         span("acm.acm_by_groebner", "s")),
        ("acm.homogeneous_basis.s", "s", ["acm.homogeneous_basis"],
         span("acm.homogeneous_basis", "s")),
        ("acm.cross_validate.s", "s", ["acm.cross_validate"], span("acm.cross_validate", "s")),
        ("bresinsky.d_from_a.calls", "count", [d], span(d, "calls")),
        ("bresinsky.d_from_a.s", "s", [d], span(d, "s")),
        ("bresinsky.d_from_a_any_order.calls", "count", [anyo], span(anyo, "calls")),
        ("bresinsky.d_from_a_any_order.s", "s", [anyo], span(anyo, "s")),
        ("bresinsky.recover.hit_ratio", "ratio", [d, anyo],
         lambda: _ratio(sm.get(d, Counter())["result"] + sm.get(anyo, Counter())["result"],
                        sm.get(d, Counter())["calls"] + sm.get(anyo, Counter())["calls"])),
        ("bresinsky.closed_form_basis.s", "s", ["bresinsky.closed_form_basis"],
         span("bresinsky.closed_form_basis", "s")),
        ("bresinsky.generators.s", "s", ["bresinsky.generators"],
         span("bresinsky.generators", "s")),
        ("bresinsky.case_conditions.s", "s", ["bresinsky.case_conditions"],
         span("bresinsky.case_conditions", "s")),
        ("groebner.buchberger.calls", "count", ["groebner.buchberger"],
         span("groebner.buchberger", "calls")),
        ("groebner.buchberger.s", "s", ["groebner.buchberger"], span("groebner.buchberger", "s")),
        ("groebner.buchberger.out_elems", "count", ["groebner.buchberger"],
         span("groebner.buchberger", "result")),
        ("groebner.reduce_basis.s", "s", ["groebner.reduce_basis"],
         span("groebner.reduce_basis", "s")),
        ("groebner.reduce_basis.out_elems", "count", ["groebner.reduce_basis"],
         span("groebner.reduce_basis", "result")),
        ("groebner.s_binomial.calls", "count", ["groebner.s_binomial"],
         lambda: cn["groebner.s_binomial"]),
        ("groebner.useful_ratio", "ratio", ["groebner.s_binomial", "groebner.buchberger"],
         lambda: _ratio(cn["buchberger.added"], cn["buchberger.s_formed"])),
        ("groebner.rewrites", "count", ["groebner.rewrite"], lambda: cn["groebner.rewrite"]),
        ("groebner.is_groebner.calls", "count", ["groebner.is_groebner"],
         span("groebner.is_groebner", "calls")),
        ("monomials.compare.calls", "count", ["monomials.compare"],
         lambda: cn["monomials.compare"]),
        ("monomials.key.calls", "count", ["monomials.key"], lambda: cn["monomials.key"]),
        ("trace.overhead_frac", "frac", [], lambda: _ratio(traced_s, untraced_s) - 1.0),
    ]
    metrics, gone = {}, []
    for name, unit, needs, value in table:
        if missing.intersection(needs):
            gone.append(name)
        else:
            metrics[name] = (value(), unit)
    return metrics, gone
