"""The benchmark traces curvelab by module and attribute name
(`bench/spans.py`).  A traced name that no longer resolves is skipped
there, and its per-layer metric silently reads 0, so every one must
resolve to a callable."""

import importlib.util
from pathlib import Path

import curvelab.acm  # noqa: F401  (the modules the benchmark traces)
import curvelab.cli  # noqa: F401
from curvelab import groebner

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _missing(spans) -> list[str]:
    patches = spans.Patches()
    try:
        for name, module, attr in spans.SPANNED + spans.COUNTED:
            patches.wrap(name, module, attr, lambda fn: lambda *a, **k: fn(*a, **k))
        return patches.missing
    finally:
        patches.undo()


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    spans = _spans_module()
    real = groebner.s_binomial
    assert _missing(spans) == []
    assert groebner.s_binomial is real  # undo restored the original
    # the check sees a name that is gone
    monkeypatch.delattr(groebner, "s_binomial")
    assert _missing(spans) == ["groebner.s_binomial"]
