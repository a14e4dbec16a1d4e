"""The canonical JSON text of every reply and dump.

Every reply is the text of `json.dumps(obj, indent=2)`, and
`to_canonical_json(obj)` is its one entry point.  The two fixed-shape
layouts are written from their fields, each by one writer that builds
no dict or list: `report_json` writes a member report (the twelve
`AcmReport` fields, its conditions and, for `analyze --homogenize`, the
homogeneous basis) and `basis_json` a basis (its order and its (lead,
trail) exponent pairs).  Each returns `JsonText`, the text at depth 0,
which `to_canonical_json` takes anywhere in a tree and indents to its
depth.

Everything else (a gb tag, a scan summary, a `recover` solution, the
dump around its report and basis) is rendered by a walk over dicts with
`str` keys, lists and tuples, `str`, `int`, `True`, `False` and `None`,
each recognised by its exact type.  Strings and keys go through json's
own C escaper, which raises TypeError for a key that is not a `str`.
Any other value (a float, a dict with a non-`str` key, a subclass of
dict or list, an object json refuses) is handed to json's encoder
itself, and its lines are indented to the current depth; JSON text never
holds a raw newline inside a string, so every newline it contains is a
line break.

Given an indent, CPython (3.10 to 3.13 at least) leaves json's C encoder
for a pure-Python one, which the walk outruns about twice and the
writers three to nine times.  Measured with timeit on CPython 3.11.7
(2-vCPU x86-64 VM), text at depth 0 from `to_canonical_json`: the
report of `analyze --a 19,29,26,43 --m 60` takes 27 µs by `json.dumps`
of `AcmReport.to_dict()`, 15 µs by the walk over that dict and 6 µs by
`report_json`; the five-element homogenized basis of `gb --a 8,5,7,9
--m 0 --homogenize` takes 81 µs, 43 µs and 9 µs by `basis_json`.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii


class JsonText(str):
    """JSON text rendered at depth 0, as a writer returns it; a tree that
    holds it is rendered with it in place, indented to its depth."""

    __slots__ = ()


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}
# json.dumps(obj, indent=2) is this encoder's encode(obj)
_JSON = json.JSONEncoder(indent=2)
# the literal of a flag or of a verdict that may be undecided; no int is
# looked up here, since 1 == True
_FLAGS = {True: "true", False: "false", None: "null"}


def to_canonical_json(obj) -> str:
    """The text of `json.dumps(obj, indent=2)`, with each `JsonText` in
    `obj` standing for the value it is the text of: the one JSON
    rendering of every reply and dump, so output parsed with json.loads
    renders back byte-identically."""
    return _render(obj, "\n")


def _render(obj, pad: str) -> str:
    """`obj` rendered as if nested where each line starts with `pad`
    (a newline and the indentation of the enclosing line)."""
    kind = type(obj)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(obj)
    if kind is JsonText:
        return obj.replace("\n", pad)
    inner = pad + "  "
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        parts = [_render(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    if kind is dict:
        if not obj:
            return "{}"
        # each key is escaped in the pass that renders its value: a
        # TypeError means a key that is not a str, or a value json refuses,
        # and json then renders the dict, or raises that error itself
        try:
            parts = [encode_basestring_ascii(k) + ": " + _render(v, inner) for k, v in obj.items()]
        except TypeError:
            pass
        else:
            return "{" + inner + ("," + inner).join(parts) + pad + "}"
    return _JSON.encode(obj).replace("\n", pad)


# the newline and indentation of depths 1 and 2, for the fields of
# f-strings (CPython 3.10 takes no backslash inside the braces)
_PAD1 = "\n  "
_PAD2 = "\n    "
#: `report_json`'s default: no homogeneous_basis field
_ABSENT = object()
#: a degree vector as a report field
_VEC4 = "[\n    %d,\n    %d,\n    %d,\n    %d\n  ]"
#: a condition in a report's list, filled with its escaped name, its
#: value and its pass flag
_CONDITION = '{\n      "name": %s,\n      "value": %d,\n      "pass": %s\n    }'


def _optional_int(value) -> str:
    return "null" if value is None else str(value)


def report_json(report, homogeneous_basis=_ABSENT) -> JsonText:
    """The text of `report.to_dict()` for an `AcmReport`, read off its
    fields, with a last field `homogeneous_basis` when one is given (as
    `analyze --homogenize` gives it): None, or the `basis_json` text."""
    r = report
    conditions = "[]"
    if r.conditions:
        items = [_CONDITION % (encode_basestring_ascii(c.name), c.value, _FLAGS[c.passed])
                 for c in r.conditions]
        conditions = "[" + _PAD2 + ",\n    ".join(items) + _PAD1 + "]"
    skip_reason = "null" if r.skip_reason is None else encode_basestring_ascii(r.skip_reason)
    permuted = "null" if not r.permuted_degrees else _VEC4 % r.permuted_degrees
    text = (
        f'{{\n  "m": {r.m},\n  "degrees": {_VEC4 % r.degrees},'
        f'\n  "applicable": {_FLAGS[r.applicable]},\n  "skip_reason": {skip_reason},'
        f'\n  "case": {_optional_int(r.case)},\n  "w": {_optional_int(r.w)},'
        f'\n  "conditions": {conditions},'
        f'\n  "verdict_criterion": {_FLAGS[r.verdict_criterion]},'
        f'\n  "verdict_groebner": {_FLAGS[r.verdict_groebner]},'
        f'\n  "agree": {_FLAGS[r.agree]},\n  "reordered": {_FLAGS[r.reordered]},'
        f'\n  "permuted_degrees": {permuted}'
    )
    if homogeneous_basis is not _ABSENT:
        basis = "null" if homogeneous_basis is None else homogeneous_basis.replace("\n", _PAD1)
        text += f',\n  "homogeneous_basis": {basis}'
    return JsonText(text + "\n}")


def basis_json(order, pairs) -> JsonText:
    """The text of `BinomialBasis.to_json()` for a basis under `order` (a
    `MonomialOrder`) whose (lead, trail) exponent pairs, one exponent per
    variable on each side, are given in canonical order."""
    # an element: the lead's exponents and then the trail's fill the %d
    # fields, written at depth 5 and braced at depths 2 to 4
    ints = ",\n          ".join(["%d"] * order.nvars)
    element = (
        '{\n      "lead": {\n        "exponents": [\n          ' + ints
        + '\n        ]\n      },\n      "trail": {\n        "exponents": [\n          '
        + ints + "\n        ]\n      }\n    }"
    )
    items = [element % (*lead, *trail) for lead, trail in pairs]
    elements = "[" + _PAD2 + ",\n    ".join(items) + _PAD1 + "]" if items else "[]"
    priority = ",\n      ".join(map(str, order.priority))
    return JsonText(
        f'{{\n  "order": {{\n    "kind": {encode_basestring_ascii(order.kind)},'
        f'\n    "priority": [\n      {priority}\n    ]\n  }},'
        f'\n  "elements": {elements}\n}}'
    )
