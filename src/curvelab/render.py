"""The canonical JSON text of every reply and dump.

Every reply is the text of `json.dumps(obj, indent=2)`, and
`to_canonical_json(obj)` is its one entry point.  Each fixed-shape
layout is written from its fields by one writer that builds no dict or
list: `report_json` writes a member report (the twelve `AcmReport`
fields, its conditions and, for `analyze --homogenize`, the homogeneous
basis), `basis_json` a basis (its order and its (lead, trail) exponent
pairs) and `pair_json` one (lead, trail) element, as `recover` writes
its generators; `basis_json` writes its elements from the same template.
Each returns `JsonText`, the text at depth 0, which `to_canonical_json`
takes anywhere in a tree and indents to its depth.

Everything else (a gb tag, a scan summary, a `recover` solution, the
dump around its report and basis) is rendered by a walk over what
replies hold: dicts with `str` keys, lists and tuples, `str`, `int`,
`True`, `False`, `None` and `JsonText`, each recognised by its exact
type.  Strings and keys go through json's own C escaper, which raises
TypeError for a key that is not a `str`; any other value (a float, a
subclass of dict, list or str) raises TypeError as json does for an
object it cannot serialize.

Given an indent, CPython (3.10 to 3.13 at least) leaves json's C encoder
for a pure-Python one, which the walk outruns about twice and the
writers three to nine times.  Measured with timeit on CPython 3.11.7
(2-vCPU x86-64 VM), text at depth 0 from `to_canonical_json`: the
report of `analyze --a 19,29,26,43 --m 60` takes 27 µs by `json.dumps`
of its layout as a plain dict of lists and scalars (the dict that
`report_dict` in the tests builds), 15 µs by the walk over that dict and
6 µs by `report_json`; the five-element homogenized basis of `gb --a
8,5,7,9 --m 0 --homogenize` takes 81 µs, 43 µs and 9 µs by `basis_json`
(its dict: `basis_dict`).
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii


class JsonText(str):
    """JSON text rendered at depth 0, as a writer returns it; a tree that
    holds it is rendered with it in place, indented to its depth."""

    __slots__ = ()


# the literal of a flag or of a verdict that may be undecided; no int is
# looked up here, since 1 == True
_FLAGS = {True: "true", False: "false", None: "null"}
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _FLAGS.__getitem__,
    type(None): _FLAGS.__getitem__,
}


def to_canonical_json(obj) -> str:
    """The text of `json.dumps(obj, indent=2)` for a tree of the types
    the walk takes (see above), with each `JsonText` in `obj` standing
    for the value it is the text of: the one JSON rendering of every
    reply and dump, so output parsed with json.loads renders back
    byte-identically."""
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
        parts = [encode_basestring_ascii(k) + ": " + _render(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


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
    """The JSON text of an `AcmReport`, read off its fields: an object
    with the keys m, degrees, applicable, skip_reason, case, w,
    conditions (each an object of name, value and pass), the two
    verdicts, agree, reordered and permuted_degrees, in that order, and
    a last key `homogeneous_basis` when one is given (as `analyze
    --homogenize` gives it): None, or the `basis_json` text."""
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


def _element(nvars: int) -> str:
    """The template of a (lead, trail) element over `nvars` variables at
    depth 0: an object of "lead" and then "trail", each an object of its
    "exponents" list, whose %d fields take the lead's exponents and then
    the trail's."""
    ints = ",\n      ".join(["%d"] * nvars)
    return (
        '{\n  "lead": {\n    "exponents": [\n      ' + ints
        + '\n    ]\n  },\n  "trail": {\n    "exponents": [\n      ' + ints + "\n    ]\n  }\n}"
    )


def pair_json(lead, trail) -> JsonText:
    """The JSON text of the binomial with the oriented (lead, trail)
    exponent pair: one basis element of `basis_json`."""
    return JsonText(_element(len(lead)) % (*lead, *trail))


def basis_json(order, pairs) -> JsonText:
    """The JSON text of a basis under `order` (a `MonomialOrder`) whose
    (lead, trail) exponent pairs, one exponent per variable on each side,
    are given in canonical order: an object of "order" (its kind and its
    priority list) and "elements", each a `pair_json` element."""
    element = _element(order.nvars).replace("\n", _PAD2)
    items = [element % (*lead, *trail) for lead, trail in pairs]
    elements = "[" + _PAD2 + ",\n    ".join(items) + _PAD1 + "]" if items else "[]"
    priority = ",\n      ".join(map(str, order.priority))
    return JsonText(
        f'{{\n  "order": {{\n    "kind": {encode_basestring_ascii(order.kind)},'
        f'\n    "priority": [\n      {priority}\n    ]\n  }},'
        f'\n  "elements": {elements}\n}}'
    )
