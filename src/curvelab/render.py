"""The canonical JSON text of every reply and dump.

`to_canonical_json(obj)` returns exactly the text of
`json.dumps(obj, indent=2)` by a direct walk.  The walk handles the
shapes the CLI emits: dicts with `str` keys, lists and tuples, `str`,
`int`, `True`, `False` and `None`, each recognised by its exact type.
Strings and keys go through json's own C escaper, which raises
TypeError for a key that is not a `str`.  Any other value (a float, a
dict with a non-`str` key, a subclass of dict or list, an object json
refuses) is handed to json's encoder itself, and its lines are indented
to the current depth; JSON text never holds a raw newline inside a
string, so every newline it contains is a line break.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}
# json.dumps(obj, indent=2) is this encoder's encode(obj)
_JSON = json.JSONEncoder(indent=2)


def to_canonical_json(obj) -> str:
    """The text of `json.dumps(obj, indent=2)`: the one JSON rendering of
    every reply and dump, so output parsed with json.loads renders back
    byte-identically.  It is not that call itself because, given an
    indent, CPython (3.10 to 3.13 at least) leaves json's C encoder for a
    pure-Python one, which renders the CLI's replies about half as fast
    as this walk."""
    return _render(obj, "\n")


def _render(obj, pad: str) -> str:
    """`obj` rendered as if nested where each line starts with `pad`
    (a newline and the indentation of the enclosing line)."""
    kind = type(obj)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(obj)
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
