"""The canonical JSON renderer writes exactly the text of
json.dumps(obj, indent=2), on any tree json accepts and on every JSON
golden."""

import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from curvelab import acm, cli
from curvelab.render import to_canonical_json
from test_golden import CASES, GOLDEN


class _List(list):
    pass


# quotes, backslashes, control characters, non-ASCII, astral and lone
# surrogate code points, besides whatever st.text() draws
_SPECIAL = '"\\\n\t\r\x00\x1f\x7f é☃😀\ud83d/'
texts = st.one_of(st.text(), st.text(alphabet=_SPECIAL))
scalars = st.one_of(
    texts,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)
keys = st.one_of(texts, st.integers(), st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3).map(_List),
        st.dictionaries(texts, children, max_size=4),
        st.dictionaries(keys, children, max_size=3),
        st.dictionaries(texts, children, max_size=3).map(OrderedDict),
    )


trees = st.recursive(scalars, _containers, max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_matches_json_dumps_with_indent(tree):
    assert to_canonical_json(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("tree", [
    {}, [], (), {"a": {}}, [[], {}], {"k": [(), _List()]},
    {1: "int key", "1": "same text"}, {True: 1, None: 2, 2.5: 3},
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
    {"x\ny": "a\"b\\c\x01é\ud83d"}, [2**64, -(2**100), True, False, None],
])
def test_edge_cases(tree):
    assert to_canonical_json(tree) == json.dumps(tree, indent=2)


def test_refused_values_raise_as_json_does():
    with pytest.raises(TypeError, match="not JSON serializable"):
        to_canonical_json({"a": [object()]})


def test_cli_and_the_disagreement_dump_share_the_renderer():
    assert cli.to_canonical_json is to_canonical_json
    assert acm.to_canonical_json is to_canonical_json


JSON_GOLDENS = sorted(name for name, argv in CASES.items() if "json" in argv)


@pytest.mark.parametrize("name", JSON_GOLDENS)
def test_json_golden_re_renders_byte_identically(name):
    transcript = (GOLDEN / f"{name}.txt").read_text()
    stdout = transcript.split("--- stdout\n", 1)[1].split("--- stderr\n", 1)[0]
    assert stdout.endswith("}\n")
    assert to_canonical_json(json.loads(stdout)) + "\n" == stdout
