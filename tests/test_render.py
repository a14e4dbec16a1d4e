"""The canonical JSON renderer writes exactly the text of
json.dumps(obj, indent=2), on any tree of the types replies hold and on
every JSON golden, and refuses any other value; its three writers write
exactly the text of the reference layouts in `helpers`, alone and
nested in a tree."""

import io
import json
import math
from collections import OrderedDict
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from curvelab import (
    AFFINE_ORDER,
    PROJECTIVE_ORDER,
    AcmReport,
    a_from_d,
    acm,
    buchberger,
    cli,
    cross_validate,
    d_from_a,
    d_from_a_any_order,
    generators,
    member_degrees,
    reduce_basis,
)
from curvelab.acm import _homogenized
from curvelab.bresinsky import (
    SKIP_FORM,
    SKIP_GCD,
    _closed_form,
    _generator_exponents,
    degree_refusal,
)
from curvelab.render import JsonText, basis_json, pair_json, report_json, to_canonical_json
from helpers import (
    basis_dict,
    pair_dict,
    random_valid_data,
    report_dict,
    sample_applicable,
    sample_condition_passing,
)
from test_golden import CASES, GOLDEN


class _List(list):
    pass


class _Str(str):
    pass


# quotes, backslashes, control characters, non-ASCII, astral and lone
# surrogate code points, besides whatever st.text() draws
_SPECIAL = '"\\\n\t\r\x00\x1f\x7f é☃😀\ud83d/'
texts = st.one_of(st.text(), st.text(alphabet=_SPECIAL))
# the types replies hold, besides JsonText: str, int, True, False, None,
# lists, tuples and dicts with str keys
scalars = st.one_of(
    texts,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.booleans(),
    st.none(),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    )


trees = st.recursive(scalars, _containers, max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_matches_json_dumps_with_indent(tree):
    assert to_canonical_json(tree) == json.dumps(tree, indent=2)


_EDGE_CASES = [
    ({}, None), ([], None), ((), None), ({"a": {}}, None), ([[], {}], None),
    # with a refusal: a tree json takes but no reply holds (a subclass of
    # list, dict or str, a key that is not a str, a float)
    ({"k": [(), _List()]}, "Object of type _List is not JSON serializable"),
    ({1: "int key", "1": "same text"}, "must be a string, not int"),
    ({True: 1, None: 2, 2.5: 3}, "must be a string, not bool"),
    ([float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
     "Object of type float is not JSON serializable"),
    ({"x\ny": "a\"b\\c\x01é\ud83d"}, None), ([2**64, -(2**100), True, False, None], None),
    ([JsonText("[]"), OrderedDict(a=1)], "Object of type OrderedDict is not JSON serializable"),
    ({"k": _Str("v")}, "Object of type _Str is not JSON serializable"),
]


@pytest.mark.parametrize("tree, refusal", _EDGE_CASES,
                         ids=[f"tree{i}" for i in range(len(_EDGE_CASES))])
def test_edge_cases(tree, refusal):
    if refusal is None:
        assert to_canonical_json(tree) == json.dumps(tree, indent=2)
    else:
        json.dumps(tree, indent=2)  # which json takes, but no reply holds
        with pytest.raises(TypeError, match=refusal):
            to_canonical_json(tree)


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


# the writers: each text is json.dumps(<reference layout>, indent=2)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2)


def _report_corpus() -> list[AcmReport]:
    """Report rows of every kind: gcd and step-bound skip rows, reordered
    rows, case 1, case 2 on both branches, seeded members at m up to
    10^17, gcd skip rows past 10^19, and a not-form skip row, built by
    hand since seeded scans rarely produce one."""
    anchor, big = d_from_a((19, 29, 26, 43)), d_from_a((1191, 1239, 582, 2303))
    reports = cross_validate(anchor, range(0, 70)) + cross_validate(big, range(0, 16))
    # ACM members run to the end, so every applicable one trips a bound of 0
    reports += cross_validate(big, range(0, 4), step_bound=0)
    rng = Random(30)
    while len(reports) < 150:
        data = random_valid_data(rng, 8)
        if math.gcd(*a_from_d(data)) == 1:
            reports += cross_validate(data, [rng.randint(0, 60), rng.randint(0, 10**17)])
    reports.append(AcmReport(m=0, degrees=(2, 3, 4, 5), applicable=False, skip_reason=SKIP_FORM))
    far = (m for m in range(10**19, 10**19 + 100)
           if degree_refusal(member_degrees(anchor, m)) == SKIP_GCD)
    reports += cross_validate(anchor, [next(far), next(far)])
    return reports


REPORTS = _report_corpus()


def test_the_report_corpus_has_every_kind_of_row():
    assert {SKIP_GCD, SKIP_FORM, acm.SKIP_STEP_BOUND} <= {r.skip_reason for r in REPORTS}
    assert {(1, False), (1, True), (2, False)} <= {(r.case, r.reordered) for r in REPORTS}
    assert max(r.m for r in REPORTS if r.applicable) >= 10**12
    assert max(r.m for r in REPORTS) >= 10**19
    # case 2's last condition is named after its branch
    assert {r.conditions[-1].name for r in REPORTS if r.case == 2} == {
        "w(d2-d21-d23)+d3-d32-d34", "w(d2-d21-d23)+d1+d23-d4-d32"
    }
    assert {r.verdict_criterion for r in REPORTS if r.applicable} == {True, False}


def _bases() -> list[tuple]:
    """(order, canonical pairs) over 4 variables (closed forms and reduced
    oracle bases) and over 5 (their homogenizations), at m up to 10^19."""
    bases = []
    for data, m in sample_condition_passing(31, 30) + [
        (d_from_a((8, 5, 7, 9)), 10**19), (d_from_a((1191, 1239, 582, 2303)), 10**19),
    ]:
        pairs = _closed_form(data, m)[1]
        bases += [(AFFINE_ORDER, pairs),
                  (PROJECTIVE_ORDER, _homogenized(pairs, member_degrees(data, m)))]
    for data, m in sample_applicable(32, 15):
        basis = buchberger(_generator_exponents(data, m), AFFINE_ORDER)
        bases.append((AFFINE_ORDER, reduce_basis(basis).elements))
    bases.append((AFFINE_ORDER, ()))
    return bases


BASES = _bases()


def _pairs() -> list[tuple]:
    """Oriented (lead, trail) pairs, as `recover` writes its generators:
    every generator of every any-order recovery hit over the
    (19,29,26,43) members m = 0..200, and pairs over 4 and 5 variables
    with entries from 2**64 to 2**200."""
    anchor = d_from_a((19, 29, 26, 43))
    pairs = [p for m in range(201)
             if degree_refusal(member_degrees(anchor, m)) != SKIP_GCD
             for _, hit in d_from_a_any_order(member_degrees(anchor, m))
             for p in generators(hit, 0)]
    rng = Random(34)
    for n in (4, 5):
        for _ in range(20):
            lead, trail = ([rng.choice((0, 1, rng.randint(2**64, 2**200))) for _ in range(n)]
                           for _ in "lt")
            pairs.append((tuple(lead), tuple(trail)))
    return pairs


PAIRS = _pairs()


def test_report_writer_matches_json_dumps():
    for report in REPORTS:
        assert type(report_json(report)) is JsonText
        assert report_json(report) == _dumps(report_dict(report))
        assert report_json(report, None) == _dumps(dict(report_dict(report), homogeneous_basis=None))


def test_basis_writer_matches_json_dumps():
    assert {len(order.priority) for order, _ in BASES} == {4, 5}
    assert max(max(lead) for _, pairs in BASES for lead, _ in pairs) >= 10**19
    for order, pairs in BASES:
        dict_form = basis_dict(order, pairs)
        assert basis_json(order, pairs) == _dumps(dict_form)
        report = REPORTS[len(pairs)]
        assert report_json(report, basis_json(order, pairs)) == _dumps(
            dict(report_dict(report), homogeneous_basis=dict_form)
        )
    # one element alone, as `recover` writes its generators
    assert len(PAIRS) > 5 * 65 and max(max(lead) for lead, _ in PAIRS) >= 2**64
    assert {len(lead) for lead, _ in PAIRS} == {4, 5}
    for lead, trail in PAIRS:
        assert type(pair_json(lead, trail)) is JsonText
        assert pair_json(lead, trail) == _dumps(pair_dict(lead, trail))


def test_writer_text_nested_at_any_depth():
    rng = Random(33)
    for _ in range(30):
        reports = rng.sample(REPORTS, 3)
        order, pairs = rng.choice(BASES)
        texts, dicts = [report_json(r) for r in reports], [report_dict(r) for r in reports]
        basis, dict_basis = basis_json(order, pairs), basis_dict(order, pairs)
        gens = rng.sample(PAIRS, 5)
        tree = {"reports": texts, "deep": [[{"basis": basis, "report": texts[0]}], [basis]],
                "dump": {"report": texts[1], "x4_leads": None, "groebner_basis": basis},
                "solutions": [{"generators": [pair_json(*p) for p in gens]}]}
        plain = {"reports": dicts, "deep": [[{"basis": dict_basis, "report": dicts[0]}],
                                           [dict_basis]],
                 "dump": {"report": dicts[1], "x4_leads": None, "groebner_basis": dict_basis},
                 "solutions": [{"generators": [pair_dict(*p) for p in gens]}]}
        assert to_canonical_json(tree) == _dumps(plain)
        assert to_canonical_json(texts[2]) == _dumps(dicts[2])


JSON_REPLIES = [
    ("analyze", "--a", "19,29,26,43", "--m", "60"),
    ("analyze", "--a", "8,5,7,9", "--m", "0", "--homogenize"),
    ("analyze", "--a", "19,29,26,43", "--m", "1"),
    ("gb", "--a", "1191,1239,582,2303", "--m", "12", "--homogenize"),
    ("gb", "--a", "19,29,26,43", "--m", "0", "--oracle"),
    ("family", "--a", "19,29,26,43", "--m-range", "0..10"),
    ("verify", "--a", "1191,1239,582,2303", "--m-range", "0..15"),
    ("recover", "--a", "1191,1239,582,2303"),
    ("recover", "--a", "2,3,4,5"),
]


@pytest.mark.parametrize("argv", JSON_REPLIES, ids=" ".join)
def test_each_json_reply_renders_once(argv, monkeypatch):
    # the benchmark times rendering as the cli.to_canonical_json span
    calls = []

    def spy(obj):
        calls.append(obj)
        return to_canonical_json(obj)

    monkeypatch.setattr(cli, "to_canonical_json", spy)
    out = io.StringIO()
    cli.main([*argv, "--format", "json"], out=out)
    assert len(calls) == 1
    assert out.getvalue() == _dumps(json.loads(out.getvalue())) + "\n"
