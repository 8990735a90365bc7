"""The JSON of every record: its keys in order, and a lossless trip through
`json.dumps`.  `exactfield.json_form` writes each record from its dataclass
fields, so a new field shows up here before it reaches `classify`, `closure`
or `qg` output."""

import json

import pytest

from b3image.grouporacle import COMPLETED, EXCEEDED, projective_closure
from b3image.qgallery import reproduce
from b3image.repforms import EigenSpec, build
from b3image.verdict import (
    C3_COSET_PLUS_ALPHA,
    FULL_COSET,
    PLUS_MINUS_PAIRS,
    PLUS_MINUS_PLUS_ALPHA,
    all_patterns,
    classify,
)

SPEC_KEYS = ["dim", "eigenvalues", "d_sign", "gamma"]
PATTERN_KEYS = ["variant", "chi", "alpha", "u", "pair_reps", "coset_order"]
VERDICT_KEYS = ["kind", "rule", "po", "pattern", "o_u", "D", "parity", "trace"]
CLOSURE_KEYS = ["outcome", "order", "bound", "stats"]
REPORT_KEYS = [
    "family",
    "ell",
    "spec",
    "verdict",
    "closure",
    "expectation_quote",
    "agreement",
]


def _spec(eig, d_sign=None, gamma=None):
    return EigenSpec.from_exponents(eig.split(","), d_sign=d_sign, gamma=gamma)


def _json_ready(data, keys):
    assert list(data) == keys
    assert json.loads(json.dumps(data, allow_nan=False)) == data


@pytest.mark.parametrize(
    "spec, eigenvalues, d_sign, gamma",
    [
        (_spec("0,1/7,3/7"), ["0/1", "1/7", "3/7"], None, None),
        (_spec("0,1/5,1/2,7/10", 1), ["0/1", "1/5", "1/2", "7/10"], 1, None),
        (_spec("0,1/5,1/2,7/10", -1), ["0/1", "1/5", "1/2", "7/10"], -1, None),
        (_spec("0,1/12,1/6,1/4,1/3", gamma="1/6"), ["0/1", "1/12", "1/6", "1/4", "1/3"], None, "1/6"),
    ],
    ids=["d3", "d4 D=+1", "d4 D=-1", "d5 gamma"],
)
def test_spec_json(spec, eigenvalues, d_sign, gamma):
    data = spec.to_json()
    _json_ready(data, SPEC_KEYS)
    assert data == {"dim": spec.dim, "eigenvalues": eigenvalues, "d_sign": d_sign, "gamma": gamma}


@pytest.mark.parametrize(
    "eig, variant, want",
    [
        ("0,1/3,2/3", FULL_COSET, {"chi": "0/1", "coset_order": 3}),
        ("0,1/12,1/2", PLUS_MINUS_PLUS_ALPHA, {"chi": "0/1", "alpha": "1/12"}),
        ("0,1/12,1/3,2/3", C3_COSET_PLUS_ALPHA, {"chi": "0/1", "alpha": "1/12"}),
        ("0,1/12,1/2,7/12", PLUS_MINUS_PAIRS, {"u": "1/12", "pair_reps": ["1/12", "0/1"]}),
    ],
)
def test_pattern_json(eig, variant, want):
    (pattern,) = [p for p in all_patterns(_spec(eig)) if p.variant == variant]
    data = pattern.to_json()
    _json_ready(data, PATTERN_KEYS)
    assert data == dict.fromkeys(PATTERN_KEYS) | {"variant": variant} | want


@pytest.mark.parametrize(
    "spec, rule, d_sign, parity, variant",
    [
        (_spec("0,1/5,1/2,7/10", 1), "2.1(c)(ii)/4.2(e)", -1, None, PLUS_MINUS_PAIRS),
        (_spec("0,1/7,3/7"), "2.1(d)(ii)-odd", None, "Odd", None),
        (_spec("0,0,1/2"), "2.1(a)", None, None, None),
    ],
    ids=["block with D", "d3 parity", "repeated"],
)
def test_verdict_json(spec, rule, d_sign, parity, variant):
    verdict = classify(spec)
    data = verdict.to_json()
    _json_ready(data, VERDICT_KEYS)
    assert (data["rule"], data["D"], data["parity"]) == (rule, d_sign, parity)
    assert data["trace"] == [list(step) for step in verdict.trace]
    if variant is None:
        assert data["pattern"] is None
    else:
        assert data["pattern"] == verdict.pattern.to_json()
        assert data["pattern"]["variant"] == variant


@pytest.mark.parametrize(
    "eig, bound, outcome, order",
    [("0,1/3,2/3", 300, COMPLETED, 12), ("0,1/7", 50, EXCEEDED, None)],
)
def test_closure_json(eig, bound, outcome, order):
    result = projective_closure(list(build(_spec(eig))), bound)
    data = result.to_json()
    _json_ready(data, CLOSURE_KEYS)
    assert data == {"outcome": outcome, "order": order, "bound": bound, "stats": result.stats}
    assert data["stats"] is not result.stats


@pytest.mark.parametrize(
    "family, ell, closure_keys",
    [("G2", 14, None), ("SO7spin", 14, CLOSURE_KEYS)],
)
def test_report_json(family, ell, closure_keys):
    report = reproduce(family, ell)
    data = report.to_json()
    _json_ready(data, REPORT_KEYS)
    assert data["expectation_quote"] == report.expectation.quote
    assert list(data["spec"]) == SPEC_KEYS and data["spec"] == report.spec.to_json()
    assert list(data["verdict"]) == VERDICT_KEYS and "d_sign" not in data["verdict"]
    assert data["verdict"]["D"] == report.verdict.d_sign
    if closure_keys is None:
        assert data["closure"] is None
    else:
        assert list(data["closure"]) == closure_keys

