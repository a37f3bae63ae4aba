"""Documents and reports validate against the published JSON schemas."""

import json
from pathlib import Path

import jsonschema
import pytest

from lenalg import (
    decide_length_one,
    generate_length_one,
    length_of_algebra,
    length_of_set,
    make_field,
    make_fixture,
    make_matrix_algebra,
    oracle_length_one,
    parse_document,
    render_document,
    report_to_dict,
    verify_report_dict,
)
from lenalg.cli import main
from lenalg.constructors import fixture_names
from lenalg.documents import algebra_length_report, oracle_report, set_length_report
from lenalg.errors import SchemaError

from tests.test_golden_reports import corpus

DOCS = Path(__file__).resolve().parent.parent / "docs"
DOC_SCHEMA = json.loads((DOCS / "algebra-document.schema.json").read_text())
REPORT_SCHEMA = json.loads((DOCS / "report.schema.json").read_text())


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_documents_validate(name):
    doc = json.loads(render_document(make_fixture(name)))
    jsonschema.validate(doc, DOC_SCHEMA)


def test_decision_reports_validate():
    for name in ("remark-literal", "remark-repaired", "dim3-f2-type3",
                 "char2-typeI-seeded"):
        A = make_fixture(name)
        data = report_to_dict(decide_length_one(A), A)
        jsonschema.validate(data, REPORT_SCHEMA)
        jsonschema.validate(data["algebra"], DOC_SCHEMA)


def test_length_reports_validate():
    F2 = make_field("F2")
    M2 = make_matrix_algebra(F2, 2)
    rep = algebra_length_report(length_of_algebra(M2))
    jsonschema.validate(report_to_dict(rep, M2), REPORT_SCHEMA)

    vectors = [M2.basis_vector(1)]
    rep = set_length_report(vectors, length_of_set(M2, vectors))
    data = report_to_dict(rep, M2)
    jsonschema.validate(data, REPORT_SCHEMA)
    assert data["certificate"]["vectors"] == [["0", "1", "0", "0"]]


_DOCUMENT = {"field": "Q", "dim": 2, "one": ["1", "0"],
             "table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]}


@pytest.mark.parametrize("edit", [
    {"metadata": []}, {"metadata": 0}, {"metadata": False}, {"metadata": ""},
    {"metadata": None}, {"one": None}, {"field": {"kind": "prime", "p": 5, "junk": 1}},
])
def test_schema_rejects_what_the_parser_rejects(edit):
    doc = {**_DOCUMENT, **edit}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, DOC_SCHEMA)
    with pytest.raises(SchemaError, match=f"^{next(iter(edit))}: "):
        parse_document(doc)


def _report_validator():
    return jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)


def test_golden_decision_reports_validate():
    validator = _report_validator()
    for key, A in corpus():
        data = report_to_dict(decide_length_one(A), A)
        assert not list(validator.iter_errors(data)), key


@pytest.mark.parametrize("name, scan", [
    ("Q", "basis-line"), ("F5", "exhaustive"), ("GF4", "exhaustive"),
])
def test_oracle_reports_validate(name, scan):
    field = make_field(name)
    mode = "type-i" if field.characteristic() == 2 else "special"
    validator = _report_validator()
    for A, verdict in ((generate_length_one(field, 4, 0, mode, hide=True), True),
                       (make_matrix_algebra(field, 2), False)):
        res = oracle_length_one(A)
        assert res.is_length_one is verdict
        data = report_to_dict(oracle_report(A, res), A)
        assert data["path"] == [f"oracle: {scan} pair scan"]
        assert (data["certificate"] is None) is verdict
        validator.validate(data)


_DELETED = object()


@pytest.mark.parametrize("key, value, message", [
    ("condition", 5, "must be a string"),
    ("condition", ["x"], "must be a string"),
    ("condition", _DELETED, "missing"),
    ("detail", "x", "must be an object"),
    ("detail", [1], "must be an object"),
], ids=["condition-int", "condition-list", "condition-missing",
        "detail-string", "detail-list"])
def test_report_schema_rejects_what_the_verifier_rejects(tmp_path, capsys,
                                                          key, value, message):
    A = make_fixture("remark-literal")
    data = report_to_dict(decide_length_one(A), A)
    assert data["certificate"]["type"] == "violation"
    if value is _DELETED:
        del data["certificate"][key]
    else:
        data["certificate"][key] = value
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, REPORT_SCHEMA)
    with pytest.raises(SchemaError, match=f"^certificate\\.{key}: {message}$"):
        verify_report_dict(data)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert main(["verify-cert", str(path)]) == 2
    assert f"certificate.{key}: {message}" in capsys.readouterr().err
