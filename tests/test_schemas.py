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


def _violation_report():
    A = make_fixture("remark-literal")
    data = report_to_dict(decide_length_one(A), A)
    assert data["certificate"]["type"] == "violation"
    return data


def _char2_report():
    A = make_fixture("dim3-f2-type1")
    data = report_to_dict(decide_length_one(A), A)
    assert data["certificate"]["type"] == "char2-form"
    return data


def _maximizing_report():
    M2 = make_matrix_algebra(make_field("F2"), 2)
    return report_to_dict(algebra_length_report(length_of_algebra(M2)), M2)


@pytest.mark.parametrize("report, at, value, message", [
    (_violation_report, "certificate.condition", 5, "must be a string"),
    (_violation_report, "certificate.condition", ["x"], "must be a string"),
    (_violation_report, "certificate.condition", _DELETED, "missing"),
    (_violation_report, "certificate.detail", "x", "must be an object"),
    (_violation_report, "certificate.detail", [1], "must be an object"),
    (_violation_report, "report_version", 2, "must be 1"),
    (_violation_report, "report_version", "1", "must be 1"),
    (_violation_report, "report_version", _DELETED, "missing"),
    (_violation_report, "junk", 0, None),
    (_violation_report, "path", "oracle", "must be an array of strings"),
    (_violation_report, "path", [1], "must be an array of strings"),
    (_violation_report, "flags", _DELETED, "missing"),
    (_violation_report, "certificate", _DELETED, "missing"),
    (_violation_report, "certificate.junk", 0, None),
    (_char2_report, "certificate.congruence_constants.junk", [], None),
    (_maximizing_report, "certificate.subspaces_examined", "44",
     "must be an integer"),
    (_maximizing_report, "certificate.subspaces_examined", 44.5,
     "must be an integer"),
], ids=["condition-int", "condition-list", "condition-missing",
        "detail-string", "detail-list", "version-2", "version-string",
        "version-missing", "unknown-key", "path-string", "path-int",
        "flags-missing", "certificate-missing", "certificate-unknown-key",
        "constants-unknown-key", "subspaces-string", "subspaces-fraction"])
def test_report_schema_rejects_what_the_verifier_rejects(tmp_path, capsys, report,
                                                          at, value, message):
    # `at` is the dotted path of the edited key; an unknown key (message
    # None) is named by the object that holds it
    data = report()
    *parents, key = at.split(".")
    holder = data
    for parent in parents:
        holder = holder[parent]
    if value is _DELETED:
        del holder[key]
    else:
        holder[key] = value
    if message is None:
        at, message = ".".join(parents) or "$", f"unknown keys: ['{key}']"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, REPORT_SCHEMA)
    with pytest.raises(SchemaError) as exc:
        verify_report_dict(data)
    assert (exc.value.path, exc.value.message) == (at, message)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert main(["verify-cert", str(path)]) == 2
    assert f"{at}: {message}" in capsys.readouterr().err
