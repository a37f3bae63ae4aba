"""Documents and reports validate against the published JSON schemas."""

import json
from pathlib import Path

import jsonschema
import pytest

from lenalg import (
    decide_length_one,
    length_of_algebra,
    length_of_set,
    make_field,
    make_fixture,
    make_matrix_algebra,
    parse_document,
    render_document,
    report_to_dict,
)
from lenalg.constructors import fixture_names
from lenalg.documents import algebra_length_report, set_length_report
from lenalg.errors import SchemaError

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
