"""Document parsing, canonical rendering, report serialization."""

import json

import pytest

from lenalg import (
    decide_length_one,
    make_field,
    make_fixture,
    make_matrix_algebra,
    parse_document,
    render_document,
    render_report,
    report_to_dict,
    verify_report_dict,
)
from lenalg.constructors import FIXTURES
from lenalg.documents import field_from_json, field_to_json
from lenalg.errors import NoIdentityError, SchemaError, ScalarSyntaxError


def test_minimal_document():
    doc = parse_document('{"field": "Q", "dim": 1, "table": [[["1"]]]}')
    A = doc.algebra
    assert A.dim == 1 and A.one == (make_field("Q").one,)


def test_round_trip_is_byte_identical():
    for name in FIXTURES:
        A = make_fixture(name)
        text = render_document(A, metadata={"name": name})
        again = render_document(parse_document(text))
        assert text == again


def test_identity_autodetected():
    M2 = make_matrix_algebra(make_field("Q"), 2)
    doc_dict = json.loads(render_document(M2))
    del doc_dict["one"]
    parsed = parse_document(doc_dict)
    assert parsed.algebra.one == M2.one


def test_no_identity_error_and_adjoin_flag():
    zero_table = {"field": "Q", "dim": 1, "table": [[["0"]]]}
    with pytest.raises(NoIdentityError):
        parse_document(zero_table)
    hulled = parse_document(dict(zero_table, adjoin_identity=True))
    assert hulled.algebra.dim == 2


def test_adjoin_conflicts_with_one():
    doc = {"field": "Q", "dim": 1, "table": [[["1"]]],
           "one": ["1"], "adjoin_identity": True}
    with pytest.raises(SchemaError):
        parse_document(doc)


def test_schema_errors_are_positioned():
    with pytest.raises(SchemaError) as exc:
        parse_document('{"field": "Q", "dim": 2, "table": [[["1","0"],["0","1"]]]}')
    assert "table" in str(exc.value)
    with pytest.raises(ScalarSyntaxError) as exc:
        parse_document('{"field": "Q", "dim": 1, "table": [[["x"]]]}')
    assert "table[0][0]" in str(exc.value)
    with pytest.raises(SchemaError):
        parse_document('{"field": "Q", "dim": 1, "table": [[["1"]]], "junk": 1}')
    with pytest.raises(SchemaError):
        parse_document('[1, 2]')
    with pytest.raises(SchemaError):
        parse_document('{"field": "X9", "dim": 1, "table": [[["1"]]]}')
    with pytest.raises(SchemaError):
        parse_document('not json at all')


def test_wrong_identity_rejected():
    doc = {"field": "Q", "dim": 2, "one": ["0", "1"],
           "table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]]}
    with pytest.raises(SchemaError) as exc:
        parse_document(doc)
    assert "one" in str(exc.value)


def test_field_json_round_trip():
    for name in ("Q", "F2", "F5", "GF4", "GF9"):
        f = make_field(name)
        assert field_from_json(field_to_json(f)) == f
    # explicit extension spec
    obj = {"kind": "extension", "p": 2, "k": 3, "modulus": [1, 1, 0, 1]}
    f = field_from_json(obj)
    assert f == make_field("GF8")
    assert field_from_json({"kind": "prime", "p": 5}) == make_field("F5")


def _count_builds(monkeypatch):
    """The args of every field construction from here on."""
    from lenalg import ExtensionField, PrimeField, fields
    built = []
    for cls in (fields.Rationals, PrimeField, ExtensionField):
        def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            built.append((_cls.__name__, *args))
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_field_to_json_builds_no_field(monkeypatch):
    """Labels for shorthand fields, an object for a non-default modulus,
    and no field construction in either case."""
    from lenalg import ExtensionField
    fields_in = [make_field(name) for name in ("Q", "F2", "F4093", "GF4", "GF8", "GF9")]
    aes = ExtensionField(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))
    other_gf8 = ExtensionField(2, 3, (1, 0, 1, 1))
    built = _count_builds(monkeypatch)
    assert [field_to_json(f) for f in fields_in] == [
        "Q", "F2", "F4093", "GF4", "GF8", "GF9"]
    assert field_to_json(aes) == {"kind": "extension", "p": 2, "k": 8,
                                  "modulus": [1, 1, 0, 1, 1, 0, 0, 0, 1]}
    assert field_to_json(other_gf8)["modulus"] == [1, 0, 1, 1]
    assert built == []
    monkeypatch.undo()
    for f in (*fields_in, aes, other_gf8):
        assert field_from_json(field_to_json(f)) == f


def test_report_round_trip_and_verification():
    for name in ("remark-literal", "remark-repaired", "dim3-f2-type3",
                 "char2-typeII-seeded"):
        A = make_fixture(name)
        rep = decide_length_one(A)
        data = json.loads(render_report(rep, A))
        assert data["kind"] == "length-one-decision"
        assert data["verdict"] == rep.value
        assert verify_report_dict(data)


def test_tampered_report_fails_verification():
    A = make_fixture("remark-repaired")
    rep = decide_length_one(A)
    data = report_to_dict(rep, A)
    data["certificate"]["mu"][0] = "99"
    assert not verify_report_dict(data)
    # flipping the verdict against the certificate type also fails
    data2 = report_to_dict(rep, A)
    data2["verdict"] = False
    assert not verify_report_dict(data2)


def test_set_length_report_verification():
    from lenalg import length_of_set
    from lenalg.documents import set_length_report
    M2 = make_matrix_algebra(make_field("Q"), 2)
    vectors = [M2.basis_vector(1), M2.basis_vector(2)]
    data = report_to_dict(set_length_report(vectors, length_of_set(M2, vectors)), M2)
    assert verify_report_dict(data)
    data["value"] = 3
    assert not verify_report_dict(data)


def test_one_field_handle_per_resolved_modulus(monkeypatch):
    from lenalg import fields
    fields._build_field.cache_clear()
    built = _count_builds(monkeypatch)
    aes = {"kind": "extension", "p": 2, "k": 8,
           "modulus": [1, 1, 0, 1, 1, 0, 0, 0, 1]}
    doc = {"field": aes, "dim": 1, "one": ["[1,0,0,0,0,0,0,0]"],
           "table": [[["[1,0,0,0,0,0,0,0]"]]]}
    first, second = (parse_document(doc).algebra.field for _ in range(2))
    assert first is second
    assert built == [("ExtensionField", 2, 8, tuple(aes["modulus"])),
                     ("PrimeField", 2)]
    gf9 = make_field("GF9")
    assert field_from_json({"kind": "extension", "p": 3, "k": 2}) is gf9
    assert field_from_json({"kind": "extension", "p": 3, "k": 2,
                            "modulus": [1, 0, 1]}) is gf9
    assert field_from_json("GF9") is gf9
    assert field_from_json({"kind": "prime", "p": 5}) is make_field("F5")
    assert field_from_json({"kind": "rationals"}) is make_field("Q")
    assert field_from_json(gf9) is gf9


@pytest.mark.parametrize("obj, where, message", [
    ({"kind": "extension", "p": 3, "k": 2, "modulus": [1, 1, 1]},
     "field.modulus", "modulus [1, 1, 1] factors over F_3"),
    ({"kind": "prime", "p": 4}, "field.p", "4 is not prime"),
    ({"kind": "extension", "p": 3, "k": 5}, "field",
     "no default modulus for GF(3^5); supply one explicitly"),
    ("F4", "field", "4 is not prime"),
])
def test_field_errors_are_not_cached(obj, where, message):
    for _ in range(2):
        with pytest.raises(SchemaError) as exc:
            field_from_json(obj)
        assert str(exc.value) == f"{where}: {message}"
