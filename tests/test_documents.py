"""Document parsing, canonical rendering, report serialization."""

import json
from fractions import Fraction

import pytest

from lenalg import (
    algebra,
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
from lenalg.algebra import Algebra
from lenalg.constructors import FIXTURES
from lenalg.documents import _parse_vector, field_from_json, field_to_json
from lenalg.errors import InvalidIdentity, NoIdentityError, SchemaError, ScalarSyntaxError

from tests.corpus import reference_parse_vector


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


# Scalars the one-pass vector parser must read as the per-scalar loop
# does: odd but valid spellings (the Arabic-Indic digit one parses as 1),
# bad strings, non-strings, and an integer past the int-string digit limit
PARSE_CASES = [" 3/4 ", "+2", "-0", "2/4", "007", "\u0661", "1/0", "1/-2",
               "1.5", "", 3, None, [], "9" * 5000]


def _parse_outcome(parse, field, obj, n=None):
    """The parsed values with their types, or the error's class, path and
    message."""
    try:
        values = parse(field, obj, len(obj) if n is None else n, "table[1][0]")
    except SchemaError as exc:
        return type(exc), exc.path, exc.message
    return values, [type(x) for x in values]


@pytest.mark.parametrize("name", ["Q", "F5", "GF4"])
def test_vector_parsing_matches_the_per_scalar_reference(name):
    F = make_field(name)
    for case in PARSE_CASES:
        # alone, first, last, and twice with a good entry first
        for obj in ([case], [case, "1", "0"], ["1", "0", case], ["2", case, case]):
            want = _parse_outcome(reference_parse_vector, F, obj)
            assert _parse_outcome(_parse_vector, F, obj) == want, (name, obj)
    for obj, n in ((["1"] * 3, 2), ("1", 1)):  # a wrong length, not a list
        want = _parse_outcome(reference_parse_vector, F, obj, n)
        assert want[0] is SchemaError
        assert _parse_outcome(_parse_vector, F, obj, n) == want


def test_vector_parsing_edge_cases_read_as_before():
    Q = make_field("Q")
    assert _parse_vector(Q, [" 3/4 ", "+2", "-0", "2/4", "007", "\u0661"], 6, "v") == (
        Fraction(3, 4), 2, 0, Fraction(1, 2), 7, 1)
    for bad, index in ((["1/0", "1"], 0), (["1", "1/-2"], 1), (["1", "0", "1.5"], 2)):
        with pytest.raises(ScalarSyntaxError) as exc:
            _parse_vector(Q, bad, len(bad), "table[1][0]")
        assert exc.value.path == f"table[1][0][{index}]"
        assert exc.value.message == f"not a rational scalar: {bad[index]!r}"
    with pytest.raises(ScalarSyntaxError) as exc:
        _parse_vector(Q, ["1", None], 2, "one")
    assert (exc.value.path, exc.value.message) == ("one[1]", "scalar must be a string, got NoneType")
    with pytest.raises(ScalarSyntaxError) as exc:
        _parse_vector(make_field("F5"), ["9" * 5000], 1, "one")
    assert exc.value.path == "one[0]" and "Exceeds the limit" in exc.value.message


# A Q dim-3 document with identity e_2, so that the cells (0, 0) and (1, 0)
# carry no identity condition; each PARSE_CASES entry replaces one scalar
_Q3 = {"field": "Q", "dim": 3, "one": ["0", "0", "1"],
       "table": [[["1/3", "-2", "0"], ["0", "5/7", "1"], ["1", "0", "0"]],
                 [["2", "0", "-1/2"], ["3", "1", "4"], ["0", "1", "0"]],
                 [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]}


def _reference_document(doc):
    """The algebra of `doc` read one scalar at a time, or its error's class,
    path and message."""
    Q = make_field("Q")
    try:
        table = []
        for i, row in enumerate(doc["table"]):
            if not isinstance(row, list) or len(row) != 3:
                raise SchemaError(f"table[{i}]", "expected 3 entries")
            table.append([reference_parse_vector(Q, cell, 3, f"table[{i}][{j}]")
                          for j, cell in enumerate(row)])
        one = reference_parse_vector(Q, doc["one"], 3, "one")
        try:
            return algebra(Q, table, one)
        except InvalidIdentity as exc:
            raise SchemaError("one", str(exc))
    except SchemaError as exc:
        return type(exc), exc.path, exc.message


def _edited(doc, keys, value):
    doc = json.loads(json.dumps(doc))
    holder = doc
    for key in keys[:-1]:
        holder = holder[key]
    holder[keys[-1]] = value
    return doc


def test_q_document_parsing_matches_the_per_scalar_reference():
    # a Q table is read in one pass as integers, and its Fraction table built
    # only when read; errors, payloads, equality, hash and the rendered text
    # are those of the scalar-by-scalar parse, also for cells and rows of
    # the wrong shape ("123" has three digit entries)
    edits = [(keys, case) for case in PARSE_CASES
             for keys in (("table", 0, 0, 0), ("table", 1, 0, 2), ("one", 1))]
    edits += [(("table", 1, 0), bad) for bad in ("123", dict.fromkeys("123", 0), ["1"])]
    edits += [(("table", 1), bad) for bad in ("123", [["1", "0", "0"]] * 2)]
    for keys, case in edits:
        doc = _edited(_Q3, keys, case)
        want = _reference_document(doc)
        try:
            A = parse_document(doc).algebra
        except SchemaError as exc:
            assert (type(exc), exc.path, exc.message) == want, (case, keys)
            continue
        assert isinstance(want, Algebra), (case, keys)
        text = render_document(A)   # from the integers, the table unbuilt
        assert "table" not in vars(A), (case, keys)
        assert text == render_document(want)
        assert A.table == want.table and A.one == want.one
        payloads = [x for row in A.table for cell in row for x in cell] + list(A.one)
        assert all(type(x) is Fraction for x in payloads)
        assert A == want and hash(A) == hash(want)
        assert render_document(A) == text
        if case in ("2/4", "-0") and keys[0] == "table":
            _, i, j, k = keys
            assert json.loads(text)["table"][i][j][k] == {"2/4": "1/2", "-0": "0"}[case]


def test_verify_cert_names_a_bad_scalar_of_the_embedded_algebra():
    A = parse_document(_Q3).algebra
    data = report_to_dict(decide_length_one(A), A)
    data["algebra"]["table"][1][0][2] = "1/0"
    with pytest.raises(ScalarSyntaxError) as exc:
        verify_report_dict(data)
    assert (exc.value.path, exc.value.message) == (
        "algebra.table[1][0][2]", "not a rational scalar: '1/0'")


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
