"""JSON document format for algebras and machine-readable reports.

Scalars travel as strings ("5", "-1/2", "[0,1]") so exact values never pass
through binary floating point; integers appear only where they are exact in
JSON (dimensions, indices, modulus coefficients).  Rendering is canonical:
fixed key order, canonical scalar strings, two-space indentation, trailing
newline.  `render_document(parse_document(text))` is byte-identical whenever
`text` was itself produced by `render_document`.

Document shape:

    {
      "field": "Q" | "F<p>" | "GF4" | {"kind": ..., ...},
      "dim": n,
      "one": ["1", "0", ...],          # optional; detected when omitted
      "adjoin_identity": true,         # optional; adjoins a new identity
      "table": [[["c", ...] x n] x n],
      "metadata": {...}                # optional, free-form
    }
"""

from __future__ import annotations

import json

from .algebra import algebra, find_identity, unital_hull
from .decide import (
    CHAR2_FORMS,
    CharTwoWitness,
    LengthReport,
    SpecialBasisWitness,
    ViolationWitness,
    oracle_length_one,
    verify_certificate,
)
from .errors import (
    DimensionMismatch,
    InvalidIdentity,
    LenalgError,
    NoIdentityError,
    NonPrimeModulus,
    ReducibleModulus,
    SchemaError,
    ScalarSyntaxError,
    SingularMatrix,
)
from .fields import DEFAULT_MODULI, ExtensionField, Field, field_handle, make_field
from .length import length_of_algebra, length_of_set
from .linalg import BasisChange


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def field_to_json(field):
    """The field's shorthand label, or an extension object when the label
    would not rebuild it (its modulus is not the default one); no field is
    built."""
    if (isinstance(field, ExtensionField)
            and DEFAULT_MODULI.get((field.p, field.k)) != field.modulus):
        return {"kind": "extension", "p": field.p, "k": field.k,
                "modulus": list(field.modulus)}
    return field.label()


# The key of a field object that a construction error is about; any other
# error (an unsupported order or degree) is about the field as a whole.
_FIELD_ERROR_KEYS = {NonPrimeModulus: ".p", ReducibleModulus: ".modulus"}


def field_from_json(obj, path="field"):
    """The field a document names; anything wrong with it, including a
    field that cannot be built, is a SchemaError at the key at fault.  Each
    field is built once (`fields.field_handle`), and a `Field` handle in
    place of the JSON is taken as it is."""
    if isinstance(obj, Field):
        return obj
    if isinstance(obj, str):
        try:
            return make_field(obj)
        except (ValueError, LenalgError) as exc:
            raise SchemaError(path, str(exc))
    if not isinstance(obj, dict):
        raise SchemaError(path, "field must be a shorthand string or an object")
    unknown = set(obj) - {"kind", "p", "k", "modulus"}
    if unknown:
        raise SchemaError(path, f"unknown keys: {sorted(unknown)}")
    kind = obj.get("kind")
    if kind == "rationals":
        return field_handle("rationals")
    if kind not in ("prime", "extension"):
        raise SchemaError(f"{path}.kind", f"unknown field kind {kind!r}")
    for key in ("p",) if kind == "prime" else ("p", "k"):
        if type(obj.get(key)) is not int:
            raise SchemaError(f"{path}.{key}", f"{kind} field needs an integer {key}")
    modulus = obj.get("modulus")
    if kind == "extension" and modulus is not None:
        if not isinstance(modulus, list) or any(type(c) is not int for c in modulus):
            raise SchemaError(f"{path}.modulus", "modulus must be a list of integers")
        modulus = tuple(modulus)
    try:
        if kind == "prime":
            return field_handle("prime", obj["p"])
        return field_handle("extension", obj["p"], obj["k"], modulus)
    except LenalgError as exc:
        raise SchemaError(path + _FIELD_ERROR_KEYS.get(type(exc), ""), str(exc))


# ---------------------------------------------------------------------------
# algebra documents
# ---------------------------------------------------------------------------

class AlgebraDocument:
    """A parsed document: the algebra plus its free-form metadata."""

    def __init__(self, algebra, metadata=None):
        self.algebra = algebra
        self.metadata = dict(metadata or {})


def _parse_scalar(field, text, path):
    if not isinstance(text, str):
        raise ScalarSyntaxError(path, f"scalar must be a string, got {type(text).__name__}")
    try:
        return field.parse(text)
    except ValueError as exc:
        raise ScalarSyntaxError(path, str(exc))


def _parse_vector(field, obj, n, path):
    if not isinstance(obj, list) or len(obj) != n:
        raise SchemaError(path, f"expected a list of {n} scalar strings")
    return tuple(_parse_scalar(field, s, f"{path}[{i}]") for i, s in enumerate(obj))


def _load_object(source, what):
    """JSON text (or already-loaded data) that must hold a JSON object."""
    if isinstance(source, (str, bytes)):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"not valid JSON: {exc}")
    if not isinstance(source, dict):
        raise SchemaError("$", f"{what} must be a JSON object")
    return source


def parse_document(source):
    """Parse JSON text (or an already-loaded dict) into an AlgebraDocument."""
    data = _load_object(source, "document")
    unknown = set(data) - {"field", "dim", "one", "adjoin_identity", "table",
                           "metadata"}
    if unknown:
        raise SchemaError("$", f"unknown keys: {sorted(unknown)}")
    field = field_from_json(data.get("field"), "field")
    dim = data.get("dim")
    if type(dim) is not int or dim < 1:
        raise SchemaError("dim", "dim must be a positive integer")
    table_obj = data.get("table")
    if not isinstance(table_obj, list) or len(table_obj) != dim:
        raise SchemaError("table", f"table must be a {dim}x{dim} array")
    table = []
    for i, row in enumerate(table_obj):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"table[{i}]", f"expected {dim} entries")
        table.append(tuple(
            _parse_vector(field, cell, dim, f"table[{i}][{j}]")
            for j, cell in enumerate(row)
        ))
    table = tuple(table)
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("metadata", "metadata must be an object")
    adjoin = data.get("adjoin_identity", False)
    if not isinstance(adjoin, bool):
        raise SchemaError("adjoin_identity", "must be a boolean")
    if adjoin and "one" in data:
        raise SchemaError("adjoin_identity",
                          "cannot both give an identity and adjoin one")
    if adjoin:
        return AlgebraDocument(unital_hull(field, table), metadata)
    if "one" in data:
        one = _parse_vector(field, data["one"], dim, "one")
        try:
            return AlgebraDocument(algebra(field, table, one), metadata)
        except InvalidIdentity as exc:
            raise SchemaError("one", str(exc))
    one = find_identity(field, table)
    if one is None:
        raise NoIdentityError(
            "table has no two-sided identity; set \"adjoin_identity\": true "
            "to adjoin one")
    return AlgebraDocument(algebra(field, table, one), metadata)


def document_dict(A, metadata=None):
    field = A.field
    doc = {
        "field": field_to_json(field),
        "dim": A.dim,
        "one": [field.render(c) for c in A.one],
        "table": [[[field.render(c) for c in cell] for cell in row]
                  for row in A.table],
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def render_document(A, metadata=None):
    """Canonical JSON text for an algebra (or an AlgebraDocument)."""
    if isinstance(A, AlgebraDocument):
        metadata = metadata if metadata is not None else A.metadata
        A = A.algebra
    return json.dumps(document_dict(A, metadata), indent=2) + "\n"


# ---------------------------------------------------------------------------
# certificates and reports
# ---------------------------------------------------------------------------

def _render_vec(field, v):
    return [field.render(c) for c in v]


def _render_matrix(field, m):
    return [[field.render(c) for c in row] for row in m]


def certificate_to_dict(field, certificate):
    if certificate is None:
        return None
    if isinstance(certificate, SpecialBasisWitness):
        return {
            "type": "special-basis",
            "change": _render_matrix(field, certificate.change.matrix),
            "mu": _render_vec(field, certificate.mu),
            "beta": _render_vec(field, certificate.beta),
            "alpha": _render_matrix(field, certificate.alpha),
        }
    if isinstance(certificate, CharTwoWitness):
        return {
            "type": "char2-form",
            "form": certificate.form,
            "change": _render_matrix(field, certificate.change.matrix),
            "beta": _render_vec(field, certificate.beta),
            "congruence_constants": {
                "squares": _render_vec(field, certificate.square_constants),
                "products": _render_matrix(field, certificate.product_constants),
            },
        }
    if isinstance(certificate, ViolationWitness):
        return {
            "type": "violation",
            "condition": certificate.condition,
            "left": _render_vec(field, certificate.left),
            "right": _render_vec(field, certificate.right),
            "detail": certificate.detail,
        }
    if isinstance(certificate, dict):  # a length certificate
        return dict(certificate, vectors=[_render_vec(field, v)
                                          for v in certificate["vectors"]])
    raise TypeError(f"cannot serialize certificate {type(certificate).__name__}")


def _entry(obj, key, path, kind=list):
    """obj[key], which must exist and be a JSON value of the given type."""
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing")
    if not isinstance(obj[key], kind):
        names = {list: "an array", dict: "an object", str: "a string",
                 bool: "true or false"}
        raise SchemaError(f"{path}.{key}", f"must be {names[kind]}")
    return obj[key]


def _parse_rows(field, obj, key, path):
    """obj[key] as a list of scalar vectors; lengths are left to the verifier."""
    rows = _entry(obj, key, path)
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise SchemaError(f"{path}.{key}[{i}]", "must be an array")
    return tuple(_parse_vector(field, row, len(row), f"{path}.{key}[{i}]")
                 for i, row in enumerate(rows))


def certificate_from_dict(field, obj):
    """The certificate object of a report; SchemaError names what is malformed.

    Shapes follow docs/report.schema.json.  Vector and matrix sizes are not
    checked here: a certificate of the wrong size for its algebra parses, and
    then fails verification.
    """
    if obj is None:
        return None
    path = "certificate"
    if not isinstance(obj, dict):
        raise SchemaError(path, "certificate must be an object or null")

    def vector(key, src=obj, at=path):
        return _parse_vector(field, _entry(src, key, at), len(src[key]),
                             f"{at}.{key}")

    def change():
        try:
            return BasisChange(field, _parse_rows(field, obj, "change", path))
        except (DimensionMismatch, SingularMatrix) as exc:
            raise SchemaError(f"{path}.change", str(exc))

    kind = obj.get("type")
    if kind == "special-basis":
        return SpecialBasisWitness(
            change=change(), mu=vector("mu"), beta=vector("beta"),
            alpha=_parse_rows(field, obj, "alpha", path))
    if kind == "char2-form":
        form = _entry(obj, "form", path, str)
        if form not in CHAR2_FORMS:
            raise SchemaError(f"{path}.form", f"unknown char-2 form {form!r}")
        cc = _entry(obj, "congruence_constants", path, dict)
        cc_path = f"{path}.congruence_constants"
        return CharTwoWitness(
            change=change(), form=form, beta=vector("beta"),
            square_constants=vector("squares", cc, cc_path),
            product_constants=_parse_rows(field, cc, "products", cc_path))
    if kind == "violation":
        return ViolationWitness(
            left=vector("left"), right=vector("right"),
            condition=obj.get("condition", "oracle-pair"),
            detail=obj.get("detail", {}),
        )
    if kind == "generating-set":
        _entry(obj, "generates", path, bool)
        if any(type(d) is not int for d in _entry(obj, "dims", path)):
            raise SchemaError(f"{path}.dims", "must be an array of integers")
    if kind in ("generating-set", "maximizing-set"):
        return dict(obj, vectors=_parse_rows(field, obj, "vectors", path))
    raise SchemaError(f"{path}.type", f"unknown certificate type {kind!r}")


def set_length_report(vectors, res):
    """The `set-length` report of `length_of_set(A, vectors)`."""
    cert = {"type": "generating-set", "vectors": tuple(vectors),
            "dims": res.dims, "generates": res.generates}
    return LengthReport(kind="set-length", value=res.length, certificate=cert,
                        path=[f"word spans stabilized at {res.stabilized_at}"],
                        flags=[])


def algebra_length_report(res):
    """The `algebra-length` report of a `length_of_algebra` result."""
    cert = {"type": "maximizing-set", "vectors": res.witness_rows,
            "subspaces_examined": res.subspaces_examined}
    return LengthReport(kind="algebra-length", value=res.length, certificate=cert,
                        path=[f"enumerated {res.subspaces_examined} subspaces"],
                        flags=[])


def report_to_dict(report, A):
    """Machine-readable report with the algebra embedded for re-verification."""
    out = {
        "report_version": 1,
        "kind": report.kind,
    }
    if report.kind == "length-one-decision":
        out["verdict"] = bool(report.value)
    else:
        out["value"] = int(report.value)
    out["path"] = list(report.path)
    out["flags"] = list(report.flags)
    out["certificate"] = certificate_to_dict(A.field, report.certificate)
    out["algebra"] = document_dict(A)
    return out


def render_report(report, A):
    return json.dumps(report_to_dict(report, A), indent=2) + "\n"


def verify_report_dict(data, budget=None):
    """Re-verify the certificate embedded in a report (JSON text or dict).

    Decision certificates re-verify directly, and a "yes" without one (the
    oracle's report) by running the oracle again under `budget`; length
    certificates re-verify by recomputing the reported quantity from the
    recorded set, and an algebra length by an enumeration capped by
    `budget`.  A report that is not a JSON object with a known `kind`, a
    boolean `verdict` (decision reports) or a non-negative integer `value`
    (length reports) and an embedded algebra document, or whose certificate
    is malformed, raises SchemaError; errors inside the document carry the
    `algebra.` prefix.
    """
    data = _load_object(data, "report")
    kind = data.get("kind")
    if kind not in ("length-one-decision", "set-length", "algebra-length"):
        raise SchemaError("kind", "missing" if "kind" not in data
                          else f"unknown report kind {kind!r}")
    if not isinstance(data.get("algebra"), dict):
        raise SchemaError("algebra", "report has no embedded algebra document")
    try:
        doc = parse_document(data["algebra"])
    except SchemaError as exc:
        inner = "" if exc.path == "$" else "." + exc.path
        raise type(exc)(f"algebra{inner}", exc.message) from None
    A = doc.algebra
    field = A.field
    verdict = data.get("verdict")
    if kind == "length-one-decision" and not isinstance(verdict, bool):
        raise SchemaError("verdict", "must be true or false")
    value = data.get("value")
    if kind != "length-one-decision" and (type(value) is not int or value < 0):
        raise SchemaError("value", "must be a non-negative integer")
    cert = certificate_from_dict(field, data.get("certificate"))
    if kind == "length-one-decision":
        if verdict and isinstance(cert, ViolationWitness):
            return False
        if not verdict and not isinstance(cert, ViolationWitness):
            return False
        if cert is None:
            return oracle_length_one(A, budget=budget, witness=False).is_length_one
        return verify_certificate(A, cert)
    if not isinstance(cert, dict) or any(len(v) != A.dim for v in cert["vectors"]):
        return False
    if kind == "set-length":
        if cert["type"] != "generating-set":
            return False
        res = length_of_set(A, cert["vectors"])
        return (res.length == value and res.generates == cert["generates"]
                and res.dims == cert["dims"])
    if cert["type"] != "maximizing-set":
        return False
    res = length_of_set(A, cert["vectors"])
    if not res.generates or res.length != value:
        return False
    full = length_of_algebra(A, budget=budget)
    return full.length == value
