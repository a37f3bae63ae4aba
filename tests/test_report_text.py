"""The command line's reports, byte for byte against the reference writers
of `tests/corpus.py`, which dispatch on witness objects as the command line
did before `documents` wrote every report.

The oracle, `length`, `length-set` and `identities` run end to end through
`cli.main`; the golden corpus's decisions are compared in
`tests/test_golden_reports.py`.
"""

import contextlib
import io

import pytest

from lenalg import (
    fixture_names,
    generate_length_one,
    length_of_algebra,
    length_of_set,
    make_field,
    make_fixture,
    make_matrix_algebra,
    oracle_length_one,
    parse_document,
    render_document,
    render_report,
)
from lenalg.cli import main
from lenalg.decide import decide_length_one
from lenalg.documents import algebra_length_report, set_length_report

from tests.corpus import (
    reference_identities,
    reference_oracle_report,
    reference_oracle_text,
    reference_print_report,
)


def _printed(fn, *args, **kwargs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fn(*args, **kwargs)
    return out.getvalue()


@pytest.fixture
def run(tmp_path, capsys):
    """Write A as a document, run the command on it, and return (exit code,
    stdout, the parsed algebra)."""
    def go(A, command, *options):
        path = tmp_path / "algebra.json"
        path.write_text(render_document(A))
        code = main([command, str(path), *options])
        return code, capsys.readouterr().out, parse_document(path.read_text()).algebra
    return go


def _yes_table(name):
    field = make_field(name)
    mode = "type-i" if field.characteristic() == 2 else "special"
    return generate_length_one(field, 4, 0, mode, hide=True)


@pytest.mark.parametrize("name", ["Q", "F5", "GF4"])
@pytest.mark.parametrize("verdict", ["yes", "no"])
def test_oracle_text_and_json_match_the_reference(run, name, verdict):
    A = _yes_table(name) if verdict == "yes" else make_matrix_algebra(make_field(name), 2)
    code, text, B = run(A, "oracle")
    res = oracle_length_one(B)
    assert code == (0 if verdict == "yes" else 1)
    assert res.is_length_one is (verdict == "yes")
    assert text == _printed(reference_oracle_text, B, res)
    assert text.endswith(f"pairs checked: {res.pairs_checked}\n")
    code, data, _ = run(A, "oracle", "--json")
    assert data == render_report(reference_oracle_report(B, res), B)


def test_length_text_matches_the_reference(run):
    M2 = make_matrix_algebra(make_field("F2"), 2)
    code, text, A = run(M2, "length")
    assert code == 0
    rep = algebra_length_report(length_of_algebra(A))
    assert text == _printed(reference_print_report, rep, A)


@pytest.mark.parametrize("spec, indices, generates", [
    ("e2;e3", (1, 2), True),
    ("e2", (1,), False),
])
def test_length_set_text_matches_the_reference(run, spec, indices, generates):
    M2 = make_matrix_algebra(make_field("F2"), 2)
    code, text, A = run(M2, "length-set", "--set", spec)
    assert code == 0
    vectors = [A.basis_vector(i) for i in indices]
    res = length_of_set(A, vectors)
    assert res.generates is generates
    assert text == _printed(reference_print_report, set_length_report(vectors, res), A)


def _identities_tables():
    tables = [(name, make_fixture(name)) for name in fixture_names()]
    tables.append(("char2-matrix", make_matrix_algebra(make_field("F2"), 2)))
    tables.append(("special-basis",
                   generate_length_one(make_field("F5"), 4, 1, "special", hide=True)))
    return [pytest.param(key, A, id=key) for key, A in tables]


@pytest.mark.parametrize("key, A", _identities_tables())
def test_identities_text_and_json_match_the_reference(run, key, A):
    code, text, B = run(A, "identities")
    assert code == 0
    decision = decide_length_one(B)
    assert text == _printed(reference_identities, B, decision, 6, False)
    code, data, _ = run(A, "identities", "--json")
    assert code == 0
    assert data == _printed(reference_identities, B, decision, 6, True)
    if key == "char2-matrix":
        assert "jordan: skipped (not defined in characteristic 2)\n" in text
    if key == "special-basis":
        assert "special-basis parameter laws (length-one witness):\n" in text
