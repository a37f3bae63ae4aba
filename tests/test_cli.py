"""CLI surface: exit codes, JSON reports, round trips."""

import json
import os
import re
import subprocess
import sys

import pytest

from lenalg.cli import main
from lenalg import FIXTURES, make_field, make_fixture, make_matrix_algebra, render_document
from lenalg.decide import _quotient_lines

from tests.corpus import reference_power_associative


@pytest.fixture
def fixture_file(tmp_path):
    def write(name, field=None):
        A = make_fixture(name, field=field)
        path = tmp_path / f"{name}.json"
        path.write_text(render_document(A, metadata={"name": name}))
        return str(path)
    return write


def test_check_exit_codes(fixture_file, capsys):
    assert main(["check", fixture_file("dim3-f2-type2")]) == 0
    out = capsys.readouterr().out
    assert "yes" in out and "dim3-f2-type2" in out
    assert main(["check", fixture_file("remark-literal")]) == 1
    out = capsys.readouterr().out
    assert "no (length > 1)" in out


def test_check_json_report_and_verify_cert(fixture_file, tmp_path, capsys):
    path = fixture_file("char2-typeI-seeded")
    assert main(["check", path, "--json"]) == 0
    report = capsys.readouterr().out
    data = json.loads(report)
    assert data["verdict"] is True
    assert data["certificate"]["type"] == "char2-form"
    rp = tmp_path / "report.json"
    rp.write_text(report)
    assert main(["verify-cert", str(rp)]) == 0
    capsys.readouterr()
    # tamper
    data["certificate"]["beta"][0] = "[1,1]"
    rp.write_text(json.dumps(data))
    assert main(["verify-cert", str(rp)]) == 1


def test_oracle_cli(fixture_file, capsys):
    import lenalg
    F5 = lenalg.make_field("F5")
    assert main(["oracle", fixture_file("remark-literal", F5)]) == 1
    out = capsys.readouterr().out
    assert "witness pair" in out
    assert main(["oracle", fixture_file("dim3-f2-type1")]) == 0


def test_check_and_oracle_agree_on_fixtures(fixture_file):
    import lenalg
    for name in ("dim3-f2-type1", "dim3-f2-type2", "dim3-f2-type3",
                 "dim3-f2-type4", "char2-typeI-seeded", "char2-typeII-seeded"):
        path = fixture_file(name)
        assert main(["check", path]) == main(["oracle", path])


def test_length_set_cli(tmp_path, capsys):
    assert main(["make", "matrix", "--field", "Q", "--n", "2",
                 "-o", str(tmp_path / "m2.json")]) == 0
    assert main(["length-set", str(tmp_path / "m2.json"),
                 "--set", "e2;e3"]) == 0
    out = capsys.readouterr().out
    assert "l(S) = 2" in out and "1, 3, 4" in out
    # explicit coordinate vectors mean the same thing
    assert main(["length-set", str(tmp_path / "m2.json"),
                 "--set", "0,1,0,0;0,0,1,0"]) == 0
    assert "l(S) = 2" in capsys.readouterr().out


def test_length_cli(tmp_path, capsys):
    assert main(["make", "matrix", "--field", "F2", "--n", "2",
                 "-o", str(tmp_path / "m2f2.json")]) == 0
    assert main(["length", str(tmp_path / "m2f2.json")]) == 0
    assert "l(A) = 2" in capsys.readouterr().out
    # refuses infinite fields with a structured error
    assert main(["make", "matrix", "--field", "Q", "--n", "2",
                 "-o", str(tmp_path / "m2q.json")]) == 0
    assert main(["length", str(tmp_path / "m2q.json")]) == 2
    assert "InfiniteFieldUnsupported" in capsys.readouterr().err


def test_length_json_report_verifies(tmp_path, capsys):
    assert main(["make", "direct-sum", "--field", "F3", "--k", "3",
                 "-o", str(tmp_path / "s.json")]) == 0
    assert main(["length", str(tmp_path / "s.json"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 2
    from lenalg import verify_report_dict
    assert verify_report_dict(data)


def test_identities_cli(fixture_file, capsys):
    assert main(["identities", fixture_file("remark-repaired")]) == 0
    out = capsys.readouterr().out
    assert "associative: fails" in out
    assert "flexible: fails" in out  # alpha_12 = 5/2 != -1/2 = alpha_21
    assert "special-basis parameter laws" in out
    assert "flexible-law(params): False" in out
    assert main(["identities", fixture_file("dim3-f2-type2")]) == 0
    out = capsys.readouterr().out
    assert "jordan: skipped" in out


def test_make_random_l1_and_check(tmp_path, capsys):
    out_path = str(tmp_path / "r.json")
    assert main(["make", "random-l1", "--field", "GF4", "--dim", "4",
                 "--seed", "9", "--mode", "type-ii", "--hide",
                 "-o", out_path]) == 0
    assert main(["check", out_path]) == 0
    assert "type-ii" in capsys.readouterr().out


def test_make_bilinear_jordan(tmp_path, capsys):
    out_path = str(tmp_path / "bj.json")
    assert main(["make", "bilinear-jordan", "--field", "Q",
                 "--gram", "1,0;0,-1", "-o", out_path]) == 0
    assert main(["check", out_path]) == 0


def test_make_fixture_unknown_name(capsys):
    assert main(["make", "fixture", "--name", "no-such-fixture"]) == 2
    assert "UnknownFixture" in capsys.readouterr().err


def test_bad_document_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "Q"}')
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err


@pytest.mark.parametrize("text, where", [
    ("{not json", "$"),
    ("[1, 2]", "$"),
    ('{"kind": "length-one-decision", "verdict": true}', "algebra"),
    ('{"kind": "length-one-decision", "algebra": {"field": "Q"}}', "algebra.dim"),
])
def test_verify_cert_malformed_report_is_error(tmp_path, capsys, text, where):
    bad = tmp_path / "report.json"
    bad.write_text(text)
    assert main(["verify-cert", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[SchemaError]: {where}: ")
    assert "Traceback" not in err


def test_identities_degree_label(fixture_file, capsys):
    path = fixture_file("remark-repaired")
    assert main(["identities", path, "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "power-associative(<=3): holds" in out
    assert "<=6" not in out
    assert main(["identities", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "power-associative(<=6)" in data["identities"]


def test_successive_calls_do_not_leak_arguments(fixture_file, capsys):
    """`main` shares one parser; an option given to one call is gone from
    the next."""
    path = fixture_file("remark-repaired")
    assert main(["identities", path, "--degree", "3"]) == 0
    assert "power-associative(<=3)" in capsys.readouterr().out
    assert main(["identities", path]) == 0
    assert "power-associative(<=6)" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lenalg", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_closed_stdout_exits_2_without_traceback(fixture_file, flags):
    # the reader of stdout is gone before the report is written
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "wb") as closed:
        proc = subprocess.run(
            [sys.executable, "-m", "lenalg", "check", *flags,
             fixture_file("remark-repaired")],
            stdout=closed, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == ""


def test_stdin_input(monkeypatch, capsys):
    import io
    A = make_fixture("dim3-f2-type1")
    monkeypatch.setattr("sys.stdin", io.StringIO(render_document(A)))
    assert main(["check", "-"]) == 0


_DELETE = object()


def _edited_report(tmp_path, capsys, argv, keys, value):
    """The --json report of the command `argv` with one entry replaced or
    deleted."""
    main(argv)
    data = json.loads(capsys.readouterr().out)
    holder = data
    for key in keys[:-1]:
        holder = holder[key]
    if value is _DELETE:
        del holder[keys[-1]]
    else:
        holder[keys[-1]] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("name, keys, value, where", [
    ("remark-repaired", ("certificate",), 5, "certificate"),
    ("remark-repaired", ("certificate", "change"), _DELETE, "certificate.change"),
    ("remark-repaired", ("certificate", "change"), [["0", "0", "0"]] * 3,
     "certificate.change"),
    ("remark-repaired", ("certificate", "mu"), "1", "certificate.mu"),
    ("remark-repaired", ("certificate", "mu", 0), 7, "certificate.mu[0]"),
    ("remark-repaired", ("certificate", "alpha", 0), {}, "certificate.alpha[0]"),
    ("dim3-f2-type2", ("certificate", "form"), "type-9", "certificate.form"),
    ("dim3-f2-type2", ("certificate", "congruence_constants"), _DELETE,
     "certificate.congruence_constants"),
    ("dim3-f2-type2", ("certificate", "congruence_constants", "products", 0), 3,
     "certificate.congruence_constants.products[0]"),
    ("remark-literal", ("certificate", "left"), _DELETE, "certificate.left"),
])
def test_verify_cert_malformed_certificate_is_error(
        fixture_file, tmp_path, capsys, name, keys, value, where):
    path = _edited_report(tmp_path, capsys, ["check", fixture_file(name), "--json"],
                          keys, value)
    assert main(["verify-cert", path]) == 2
    err = capsys.readouterr().err
    # ScalarSyntaxError is the SchemaError of a single scalar
    assert re.match(rf"error\[(Schema|ScalarSyntax)Error\]: {re.escape(where)}: ", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("keys, value, where", [
    (("kind",), 5, "kind"),
    (("kind",), _DELETE, "kind"),
    (("verdict",), "false", "verdict"),
])
def test_verify_cert_malformed_report_field_is_error(
        fixture_file, tmp_path, capsys, keys, value, where):
    path = _edited_report(
        tmp_path, capsys, ["check", fixture_file("remark-repaired"), "--json"],
        keys, value)
    assert main(["verify-cert", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[SchemaError]: {where}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, where", [
    ("F4", "field"),
    ({"kind": "prime", "p": 4}, "field.p"),
    ({"kind": "prime", "p": True}, "field.p"),
    ({"kind": "extension", "p": 2, "k": True}, "field.k"),
    ({"kind": "extension", "p": 2, "k": 2, "modulus": [1, 0, 1]}, "field.modulus"),
    ({"kind": "prime", "p": 2 ** 89 - 1}, "field"),   # prime, past MAX_PRIME
    (5, "field"),
    ({"kind": "foo"}, "field.kind"),
    ({"kind": "extension", "p": 2, "k": 2, "modulus": ["a"]}, "field.modulus"),
    ({"kind": "prime", "p": 5, "junk": 1}, "field"),
])
@pytest.mark.parametrize("command", ["check", "verify-cert"])
def test_bad_field_exits_2_naming_its_path(
        fixture_file, tmp_path, capsys, command, field, where):
    if command == "check":
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"field": field, "dim": 1, "one": ["1"],
                                    "table": [[["1"]]]}))
        path = str(path)
    else:
        path = _edited_report(
            tmp_path, capsys, ["check", fixture_file("remark-repaired"), "--json"],
            ("algebra", "field"), field)
        where = "algebra." + where
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[SchemaError]: {where}: ")
    assert "Traceback" not in err


_LENGTH_SET = ["length-set", "--set", "e2;e3;e4"]  # l(S) = 1, generates


@pytest.mark.parametrize("command, keys, value, where", [
    (_LENGTH_SET, ("value",), True, "value"),
    (_LENGTH_SET, ("value",), 1.0, "value"),
    (_LENGTH_SET, ("value",), _DELETE, "value"),
    (_LENGTH_SET, ("certificate", "generates"), 1, "certificate.generates"),
    (_LENGTH_SET, ("certificate", "generates"), _DELETE, "certificate.generates"),
    (["length"], ("value",), 2.0, "value"),
    (["length"], ("value",), True, "value"),
    (["length"], ("value",), _DELETE, "value"),
])
def test_verify_cert_mistyped_length_report_is_error(
        tmp_path, capsys, command, keys, value, where):
    doc = str(tmp_path / "m2.json")
    assert main(["make", "matrix", "--field", "F2", "--n", "2", "-o", doc]) == 0
    path = _edited_report(tmp_path, capsys, [command[0], doc, *command[1:], "--json"],
                          keys, value)
    assert main(["verify-cert", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[SchemaError]: {where}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("name, keys, value", [
    ("remark-repaired", ("certificate", "alpha"), []),
    ("remark-repaired", ("certificate", "alpha", 0), ["0"]),
    ("remark-repaired", ("certificate", "mu"), ["0"]),
    ("remark-repaired", ("certificate", "change"), [["1"]]),
    ("dim3-f2-type2", ("certificate", "congruence_constants", "squares"), ["0"]),
    ("dim3-f2-type2", ("certificate", "congruence_constants", "products"), [["0"]]),
    ("remark-literal", ("certificate", "right"), ["0"]),
])
def test_verify_cert_certificate_of_wrong_size_is_invalid(
        fixture_file, tmp_path, capsys, name, keys, value):
    path = _edited_report(tmp_path, capsys, ["check", fixture_file(name), "--json"],
                          keys, value)
    assert main(["verify-cert", path]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_verify_cert_honours_budget(tmp_path, capsys):
    m2 = str(tmp_path / "m2.json")
    assert main(["make", "matrix", "--field", "F2", "--n", "2", "-o", m2]) == 0
    assert main(["length", m2, "--json"]) == 0
    report = tmp_path / "length.json"
    report.write_text(capsys.readouterr().out)
    assert main(["verify-cert", str(report)]) == 0
    capsys.readouterr()
    # l(M_2(F_2)) is re-derived over the 16 subspaces of F_2^3
    assert main(["verify-cert", str(report), "--budget", "10"]) == 2
    assert capsys.readouterr().err.startswith("error[BudgetExceeded]: ")
    assert main(["verify-cert", str(report), "--budget", "16"]) == 0


@pytest.mark.parametrize("dims, code, where", [
    ([1, 3, 4], 0, None),
    ([9, 9, 9], 1, None),
    ([1, 3], 1, None),
    ("garbage", 2, "certificate.dims"),
    (_DELETE, 2, "certificate.dims"),
    ([1, "3", 4], 2, "certificate.dims"),
    ([1, True, 4], 2, "certificate.dims"),
])
def test_verify_cert_checks_set_length_dims(tmp_path, capsys, dims, code, where):
    # l({e2, e3}) on M_2(F_2) has word-span dims [1, 3, 4]
    doc = str(tmp_path / "m2.json")
    assert main(["make", "matrix", "--field", "F2", "--n", "2", "-o", doc]) == 0
    path = _edited_report(tmp_path, capsys,
                          ["length-set", doc, "--set", "e2;e3", "--json"],
                          ("certificate", "dims"), dims)
    assert main(["verify-cert", path]) == code
    out, err = capsys.readouterr()
    if where is None:
        assert out == ("certificate: valid\n" if code == 0
                       else "certificate: INVALID\n")
    else:
        assert err.startswith(f"error[SchemaError]: {where}: ")


@pytest.mark.parametrize("argv, flag", [
    (["length-set", "@remark-repaired", "--set", "x,y,z"], "--set"),
    (["length-set", "@remark-repaired", "--set", "1/0,0,0"], "--set"),
    (["identities", "@remark-repaired", "--degree", "2"], "--degree"),
    (["make", "matrix", "--field", "Q", "--n", "0"], "--n"),
    (["make", "direct-sum", "--field", "Q", "--k", "0"], "--k"),
    (["make", "bilinear-jordan", "--field", "Q", "--gram", "1,2;3,4"], "--gram"),
    (["make", "bilinear-jordan", "--field", "Q", "--gram", "1,2;2"], "--gram"),
    (["make", "bilinear-jordan", "--field", "Q", "--gram", "1,x;x,1"], "--gram"),
    (["make", "matrix", "--field", "Q", "--n", "2", "--json"],
     "unrecognized arguments: --json"),
    (["identities", "@remark-repaired", "--degree", "x"], "--degree"),
    (["length-set", "@char2-typeI-seeded", "--set", "e9"],
     "basis index out of range: e9"),
    (["length-set", "@char2-typeI-seeded", "--set", "1,0"], "has 2 entries, need 4"),
    (["make", "matrix", "--field", "F2"], "matrix needs --field and --n"),
    (["make", "matrix", "--n", "2"], "matrix needs --field and --n"),
    (["make", "direct-sum", "--field", "F2"], "direct-sum needs --field and --k"),
    (["make", "bilinear-jordan", "--field", "F2"],
     "bilinear-jordan needs --field and --gram"),
    (["make", "fixture"], "fixture needs --name (one of: "),
    (["make", "random-l1", "--field", "F2"],
     "random-l1 needs --field, --dim and --mode"),
    (["check", "no-such-dir/doc.json"], "error[FileNotFound]: "),
    (["length-set", "@remark-repaired", "--set", "e²"], "'e²' has 1 entries"),
])
def test_bad_argument_exits_2_naming_the_flag(fixture_file, capsys, argv, flag):
    argv = [fixture_file(a[1:]) if a.startswith("@") else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # an argparse usage error
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[") or err.startswith("usage:")
    assert flag in err and "Traceback" not in err


def _help(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return " ".join(capsys.readouterr().out.split())


def test_budget_help_says_what_it_caps(capsys):
    # one cap, one default, for every budgeted command
    for command in ("oracle", "length", "verify-cert", "identities"):
        assert ("--budget BUDGET enumeration work cap (default: LENALG_BUDGET "
                "or 10^7)") in _help(capsys, command)


def test_identities_budget_caps_the_power_sweep_only(
        tmp_path, capsys, monkeypatch, fixture_file):
    # M_2(F2) is not length one, so its sweep runs: 2^4 = 16 vectors, one
    # test per line of A/F*1, 7 of them, charged 15 products each at degree 6
    A = make_matrix_algebra(make_field("F2"), 2)
    path = str(tmp_path / "m2f2.json")
    assert main(["make", "matrix", "--field", "F2", "--n", "2", "-o", path]) == 0
    assert len(_quotient_lines(A)) == 7

    def identities(*extra):
        code = main(["identities", "--json", path, *extra])
        out, err = capsys.readouterr()
        if code != 0:
            return code, err
        verdict = json.loads(out)["identities"]["power-associative(<=6)"]
        assert verdict["holds"] is reference_power_associative(A, 6)
        return code, verdict["counterexample"]

    scope = {"kind": "scope", "tested": 7, "max_degree": 6}
    assert identities() == (0, scope)
    assert identities("--budget", "105") == (0, scope)
    assert identities("--budget", "104") == (
        2, "error[BudgetExceeded]: 105 power products exceeds budget 104\n")
    monkeypatch.setenv("LENALG_BUDGET", "104")
    assert identities()[0] == 2
    # a certified algebra runs no sweep, and the other checks are not capped
    assert main(["identities", "--budget", "0", fixture_file("dim3-f2-type2")]) == 0
    assert "power-associative(<=6): holds\n" in capsys.readouterr().out


def test_identities_proves_power_associativity_by_the_certificate(
        fixture_file, capsys):
    path = fixture_file("dim3-f2-type2")
    assert main(["identities", "--json", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["length_one"] is True
    assert data["identities"]["power-associative(<=6)"] == {
        "holds": True, "counterexample": {"kind": "length-one", "max_degree": 6}}
    assert main(["identities", path]) == 0
    assert "power-associative(<=6): holds\n" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["oracle", "length", "verify-cert", "identities"])
def test_a_bad_budget_exits_2_naming_it(fixture_file, tmp_path, capsys, monkeypatch,
                                        command):
    # `identities` reads the budget for a sweep, so on an algebra that is
    # not length one; `verify-cert` reads it to re-run an oracle "yes"
    path = fixture_file("remark-literal" if command == "identities" else "dim3-f2-type3")
    if command == "verify-cert":
        assert main(["oracle", "--json", path]) == 0
        path = tmp_path / "oracle.json"
        path.write_text(capsys.readouterr().out)
        path = str(path)
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--budget", "-5"])
    assert exc.value.code == 2
    assert "argument --budget: must be at least 0, got -5" in capsys.readouterr().err
    monkeypatch.setenv("LENALG_BUDGET", "abc")
    assert main([command, path]) == 2
    assert capsys.readouterr().err == (
        "error[LenalgError]: LENALG_BUDGET must be a non-negative integer, got 'abc'\n")


@pytest.mark.parametrize("argv", [
    ["check", "@remark-repaired", "--budget", "5"],
    ["length-set", "@remark-repaired", "--set", "e2", "--budget", "5"],
    ["make", "matrix", "--field", "Q", "--n", "2", "--budget", "5"],
])
def test_budget_is_refused_where_nothing_reads_it(fixture_file, capsys, argv):
    argv = [fixture_file(a[1:]) if a.startswith("@") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--samples", "3"], ["--seed", "5"]])
def test_oracle_refuses_samples_and_seed(fixture_file, capsys, option):
    # the oracle is exact over every field, so it has no sampling knobs
    with pytest.raises(SystemExit) as exc:
        main(["oracle", fixture_file("remark-repaired"), *option])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(option) in capsys.readouterr().err


def test_oracle_over_q_is_exact(fixture_file, tmp_path, capsys):
    # remark-repaired is length one: all 4^2 pairs of its basis lines pass
    assert main(["oracle", fixture_file("remark-repaired")]) == 0
    out = capsys.readouterr().out
    assert "path: oracle: basis-line pair scan\n" in out
    assert out.endswith("pairs checked: 16\n") and "flag:" not in out
    assert main(["oracle", "--json", fixture_file("remark-literal")]) == 1
    report = capsys.readouterr().out
    data = json.loads(report)
    assert data["path"] == ["oracle: basis-line pair scan"]
    assert data["flags"] == []
    assert data["certificate"]["condition"] == "oracle-pair"
    rp = tmp_path / "oracle.json"
    rp.write_text(report)
    assert main(["verify-cert", str(rp)]) == 0


@pytest.mark.parametrize("edit, where", [
    ({"one": "1"}, "one"),
    ({"table": [[["1", "0"]], [["0", "1"], ["0", "0"]]]}, "table[0]"),
    ({"metadata": 5}, "metadata"),
    ({"adjoin_identity": "yes"}, "adjoin_identity"),
    ({"dim": True}, "dim"),  # a JSON boolean is not an integer
    ({"metadata": []}, "metadata"),  # an empty or false value is not an object
    ({"metadata": 0}, "metadata"),
    ({"metadata": False}, "metadata"),
    ({"metadata": ""}, "metadata"),
    ({"metadata": None}, "metadata"),
    ({"one": None}, "one"),  # null is not an omitted identity
])
def test_bad_document_key_exits_2_naming_it(tmp_path, capsys, edit, where):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "field": "Q", "dim": 2, "one": ["1", "0"],
        "table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]], **edit}))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[SchemaError]: {where}: ")
    assert "Traceback" not in err


def test_verify_cert_json_prints_the_verdict(fixture_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["check", "--json", fixture_file("remark-repaired")]) == 0
    report.write_text(capsys.readouterr().out)
    assert main(["verify-cert", "--json", str(report)]) == 0
    assert capsys.readouterr().out == '{"certificate_valid": true}\n'


def test_verify_cert_confirms_every_genuine_report(fixture_file, tmp_path, capsys):
    """`verify-cert` exits 0 on the `--json` report of `check`, `oracle`,
    `length-set --set e2` and, over finite fields, `length`, on every
    fixture.  `identities` is left out: its report has no `kind` yet, so
    `verify-cert` has nothing to check it against."""
    report = tmp_path / "report.json"
    for name in FIXTURES:
        path = fixture_file(name)
        calls = [["check"], ["oracle"], ["length-set", "--set", "e2"]]
        if make_fixture(name).field.is_finite():
            calls.append(["length"])
        for call in calls:
            assert main([*call, "--json", path]) in (0, 1), (name, call)
            report.write_text(capsys.readouterr().out)
            assert main(["verify-cert", str(report)]) == 0, (name, call)
            capsys.readouterr()


def test_identities_text_names_the_ambiguous_power(tmp_path, capsys):
    # e_a e_a = e_b, e_a e_b = e_b, e_b e_a = 0: (x x) x = 0 but x (x x) = e_b
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "field": "F3", "dim": 2, "adjoin_identity": True,
        "table": [[["0", "1"], ["0", "1"]], [["0", "0"], ["0", "0"]]]}))
    assert main(["identities", str(path)]) == 0
    out = capsys.readouterr().out
    assert "power-associative(<=6): fails  (x^3 is ambiguous)\n" in out
