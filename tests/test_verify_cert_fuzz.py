"""`verify-cert` on seeded one-token mutations of real `--json` reports.

The reports are those of `check` (yes and no, over Q, F5 and GF4),
`length-set`, `length` and `oracle` (yes over F2, no over F5, and a yes and
a no over Q from the basis-line scan).  Each mutation deletes or
duplicates one JSON token (a string, number, literal or punctuation mark)
or, most often, replaces one value by another value of the same report or
by one of a few hostile ones, so that most mutants are still valid JSON.
Whatever it yields, `verify-cert` must exit 0, 1 or 2 and never raise: an
error is reported as `error[...]` on stderr, not as a traceback.
"""

import contextlib
import io
import random
import re
import sys

import pytest

from lenalg import make_field, make_fixture, make_matrix_algebra, render_document
from lenalg.cli import main

TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?'
                   r'|true|false|null|[{}\[\]:,]')
HOSTILE = ['null', 'true', '0', '-1', '1.5', '1e400', '""', '"x"', '"1/0"',
           '"[1]"', '{}', '[]', '"F4"', '"GF4"']
MUTATIONS_PER_REPORT = 300


def _run(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _reports(tmp_path):
    """(name, --json report text) for each command whose report verify-cert reads."""
    F2, F5 = make_field("F2"), make_field("F5")
    docs = {
        "repaired-q": make_fixture("remark-repaired"),
        "literal-q": make_fixture("remark-literal"),
        "literal-f5": make_fixture("remark-literal", field=F5),
        "typeII-gf4": make_fixture("char2-typeII-seeded"),
        "type3-f2": make_fixture("dim3-f2-type3"),
        "m2-f2": make_matrix_algebra(F2, 2),
    }
    paths = {}
    for name, A in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(render_document(A, {"name": name}))
    calls = [
        ("check", "repaired-q"), ("check", "literal-q"), ("check", "literal-f5"),
        ("check", "typeII-gf4"), ("length", "m2-f2"), ("oracle", "type3-f2"),
        ("oracle", "literal-f5"), ("oracle", "repaired-q"), ("oracle", "literal-q"),
    ]
    out = [(f"{cmd} {name}", _run([cmd, "--json", str(paths[name])])[1])
           for cmd, name in calls]
    _, text, _ = _run(["length-set", "--json", "--set", "e2;e3",
                       str(paths["m2-f2"])])
    return out + [("length-set m2-f2", text)]


def _mutate(tokens, values, rng):
    """A copy of tokens with one token deleted or duplicated, or, most
    often, one value replaced by another value, which keeps the JSON valid."""
    op = rng.random()
    if op < 0.6:
        i = rng.choice(values)
        other = rng.choice(HOSTILE if rng.random() < 0.3 else tokens)
        while other in "{}[]:,":
            other = rng.choice(tokens)
        return tokens[:i] + [other] + tokens[i + 1:]
    i = rng.randrange(len(tokens))
    if op < 0.8:
        return tokens[:i] + tokens[i + 1:]
    return tokens[:i + 1] + tokens[i:]


def test_mutated_reports_never_raise(tmp_path):
    reports = _reports(tmp_path)
    for name, text in reports:
        # an oracle "yes" carries no certificate: verify-cert runs the oracle
        assert _run(["verify-cert", "-"], text)[0] == 0, name
    codes = set()
    for name, text in reports:
        tokens = TOKEN.findall(text)
        values = [i for i, t in enumerate(tokens) if t not in "{}[]:,"]
        assert TOKEN.sub("", text).split() == [], name  # every character tokenized
        rng = random.Random(f"verify-cert-fuzz|{name}")
        for _ in range(MUTATIONS_PER_REPORT):
            mutated = " ".join(_mutate(tokens, values, rng))
            try:
                code, _, err = _run(["verify-cert", "--budget", "2000", "-"], mutated)
            except Exception as exc:  # an uncaught error is a traceback
                pytest.fail(f"{name}: {type(exc).__name__}: {exc}\n{mutated}")
            assert code in (0, 1, 2), (name, mutated)
            assert code != 2 or err.startswith("error["), (name, err)
            codes.add(code)
    assert codes == {0, 1, 2}
