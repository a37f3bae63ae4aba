"""Decision reports pinned byte for byte on a seeded corpus of tables.

`tests/golden_reports.json` maps each table's key to the SHA-256 of
`render_report(decide_length_one(A), A)`, so any change to a verdict, a
path, a flag or a certificate shows up as a changed hash.  The corpus mixes
every fixture, generated length-one tables of every mode (hidden on odd
seeds), one-constant mutations of them, random unital tables and two built
near-misses, and it must reach every failure condition and every normal
form the decider can name.

Regenerate the golden file only when reports are meant to change:

    PYTHONPATH=src python -m tests.test_golden_reports
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from lenalg import (
    algebra,
    change_basis,
    complete_to_basis_with_one,
    decide_length_one,
    fixture_names,
    generate_length_one,
    make_field,
    make_fixture,
    render_report,
)
from lenalg.generate import DIM3_MODES, MODES

from tests.corpus import (
    anticommutator_miss,
    near_miss,
    random_scalar,
    random_unital_algebra,
)

GOLDEN = Path(__file__).with_name("golden_reports.json")

FIELDS = ("Q", "F3", "F5", "F7", "F2", "GF4", "GF8", "GF9")

CONDITIONS = {
    "square-not-in-span",
    "product-not-in-span",
    "anticommutator-not-scalar",
    "pair-coefficient-inconsistent",
    "char2-dim3-relation",
    "char2-dim3-crossed-relation",
    "char2-right-coefficient-inconsistent",
    "char2-left-coefficient-inconsistent",
    "char2-beta-sum-mismatch",
}

# "dim3-ext-type2" is accepted from outside but never emitted: the decider
# re-picks that presentation as type 3.
FORMS = {
    "type-i", "type-ii",
    "dim3-f2-type1", "dim3-f2-type2", "dim3-f2-type3", "dim3-f2-type4",
    "dim3-ext-type1", "dim3-ext-type3",
}

# (field, dim, seed, position of the first failing product) of `near_miss`
NEAR_MISSES = [("Q", 6, 0, 2), ("Q", 7, 47, 7), ("Q", 8, 55, 8),
               ("F5", 6, 4, 3), ("F5", 7, 28, 7), ("F5", 8, 17, 8)]


def _modes(field, dim):
    for mode in MODES:
        if (mode == "special") != (field.characteristic() != 2):
            continue
        if mode in DIM3_MODES and (
                dim != 3 or (mode == "dim3-type4"
                             and not field.is_two_element_field())):
            continue
        yield mode


def _bump(A, cells):
    """A copy of A with c[i][j][k] += d for each (i, j, k, d)."""
    table = [[list(cell) for cell in row] for row in A.table]
    for i, j, k, d in cells:
        table[i][j][k] = A.field.add(table[i][j][k], d)
    return algebra(A.field, table, A.one)


def _mutate(A, rng):
    """Bump one non-identity constant of A in identity-first coordinates."""
    B = change_basis(A, complete_to_basis_with_one(A))
    n = B.dim
    field = B.field
    d = field.zero
    while d == field.zero:
        d = random_scalar(field, rng)
    return _bump(B, [(rng.randrange(1, n), rng.randrange(1, n),
                      rng.randrange(n), d)])


def corpus():
    """(key, algebra) pairs, deterministic and in a fixed order."""
    out = [(f"fixture|{name}", make_fixture(name)) for name in fixture_names()]
    for name in FIELDS:
        field = make_field(name)
        dims = range(2, 6) if name == "Q" else range(2, 7)
        for dim in dims:
            for mode in _modes(field, dim):
                for seed in range(3):
                    key = f"{name}|{dim}|{mode}|{seed}"
                    A = generate_length_one(field, dim, seed, mode,
                                            hide=seed % 2 == 1)
                    out.append((f"gen|{key}", A))
                    rng = random.Random(f"mutate|{key}")
                    out.append((f"mut|{key}", _mutate(A, rng)))
        for dim in range(1, 6):
            for seed in range(3):
                out.append((f"rand|{name}|{dim}|{seed}",
                            random_unital_algebra(field, dim, seed)))
    # a2 passes different coefficients to different partners while every
    # anticommutator stays scalar
    F5 = make_field("F5")
    S = generate_length_one(F5, 4, 0, "special")
    out.append(("built|pair-coefficient-inconsistent",
                _bump(S, [(1, 2, 2, 1), (2, 1, 2, F5.neg(1))])))
    # conditions (i) and (ii) hold but beta_1 + beta_1* = delta_1 fails
    GF4 = make_field("GF4")
    T = generate_length_one(GF4, 4, 0, "type-i")
    out.append(("built|char2-beta-sum-mismatch",
                _bump(T, [(1, j, j, GF4.one) for j in (2, 3)])))
    # hidden near-misses whose first product outside its span is not the
    # first product the pairwise law reads (its position after the key)
    for name, dim, seed, cell in NEAR_MISSES:
        out.append((f"near|{name}|{dim}|{seed}|cell{cell}",
                    near_miss(make_field(name), dim, seed)))
    for name in ("Q", "F3", "F5", "F7"):
        out.append((f"built|anticommutator-not-scalar|{name}|6",
                    anticommutator_miss(make_field(name), 6, 0)))
    return out


def _digest(report, A):
    return hashlib.sha256(render_report(report, A).encode()).hexdigest()


@pytest.fixture(scope="module")
def decided():
    return [(key, A, decide_length_one(A)) for key, A in corpus()]


def test_corpus_reaches_every_condition_and_form(decided):
    assert len(decided) >= 500
    assert len({key for key, _, _ in decided}) == len(decided)
    conditions = {rep.certificate.condition for _, _, rep in decided
                  if rep.value is False}
    forms = {rep.certificate.form for _, _, rep in decided
             if getattr(rep.certificate, "form", None)}
    assert conditions == CONDITIONS
    assert forms == FORMS


def test_reports_match_golden(decided):
    golden = json.loads(GOLDEN.read_text())
    got = {key: _digest(rep, A) for key, A, rep in decided}
    assert sorted(got) == sorted(golden)
    changed = [key for key in got if got[key] != golden[key]]
    assert not changed, f"{len(changed)} reports changed, first: {changed[:5]}"


if __name__ == "__main__":
    digests = {key: _digest(decide_length_one(A), A) for key, A in corpus()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
