"""Over Q the oracle tests the basis lines and is exact.

`_basis_lines(field, n, L)` are the e_k (k != L), the e_k + e_l (k < l) and
e_a - e_b for the first such pair: |T| = (n - 1) + C(n - 1, 2) + 1 lines
for n >= 3.  `_line_ok` passes on all of them exactly when A has length
one; the proof is in their docstring.  These tests check that claim:

* over Q, the oracle's verdict equals `decide_length_one` on the Q tables
  of the golden corpus, hidden special tables at dims 2-10, one-constant
  mutations of them, near-misses that only the pairwise law rejects (dims
  4-10) and random unital tables; each "no" witness is a
  verified violating pair, witness=False changes neither verdict nor
  `pairs_checked`, and a "yes" reports |T|^2 pairs;
* on tables whose basis squares are distinct multiples of themselves, every
  line e_k passes and the first failing line lies past them, and at dim 3
  a table that fails on e_a - e_b alone;
* over F2, F3, GF4 and F5 at dims 4-5, and over F3 and F5 at dim 3, the
  basis lines give the exhaustive oracle's verdict, on the same kinds of
  tables (the theorem holds over every field; n = 3 needs e_a - e_b as a
  fourth line, which exists in odd characteristic);
* polarization: a nonzero quadratic form is nonzero at some e_i or
  e_i + e_j, over F2, F3, GF4 and Q, also when it vanishes at every e_i.
"""

import itertools
import math
import random

import pytest

from lenalg import (
    algebra,
    change_basis,
    decide_length_one,
    generate_length_one,
    make_field,
    oracle_length_one,
    verify_violation,
)
from lenalg.decide import _basis_lines, _line_ok
from lenalg.errors import ModeCharacteristicMismatch
from lenalg.generate import MODES
from lenalg.linalg import random_invertible

from tests.corpus import mutate_one_constant, random_scalar, random_unital_algebra
from tests.test_golden_reports import corpus as golden_corpus

Q = make_field("Q")


def _line_count(n):
    """|T|: the e_k, the e_k + e_l and, from n = 3, one e_a - e_b."""
    return (n - 1) + math.comb(n - 1, 2) + (n >= 3)


def _hidden(A, seed):
    return change_basis(A, random_invertible(A.field, A.dim, random.Random(seed)))


def _mutations(A, seed):
    """Two one-constant mutations of A (identity e_0) off its identity row
    and column, each hidden."""
    rng = random.Random(f"basis-lines|{A.field.label()}|{A.dim}|{seed}")
    for _ in range(2):
        i, j = rng.randrange(1, A.dim), rng.randrange(1, A.dim)
        yield _hidden(mutate_one_constant(A, i, j, rng.randrange(A.dim)), seed)


def _near_miss(S, seed):
    """S (identity e_0) with e_3 added to e_1 e_2 and taken from e_2 e_1,
    hidden: e_1 e_2 leaves span{1, e_1, e_2}, yet x^2 is unchanged for
    every x, so the decider passes the squares and the canonical shift and
    fails at the pairwise law."""
    field = S.field
    table = [[list(cell) for cell in row] for row in S.table]
    table[1][2][3] = field.add(table[1][2][3], field.one)
    table[2][1][3] = field.sub(table[2][1][3], field.one)
    return _hidden(algebra(field, table, S.one), seed)


def _diagonal_squares(field, n):
    """e_0 = 1, e_k^2 = k*e_k and e_k e_l = 0 for k != l: every e_k is a
    passing line, e_1 + e_2 a failing one where 1 != 2."""
    zero = (field.zero,) * n

    def cell(i, j):
        if i == 0 or j == 0:
            return tuple(field.one if k == i + j else field.zero for k in range(n))
        if i != j:
            return zero
        return tuple(field.from_int(i) if k == i else field.zero for k in range(n))

    return algebra(field, [[cell(i, j) for j in range(n)] for i in range(n)],
                   cell(0, 0))


def _q_corpus():
    """Q tables: the golden corpus's, hidden special tables at dims 2-8
    with their mutations and, from dim 4, their near-misses, and random
    unital tables."""
    yield from (A for _, A in golden_corpus() if not A.field.is_finite())
    for dim in range(2, 9):
        for seed in range(2):
            S = generate_length_one(Q, dim, seed, "special")
            yield _hidden(S, seed)
            if dim >= 3:
                yield from _mutations(S, seed)
            if dim >= 4:
                yield _near_miss(S, seed)
    for dim in range(2, 7):
        for seed in range(3):
            yield random_unital_algebra(Q, dim, seed)


def _assert_lines_decide(A):
    """The oracle on A agrees with the decider; the decider's report."""
    report = decide_length_one(A)
    res = oracle_length_one(A)
    assert res.is_length_one == report.value, A.table
    again = oracle_length_one(A, witness=False)
    assert (again.is_length_one, again.pairs_checked) == (
        res.is_length_one, res.pairs_checked)
    if res.is_length_one:
        assert res.witness is None
        assert res.pairs_checked == _line_count(A.dim) ** 2
    else:
        assert res.witness.condition == "oracle-pair"
        assert verify_violation(A, res.witness)
        assert 1 <= res.pairs_checked <= _line_count(A.dim) ** 2
    return report


def test_basis_lines_decide_length_one_over_q():
    ends = [_assert_lines_decide(A).path[-1] for A in _q_corpus()]
    assert ends.count("step3:not-special") >= 10  # two near-misses per dim 4-8
    assert "step3:special-basis" in ends


@pytest.mark.parametrize("dim", [9, 10])
def test_basis_lines_decide_length_one_over_q_at_high_dims(dim):
    """Hidden special tables, their one-constant mutations, near-misses and
    random unital tables.  The decider's paths end at each step: the
    special tables pass all three, the near-misses fail the pairwise law
    (step 3), and the random tables and most mutations the squares (step 1).
    Left out: the golden corpus, which has no Q table above dim 8, and the
    other generator modes, which are characteristic 2 only."""
    ends = []
    for seed in range(3):
        S = generate_length_one(Q, dim, seed, "special")
        for A in (_hidden(S, seed), *_mutations(S, seed), _near_miss(S, seed),
                  random_unital_algebra(Q, dim, seed)):
            ends.append(_assert_lines_decide(A).path[-1])
    assert ends.count("step3:special-basis") >= 3
    assert ends.count("step3:not-special") >= 3


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_diagonal_squares_fail_past_the_lines_e_k(n):
    A = _diagonal_squares(Q, n)
    lines = _basis_lines(Q, n, A.identity_row[0])
    assert len(lines) == _line_count(n)
    assert all(_line_ok(A, u) for u in lines[:n - 1])
    res = oracle_length_one(A)
    assert res.is_length_one is False and decide_length_one(A).value is False
    assert res.pairs_checked > (n - 1) * len(lines)
    assert verify_violation(A, res.witness)


@pytest.mark.parametrize("name", ["Q", "F3", "F5"])
def test_dim_3_needs_the_fourth_line(name):
    # e_1^2 = e_2^2 = 0 and e_1 e_2 = e_2 e_1 = e_1 + e_2: det[1, u, u^2] is
    # 2xy(x - y) at u = x e_1 + y e_2, zero at e_1, e_2 and e_1 + e_2 only
    field = make_field(name)
    o, z = field.one, field.zero
    A = algebra(field, [[(o, z, z), (z, o, z), (z, z, o)],
                        [(z, o, z), (z, z, z), (z, o, o)],
                        [(z, z, o), (z, o, o), (z, z, z)]], (o, z, z))
    lines = _basis_lines(field, 3, A.identity_row[0])
    assert [_line_ok(A, u) for u in lines] == [True, True, True, False]
    res = oracle_length_one(A)
    assert res.is_length_one is False and decide_length_one(A).value is False
    if not field.is_finite():  # the oracle's own lines: the fourth fails
        assert res.pairs_checked > 3 * len(lines)


def _finite_corpus(field, dim):
    """Hidden yes-instances of every mode, their mutations, the diagonal
    squares and random unital tables over a finite field."""
    for seed, mode in enumerate(MODES):
        try:
            A = generate_length_one(field, dim, 0, mode)
        except ModeCharacteristicMismatch:
            continue
        yield _hidden(A, seed)
        yield from _mutations(A, seed)
    yield _diagonal_squares(field, dim)
    for seed in range(3):
        yield random_unital_algebra(field, dim, seed)


@pytest.mark.parametrize("name, dim", [
    ("F2", 4), ("F2", 5), ("F3", 4), ("F3", 5), ("GF4", 4), ("GF4", 5),
    ("F5", 4), ("F5", 5), ("F3", 3), ("F5", 3),
])
def test_basis_lines_match_the_exhaustive_oracle(name, dim):
    field = make_field(name)
    verdicts = set()
    for A in _finite_corpus(field, dim):
        lines = _basis_lines(field, dim, A.identity_row[0])
        got = all(_line_ok(A, u) for u in lines)
        assert got == oracle_length_one(A, witness=False).is_length_one, A.table
        verdicts.add(got)
    assert verdicts == {True, False}
    if dim == 3:  # odd characteristic: e_a - e_b is a fourth projective point
        assert len(set(lines)) == 4


@pytest.mark.parametrize("name", ["F2", "F3", "GF4", "Q"])
def test_a_nonzero_quadratic_form_is_nonzero_at_a_basis_line(name):
    # the points are the basis lines of F^(m+1) with coordinate 0 dropped
    field = make_field(name)
    rng = random.Random(f"polarization|{name}")
    for m in range(1, 6):
        points = [u[1:] for u in _basis_lines(field, m + 1, 0)]
        monomials = list(itertools.combinations_with_replacement(range(m), 2))
        for _ in range(40):
            coeffs = [random_scalar(field, rng) for _ in monomials]
            if rng.random() < 0.5:  # zero at every e_i: only an e_i + e_j sees it
                coeffs = [field.zero if i == j else c
                          for c, (i, j) in zip(coeffs, monomials)]
            if all(c == field.zero for c in coeffs):
                continue

            def form(x):
                value = field.zero
                for c, (i, j) in zip(coeffs, monomials):
                    value = field.add(value, field.mul(c, field.mul(x[i], x[j])))
                return value

            assert any(form(x) != field.zero for x in points), (m, coeffs)
