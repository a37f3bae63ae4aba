"""The oracle's line test restates the pair condition, and the oracle's work
is bounded by lines, not pairs.

`_line_ok(B, u)` claims that u*v lies in span{1, u, v} for every v exactly
when u^2 lies in span{1, u} and v -> u*v mod span{1, u} is a scalar map on
A/span{1, u}.  The claim is checked against `_pair_ok` over every partner,
for every projective line u of each table: yes-instances of every generator
mode, near-misses built as the benchmark builds them (one product of the
un-hidden table bumped, then hidden), every one-constant mutation at dim 3
over F2 and F3, and random unital tables over F2, F3, F5, GF4, GF8 and GF9 at
dims 2-5.  Dimension 2, where A/span{1, u} is zero, and F2 are included.

The work tests count calls with monkeypatch: a yes-sweep makes at most
lines * (n - 1) products, a no-instance at most `lines` pair tests, and the
witness re-scan at most q^n - q raw pair tests.
"""

import random

import pytest

from lenalg import algebra, change_basis, generate_length_one, make_field, oracle_length_one
from lenalg import decide
from lenalg.algebra import Algebra, with_identity_first
from lenalg.decide import _line_ok, _pair_ok, _projective_reps
from lenalg.errors import ModeCharacteristicMismatch
from lenalg.generate import MODES
from lenalg.linalg import random_invertible

from tests.corpus import random_unital_algebra


def _bumped(A, *changes):
    """A copy of A with c[i][j][k] increased by d for each (i, j, k, d)."""
    F = A.field
    table = [[list(cell) for cell in row] for row in A.table]
    for i, j, k, d in changes:
        table[i][j][k] = F.add(table[i][j][k], d)
    return algebra(F, table, A.one)


def _yes(F, dim):
    """(mode, un-hidden yes-instance) for every mode that exists over F at dim."""
    for mode in MODES:
        try:
            yield mode, generate_length_one(F, dim, seed=0, mode=mode)
        except ModeCharacteristicMismatch:
            continue


def _hidden(A, seed):
    return change_basis(A, random_invertible(A.field, A.dim, random.Random(seed)))


def _near_miss(A, seed):
    """A's e_1 e_2 moved off span{1, e_1, e_2} (antisymmetrically from dim 4,
    so every square stays put; e_1 e_1 at dim 3), then hidden."""
    one = A.field.one
    if A.dim >= 4:
        M = _bumped(A, (1, 2, 3, one), (2, 1, 3, A.field.neg(one)))
    else:
        M = _bumped(A, (1, 1, 2, one))
    return _hidden(M, seed)


def _lines(F, n):
    return [(F.zero,) + x for x in _projective_reps(F, n - 1)]


def _check_lines(A):
    """Assert the line test on every line of A; return the set of verdicts."""
    B, _ = with_identity_first(A)
    reps = _lines(A.field, A.dim)
    verdicts = set()
    for u in reps:
        ok = _line_ok(B, u)
        assert ok == all(_pair_ok(B, u, v) for v in reps), (A.table, u)
        verdicts.add(ok)
    return verdicts


@pytest.mark.parametrize("name, dims", [
    ("F2", (2, 3, 4, 5)), ("F3", (2, 3, 4)), ("F5", (2, 3)), ("GF4", (2, 3, 4)),
    ("GF8", (3,)), ("GF9", (3,)),
], ids=lambda v: v if isinstance(v, str) else f"dim{v[0]}-{v[-1]}")
def test_line_test_on_yes_instances_and_near_misses(name, dims):
    F = make_field(name)
    for dim in dims:
        for seed, (mode, A) in enumerate(_yes(F, dim)):
            assert _check_lines(_hidden(A, seed)) == {True}, mode
            if dim >= 3:
                assert False in _check_lines(_near_miss(A, seed)), mode


@pytest.mark.parametrize("name", ["F2", "F3"])
def test_line_test_on_every_one_constant_mutation(name):
    F = make_field(name)
    nonzero = [c for c in F.elements() if c != F.zero]
    verdicts = set()
    for _, A in _yes(F, 3):
        for i in (1, 2):
            for j in (1, 2):
                for k in range(3):
                    for d in nonzero:
                        verdicts |= _check_lines(_bumped(A, (i, j, k, d)))
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["F2", "F3", "F5", "GF4", "GF8", "GF9"])
def test_line_test_on_random_tables(name):
    F = make_field(name)
    verdicts = set()
    for dim in (2, 3, 4, 5):
        for seed in range(2):
            got = _check_lines(random_unital_algebra(F, dim, seed))
            if dim == 2:
                assert got == {True}
            verdicts |= got
    assert False in verdicts


def _count(monkeypatch, owner, name):
    """Wrap owner.name so that each call is counted; return the counter."""
    calls = [0]
    inner = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _line_count(F, n):
    q = F.order()
    return (q ** (n - 1) - 1) // (q - 1)


@pytest.mark.parametrize("name, dim", [("F2", 5), ("F3", 4), ("F5", 3), ("GF4", 4)])
def test_yes_sweep_makes_n_minus_1_products_per_line(name, dim, monkeypatch):
    F = make_field(name)
    lines = _line_count(F, dim)
    for mode, A in _yes(F, dim):
        # A is identity-first, so every product counted is the sweep's
        products = _count(monkeypatch, Algebra, "mul")
        res = oracle_length_one(A)
        assert res.is_length_one and res.pairs_checked == lines ** 2, mode
        assert 1 <= products[0] <= lines * (dim - 1), mode
        monkeypatch.undo()


@pytest.mark.parametrize("name, dim", [("F2", 5), ("F3", 4), ("F5", 3), ("GF4", 4)])
def test_no_instance_work_is_bounded_by_lines(name, dim, monkeypatch):
    F = make_field(name)
    lines, q = _line_count(F, dim), F.order()
    corpus = [_near_miss(A, seed) for seed, (_, A) in enumerate(_yes(F, dim))]
    corpus += [random_unital_algebra(F, dim, seed) for seed in range(2)]
    for M in corpus:
        pair_tests = _count(monkeypatch, decide, "_pair_ok")
        raw_tests = _count(monkeypatch, decide, "_violates")
        res = oracle_length_one(M)
        assert res.is_length_one is False
        assert 1 <= pair_tests[0] <= lines
        assert 1 <= raw_tests[0] <= q ** dim - q
        monkeypatch.undo()
