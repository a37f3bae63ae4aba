"""The oracle's line test restates the pair condition, and the oracle's work
is bounded by lines, not pairs.

`_line_ok(A, u)` claims that u*v lies in span{1, u, v} for every v exactly
when u^2 lies in span{1, u} and v -> u*v mod span{1, u} is a scalar map on
A/span{1, u}.  The claim is checked against `_pair_ok` over every partner,
for every line u of A/F*1, the `_quotient_lines` of A (checked against the
classes x ~ c*x + d*1 of every vector, one representative each, at every
pivot of the identity): yes-instances of every generator
mode, near-misses built as the benchmark builds them (one product of the
un-hidden table bumped, then hidden), every one-constant mutation at dim 3
over F2 and F3, and random unital tables over F2, F3, F5, GF4, GF8 and GF9 at
dims 2-5.  Dimension 2, where A/span{1, u} is zero, and F2 are included.

The work tests count calls with monkeypatch: a yes-sweep makes exactly
lines * (n - 1) products and builds no product kernel or coordinate map, a
no-instance makes at most `lines` pair tests, and the witness re-scan at
most q^n - q raw pair tests.  On algebras whose identity has its pivot L at
every position, with 1_L != 1, verdict, `pairs_checked` and witness equal
the reference's.
"""

import itertools
import random

import pytest

from lenalg import algebra, change_basis, generate_length_one, make_field, oracle_length_one
from lenalg import decide
from lenalg.algebra import Algebra, complete_to_basis_with_one
from lenalg.decide import _line_ok, _pair_ok, _quotient_lines
from lenalg.errors import ModeCharacteristicMismatch
from lenalg.generate import MODES
from lenalg.linalg import random_invertible

from tests.corpus import (
    identities_short_of_the_end,
    random_unital_algebra,
    reference_oracle,
    reference_quotient_lines,
    with_identity,
)


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


def _check_lines(A):
    """Assert the line test on every line of A; return the set of verdicts."""
    reps = _quotient_lines(A)
    verdicts = set()
    for u in reps:
        ok = _line_ok(A, u)
        assert ok == all(_pair_ok(A, u, v) for v in reps), (A.table, u)
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
    # identity-first and hidden (dense identity): the sweep runs on A itself,
    # so every product counted is a line test's and no kernel is built
    F = make_field(name)
    lines = _line_count(F, dim)
    for seed, (mode, Y) in enumerate(_yes(F, dim)):
        for A in (Y, _hidden(Y, seed)):
            A.mul(A.one, A.one)  # A's own kernel, built once per algebra
            products = _count(monkeypatch, Algebra, "mul")
            kernels = _count(monkeypatch, type(F), "bilinear")
            res = oracle_length_one(A)
            assert res.is_length_one and res.pairs_checked == lines ** 2, mode
            assert products[0] == lines * (dim - 1), mode
            assert kernels[0] == 0, mode
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


@pytest.mark.parametrize("name, dims", [
    ("F3", (2, 3, 4)), ("F5", (2, 3)), ("GF4", (2, 3, 4)), ("GF9", (2, 3)),
])
def test_oracle_matches_the_reference_at_every_identity_pivot(name, dims):
    # yes-instances, their near-misses (the witness re-scan) and random
    # tables, rewritten so that 1 has its pivot L at every position, 1_L != 1
    F = make_field(name)
    rng = random.Random(f"identity-pivot|{name}")
    for dim in dims:
        for seed, (mode, Y) in enumerate(_yes(F, dim)):
            tables = [Y, random_unital_algebra(F, dim, seed, conjugate=False)]
            if dim >= 3:
                tables.append(_near_miss(Y, seed))
            for last, one in enumerate(identities_short_of_the_end(F, dim, rng)):
                for T in tables:
                    H = change_basis(T, complete_to_basis_with_one(T))
                    A = with_identity(H, one, rng)
                    assert A.one == one and A.identity_row[0] == last
                    assert oracle_length_one(A) == reference_oracle(A), (mode, last)


@pytest.mark.parametrize("name, dim", [("F2", 4), ("F3", 3), ("GF4", 3), ("F5", 2)])
def test_quotient_lines_hold_one_vector_per_class(name, dim):
    # every class {c*x + d*1 : c != 0} off F*1 meets the list exactly once,
    # at every pivot L of the identity
    F = make_field(name)
    rng = random.Random(f"quotient-lines|{name}")
    T = random_unital_algebra(F, dim, 0)
    H = change_basis(T, complete_to_basis_with_one(T))
    for one in identities_short_of_the_end(F, dim, rng):
        A = with_identity(H, one, rng)
        reps = _quotient_lines(A)
        assert len(reps) == _line_count(F, dim)
        scalars = list(F.elements())
        for x in itertools.product(scalars, repeat=dim):
            cls = {tuple(F.add(F.mul(c, a), F.mul(d, b)) for a, b in zip(x, A.one))
                   for c in scalars if c != F.zero for d in scalars}
            assert sum(r in cls for r in reps) == (A.one not in cls), x


@pytest.mark.parametrize("name", ["F2", "F3", "F5", "GF4", "GF9"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_quotient_lines_are_the_reference_list_in_its_order(name, dim):
    # the oracle's `pairs checked` and the power sweep's first failing x read
    # the lines in this order, at every pivot L of the identity
    F = make_field(name)
    rng = random.Random(f"quotient-order|{name}|{dim}")
    T = random_unital_algebra(F, dim, 0)
    H = change_basis(T, complete_to_basis_with_one(T))
    pivots = set()
    for one in identities_short_of_the_end(F, dim, rng):
        A = with_identity(H, one, rng)
        pivots.add(A.identity_row[0])
        assert _quotient_lines(A) == reference_quotient_lines(A)
    assert pivots == set(range(dim))
