"""Algebra values: bilinear products, identity detection, hulls, conjugation."""

import random
from fractions import Fraction

import pytest

from lenalg import (
    algebra,
    canonicalize,
    change_basis,
    complete_to_basis_with_one,
    find_identity,
    generate_length_one,
    make_field,
    make_fixture,
    make_matrix_algebra,
    square_step,
    unital_hull,
    with_identity_first,
)
from lenalg.errors import InvalidIdentity
from lenalg.fields import PrimeField
from lenalg.linalg import (
    BasisChange,
    random_invertible,
    vec_add,
    vec_scale,
)

from tests.corpus import (
    greedy_completion_with_one,
    random_unital_algebra,
    random_vector,
    reference_mul,
    vec_mat,
)

Q = make_field("Q")


def qv(*xs):
    return tuple(Fraction(x) for x in xs)


def test_remark_table_product():
    A = make_fixture("remark-literal")
    a, b = A.basis_vector(1), A.basis_vector(2)
    assert A.mul(a, b) == qv(2, 1, 1)
    assert A.mul(b, a) == qv(0, -1, -1)


def test_identity_acts_trivially_on_random_vectors():
    A = make_fixture("remark-literal")
    rng = random.Random(1)
    for _ in range(20):
        v = random_vector(Q, 3, rng)
        assert A.mul(A.one, v) == v
        assert A.mul(v, A.one) == v


def test_mul_bilinearity_random():
    A = random_unital_algebra(make_field("F5"), 4, seed=3)
    F = A.field
    rng = random.Random(9)
    for _ in range(25):
        u = random_vector(F, 4, rng)
        up = random_vector(F, 4, rng)
        v = random_vector(F, 4, rng)
        c = 3
        lhs = A.mul(vec_add(F, vec_scale(F, c, u), up), v)
        rhs = vec_add(F, vec_scale(F, c, A.mul(u, v)), A.mul(up, v))
        assert lhs == rhs
        lhs = A.mul(v, vec_add(F, vec_scale(F, c, u), up))
        rhs = vec_add(F, vec_scale(F, c, A.mul(v, u)), A.mul(v, up))
        assert lhs == rhs


def test_invalid_identity_rejected():
    with pytest.raises(InvalidIdentity):
        algebra(Q, [[qv(0, 0), qv(0, 0)], [qv(0, 0), qv(0, 0)]], qv(1, 0))


def test_find_identity_matrix_algebra():
    M2 = make_matrix_algebra(Q, 2)
    assert find_identity(Q, M2.table) == qv(1, 0, 0, 1)


def test_find_identity_zero_table():
    zero_table = [[qv(0, 0)] * 2 for _ in range(2)]
    assert find_identity(Q, zero_table) is None


def test_find_identity_direct_sum_idempotents():
    # e, f orthogonal idempotents: identity = e + f
    t = [[qv(1, 0), qv(0, 0)], [qv(0, 0), qv(0, 1)]]
    assert find_identity(Q, t) == qv(1, 1)


def test_unital_hull_one_dim_nil():
    h = unital_hull(Q, [[qv(0)]])
    assert h.dim == 2
    assert h.one == qv(1, 0)
    assert h.mul(h.basis_vector(1), h.basis_vector(1)) == qv(0, 0)


def test_unital_hull_forced_on_unital_input():
    # hulling an already-unital table grows the dimension; the new unit wins
    base = [[qv(1)]]  # 1-dim field, already unital
    h = unital_hull(Q, base)
    assert h.dim == 2
    assert find_identity(Q, h.table) == qv(1, 0)


def test_unital_hull_of_two_dim_nil_matches_zero_square_shape():
    F2 = make_field("F2")
    z = F2.zero
    t = [[(z, z), (z, z)], [(z, z), (z, z)]]
    h = unital_hull(F2, t)
    assert h.dim == 3
    for i in (1, 2):
        sq = h.mul(h.basis_vector(i), h.basis_vector(i))
        assert sq == (z, z, z)


def test_change_basis_round_trip():
    A = make_fixture("remark-literal")
    rng = random.Random(11)
    P = random_invertible(Q, 3, rng)
    B = change_basis(A, P)
    back = change_basis(B, BasisChange(Q, P.inverse))
    assert back.table == A.table and back.one == A.one


def test_change_basis_commutes_with_mul():
    A = random_unital_algebra(make_field("F3"), 4, seed=5)
    rng = random.Random(13)
    P = random_invertible(A.field, 4, rng)
    B = change_basis(A, P)
    for _ in range(20):
        u = random_vector(A.field, 4, rng)
        v = random_vector(A.field, 4, rng)
        assert B.mul(u, v) == P.to_new(A.mul(P.to_old(u), P.to_old(v)))


def test_find_identity_transforms_with_basis():
    A = make_matrix_algebra(make_field("F3"), 2)
    rng = random.Random(17)
    P = random_invertible(A.field, 4, rng)
    B = change_basis(A, P)
    assert find_identity(A.field, B.table) == P.to_new(A.one) == B.one


def test_with_identity_first():
    A = make_matrix_algebra(Q, 2)
    B, change = with_identity_first(A)
    assert B.one == qv(1, 0, 0, 0)
    assert change.matrix[0] == A.one
    # completion is deterministic
    assert complete_to_basis_with_one(A).matrix == change.matrix


@pytest.mark.parametrize("field_name", ["Q", "F2", "F3", "F5", "GF4", "GF9"])
def test_completion_matches_greedy_reference(field_name):
    # random unital tables have identities e_0 (hulls) or dense ones (raw
    # draws); their random conjugates have dense identities
    F = make_field(field_name)
    for n in range(1, 7):
        for seed in range(4):
            for conjugate in (False, True):
                A = random_unital_algebra(F, n, seed, conjugate=conjugate)
                change = complete_to_basis_with_one(A)
                assert change.matrix == greedy_completion_with_one(A), (n, seed)
                assert change.matrix[0] == A.one


def _reference_change_basis(A, change):
    """The definition of a basis change: n^2 full products by field
    operations, then the inverse."""
    field, rows = A.field, change.matrix
    n = A.dim
    return tuple(
        tuple(vec_mat(field, reference_mul(field, A.table, rows[i], rows[j]),
                      change.inverse)
              for j in range(n))
        for i in range(n))


def _changes(F, n):
    """(label, algebra, change): dense, identity-first and canonical shift."""
    A = random_unital_algebra(F, n, seed=n)
    yield "dense", A, random_invertible(F, n, random.Random(f"dense|{n}"))
    yield "identity-first", A, complete_to_basis_with_one(A)
    if n >= 2 and F.characteristic() != 2:
        Y = generate_length_one(F, n, seed=n, mode="special", hide=True)
        basis = complete_to_basis_with_one(Y).matrix
        gammas = [g for (_, g) in square_step(Y, basis)]
        yield "shift", Y, canonicalize(Y, basis, gammas)


@pytest.mark.parametrize("field_name", ["Q", "F5", "GF4", "GF9"])
def test_change_basis_matches_reference(field_name):
    F = make_field(field_name)
    for n in range(1, 8):
        for label, A, change in _changes(F, n):
            B = change_basis(A, change)
            assert B.table == _reference_change_basis(A, change), (label, n)
            assert B.one == change.to_new(A.one)


class _CountingF5(PrimeField):
    """F5 that counts its multiplications and its kernel products."""

    def __init__(self):
        super().__init__(5)
        self.muls = 0
        self.products = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)

    def bilinear(self, table):
        product = super().bilinear(table)

        def counted(u, v):
            self.products += 1
            return product(u, v)
        return counted


def test_change_basis_cost_is_quartic():
    # One kernel product per new basis pair, one kernel map to new
    # coordinates per product and one for the identity, then 2n products
    # for the new algebra's identity check, and no field multiplication
    # outside the kernels; the reference takes n^2 full products by field
    # operations, about n^5 multiplications.
    F = _CountingF5()
    n = 8
    A = random_unital_algebra(F, n, seed=0)
    change = random_invertible(F, n, random.Random(0))
    F.muls = F.products = 0
    B = change_basis(A, change)
    assert F.products == 2 * n ** 2 + 2 * n + 1
    assert F.muls == 0
    assert B.table == _reference_change_basis(A, change)
    assert n ** 4 + n < F.muls
