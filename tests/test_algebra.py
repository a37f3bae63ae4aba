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
)
from lenalg import linalg
from lenalg.errors import CharacteristicTwo, DimensionMismatch, InvalidIdentity
from lenalg.fields import PrimeField
from lenalg.linalg import (
    BasisChange,
    invert_matrix,
    random_invertible,
    unit_vec,
    vec_add,
    vec_scale,
)

from tests.corpus import (
    greedy_completion_with_one,
    identities_short_of_the_end,
    identity_matrix,
    random_unital_algebra,
    random_vector,
    reference_mul,
    vec_mat,
    with_identity,
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


@pytest.mark.parametrize("table, one, message", [
    ([[qv(1, 0), qv(0, 1)]], qv(1, 0), "not n x n x n"),                  # 1 x 2
    ([[qv(1, 0), qv(0, 1)], [qv(0, 1)]], qv(1, 0), "not n x n x n"),      # ragged
    ([[qv(1, 0), qv(0, 1)], [qv(0, 1), qv(0,)]], qv(1, 0), "not n x n x n"),
    ([[qv(1, 0), qv(0, 1)], [qv(0, 1), qv(0, 0)]], qv(1, 0, 0), "identity"),
])
def test_algebra_refuses_a_table_or_identity_of_the_wrong_shape(table, one, message):
    with pytest.raises(DimensionMismatch, match=message):
        algebra(Q, table, one)


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
        assert B.mul(u, v) == P.to_new(A.mul(vec_mat(A.field, u, P.matrix),
                                             vec_mat(A.field, v, P.matrix)))


def test_find_identity_transforms_with_basis():
    A = make_matrix_algebra(make_field("F3"), 2)
    rng = random.Random(17)
    P = random_invertible(A.field, 4, rng)
    B = change_basis(A, P)
    assert find_identity(A.field, B.table) == P.to_new(A.one) == B.one


def test_identity_row():
    # M_2(Q) in the basis e11, e12, e21, e22: 1 = e11 + e22, so L = 3
    A = make_matrix_algebra(Q, 2)
    assert A.identity_row == (3, A.one)
    assert A.identity_row is A.identity_row  # computed once per algebra
    B = change_basis(A, complete_to_basis_with_one(A))
    assert B.one == qv(1, 0, 0, 0) and B.identity_row == (0, B.one)
    for name in CLOSED_FORM_FIELDS:
        F = make_field(name)
        rng = random.Random(f"identity-row|{name}")
        for A in _identities_short_of_the_end(F, rng):
            last, row = A.identity_row
            assert A.one[last] != F.zero and set(A.one[last + 1:]) <= {F.zero}
            assert row == vec_scale(F, F.inv(A.one[last]), A.one)
            assert row[last] == F.one
            assert complete_to_basis_with_one(A).matrix[1:] == tuple(
                unit_vec(F, A.dim, k) for k in range(A.dim) if k != last)
    # an F_p coordinate that is a multiple of p is zero in the field
    F5 = make_field("F5")
    A = algebra(F5, [[(1, 0), (0, 1)], [(0, 1), (2, 3)]], (6, 5))
    assert A.identity_row == (0, (1, 0))


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


def _identities_short_of_the_end(F, rng):
    """Random unital algebras of dims 1-6 (hulls, identity e_0, rewritten)
    whose identity has its last nonzero coordinate L at every position,
    with 1_L != 1 wherever F has such a scalar (not F2)."""
    for n in range(1, 7):
        for one in identities_short_of_the_end(F, n, rng):
            H = unital_hull(F, [[random_vector(F, n - 1, rng) for _ in range(n - 1)]
                                for _ in range(n - 1)])
            A = with_identity(H, one, rng)
            assert A.one == one
            yield A


def _assert_inverse_pair(F, change):
    n = change.dim
    assert change.inverse == invert_matrix(F, change.matrix)
    assert tuple(vec_mat(F, r, change.inverse)
                 for r in change.matrix) == identity_matrix(F, n)


def _count_rref(monkeypatch):
    """The list that gets one entry per `linalg.rref` call from now on."""
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda *a: calls.append(1) or rref(*a))
    return calls


CLOSED_FORM_FIELDS = ["Q", "F2", "F3", "F5", "GF4", "GF9"]


@pytest.mark.parametrize("field_name", CLOSED_FORM_FIELDS)
def test_completion_inverse_is_written_down(field_name, monkeypatch):
    F = make_field(field_name)
    rng = random.Random(f"completion-inverse|{field_name}")
    calls = _count_rref(monkeypatch)
    for A in _identities_short_of_the_end(F, rng):
        calls.clear()
        change = complete_to_basis_with_one(A)
        assert calls == []
        assert change.matrix == greedy_completion_with_one(A)
        _assert_inverse_pair(F, change)


@pytest.mark.parametrize("field_name", CLOSED_FORM_FIELDS)
def test_canonicalize_inverse_is_written_down(field_name, monkeypatch):
    # from the identity-first completion, and from a dense basis, given as
    # a BasisChange (its inverse is reused) and as rows (one inversion)
    F = make_field(field_name)
    rng = random.Random(f"shift-inverse|{field_name}")
    calls = _count_rref(monkeypatch)
    for A in _identities_short_of_the_end(F, rng):
        n = A.dim
        gammas = random_vector(F, n - 1, rng)
        for basis in (complete_to_basis_with_one(A), random_invertible(F, n, rng)):
            if F.characteristic() == 2:
                with pytest.raises(CharacteristicTwo):
                    canonicalize(A, basis, gammas)
                continue
            calls.clear()
            shift = canonicalize(A, basis, gammas)
            assert calls == []
            from_rows = canonicalize(A, basis.matrix, gammas)
            assert len(calls) == 1
            assert shift.matrix == from_rows.matrix
            assert shift.inverse == from_rows.inverse
            assert shift.matrix[0] == basis.matrix[0]
            for r, b, g in zip(shift.matrix[1:], basis.matrix[1:], gammas):
                assert r == vec_add(F, b, vec_scale(F, F.neg(F.halve(g)),
                                                     basis.matrix[0]))
            _assert_inverse_pair(F, shift)


def test_canonicalize_wants_one_gamma_per_vector():
    A = make_matrix_algebra(Q, 2)
    basis = complete_to_basis_with_one(A)
    for gammas in (qv(1, 2), qv(1, 2, 3, 4)):
        with pytest.raises(DimensionMismatch):
            canonicalize(A, basis, gammas)


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
    # for the new algebra's identity check, which is dense here (a basis
    # that starts with the identity skips them, see the next test), and no
    # field multiplication outside the kernels; the reference takes n^2
    # full products by field operations, about n^5 multiplications.
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


def test_change_to_an_identity_first_basis_reads_its_identity_check():
    # B.one is e_0 and B's row and column 0 are the e_j, so B's identity
    # check reads the table: n^2 products on A's kernel and n^2 + 1 maps to
    # new coordinates, and B builds no kernel of its own
    F = _CountingF5()
    n = 8
    A = random_unital_algebra(F, n, seed=0)
    assert A.one not in [unit_vec(F, n, k) for k in range(n)]
    for change in (complete_to_basis_with_one(A),
                   BasisChange(F, [A.one] + list(random_invertible(
                       F, n, random.Random(1)).matrix[1:]))):
        F.muls = F.products = 0
        B = change_basis(A, change)
        assert F.products == n ** 2 + n ** 2 + 1
        assert F.muls == 0
        assert B.one == unit_vec(F, n, 0)
        assert "_kernel" not in vars(B)
        assert B.table == _reference_change_basis(A, change)
