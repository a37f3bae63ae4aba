"""Subspaces in canonical echelon form, coordinates, basis changes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lenalg import (
    BasisChange,
    ExtensionField,
    complete_to_basis_with_one,
    make_field,
    span,
)
from lenalg.errors import DimensionMismatch, SingularMatrix
from lenalg.linalg import (
    in_span,
    invert_matrix,
    random_invertible,
    rref,
    unit_vec,
    vec_add,
    vec_scale,
)

from tests.corpus import (
    identity_matrix,
    random_scalar,
    random_unital_algebra,
    random_vector,
    vec_mat,
)

Q = make_field("Q")


def qv(*xs):
    return tuple(Fraction(x) for x in xs)


def test_span_dims():
    assert span(Q, [qv(1, 0), qv(0, 1)]).dim == 2
    assert span(Q, [qv(1, 1), qv(2, 2)]).dim == 1
    assert span(Q, [], ambient_dim=3).dim == 0


def test_membership_examples():
    U = span(Q, [qv(1, 0, 0), qv(0, 1, 1)])  # span{1, a+b} in (1, a, b) coords
    assert not U.contains(qv(2, 0, 1))
    assert U.contains(qv(5, -2, -2))


def test_coords_examples():
    U = span(Q, [qv(1, 2, 3)])
    assert U.coords(qv(2, 4, 6)) == [Fraction(2)]
    W = span(Q, [qv(1, 0, 0), qv(0, 1, 0), qv(0, 0, 1)])
    assert W.coords(qv(2, 1, 1)) == [Fraction(2), Fraction(1), Fraction(1)]
    assert span(Q, [qv(1, 0, 0)]).coords(qv(0, 1, 0)) is None


def test_subspace_sum():
    U = span(Q, [qv(1, 0, 0)])
    V = span(Q, [qv(0, 1, 0)])
    assert span(Q, U.rows + V.rows).dim == 2


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        span(Q, [qv(1, 0), qv(1, 0, 0)])
    with pytest.raises(DimensionMismatch):
        span(Q, [qv(1, 0)]).contains(qv(1, 0, 0))
    with pytest.raises(DimensionMismatch):
        in_span(Q, qv(1, 0), [qv(1, 0, 0)])


@given(st.permutations(list(range(4))), st.data())
def test_span_canonical_under_shuffle(perm, data):
    F3 = make_field("F3")
    vectors = [
        tuple(data.draw(st.integers(0, 2)) for _ in range(4)) for _ in range(4)
    ]
    direct = span(F3, vectors)
    shuffled = span(F3, [vectors[i] for i in perm])
    assert direct.rows == shuffled.rows
    assert direct == shuffled


@given(st.integers(0, 10**6))
def test_reduce_then_contains(seed):
    F5 = make_field("F5")
    rng = random.Random(seed)
    vectors = [tuple(rng.randrange(5) for _ in range(4)) for _ in range(3)]
    U = span(F5, vectors)
    for v in vectors:
        assert U.contains(v)
        coords = U.coords(v)
        acc = (0, 0, 0, 0)
        for c, row in zip(coords, U.rows):
            acc = tuple(F5.add(a, F5.mul(c, b)) for a, b in zip(acc, row))
        assert acc == v


@pytest.mark.parametrize("name", ["Q", "F2", "F5", "GF4", "GF9"])
def test_in_span_matches_span_contains(name):
    """Random, dependent, zero-padded and empty lists; targets inside the
    span (combinations of the list) and, mostly, outside it."""
    F = make_field(name)
    rng = random.Random(f"in_span|{name}")
    zero = (F.zero,) * 4
    for _ in range(30):
        vectors = [random_vector(F, 4, rng) for _ in range(rng.randrange(1, 4))]
        dependent = vectors + [vec_add(F, vectors[0], vec_scale(
            F, random_scalar(F, rng), vectors[-1]))]
        for vs in (vectors, dependent, vectors + [zero], [zero], []):
            inside = zero
            for v in vs:
                inside = vec_add(F, inside, vec_scale(F, random_scalar(F, rng), v))
            for w in (random_vector(F, 4, rng), inside, zero, *vs):
                assert in_span(F, w, vs) == span(F, vs, ambient_dim=4).contains(w)


@pytest.mark.parametrize("name", ["Q", "F5", "GF9"])
def test_rref_inverts_only_pivots_other_than_one(name, monkeypatch):
    F = make_field(name)
    calls = []
    inv = F.inv
    monkeypatch.setattr(F, "inv", lambda a: calls.append(a) or inv(a))
    one, two, zero = F.one, F.from_int(2), F.zero
    unit_pivots = [(one, two, two), (zero, one, two), (zero, zero, one)]
    assert rref(F, unit_pivots) == (identity_matrix(F, 3), (0, 1, 2))
    assert calls == []
    # a pivot of 2 is inverted, once
    assert rref(F, [(two, two, zero), (zero, zero, one)]) == (
        ((one, one, zero), (zero, zero, one)), (0, 2))
    assert calls == [two]


def test_invert_matrix():
    m = (qv(1, 2), qv(3, 4))
    inv = invert_matrix(Q, m)
    assert tuple(vec_mat(Q, r, inv) for r in m) == identity_matrix(Q, 2)
    assert invert_matrix(Q, (qv(1, 2), qv(2, 4))) is None


def test_basis_change_composition_and_inverse():
    rng = random.Random(7)
    P = random_invertible(Q, 3, rng)
    R = random_invertible(Q, 3, rng)
    v = qv(1, 2, 3)
    assert P.to_new(vec_mat(Q, v, P.matrix)) == v
    # R's rows written in the original coordinates: a basis composed by rows
    composed = BasisChange(Q, [vec_mat(Q, r, P.matrix) for r in R.matrix])
    w = qv(2, -1, 5)
    assert composed.to_new(w) == R.to_new(P.to_new(w))


@pytest.mark.parametrize("name", ["Q", "F5", "GF9"])
def test_held_inverses_are_exact(name):
    F = make_field(name)
    m = identity_matrix(F, 4)
    ident = BasisChange(F, m, inverse=m)
    assert ident.inverse == invert_matrix(F, ident.matrix)


def test_singular_basis_change_rejected():
    with pytest.raises(SingularMatrix):
        BasisChange(Q, (qv(1, 1), qv(2, 2)))


def _changes(F, n, rng):
    """Dense, identity-first and shift changes of dimension n."""
    yield random_invertible(F, n, rng)
    yield complete_to_basis_with_one(random_unital_algebra(F, n, seed=n))
    # {1, e_i + c_i 1} on an identity-first basis
    e0 = unit_vec(F, n, 0)
    yield BasisChange(F, [e0] + [
        vec_add(F, unit_vec(F, n, i), vec_scale(F, random_scalar(F, rng), e0))
        for i in range(1, n)])


MAP_FIELDS = {name: make_field(name) for name in
              ("Q", "F2", "F5", "F7", "F4093", "GF4", "GF8", "GF9")}
MAP_FIELDS["GF256"] = ExtensionField(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))  # AES


@pytest.mark.parametrize("name", list(MAP_FIELDS))
def test_basis_change_maps_match_reference(name):
    F = MAP_FIELDS[name]
    rng = random.Random(f"maps|{name}")
    for n in range(1, 8):
        changes = list(_changes(F, n, rng))
        vectors = [random_vector(F, n, rng) for _ in range(4)]
        vectors += [unit_vec(F, n, i) for i in range(n)] + [(F.zero,) * n]
        for P in changes:
            for v in vectors:
                assert P.to_new(v) == vec_mat(F, v, P.inverse), (n, v)


@pytest.mark.parametrize("name", ["Q", "F5", "GF4"])
def test_empty_basis_change_maps_the_empty_vector(name):
    # an untrusted certificate may carry "change": [], a 0 x 0 change
    P = BasisChange(MAP_FIELDS[name], ())
    assert P.to_new(()) == ()


def test_basis_change_wrong_length_raises():
    P = random_invertible(Q, 3, random.Random(5))
    for v in (qv(1, 2), qv(1, 2, 3, 4)):
        with pytest.raises(DimensionMismatch):
            P.to_new(v)


def _shifted(F, v, rng):
    """v with each payload moved by a nonzero multiple of p, one coordinate
    (or GF(p^k) coefficient) in two, so a leading one may stay as it is."""
    p = F.characteristic()
    move = lambda c: c + p * rng.choice((-1, 1, 2)) if rng.random() < 0.5 else c
    if isinstance(F, ExtensionField):
        return tuple(tuple(move(c) for c in a) for a in v)
    return tuple(move(a) for a in v)


def test_rref_reduces_the_rows_it_keeps_as_given():
    F5, GF4 = make_field("F5"), make_field("GF4")
    assert span(F5, [(1, 5, 7)]).rows == ((1, 0, 2),)
    assert span(F5, [(1, 5, 7)]) == span(F5, [(1, 0, 2)])
    assert span(GF4, [((1, 0), (2, 1))]) == span(GF4, [((1, 0), (0, 1))])
    assert rref(GF4, [((1, 0), (2, 1))]) == ((((1, 0), (0, 1)),), (0,))


@pytest.mark.parametrize("name", ["F3", "F5", "F7", "GF4"])
def test_payloads_shifted_by_multiples_of_p_span_the_same_subspace(name):
    F = make_field(name)
    rng = random.Random(f"shifted|{name}")
    for _ in range(60):
        n = rng.randint(1, 5)
        vs = [random_vector(F, n, rng) for _ in range(rng.randint(1, n + 1))]
        # a leading one keeps its row out of the scaling step
        vs += [(F.zero,) * k + (F.one,) + random_vector(F, n - k - 1, rng)
               for k in rng.sample(range(n), rng.randint(1, n))]
        moved = [_shifted(F, v, rng) for v in vs]
        assert rref(F, moved) == rref(F, vs)
        got, want = span(F, moved), span(F, vs)
        assert got.rows == want.rows and got == want
