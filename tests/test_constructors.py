"""Constructors and the fixture registry."""

import random
from fractions import Fraction

import pytest

from lenalg import (
    decide_length_one,
    find_identity,
    is_associative,
    is_commutative,
    is_jordan,
    length_of_algebra,
    make_bilinear_jordan,
    make_direct_sum_of_fields,
    make_field,
    make_fixture,
    make_matrix_algebra,
    oracle_length_one,
)
from lenalg.constructors import fixture_names
from lenalg.fields import ExtensionField
from lenalg.errors import CharacteristicTwo, UnknownFixture

Q = make_field("Q")
F2 = make_field("F2")
F3 = make_field("F3")


def test_bilinear_jordan_zero_gram_is_nil():
    A = make_bilinear_jordan(Q, [[Fraction(0)] * 2 for _ in range(2)])
    for i in (1, 2):
        for j in (1, 2):
            assert A.mul(A.basis_vector(i), A.basis_vector(j)) == (Fraction(0),) * 3


def test_bilinear_jordan_identity_gram_dim1():
    A = make_bilinear_jordan(Q, [[Fraction(1)]])
    assert A.mul(A.basis_vector(1), A.basis_vector(1)) == (Fraction(1), Fraction(0))


def test_bilinear_jordan_signature_gram():
    A = make_bilinear_jordan(Q, [[Fraction(1), Fraction(0)],
                                 [Fraction(0), Fraction(-1)]])
    rep = decide_length_one(A)
    assert rep.value and all(b == 0 for b in rep.certificate.beta)


def test_bilinear_jordan_random_grams_are_jordan():
    rng = random.Random(0)
    for seed in range(20):
        for field in (Q, make_field("F5")):
            m = rng.randint(1, 5)
            gram = [[None] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    v = (Fraction(rng.randint(-3, 3)) if field is Q
                         else rng.randrange(5))
                    gram[i][j] = gram[j][i] = v
            A = make_bilinear_jordan(field, gram)
            assert is_commutative(A).holds
            assert is_jordan(A).holds
            assert decide_length_one(A).value


def test_bilinear_jordan_refuses_char2_and_asymmetry():
    with pytest.raises(CharacteristicTwo):
        make_bilinear_jordan(F2, [[F2.zero]])
    with pytest.raises(ValueError):
        make_bilinear_jordan(Q, [[Fraction(0), Fraction(1)],
                                 [Fraction(2), Fraction(0)]])


def test_matrix_algebra_basics():
    A1 = make_matrix_algebra(Q, 1)
    assert A1.dim == 1
    M2 = make_matrix_algebra(F2, 2)
    assert length_of_algebra(M2).length == 2
    assert find_identity(Q, make_matrix_algebra(Q, 2).table) == \
        (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def test_direct_sum_verdicts():
    for name in ("Q", "F2", "F3", "GF4"):
        field = make_field(name)
        assert decide_length_one(make_direct_sum_of_fields(field, 2)).value
    assert decide_length_one(make_direct_sum_of_fields(F2, 3)).value
    A33 = make_direct_sum_of_fields(F3, 3)
    assert decide_length_one(A33).value is False
    assert oracle_length_one(A33).is_length_one is False


def test_type5_fixture():
    A = make_fixture("type5-assoc")
    assert is_associative(A).holds
    assert decide_length_one(A).value
    # identity is e + f
    assert A.one == (Fraction(1), Fraction(1), Fraction(0))


def test_fixture_registry():
    names = fixture_names()
    assert "remark-literal" in names and "dim3-f2-type4" in names
    with pytest.raises(UnknownFixture):
        make_fixture("missing")
    for name in names:
        A = make_fixture(name)
        assert find_identity(A.field, A.table) == A.one


def test_remark_fixture_pair_protocol():
    """The recorded expectations for the two remark tables (see README)."""
    lit = make_fixture("remark-literal")
    assert decide_length_one(lit).value is False
    rep = make_fixture("remark-repaired")
    out = decide_length_one(rep)
    assert out.value is True
    assert is_associative(rep).holds is False


@pytest.mark.parametrize("build", [lambda: make_field("GF9"),
                                   lambda: ExtensionField(3, 2)],
                         ids=["shared-handle", "own-handle"])
def test_make_fixture_keeps_the_given_field(build, monkeypatch):
    F = build()
    built = []
    init = ExtensionField.__init__
    monkeypatch.setattr(ExtensionField, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    A = make_fixture("remark-literal", field=F)
    assert A.field is F
    assert built == []
