"""Generator soundness and determinism."""

import pytest

from lenalg import (
    decide_length_one,
    generate_length_one,
    make_field,
    oracle_length_one,
    verify_certificate,
)
from lenalg.errors import DimensionMismatch, ModeCharacteristicMismatch

Q = make_field("Q")
F2 = make_field("F2")
F5 = make_field("F5")
G4 = make_field("GF4")


def test_every_mode_yields_verdict_yes():
    cases = [
        (Q, 4, "special"), (F5, 6, "special"),
        (F2, 4, "type-i"), (F2, 5, "type-ii"),
        (G4, 4, "type-i"), (G4, 3, "dim3-type2"),
        (F2, 3, "dim3-type1"), (F2, 3, "dim3-type4"),
    ]
    for field, dim, mode in cases:
        for seed in (0, 1):
            for hide in (False, True):
                A = generate_length_one(field, dim, seed, mode, hide=hide)
                rep = decide_length_one(A)
                assert rep.value is True
                assert verify_certificate(A, rep.certificate)
                if field.is_finite() and field.order() ** (2 * dim) <= 10 ** 6:
                    assert oracle_length_one(A).is_length_one


def test_determinism():
    a = generate_length_one(F5, 5, 42, "special", hide=True)
    b = generate_length_one(F5, 5, 42, "special", hide=True)
    assert a.table == b.table and a.one == b.one
    c = generate_length_one(F5, 5, 43, "special", hide=True)
    assert c.table != a.table


def test_mode_validation():
    with pytest.raises(ModeCharacteristicMismatch):
        generate_length_one(F2, 4, 0, "special")
    with pytest.raises(ModeCharacteristicMismatch):
        generate_length_one(Q, 4, 0, "type-i")
    with pytest.raises(ModeCharacteristicMismatch):
        generate_length_one(F2, 4, 0, "dim3-type1")
    with pytest.raises(ModeCharacteristicMismatch):
        generate_length_one(G4, 3, 0, "dim3-type4")  # type4 is F2-only
    with pytest.raises(ValueError):
        generate_length_one(F2, 4, 0, "nonsense")
    with pytest.raises(DimensionMismatch):  # every mode needs dim >= 2
        generate_length_one(F2, 1, 0, "type-i")


def test_special_mode_jordan_pattern():
    # beta = 0 and symmetric alpha produce a commutative, flexible algebra
    from lenalg import is_commutative, is_flexible, special_table_from_params
    mu = (F5.parse("2"), F5.parse("3"))
    alpha = ((F5.zero, F5.parse("4")), (F5.parse("4"), F5.zero))
    beta = (F5.zero, F5.zero)
    A = special_table_from_params(F5, mu, beta, alpha)
    assert is_commutative(A).holds and is_flexible(A).holds
    assert decide_length_one(A).value


def test_associative_pattern_is_associative():
    from lenalg import is_associative, special_table_from_params
    beta = (Q.parse("2"), Q.parse("-1"), Q.parse("1/2"))
    mu = tuple(Q.mul(b, b) for b in beta)
    alpha = tuple(
        tuple(Q.mul(beta[i], beta[j]) if i != j else Q.zero for j in range(3))
        for i in range(3)
    )
    A = special_table_from_params(Q, mu, beta, alpha)
    assert is_associative(A).holds
    assert decide_length_one(A).value


def test_type_i_zero_parameters_square_to_zero():
    from lenalg import char2_table_from_params
    z = F2.zero
    A = char2_table_from_params(
        F2, "type-i", (z, z, z), (z, z, z),
        ((z, z, z), (z, z, z), (z, z, z)))
    # every element squares to a multiple of 1 (here: exactly 0)
    import itertools
    for v in itertools.product((0, 1), repeat=4):
        sq = A.mul(v, v)
        assert sq[1:] == (z, z, z)
