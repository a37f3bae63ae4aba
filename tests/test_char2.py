"""Characteristic-2 decisions: relations, the four F2 forms, extension forms."""

import itertools
import random

import pytest

from lenalg import (
    algebra,
    change_basis,
    char2_decide,
    decide_length_one,
    generate_length_one,
    make_direct_sum_of_fields,
    make_field,
    make_fixture,
    oracle_length_one,
    verify_certificate,
    verify_char2_witness,
    verify_violation,
)
from lenalg import decide as decide_module
from lenalg import linalg
from lenalg.algebra import complete_to_basis_with_one, identity_first
from lenalg.decide import (
    CharTwoWitness,
    LengthReport,
    ViolationWitness,
    char2_table_from_params,
)
from lenalg.documents import render_report, verify_report_dict
from lenalg.errors import CharacteristicNotTwo
from lenalg.linalg import (
    BasisChange,
    identity_matrix,
    invert_matrix,
    random_invertible,
    unit_vec,
    vec_scale,
)

from tests.corpus import random_unital_algebra

F2 = make_field("F2")
G4 = make_field("GF4")
G8 = make_field("GF8")


def test_char2_decide_needs_char2():
    with pytest.raises(CharacteristicNotTwo):
        char2_decide(make_fixture("remark-literal"))


def test_f2_cubed_is_type2():
    A = make_direct_sum_of_fields(F2, 3)
    rep = decide_length_one(A)
    assert rep.value and rep.certificate.form == "dim3-f2-type2"
    assert oracle_length_one(A).is_length_one


def test_dim3_fixture_forms_recovered():
    for k in (1, 2, 3, 4):
        A = make_fixture(f"dim3-f2-type{k}")
        rep = decide_length_one(A)
        assert rep.value, (k, rep.path)
        assert rep.certificate.form == f"dim3-f2-type{k}"
        assert oracle_length_one(A).is_length_one


def test_relation_failure_example():
    # b2*b3 ≡ b2 with all other non-identity parts zero, squares ≡ 0:
    # the relation sums differ (1 vs 0), so length > 1
    z, o = F2.zero, F2.one
    t = [
        [(o, z, z), (z, o, z), (z, z, o)],
        [(z, o, z), (z, z, z), (z, o, z)],
        [(z, z, o), (z, z, z), (z, z, z)],
    ]
    A = algebra(F2, t, (o, z, z))
    rep = decide_length_one(A)
    assert rep.value is False
    assert rep.certificate.condition == "char2-dim3-relation"
    assert verify_violation(A, rep.certificate)
    assert oracle_length_one(A).is_length_one is False


def test_all_f2_dim3_tables_against_oracle():
    # every structure table on (1, b, c) with products determined mod 1 by
    # 6 bits: squares delta2, delta3 and the four product coefficients;
    # scalar parts add 6 more bits -- sample the scalar parts, sweep the rest
    rng = random.Random(0)
    z, o = F2.zero, F2.one
    agree = 0
    for bits in itertools.product((z, o), repeat=6):
        d2, d3, s12, t12, s21, t21 = bits
        c = [rng.randrange(2) for _ in range(6)]
        t = [
            [(o, z, z), (z, o, z), (z, z, o)],
            [(z, o, z), (c[0], d2, z), (c[1], s12, t12)],
            [(z, z, o), (c[2], t21, s21), (c[3], z, d3)],
        ]
        A = algebra(F2, t, (o, z, z))
        rep = decide_length_one(A)
        orc = oracle_length_one(A)
        assert rep.value == orc.is_length_one, bits
        assert verify_certificate(A, rep.certificate)
        agree += 1
    assert agree == 64


def test_fourth_form_is_really_new():
    # square types of the three classes are a basis invariant; the type4
    # fixture has multiset {0,1,1} while types 1-3 have {000},{111},{001}
    A = make_fixture("dim3-f2-type4")
    rep = decide_length_one(A)
    assert rep.value and rep.certificate.form == "dim3-f2-type4"
    assert oracle_length_one(A).is_length_one
    # and it stays type4 after hiding the basis
    rng = random.Random(1)
    for _ in range(5):
        B = change_basis(A, random_invertible(F2, 3, rng))
        repB = decide_length_one(B)
        assert repB.value and repB.certificate.form == "dim3-f2-type4"


def test_printed_extension_form3_fails_over_gf4():
    # a2^2=0, a3^2=a3, a2a3=0, a3a2=a3: over a proper extension of F2 this
    # violates the crossed relation (witness x = a2 + w*a3), while the
    # corrected form with a3a2 = a2 is length one; over F2 the same table is
    # the honest type3
    z, o = G4.zero, G4.one
    t_printed = [
        [(o, z, z), (z, o, z), (z, z, o)],
        [(z, o, z), (z, z, z), (z, z, z)],
        [(z, z, o), (z, z, o), (z, z, o)],
    ]
    A = algebra(G4, t_printed, (o, z, z))
    rep = decide_length_one(A)
    assert rep.value is False
    assert rep.certificate.condition == "char2-dim3-crossed-relation"
    assert verify_violation(A, rep.certificate)
    assert oracle_length_one(A).is_length_one is False

    t_corrected = [
        [(o, z, z), (z, o, z), (z, z, o)],
        [(z, o, z), (z, z, z), (z, z, z)],
        [(z, z, o), (z, o, z), (z, z, o)],
    ]
    B = algebra(G4, t_corrected, (o, z, z))
    repB = decide_length_one(B)
    assert repB.value and repB.certificate.form == "dim3-ext-type3"
    assert oracle_length_one(B).is_length_one


def test_extension_dim3_forms_round_trip():
    # over a proper extension there are two isomorphism classes; a type-2
    # table is the type-3 algebra presented in another basis (a_2 + a_3
    # squares to 0 mod 1), so the decider reports it canonically as type 3
    canonical = {1: "dim3-ext-type1", 2: "dim3-ext-type3", 3: "dim3-ext-type3"}
    for field in (G4, G8):
        for k in (1, 2, 3):
            for seed in range(4):
                A = generate_length_one(field, 3, seed, f"dim3-type{k}", hide=True)
                rep = decide_length_one(A)
                assert rep.value, (field.label(), k, seed)
                assert rep.certificate.form == canonical[k]
                assert verify_char2_witness(A, rep.certificate)


def _identity_witness(field, form):
    """The table of a dimension-3 `form` with zero F*1 parts, and the witness
    claiming it in its own basis."""
    z = field.zero
    squares, products = (z, z), ((z, z), (z, z))
    A = char2_table_from_params(field, form, (), squares, products)
    change = BasisChange(field, identity_matrix(field, 3))
    return A, CharTwoWitness(change, form, (), squares, products)


def test_f2_forms_certify_over_f2_only():
    # the dim3-f2 tables over a proper extension break the crossed relation,
    # so a certificate naming them there is forged
    for field in (G4, G8):
        for form in ("dim3-f2-type2", "dim3-f2-type3"):
            A, w = _identity_witness(field, form)
            assert decide_length_one(A).value is False
            assert not verify_certificate(A, w), (field.label(), form)
            report = LengthReport("length-one-decision", True, w, [], [])
            assert not verify_report_dict(render_report(report, A))
    # the extension forms are length one over F2 as well
    for k in (1, 2, 3):
        A, w = _identity_witness(F2, f"dim3-ext-type{k}")
        assert oracle_length_one(A).is_length_one
        assert verify_certificate(A, w)


def test_swapped_deltas_normalize():
    # delta pattern (1, 0) must be relabeled to reach the (0, 1) form
    z, o = G4.zero, G4.one
    t = [
        [(o, z, z), (z, o, z), (z, z, o)],
        [(z, o, z), (z, o, z), (z, z, z)],   # b2^2 = b2
        [(z, z, o), (z, o, z), (z, z, z)],   # b3^2 = 0, b3 b2 = b2
    ]
    A = algebra(G4, t, (o, z, z))
    rep = decide_length_one(A)
    orc = oracle_length_one(A)
    assert rep.value == orc.is_length_one
    if rep.value:
        assert rep.certificate.form.startswith("dim3-ext-")


def test_dim_ge4_type_forms_round_trip():
    for field in (F2, G4):
        for dim in (4, 5):
            for mode in ("type-i", "type-ii"):
                for seed in range(3):
                    A = generate_length_one(field, dim, seed, mode, hide=True)
                    rep = decide_length_one(A)
                    assert rep.value, (field.label(), dim, mode, seed)
                    assert rep.certificate.form == mode
                    assert verify_char2_witness(A, rep.certificate)


def test_mixed_deltas_homogenized():
    # in a type-ii algebra the element a_2 + a_3 squares to 0 modulo F*1, so
    # re-picking it as a basis vector forces the mixed-squares path while the
    # algebra stays length one
    for field in (F2, G4):
        A = generate_length_one(field, 4, 7, "type-ii", hide=False)
        z, o = field.zero, field.one
        rows = [
            (o, z, z, z),
            (z, o, o, z),   # a_2 + a_3: square type flips to 0
            (z, z, o, z),
            (z, z, z, o),
        ]
        B = change_basis(A, rows)
        rep = decide_length_one(B)
        assert rep.value is True
        assert rep.certificate.form == "type-ii"
        assert any("homogenize" in p for p in rep.path)
        assert verify_char2_witness(B, rep.certificate)


def test_rescale_inverse_is_written_down(monkeypatch):
    # the rescale's rows are ch0's scaled by 1/gamma_i, so its inverse is
    # ch0's with column i scaled by gamma_i; only _finish_dim3's 3x3 bases and
    # the homogenized one still invert by rref.  The squares stage's
    # Conjugation by ch0 comes first, the rescale's second
    rrefs, changes = [], []
    rref, real = linalg.rref, decide_module.Conjugation
    monkeypatch.setattr(linalg, "rref", lambda *a: rrefs.append(1) or rref(*a))
    monkeypatch.setattr(decide_module, "Conjugation",
                        lambda A, c: changes.append(c) or real(A, c))
    seen = set()
    for field in (F2, G4, G8):
        for dim in (2, 4, 5):
            corpus = [generate_length_one(field, dim, seed, mode, hide=True)
                      for mode in ("type-i", "type-ii") for seed in range(2)]
            corpus += [random_unital_algebra(field, dim, seed) for seed in range(3)]
            for A in corpus:
                del rrefs[:], changes[:]
                _, path = char2_decide(A)
                if "homogenize-squares" not in path:
                    assert rrefs == [], path
                if len(changes) > 1:
                    rescale = changes[1]
                    assert rescale.inverse == invert_matrix(field, rescale.matrix)
                    seen.add(path[-1])
    assert {"type-i", "type-ii"} <= seen


def test_char2_decide_public_surface():
    A = make_fixture("char2-typeI-seeded")
    w, path = char2_decide(A)
    assert not isinstance(w, ViolationWitness)
    assert w.form == "type-i"
    assert verify_char2_witness(A, w)
    bad = random_unital_algebra(G4, 4, seed=2)
    res, path = char2_decide(bad)
    assert isinstance(res, ViolationWitness) == (not oracle_length_one(bad).is_length_one)


def test_dim_ge4_condition_failures_carry_witnesses():
    # mutate a generated type-i table in one product coefficient; the decider
    # must fail one of the coefficient conditions with a verified pair
    for seed in range(5):
        A = generate_length_one(G4, 4, seed, "type-i", hide=False)
        table = [list(map(list, row)) for row in A.table]
        # bump the coefficient of a_j inside the product a_2 a_3
        entry = table[1][2]
        entry[2] = G4.add(tuple(entry[2]), G4.one)
        table[1][2] = entry
        B = algebra(G4, [[tuple(c) for c in row] for row in table], A.one)
        rep = decide_length_one(B)
        assert rep.value is False
        assert verify_violation(B, rep.certificate)
        assert oracle_length_one(B).is_length_one is False


def test_random_char2_corpus_agreement():
    for field, dim in ((F2, 4), (F2, 5), (G4, 3), (G4, 4)):
        for seed in range(10):
            A = random_unital_algebra(field, dim, seed=seed)
            rep = decide_length_one(A)
            orc = oracle_length_one(A)
            assert rep.value == orc.is_length_one
            assert verify_certificate(A, rep.certificate)


@pytest.mark.parametrize("field", [G4, G8], ids=["GF4", "GF8"])
@pytest.mark.parametrize("identity_last", [False, True])
def test_product_failure_is_mapped_through_the_rescale(field, identity_last):
    # a_i^2 = g a_i with g not in {0, 1}, and a_1 a_2 = a_3 leaves
    # span{1, a_1, a_2}; the product step runs after the rescale
    # a_i -> g^-1 a_i, so the reported left factor is g^-1 a_1
    g = next(c for c in field.elements() if c not in (field.zero, field.one))
    n = 4

    def cell(i, j):
        if i == j:
            return vec_scale(field, g, unit_vec(field, n, i))
        if (i, j) == (1, 2):
            return unit_vec(field, n, 3)
        return (field.zero,) * n
    A = identity_first(field, n, cell)
    if identity_last:
        A = change_basis(A, [unit_vec(field, n, k) for k in (1, 2, 3, 0)])
    rep = decide_length_one(A)
    assert rep.certificate.condition == "product-not-in-span"
    assert rep.path[-1] == "products"
    ch0 = complete_to_basis_with_one(A)
    B = change_basis(A, ch0)
    i = int(rep.certificate.detail["indices"][0])
    gamma = B.table[i][i][i]
    assert gamma not in (field.zero, field.one)
    assert ch0.to_new(rep.certificate.left) == vec_scale(
        field, field.inv(gamma), unit_vec(field, n, i))
