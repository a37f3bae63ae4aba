"""Acceptance criteria, one test per criterion, one printed PASS/FAIL line each.

Every tolerance here is exact: the arithmetic is exact, so equality is the
only tolerance anywhere.  Run with `pytest tests/test_acceptance.py -s` to
see the per-criterion lines.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from lenalg import (
    ViolationWitness,
    canonicalize,
    change_basis,
    decide_length_one,
    generate_length_one,
    is_associative,
    is_commutative,
    is_flexible,
    is_jordan,
    is_power_associative_upto,
    associative_law_holds,
    flexible_law_holds,
    jordan_law_holds,
    length_of_algebra,
    length_of_set,
    make_bilinear_jordan,
    make_direct_sum_of_fields,
    make_field,
    make_fixture,
    make_matrix_algebra,
    oracle_length_one,
    special_step,
    special_table_from_params,
    square_step,
    subalgebra_generated_by,
    verify_certificate,
    verify_special_witness,
)
from lenalg.algebra import complete_to_basis_with_one
from lenalg.constructors import fixture_names

from tests.corpus import (
    mutate_one_constant,
    random_scalar,
    random_two_dim_unital,
    random_unital_algebra,
    random_vector,
)

Q = make_field("Q")
F2 = make_field("F2")
F3 = make_field("F3")
F5 = make_field("F5")
G4 = make_field("GF4")


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_oracle_equivalence():
    """decide == oracle over eight (field, dim) combos, 200 seeds each + fixtures."""
    combos = [(F2, 3), (F2, 4), (F2, 5), (F3, 3), (F3, 4), (F5, 3),
              (G4, 3), (G4, 4)]
    with criterion(1, "oracle equivalence"):
        checked = 0
        for field, dim in combos:
            for seed in range(200):
                A = random_unital_algebra(field, dim, seed=seed)
                rep = decide_length_one(A)
                orc = oracle_length_one(A, witness=False)
                assert rep.value == orc.is_length_one, \
                    (field.label(), dim, seed, rep.path)
                assert verify_certificate(A, rep.certificate)
                checked += 1
        # all fixtures; rational fixtures are reinterpreted over F5 and F7
        for name in fixture_names():
            A = make_fixture(name)
            if A.field.is_finite():
                variants = [A]
            else:
                variants = [make_fixture(name, field=F5),
                            make_fixture(name, field=make_field("F7"))]
            for B in variants:
                assert decide_length_one(B).value == \
                    oracle_length_one(B, witness=False).is_length_one, name
                checked += 1
        assert checked >= 1600


def test_criterion_2_dimension_two_always_yes():
    with criterion(2, "dimension 2 is always length one"):
        for field in (Q, F2, F3, G4):
            for seed in range(50):
                A = random_two_dim_unital(field, seed)
                rep = decide_length_one(A)
                assert rep.value is True, (field.label(), seed)
                assert verify_certificate(A, rep.certificate)


def test_criterion_3_special_generator_round_trip():
    """300 hidden special-basis algebras over Q and F5, dims 3-8, all certified."""
    with criterion(3, "special-basis generator round trip"):
        count = 0
        for field in (Q, F5):
            for dim in range(3, 9):
                for seed in range(25):
                    A = generate_length_one(field, dim, seed, "special", hide=True)
                    rep = decide_length_one(A)
                    assert rep.value is True, (field.label(), dim, seed)
                    assert verify_special_witness(A, rep.certificate)
                    count += 1
        assert count == 300


def _draw_params(field, m, rng, pattern):
    draw = lambda: random_scalar(field, rng)
    if pattern == "jordan":
        beta = tuple(field.zero for _ in range(m))
        mu = tuple(draw() for _ in range(m))
        alpha = [[field.zero] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                alpha[i][j] = alpha[j][i] = draw()
    elif pattern == "assoc":
        beta = tuple(draw() for _ in range(m))
        mu = tuple(field.mul(b, b) for b in beta)
        alpha = [[field.mul(beta[i], beta[j]) if i != j else field.zero
                  for j in range(m)] for i in range(m)]
    elif pattern == "flex":
        b, c = draw(), draw()
        beta = tuple(b for _ in range(m))
        mu = tuple(c for _ in range(m))
        alpha = [[c if i != j else field.zero for j in range(m)]
                 for i in range(m)]
    else:
        beta = tuple(draw() for _ in range(m))
        mu = tuple(draw() for _ in range(m))
        alpha = [[draw() if i != j else field.zero for j in range(m)]
                 for i in range(m)]
    return mu, beta, tuple(tuple(r) for r in alpha)


def test_criterion_4_identity_criteria_equivalences():
    """500 seeded witnesses: parameter laws match the evaluated identities."""
    with criterion(4, "identity-criteria equivalences"):
        rng = random.Random("criterion4")
        plans = [("free", 200), ("jordan", 100), ("assoc", 100), ("flex", 100)]
        disagreements = 0
        total = 0
        for pattern, count in plans:
            for k in range(count):
                field = Q if k % 2 == 0 else F5
                m = 2 + (k % 3)  # dims 3..5
                mu, beta, alpha = _draw_params(field, m, rng, pattern)
                A = special_table_from_params(field, mu, beta, alpha)
                if flexible_law_holds(field, mu, beta, alpha) != is_flexible(A).holds:
                    disagreements += 1
                if associative_law_holds(field, mu, beta, alpha) != is_associative(A).holds:
                    disagreements += 1
                jp = jordan_law_holds(field, mu, beta, alpha)
                if jp != is_jordan(A).holds or jp != is_commutative(A).holds:
                    disagreements += 1
                total += 1
        assert total == 500
        assert disagreements == 0


def test_criterion_5_bilinear_jordan_witnesses():
    with criterion(5, "bilinear-form algebras: yes, jordan, beta = 0"):
        rng = random.Random("criterion5")
        for k in range(20):
            field = Q if k % 2 == 0 else F5
            m = 1 + (k % 5)  # algebra dims 2..6
            gram = [[None] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    v = (Fraction(rng.randint(-4, 4)) if field is Q
                         else rng.randrange(5))
                    gram[i][j] = gram[j][i] = v
            A = make_bilinear_jordan(field, gram)
            rep = decide_length_one(A)
            assert rep.value is True
            assert all(b == field.zero for b in rep.certificate.beta)
            assert is_jordan(A).holds


def test_criterion_6_char2_normal_forms():
    """Char-2 families certify with matching forms; single-constant breaks flip to no."""
    with criterion(6, "characteristic-2 normal forms and mutations"):
        # the dimension-3 fixtures recover their own form names
        for k in (1, 2, 3):
            A = make_fixture(f"dim3-f2-type{k}")
            rep = decide_length_one(A)
            assert rep.value and rep.certificate.form == f"dim3-f2-type{k}"
        # a dim-3 table with the type-i/ii law is one of the dim-3 classes
        dim3_class = {
            (True, "type-i"): "dim3-f2-type1",
            (True, "type-ii"): "dim3-f2-type4",
            (False, "type-i"): "dim3-ext-type1",
            (False, "type-ii"): "dim3-ext-type3",
        }
        for field in (F2, G4):
            for dim in (3, 4, 5):
                for mode in ("type-i", "type-ii"):
                    for seed in range(100):
                        A = generate_length_one(field, dim, seed, mode, hide=False)
                        rep = decide_length_one(A)
                        assert rep.value is True, (field.label(), dim, mode, seed)
                        if dim == 3:
                            expected = dim3_class[(field.is_two_element_field(), mode)]
                        else:
                            expected = mode
                        assert rep.certificate.form == expected, \
                            (field.label(), dim, mode, seed, rep.certificate.form)
                        if seed % 10 == 0:
                            # hidden variant keeps the verdict and the form
                            H = generate_length_one(field, dim, seed, mode, hide=True)
                            reph = decide_length_one(H)
                            assert reph.value and reph.certificate.form == expected
                        if seed % 5 == 0:
                            # break one relation: bump the coefficient of a_3
                            # inside the product a_2 a_3
                            M = mutate_one_constant(A, 1, 2, 2)
                            repm = decide_length_one(M)
                            assert repm.value is False, (field.label(), dim, mode, seed)
                            assert oracle_length_one(M, witness=False).is_length_one is False


def test_criterion_7_classification_cross_checks():
    with criterion(7, "classification cross-checks (exact)"):
        for field in (Q, F2, F3, F5, G4):
            assert decide_length_one(make_direct_sum_of_fields(field, 2)).value
        for field in (F2, F3, G4):
            assert length_of_algebra(make_direct_sum_of_fields(field, 2)).length == 1
        assert decide_length_one(make_direct_sum_of_fields(F2, 3)).value is True
        A33 = make_direct_sum_of_fields(F3, 3)
        assert decide_length_one(A33).value is False
        assert length_of_algebra(A33).length == 2
        M2 = make_matrix_algebra(F2, 2)
        assert length_of_algebra(M2).length == 2
        assert length_of_set(M2, [M2.basis_vector(1), M2.basis_vector(2)]).length == 2


def test_criterion_8_length_bound():
    """Every enumerated exact length satisfies l(A) <= 2^(dim - 2)."""
    with criterion(8, "exact lengths respect the exponential bound"):
        corpora = [(F2, 3, 20), (F2, 4, 20), (F2, 5, 20), (F3, 3, 20)]
        for field, dim, seeds in corpora:
            for seed in range(seeds):
                A = random_unital_algebra(field, dim, seed=seed)
                res = length_of_algebra(A)
                assert res.length <= 2 ** (dim - 2), (field.label(), dim, seed)


def _criterion9_corpus():
    yield make_fixture("dim3-f2-type2")
    yield make_fixture("dim3-f2-type4")
    yield make_fixture("char2-typeI-seeded")
    yield make_fixture("remark-repaired")
    yield make_fixture("type5-assoc")
    yield make_bilinear_jordan(Q, [[Fraction(1), Fraction(2)],
                                   [Fraction(2), Fraction(-1)]])
    yield generate_length_one(Q, 5, 1, "special", hide=True)
    yield generate_length_one(F5, 4, 2, "special", hide=True)
    yield generate_length_one(F3, 4, 3, "special", hide=True)
    yield generate_length_one(F2, 4, 4, "type-i", hide=True)
    yield generate_length_one(F2, 5, 5, "type-ii", hide=True)
    yield generate_length_one(G4, 4, 6, "type-ii", hide=True)


def test_criterion_9_heredity_and_power_associativity():
    with criterion(9, "subalgebra heredity and power-associativity"):
        for A in _criterion9_corpus():
            field = A.field
            rep = decide_length_one(A)
            assert rep.value is True
            rng = random.Random(f"c9|{field.label()}|{A.dim}")
            for _ in range(20):
                count = rng.randint(1, 3)
                vectors = [random_vector(field, A.dim, rng) for _ in range(count)]
                S, _rows = subalgebra_generated_by(A, vectors)
                sub_rep = decide_length_one(S)
                assert sub_rep.value is True, (field.label(), A.dim)
            verdict = is_power_associative_upto(A, 6)
            assert verdict.holds, (field.label(), A.dim)
            assert verdict.counterexample["kind"] == "scope"  # a swept proof


def test_criterion_10_remark_erratum_protocol():
    """Recorded verdicts for the literal and repaired remark tables."""
    with criterion(10, "remark fixture protocol"):
        # oracle over F5: recorded outcome is "no", first witness (a+b, a+b)
        lit5 = make_fixture("remark-literal", field=F5)
        orc = oracle_length_one(lit5)
        assert orc.is_length_one is False
        assert orc.witness.left == (0, 1, 1) and orc.witness.right == (0, 1, 1)
        # pairwise-law check over Q: squares pass, the canonical shift works,
        # and the anticommutator condition breaks (recorded outcome)
        lit = make_fixture("remark-literal")
        basis = complete_to_basis_with_one(lit).matrix
        pairs = square_step(lit, basis)
        assert not isinstance(pairs, ViolationWitness)
        shift = canonicalize(lit, basis, [g for (_, g) in pairs])
        C = change_basis(lit, shift)
        res = special_step(C, [C.basis_vector(i) for i in range(3)])
        assert isinstance(res, ViolationWitness)
        assert res.condition == "anticommutator-not-scalar"
        # the decider agrees with both recorded outcomes
        assert decide_length_one(lit).value is False
        assert decide_length_one(lit5).value is False
        # repaired table: yes, with a witness, and not associative
        repaired = make_fixture("remark-repaired")
        rep = decide_length_one(repaired)
        assert rep.value is True
        assert verify_special_witness(repaired, rep.certificate)
        assert is_associative(repaired).holds is False
