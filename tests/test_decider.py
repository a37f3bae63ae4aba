"""Length-one decisions away from characteristic 2, plus the pair oracle."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from lenalg import (
    algebra,
    canonicalize,
    change_basis,
    decide_length_one,
    generate_length_one,
    make_bilinear_jordan,
    make_field,
    make_fixture,
    make_matrix_algebra,
    length_of_algebra,
    length_of_set,
    oracle_length_one,
    special_step,
    special_table_from_params,
    square_step,
    subalgebra_generated_by,
    verify_certificate,
    verify_special_witness,
    verify_violation,
)
from lenalg import decide as decide_module
from lenalg.algebra import complete_to_basis_with_one
from lenalg.decide import SpecialBasisWitness, ViolationWitness
from lenalg.errors import BudgetExceeded, CharacteristicTwo
from lenalg.linalg import (
    BasisChange,
    identity_matrix,
    in_span,
    random_invertible,
    span,
    unit_vec,
)

from tests.corpus import random_unital_algebra, random_two_dim_unital, random_vector

Q = make_field("Q")
F3 = make_field("F3")
F5 = make_field("F5")


def qv(*xs):
    return tuple(Fraction(x) for x in xs)


# ---------------------------------------------------------------------------
# square step
# ---------------------------------------------------------------------------

def test_square_step_idempotent_and_nil():
    A = make_fixture("remark-repaired")  # basis (1, a, b): a^2 = 0, b^2 = b
    pairs = square_step(A)
    assert not isinstance(pairs, ViolationWitness)
    assert pairs[0] == (Fraction(0), Fraction(0))  # a^2 = 0*1 + 0*a
    assert pairs[1] == (Fraction(0), Fraction(1))  # b^2 = 0*1 + 1*b


def test_square_step_passes_on_matrix_basis_but_decision_is_no():
    # basis {1, E11, E12, E21} of M_2: every basis square stays in span{1, a_i},
    # yet the algebra is not length one; the failure surfaces in the pair law.
    M2 = make_matrix_algebra(Q, 2)
    basis = [M2.one, M2.basis_vector(0), M2.basis_vector(1), M2.basis_vector(2)]
    pairs = square_step(M2, basis)
    assert not isinstance(pairs, ViolationWitness)
    rep = decide_length_one(M2)
    assert rep.value is False
    assert rep.certificate.condition in ("product-not-in-span",
                                         "anticommutator-not-scalar",
                                         "pair-coefficient-inconsistent")


def test_square_step_failure_is_a_verdict():
    # e2^2 = e3 escapes span{1, e2}
    z, o = Q.zero, Q.one
    t = [
        [qv(1, 0, 0), qv(0, 1, 0), qv(0, 0, 1)],
        [qv(0, 1, 0), qv(0, 0, 1), qv(0, 0, 0)],
        [qv(0, 0, 1), qv(0, 0, 0), qv(0, 0, 0)],
    ]
    from lenalg import algebra
    A = algebra(Q, t, qv(1, 0, 0))
    res = square_step(A)
    assert isinstance(res, ViolationWitness)
    assert res.condition == "square-not-in-span"
    assert verify_violation(A, res)


# ---------------------------------------------------------------------------
# canonical shift
# ---------------------------------------------------------------------------

def test_canonicalize_idempotent_over_q():
    A = make_fixture("remark-repaired")
    basis = complete_to_basis_with_one(A).matrix
    pairs = square_step(A, basis)
    gammas = [g for (_, g) in pairs]
    change = canonicalize(A, basis, gammas)
    B = change_basis(A, change)
    sq = B.mul(B.basis_vector(2), B.basis_vector(2))
    assert sq == qv(Fraction(1, 4), 0, 0)  # (b - 1/2)^2 = 1/4
    sq_a = B.mul(B.basis_vector(1), B.basis_vector(1))
    assert sq_a == qv(0, 0, 0)  # a was already canonical


def test_canonicalize_idempotent_over_f3():
    # e^2 = e over F3: shift is e + 1 and the new square is 1
    from lenalg import algebra
    t = [[(1, 0), (0, 1)], [(0, 1), (0, 1)]]
    A = algebra(F3, t, (1, 0))
    basis = [A.one, A.basis_vector(1)]
    pairs = square_step(A, basis)
    change = canonicalize(A, basis, [g for (_, g) in pairs])
    assert change.matrix[1] == (1, 1)  # e - (1/2) 1 = e + 1 in F3
    B = change_basis(A, change)
    assert B.mul(B.basis_vector(1), B.basis_vector(1)) == (1, 0)


def test_canonicalize_refuses_char2():
    F2 = make_field("F2")
    from lenalg import algebra
    t = [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]
    A = algebra(F2, t, (1, 0))
    with pytest.raises(CharacteristicTwo):
        canonicalize(A, [A.one, A.basis_vector(1)], [F2.zero])


# ---------------------------------------------------------------------------
# pairwise law
# ---------------------------------------------------------------------------

def test_special_step_bilinear_jordan_all_beta_zero():
    gram = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(-1)]]
    A = make_bilinear_jordan(Q, gram)
    basis = [A.basis_vector(i) for i in range(3)]
    w = special_step(A, basis)
    assert isinstance(w, SpecialBasisWitness)
    assert all(b == 0 for b in w.beta)
    assert w.alpha[0][1] == Fraction(1)  # alpha_ij = gram entries
    assert verify_special_witness(A, w)


def test_special_step_conjugates_once(monkeypatch):
    # the witness is checked against the table its parameters were read
    # from, not against a second conjugation of A
    Y = generate_length_one(Q, 5, seed=1, mode="special", hide=True)
    ch0 = complete_to_basis_with_one(Y)
    shift = canonicalize(Y, ch0.matrix, [g for (_, g) in square_step(Y, ch0)])
    calls = []
    real = decide_module.Conjugation

    def counted(A, change):
        calls.append(change)
        return real(A, change)
    monkeypatch.setattr(decide_module, "Conjugation", counted)
    w = special_step(Y, shift)
    assert isinstance(w, SpecialBasisWitness)
    assert calls == [shift]
    assert verify_special_witness(Y, w)


def test_special_witness_scalars_must_be_canonical():
    # 6 is 1 in F5, but a certificate is checked by comparing the table it
    # builds with A's, payload for payload
    mu, beta = (1, 2, 3), (4, 0, 1)
    alpha = ((0, 2, 3), (1, 0, 4), (2, 2, 0))
    A = special_table_from_params(F5, mu, beta, alpha)
    ident = BasisChange(F5, identity_matrix(F5, 4))
    assert verify_special_witness(A, SpecialBasisWitness(ident, mu, beta, alpha))
    shifted = tuple(m + 5 for m in mu)
    assert not verify_special_witness(
        A, SpecialBasisWitness(ident, shifted, beta, alpha))
    hidden = generate_length_one(F5, 4, seed=0, mode="special", hide=True)
    w = decide_length_one(hidden).certificate
    assert verify_special_witness(hidden, w)
    assert not verify_special_witness(
        hidden, replace(w, mu=tuple(m + 5 for m in w.mu)))


def test_special_step_f3_triple_sum_fails():
    from lenalg import make_direct_sum_of_fields
    A = make_direct_sum_of_fields(F3, 3)
    B = change_basis(A, complete_to_basis_with_one(A))
    pairs = square_step(B, [B.basis_vector(i) for i in range(3)])
    change = canonicalize(B, [B.basis_vector(i) for i in range(3)],
                          [g for (_, g) in pairs])
    C = change_basis(B, change)
    res = special_step(C, [C.basis_vector(i) for i in range(3)])
    assert isinstance(res, ViolationWitness)
    assert res.condition == "anticommutator-not-scalar"


def test_special_step_dim3_never_reaches_partner_consistency():
    # at dim 3 there is exactly one partner per index, so the verdicts there
    # come from membership or the anticommutator only
    for seed in range(10):
        A = random_unital_algebra(F5, 3, seed=seed)
        rep = decide_length_one(A)
        if rep.value is False:
            assert rep.certificate.condition != "pair-coefficient-inconsistent"


# ---------------------------------------------------------------------------
# full decision
# ---------------------------------------------------------------------------

def test_dim2_always_yes_all_fields():
    for name in ("Q", "F2", "F3", "GF4"):
        field = make_field(name)
        for seed in range(10):
            A = random_two_dim_unital(field, seed)
            rep = decide_length_one(A)
            assert rep.value is True
            assert "dim<=2" in " ".join(rep.path)
            assert verify_certificate(A, rep.certificate)


def test_dim1_yes_with_length_zero_path():
    A1 = make_matrix_algebra(Q, 1)
    rep = decide_length_one(A1)
    assert rep.value is True
    assert any("length 0" in p for p in rep.path)


def test_jordan_bilinear_any_dim_yes():
    rng = random.Random(0)
    for m in range(1, 5):
        gram = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(i):
                gram[i][j] = gram[j][i]
        A = make_bilinear_jordan(Q, gram)
        rep = decide_length_one(A)
        assert rep.value is True


def test_generated_special_round_trip_hidden():
    for name in ("Q", "F5"):
        field = make_field(name)
        for dim in (3, 5, 8):
            for seed in range(3):
                A = generate_length_one(field, dim, seed, "special", hide=True)
                rep = decide_length_one(A)
                assert rep.value is True, (name, dim, seed, rep.path)
                assert verify_special_witness(A, rep.certificate)


def test_isomorphism_invariance_of_verdict():
    rng = random.Random(3)
    for seed in range(6):
        A = random_unital_algebra(F3, 4, seed=seed)
        rep = decide_length_one(A)
        P = random_invertible(F3, 4, rng)
        B = change_basis(A, P)
        assert decide_length_one(B).value == rep.value


def test_violations_reverify():
    count_no = 0
    for seed in range(15):
        A = random_unital_algebra(F5, 3, seed=seed)
        rep = decide_length_one(A)
        if not rep.value:
            count_no += 1
            assert verify_violation(A, rep.certificate)
    assert count_no > 0  # random tables are essentially never length one


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def test_oracle_direct_sum_f2_cubed_yes():
    from lenalg import make_direct_sum_of_fields
    A = make_direct_sum_of_fields(make_field("F2"), 3)
    res = oracle_length_one(A)
    assert res.is_length_one and res.witness is None


def test_oracle_matrix_f2_no_with_witness():
    A = make_matrix_algebra(make_field("F2"), 2)
    res = oracle_length_one(A)
    assert res.is_length_one is False
    assert verify_violation(A, res.witness)


def test_oracle_remark_literal_over_f5():
    A = make_fixture("remark-literal", field=F5)
    res = oracle_length_one(A)
    assert res.is_length_one is False
    # lexicographically first violating pair: x = a + b squared
    assert res.witness.left == (0, 1, 1)
    assert res.witness.right == (0, 1, 1)
    assert verify_violation(A, res.witness)


def test_oracle_budget_and_infinite_field():
    A = make_matrix_algebra(make_field("F2"), 2)
    with pytest.raises(BudgetExceeded):
        oracle_length_one(A, budget=10)
    # over Q the basis lines decide exactly: M_2(Q) is not length one
    M2Q = make_matrix_algebra(Q, 2)
    res = oracle_length_one(M2Q)
    assert res.is_length_one is False
    assert res.witness.condition == "oracle-pair"
    assert verify_violation(M2Q, res.witness)


def test_oracle_matches_decide_on_random_corpus():
    for name, dim in (("F2", 4), ("F3", 3), ("GF4", 3), ("F5", 3)):
        field = make_field(name)
        for seed in range(10):
            A = random_unital_algebra(field, dim, seed=1000 + seed)
            assert decide_length_one(A).value == oracle_length_one(A).is_length_one


# ---------------------------------------------------------------------------
# consequences on verdict-yes algebras
# ---------------------------------------------------------------------------

def test_gloss_divergence_flag_at_dim4():
    # membership and anticommutator checks pass for every pair, yet the
    # coefficient a_2 passes to its partner differs between partners:
    # a2*a3 = -a3 but a2*a4 = 0.  The simpler membership-plus-anticommutator
    # reading would accept this table; the partner-consistency condition
    # rejects it, the report flags the divergence, and the oracle confirms
    # the algebra is not length one (witness pair (a2, a3+a4)).
    z, o = 0, 1
    t = [
        [(o, z, z, z), (z, o, z, z), (z, z, o, z), (z, z, z, o)],
        [(z, o, z, z), (z, z, z, z), (z, z, 4, z), (z, z, z, z)],
        [(z, z, o, z), (z, z, o, z), (z, z, z, z), (z, z, z, z)],
        [(z, z, z, o), (z, z, z, z), (z, z, z, z), (z, z, z, z)],
    ]
    from lenalg import algebra
    A = algebra(F5, t, (o, z, z, z))
    rep = decide_length_one(A)
    assert rep.value is False
    assert "gloss-definition-divergence" in rep.flags
    assert rep.certificate.condition == "pair-coefficient-inconsistent"
    assert rep.certificate.left == (0, 1, 0, 0)
    assert rep.certificate.right == (0, 0, 1, 1)
    assert verify_violation(A, rep.certificate)
    assert oracle_length_one(A).is_length_one is False


def test_heredity_on_generated_algebras():
    rng = random.Random(5)
    for seed in range(3):
        A = generate_length_one(F5, 5, seed, "special", hide=True)
        for _ in range(5):
            vectors = [random_vector(F5, 5, rng) for _ in range(2)]
            S, _rows = subalgebra_generated_by(A, vectors)
            assert decide_length_one(S).value is True


def test_oracle_budget_counts_each_phase():
    # F3 dim 4: the sweep checks 13^2 = 169 pairs of projective lines
    Y = generate_length_one(F3, 4, 0, "special", hide=True)
    assert oracle_length_one(Y, budget=169).pairs_checked == 169
    with pytest.raises(BudgetExceeded):
        oracle_length_one(Y, budget=168)
    # GF4 dim 6: 341^2 = 116,281 sweep pairs and the 4^6 raw vectors of
    # the witness re-scan both fit the default budget of 10^7
    GF4 = make_field("GF4")
    A = generate_length_one(GF4, 6, 0, "type-i")
    table = [[list(cell) for cell in row] for row in A.table]
    table[1][2][2] = GF4.add(table[1][2][2], GF4.one)
    from lenalg import algebra
    M = algebra(GF4, table, A.one)
    res = oracle_length_one(M, witness=False)
    assert res.is_length_one is False
    assert res.pairs_checked <= 341 ** 2
    assert decide_length_one(M).value is False
    w = oracle_length_one(M).witness
    assert w.condition == "oracle-pair" and verify_violation(M, w)
    # remark-literal over F5: the 6^2 = 36 sweep pairs fit a budget of 100,
    # the 5^3 raw vectors of the witness re-scan do not
    L5 = make_fixture("remark-literal", field=F5)
    assert oracle_length_one(L5, budget=100, witness=False).pairs_checked <= 36
    with pytest.raises(BudgetExceeded, match=r"re-scan of 5\^3 raw vectors"):
        oracle_length_one(L5, budget=100)
    # over Q the sweep is |T|^2 = 16 pairs of the dim-3 basis lines
    R = make_fixture("remark-repaired")
    with pytest.raises(BudgetExceeded, match="16 pair checks"):
        oracle_length_one(R, budget=15)
    assert oracle_length_one(R, budget=16).pairs_checked == 16


def test_an_identity_coordinate_divisible_by_p_is_zero():
    # an F_p coordinate is its residue: (6, 5) is the identity (1, 0) of F5,
    # and (6, 5, 10) that of the remark tables; the identity's pivot is the
    # last coordinate nonzero in the field, so every engine runs on them
    tables = [((6, 5), [[(1, 0), (0, 1)], [(0, 1), (2, 3)]])]
    for name in ("remark-repaired", "remark-literal"):
        tables.append(((6, 5, 10), make_fixture(name, field=F5).table))
    for one, table in tables:
        A, R = algebra(F5, table, one), algebra(F5, table, unit_vec(F5, len(one), 0))
        rep, ref = decide_length_one(A), decide_length_one(R)
        assert rep.value == ref.value and rep.path == ref.path
        assert verify_certificate(A, rep.certificate)
        got, want = oracle_length_one(A), oracle_length_one(R)
        assert (got.is_length_one, got.pairs_checked) == (
            want.is_length_one, want.pairs_checked)
        assert got.witness is None or verify_violation(A, got.witness)
        assert length_of_algebra(A).length == length_of_algebra(R).length


@pytest.mark.parametrize("p", [5, 7])
def test_a_vector_divisible_by_p_is_in_every_span(p):
    # an unreduced zero that no row reduces is read by its residue: (p, 0, 0)
    # is the zero vector of F_p^3, inside every span, the empty one too
    F, e1 = make_field(f"F{p}"), (0, 1, 0)
    assert in_span(F, (p, 0, 0), [e1]) and in_span(F, (p, 0, 0), [])
    assert span(F, [e1]).contains((p, 0, 0))
    assert span(F, [e1]).coords((-p, p + 3, 2 * p)) == [p + 3]
    assert in_span(F, (p, p + 1, 0), [e1]) and not in_span(F, (p + 1, 0, 0), [e1])
    assert not span(F, [e1]).contains((p, 0, 1))


def test_an_identity_coordinate_divisible_by_p_is_never_a_pivot():
    # remark-literal over F5 with e_0 and e_1 swapped has the identity e_1;
    # as (5, 1, 0) its coordinate 0 is an unreduced zero that no row reduces
    # before the echelon routine reads it, ahead of the pivot 1
    T = make_fixture("remark-literal", field=F5).table
    swap = (1, 0, 2)
    table = [[tuple(T[swap[i]][swap[j]][k] for k in swap) for j in range(3)]
             for i in range(3)]
    A, R = algebra(F5, table, (5, 1, 0)), algebra(F5, table, (0, 1, 0))
    rep, ref = decide_length_one(A), decide_length_one(R)
    assert rep.value is False and (rep.value, rep.path) == (ref.value, ref.path)
    assert verify_violation(A, rep.certificate)
    for witness in (True, False):
        got = oracle_length_one(A, witness=witness)
        want = oracle_length_one(R, witness=witness)
        assert (got.is_length_one, got.pairs_checked, got.witness) == (
            want.is_length_one, want.pairs_checked, want.witness)
    for B in (A, R):
        assert length_of_set(B, [(5, 0, 1)]) == length_of_set(R, [(0, 0, 1)])


@pytest.mark.parametrize("name, mode", [("F5", "special"), ("F3", "special"),
                                        ("F2", "type-i"), ("F2", "type-ii")])
def test_an_unreduced_cell_of_an_identity_first_table_is_its_residue(name, mode):
    # the basis the decider completes from 1 = e_0 is the identity change,
    # whose cells are still products, so a payload p reads as zero
    F = make_field(name)
    R = generate_length_one(F, 4, 0, mode)
    table = [[list(cell) for cell in row] for row in R.table]
    table[1][2][3] += F.characteristic()
    A = algebra(F, table, R.one)
    rep, ref = decide_length_one(A), decide_length_one(R)
    assert (rep.value, rep.path) == (ref.value, ref.path)
    assert verify_certificate(A, rep.certificate)
    assert change_basis(A, identity_matrix(F, 4)).table == R.table
