"""Word spans, set lengths, exact algebra lengths by enumeration."""

import random
from fractions import Fraction

import pytest

from lenalg import (
    Algebra,
    algebra,
    change_basis,
    complete_to_basis_with_one,
    decide_length_one,
    generate_length_one,
    gaussian_binomial,
    length_of_algebra,
    length_of_set,
    make_direct_sum_of_fields,
    make_field,
    make_matrix_algebra,
    span,
    unital_hull,
    word_spans,
)
from lenalg import fields, linalg
from lenalg.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InfiniteFieldUnsupported,
    LenalgError,
    ModeCharacteristicMismatch,
)
from lenalg.generate import MODES
from lenalg.length import count_subspaces, enumerate_subspaces, resolve_budget
from lenalg.linalg import unit_vec

from tests.corpus import (
    identities_short_of_the_end,
    mutate_one_constant,
    random_table,
    random_unital_algebra,
    random_vector,
    reference_length,
    reference_word_spans,
    sparse_f2_hull,
    subalgebra_generated_by,
    vec_mat,
    with_identity,
)

Q = make_field("Q")
F2 = make_field("F2")
F3 = make_field("F3")


def qv(*xs):
    return tuple(Fraction(x) for x in xs)


def test_word_spans_matrix_units():
    M2 = make_matrix_algebra(Q, 2)
    seq = word_spans(M2, [M2.basis_vector(1), M2.basis_vector(2)])
    assert seq.dims == [1, 3, 4]


def test_word_spans_empty_set():
    M2 = make_matrix_algebra(Q, 2)
    seq = word_spans(M2, [])
    assert seq.dims[0] == 1 and seq.closure.dim == 1
    res = length_of_set(M2, [])
    assert res.length == 0 and not res.generates


def test_word_spans_full_basis():
    M2 = make_matrix_algebra(Q, 2)
    res = length_of_set(M2, [M2.basis_vector(i) for i in range(4)])
    assert res.length == 1 and res.generates


def test_length_of_set_matrix_units():
    M2 = make_matrix_algebra(Q, 2)
    res = length_of_set(M2, [M2.basis_vector(1), M2.basis_vector(2)])
    assert res.length == 2 and res.generates


def test_single_generator_dim2():
    # A = Q[t]/(t^2 - t): alg(t) is everything, one word suffices
    t = [[qv(1, 0), qv(0, 1)], [qv(0, 1), qv(0, 1)]]
    A = algebra(Q, t, qv(1, 0))
    res = length_of_set(A, [A.basis_vector(1)])
    assert res.length == 1 and res.generates


def test_scalar_line_has_length_zero():
    A1 = make_matrix_algebra(Q, 1)
    res = length_of_set(A1, [A1.one])
    assert res.length == 0
    # the quotient A/F*1 is zero: one subspace, lifted to the identity alone,
    # and it is charged against the budget like any other
    for field in (F2, F3, make_field("GF4")):
        A = make_matrix_algebra(field, 1)
        r = length_of_algebra(A, budget=1)
        assert (r.length, r.witness_rows, r.subspaces_examined) == (0, (A.one,), 1)
        with pytest.raises(BudgetExceeded, match="^1 subspaces to enumerate exceeds"):
            length_of_algebra(A, budget=0)


def test_length_of_algebra_direct_sums():
    assert length_of_algebra(make_direct_sum_of_fields(F2, 2)).length == 1
    assert length_of_algebra(make_direct_sum_of_fields(F3, 3)).length == 2


def test_length_of_algebra_matrix_f2():
    res = length_of_algebra(make_matrix_algebra(F2, 2))
    assert res.length == 2
    # cross-check: the matrix-unit pair already needs two steps
    M2 = make_matrix_algebra(F2, 2)
    assert length_of_set(M2, [M2.basis_vector(1), M2.basis_vector(2)]).length == 2


def test_length_of_algebra_needs_finite_field():
    with pytest.raises(InfiniteFieldUnsupported):
        length_of_algebra(make_matrix_algebra(Q, 2))


def test_budget_exceeded():
    A = random_unital_algebra(F2, 5, seed=0)
    with pytest.raises(BudgetExceeded):
        length_of_algebra(A, budget=10)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("LENALG_BUDGET", "123")
    assert resolve_budget() == 123
    monkeypatch.delenv("LENALG_BUDGET")
    assert resolve_budget() == 10 ** 7
    assert resolve_budget(55) == 55


@pytest.mark.parametrize("env", ["abc", "-5", "1.5", "1e3"])
def test_budget_env_must_be_a_non_negative_integer(monkeypatch, env):
    monkeypatch.setenv("LENALG_BUDGET", env)
    with pytest.raises(LenalgError, match=f"^LENALG_BUDGET must be a non-negative "
                                          f"integer, got '{env}'$"):
        resolve_budget()
    assert resolve_budget(55) == 55  # an explicit budget does not read it
    monkeypatch.setenv("LENALG_BUDGET", "0")
    assert resolve_budget() == 0


def test_monotone_dims_and_closure_random():
    for seed in range(8):
        A = random_unital_algebra(F3, 4, seed=seed)
        rng = random.Random(seed)
        S = [random_vector(F3, 4, rng) for _ in range(2)]
        seq = word_spans(A, S)
        dims = seq.dims
        assert all(a <= b for a, b in zip(dims, dims[1:]))
        closure = seq.closure
        for u in closure.rows:
            for v in closure.rows:
                assert closure.contains(A.mul(u, v))


def test_length_depends_only_on_span():
    from lenalg.linalg import vec_add, vec_scale
    rng = random.Random(42)
    for seed in range(6):
        A = random_unital_algebra(F3, 4, seed=100 + seed)
        S = [random_vector(F3, 4, rng) for _ in range(2)]
        # recombinations spanning the same subspace together with 1:
        # S0 = (2 S0 + S1) - (S0 + S1) and S1 recovers modulo the identity
        s_prime = [
            vec_add(F3, vec_scale(F3, 2, S[0]), S[1]),
            vec_add(F3, S[1], vec_scale(F3, rng.randrange(3), A.one)),
            vec_add(F3, S[0], S[1]),
        ]
        assert span(F3, [A.one] + S) == span(F3, [A.one] + s_prime)
        assert length_of_set(A, S).length == length_of_set(A, s_prime).length


def test_termination_bound_on_random_corpus():
    # reported lengths never exceed 2^(dim - 2) for dim > 2
    for dim, field in ((3, F2), (4, F2), (3, F3)):
        for seed in range(5):
            A = random_unital_algebra(field, dim, seed=seed)
            res = length_of_algebra(A)
            assert res.length <= 2 ** (dim - 2)


def test_subspace_enumeration_counts():
    assert gaussian_binomial(4, 2, 2) == 35
    assert count_subspaces(4, 2) == 67
    listed = list(enumerate_subspaces(F2, 4))
    assert len(listed) == 67
    assert len(set(listed)) == 67
    listed3 = list(enumerate_subspaces(F3, 3))
    assert len(listed3) == count_subspaces(3, 3) == 28


def test_subalgebra_generated_by():
    M2 = make_matrix_algebra(Q, 2)
    S, rows = subalgebra_generated_by(M2, [M2.basis_vector(1)])
    assert S.dim == 2  # span{1, E12}
    # induced subalgebra keeps the identity and closes multiplicatively
    assert S.mul(S.one, S.basis_vector(1)) == S.basis_vector(1)


def _counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper; the returned list grows by one per call."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _coded_products(monkeypatch, A):
    """Wrap the product of A's coded rows (`fields.Kernel.rows`), which
    `word_spans` multiplies with; the returned list grows by one per call."""
    encode, mul, extend, decode = A._kernel.rows
    calls = []

    def counted(u, v):
        calls.append(None)
        return mul(u, v)

    monkeypatch.setitem(vars(A._kernel), "rows", (encode, counted, extend, decode))
    return calls


def _assert_matches_reference(monkeypatch, muls, A, S):
    """word_spans(A, S) against the reference; `muls` counts A.mul calls,
    which the reference makes, and word_spans' products are counted on
    A's coded rows.

    Returns the sequence and the number of products word_spans made: at
    most (n - 1)^2, since each level multiplies only new rows, and never
    more than the reference, which multiplies every row of L_p and L_q.
    """
    del muls[:]
    spans, stabilized_at = reference_word_spans(A, S)
    reference_muls = len(muls)
    coded = _coded_products(monkeypatch, A)
    seq = word_spans(A, S)
    products = len(coded)
    assert products <= (A.dim - 1) ** 2
    assert products <= reference_muls
    dims = [s.dim for s in spans]
    assert seq.dims == dims
    assert seq.stabilized_at == stabilized_at
    assert seq.length == dims.index(dims[-1])
    assert seq.generates == (dims[-1] == A.dim)
    assert length_of_set(A, S) == seq
    closure = spans[-1]
    assert seq.closure == closure
    sub, rows = subalgebra_generated_by(A, S)
    assert rows == closure.rows
    assert sub.table == tuple(tuple(tuple(closure.coords(A.mul(u, v))) for v in rows)
                              for u in rows)
    assert sub.one == tuple(closure.coords(A.one))
    return seq, products


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
@pytest.mark.parametrize("name", ["F2", "F3", "GF4", "F5", "Q"])
def test_word_spans_match_the_reference(monkeypatch, name, dim):
    field = make_field(name)
    muls = _counted(monkeypatch, Algebra, "mul")
    for seed in range(4):
        rng = random.Random(f"spans|{name}|{dim}|{seed}")
        A = unital_hull(field, random_table(field, dim - 1, rng))
        S = [random_vector(field, dim, rng) for _ in range(seed % 3)]
        S += [A.basis_vector(rng.randrange(dim))]
        _assert_matches_reference(monkeypatch, muls, A, S)


def test_word_spans_plateau_then_growth(monkeypatch):
    # L_2 = L_3, yet L_4 adds L_2 * L_2: why the stop rule waits for a
    # window [m, 2m] of equal dims (a seeded search over sparse F2 hulls)
    A = sparse_f2_hull(4, 23)
    muls = _counted(monkeypatch, Algebra, "mul")
    seq, products = _assert_matches_reference(monkeypatch, muls, A,
                                              [A.basis_vector(4)])
    assert seq.dims == [1, 2, 3, 3, 4, 4, 4, 4, 4]
    assert seq.stabilized_at == 4
    assert products == 9   # 264 when every level multiplied all rows


def _truncated_polynomials(field, n):
    """F[x]/(x^n) on the basis 1, x, ..., x^(n-1)."""
    zero = tuple([field.zero] * n)
    table = [[unit_vec(field, n, i + j) if i + j < n else zero
              for j in range(n)] for i in range(n)]
    return algebra(field, table, unit_vec(field, n, 0))


@pytest.mark.parametrize("name, n, expected", [("F2", 7, 15), ("F3", 5, 6)])
def test_word_spans_multiply_only_new_rows(monkeypatch, name, n, expected):
    # x generates L_p = span{1, ..., x^p}: each level adds one row, and
    # level i + 1 makes the i products x^p * x^(i+1-p), (n - 1)(n - 2)/2
    # in all (155 and 41 when every level multiplied all rows)
    A = _truncated_polynomials(make_field(name), n)
    muls = _counted(monkeypatch, Algebra, "mul")
    seq, products = _assert_matches_reference(monkeypatch, muls, A,
                                              [A.basis_vector(1)])
    assert seq.dims == list(range(1, n + 1))
    assert products == expected == (n - 1) * (n - 2) // 2


def test_word_spans_build_no_subspace_until_the_closure_is_read(monkeypatch):
    rrefs = _counted(monkeypatch, linalg, "rref")
    M2 = make_matrix_algebra(Q, 2)
    seq = word_spans(M2, [M2.basis_vector(1), M2.basis_vector(2)])
    assert rrefs == []
    assert seq.closure.dim == 4 and len(rrefs) == 1


def test_f2_word_spans_decode_their_rows_only_when_read(monkeypatch):
    # the bitmask rows are decoded once per read of `rows` or `closure`, to
    # the rows of the default, uncoded form, and never while
    # `length_of_algebra` enumerates
    A = random_unital_algebra(F2, 5, seed=0)
    S = [A.basis_vector(1), A.basis_vector(3)]
    encode, mul, extend, decode = A._kernel.rows
    monkeypatch.setitem(vars(A._kernel), "rows", fields.Kernel(F2, A.table).rows)
    want = [(pivot, tuple(row)) for pivot, row in word_spans(A, S).rows]
    decodes = []

    def counted(rows):
        decodes.append(None)
        return decode(rows)

    monkeypatch.setitem(vars(A._kernel), "rows", (encode, mul, extend, counted))
    assert length_of_algebra(A).subspaces_examined == 67 and decodes == []
    seq = word_spans(A, S)
    assert decodes == []
    assert [(pivot, tuple(row)) for pivot, row in seq.rows] == want
    assert len(decodes) == 1
    assert seq.closure == span(F2, [row for _, row in want])
    assert len(decodes) == 2


def test_length_of_algebra_rref_calls_do_not_grow_with_subspaces(monkeypatch):
    rrefs = _counted(monkeypatch, linalg, "rref")
    calls = {}
    for A in (make_direct_sum_of_fields(F3, 3), make_matrix_algebra(F2, 2),
              random_unital_algebra(F2, 5, seed=0)):
        del rrefs[:]
        examined = length_of_algebra(A).subspaces_examined
        calls[examined] = len(rrefs)
    assert sorted(calls) == [6, 16, 67]
    assert len(set(calls.values())) == 1


@pytest.mark.parametrize("v", [qv(1, 0, 0), qv(1, 0, 0, 0, 0),
                               pytest.param((1, 0, 0), id="F2-v0"),
                               pytest.param((1, 0, 0, 0, 0), id="F2-v1")])
def test_word_spans_refuse_a_vector_of_the_wrong_length(v):
    # over F2 the length is checked before a vector becomes a bitmask row,
    # which would take an int vector of any length
    M2 = make_matrix_algebra(Q if isinstance(v[0], Fraction) else F2, 2)
    with pytest.raises(DimensionMismatch):
        word_spans(M2, [M2.basis_vector(1), v])


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_f2_word_spans_read_payloads_3_and_minus_1_as_1(dim):
    rng = random.Random(f"unreduced|{dim}")
    for seed in range(4):
        A = random_unital_algebra(F2, dim, seed)
        S = [random_vector(F2, dim, rng) for _ in range(1 + seed % 2)]
        want = word_spans(A, S)
        for odd in (3, -1):
            got = word_spans(A, [tuple(odd if c else c for c in v) for v in S])
            assert (got.dims, got.stabilized_at, got.closure) == (
                want.dims, want.stabilized_at, want.closure)


def _length_corpus(field, dim):
    """Each mode's table hidden, the unhidden table with c[1][n-1][n-1]
    bumped by one, and three random unital tables."""
    for mode in MODES:
        try:
            A = generate_length_one(field, dim, seed=0, mode=mode)
        except ModeCharacteristicMismatch:
            continue
        yield generate_length_one(field, dim, seed=0, mode=mode, hide=True)
        yield mutate_one_constant(A, 1, dim - 1, dim - 1)
    for seed in range(3):
        yield random_unital_algebra(field, dim, seed)


@pytest.mark.parametrize("name", ["F2", "F3", "GF4"])
def test_length_one_exactly_when_the_decider_says_yes(name):
    # the paper's definition end to end: l(A) = 1 by enumerating every
    # generating subspace, against the decider's certified verdict
    field = make_field(name)
    verdicts = []
    for dim in (2, 3, 4, 5):
        for A in _length_corpus(field, dim):
            verdict = decide_length_one(A).value
            assert (length_of_algebra(A).length == 1) == verdict, (dim, A.table)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_f2_length_matches_the_reference(dim):
    # F2 word spans run on bitmask rows, the reference on canonical
    # Subspaces of field payloads; the corpus adds F2[x]/(x^dim) and M_2(F2)
    corpus = list(_length_corpus(F2, dim)) + [_truncated_polynomials(F2, dim)]
    if dim == 4:
        corpus.append(make_matrix_algebra(F2, 2))
    lengths = []
    for A in corpus:
        res = length_of_algebra(A)
        assert (res.length, res.witness_rows, res.subspaces_examined) == (
            reference_length(A)), A.table
        lengths.append(res.length)
    assert 1 in lengths and max(lengths) >= 2


@pytest.mark.parametrize("name, dim", [("GF4", 3), ("GF4", 4), ("GF4", 5), ("GF8", 3)])
def test_char2_length_matches_the_reference(name, dim):
    # GF(2^k) word spans run on bitmask rows of k bits per coordinate, the
    # reference on canonical Subspaces of field payloads; M_2(GF4) has
    # length 2, over the 44 subspaces of its quotient
    field = make_field(name)
    corpus = list(_length_corpus(field, dim))
    if dim == 4:
        M2 = make_matrix_algebra(field, 2)
        res = length_of_algebra(M2)
        assert (res.length, res.subspaces_examined) == (2, 44)
        corpus.append(M2)
    lengths = []
    for A in corpus:
        assert isinstance(A._kernel, fields._Char2Kernel)
        res = length_of_algebra(A)
        assert (res.length, res.witness_rows, res.subspaces_examined) == (
            reference_length(A)), A.table
        lengths.append(res.length)
    assert 1 in lengths and max(lengths) >= 2


def test_f2_length_at_dim_7_matches_the_reference():
    A = random_unital_algebra(F2, 7, seed=1)
    res = length_of_algebra(A)
    assert res.length >= 2
    assert (res.length, res.witness_rows, res.subspaces_examined) == (
        reference_length(A))


def _identity_first_length(A):
    """(l(A), witness rows) by the same enumeration run on the identity-first
    copy change_basis(A, complete_to_basis_with_one(A)), mapped back."""
    change = complete_to_basis_with_one(A)
    B = change_basis(A, change)
    best, best_rows = -1, None
    for rows in enumerate_subspaces(A.field, A.dim - 1):
        lifted = [B.one] + [(A.field.zero,) + r for r in rows]
        res = length_of_set(B, lifted)
        if res.generates and res.length > best:
            best, best_rows = res.length, tuple(vec_mat(A.field, v, change.matrix)
                                                for v in lifted)
    return best, best_rows


@pytest.mark.parametrize("name, dims", [
    ("F3", (2, 3, 4)), ("F5", (2, 3)), ("GF4", (2, 3, 4)), ("GF9", (2, 3)),
])
def test_length_of_algebra_matches_an_identity_first_reference(
        monkeypatch, name, dims):
    # the corpus rewritten so that 1 has its pivot L at every position, with
    # 1_L != 1; the enumeration runs on A itself and builds no kernel
    field = make_field(name)
    rng = random.Random(f"identity-pivot|{name}")
    for dim in dims:
        for T in _length_corpus(field, dim):
            H = change_basis(T, complete_to_basis_with_one(T))
            for last, one in enumerate(identities_short_of_the_end(field, dim, rng)):
                A = with_identity(H, one, rng)
                assert A.identity_row[0] == last
                A.mul(A.one, A.one)  # A's own kernel, built once per algebra
                kernels = _counted(monkeypatch, type(field), "bilinear")
                res = length_of_algebra(A)
                assert kernels == []
                monkeypatch.undo()
                assert (res.length, res.witness_rows) == _identity_first_length(A)
