"""Identity checkers and the special-basis parameter criteria."""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from lenalg import (
    algebra,
    associative_law_holds,
    change_basis,
    generate_length_one,
    flexible_law_holds,
    is_associative,
    is_commutative,
    is_flexible,
    is_jordan,
    is_power_associative_upto,
    jordan_law_holds,
    make_bilinear_jordan,
    make_field,
    make_fixture,
    make_matrix_algebra,
    render_document,
    special_table_from_params,
    unital_hull,
)
from lenalg import decide, identities
from lenalg.cli import main
from lenalg.decide import _quotient_lines
from lenalg.errors import BudgetExceeded, CharacteristicTwo, ModeCharacteristicMismatch
from lenalg.generate import MODES
from lenalg.identities import _chart_grid, _first_ambiguity
from lenalg.linalg import random_invertible, rref, unit_vec, vec_add, vec_is_zero, vec_sub

from tests.corpus import (
    mutate_one_constant,
    nilpotent_commutative_hull,
    random_scalar,
    random_unital_algebra,
    random_vector,
    reference_ambiguity,
    reference_power_associative,
    symmetrized,
)

Q = make_field("Q")
F3 = make_field("F3")
F5 = make_field("F5")


def test_matrix_algebra_is_associative_and_flexible():
    M2 = make_matrix_algebra(Q, 2)
    assert is_associative(M2).holds
    assert is_flexible(M2).holds
    assert not is_commutative(M2).holds


def test_commutative_tables_are_flexible():
    rng = random.Random(0)
    gram = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(i):
            gram[i][j] = gram[j][i]
    A = make_bilinear_jordan(Q, gram)
    assert is_commutative(A).holds
    assert is_flexible(A).holds


def test_repaired_remark_not_associative_with_counterexample():
    A = make_fixture("remark-repaired")
    verdict = is_associative(A)
    assert not verdict.holds
    i, j, k = verdict.counterexample["indices"]
    ei, ej, ek = (A.basis_vector(x) for x in (i, j, k))
    defect = vec_sub(Q, A.mul(A.mul(ei, ej), ek), A.mul(ei, A.mul(ej, ek)))
    assert defect == verdict.defect
    assert not vec_is_zero(Q, defect)


def test_jordan_bilinear_form_holds():
    rng = random.Random(4)
    gram = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(i):
            gram[i][j] = gram[j][i]
    A = make_bilinear_jordan(Q, gram)
    assert is_jordan(A).holds


def test_symmetrized_matrix_algebra_is_jordan():
    M2 = make_matrix_algebra(Q, 2)
    assert is_jordan(symmetrized(M2)).holds


def test_non_commutative_fails_jordan_at_commutativity():
    M2 = make_matrix_algebra(Q, 2)
    verdict = is_jordan(M2)
    assert not verdict.holds
    assert verdict.counterexample.get("law") == "commutativity"


def test_jordan_refuses_char2():
    A = make_fixture("dim3-f2-type2")
    with pytest.raises(CharacteristicTwo):
        is_jordan(A)


def test_power_associative_on_associative_table():
    M2 = make_matrix_algebra(F3, 2)
    verdict = _assert_power_sweep(M2, 6)
    assert verdict.holds
    assert verdict.counterexample["tested"] == 13  # the lines of F3^4 / F3*1


def _degree_four_algebra(field):
    # x = e2: x^2 = e3, x^3 = e5 unambiguously, but x^2*x^2 = e4 while
    # (x^3)*x = 0, so degree four is the first ambiguity
    z = field.zero
    n = 5

    def vec(i=None):
        out = [z] * n
        if i is not None:
            out[i] = field.one
        return tuple(out)

    table = [[vec() for _ in range(n)] for _ in range(n)]
    for j in range(n):
        table[0][j] = vec(j)
        table[j][0] = vec(j)
    table[1][1] = vec(2)          # e2 * e2 = e3
    table[1][2] = vec(4)          # e2 * e3 = e5
    table[2][1] = vec(4)          # e3 * e2 = e5
    table[2][2] = vec(3)          # e3 * e3 = e4
    return algebra(field, table, vec(0))


def test_power_associativity_failure_at_degree_four():
    verdict = is_power_associative_upto(_degree_four_algebra(Q), 6)
    assert not verdict.holds
    assert verdict.counterexample["degree"] == 4


def test_power_associative_exhaustive_small_field():
    A = make_fixture("dim3-f2-type2")
    verdict = is_power_associative_upto(A, 6)
    assert verdict.holds
    assert verdict.counterexample["tested"] == 3  # the lines of F2^3 / F2*1


# ---------------------------------------------------------------------------
# parameter criteria vs direct evaluation
# ---------------------------------------------------------------------------

def _random_params(field, m, rng, pattern="free"):
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
        b = draw()
        c = draw()
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


@pytest.mark.parametrize("pattern", ["free", "jordan", "assoc", "flex"])
def test_parameter_criteria_match_identity_checkers(pattern):
    rng = random.Random(pattern)
    for field in (Q, F5):
        for m in (1, 2, 3, 4):
            for _ in range(8):
                mu, beta, alpha = _random_params(field, m, rng, pattern)
                A = special_table_from_params(field, mu, beta, alpha)
                assert flexible_law_holds(field, mu, beta, alpha) == is_flexible(A).holds
                assert associative_law_holds(field, mu, beta, alpha) == is_associative(A).holds
                jordan_param = jordan_law_holds(field, mu, beta, alpha)
                assert jordan_param == is_jordan(A).holds == is_commutative(A).holds


def test_parameter_criteria_edge_cases():
    # all beta zero, alpha symmetric: every flexibility relation collapses
    mu = (Fraction(3), Fraction(-1))
    beta = (Fraction(0), Fraction(0))
    alpha = ((Fraction(0), Fraction(2)), (Fraction(2), Fraction(0)))
    assert flexible_law_holds(Q, mu, beta, alpha)
    assert jordan_law_holds(Q, mu, beta, alpha)
    assert not associative_law_holds(Q, mu, beta, alpha)  # mu != beta^2
    assert not is_associative(special_table_from_params(Q, mu, beta, alpha)).holds
    # asymmetric alpha kills all three
    alpha_bad = ((Fraction(0), Fraction(2)), (Fraction(1), Fraction(0)))
    assert not flexible_law_holds(Q, mu, beta, alpha_bad)
    assert not jordan_law_holds(Q, mu, beta, alpha_bad)
    # at m = 1 beta has no partner: Q[t]/(t^2 - 1) is associative although
    # mu = 1 != 0 = beta^2
    assert associative_law_holds(Q, (Fraction(1),), (Fraction(0),),
                                 ((Fraction(0),),))
    # all-zero data (scalar line plus square-zero directions) is associative
    zero3 = (Fraction(0),) * 3
    alpha0 = tuple((Fraction(0),) * 3 for _ in range(3))
    assert associative_law_holds(Q, zero3, zero3, alpha0)
    A0 = special_table_from_params(Q, zero3, zero3, alpha0)
    assert is_associative(A0).holds


def test_deliberate_flex_violation_detected_both_ways():
    # beta_j mu_i != beta_i alpha_ij on purpose
    mu = (Fraction(1), Fraction(0))
    beta = (Fraction(1), Fraction(1))
    alpha = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    # relation beta_2 mu_1 = beta_1 alpha_12 reads 1*1 = 1*0: broken
    assert not flexible_law_holds(Q, mu, beta, alpha)
    A = special_table_from_params(Q, mu, beta, alpha)
    assert not is_flexible(A).holds


@pytest.mark.parametrize("a23", [1, 0])
def test_flex_triple_condition_detected_both_ways(a23):
    # dim 4: every pair condition holds, but with alpha_23 = alpha_32 = 1 the
    # triple beta_1 alpha_23 + beta_2 alpha_13 = 2 beta_3 alpha_21 reads 1 = 0
    mu = (Fraction(5), Fraction(0), Fraction(0))
    beta = (Fraction(1), Fraction(0), Fraction(0))
    alpha = tuple(tuple(Fraction(a23 if {i, j} == {1, 2} else 0) for j in range(3))
                  for i in range(3))
    verdict = is_flexible(special_table_from_params(Q, mu, beta, alpha))
    assert flexible_law_holds(Q, mu, beta, alpha) == verdict.holds == (a23 == 0)
    if a23:
        assert verdict.counterexample == {"kind": "linearized-triple",
                                          "indices": [1, 3, 2]}


def test_checkers_agree_with_direct_evaluation():
    rng = random.Random(77)
    fields_and_algebras = [
        (Q, make_matrix_algebra(Q, 2)),
        (Q, symmetrized(make_matrix_algebra(Q, 2))),
        (F5, special_table_from_params(*(
            (F5,) + _random_params(F5, 3, rng, "jordan")))),
    ]
    for field, A in fields_and_algebras:
        n = A.dim
        assoc = is_associative(A).holds
        flex = is_flexible(A).holds
        for _ in range(60):
            x = random_vector(field, n, rng)
            y = random_vector(field, n, rng)
            z = random_vector(field, n, rng)
            if assoc:
                assert A.mul(A.mul(x, y), z) == A.mul(x, A.mul(y, z))
            if flex:
                assert A.mul(x, A.mul(y, x)) == A.mul(A.mul(x, y), x)
            if field.characteristic() != 2 and is_jordan(A).holds:
                x2 = A.mul(x, x)
                assert A.mul(x2, A.mul(y, x)) == A.mul(A.mul(x2, y), x)


# ---------------------------------------------------------------------------
# every counterexample kind, re-evaluated from the counterexample alone
# ---------------------------------------------------------------------------

def _flexible_only_in_triples():
    # beta = (1, 0, 0), alpha_23 = 1: every pair relation holds, the triple
    # relation beta_1 alpha_23 + beta_2 alpha_13 = 2 beta_3 alpha_21 fails
    return special_table_from_params(
        F5, (0, 0, 0), (1, 0, 0), ((0, 0, 0), (0, 0, 1), (0, 1, 0)))


def _jordan_fails_at_a_single():
    # hull of a^2 = b, ab = ba = a, b^2 = 0: commutative, and
    # a^2 (a a) = b b = 0 while (a^2 a) a = a a = b
    return unital_hull(F5, [[(0, 1), (1, 0)], [(1, 0), (0, 0)]])


def _reevaluate(A, name, ce):
    """The defect that `ce` of the checker `name` names, computed from the
    counterexample alone."""
    field, mul, e = A.field, A.mul, A.basis_vector
    add = lambda *vs: functools.reduce(lambda u, v: vec_add(field, u, v), vs)
    sub = lambda u, v: vec_sub(field, u, v)

    def jordan(x, y):
        x2 = mul(x, x)
        return sub(mul(x2, mul(y, x)), mul(mul(x2, y), x))

    kind, idx = ce["kind"], ce.get("indices")
    if kind == "pair" and name == "flexible":
        x, y = map(e, idx)
        return sub(mul(x, mul(y, x)), mul(mul(x, y), x))
    if kind == "pair":  # commutative, or the Jordan law's commutativity part
        x, y = map(e, idx)
        return sub(mul(x, y), mul(y, x))
    if kind == "triple":
        x, y, z = map(e, idx)
        return sub(mul(mul(x, y), z), mul(x, mul(y, z)))
    if kind == "linearized-triple":
        x, y, z = map(e, idx)
        return sub(add(mul(x, mul(y, z)), mul(z, mul(y, x))),
                   add(mul(mul(x, y), z), mul(mul(z, y), x)))
    if kind == "single":
        x, y = map(e, idx)
        return jordan(x, y)
    if kind == "mixed-pair":
        x, z, y = map(e, idx)
        plus = jordan(add(x, z), y)
        return plus if not vec_is_zero(field, plus) else jordan(sub(x, z), y)
    if kind == "mixed-triple":
        x, z, w, y = map(e, idx)
        plus = add(jordan(add(x, z, w), y), jordan(x, y), jordan(z, y), jordan(w, y))
        minus = add(jordan(add(x, z), y), jordan(add(x, w), y), jordan(add(z, w), y))
        return sub(plus, minus)
    raise AssertionError(f"unknown counterexample kind {kind!r}")


REPAIRED = lambda: make_fixture("remark-repaired")


@pytest.mark.parametrize("make, check, counterexample", [
    (REPAIRED, is_commutative, {"kind": "pair", "indices": [1, 2]}),
    (REPAIRED, is_associative, {"kind": "triple", "indices": [1, 1, 2]}),
    (REPAIRED, is_flexible, {"kind": "pair", "indices": [1, 2]}),
    (_flexible_only_in_triples, is_flexible,
     {"kind": "linearized-triple", "indices": [1, 3, 2]}),
    (REPAIRED, is_jordan,
     {"kind": "pair", "indices": [1, 2], "law": "commutativity"}),
    (_jordan_fails_at_a_single, is_jordan, {"kind": "single", "indices": [1, 1]}),
    (lambda: nilpotent_commutative_hull(F5, 6, 0), is_jordan,
     {"kind": "mixed-pair", "indices": [1, 3, 1]}),
    (lambda: nilpotent_commutative_hull(F5, 6, 227), is_jordan,
     {"kind": "mixed-pair", "indices": [2, 3, 1]}),
    (lambda: nilpotent_commutative_hull(F5, 6, 32), is_jordan,
     {"kind": "mixed-triple", "indices": [1, 2, 3, 1]}),
], ids=["commutative-pair", "associative-triple", "flexible-pair",
        "flexible-linearized-triple", "jordan-commutativity", "jordan-single",
        "jordan-mixed-pair", "jordan-mixed-pair-minus", "jordan-mixed-triple"])
def test_every_counterexample_kind_re_evaluates(make, check, counterexample):
    A = make()
    verdict = check(A)
    assert not verdict.holds
    assert verdict.counterexample == counterexample
    assert verdict.defect == _reevaluate(A, verdict.name, verdict.counterexample)
    assert not vec_is_zero(A.field, verdict.defect)


def test_mixed_pair_reports_the_minus_defect_when_plus_vanishes():
    A = nilpotent_commutative_hull(F5, 6, 227)
    i, k, j = is_jordan(A).counterexample["indices"]
    x = vec_add(F5, A.basis_vector(i), A.basis_vector(k))
    y = A.basis_vector(j)
    x2 = A.mul(x, x)
    assert A.mul(x2, A.mul(y, x)) == A.mul(A.mul(x2, y), x)


@pytest.mark.parametrize("field, x", [(Q, None), (F3, (0, 1, 0, 0, 0))])
def test_power_counterexample_re_evaluates(field, x):
    A = _degree_four_algebra(field)
    verdict = is_power_associative_upto(A, 6)
    ce = verdict.counterexample
    assert (ce["kind"], ce["degree"]) == ("power", 4)
    if x is not None:  # the first x of the line sweep, in payload order
        assert ce["x"] == x
    powers = {1: {ce["x"]}}
    for k in range(2, ce["degree"] + 1):
        powers[k] = {A.mul(u, v) for p in range(1, k)
                     for u in powers[p] for v in powers[k - p]}
    assert all(len(powers[k]) == 1 for k in range(2, ce["degree"]))
    assert ce["values"] == sorted(powers[ce["degree"]])[:2]
    assert verdict.defect == vec_sub(field, *ce["values"])
    assert not vec_is_zero(field, verdict.defect)


def test_power_scope_of_a_grid_sweep():
    verdict = is_power_associative_upto(make_matrix_algebra(Q, 2), 6)
    assert verdict.holds
    assert verdict.counterexample == {"kind": "scope", "tested": 28, "max_degree": 6}
    # the degree-four algebra fails at the first grid point, e2
    ce = is_power_associative_upto(_degree_four_algebra(Q), 6).counterexample
    assert ce["x"] == (0, 1, 0, 0, 0)


# ---------------------------------------------------------------------------
# power-associativity: one test per class x ~ c x + d 1, on the lines of
# A/F*1 or on the chart grid, and by certificate
# ---------------------------------------------------------------------------

def _assert_power_sweep(A, d, holds=None):
    """The sweep's verdict, which must be the reference's (every raw x over
    F_q, the affine lower-set grid over Q), passed in as `holds` when the
    caller has it.  The sweep tests the lines of A/F*1 when q <= d and the
    chart grid otherwise, in that order, so `tested` counts them and a
    failing x is the first whose powers, computed anew, turn ambiguous."""
    verdict = is_power_associative_upto(A, d)
    if holds is None:
        holds = reference_power_associative(A, d)
    assert verdict.holds == holds
    q = A.field.order()
    points = _quotient_lines(A) if q is not None and q <= d else list(_chart_grid(A, d))
    for x in points:
        found = reference_ambiguity(A, x, d)
        if found is not None:
            k, two = found
            assert verdict.counterexample == {"kind": "power", "x": x, "degree": k,
                                              "values": two}
            assert verdict.defect == vec_sub(A.field, *two)
            return verdict
    assert verdict.counterexample == {"kind": "scope", "tested": len(points),
                                      "max_degree": d}
    return verdict


def _late_power_failure(field, g=0):
    """Basis g, g^2, g^3, g^4, 1, rotated so that g sits at coordinate g,
    with g^2 g^2 = g^4 but g^3 g = 0: x^4 is ambiguous once x has a
    g-coordinate, and every x without one lies in a power-associative
    subalgebra.  At g = 0 a sweep over every x first fails at
    (c, 0, 0, 0, 0), c the first nonzero scalar, past q^4 of its q^5
    vectors, and the line sweep and the chart grid at their first point,
    (1, 0, 0, 0, 0)."""
    n, zero = 5, (field.zero,) * 5
    e = [unit_vec(field, n, (i + g) % n) for i in range(n)]
    table = [[zero] * n for _ in range(n)]

    def put(i, j, k):
        table[(i + g) % n][(j + g) % n] = e[k]

    for i in range(n):
        put(i, 4, i)
        put(4, i, i)
    put(0, 0, 1)
    put(0, 1, 2)
    put(1, 0, 2)
    put(1, 1, 3)
    return algebra(field, table, e[4])


def _power_corpus(field, dims):
    """Random unital tables, one-constant mutations of every generator
    mode's yes-table (bumped before hiding, so 1 stays the identity), the
    yes-tables themselves, nilpotent commutative hulls and M_2."""
    for dim in dims:
        for seed in range(3):
            yield random_unital_algebra(field, dim, seed)
        for mode in MODES:
            try:
                A = generate_length_one(field, dim, seed=0, mode=mode)
            except ModeCharacteristicMismatch:
                continue
            rng = random.Random(f"power|{mode}|{dim}")
            yield change_basis(A, random_invertible(field, dim, rng))
            for i, j, k in ((1, 2, 0), (2, 1, dim - 1), (1, 1, 2 % dim)):
                yield change_basis(mutate_one_constant(A, i, j, k),
                                   random_invertible(field, dim, rng))
        yield nilpotent_commutative_hull(field, dim - 1, 1)
    yield make_matrix_algebra(field, 2)


_POWER_CASES = [("F2", (3, 4, 6)), ("F3", (3, 4)), ("GF4", (3,)),
                ("F5", (3, 4)), ("F7", (3, 4)), ("GF8", (3,)), ("GF9", (3,)),
                ("Q", (3, 4, 5))]


@pytest.mark.parametrize("name, dims", _POWER_CASES, ids=[c[0] for c in _POWER_CASES])
def test_power_class_sweep_matches_the_reference(name, dims, monkeypatch):
    # d = 4 and 6 take the lines over F2, F3, GF4, the grid over F7, GF8,
    # GF9 and Q, and F5 takes one of each
    field = make_field(name)
    calls = []
    monkeypatch.setattr(identities, "_first_ambiguity",
                        lambda *a: calls.append(1) or _first_ambiguity(*a))
    for A in _power_corpus(field, dims):
        holds = reference_power_associative(A, 6)  # and so at degree 4 too
        for d in (4, 6):
            calls.clear()
            verdict = _assert_power_sweep(A, d, holds if holds or d == 6 else None)
            if verdict.holds:
                assert len(calls) == verdict.counterexample["tested"]
    # x^4 is ambiguous, x^3 is not: the law fails exactly at the top degree
    for g in range(5):
        late = _late_power_failure(field, g)
        assert is_power_associative_upto(late, 3).holds
        assert _assert_power_sweep(late, 4).counterexample["degree"] == 4
    assert is_power_associative_upto(_late_power_failure(field), 6).counterexample[
        "x"] == (field.one,) + (field.zero,) * 4


@pytest.mark.parametrize("name", ["Q", "F7", "F11", "GF8", "GF9"])
def test_chart_grid_is_unisolvent(name):
    # the degree-d monomials in the n - 1 coordinates off L, evaluated on
    # the grid, make a square matrix of full rank C(n-2+d, d)
    field = make_field(name)
    for n in (2, 3, 4, 5):
        A = random_unital_algebra(field, n, 0)
        last = A.identity_row[0]
        for d in (3, 4, 6):
            grid = list(_chart_grid(A, d))
            assert len(grid) == math.comb(n - 2 + d, d)
            assert all(x[last] == field.zero for x in grid)
            monomials = list(itertools.combinations_with_replacement(range(n - 1), d))
            matrix = [[functools.reduce(field.mul, (y[i] for i in m), field.one)
                       for m in monomials]
                      for y in (x[:last] + x[last + 1:] for x in grid)]
            assert len(rref(field, matrix)[0]) == len(monomials)


def test_power_budget_is_charged_before_the_sweep(monkeypatch):
    # a sweep that finds no failure makes d(d-1)/2 products per x: 7 lines
    # of M_2(F2), 28 grid points of M_2(Q), 15 lines of the late failure
    F2 = make_field("F2")
    for A, points in ((make_matrix_algebra(F2, 2), 7), (make_matrix_algebra(Q, 2), 28),
                      (_late_power_failure(F2), 15)):
        assert _assert_power_sweep(A, 6) == is_power_associative_upto(
            A, 6, budget=15 * points)
        monkeypatch.setattr(identities, "_first_ambiguity", None)  # no x is tested
        with pytest.raises(BudgetExceeded, match=f"^{15 * points} power products"):
            is_power_associative_upto(A, 6, budget=15 * points - 1)
        monkeypatch.setenv("LENALG_BUDGET", str(15 * points - 1))
        with pytest.raises(BudgetExceeded):
            is_power_associative_upto(A, 6)
        monkeypatch.undo()


def test_grid_power_sweep_builds_no_class_key(monkeypatch):
    # the class keys are the `_quotient_lines`; only the fields with q <= d
    # list them, and a holds-verdict on the grid tests C(n-2+d, d) points
    keys = []
    lines = identities._quotient_lines
    monkeypatch.setattr(identities, "_quotient_lines",
                        lambda *a: keys.append(1) or lines(*a))
    GF9, F7 = (make_field(name) for name in ("GF9", "F7"))
    gridded = [random_unital_algebra(Q, 4, 0), make_matrix_algebra(Q, 2),
               _late_power_failure(Q), make_matrix_algebra(GF9, 2),
               random_unital_algebra(F7, 5, 0), _late_power_failure(F7)]
    for A in gridded:  # the sweep's verdicts are compared with the reference above
        verdict = is_power_associative_upto(A, 6)
        if verdict.holds:
            assert verdict.counterexample["tested"] == math.comb(A.dim - 2 + 6, 6)
    assert keys == []
    is_power_associative_upto(make_matrix_algebra(make_field("F2"), 2), 6)
    assert keys


def test_power_associativity_by_certificate(tmp_path, monkeypatch, capsys):
    # `identities` answers a certified algebra from its own decision: no x
    # is tested and the certificate is not checked a second time
    path = tmp_path / "doc.json"
    path.write_text(render_document(make_fixture("dim3-f2-type2")))
    monkeypatch.setattr(identities, "_first_ambiguity", None)
    monkeypatch.setattr(decide, "verify_certificate", None)
    assert not hasattr(identities, "verify_certificate")
    for d in (3, 6):
        assert main(["identities", "--json", "--degree", str(d), str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["length_one"] is True
        assert report["identities"][f"power-associative(<={d})"] == {
            "holds": True, "counterexample": {"kind": "length-one", "max_degree": d}}
