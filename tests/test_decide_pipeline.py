"""The decider runs on A itself: one conjugation per stage, one check per witness.

Every table the decider reads is change_basis(A, c) for a change c written
in A's coordinates, read through one `Conjugation` per stage, which computes
a cell when it is first read, so a stage that fails at a product computes no
later cell.  Each witness is compared literally with the table its
parameters were read from, once, before it is returned.  A failing step
returns its ViolationWitness in A's coordinates, built from its basis rows.
"""

import pytest

from lenalg import (
    ViolationWitness,
    canonicalize,
    change_basis,
    char2_decide,
    complete_to_basis_with_one,
    decide_length_one,
    generate_length_one,
    make_field,
    make_fixture,
    special_step,
    square_step,
    verify_certificate,
    verify_violation,
)
from lenalg import decide as decide_module
from lenalg.algebra import Algebra, algebra
from lenalg.errors import AssemblyError
from lenalg.linalg import BasisChange

from tests.corpus import near_miss, random_unital_algebra
from tests.test_golden_reports import CONDITIONS, NEAR_MISSES, corpus

Q = make_field("Q")
F5 = make_field("F5")
G4 = make_field("GF4")


def _mixed_type_ii(field):
    # re-picking a_2 + a_3 of a type-ii algebra flips that square's type to 0
    A = generate_length_one(field, 4, 7, "type-ii", hide=False)
    z, o = field.zero, field.one
    return change_basis(A, [(o, z, z, z), (z, o, o, z), (z, z, o, z),
                            (z, z, z, o)])


# (label, builder, conjugations of A and BasisChange constructions a
# yes-decision makes): the squares, then the special basis or the rescale,
# then the dimension-3 re-pick and its shift or the homogenized basis
YES_INSTANCES = [
    ("special-Q", lambda: generate_length_one(Q, 5, 1, "special", hide=True), 2, 2),
    ("special-F5", lambda: generate_length_one(F5, 4, 2, "special", hide=True), 2, 2),
    ("char2-dim2", lambda: generate_length_one(G4, 2, 3, "type-ii", hide=True), 2, 2),
    ("dim3-F2", lambda: make_fixture("dim3-f2-type4"), 4, 4),
    ("dim3-GF4", lambda: generate_length_one(G4, 3, 5, "dim3-type3", hide=True), 4, 4),
    ("dim4-homogeneous", lambda: generate_length_one(G4, 5, 3, "type-i", hide=True), 2, 2),
    ("dim4-mixed", lambda: _mixed_type_ii(G4), 3, 3),
]


@pytest.fixture
def conjugations(monkeypatch):
    """Record (name, algebra, change) for every conjugation the decider makes:
    each `Conjugation` it reads cells from, with the BasisChange it holds,
    and each change_basis call."""
    calls = []
    for name in ("Conjugation", "change_basis"):
        def counted(A, change, name=name, real=getattr(decide_module, name)):
            out = real(A, change)
            calls.append((name, A, out.change if name == "Conjugation" else change))
            return out
        monkeypatch.setattr(decide_module, name, counted)
    return calls


def _count_products(monkeypatch):
    """A list that records (u, v) for every Algebra.mul call from now on."""
    calls = []
    real = Algebra.mul

    def counted(self, u, v):
        calls.append((u, v))
        return real(self, u, v)
    monkeypatch.setattr(Algebra, "mul", counted)
    return calls


def _cell_position(witness, n):
    """The position, from 1, of the witness's product among the products
    a_i a_j (i != j) of an n-dimensional basis, read row by row."""
    i, j = map(int, witness.detail["indices"])
    return (i - 1) * (n - 2) + j - (j > i)


@pytest.mark.parametrize("build, expected, changes",
                         [case[1:] for case in YES_INSTANCES],
                         ids=[case[0] for case in YES_INSTANCES])
def test_one_conjugation_of_a_per_stage(conjugations, monkeypatch, build,
                                        expected, changes):
    A = build()
    rechecks = []
    for name in ("verify_special_witness", "verify_char2_witness"):
        monkeypatch.setattr(decide_module, name,
                            lambda A, w: rechecks.append(w) or True)
    built = []
    real_init = BasisChange.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)
    monkeypatch.setattr(BasisChange, "__init__", counted_init)
    rep = decide_length_one(A)
    assert rep.value is True
    assert ("homogenize-squares" in rep.path) == (
        "dim>=4" in rep.path and expected == 3)
    # every stage reads A through a Conjugation; only the verifiers, not
    # called here, conjugate by change_basis
    assert [name for name, _, _ in conjugations] == ["Conjugation"] * expected
    assert len(built) == changes
    assert all(B is A for _, B, _ in conjugations)
    assert rechecks == []
    # the witness was read from, and checked on, A in the witness basis
    assert conjugations[-1][2] is rep.certificate.change
    monkeypatch.undo()
    assert verify_certificate(A, rep.certificate)


@pytest.mark.parametrize("field", [Q, G4], ids=["Q", "GF4"])
def test_square_step_reads_only_the_squares(conjugations, monkeypatch, field):
    mode = "special" if field is Q else "type-ii"
    A = generate_length_one(field, 5, 4, mode, hide=True)
    products = _count_products(monkeypatch)
    res = square_step(A)
    assert not isinstance(res, ViolationWitness)
    assert [(name, B) for name, B, _ in conjugations] == [("Conjugation", A)]
    # the identity's square is never read, so it is not computed
    assert len(products) == A.dim - 1
    assert all(u == v for u, v in products)


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_square_step_stops_at_the_first_bad_square(monkeypatch, field):
    A = next(A for A in (random_unital_algebra(field, 6, seed) for seed in range(9))
             if getattr(square_step(A), "detail", {}).get("index") == 1)
    products = _count_products(monkeypatch)
    w = square_step(A)
    assert w.condition == "square-not-in-span"
    assert len(products) == 1


@pytest.mark.parametrize("name, dim, seed, cell", NEAR_MISSES,
                         ids=[f"{m[0]}-{m[1]}" for m in NEAR_MISSES])
def test_special_step_stops_at_the_first_failing_product(monkeypatch, name, dim,
                                                         seed, cell):
    # n - 1 squares, then the products up to the first one outside its span
    A = near_miss(make_field(name), dim, seed)
    ch0 = complete_to_basis_with_one(A)
    shift = canonicalize(A, ch0, [g for (_, g) in square_step(A, ch0)])
    products = _count_products(monkeypatch)
    w = special_step(A, shift)
    assert w.condition == "product-not-in-span"
    assert _cell_position(w, dim) == cell > 1
    assert len(products) == (dim - 1) + cell
    monkeypatch.undo()
    assert verify_violation(A, w)


def test_char2_products_stop_at_the_first_failing_product(monkeypatch):
    # square_step's n - 1 squares, then the rescaled basis's products up to
    # the first one outside its span
    A = near_miss(G4, 5, 3, "type-ii")
    products = _count_products(monkeypatch)
    w, path = char2_decide(A)
    assert path[-1] == "products"
    assert w.condition == "product-not-in-span"
    cell = _cell_position(w, A.dim)
    assert cell > 1
    assert len(products) == (A.dim - 1) + cell


@pytest.mark.parametrize("builder_name", ["special_table_from_params",
                                          "char2_table_from_params"])
def test_literal_check_fires_on_every_path(monkeypatch, builder_name):
    real = getattr(decide_module, builder_name)

    def flipped(field, *params):
        # the claimed table with the F*1 part of a_2^2 bumped by one
        B = real(field, *params)
        table = [[list(cell) for cell in row] for row in B.table]
        table[1][1][0] = field.add(table[1][1][0], field.one)
        return algebra(field, table, B.one)
    monkeypatch.setattr(decide_module, builder_name, flipped)
    special = builder_name == "special_table_from_params"
    cases = [build() for label, build, *_ in YES_INSTANCES
             if label.startswith("special") == special]
    assert cases
    for A in cases:
        with pytest.raises(AssemblyError):
            decide_length_one(A)


def _step_failures(A):
    """The ViolationWitness each public step returns on A, as returned."""
    if A.field.characteristic() == 2:
        outcome, _ = char2_decide(A)
        return [outcome] if isinstance(outcome, ViolationWitness) else []
    ch0 = complete_to_basis_with_one(A)
    squares = square_step(A, ch0)
    if isinstance(squares, ViolationWitness):
        return [squares]
    shift = canonicalize(A, ch0.matrix, [g for (_, g) in squares])
    outcome = special_step(A, shift)
    return [outcome] if isinstance(outcome, ViolationWitness) else []


def test_step_failures_are_certificates_in_a_coordinates():
    reached = set()
    for key, A in corpus():
        if A.dim < 2:
            continue
        for w in _step_failures(A):
            assert verify_violation(A, w), key
            # the report carries the step's witness unchanged
            assert decide_length_one(A).certificate == w, key
            reached.add(w.condition)
    assert reached == CONDITIONS
