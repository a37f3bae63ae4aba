"""The decider runs on A itself: one conjugation per stage, one check per witness.

Every table the decider reads is change_basis(A, c) for a change c written
in A's coordinates, and each witness is compared literally with the table
its parameters were read from, once, before it is returned.
"""

import sys

import pytest

from lenalg import (
    change_basis,
    decide_length_one,
    generate_length_one,
    make_field,
    make_fixture,
    square_step,
    verify_certificate,
)
from lenalg import decide as decide_module
from lenalg.algebra import Algebra, algebra
from lenalg.errors import AssemblyError

Q = make_field("Q")
F5 = make_field("F5")
G4 = make_field("GF4")


def _mixed_type_ii(field):
    # re-picking a_2 + a_3 of a type-ii algebra flips that square's type to 0
    A = generate_length_one(field, 4, 7, "type-ii", hide=False)
    z, o = field.zero, field.one
    return change_basis(A, [(o, z, z, z), (z, o, o, z), (z, z, o, z),
                            (z, z, z, o)])


# (label, builder, conjugations of A a yes-decision makes)
YES_INSTANCES = [
    ("special-Q", lambda: generate_length_one(Q, 5, 1, "special", hide=True), 1),
    ("special-F5", lambda: generate_length_one(F5, 4, 2, "special", hide=True), 1),
    ("char2-dim2", lambda: generate_length_one(G4, 2, 3, "type-ii", hide=True), 1),
    ("dim3-F2", lambda: make_fixture("dim3-f2-type4"), 3),
    ("dim3-GF4", lambda: generate_length_one(G4, 3, 5, "dim3-type3", hide=True), 3),
    ("dim4-homogeneous", lambda: generate_length_one(G4, 5, 3, "type-i", hide=True), 1),
    ("dim4-mixed", lambda: _mixed_type_ii(G4), 2),
]


@pytest.fixture
def conjugations(monkeypatch):
    """Record (algebra, change) for every change_basis call of the decider.

    `lenalg.algebra` names both the module and the function the package
    exports, so the module is reached through sys.modules.
    """
    calls = []
    real = decide_module.change_basis

    def counted(A, change):
        calls.append((A, change))
        return real(A, change)
    monkeypatch.setattr(decide_module, "change_basis", counted)
    monkeypatch.setattr(sys.modules["lenalg.algebra"], "change_basis", counted)
    return calls


@pytest.mark.parametrize("build, expected", [case[1:] for case in YES_INSTANCES],
                         ids=[case[0] for case in YES_INSTANCES])
def test_one_conjugation_of_a_per_stage(conjugations, monkeypatch, build, expected):
    A = build()
    rechecks = []
    for name in ("verify_special_witness", "verify_char2_witness"):
        monkeypatch.setattr(decide_module, name,
                            lambda A, w: rechecks.append(w) or True)
    rep = decide_length_one(A)
    assert rep.value is True
    assert ("homogenize-squares" in rep.path) == (expected == 2)
    assert len(conjugations) == expected
    assert all(B is A for B, _ in conjugations)
    assert rechecks == []
    # the witness was read from, and checked on, A in the witness basis
    assert conjugations[-1][1] is rep.certificate.change
    monkeypatch.undo()
    assert verify_certificate(A, rep.certificate)


@pytest.mark.parametrize("field", [Q, G4], ids=["Q", "GF4"])
def test_square_step_reads_only_the_squares(conjugations, monkeypatch, field):
    mode = "special" if field is Q else "type-ii"
    A = generate_length_one(field, 5, 4, mode, hide=True)
    products = []
    real = Algebra.mul

    def counted(self, u, v):
        products.append((u, v))
        return real(self, u, v)
    monkeypatch.setattr(Algebra, "mul", counted)
    res = square_step(A)
    assert not isinstance(res, decide_module.StepFail)
    assert conjugations == []
    assert len(products) == A.dim
    assert all(u == v for u, v in products)


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
    cases = [build() for label, build, _ in YES_INSTANCES
             if label.startswith("special") == special]
    assert cases
    for A in cases:
        with pytest.raises(AssemblyError):
            decide_length_one(A)
