"""Decider and exhaustive oracle agree over GF8, GF9 and GF16.

GF16 uses the modulus x^4 + x^3 + x^2 + x + 1, modulo which x has order 5,
so the field's log tables rest on a primitive element other than x.  The
corpus is every generator mode at dims 3-4 (GF16 at dim 3, where its sweep
is 289 pairs), each hidden by a seeded change of basis, plus one-constant
mutations of each table.
"""

import pytest

from lenalg import (
    ExtensionField,
    algebra,
    decide_length_one,
    generate_length_one,
    make_field,
    oracle_length_one,
    verify_certificate,
)
from lenalg.errors import ModeCharacteristicMismatch
from lenalg.generate import MODES

GF16 = ExtensionField(2, 4, (1, 1, 1, 1, 1))


def _mutations(A):
    """A with c[i][j][k] bumped by one, for (i, j) = (1, 2), (2, 1) and every k.

    e_0 stays the identity and the squares stay put, so these near-misses
    reach the later steps of the decider.
    """
    field = A.field
    for i, j in ((1, 2), (2, 1)):
        for k in range(A.dim):
            table = [[list(cell) for cell in row] for row in A.table]
            table[i][j][k] = field.add(table[i][j][k], field.one)
            yield algebra(field, table, A.one)


def _corpus(field, dim):
    """(mode, algebra): each mode's table hidden, and its mutations."""
    for mode in MODES:
        try:
            A = generate_length_one(field, dim, seed=0, mode=mode)
        except ModeCharacteristicMismatch:
            continue
        yield mode, generate_length_one(field, dim, seed=0, mode=mode, hide=True)
        for M in _mutations(A):
            yield mode, M


@pytest.mark.parametrize("field, dim", [
    (make_field("GF8"), 3), (make_field("GF8"), 4),
    (make_field("GF9"), 3), (make_field("GF9"), 4),
    (GF16, 3),
], ids=lambda v: v.label() if hasattr(v, "label") else str(v))
def test_decider_agrees_with_oracle(field, dim):
    verdicts = set()
    for mode, A in _corpus(field, dim):
        rep = decide_length_one(A)
        assert verify_certificate(A, rep.certificate), (mode, rep.path)
        assert rep.value == oracle_length_one(A, witness=False).is_length_one, (
            mode, rep.path)
        verdicts.add(rep.value)
    assert verdicts == {True, False}
