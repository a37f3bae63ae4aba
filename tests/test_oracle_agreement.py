"""Decider and exhaustive oracle agree over GF8, GF9 and GF16.

GF16 uses the modulus x^4 + x^3 + x^2 + x + 1, modulo which x has order 5,
so the field's log tables rest on a primitive element other than x.  The
corpus is every generator mode at dims 3-4 (GF16 at dim 3, where its sweep
is 289 pairs), each hidden by a seeded change of basis, plus one-constant
mutations of each table.

The oracle itself, which tests one projective line at a time, equals
`reference_oracle`, two plain scans over every pair with a
`span(...).contains` per pair, field by field (verdict, witness, pairs
checked): on yes, near-miss and random tables over F2, F3, F5 and GF4 at
dims 2-4, F2 at dim 5 and GF8 and GF9 at dim 3, with and without the
witness re-scan.
"""

import pytest

from lenalg import (
    ExtensionField,
    decide_length_one,
    generate_length_one,
    make_field,
    oracle_length_one,
    verify_certificate,
)
from lenalg.errors import ModeCharacteristicMismatch
from lenalg.generate import MODES

from tests.corpus import (
    FIELD_NAMES_SMALL,
    mutate_one_constant,
    random_unital_algebra,
    reference_oracle,
)

GF16 = ExtensionField(2, 4, (1, 1, 1, 1, 1))


def _mutations(A):
    """A with c[i][j][k] bumped by one, for (i, j) = (1, 2), (2, 1) and every k.

    e_0 stays the identity and the squares stay put, so these near-misses
    reach the later steps of the decider.
    """
    for i, j in ((1, 2), (2, 1)):
        for k in range(A.dim):
            yield mutate_one_constant(A, i, j, k)


def _corpus(field, dim):
    """(mode, algebra): each mode's table hidden, and its mutations (from
    dim 3, where they exist)."""
    for mode in MODES:
        try:
            A = generate_length_one(field, dim, seed=0, mode=mode)
        except ModeCharacteristicMismatch:
            continue
        yield mode, generate_length_one(field, dim, seed=0, mode=mode, hide=True)
        if dim >= 3:
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


def _fields(result):
    w = result.witness
    return (result.is_length_one, result.pairs_checked,
            w and (w.left, w.right, w.condition, w.detail))


_REFERENCE_CASES = [(dim, name) for dim in (2, 3, 4) for name in FIELD_NAMES_SMALL]
_REFERENCE_CASES += [(5, "F2"), (3, "GF8"), (3, "GF9")]


@pytest.mark.parametrize("dim, name", _REFERENCE_CASES,
                         ids=[f"{dim}-{name}" for dim, name in _REFERENCE_CASES])
def test_oracle_matches_reference(dim, name):
    field = make_field(name)
    corpus = [A for _, A in _corpus(field, dim)]
    corpus += [random_unital_algebra(field, dim, seed) for seed in range(3)]
    verdicts = set()
    for A in corpus:
        for witness in (True, False):
            got = oracle_length_one(A, witness=witness)
            assert _fields(got) == _fields(reference_oracle(A, witness=witness))
            verdicts.add(got.is_length_one)
    assert verdicts == ({True} if dim == 2 else {True, False})

