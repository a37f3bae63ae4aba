"""Seeded generators for length-one algebras.

Tables built here satisfy the length-one laws by construction for every
parameter draw, which makes them round-trip fixtures for the decider: any
output must come back with verdict yes and a certificate of the same shape.
An optional random basis change hides the witness basis.  The parameter
builders `special_table_from_params` and `char2_table_from_params` live in
`decide`, whose certificate verifiers rebuild tables with them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import change_basis
from .decide import char2_table_from_params, special_table_from_params
from .errors import ModeCharacteristicMismatch
from .linalg import random_invertible

SPECIAL = "special"
TYPE_I = "type-i"
TYPE_II = "type-ii"
DIM3_MODES = ("dim3-type1", "dim3-type2", "dim3-type3", "dim3-type4")
MODES = (SPECIAL, TYPE_I, TYPE_II) + DIM3_MODES


def _scalar_drawer(field, rng):
    if field.is_finite():
        elems = list(field.elements())
        return lambda: elems[rng.randrange(len(elems))]
    return lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def generate_length_one(field, dim, seed, mode, hide=False):
    """Deterministic length-one algebra for the given mode and seed.

    Modes: "special" (characteristic != 2), "type-i"/"type-ii"
    (characteristic 2, any dim >= 2), "dim3-type1..4" (characteristic 2,
    dim 3; type4 exists only over the two-element field).  With hide=True
    the table is conjugated by a seeded random invertible matrix.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    char = field.characteristic()
    if mode == SPECIAL and char == 2:
        raise ModeCharacteristicMismatch("special mode needs characteristic != 2")
    if mode != SPECIAL and char != 2:
        raise ModeCharacteristicMismatch(f"{mode} needs characteristic 2")
    if mode in DIM3_MODES and dim != 3:
        raise ModeCharacteristicMismatch(f"{mode} is a dimension-3 form")
    if mode == "dim3-type4" and not field.is_two_element_field():
        raise ModeCharacteristicMismatch(
            "dim3-type4 exists only over the two-element field")
    if dim < 2:
        raise ModeCharacteristicMismatch("generators need dimension >= 2")
    rng = random.Random(f"{field.label()}|{dim}|{mode}|{seed}")
    draw = _scalar_drawer(field, rng)
    m = dim - 1
    if mode == SPECIAL:
        mu = tuple(draw() for _ in range(m))
        beta = tuple(draw() for _ in range(m))
        alpha = tuple(
            tuple(draw() if i != j else field.zero for j in range(m))
            for i in range(m)
        )
        A = special_table_from_params(field, mu, beta, alpha)
    else:
        if mode in (TYPE_I, TYPE_II):
            form = mode
            beta = tuple(draw() for _ in range(m))
        else:
            k = mode[-1]
            family = "f2" if field.is_two_element_field() else "ext"
            form = f"dim3-{family}-type{k}"
            beta = ()
        square_constants = tuple(draw() for _ in range(m))
        product_constants = tuple(
            tuple(draw() if i != j else field.zero for j in range(m))
            for i in range(m)
        )
        A = char2_table_from_params(field, form, beta,
                                    square_constants, product_constants)
    if hide:
        A = change_basis(A, random_invertible(field, dim, rng))
    return A
