"""Canonical example algebras: builders and the named fixture registry.

Fixtures are stored as documents in the wire format (see documents.py), so
the CLI, the tests and the README all demonstrate literally the same tables.
The two "remark" fixtures differ in a single product: the literal table has
ba = -a - b and fails the length-one check (its recorded oracle witness is
a + b), while the repaired table with ba = -b is length one and flexible but
not associative.  See README "Fixture notes" for the recorded outcomes.
"""

from __future__ import annotations

from .algebra import algebra, identity_first
from .documents import parse_document
from .errors import CharacteristicTwo, UnknownFixture


def make_bilinear_jordan(field, gram):
    """F*1 + V with v*w = phi(v, w) * 1 for a symmetric gram matrix on V.

    The archetypal commutative length-one family away from characteristic 2.
    """
    if field.characteristic() == 2:
        raise CharacteristicTwo("the bilinear construction needs 1/2")
    m = len(gram)
    gram = tuple(tuple(row) for row in gram)
    if any(len(row) != m for row in gram):
        raise ValueError("gram matrix must be square")
    for i in range(m):
        for j in range(m):
            if gram[i][j] != gram[j][i]:
                raise ValueError("gram matrix must be symmetric")
    zero = field.zero
    return identity_first(
        field, m + 1, lambda i, j: (gram[i - 1][j - 1],) + (zero,) * m)


def make_matrix_algebra(field, n):
    """Full matrix algebra on matrix units: E_pq E_rs = [q = r] E_ps."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    dim = n * n
    zero, one = field.zero, field.one
    table = [[None] * dim for _ in range(dim)]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    out = [zero] * dim
                    if q == r:
                        out[p * n + s] = one
                    table[p * n + q][r * n + s] = tuple(out)
    identity = tuple(one if (i % n) == (i // n) else zero for i in range(dim))
    return algebra(field, table, identity)


def make_direct_sum_of_fields(field, k):
    """F + ... + F on orthogonal idempotents; the identity is their sum."""
    if k < 1:
        raise ValueError("need at least one summand")
    zero, one = field.zero, field.one
    table = [
        [tuple(one if (i == j and m == i) else zero for m in range(k))
         for j in range(k)]
        for i in range(k)
    ]
    return algebra(field, table, tuple(one for _ in range(k)))


# ---------------------------------------------------------------------------
# fixture registry (documents in the wire format)
# ---------------------------------------------------------------------------

_ID3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]

FIXTURES = {
    # basis (1, a, b): a^2 = 0, b^2 = b, ab = 2*1 + a + b, ba = -a - b.
    # Recorded outcome: length > 1 (see README); kept verbatim as a fixture.
    "remark-literal": {
        "field": "Q",
        "dim": 3,
        "one": ["1", "0", "0"],
        "table": [
            _ID3,
            [["0", "1", "0"], ["0", "0", "0"], ["2", "1", "1"]],
            [["0", "0", "1"], ["0", "-1", "-1"], ["0", "0", "1"]],
        ],
        "metadata": {"name": "remark-literal"},
    },
    # same but ba = -b: passes the pairwise law, still not associative.
    "remark-repaired": {
        "field": "Q",
        "dim": 3,
        "one": ["1", "0", "0"],
        "table": [
            _ID3,
            [["0", "1", "0"], ["0", "0", "0"], ["2", "1", "1"]],
            [["0", "0", "1"], ["0", "0", "-1"], ["0", "0", "1"]],
        ],
        "metadata": {"name": "remark-repaired"},
    },
    # two orthogonal idempotents e, f with e + f = 1 and a one-sided arrow x:
    # ex = x = xf, fx = xe = x^2 = 0.  Associative, length one.
    "type5-assoc": {
        "field": "Q",
        "dim": 3,
        "one": ["1", "1", "0"],
        "table": [
            [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
            [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
            [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
        ],
        "metadata": {"name": "type5-assoc"},
    },
    # dimension-3 normal forms over F2 (nonzero scalar parts exercise the
    # congruence handling; the form is unchanged modulo F*1).
    "dim3-f2-type1": {
        "field": "F2",
        "dim": 3,
        "one": ["1", "0", "0"],
        "table": [
            _ID3,
            [["0", "1", "0"], ["1", "0", "0"], ["1", "0", "0"]],
            [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
        ],
        "metadata": {"name": "dim3-f2-type1"},
    },
    "dim3-f2-type2": {
        "field": "F2",
        "dim": 3,
        "one": ["1", "0", "0"],
        "table": [
            _ID3,
            [["0", "1", "0"], ["0", "1", "0"], ["0", "0", "0"]],
            [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "1"]],
        ],
        "metadata": {"name": "dim3-f2-type2"},
    },
    "dim3-f2-type3": {
        "field": "F2",
        "dim": 3,
        "one": ["1", "0", "0"],
        "table": [
            _ID3,
            [["0", "1", "0"], ["0", "0", "0"], ["1", "0", "0"]],
            [["0", "0", "1"], ["0", "0", "1"], ["0", "0", "1"]],
        ],
        "metadata": {"name": "dim3-f2-type3"},
    },
    # fourth dimension-3 form over F2: square types {0, 1, 1}; not expressible
    # in the first three forms (the type multiset is a basis invariant).
    "dim3-f2-type4": {
        "field": "F2",
        "dim": 3,
        "one": ["1", "0", "0"],
        "table": [
            _ID3,
            [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            [["0", "0", "1"], ["0", "1", "0"], ["0", "0", "1"]],
        ],
        "metadata": {"name": "dim3-f2-type4"},
    },
    # seeded hidden-basis fixtures over GF4 (generate_length_one output).
    "char2-typeI-seeded": {
        "field": "GF4",
        "dim": 4,
        "one": ["[1,1]", "[1,1]", "[0,1]", "[1,0]"],
        "table": [
            [["[1,1]", "[1,1]", "[0,1]", "[1,0]"], ["[0,1]", "[1,0]", "[0,0]", "[0,0]"], ["[0,0]", "[1,0]", "[0,1]", "[0,1]"], ["[0,1]", "[1,1]", "[0,1]", "[0,0]"]],
            [["[0,1]", "[1,0]", "[0,0]", "[0,0]"], ["[0,1]", "[0,1]", "[1,0]", "[1,1]"], ["[1,1]", "[0,1]", "[0,0]", "[1,0]"], ["[1,0]", "[0,0]", "[1,1]", "[0,0]"]],
            [["[1,1]", "[0,1]", "[0,0]", "[1,1]"], ["[1,0]", "[0,0]", "[1,0]", "[0,1]"], ["[1,0]", "[1,0]", "[1,1]", "[0,1]"], ["[1,1]", "[1,1]", "[1,1]", "[0,0]"]],
            [["[1,1]", "[0,1]", "[1,0]", "[0,1]"], ["[0,1]", "[1,1]", "[1,0]", "[1,0]"], ["[0,0]", "[0,0]", "[1,0]", "[1,0]"], ["[1,1]", "[1,1]", "[0,1]", "[1,0]"]],
        ],
        "metadata": {"name": "char2-typeI-seeded", "seed": 2024},
    },
    "char2-typeII-seeded": {
        "field": "GF4",
        "dim": 4,
        "one": ["[1,0]", "[1,1]", "[1,0]", "[1,0]"],
        "table": [
            [["[1,1]", "[1,0]", "[0,1]", "[0,1]"], ["[1,0]", "[0,1]", "[1,1]", "[1,1]"], ["[1,0]", "[1,0]", "[0,1]", "[0,1]"], ["[0,0]", "[1,0]", "[0,1]", "[0,1]"]],
            [["[1,1]", "[1,0]", "[0,0]", "[0,0]"], ["[1,1]", "[1,1]", "[1,1]", "[1,1]"], ["[1,1]", "[1,0]", "[0,0]", "[1,1]"], ["[0,1]", "[1,1]", "[0,1]", "[1,0]"]],
            [["[0,0]", "[1,1]", "[0,0]", "[1,0]"], ["[1,1]", "[1,1]", "[1,0]", "[1,1]"], ["[1,1]", "[0,1]", "[1,0]", "[1,1]"], ["[1,0]", "[1,1]", "[1,1]", "[0,0]"]],
            [["[0,0]", "[1,0]", "[0,1]", "[1,1]"], ["[0,0]", "[0,1]", "[0,0]", "[0,1]"], ["[0,0]", "[0,0]", "[0,1]", "[1,1]"], ["[0,0]", "[0,0]", "[0,0]", "[0,0]"]],
        ],
        "metadata": {"name": "char2-typeII-seeded", "seed": 4048},
    },
}


def fixture_names():
    return sorted(FIXTURES)


def make_fixture(name, field=None):
    """Parse the named fixture document; `field` reinterprets its scalars.

    Reinterpreting makes sense for integer-scalar tables ("remark-literal"
    over F5, say); the scalar strings are simply parsed in the other field,
    and the algebra's field is `field` itself.
    """
    if name not in FIXTURES:
        raise UnknownFixture(
            f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
    doc = dict(FIXTURES[name])
    if field is not None:
        doc = dict(doc, field=field)
    return parse_document(doc).algebra
