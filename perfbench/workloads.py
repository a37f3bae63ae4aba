"""Seeded inputs for the three benchmark workloads.

`build(name, seed, tiny)` returns the documents a workload feeds to the CLI
and the fixed item list it runs over them.  Every expected outcome is known
from how the document was made, never from running the decider:

* yes-instances come from `generate_length_one`, which satisfies the
  length-one law by construction, so `check`/`oracle` say yes, `l(A) = 1`,
  and an exhaustive oracle sweep checks ((q^(n-1) - 1)/(q - 1))^2 pairs;
* near-misses bump the un-hidden table so that a basis product leaves
  span{1, e_i, e_j}, which proves length > 1; from dimension 4 the bump
  leaves every square alone, so over Q the decider stops at the special-law
  step;
* random tables use the unital-hull recipe of the test corpus and are kept
  only when a basis square visibly leaves span{1, e_i}, which also proves
  length > 1 (dimension 2 is always length one, so it only gets yes-items).
  In characteristic != 2 they are also kept only when the squares step of
  the program fails on them, so they stop at that step.

Two choices use the program, but only to select documents, never to set an
expected verdict: the squares step above, and the position of the oracle's
first witness for the sweep-ff near-misses.  The program only ever sees the
rendered documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from lenalg import (
    StepFail,
    algebra,
    change_basis,
    generate_length_one,
    make_field,
    oracle_length_one,
    render_document,
    square_step,
    unital_hull,
)
from lenalg.fields import ExtensionField
from lenalg.length import count_subspaces
from lenalg.linalg import random_invertible

YES, NEAR, RANDOM = "yes", "near", "random"

# AES polynomial x^8 + x^4 + x^3 + x + 1, little-endian.
GF256_MODULUS = (1, 1, 0, 1, 1, 0, 0, 0, 1)


@dataclass
class Workload:
    """Documents plus the item list one pass runs, with expected outcomes.

    Each item is a dict: `argv` for `lenalg.cli.main`, `stdin` naming its
    input (`doc` for a document, `prev` for the previous item's output),
    `doc` (document index), `check` (which output check applies) and
    `expect` (the known outcome).
    """

    name: str
    docs: list = dc_field(default_factory=list)
    doc_info: list = dc_field(default_factory=list)
    items: list = dc_field(default_factory=list)

    def add_doc(self, A, kind, mode=None):
        self.docs.append(render_document(A))
        self.doc_info.append({"field": A.field.label(), "dim": A.dim,
                              "kind": kind, "mode": mode})
        return len(self.docs) - 1

    def add_item(self, check, argv, doc, expect=None, stdin="doc"):
        self.items.append({"check": check, "argv": argv, "doc": doc,
                           "stdin": stdin, "expect": expect or {}})

    def add_check_and_verify(self, doc, verdict, step=None):
        """`check --json`, then `verify-cert` on the report it printed.

        `step`, if given, is the decision step the report's path must name.
        """
        expect = {"verdict": verdict}
        if step is not None:
            expect["step"] = step
        self.add_item("check", ["check", "--json", "-"], doc, expect)
        self.add_item("verify", ["verify-cert", "-"], doc, stdin="prev")

    def summary(self):
        fields = sorted({d["field"] for d in self.doc_info})
        dims = sorted({d["dim"] for d in self.doc_info})
        mix = {}
        for item in self.items:
            key = " ".join(a for a in item["argv"] if a != "-")
            mix[key] = mix.get(key, 0) + 1
        kinds = {}
        for d in self.doc_info:
            kinds[d["kind"]] = kinds.get(d["kind"], 0) + 1
        return {"fields": fields, "dims": dims, "documents": len(self.docs),
                "document_kinds": kinds, "items_per_pass": len(self.items),
                "item_mix": mix}


def _rng(*parts):
    return random.Random("perfbench|" + "|".join(str(p) for p in parts))


def _scalar(F, rng):
    if F.is_finite():
        elems = list(F.elements())
        return elems[rng.randrange(len(elems))]
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def _hide(A, rng):
    return change_basis(A, random_invertible(A.field, A.dim, rng))


def _bump(A, *changes):
    """A copy of A with c[i][j][k] increased by d for each (i, j, k, d)."""
    F = A.field
    table = [[list(cell) for cell in row] for row in A.table]
    for i, j, k, d in changes:
        table[i][j][k] = F.add(table[i][j][k], F.from_int(d))
    return algebra(F, table, A.one)


def _yes_mode(F, dim, copy):
    if F.characteristic() != 2:
        return "special"
    if dim == 3:
        forms = 4 if F.is_two_element_field() else 3
        return f"dim3-type{1 + copy % forms}"
    return ("type-i", "type-ii")[copy % 2]


def yes_instance(F, dim, seed, copy):
    mode = _yes_mode(F, dim, copy)
    return generate_length_one(F, dim, seed * 1000 + copy, mode, hide=True), mode


def near_miss(F, dim, seed, copy, tag, attempt=0):
    """Length-one table with one product bumped, then hidden.

    In the un-hidden basis e_i e_j lies in span{e_0, e_i, e_j} (e_0 = 1), so
    adding e_3 to e_1 e_2 puts that product outside its span, which proves
    length > 1.  From dimension 4 the bump is antisymmetric (e_2 e_1 loses
    the same e_3), so x^2 is unchanged for every x: the decider passes the
    squares step and canonicalization in any basis and fails at the
    pairwise (special-law) step.  At dimension 3 the bumped product is the
    square e_1 e_1.
    """
    if dim < 3:
        raise ValueError("every algebra of dimension <= 2 has length one")
    mode = _yes_mode(F, dim, copy)
    base = generate_length_one(F, dim, seed * 1000 + copy, mode)
    if dim >= 4:
        bumped = _bump(base, (1, 2, 3, 1), (2, 1, 3, -1))
    else:
        bumped = _bump(base, (1, 1, 2, 1))
    rng = _rng(tag, "near", F.label(), dim, seed, copy, attempt)
    return _hide(bumped, rng), mode


def near_miss_for_rescan(F, dim, seed, copy, tag):
    """A near-miss whose witness scan finds its left factor at (0, ..., 0, 1, 0).

    Left factors on one line through the origin either all have a violating
    partner or none has, and the scan starts with the q - 1 points
    (0, ..., 0, c) of one line.  Where the first violation lies depends on
    the random hiding basis: mostly on that first line (a scan of a few
    pairs), sometimes so late that the scan costs q^(2n) / 10 pairs.
    Keeping documents whose first violating left factor is the next vector
    gives every seed the same scan work: q - 1 to q sweeps over b, each of
    q^n - q pairs.  The position comes from the oracle itself: the pairs
    its witness scan adds to the reduced sweep.
    """
    q = F.order()
    sweep = q ** dim - q
    for attempt in range(400):
        A, mode = near_miss(F, dim, seed, copy, tag, attempt)
        rank = (oracle_length_one(A).pairs_checked
                - oracle_length_one(A, witness=False).pairs_checked)
        if (q - 1) * sweep < rank <= q * sweep:
            return A, mode
    raise RuntimeError(f"no near-miss with a mid-depth witness over {F.label()}")


def random_no_instance(F, dim, seed, copy, tag):
    """Random unital table (hull of a random table) with a visible bad square.

    Kept only when the squares step fails on the hidden table, so every
    random item stops at that step; the bad square itself proves length > 1.
    """
    if dim < 3:
        raise ValueError("every algebra of dimension <= 2 has length one")
    for attempt in range(1000):
        rng = _rng(tag, "random", F.label(), dim, seed, copy, attempt)
        m = dim - 1
        table = [[tuple(_scalar(F, rng) for _ in range(m)) for _ in range(m)]
                 for _ in range(m)]
        H = unital_hull(F, table)
        # e_i^2 outside span{1, e_i} proves length > 1 by the pair (e_i, e_i).
        if any(H.table[i][i][k] != F.zero
               for i in range(1, dim) for k in range(1, dim) if k != i):
            hidden = _hide(H, rng)
            if (F.characteristic() == 2
                    or isinstance(square_step(hidden), StepFail)):
                return hidden
    raise RuntimeError(f"no random table with a bad square over {F.label()}")


def oracle_yes_pairs(q, dim):
    """Pairs the reduced oracle sweep checks on a length-one algebra."""
    lines = (q ** (dim - 1) - 1) // (q - 1)
    return lines * lines


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Documents per dimension in decide-q.  Yes-instances stop at dimension 7:
# from dimension 8 one costs 0.6 to 2.5 s to check and re-verify, so a few
# of them would decide the pass time alone and leave room for only a few
# passes in a run.  Near-misses and random tables run at every dimension.
# The counts put the median inside one block of items of about the same
# cost, the 16 checks of dimension-6 near-misses and dimension-7 random
# tables, with about as many items below it (every no-instance
# re-verification, the dimension-6 random checks) as above it (yes-items,
# checks from dimension 7 or 8 up); with the block at one edge of the
# median, the median moved by a fifth between seeds.
DECIDE_Q_COUNTS = {  # dim: (yes, near-miss, random)
    6: (8, 10, 3),
    7: (3, 6, 6),
    8: (0, 5, 3),
    9: (0, 2, 2),
    10: (0, 1, 1),
}
DECIDE_Q_TINY = {4: (1, 1, 1), 5: (1, 1, 1)}


def decide_q(seed, tiny=False):
    """Q documents of three kinds that stop at three different depths.

    Random tables stop at the squares step, near-misses at the special-law
    step, and yes-instances run every step; each check report names the
    step it expects.  50 documents, 100 items, so ten lie beyond the p90.
    """
    w = Workload("decide-q")
    Q = make_field("Q")
    for dim, (n_yes, n_near, n_random) in (
            DECIDE_Q_TINY if tiny else DECIDE_Q_COUNTS).items():
        for copy in range(n_yes):
            A, mode = yes_instance(Q, dim, seed, copy)
            w.add_check_and_verify(w.add_doc(A, YES, mode), True,
                                   "step3:special-basis")
        for copy in range(n_near):
            A, mode = near_miss(Q, dim, seed, copy, w.name)
            w.add_check_and_verify(w.add_doc(A, NEAR, mode), False,
                                   "step3:not-special")
        for copy in range(n_random):
            A = random_no_instance(Q, dim, seed, copy, w.name)
            w.add_check_and_verify(w.add_doc(A, RANDOM), False,
                                   "step1:squares-failed")
    return w


def sweep_ff(seed, tiny=False):
    """Finite-field enumeration: oracle sweeps, witness re-scans, l(A)."""
    w = Workload("sweep-ff")
    if tiny:
        oracle_yes = (("F2", 4), ("F3", 3))
        oracle_near = (("GF4", 3), ("F3", 4))
        lengths = (("F2", 4), ("F3", 3))
        gf4_oracle, gf4_length = 1, 1
    else:
        oracle_yes = (("F2", 7), ("F3", 6), ("GF4", 5), ("F5", 5))
        oracle_near = (("GF4", 5), ("F3", 6))
        lengths = (("F2", 6), ("F2", 7), ("F3", 5), ("GF4", 5))
        # The work of each item is fixed by its size (pairs, re-scan depth,
        # subspaces), so one document per (field, dim) suffices, except
        # where a percentile falls.  Of the 13 items, the three GF4/5 length
        # items rank 5th to 7th by cost, so the median is one of them and
        # not the mean of two items of different cost; the two GF4/5
        # yes-sweeps rank with the F2/7 length item at the top, around the
        # p90.
        gf4_oracle, gf4_length = 2, 3
    for name, dim in oracle_yes:
        F = make_field(name)
        for copy in range(gf4_oracle if name == "GF4" else 1):
            A, mode = yes_instance(F, dim, seed, copy)
            w.add_item("oracle", ["oracle", "-"], w.add_doc(A, YES, mode),
                       {"verdict": True,
                        "pairs": oracle_yes_pairs(F.order(), dim)})
    for name, dim in oracle_near:
        F = make_field(name)
        A, mode = near_miss_for_rescan(F, dim, seed, 0, w.name)
        w.add_item("oracle", ["oracle", "-"], w.add_doc(A, NEAR, mode),
                   {"verdict": False})
    for name, dim in lengths:
        F = make_field(name)
        for copy in range(gf4_length if name == "GF4" else 1):
            A, mode = yes_instance(F, dim, seed, copy)
            w.add_item("length", ["length", "--json", "-"],
                       w.add_doc(A, YES, mode),
                       {"value": 1,
                        "subspaces": count_subspaces(dim - 1, F.order())})
    return w


def _cli_mixed_dims(F, dims):
    """The dims of `dims` at which F gets a cli-mixed document.

    `identities` sweeps every x of A for power-associativity when
    q^dim <= 4096 and samples 100 x otherwise; a sweep over more than 729
    elements takes 2 to 6 s, as long as the rest of the pass, so those dims
    are left out.  Q stops at dimension 5, where sampling with fractions
    still takes well under a second.
    """
    if not F.is_finite():
        return tuple(d for d in dims if d <= 5)
    q = F.order()
    return tuple(d for d in dims if q ** d <= 729 or q ** d > 4096)


def cli_mixed(seed, tiny=False):
    """Many small documents over many fields through four commands each."""
    w = Workload("cli-mixed")
    if tiny:
        field_names = ("Q", "F2", "GF4")
        dims = (2, 3, 4)
    else:
        field_names = ("Q", "F2", "F3", "F5", "F7", "GF4", "GF8", "GF9")
        dims = (2, 3, 4, 5, 6)
    fields = [make_field(n) for n in field_names]
    if not tiny:
        fields.append(ExtensionField(2, 8, GF256_MODULUS))
    kinds = (YES, NEAR, RANDOM)
    for fi, F in enumerate(fields):
        for dim in (_cli_mixed_dims(F, dims) if F.order() != 256 else (3,)):
            # The kind is fixed per (field, dim) so every seed runs the same
            # mix of decision depths; GF(2^8) gets a yes-instance so its
            # commands run every char-2 stage.
            kind = YES if dim == 2 or F.order() == 256 else kinds[(fi + dim) % 3]
            if kind == YES:
                A, mode = yes_instance(F, dim, seed, 0)
            elif kind == NEAR:
                A, mode = near_miss(F, dim, seed, 0, w.name)
            else:
                A, mode = random_no_instance(F, dim, seed, 0, w.name), None
            doc = w.add_doc(A, kind, mode)
            w.add_check_and_verify(doc, kind == YES)
            w.add_item("identities", ["identities", "--json", "-"], doc,
                       {"length_one": kind == YES})
            spec = "e2;e3" if dim >= 3 else "e2"
            w.add_item("length-set", ["length-set", "--set", spec, "--json", "-"],
                       doc, {"set_size": spec.count(";") + 1})
    return w


MAKERS = {"decide-q": decide_q, "sweep-ff": sweep_ff, "cli-mixed": cli_mixed}


def build(name, seed, tiny=False):
    return MAKERS[name](seed, tiny)
