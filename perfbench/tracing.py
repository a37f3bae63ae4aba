"""Per-layer tracing of lenalg from outside, by patching at run time.

`Tracer.install()` replaces public functions and methods of the lenalg
modules with wrappers, in every lenalg module namespace that holds them, and
`uninstall()` puts the originals back.  Nothing under `src/` changes.

Two kinds of hook:

* spans, for layers whose time matters: each call records name, start, end
  and parent span in flat in-memory arrays, written out after the run.  A
  span's self time is its duration minus the time its child spans cover;
  spans of one CLI item share the `cli.main` span at their root;
* counts, for field operations and other calls made millions of times,
  where a span would cost more than the work it measures.

Each `decide` span is named after the decision stage, not after the helper
that implements it today, so the metric names survive a refactor of the
pipeline.  A hook whose target is missing is skipped and listed in
`missing`; a metric whose hooks are all missing is reported as absent.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# span name -> (module, attribute) targets; "Class.method" patches a class.
SPAN_HOOKS = {
    "fields.construct": [("lenalg.fields", "Rationals.__init__"),
                         ("lenalg.fields", "PrimeField.__init__"),
                         ("lenalg.fields", "ExtensionField.__init__")],
    "linalg.rref": [("lenalg.linalg", "rref")],
    "linalg.basis_change": [("lenalg.linalg", "BasisChange.__init__")],
    "algebra.mul": [("lenalg.algebra", "Algebra.mul")],
    "algebra.change_basis": [("lenalg.algebra", "change_basis")],
    "decide.squares": [("lenalg.decide", "square_step"),
                       ("lenalg.decide", "_read_squares")],
    "decide.canonicalize": [("lenalg.decide", "canonicalize")],
    "decide.special": [("lenalg.decide", "special_step"),
                       ("lenalg.decide", "_read_special")],
    "decide.char2": [("lenalg.decide", "char2_decide"),
                     ("lenalg.decide", "_char2_inner")],
    "decide.verify": [("lenalg.decide", "verify_certificate"),
                      ("lenalg.decide", "verify_special_witness"),
                      ("lenalg.decide", "verify_char2_witness"),
                      ("lenalg.decide", "verify_violation")],
    "decide.oracle": [("lenalg.decide", "oracle_length_one")],
    "length.word_spans": [("lenalg.length", "word_spans")],
    "length.enumerate": [("lenalg.length", "length_of_algebra")],
    "identities.commutative": [("lenalg.identities", "is_commutative")],
    "identities.associative": [("lenalg.identities", "is_associative")],
    "identities.flexible": [("lenalg.identities", "is_flexible")],
    "identities.jordan": [("lenalg.identities", "is_jordan")],
    "identities.power_associative": [("lenalg.identities",
                                      "is_power_associative_upto")],
    "documents.parse": [("lenalg.documents", "parse_document")],
    "documents.render": [("lenalg.documents", "render_report"),
                         ("lenalg.documents", "render_document"),
                         ("lenalg.documents", "document_dict")],
    "documents.verify_report": [("lenalg.documents", "verify_report_dict")],
    "cli.main": [("lenalg.cli", "main")],
}

_FIELD_CLASSES = ("Rationals", "PrimeField", "ExtensionField")

# counter name -> targets; each call adds one.
COUNT_HOOKS = {
    "fields.mul": [("lenalg.fields", f"{c}.mul") for c in _FIELD_CLASSES],
    "fields.addsub": [("lenalg.fields", f"{c}.{m}")
                      for c in _FIELD_CLASSES for m in ("add", "sub")],
    "fields.inv": [("lenalg.fields", f"{c}.inv") for c in _FIELD_CLASSES],
    "linalg.subspace_reduce": [("lenalg.linalg", "Subspace.reduce")],
    "decide.oracle.pair_ok": [("lenalg.decide", "_pair_ok")],
}

# Results of length_of_set called directly by the subspace enumeration give
# the share of enumerated subspaces that generate the algebra.
SET_LENGTH_HOOK = ("lenalg.length", "length_of_set")

# Spans whose call count is a metric; every span reports its self time.
SPAN_CALLS = ("fields.construct", "linalg.rref", "linalg.basis_change",
              "algebra.mul", "algebra.change_basis", "length.word_spans")


def _is_basis_vector(field, v):
    zero, one = field.zero, field.one
    seen = False
    for c in v:
        if c != zero:
            if seen or c != one:
                return False
            seen = True
    return seen


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.span_names = []          # name table; spans store indices
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = {name: [0] for name in COUNT_HOOKS}
        self.basis_pairs = [0]
        self.enumerated = [0, 0]      # [subspaces seen, generating ones]
        self.missing = []
        self.found = set()
        self._restore = []

    # -- patching ---------------------------------------------------------

    def _target(self, module_name, attr):
        """(owner, attribute, current value, own value or None) or None."""
        module = sys.modules.get(module_name)
        if module is None:
            return None
        owner_name, _, name = attr.rpartition(".")
        owner = module
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type):
                return None
        value = getattr(owner, name, None)
        if value is None:
            return None
        own = owner.__dict__.get(name) if owner_name else value
        return owner, name, value, own

    def _patch(self, module_name, attr, make_wrapper):
        target = self._target(module_name, attr)
        if target is None:
            self.missing.append(f"{module_name}.{attr}")
            return False
        owner, name, value, own = target
        wrapper = make_wrapper(value)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            self._restore.append((owner, name, own))
            return True
        # A module-level function is also bound, under its own name, in
        # every lenalg module that imported it.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lenalg" and not mod_name.startswith("lenalg."):
                continue
            for key, current in list(vars(module).items()):
                if current is value:
                    setattr(module, key, wrapper)
                    self._restore.append((module, key, value))
        return True

    def install(self):
        for span, targets in SPAN_HOOKS.items():
            for module_name, attr in targets:
                before = self._count_basis_pair if span == "algebra.mul" else None
                if self._patch(module_name, attr,
                               lambda f, s=span, b=before: self._span(s, f, b)):
                    self.found.add(span)
        for counter, targets in COUNT_HOOKS.items():
            cell = self.counters[counter]
            for module_name, attr in targets:
                if self._patch(module_name, attr,
                               lambda f, c=cell: self._count(c, f)):
                    self.found.add(counter)
        if self._patch(*SET_LENGTH_HOOK, self._set_length):
            self.found.add("length.generating")

    def uninstall(self):
        """Put every original back; return True if all are in place again."""
        for owner, name, original in reversed(self._restore):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        ok = all((owner.__dict__.get(name) is original)
                 for owner, name, original in self._restore)
        self._restore.clear()
        return ok

    # -- wrappers ---------------------------------------------------------

    def _span(self, span_name, func, before=None):
        if span_name not in self.span_names:
            self.span_names.append(span_name)
        nid = self.span_names.index(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t = clock()
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t
                stack.pop()

        wrapper.__wrapped__ = func
        return wrapper

    @staticmethod
    def _count(cell, func):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    def _count_basis_pair(self, args):
        alg, u, v = args[0], args[1], args[2]
        if _is_basis_vector(alg.field, u) and _is_basis_vector(alg.field, v):
            self.basis_pairs[0] += 1

    def _set_length(self, func):
        stack, names, cell = self.stack, self.name, self.enumerated

        def wrapper(*args, **kwargs):
            res = func(*args, **kwargs)
            if stack and self.span_names[names[stack[-1]]] == "length.enumerate":
                cell[0] += 1
                cell[1] += bool(res.generates)
            return res

        wrapper.__wrapped__ = func
        return wrapper

    # -- results ----------------------------------------------------------

    def self_times(self):
        """{span name: (calls, total self seconds)} over all recorded spans."""
        n = len(self.name)
        child = array("d", [0.0]) * n
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {s: [0, 0.0] for s in self.span_names}
        for i in range(n):
            acc = out[self.span_names[self.name[i]]]
            acc[0] += 1
            acc[1] += (ends[i] - starts[i]) - child[i]
        return out

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}; absent ones left out."""
        spans = self.self_times()
        out = {}
        for counter in COUNT_HOOKS:
            if counter in self.found:
                out[f"{counter}.calls"] = (self.counters[counter][0], "count")
        for span in SPAN_HOOKS:
            if span not in self.found:
                continue
            calls, self_s = spans.get(span, (0, 0.0))
            if span in SPAN_CALLS:
                out[f"{span}.calls"] = (calls, "count")
            out[f"{span}.self_s"] = (self_s, "s")
        if "algebra.mul" in self.found:
            calls = spans.get("algebra.mul", (0, 0.0))[0]
            out["algebra.mul.basis_pair_frac"] = (
                self.basis_pairs[0] / calls if calls else 0.0, "ratio")
        if "length.generating" in self.found:
            seen, gen = self.enumerated
            out["length.generating_frac"] = (gen / seen if seen else 0.0, "ratio")
        return out

    def write_spans(self, path):
        """Spans as a JSON header plus the raw arrays, in that file order."""
        header = {"names": self.span_names, "count": len(self.name),
                  "arrays": [["name", "H"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]],
                  "clock": "time.perf_counter seconds"}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
