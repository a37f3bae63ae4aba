"""The workload process: one client, one thread, a closed loop of CLI items.

Run by `run.py`, never by hand:

    python3 perfbench/worker.py INPUTS OUT --seconds S --trace T
    python3 perfbench/worker.py INPUTS OUT --setup-only

Set-up is timed from before `import lenalg.cli` to the end of one warm-up
item.  Each item is one in-process call of `lenalg.cli.main(argv)` with
stdin and stdout held in memory; only that call is timed.  Right before it
the fixed `reference` computation is timed too, so that every item time has
a reading of the machine's speed at that moment beside it.  The item's
output is checked against the expected outcome right after, outside the
timed region.
Passes over the fixed item list repeat while another pass still fits in
`--seconds` (at least one runs).  With `--trace 1` half the time runs
untraced and then one pass runs with the tracer installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

_PAIRS_RE = re.compile(r"^pairs checked: (\d+)$", re.M)
_VERDICT_RE = re.compile(r"^verdict: (yes|no) ", re.M)


def reference():
    """A fixed computation, independent of lenalg, used as a unit of time.

    The normalised metrics are item times divided by the time of this
    function, measured next to them, so this body must never change.  It
    does the kinds of work lenalg spends its time on: Fraction arithmetic
    and a loop of small-integer operations.
    """
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3)
    s = 0
    for i in range(3000):
        s += i * i % 7
    return acc, s


def time_reference():
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


def run_item(main, argv, text):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed item, not a failed run
                rc = "crash"
                err.write(traceback.format_exc())
            dt = time.perf_counter() - t
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue(), dt


def check_output(item, rc, out):
    """Return (failure reason or None, work units) for one item's output.

    Work units are the pairs an oracle reports as checked and the subspaces
    a length report examined; zero for other commands.
    """
    kind, expect = item["check"], item["expect"]
    if rc == "crash":
        return "uncaught exception", 0
    if kind == "check":
        want = 0 if expect["verdict"] else 1
        if rc != want:
            return f"exit code {rc}, expected {want}", 0
        report = json.loads(out)
        if report.get("verdict") is not expect["verdict"]:
            return f"verdict {report.get('verdict')}", 0
        if "step" in expect and expect["step"] not in report.get("path", []):
            return f"path {report.get('path')} lacks {expect['step']}", 0
        return None, 0
    if kind == "verify":
        if rc != 0 or out.strip() != "certificate: valid":
            return f"certificate not valid (exit {rc})", 0
        return None, 0
    if kind == "oracle":
        want = 0 if expect["verdict"] else 1
        verdict = _VERDICT_RE.search(out)
        pairs = _PAIRS_RE.search(out)
        if rc != want or verdict is None or pairs is None:
            return f"exit code {rc}, expected {want}", 0
        if (verdict.group(1) == "yes") is not expect["verdict"]:
            return f"verdict {verdict.group(1)}", 0
        checked = int(pairs.group(1))
        if "pairs" in expect and checked != expect["pairs"]:
            return f"{checked} pairs checked, expected {expect['pairs']}", 0
        return None, checked
    if kind == "length":
        if rc != 0:
            return f"exit code {rc}", 0
        report = json.loads(out)
        examined = report["certificate"]["subspaces_examined"]
        if report.get("value") != expect["value"]:
            return f"l(A) = {report.get('value')}, expected {expect['value']}", 0
        if examined != expect["subspaces"]:
            return f"{examined} subspaces, expected {expect['subspaces']}", 0
        return None, examined
    if kind == "identities":
        if rc != 0:
            return f"exit code {rc}", 0
        report = json.loads(out)
        if report.get("length_one") is not expect["length_one"]:
            return f"length_one {report.get('length_one')}", 0
        if not all(isinstance(v.get("holds"), (bool, type(None)))
                   for v in report["identities"].values()):
            return "identity verdict missing", 0
        return None, 0
    if kind == "length-set":
        if rc != 0:
            return f"exit code {rc}", 0
        report = json.loads(out)
        cert = report["certificate"]
        dims = cert["dims"]
        # l(S) is the first index at which the word-span dimensions reach
        # their final value; the set must be the one that was asked for.
        if (len(cert["vectors"]) != expect["set_size"]
                or dims != sorted(dims)
                or report.get("value") != dims.index(dims[-1])
                or cert["generates"] is not (dims[-1] == report["algebra"]["dim"])):
            return "inconsistent set-length report", 0
        return None, 0
    raise ValueError(f"unknown check {kind!r}")


class Loop:
    """Runs passes over the item list and keeps what the metrics need."""

    def __init__(self, main, inputs):
        self.main = main
        self.docs = inputs["docs"]
        self.items = inputs["items"]
        self.attempted = 0
        self.failures = []
        self.pass_s = []
        self.item_ms = []
        self.ref_ms = []
        self.work = {"oracle": [0, 0.0], "length": [0, 0.0]}

    def run_pass(self, keep_times=True):
        prev = ""
        wall = 0.0
        for item in self.items:
            text = self.docs[item["doc"]] if item["stdin"] == "doc" else prev
            ref = time_reference()
            rc, out, err, dt = run_item(self.main, item["argv"], text)
            wall += dt
            self.attempted += 1
            try:
                reason, units = check_output(item, rc, out)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                reason, units = f"unreadable output: {exc!r}", 0
            if reason is not None:
                self.failures.append({"argv": item["argv"], "doc": item["doc"],
                                      "reason": reason, "stderr": err[-2000:]})
            if keep_times:
                self.item_ms.append(dt * 1000.0)
                self.ref_ms.append(ref * 1000.0)
                if item["check"] in self.work:
                    acc = self.work[item["check"]]
                    acc[0] += units
                    acc[1] += dt
            prev = out
        if keep_times:
            self.pass_s.append(wall)
        return wall

    def run_for(self, seconds):
        """Run passes while the next one, as long as the last, still fits."""
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            self.run_pass()
            now = time.perf_counter()
            if now - start + (now - t) > seconds:
                return


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("inputs")
    ap.add_argument("out")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import lenalg.cli
    cli = sys.modules["lenalg.cli"]
    rc, _, err, _ = run_item(cli.main, ["check", "--json", "-"], inputs["warmup"])
    setup_s = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"warm-up item failed: {err}")
    result = {"setup_s": setup_s,
              "lenalg_file": str(Path(lenalg.__file__).resolve())}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0

    # Look `main` up on every call: the tracer replaces it with a wrapper.
    loop = Loop(lambda a: cli.main(a), inputs)
    loop.run_for(args.seconds / 2 if args.trace else args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_s = loop.run_pass(keep_times=False)
        finally:
            restored = tracer.uninstall()
        result["traced_pass_s"] = traced_s
        result["hooks_restored"] = restored
        result["missing_hooks"] = tracer.missing
        result["per_layer"] = tracer.metrics()
        tracer.write_spans(Path(args.out).with_name("spans.bin"))
    result.update({"attempted": loop.attempted, "failures": loop.failures,
                   "pass_s": loop.pass_s, "item_ms": loop.item_ms,
                   "ref_ms": loop.ref_ms,
                   "work": loop.work})
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
