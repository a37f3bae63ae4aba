"""Layered end-to-end benchmark of the lenalg CLI.

    python3 perfbench/run.py --workload decide-q --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32

Run from any directory; the benchmark measures the `src/lenalg` next to this
directory and writes only under `.bench_out/` at the repository root.  For
each workload it:

1. builds the documents and expected outcomes from `--seed`, in this
   process, so the measured process only ever receives documents;
2. times set-up (import plus one warm-up item) in twelve fresh processes
   and in the workload process, and reports the median;
3. starts one workload process (`worker.py`) that runs the fixed item list
   in a closed loop, one client and one thread, and checks every output;
4. prints a summary, and as its last line one JSON object with the
   end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

The gated run-time metrics are normalised: each item time is divided by the
time of a fixed reference computation (`worker.reference`) timed next to it,
so they are in `ref` units and a host that runs everything slower for a
while moves them far less than it moves seconds.  The summary also prints
the same figures in seconds and milliseconds as measured.

The end-to-end metrics always come from untraced passes.  With `--trace 1`
the workload process also runs one pass with `tracing.Tracer` installed and
reports its counts and self times, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("decide-q", "sweep-ff", "cli-mixed")
# Fresh processes that time set-up, half before and half after the workload
# process, so that they sample the machine at two different times.
SETUP_PROBES = 12
WORKER_TIMEOUT_S = 160
# Items on either side whose reference runs give an item its reference time.
REF_WINDOW = 2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "lenalg").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def lenalg_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_worker(inputs, out, *extra):
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(inputs), str(out), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload process exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"workload process exited with {proc.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))
    if Path(result["lenalg_file"]) != SRC / "lenalg" / "__init__.py":
        fail(f"imported lenalg from {result['lenalg_file']}, not {SRC}")
    return result


def quantile(values, q):
    """Linear-interpolated quantile (0 < q < 1) of the values."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def median_per_item(values, n_items):
    """Each item's median over the passes, in item-list order."""
    passes = len(values) // n_items
    return [statistics.median(values[i + k * n_items] for k in range(passes))
            for i in range(n_items)]


def normalised(item_ms, ref_ms):
    """Each item time in reference units.

    An item's reference time is the median of the reference runs timed just
    before the REF_WINDOW items on either side of it and itself, which
    follows the host's speed over a few seconds without the noise of one
    short reading.
    """
    k = REF_WINDOW
    return [t / statistics.median(ref_ms[max(0, j - k):j + k + 1])
            for j, t in enumerate(item_ms)]


def end_to_end(setups, res, n_items):
    """All end-to-end figures of one run, as {name: (value, unit)}.

    wall_ref is the median over the passes of a pass's summed item costs in
    reference units, and the item percentiles are taken over each item's
    median cost over the passes; wall_s and item_ms_* are the same figures
    from the measured times.  setup_s is the median set-up.  The record
    keeps every set-up, item and reference time.
    """
    cost = normalised(res["item_ms"], res["ref_ms"])
    passes = len(cost) // n_items
    pass_cost = [sum(cost[k * n_items:(k + 1) * n_items]) for k in range(passes)]
    item_cost = median_per_item(cost, n_items)
    item_ms = median_per_item(res["item_ms"], n_items)
    work = res["work"]
    pairs, oracle_s = work["oracle"]
    subspaces, length_s = work["length"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_ref": (statistics.median(pass_cost), "ref"),
        "item_ref_p50": (quantile(item_cost, 0.5), "ref"),
        "item_ref_p90": (quantile(item_cost, 0.9), "ref"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "wall_s": (statistics.median(res["pass_s"]), "s"),
        "item_ms_p50": (quantile(item_ms, 0.5), "ms"),
        "item_ms_p90": (quantile(item_ms, 0.9), "ms"),
        "ref_ms": (statistics.median(res["ref_ms"]), "ms"),
        "failed_frac": (len(res["failures"]) / res["attempted"], "ratio"),
        "pairs_per_s": (pairs / oracle_s if oracle_s else 0.0, "pairs/s"),
        "subspaces_per_s": (subspaces / length_s if length_s else 0.0,
                            "subspaces/s"),
    }


# The end-to-end metrics of the JSON line, as named in BENCHMARK.json.
GATED = ("setup_s", "wall_ref", "item_ref_p50", "item_ref_p90", "peak_rss_mb")


def run_workload(name, seed, seconds, trace, tiny):
    """Measure one workload; return (metrics, attempted, failed, record)."""
    # Imported here: both need `src` on sys.path, which main() checks first.
    from workloads import build, yes_instance
    from lenalg import make_field, render_document

    t = time.perf_counter()
    w = build(name, seed, tiny)
    warm, _ = yes_instance(make_field("Q"), 2, seed, 0)
    gen_s = time.perf_counter() - t
    run_dir = OUT / f"{name}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = run_dir / "inputs.json"
    inputs.write_text(json.dumps({"docs": w.docs, "items": w.items,
                                  "warmup": render_document(warm)}),
                      encoding="utf-8")
    digest_before = src_digest()

    def probe_setup(first):
        return [run_worker(inputs, run_dir / f"setup{i}.json", "--setup-only")
                ["setup_s"] for i in range(first, first + SETUP_PROBES // 2)]

    setups = [] if trace else probe_setup(0)
    res = run_worker(inputs, run_dir / "result.json",
                     "--seconds", str(seconds), "--trace", str(trace))
    setups.append(res["setup_s"])
    if not trace:
        setups += probe_setup(SETUP_PROBES // 2)
    e2e = end_to_end(setups, res, len(w.items))

    if trace:
        metrics = {k: tuple(v) for k, v in res["per_layer"].items()}
        metrics["trace.overhead_frac"] = (
            res["traced_pass_s"] / e2e["wall_s"][0] - 1.0, "ratio")
        metrics["pairs_per_s"] = e2e["pairs_per_s"]
        metrics["subspaces_per_s"] = e2e["subspaces_per_s"]
    else:
        metrics = {k: e2e[k] for k in GATED}

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "inputs": w.summary(),
        "input_generation_s": gen_s,
        "setup_probes_s": setups,
        "pass_s": res["pass_s"],
        "passes": len(res["pass_s"]),
        "items_timed": len(res["item_ms"]),
        "attempted": res["attempted"],
        "failures": res["failures"],
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "machine": {
            "python": sys.version,
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
        },
        "lenalg_commit": lenalg_commit(),
        "lenalg_src_sha256": digest_before,
        "lenalg_src_unmodified": src_digest() == digest_before,
        "lenalg_file": res["lenalg_file"],
    }
    if trace:
        record.update(hooks_restored=res["hooks_restored"],
                      missing_hooks=res["missing_hooks"],
                      traced_pass_s=res["traced_pass_s"],
                      spans_file=str((run_dir / "spans.bin").relative_to(ROOT)))
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n",
                                         encoding="utf-8")
    return metrics, res["attempted"], len(res["failures"]), record


def print_summary(record):
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['passes']} passes, {record['items_timed']} timed items, "
          f"{record['attempted']} attempted)")
    for key in ("summary", "metrics") if record["trace"] else ("summary",):
        for name, m in record[key].items():
            print(f"   {name:34s} {m['value']:>14.6g} {m['unit']}")
    for f in record["failures"][:5]:
        print(f"   FAILED {' '.join(f['argv'])} doc {f['doc']}: {f['reason']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "lenalg" / "__init__.py").is_file():
        fail(f"no lenalg sources under {SRC}")
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        metrics, attempted, failed, record = run_workload(
            name, args.seed, args.seconds, args.trace, args.tiny)
        print_summary(record)
        results[name] = {
            "correct": (failed == 0 and record["lenalg_src_unmodified"]
                        and record.get("hooks_restored", True)),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    sys.stdout.flush()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
