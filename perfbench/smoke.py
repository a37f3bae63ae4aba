"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json once untraced and twice traced with
`--tiny`, and checks that:

* every metric BENCHMARK.json names is emitted, with its unit;
* no item failed (`failed_frac == 0`);
* the two traced runs give identical counts (`*.calls` and the ratios made
  of counts);
* `src/lenalg` was imported from this checkout, unmodified, and every
  patched attribute was restored after tracing;
* without `src/` the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, SRC, src_digest  # noqa: E402

COUNT_SUFFIXES = (".calls", "basis_pair_frac", "generating_frac")


def run_bench(workload, trace, script=HERE / "run.py", check=True):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    return result


def assert_metrics(result, specs):
    for spec in specs:
        metric = result["metrics"].get(spec["name"])
        assert metric is not None, f"missing metric {spec['name']}"
        assert metric["unit"] == spec["unit"], (spec, metric)
        assert isinstance(metric["value"], (int, float)), metric


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    digest = src_digest()
    for workload in (w["name"] for w in bench["workloads"]):
        assert_metrics(run_bench(workload, 0), bench["end_to_end"])
        first = run_bench(workload, 1)
        second = run_bench(workload, 1)
        for traced in (first, second):
            assert_metrics(traced, bench["per_layer"])
        assert counts(first) == counts(second), (counts(first), counts(second))
        record = json.loads((OUT / f"{workload}-seed1-trace1-tiny" / "record.json")
                            .read_text(encoding="utf-8"))
        assert record["hooks_restored"], record
        assert record["missing_hooks"] == [], record["missing_hooks"]
        assert record["lenalg_src_unmodified"], record
        assert Path(record["lenalg_file"]) == SRC / "lenalg" / "__init__.py"
        print(f"ok  {workload}: {len(first['metrics'])} per-layer metrics, "
              f"counts repeat")
    assert src_digest() == digest, "src/lenalg changed during the smoke test"

    # A directory with only the benchmark must refuse to run.
    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("decide-q", 0, script=bare / HERE.name / "run.py",
                     check=False)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout.strip() == "", proc
    print("ok  without src/ the benchmark exits", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
