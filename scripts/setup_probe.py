"""Time the set-up of a lenalg process, as the benchmark's `setup_s` does.

Each probe is a fresh Python process that imports `lenalg.cli` and runs one
`check --json` on a Q dim-2 `make random-l1 --hide` document, timed from
before the import to the end of the check.  The probes run one after
another with PYTHONDONTWRITEBYTECODE=1, so every process compiles
`src/lenalg` afresh.  Then the compile time of `src/lenalg` alone: the best
of 5 passes of `compile()` over its files.  It prints, and it checks no
figure against a threshold.

Usage: python3 scripts/setup_probe.py [--probes N] [--src DIR]
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import lenalg.cli
stdout, sys.stdin, sys.stdout = sys.stdout, io.StringIO({doc!r}), io.StringIO()
code = lenalg.cli.main(["check", "--json", "-"])
elapsed = time.perf_counter() - t0
sys.stdout = stdout
print(code, elapsed)
"""


def run(src, *args, code=None):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    argv = [sys.executable, "-c", code] if code else [sys.executable, "-m", "lenalg", *args]
    return subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout


def compile_seconds(src):
    """(lines, best of 5 passes of compile() over the package's files)."""
    sources = [(str(p), p.read_text(encoding="utf-8"))
               for p in sorted((src / "lenalg").glob("*.py"))]
    best = None
    for _ in range(5):
        t = time.perf_counter()
        for path, text in sources:
            compile(text, path, "exec")
        elapsed = time.perf_counter() - t
        best = elapsed if best is None else min(best, elapsed)
    return sum(text.count("\n") for _, text in sources), best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--probes", type=int, default=15, help="fresh processes (default 15)")
    ap.add_argument("--src", type=Path, default=SRC, help="directory holding lenalg/")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    doc = run(src, "make", "random-l1", "--field", "Q", "--dim", "2", "--hide")
    times = []
    for _ in range(args.probes):
        code, elapsed = run(src, code=CHILD.format(src=str(src), doc=doc)).split()
        if code != "0":
            sys.exit(f"the check exited with {code}")
        times.append(float(elapsed))
    ms = [1000 * t for t in times]
    q1, median, q3 = (statistics.quantiles(ms, n=4, method="inclusive")
                      if len(ms) > 1 else ms * 3)
    print(f"set-up, {len(ms)} fresh processes: median {median:.1f} ms, "
          f"quartiles {q1:.1f}-{q3:.1f} ms, range {min(ms):.1f}-{max(ms):.1f} ms")
    lines, seconds = compile_seconds(src)
    print(f"compile() of src/lenalg ({lines} lines): {1000 * seconds:.1f} ms, best of 5")
    return 0


if __name__ == "__main__":
    sys.exit(main())
