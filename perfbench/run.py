"""pdfprov benchmark: one workload, end-to-end metrics or per-layer spans.

Run from the root of a checkout (the directory that holds ``src/pdfprov``):

    python3 perfbench/run.py --workload fixture-corpus --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/METRICS.md`` for why each was chosen):
fixture-corpus, large-synthetic, adversarial-scaling, mine-corpus.

The workload runs in its own child process (``workload.py``), so its peak
memory is its own; ``setup_s`` is measured in further fresh interpreters.
Each line before the last names a metric, its value and its unit, then the
output digests.  The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is
0 only when the run finished and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, reference_s

WORKLOADS = ("fixture-corpus", "large-synthetic", "adversarial-scaling", "mine-corpus")
# The whole run must end within this many seconds.
DEADLINE_S = 170
# Fresh interpreters timed before and again after the workload, so that
# setup_s samples two points of the run rather than one.
SETUP_SAMPLES = 5
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import pdfprov\n"
    "pdfprov.builtin()\n"
    "print(time.perf_counter() - start)\n"
)


def setup_samples(root: Path, count: int) -> list[float]:
    """Times to import pdfprov and build the builtin pack, each in a fresh
    interpreter, scaled by the reference workload run just before it (see
    ``calibrate``)."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    samples = []
    for _ in range(count):
        reference = statistics.median(reference_s() for _ in range(5))
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=root, env=env,
                               capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(probe.stdout) * NOMINAL_S / reference)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "pdfprov" / "__init__.py").is_file():
        print("perfbench: run from the root of a pdfprov checkout (no src/pdfprov here)",
              file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent
    out = root / ".perfbench" / f"{args.workload}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)

    # The first start writes bytecode caches and is not recorded.
    setup = setup_samples(root, SETUP_SAMPLES + 1)[1:] if not args.trace else []
    child = subprocess.run(
        [sys.executable, str(here / "workload.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out)],
        cwd=root, capture_output=True, text=True,
        timeout=DEADLINE_S - (time.monotonic() - started),
    )
    sys.stderr.write(child.stderr)
    if child.returncode != 0 or not child.stdout.strip():
        print(f"perfbench: workload process failed with code {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.strip().splitlines()[-1])

    metrics = result["metrics"]
    if not args.trace:
        setup += setup_samples(root, SETUP_SAMPLES)
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        share = result["scan_failures"] / result["scans"] if result["scans"] else 0.0
        print(f"{'failed_share':32} {share:>14.6g} share ({result['scans']} scans)")
    for name, digest in sorted(result["digests"].items()):
        print(f"sha256 {name:25} {digest}")
    for problem in result["checks"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
