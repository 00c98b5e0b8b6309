"""Quick self-check of the benchmark at tiny sizes; takes a few seconds.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It checks that the same seed gives byte-identical inputs and another seed
different ones, that every metric ``BENCHMARK.json`` declares is emitted
with its unit on every workload (end-to-end with tracing off, per-layer
with tracing on), that every output check passes, and that both modes
write the same output digests.  Exits 1 on the first failure.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workload  # noqa: E402
from run import setup_samples  # noqa: E402

TINY = {
    "fixture-corpus": lambda seed: inputs.fixture_corpus(seed, per_profile=2),
    "large-synthetic": lambda seed: inputs.large_synthetic(
        seed, objects=6, steps=3, payload_range=(16, 64)),
    "adversarial-scaling": lambda seed: inputs.adversarial_scaling(
        seed, objects={"no-endobj": 6, "keyword-per-object": 6}, steps=3, mine_objects=4),
    "mine-corpus": lambda seed: inputs.mine_corpus(seed, per_profile=2),
}


def input_digest(made: inputs.Inputs) -> str:
    h = hashlib.sha256()
    for doc in made.scan + made.mine:
        h.update(f"{doc.name}\t{doc.label}\t{doc.family}\t{doc.step}\n".encode())
        h.update(doc.data)
    return h.hexdigest()


def fail(message: str) -> int:
    print(f"selfcheck: FAILED: {message}")
    return 1


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if set(TINY) != {w["name"] for w in declared["workloads"]}:
        return fail("workloads differ from BENCHMARK.json")
    units = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"] if m["name"] != "setup_s"},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    if not min(setup_samples(ROOT, 2)) > 0:
        return fail("setup_s is not positive")
    for name, make in TINY.items():
        if input_digest(make(3)) != input_digest(make(3)):
            return fail(f"{name}: one seed gave two different inputs")
        if input_digest(make(3)) == input_digest(make(4)):
            return fail(f"{name}: two seeds gave the same inputs")
        digests = []
        for trace in (False, True):
            out = ROOT / ".perfbench" / "selfcheck" / f"{name}-trace{int(trace)}"
            out.mkdir(parents=True, exist_ok=True)
            result = workload.execute(name, make(3), out, seconds=0.05, trace=trace, min_scans=10)
            if not result["correct"]:
                return fail(f"{name}: output checks failed: {result['checks']}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != units[trace]:
                return fail(f"{name}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got) ^ set(units[trace]))}")
            digests.append(result["digests"])
        if digests[0] != digests[1]:
            return fail(f"{name}: traced and untraced runs wrote different outputs")
        print(f"selfcheck: {name} ok")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
