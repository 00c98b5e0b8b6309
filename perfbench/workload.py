"""Run one benchmark workload in this process and print its raw results.

``run.py`` starts this file in a child process per workload, so that the
workload's peak memory is its own.  It must be run from the root of a
checkout, which holds ``src/pdfprov``:

    python3 perfbench/workload.py --workload fixture-corpus --seed 1 \
        --seconds 20 --trace 0 --out .perfbench/fixture-corpus-1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed``, ``metrics`` (value and unit per metric),
``checks`` (the output checks that failed) and ``digests``.

Load comes from this single process: the closed loop has one client, and
``batch`` runs with ``--jobs 1`` (and also ``--jobs 2`` in traced runs, so
at most 2 threads).  With ``--trace 0`` the end-to-end metrics
are measured with no spans recorded; with ``--trace 1`` the same pipeline
runs with spans around every layer and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path.cwd() / "src"))

import pdfprov  # noqa: E402
from pdfprov import cli  # noqa: E402
from pdfprov.builtin_pack import build_rules, builtin  # noqa: E402
from pdfprov.detector import classify  # noqa: E402
from pdfprov.errors import SectionAbsentEverywhere  # noqa: E402
from pdfprov.miner import (  # noqa: E402
    LabeledCorpus,
    emit_rulepack,
    mine,
    mine_all,
    uniform_group_labels,
)
from pdfprov.report import CSV_COLUMNS, BatchStats, csv_row  # noqa: E402
from pdfprov.rules import SECTION_ORDER, RuleKind, load_rulepack, section_elements  # noqa: E402
from pdfprov.segmenter import parse_header  # noqa: E402

import inputs  # noqa: E402
from calibrate import NOMINAL_S, reference_s  # noqa: E402
from tracing import Tracer, traced_scan  # noqa: E402

# Share of --seconds the traced run spends on scan passes.
SCAN_SHARE = 0.6
# The end-to-end batch runs with one job.  With two, batch throughput on a
# shared 2-vCPU host swings by up to 2x between runs (each GIL hand-off
# waits for the other vCPU to be scheduled), beyond any usable bound; the
# traced run measures the two-job pool against it as cli.jobs2_speedup.
BATCH_JOBS = 1
# p90 needs at least 100 scans, so that at least 10 samples lie beyond it.
MIN_SCANS = 100
MIN_REPEATS = 3
# Files that must get their label as verdict.  Adversarial files only
# report accuracy: their shapes are chosen to cost time, not to be named.
LABEL_CHECKED = {"fixture-corpus", "large-synthetic", "mine-corpus"}


class Run:
    """Outputs and check results of one workload run."""

    def __init__(self, name: str, inputs_: inputs.Inputs, out: Path, seconds: float,
                 min_scans: int = MIN_SCANS) -> None:
        self.name = name
        self.inputs = inputs_
        self.out = out
        self.seconds = seconds
        self.min_scans = min_scans
        self.attempted = 0
        self.failed = 0
        self.scan_failures = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict[str, object]] = {}
        self.digests: dict[str, str] = {}
        self.scan_manifest = write_corpus(inputs_.scan, out / "scan")
        self.mine_manifest = write_corpus(inputs_.mine, out / "mine")
        self.pack_path: Path | None = None
        self.accuracy = 0.0
        self.scans = 0

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.problems) < 50:
            self.problems.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def scan(self, doc: inputs.Doc, pack):
        """One closed-loop scan; a scan that raises is counted, not fatal."""
        self.attempted += 1
        try:
            return cli.scan_bytes(doc.name, doc.data, pack)
        except Exception:  # the run must go on and report the failure
            self.failed += 1
            self.scan_failures += 1
            if self.scan_failures == 1:
                traceback.print_exc(file=sys.stderr)
            return None

    # -- shared steps ------------------------------------------------------

    def mine_once(self) -> str:
        corpus = LabeledCorpus.from_manifest(self.mine_manifest)
        text = emit_rulepack(mine_all(corpus), "mined", uniform_group_labels(corpus))
        load_rulepack(text)  # a mined pack must always re-load
        return text

    def load_pack(self, mined_text: str):
        if not self.inputs.scan_with_mined_pack:
            return builtin()
        self.pack_path = self.out / "mined.rules"
        self.pack_path.write_text(mined_text, encoding="utf-8")
        return load_rulepack(mined_text, name=self.pack_path.name)

    def reference(self, pack) -> list:
        """One untimed scan per file: the reports every later run must equal."""
        reports = [self.scan(doc, pack) for doc in self.inputs.scan]
        right = 0
        for doc, report in zip(self.inputs.scan, reports):
            verdict = report.producer if report else None
            right += verdict == doc.label
            if self.name in LABEL_CHECKED:
                self.check(verdict == doc.label, f"{doc.name}: verdict {verdict}, label {doc.label}")
        self.accuracy = right / len(reports)
        self.digests["reports"] = sha256("\n".join(r.to_json() if r else "null" for r in reports))
        return reports

    def batch_argv(self, jobs: int) -> list[str]:
        argv = ["batch", str(self.scan_manifest), "--format", "csv", "--jobs", str(jobs)]
        if self.pack_path:
            argv += ["--pack", str(self.pack_path)]
        return argv

    def batch_once(self, jobs: int = BATCH_JOBS) -> tuple[float, str]:
        buffer = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(self.batch_argv(jobs))
        wall = perf_counter() - start
        self.check(code == 0, f"batch exit code {code}")
        return wall, buffer.getvalue()

    def check_batch_csv(self, text: str, reports: list) -> None:
        """The batch CSV must say what the closed-loop reports say."""
        self.digests["csv"] = sha256(text)
        rows = {row["file"]: row for row in csv.DictReader(io.StringIO(text))}
        self.check(len(rows) == len(reports), f"batch CSV has {len(rows)} rows")
        compared = [c for c in CSV_COLUMNS if c not in ("truth", "file_class")]
        for doc, report in zip(self.inputs.scan, reports):
            row = rows.get(doc.name)
            if row is None or report is None:
                self.check(False, f"{doc.name}: missing from batch CSV or closed loop")
                continue
            self.attempted += 1
            if row["verdict"] == "error":
                self.failed += 1
            expected = dict(zip(CSV_COLUMNS, csv_row(report)))
            self.check(all(row[c] == expected[c] for c in compared),
                       f"{doc.name}: batch CSV row differs from its scan report")
            self.check(row["truth"] == doc.label, f"{doc.name}: batch truth {row['truth']}")

    def finish_mine(self, texts: list[str]) -> None:
        self.attempted += len(texts)
        self.check(len(set(texts)) == 1, "mined pack text differs between repeats")
        self.digests["mined_pack"] = sha256(texts[0])

    def write_digests(self) -> None:
        (self.out / "digests.json").write_text(json.dumps(self.digests, indent=2) + "\n")


def write_corpus(docs: list[inputs.Doc], directory: Path) -> Path:
    """Write ``docs`` and their manifest, replacing an earlier run's corpus."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for doc in docs:
        path = directory / doc.name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(doc.data)
    manifest = directory / "manifest.tsv"
    manifest.write_text("".join(f"{d.name}\t{d.label}\n" for d in docs), encoding="utf-8")
    return manifest


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def repeat(step, budget_s: float, minimum: int = MIN_REPEATS) -> list:
    """Call ``step`` until ``budget_s`` has passed and ``minimum`` calls ran."""
    results = []
    start = perf_counter()
    while len(results) < minimum or perf_counter() - start < budget_s:
        results.append(step())
    return results


# -- End-to-end run (--trace 0) ------------------------------------------------


# Each phase's share of an end-to-end run's time.
SHARES = {"scan": 1 / 3, "batch": 1 / 3, "mine": 1 / 3}


def run_end_to_end(run: Run) -> None:
    """Closed-loop scan passes, batches and minings, interleaved.

    CPU speed on a shared host drifts by 10-20% over tens of seconds, so
    every metric samples the whole run rather than one phase of it: the
    next step is always the phase furthest behind its share of the time.
    Once ``--seconds`` have passed, only phases short of their minimum
    repeats run.  The reference workload runs before every step, and times
    are scaled by its median (see ``calibrate``).
    """
    docs = run.inputs.scan
    text = run.mine_once()
    pack = run.load_pack(text)
    reference = run.reference(pack)
    warm_batch = run.batch_once()
    run.check_batch_csv(warm_batch[1], reference)

    latencies: dict[str, list[float]] = {doc.name: [] for doc in docs}
    all_latencies: list[float] = []
    pass_seconds: list[float] = []
    references: list[float] = []
    batches: list[tuple[float, str]] = []
    mined: list[tuple[float, str]] = []
    done = {"scan": pass_seconds, "batch": batches, "mine": mined}
    minimum = {"scan": max(MIN_REPEATS, -(-run.min_scans // len(docs))),
               "batch": MIN_REPEATS, "mine": MIN_REPEATS}
    spent = dict.fromkeys(SHARES, 0.0)
    start = perf_counter()
    while True:
        if perf_counter() - start < run.seconds:
            phase = min(SHARES, key=lambda p: spent[p] / SHARES[p])
        else:
            short = [p for p in SHARES if len(done[p]) < minimum[p]]
            if not short:
                break
            phase = short[0]
        gc.collect()
        references.append(reference_s())
        t0 = perf_counter()
        if phase == "scan":
            total = 0.0
            for doc, expected in zip(docs, reference):
                t1 = perf_counter()
                report = run.scan(doc, pack)
                dt = perf_counter() - t1
                total += dt
                latencies[doc.name].append(dt)
                all_latencies.append(dt)
                run.check(report == expected, f"{doc.name}: report changed between scans")
            pass_seconds.append(total)
        elif phase == "batch":
            batches.append(run.batch_once())
        else:
            mined.append(timed(run.mine_once))
        spent[phase] += perf_counter() - t0
    run.check(len({t for _, t in batches + [warm_batch]}) == 1, "batch CSV differs between repeats")
    run.finish_mine([text] + [t for _, t in mined])

    # Times as on a host where the reference takes calibrate.NOMINAL_S.
    scale = NOMINAL_S / statistics.median(references)
    pass_s = statistics.median(pass_seconds) * scale
    mb = sum(len(doc.data) for doc in docs) / 1e6
    # Pair the n and 2n scans of the same pass, so that drift in CPU speed
    # between passes cancels out of each ratio.
    ratios = [statistics.median(b / a for a, b in zip(latencies[small], latencies[big]))
              for small, big in run.inputs.scaling_pairs().values()]
    run.metric("files_per_s", len(docs) / pass_s, "1/s")
    run.metric("mb_per_s", mb / pass_s, "MB/s")
    run.metric("scan_p50_ms", statistics.median(all_latencies) * scale * 1e3, "ms")
    run.metric("scan_p90_ms", statistics.quantiles(all_latencies, n=10)[8] * scale * 1e3, "ms")
    run.metric("batch_files_per_s",
               len(docs) / (statistics.median(w for w, _ in batches) * scale), "1/s")
    run.metric("mine_s", statistics.median(s for s, _ in mined) * scale, "s")
    run.metric("scaling_ratio", max(ratios), "ratio")
    run.metric("accuracy", run.accuracy, "share")
    run.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    run.scans = len(all_latencies)


def timed(step):
    start = perf_counter()
    result = step()
    return perf_counter() - start, result


# -- Traced run (--trace 1) ----------------------------------------------------


def run_traced(run: Run) -> None:
    docs = run.inputs.scan
    tracer = Tracer()
    rules_text = (Path(pdfprov.__file__).parent / "builtin.rules").read_text(encoding="utf-8")
    budget = run.seconds * 0.05

    def pack_probe():
        tracer.begin("rules.load_rulepack")
        load_rulepack(rules_text, name="builtin.rules")
        tracer.end()
        tracer.begin("builtin_pack.build_rules")
        build_rules()
        tracer.end()

    repeat(pack_probe, budget)

    candidates: dict[str, int] = {}

    def mine_traced() -> str:
        tracer.begin("miner.run")
        tracer.begin("miner.load_corpus")
        corpus = LabeledCorpus.from_manifest(run.mine_manifest)
        tracer.end()
        merged: dict[str, list] = {p: [] for p in corpus.groups}
        for section in SECTION_ORDER:
            tracer.begin(f"miner.mine.{section.value}")
            try:
                mined = mine(corpus, section)
            except SectionAbsentEverywhere:
                mined = {}
            tracer.end()
            candidates[section.value] = sum(len(c) for c in mined.values())
            for producer, cands in mined.items():
                merged[producer].extend(cands)
        tracer.begin("miner.emit")
        text = emit_rulepack(merged, "mined", uniform_group_labels(corpus))
        tracer.end()
        tracer.begin("miner.reload")
        load_rulepack(text)
        tracer.end()
        tracer.end()
        return text

    texts = repeat(mine_traced, run.seconds * 0.1, minimum=1)
    run.finish_mine(texts)
    run.check(texts[0] == run.mine_once(), "traced mining differs from mine_all")
    pack = run.load_pack(texts[0])
    reference = run.reference(pack)

    # Untraced per-file scan times, the base of the tracing overhead.  An
    # untraced and a traced pass alternate, so both see the same CPU speed.
    gc.collect()
    untraced: list[list[float]] = [[] for _ in docs]

    def untraced_pass():
        for i, doc in enumerate(docs):
            t0 = perf_counter()
            run.scan(doc, pack)
            untraced[i].append(perf_counter() - t0)

    # The last traced pass's (sections, matches, verdict) for every file.
    last: list[tuple] = [()] * len(docs)
    scan_paths = [run.scan_manifest.parent / doc.name for doc in docs]

    def traced_pass():
        for i, doc in enumerate(docs):
            run.attempted += 1
            report, sections, matches, verdict = traced_scan(tracer, i, doc.name, doc.data, pack)
            last[i] = (sections, matches, verdict)
            run.check(report == reference[i], f"{doc.name}: traced report differs from scan_bytes")
            tracer.begin("segmenter.parse_header", i)
            parse_header(doc.data)
            tracer.end()
            tracer.begin("report.to_dict", i)
            report.to_dict()
            tracer.end()
            tracer.begin("report.to_json", i)
            report.to_json()
            tracer.end()
            tracer.begin("report.csv_row", i)
            csv_row(report, doc.label)
            tracer.end()
            tracer.begin("cli.read", i)
            scan_paths[i].read_bytes()
            tracer.end()

    repeat(lambda: (untraced_pass(), traced_pass()), run.seconds * SCAN_SHARE)

    def batch_stats():
        tracer.begin("report.batch_stats")
        stats = BatchStats()
        for doc, (_, _, verdict) in zip(docs, last):
            stats.add(doc.label, verdict.kind.value, verdict.producer,
                      classify(verdict, doc.label), bool(verdict.os_candidates))
        stats.render_tables()
        tracer.end()

    repeat(batch_stats, budget)

    gc.collect()
    # One-job and two-job batches alternate, so each pair sees the same
    # CPU speed; both must print the same CSV.
    batches = repeat(lambda: (run.batch_once(), run.batch_once(jobs=2)), run.seconds * 0.1)
    run.check_batch_csv(batches[0][0][1], reference)
    run.check(all(one[1] == two[1] for one, two in batches), "--jobs 2 CSV differs from --jobs 1")
    run.metric("cli.jobs2_speedup",
               statistics.median(one[0] / two[0] for one, two in batches), "ratio")

    layer_metrics(run, tracer, pack, last, untraced, candidates,
                  statistics.median(one[0] for one, _ in batches))
    tracer.write(run.out / "spans.jsonl")


# Per-layer time metrics: metric name -> (span name, unit).
SPAN_METRICS = {
    "segmenter.segment_us": ("segmenter.segment", "us"),
    "segmenter.parse_header_us": ("segmenter.parse_header", "us"),
    **{f"rules.match_us.{k.value}": (f"rules.match.{k.value}", "us") for k in SECTION_ORDER},
    "rules.load_rulepack_us": ("rules.load_rulepack", "us"),
    "builtin_pack.build_rules_us": ("builtin_pack.build_rules", "us"),
    "detector.vote_us": ("detector.vote", "us"),
    "detector.detect_os_us": ("detector.detect_os", "us"),
    "metadata.extract_declared_us": ("metadata.extract_declared", "us"),
    "metadata.consistency_us": ("metadata.consistency", "us"),
    "report.build_us": ("report.build", "us"),
    "report.to_dict_us": ("report.to_dict", "us"),
    "report.to_json_us": ("report.to_json", "us"),
    "report.csv_row_us": ("report.csv_row", "us"),
    "report.batch_stats_us": ("report.batch_stats", "us"),
    "cli.read_us": ("cli.read", "us"),
    "miner.load_corpus_s": ("miner.load_corpus", "s"),
    **{f"miner.mine_s.{k.value}": (f"miner.mine.{k.value}", "s") for k in SECTION_ORDER},
    "miner.emit_us": ("miner.emit", "us"),
    "miner.reload_us": ("miner.reload", "us"),
}
_SCALE = {"us": 1e-3, "s": 1e-9}


def layer_metrics(run: Run, tracer: Tracer, pack, last: list[tuple],
                  untraced: list[list[float]], candidates: dict[str, int],
                  batch_wall: float) -> None:
    docs = run.inputs.scan
    self_ns = tracer.self_times()
    for metric, (span, unit) in SPAN_METRICS.items():
        run.metric(metric, statistics.median(self_ns[span]) * _SCALE[unit], unit)

    segment_s = sum(map(statistics.median, tracer.durations_by_file("segmenter.segment"))) * 1e-9
    run.metric("segmenter.mb_per_s", sum(len(d.data) for d in docs) / 1e6 / segment_s, "MB/s")

    counts = {"objects": 0, "xref_tables": 0, "trailers": 0, "diagnostics": 0}
    evaluated = {k: 0 for k in SECTION_ORDER}
    fired = {k: 0 for k in SECTION_ORDER}
    for sections, matches, _ in last:
        counts["objects"] += len(sections.objects)
        counts["xref_tables"] += len(sections.xref_tables)
        counts["trailers"] += len(sections.trailers)
        counts["diagnostics"] += len(sections.diagnostics)
        for kind in SECTION_ORDER:
            elements = len(section_elements(sections, kind))
            evaluated[kind] += sum(1 if r.kind is RuleKind.PRESENCE else elements
                                   for r in pack.for_section(kind))
            fired[kind] += len({(m.rule_id, m.element_ref) for m in matches[kind]})
    for name, total in counts.items():
        run.metric(f"segmenter.{name}", total / len(docs), "count")
    for kind in SECTION_ORDER:
        run.metric(f"rules.evaluations.{kind.value}", evaluated[kind] / len(docs), "count")
        run.metric(f"rules.fire_ratio.{kind.value}",
                   fired[kind] / evaluated[kind] if evaluated[kind] else 0.0, "ratio")
    for kind in SECTION_ORDER:
        run.metric(f"miner.candidates.{kind.value}", candidates.get(kind.value, 0), "count")

    untraced_s = sum(statistics.median(times) for times in untraced)
    traced_s = sum(map(statistics.median, tracer.durations_by_file("scan"))) * 1e-9
    run.metric("cli.batch_overhead_s", batch_wall - untraced_s, "s")
    run.metric("bench.trace_overhead_ratio", traced_s / untraced_s, "ratio")


# -- Entry point ---------------------------------------------------------------


def execute(name: str, inputs_: inputs.Inputs, out: Path, seconds: float, trace: bool,
            min_scans: int = MIN_SCANS) -> dict:
    run = Run(name, inputs_, out, seconds, min_scans)
    if trace:
        run_traced(run)
    else:
        run_end_to_end(run)
    run.write_digests()
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics,
        "checks": run.problems,
        "digests": run.digests,
        "scan_failures": run.scan_failures,
        "scans": run.scans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = execute(args.workload, inputs.WORKLOADS[args.workload](args.seed), out,
                     args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
