"""In-memory spans recorded around calls into pdfprov's public functions.

The program has no spans of its own yet, so the benchmark records them
from outside, at each layer boundary: name, start, end, parent span and
file id.  Spans stay in memory while the run measures and are written out
when it ends.  A layer's self time is its span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from pdfprov.detector import detect_os, majority_vote, section_verdict
from pdfprov.metadata import consistency_status, extract_declared
from pdfprov.report import build_scan_report
from pdfprov.rules import SECTION_ORDER, match_section
from pdfprov.segmenter import segment

NO_FILE = -1


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, file id] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, file_id: int = NO_FILE) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), 0, parent, file_id])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter_ns()

    def self_times(self) -> dict[str, list[int]]:
        """Per span name, the self time (ns) summed within each root span.

        One sample per root span that contains the name: for a file's scan
        that is the layer's whole share of that scan.
        """
        child_ns = [0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        grouped: dict[tuple[str, int], int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            grouped[(name, root[i])] += end - start - child_ns[i]
        samples: dict[str, list[int]] = defaultdict(list)
        for (name, _), ns in grouped.items():
            samples[name].append(ns)
        return samples

    def durations_by_file(self, name: str) -> list[list[int]]:
        """Durations (ns) of the spans called ``name``, one list per file id."""
        by_file: dict[int, list[int]] = defaultdict(list)
        for n, start, end, _, file_id in self.spans:
            if n == name:
                by_file[file_id].append(end - start)
        return [by_file[f] for f in sorted(by_file)]

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, file_id in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "file": file_id}) + "\n")


MATCH_SPANS = {kind: f"rules.match.{kind.value}" for kind in SECTION_ORDER}


def traced_scan(tracer: Tracer, file_id: int, label: str, data: bytes, pack):
    """``cli.scan_bytes`` with a span around each layer it calls.

    Calls the same public functions in the same order as ``scan_bytes`` and
    ``detector.detect`` (with no section filter), so the report must equal
    the one ``scan_bytes`` gives; the caller checks that.  Returns the
    report, the sections, the per-section matches and the verdict.
    """
    tracer.begin("scan", file_id)
    tracer.begin("segmenter.segment", file_id)
    sections = segment(data)
    tracer.end()
    matches = {}
    for kind in SECTION_ORDER:
        tracer.begin(MATCH_SPANS[kind], file_id)
        matches[kind] = match_section(pack, sections, kind)
        tracer.end()
    tracer.begin("detector.vote", file_id)
    verdict = majority_vote({kind: section_verdict(matches[kind], kind) for kind in SECTION_ORDER})
    tracer.end()
    tracer.begin("detector.detect_os", file_id)
    verdict.os_candidates = detect_os(verdict, matches)
    tracer.end()
    verdict.evidence = {
        kind: tuple(sorted({m.rule_id for m in matches[kind]})) for kind in SECTION_ORDER
    }
    tracer.begin("metadata.extract_declared", file_id)
    declared = extract_declared(data, sections=sections)
    tracer.end()
    tracer.begin("metadata.consistency", file_id)
    status, _ = consistency_status(declared, verdict)
    tracer.end()
    tracer.begin("report.build", file_id)
    report = build_scan_report(label, verdict, declared, status, sections.diagnostics)
    tracer.end()
    tracer.end()
    return report, sections, matches, verdict
