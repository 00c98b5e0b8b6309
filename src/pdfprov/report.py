"""Report structures for the CLI: per-file scan reports and batch stats.

A scan report holds the verdict and the declared metadata it reports; its
JSON (schema version ``SCHEMA_VERSION``), CSV row and table are renderings
of them.  Its diagnostics are the segmenter's list, passed through as it
is: one per code, ordered by offset, then by code.  JSON gives each as
``{"code", "offset", "count"}``; the CSV cell and the table give
``code@offset``, with ``xN`` after it when the code occurred N > 1 times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .detector import FILE_TALLIES, SECTION_TALLIES, OutcomeClass, Status, Verdict, VerdictKind
from .metadata import ConsistencyStatus, DeclaredMetadata
from .rules import SECTION_ORDER
from .segmenter import Diagnostic

SCHEMA_VERSION = 3

CSV_COLUMNS = [
    "file", "verdict", "producer", "candidates", "votes",
    "header_candidates", "header_rules",
    "body_candidates", "body_rules",
    "xref_candidates", "xref_rules",
    "trailer_candidates", "trailer_rules",
    "os", "declared_producer", "declared_creator", "declared_source",
    "consistency", "truth", "file_class", "diagnostics",
]


@dataclass
class ScanReport:
    """Everything one file scan produced."""

    file: str
    verdict: Verdict
    declared: DeclaredMetadata
    consistency: ConsistencyStatus
    diagnostics: list[Diagnostic]

    @property
    def producer(self) -> str | None:
        return self.verdict.producer

    def to_dict(self) -> dict:
        v, declared = self.verdict, self.declared
        verdict: dict[str, object] = {"kind": v.kind.value}
        if v.kind is VerdictKind.PRODUCER:
            verdict["producer"] = v.producer
        elif v.kind is VerdictKind.AMBIGUOUS:
            verdict["candidates"] = sorted(v.candidates)
        return {
            "schema": SCHEMA_VERSION,
            "file": self.file,
            "verdict": verdict,
            "votes": dict(sorted(v.votes.items())),
            "sections": [
                {"kind": kind.value, "candidates": sorted(v.section_verdicts[kind]),
                 "rules": list(v.evidence.get(kind, ()))}
                for kind in SECTION_ORDER
            ],
            "os": [{"os": o, "distro": d} for o, d in v.os_candidates],
            "declared": {
                "producer": declared.producer,
                "creator": declared.creator,
                "source": declared.source.value if declared.source else None,
            },
            "consistency": self.consistency.value,
            "diagnostics": [{"code": d.code, "offset": d.offset, "count": d.count}
                            for d in self.diagnostics],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


# The name perfbench/tracing.py builds a report by, layer by layer.
build_scan_report = ScanReport


def csv_row(report: ScanReport, truth: str = "", file_class: str = "") -> list[str]:
    v, declared = report.verdict, report.declared
    return [
        report.file,
        v.kind.value,
        v.producer or "",
        ";".join(sorted(v.candidates)) if v.kind is VerdictKind.AMBIGUOUS else "",
        ";".join(f"{k}:{n}" for k, n in sorted(v.votes.items())),
        # One candidates and one rules column per section, in SECTION_ORDER.
        *(";".join(part) for kind in SECTION_ORDER
          for part in (sorted(v.section_verdicts[kind]), v.evidence.get(kind, ()))),
        ";".join(o + (f"/{d}" if d else "") for o, d in v.os_candidates),
        declared.producer or "",
        declared.creator or "",
        declared.source.value if declared.source else "",
        report.consistency.value,
        truth,
        file_class,
        ";".join(map(str, report.diagnostics)),
    ]


def csv_error_row(file: str, error: str) -> list[str]:
    """The CSV row of a file that could not be read or scanned."""
    return [file, "error"] + [""] * (len(CSV_COLUMNS) - 3) + [error]


@dataclass
class BatchStats:
    """Aggregate counts over a labeled batch, in the standard table shapes."""

    total: int = 0
    labeled: int = 0
    file_level: dict[str, int] = field(default_factory=lambda: dict.fromkeys(FILE_TALLIES, 0))
    per_section: dict[str, dict[str, int]] = field(default_factory=dict)
    per_producer: dict[str, dict[str, int]] = field(default_factory=dict)
    os_detected: int = 0
    os_detected_correct_files: int = 0
    errors: list[tuple[str, str]] = field(default_factory=list)

    def add(self, truth: str | None, verdict_kind: str, producer_detected: str | None,
            outcome: OutcomeClass | None, has_os: bool) -> None:
        """Count one file toward the cells ``classify`` named; ``outcome`` already
        grades the verdict, so ``verdict_kind`` and ``producer_detected`` go unread."""
        self.total += 1
        if has_os:
            self.os_detected += 1
        if truth is None or outcome is None:
            return
        self.labeled += 1
        row = self.per_producer.setdefault(truth, {"files": 0, "detected": 0})
        row["files"] += 1
        if outcome.file_status is Status.CORRECT:
            row["detected"] += 1
            if has_os:
                self.os_detected_correct_files += 1
        for name in outcome.file_tallies:
            self.file_level[name] += 1
        for kind, names in outcome.sections.items():
            tally = self.per_section.setdefault(kind.value, dict.fromkeys(SECTION_TALLIES, 0))
            for name in names:
                tally[name] += 1

    def add_error(self, file: str, error: str) -> None:
        """Count a file that could not be read or scanned."""
        self.total += 1
        self.errors.append((file, error))

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "total": self.total,
            "labeled": self.labeled,
            "file_level": dict(self.file_level),
            "sections": {kind: dict(tally) for kind, tally in sorted(self.per_section.items())},
            "producers": {
                producer: dict(row) for producer, row in sorted(self.per_producer.items())
            },
            "os_detection": {
                "detected": self.os_detected,
                "of_all_files": _ratio(self.os_detected, self.total),
                "of_correct_files": _ratio(self.os_detected_correct_files,
                                           self.file_level["correct"]),
            },
            "errors": [{"file": f, "error": e} for f, e in self.errors],
        }

    def render_tables(self) -> str:
        """Human-readable tables: per-section, two-candidate, per-producer."""
        out: list[str] = []
        n = self.labeled or 1
        out.append(f"Files: {self.total} total, {self.labeled} with ground truth")
        out.append("")
        out.append("Per-section detection")
        out.append(self._section_table(SECTION_TALLIES[:3]))
        out.append("Two-candidate detections")
        out.append(self._section_table(SECTION_TALLIES[3:]))
        out.append("File-level (majority vote)")
        level = self.file_level
        out.append(_format_table(
            ["Correct", "Wrong", "No result", "(ambiguous)"],
            [[f"{level[name]} ({100 * level[name] // n}%)" for name in FILE_TALLIES[:3]]
             + [str(level["ambiguous_within_wrong"])]],
        ))
        out.append("Per-producer detection")
        rows = [
            [producer, str(row["files"]), str(row["detected"]),
             f"{100 * row['detected'] // (row['files'] or 1)}%"]
            for producer, row in sorted(self.per_producer.items())
        ]
        out.append(_format_table(["Producer", "Files", "Detected", "Rate"], rows))
        out.append(
            "OS detected for {} files ({:.0%} of all, {:.0%} of correctly detected)".format(
                self.os_detected,
                _ratio(self.os_detected, self.total),
                _ratio(self.os_detected_correct_files, self.file_level["correct"]),
            )
        )
        if self.errors:
            out.append("")
            out.append("Errors:")
            out.extend(f"  {f}: {e}" for f, e in self.errors)
        return "\n".join(out) + "\n"

    def _section_table(self, names: tuple[str, ...]) -> str:
        """One row per tally name, one column per section."""
        n = self.labeled or 1
        rows = []
        for name in names:
            row = [name.replace("_", " ").capitalize()]
            for kind in SECTION_ORDER:
                value = self.per_section.get(kind.value, {}).get(name, 0)
                row.append(f"{value} ({100 * value // n}%)")
            rows.append(row)
        header = ["Detection"] + [k.value.capitalize() for k in SECTION_ORDER]
        return _format_table(header, rows)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _format_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"
