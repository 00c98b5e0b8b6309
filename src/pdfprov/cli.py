"""Command-line frontend: scan, batch, audit, mine, fixtures.

Exit codes for ``scan`` are a stable pipeline contract: 0 when a single
producer was named, 2 for an ambiguous verdict, 3 when no section
matched anything.  Every command returns 1, with a machine-readable error
object on stdout, for an error it cannot record as a row: ``main()`` is
the one place that catches it.  ``batch`` and ``audit`` record a file
that cannot be read or scanned as a row and go on.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Iterator
from pathlib import Path

from .builtin_pack import builtin
from .detector import Verdict, classify, detect
from .errors import EmptyGroup, PdfProvError
from .metadata import consistency_status, extract_declared
from .report import (
    CSV_COLUMNS,
    SCHEMA_VERSION,
    BatchStats,
    ScanReport,
    build_scan_report,
    csv_row,
)
from .rules import Rulepack, SectionKind, load_rulepack
from .segmenter import segment

EXIT_PRODUCER = 0
EXIT_ERROR = 1
EXIT_AMBIGUOUS = 2
EXIT_NO_RESULT = 3

_VERDICT_EXIT = {"producer": EXIT_PRODUCER, "ambiguous": EXIT_AMBIGUOUS,
                 "no_result": EXIT_NO_RESULT}


def _load_pack(path: str | None) -> Rulepack:
    if not path:
        return builtin()
    text = Path(path).read_text(encoding="utf-8")
    return load_rulepack(text, name=Path(path).name)


def _parse_sections(value: str | None) -> list[SectionKind] | None:
    if not value:
        return None
    kinds = []
    for item in value.split(","):
        item = item.strip()
        if item:
            kinds.append(SectionKind(item))
    return kinds or None


def _error_object(path: str, exc: Exception) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "file": path,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def scan_bytes(label: str, data: bytes, pack: Rulepack,
               only: list[SectionKind] | None = None) -> ScanReport:
    """Run the full per-file pipeline and assemble a report."""
    return _scan(label, data, pack, only)[0]


_ScanResult = tuple[ScanReport, Verdict, str | None]


def _scan(label: str, data: bytes, pack: Rulepack,
          only: list[SectionKind] | None) -> _ScanResult:
    """The report, the verdict and the declared tool the audit graded against."""
    sections = segment(data)
    verdict = detect(pack, sections, only)
    declared = extract_declared(data, sections=sections)
    status, declared_tool = consistency_status(declared, verdict)
    report = build_scan_report(label, verdict, declared, status, sections.diagnostics)
    return report, verdict, declared_tool


# -- scan ----------------------------------------------------------------------


def cmd_scan(args: argparse.Namespace) -> int:
    only = _parse_sections(args.sections)
    data = sys.stdin.buffer.read() if args.path == "-" else Path(args.path).read_bytes()
    report = scan_bytes(args.path, data, _load_pack(args.pack), only)
    if args.format == "table":
        print(_scan_table(report))
    else:
        print(report.to_json())
    return _VERDICT_EXIT[report.verdict_kind]


def _scan_table(report: ScanReport) -> str:
    lines = [f"file:        {report.file}"]
    if report.verdict_kind == "producer":
        lines.append(f"producer:    {report.producer}")
    elif report.verdict_kind == "ambiguous":
        lines.append(f"ambiguous:   {', '.join(report.candidates)}")
    else:
        lines.append("producer:    (no result)")
    lines.append("votes:       " + (", ".join(f"{k}={v}" for k, v in report.votes.items()) or "-"))
    for section in report.sections:
        cands = ", ".join(section.candidates) or "-"
        lines.append(f"  {section.kind:<8} {cands}")
    if report.os:
        lines.append("os:          " + ", ".join(
            o["os"] + (f" ({o['distro']})" if o.get("distro") else "") for o in report.os
        ))
    lines.append(f"declared:    {report.declared_producer or '-'}")
    lines.append(f"consistency: {report.consistency}")
    if report.diagnostics:
        lines.append("diagnostics: " + "; ".join(report.diagnostics))
    return "\n".join(lines)


# -- batch ---------------------------------------------------------------------


def _batch_inputs(source: str) -> list[tuple[str, Path, str | None]]:
    """(label, path, manifest-truth) triples, sorted by label."""
    src = Path(source)
    entries: list[tuple[str, Path, str | None]] = []
    if src.is_dir():
        entries += ((str(path.relative_to(src)), path, None) for path in src.rglob("*.pdf"))
    else:
        base = src.parent
        for lineno, line in enumerate(src.read_text(encoding="utf-8").splitlines(), 1):
            first_col = line.partition("\t")[0]
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # Checked before the strip, which would make the truth the path.
            if not first_col.strip():
                raise ValueError(f"{src}:{lineno}: empty path")
            cols = line.split("\t")
            truth = cols[1] if len(cols) > 1 and cols[1] else None
            entries.append((cols[0], base / cols[0], truth))
    entries.sort(key=lambda e: e[0])
    return entries


def _scan_entries(entries: list[tuple[str, Path, str | None]], pack: Rulepack,
                  only: list[SectionKind] | None
                  ) -> Iterator[tuple[str, str | None, _ScanResult | Exception]]:
    """(label, truth, ``_scan``'s result or the error that stopped it) per entry."""
    for label, path, truth in entries:
        try:
            result = _scan(label, path.read_bytes(), pack, only)
        except (PdfProvError, OSError) as exc:
            result = exc
        yield label, truth, result


def cmd_batch(args: argparse.Namespace) -> int:
    pack = _load_pack(args.pack)
    entries = _batch_inputs(args.source)
    only = _parse_sections(args.sections)
    stats = BatchStats()
    rows: list[list[str]] = []
    file_dicts: list[dict] = []
    for label, truth, result in _scan_entries(entries, pack, only):
        if isinstance(result, Exception):
            error = f"{type(result).__name__}: {result}"
            stats.errors.append((label, error))
            stats.total += 1
            rows.append([label, "error"] + [""] * (len(CSV_COLUMNS) - 3) + [error])
            continue
        report, verdict, declared_tool = result
        if args.truth == "metadata":
            truth = declared_tool
        outcome = classify(verdict, truth) if truth else None
        file_class = outcome.file_status.value if outcome else ""
        stats.add(truth, report.verdict_kind, report.producer, outcome, bool(report.os))
        rows.append(csv_row(report, truth or "", file_class))
        if args.format == "json":
            file_dicts.append({**report.to_dict(), "truth": truth, "file_class": file_class})

    csv_text = _render_csv(rows)
    if args.csv:
        Path(args.csv).write_text(csv_text, encoding="utf-8")
    if args.format == "csv":
        sys.stdout.write(csv_text)
    elif args.format == "json":
        print(json.dumps({"schema": SCHEMA_VERSION, "stats": stats.to_dict(),
                          "files": file_dicts}, indent=2))
    else:
        sys.stdout.write(stats.render_tables())
    return EXIT_PRODUCER


def _render_csv(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buffer.getvalue()


# -- audit ---------------------------------------------------------------------


def cmd_audit(args: argparse.Namespace) -> int:
    pack = _load_pack(args.pack)
    src = Path(args.path)
    entries = _batch_inputs(args.path) if src.is_dir() else [(str(src), src, None)]
    reports: list[dict] = []
    counts = {"consistent": 0, "inconsistent": 0, "unverifiable": 0, "error": 0}
    for label, _, result in _scan_entries(entries, pack, None):
        if isinstance(result, Exception):
            counts["error"] += 1
            reports.append(_error_object(label, result))
            continue
        report, _, declared_tool = result
        counts[report.consistency] += 1
        reports.append({
            "file": label,
            "declared_producer": report.declared_producer,
            "normalized": declared_tool,
            "detected": report.producer,
            "status": report.consistency,
        })
    if args.format == "table":
        for r in reports:
            if "error" in r:
                print(f"{r['file']}: error ({r['error']['message']})")
            else:
                print(f"{r['file']}: {r['status']} (declared={r['declared_producer'] or '-'}, "
                      f"detected={r['detected'] or '-'})")
        print("summary: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    else:
        print(json.dumps({"schema": SCHEMA_VERSION, "files": reports,
                          "summary": counts}, indent=2))
    return EXIT_PRODUCER if counts["error"] == 0 else EXIT_ERROR


# -- mine ----------------------------------------------------------------------


def cmd_mine(args: argparse.Namespace) -> int:
    from .miner import LabeledCorpus, emit_rulepack, mine, mine_all, uniform_group_labels

    corpus = LabeledCorpus.from_manifest(args.manifest)
    if not corpus.files:
        raise EmptyGroup("manifest lists no files")
    if args.section == "all":
        candidates = mine_all(corpus, args.min_len, args.max_discriminacy)
    else:
        candidates = mine(corpus, SectionKind(args.section), args.min_len,
                          args.max_discriminacy)
    text = emit_rulepack(candidates, args.name, uniform_group_labels(corpus))
    load_rulepack(text)  # emitted packs must always re-load
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_PRODUCER


# -- fixtures --------------------------------------------------------------


def cmd_fixtures(args: argparse.Namespace) -> int:
    from .fixtures import emit_corpus

    seeds = range(args.seed_start, args.seed_start + args.seeds)
    manifest = emit_corpus(args.dir, seeds=seeds)
    print(str(manifest))
    return EXIT_PRODUCER


# -- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdfprov",
        description="Identify which software produced a PDF from its coding style.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="scan one PDF file (or - for stdin)")
    scan.add_argument("path")
    scan.add_argument("--pack", help="rule file (default: builtin pack)")
    scan.add_argument("--sections", help="comma list: header,body,xref,trailer")
    scan.add_argument("--format", choices=["json", "table"], default="json")
    scan.set_defaults(func=cmd_scan, error_file="path")

    batch = sub.add_parser("batch", help="scan a manifest or directory of PDFs")
    batch.add_argument("source", help="manifest.tsv or a directory")
    batch.add_argument("--pack")
    batch.add_argument("--sections")
    batch.add_argument("--truth", choices=["manifest", "metadata"], default="manifest")
    batch.add_argument("--format", choices=["table", "json", "csv"], default="table")
    batch.add_argument("--csv", help="also write the per-file CSV here")
    batch.add_argument("--jobs", type=int, default=0,
                       help="accepted and ignored: files are scanned one at a time")
    batch.set_defaults(func=cmd_batch, error_file="source")

    audit = sub.add_parser("audit", help="compare declared metadata with detection")
    audit.add_argument("path", help="PDF file or directory")
    audit.add_argument("--pack")
    audit.add_argument("--format", choices=["json", "table"], default="json")
    audit.set_defaults(func=cmd_audit, error_file="pack")

    minep = sub.add_parser("mine", help="derive a rulepack from a labeled corpus")
    minep.add_argument("manifest")
    minep.add_argument("--section", default="all",
                       choices=["all", "header", "body", "xref", "trailer"])
    minep.add_argument("--min-len", type=int, default=8)
    minep.add_argument("--max-discriminacy", type=float, default=0.0)
    minep.add_argument("--name", default="mined")
    minep.add_argument("-o", "--out")
    minep.set_defaults(func=cmd_mine, error_file="manifest")

    fixtures = sub.add_parser("fixtures", help="write the synthetic fixture corpus")
    fixtures.add_argument("--dir", required=True)
    fixtures.add_argument("--seeds", type=int, default=10)
    fixtures.add_argument("--seed-start", type=int, default=1)
    fixtures.set_defaults(func=cmd_fixtures, error_file="dir")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # stdout is closed: no error object can reach it
    except (PdfProvError, OSError, ValueError) as exc:
        print(json.dumps(_error_object(getattr(args, args.error_file) or "", exc), indent=2))
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
