"""Command-line frontend: scan, batch, audit, mine, fixtures.

Exit codes for ``scan`` are a stable pipeline contract: 0 when a single
producer was named, 2 for an ambiguous verdict, 3 when no section
matched anything.  Every command returns 1, with a machine-readable error
object on stdout, for an error it cannot record as a row: ``main()`` is
the one place that catches it.  A closed stdout ends the command with 1
and nothing on stderr.  ``batch`` and ``audit`` record a file
that cannot be read or scanned as a row and go on.  ``--sections`` keeps
only those sections' rules of the pack; a library caller passes
``scan_bytes`` such a filtered ``Rulepack`` instead.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from .builtin_pack import builtin
from .detector import VerdictKind, classify, detect
from .errors import EmptyGroup, PdfProvError
from .metadata import consistency_status, declared_tool, extract_declared
from .producers import read_manifest
from .report import CSV_COLUMNS, SCHEMA_VERSION, BatchStats, ScanReport, csv_error_row, csv_row
from .rules import SECTION_ORDER, Rulepack, SectionKind, load_rulepack
from .segmenter import segment

EXIT_PRODUCER = 0
EXIT_ERROR = 1
EXIT_AMBIGUOUS = 2
EXIT_NO_RESULT = 3

_VERDICT_EXIT = {VerdictKind.PRODUCER: EXIT_PRODUCER, VerdictKind.AMBIGUOUS: EXIT_AMBIGUOUS,
                 VerdictKind.NO_RESULT: EXIT_NO_RESULT}


def _load_pack(path: str | None) -> Rulepack:
    if not path:
        return builtin()
    return load_rulepack(Path(path).read_text(encoding="utf-8"))


def _parse_sections(value: str | None) -> set[SectionKind]:
    names = [item.strip() for item in (value or "").split(",") if item.strip()]
    known = [kind.value for kind in SECTION_ORDER]
    if unknown := [name for name in names if name not in known]:
        raise ValueError(f"--sections names {unknown[0]}, which is not a section "
                         f"({', '.join(known)})")
    return {SectionKind(name) for name in names}


def _keep_sections(pack: Rulepack, kinds: set[SectionKind]) -> Rulepack:
    """``pack`` with only its rules of the sections in ``kinds``, all of it if none;
    a section in ``kinds`` that ``pack`` has no rule for is a ValueError."""
    if missing := [k.value for k in SECTION_ORDER if k in kinds and not pack.for_section(k)]:
        raise ValueError(f"--sections names {', '.join(missing)}, which the pack has no rule for")
    return Rulepack([r for r in pack.rules if r.section in kinds]) if kinds else pack


def _error_object(path: str, exc: Exception) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "file": path,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def scan_bytes(label: str, data: bytes, pack: Rulepack) -> ScanReport:
    """Run the full per-file pipeline and assemble a report."""
    sections = segment(data)
    verdict = detect(pack, sections)
    declared = extract_declared(data, sections=sections)
    status, _ = consistency_status(declared, verdict)
    return ScanReport(label, verdict, declared, status, sections.diagnostics)


# -- scan ----------------------------------------------------------------------


def cmd_scan(args: argparse.Namespace) -> int:
    kinds = _parse_sections(args.sections)
    data = sys.stdin.buffer.read() if args.path == "-" else Path(args.path).read_bytes()
    report = scan_bytes(args.path, data, _keep_sections(_load_pack(args.pack), kinds))
    if args.format == "table":
        print(_scan_table(report))
    else:
        print(report.to_json())
    return _VERDICT_EXIT[report.verdict.kind]


def _scan_table(report: ScanReport) -> str:
    """The report's JSON fields, as lines for a terminal."""
    d = report.to_dict()
    verdict = d["verdict"]
    lines = [f"file:        {d['file']}"]
    if verdict["kind"] == "producer":
        lines.append(f"producer:    {verdict['producer']}")
    elif verdict["kind"] == "ambiguous":
        lines.append(f"ambiguous:   {', '.join(verdict['candidates'])}")
    else:
        lines.append("producer:    (no result)")
    lines.append("votes:       " + (", ".join(f"{k}={v}" for k, v in d["votes"].items()) or "-"))
    for section in d["sections"]:
        lines.append(f"  {section['kind']:<8} {', '.join(section['candidates']) or '-'}")
    if d["os"]:
        lines.append("os:          " + ", ".join(
            o["os"] + (f" ({o['distro']})" if o["distro"] else "") for o in d["os"]
        ))
    lines.append(f"declared:    {d['declared']['producer'] or '-'}")
    lines.append(f"consistency: {d['consistency']}")
    if d["diagnostics"]:
        lines.append("diagnostics: " + "; ".join(d["diagnostics"]))
    return "\n".join(lines)


# -- batch ---------------------------------------------------------------------


def _batch_inputs(source: str) -> list[tuple[str, Path, str | None]]:
    """(label, path, manifest-truth) triples, sorted by label."""
    src = Path(source)
    if src.is_dir():
        entries = [(str(path.relative_to(src)), path, None) for path in src.rglob("*")
                   if path.name.lower().endswith(".pdf") and path.is_file()]
    else:
        entries = [(cols[0], src.parent / cols[0], cols[1] if len(cols) > 1 and cols[1] else None)
                   for _, cols in read_manifest(src)]
    entries.sort(key=lambda e: e[0])
    return entries


def _scan_entries(entries: list[tuple[str, Path, str | None]], pack: Rulepack
                  ) -> Iterator[tuple[str, str | None, ScanReport | Exception]]:
    """(label, truth, the report or the error that stopped the scan) per entry."""
    for label, path, truth in entries:
        try:
            result: ScanReport | Exception = scan_bytes(label, path.read_bytes(), pack)
        except (PdfProvError, OSError) as exc:
            result = exc
        yield label, truth, result


def cmd_batch(args: argparse.Namespace) -> int:
    pack = _load_pack(args.pack)
    entries = _batch_inputs(args.source)
    pack = _keep_sections(pack, _parse_sections(args.sections))
    stats = BatchStats()
    rows: list[list[str]] = []
    file_dicts: list[dict] = []
    for label, truth, report in _scan_entries(entries, pack):
        if isinstance(report, Exception):
            error = f"{type(report).__name__}: {report}"
            stats.add_error(label, error)
            rows.append(csv_error_row(label, error))
            continue
        verdict = report.verdict
        if args.truth == "metadata":
            truth = declared_tool(report.declared)
        outcome = classify(verdict, truth) if truth else None
        file_class = outcome.file_status.value if outcome else ""
        stats.add(truth, verdict.kind.value, verdict.producer, outcome, bool(verdict.os_candidates))
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
    for label, _, report in _scan_entries(entries, pack):
        if isinstance(report, Exception):
            counts["error"] += 1
            reports.append(_error_object(label, report))
            continue
        # ConsistencyStatus hashes by member name, so its value is the key.
        status = report.consistency.value
        counts[status] += 1
        reports.append({
            "file": label,
            "declared_producer": report.declared.producer,
            "normalized": declared_tool(report.declared),
            "detected": report.producer,
            "status": status,
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
    from .miner import (LabeledCorpus, check_thresholds, emit_rulepack, mine, mine_all,
                        uniform_group_labels)

    check_thresholds(args.min_len, args.max_discriminacy)  # before reading any file
    corpus = LabeledCorpus.from_manifest(args.manifest)
    if not corpus.files:
        raise EmptyGroup("manifest lists no files")
    if args.section == "all":
        candidates = mine_all(corpus, args.min_len, args.max_discriminacy)
    else:
        candidates = mine(corpus, SectionKind(args.section), args.min_len,
                          args.max_discriminacy)
    text = emit_rulepack(candidates, args.name, uniform_group_labels(corpus))
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
        try:
            status = args.func(args)
        except BrokenPipeError:
            raise
        except (PdfProvError, OSError, ValueError) as exc:
            print(json.dumps(_error_object(getattr(args, args.error_file) or "", exc), indent=2))
            status = EXIT_ERROR
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout is closed, so no report or error object can reach it.
        # Pointing it at os.devnull keeps the final flush from raising.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
