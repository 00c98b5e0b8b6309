"""CLI: commands, exit codes, report schemas, determinism."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from pdfprov import builtin, cli
from pdfprov.cli import EXIT_ERROR, EXIT_PRODUCER, main
from pdfprov.detector import detect_os, majority_vote, section_verdict
from pdfprov.fixtures import PROFILES, emit_corpus, generate
from pdfprov.metadata import consistency_status, extract_declared
from pdfprov.miner import LabeledCorpus
from pdfprov.producers import Producer
from pdfprov.report import CSV_COLUMNS, build_scan_report
from pdfprov.rules import SECTION_ORDER, match_section, render_rulepack
from pdfprov.segmenter import segment


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("corpus")
    emit_corpus(directory, seeds=range(1, 4))
    return directory


def _write_fixture(tmp_path: Path, producer: Producer, seed: int = 1) -> Path:
    path = tmp_path / f"{producer.value.lower()}-{seed}.pdf"
    path.write_bytes(generate(PROFILES[producer], seed))
    return path


# -- scan ----------------------------------------------------------------------


def test_scan_word_fixture(tmp_path, capsys):
    path = _write_fixture(tmp_path, Producer.MICROSOFT_OFFICE_WORD)
    code = main(["scan", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["schema"] == 2
    assert payload["verdict"] == {"kind": "producer", "producer": "MicrosoftOfficeWord"}
    assert payload["consistency"] == "consistent"
    assert {s["kind"] for s in payload["sections"]} == {"header", "body", "xref", "trailer"}


def test_scan_report_roundtrip(tmp_path, capsys):
    path = _write_fixture(tmp_path, Producer.LIBREOFFICE)
    main(["scan", str(path)])
    text = capsys.readouterr().out
    assert json.loads(text) == cli.scan_bytes(str(path), path.read_bytes(), builtin()).to_dict()


def test_scan_exit_codes_over_fixture_verdicts(tmp_path, capsys):
    # Every fixture resolves to a named producer, hence exit 0.
    for producer in Producer:
        path = _write_fixture(tmp_path, producer)
        assert main(["scan", str(path)]) == 0
        capsys.readouterr()


def test_scan_zero_byte_file(tmp_path, capsys):
    path = tmp_path / "empty.pdf"
    path.write_bytes(b"")
    code = main(["scan", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["error"]["type"] == "NotAPdf"


def test_scan_sections_restriction(tmp_path, capsys):
    path = _write_fixture(tmp_path, Producer.MICROSOFT_OFFICE_WORD)
    code = main(["scan", str(path), "--sections", "header"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["votes"] == {"MicrosoftOfficeWord": 1}
    body = next(s for s in payload["sections"] if s["kind"] == "body")
    assert body["candidates"] == []


_NOT_A_SECTION = "--sections names hdr, which is not a section (header, body, xref, trailer)"


def test_scan_unknown_section_is_an_error_object(tmp_path, capsys):
    path = _write_fixture(tmp_path, Producer.MICROSOFT_OFFICE_WORD)
    code = main(["scan", str(path), "--sections", "hdr"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["file"] == str(path)
    assert payload["error"]["type"] == "ValueError"
    assert payload["error"]["message"] == _NOT_A_SECTION


# A one-entry classic table, which no builtin rule matches.
_TINY_XREF = b"xref\n0 1\n0000000000 65535 f \n"


def test_scan_exit_code_no_result(tmp_path, capsys):
    path = tmp_path / "plain.pdf"
    path.write_bytes(b"%PDF-1.4\n1 0 obj\n<</Pages 2 0 R>>\nendobj\n" + _TINY_XREF
                     + b"trailer\n<</Weird 1/Order 2>>\n")
    assert main(["scan", str(path)]) == 3


def test_scan_exit_code_ambiguous(tmp_path, capsys):
    # Header says pdfTeX/LuaTeX and nothing else speaks: a 1-1 split.
    path = tmp_path / "tex.pdf"
    path.write_bytes(b"%PDF-1.5\n%\xD0\xD4\xC5\xD8\n1 0 obj\n<</Pages 2 0 R>>\nendobj\n"
                     + _TINY_XREF + b"trailer\n<</Weird 1>>\n")
    code = main(["scan", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert set(payload["verdict"]["candidates"]) == {"PdfTeX", "LuaTeX"}


def test_scan_table_format(tmp_path, capsys):
    path = _write_fixture(tmp_path, Producer.GHOSTSCRIPT)
    assert main(["scan", str(path), "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "producer:    Ghostscript" in out


def test_scan_table_lines_for_each_verdict_and_diagnostics(tmp_path, capsys):
    cases = {
        "plain.pdf": (b"%PDF-1.4\n1 0 obj\n<</Pages 2 0 R>>\nendobj\n" + _TINY_XREF
                      + b"trailer\n<</Weird 1/Order 2>>\n", "producer:    (no result)"),
        "tex.pdf": (b"%PDF-1.5\n%\xD0\xD4\xC5\xD8\n1 0 obj\n<</Pages 2 0 R>>\nendobj\n"
                    + _TINY_XREF + b"trailer\n<</Weird 1>>\n", "ambiguous:   LuaTeX, PdfTeX"),
        "diag.pdf": (b"%PDF-1.4\n1 0 obj\n<</A (unclosed\nendobj\n",
                     "diagnostics: MalformedDictionary obj 1 0"),
    }
    for name, (data, line) in cases.items():
        (tmp_path / name).write_bytes(data)
        main(["scan", str(tmp_path / name), "--format", "table"])
        assert line in capsys.readouterr().out.splitlines(), name


def test_scan_dash_reads_stdin(tmp_path, capsys, monkeypatch):
    data = _write_fixture(tmp_path, Producer.CAIRO).read_bytes()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert main(["scan", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == cli.scan_bytes("-", data, builtin()).to_dict()
    assert payload["verdict"]["producer"] == "Cairo"


def test_scan_custom_pack(tmp_path, capsys):
    pack_path = tmp_path / "tiny.rules"
    pack_path.write_text(
        'rule gs-header {\n  producer = Ghostscript\n  section = header\n'
        '  pattern = "^\\xC7\\xEC\\x8F\\xA2"\n}\n'
    )
    path = _write_fixture(tmp_path, Producer.GHOSTSCRIPT)
    code = main(["scan", str(path), "--pack", str(pack_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"]["producer"] == "Ghostscript"
    assert payload["votes"] == {"Ghostscript": 1}


def test_scan_pack_with_a_nested_repeat_is_an_error_object(tmp_path, capsys):
    pack_path = tmp_path / "nested.rules"
    pack_path.write_text(
        'rule runaway {\n  producer = Ghostscript\n  section = body\n'
        '  pattern = "(a+)+b"\n}\n'
    )
    path = _write_fixture(tmp_path, Producer.GHOSTSCRIPT)
    code = main(["scan", str(path), "--pack", str(pack_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["error"]["type"] == "PatternCompileError"
    assert "runaway" in payload["error"]["message"]


@pytest.mark.parametrize("command", ["scan", "batch", "audit"])
def test_a_pack_nested_too_deeply_is_an_error_object(tmp_path, capsys, command):
    pack_path = tmp_path / "deep.rules"
    pack_path.write_text(
        'rule deep {\n  producer = Ghostscript\n  section = body\n'
        '  pattern = "' + "(" * 1000 + "a" + ")" * 1000 + '"\n}\n'
    )
    path = _write_fixture(tmp_path, Producer.GHOSTSCRIPT)
    target = str(path) if command == "scan" else str(tmp_path)
    code = main([command, target, "--pack", str(pack_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERROR
    assert payload["error"]["type"] == "PatternCompileError"
    assert payload["error"]["message"] == (
        "rule 'deep': not in the rule dialect from offset 0: " + repr("(" * 20))


# -- batch ---------------------------------------------------------------------


def test_batch_manifest_truth_all_correct(corpus_dir, capsys):
    code = main(["batch", str(corpus_dir / "manifest.tsv"), "--format", "json",
                 "--jobs", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    stats = payload["stats"]
    assert stats["total"] == 33
    assert stats["file_level"]["correct"] == 33
    assert stats["file_level"]["wrong"] == 0
    assert stats["producers"]["Cairo"] == {"files": 3, "detected": 3}


def test_batch_metadata_truth(corpus_dir, capsys):
    code = main(["batch", str(corpus_dir / "manifest.tsv"), "--truth", "metadata",
                 "--format", "json", "--jobs", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["stats"]["file_level"]["correct"] == payload["stats"]["labeled"] == 33


def test_batch_directory_input(corpus_dir, capsys):
    code = main(["batch", str(corpus_dir), "--format", "json", "--jobs", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["stats"]["total"] == 33
    assert payload["stats"]["labeled"] == 0  # no truth source for a bare dir


def test_batch_csv_determinism_across_jobs(corpus_dir, capsys):
    main(["batch", str(corpus_dir / "manifest.tsv"), "--format", "csv", "--jobs", "1"])
    single = capsys.readouterr().out
    main(["batch", str(corpus_dir / "manifest.tsv"), "--format", "csv", "--jobs", "8"])
    multi = capsys.readouterr().out
    assert single == multi
    assert single.splitlines()[0].startswith("file,verdict,producer")


def test_batch_header_confused_accounting(tmp_path, capsys):
    # Every pdfTeX file's header names the {PdfTeX, LuaTeX} pair: all of
    # them count as header-Confused under pdfTeX truth.
    for seed in (1, 2, 3):
        _write_fixture(tmp_path, Producer.PDFTEX, seed)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(f"pdftex-{s}.pdf\tPdfTeX\n" for s in (1, 2, 3)))
    code = main(["batch", str(manifest), "--format", "json", "--jobs", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    header = payload["stats"]["sections"]["header"]
    assert header["confused"] == 3
    assert header["wrong"] == 3  # two-candidate sections count as wrong
    level = payload["stats"]["file_level"]
    assert level["correct"] + level["wrong"] + level["no_result"] == payload["stats"]["labeled"]
    assert main(["batch", str(manifest), "--jobs", "1"]) == 0
    assert capsys.readouterr().out == _PDFTEX_TABLES


def test_batch_header_only_counts_ambiguous_and_no_result(tmp_path, capsys):
    # With only the header matched, each pdfTeX file's {PdfTeX, LuaTeX}
    # header is a 1-1 tie, and the other three sections name nobody.
    for seed in (1, 2, 3):
        _write_fixture(tmp_path, Producer.PDFTEX, seed)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(f"pdftex-{s}.pdf\tPdfTeX\n" for s in (1, 2, 3)))
    code = main(["batch", str(manifest), "--sections", "header", "--format", "json"])
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert code == 0
    assert stats["file_level"] == {"correct": 0, "wrong": 3, "no_result": 0,
                                   "ambiguous_within_wrong": 3}
    assert stats["sections"]["header"] == {"correct": 0, "wrong": 3, "no_result": 0,
                                           "confused": 3, "error": 0}
    for kind in ("body", "xref", "trailer"):
        assert stats["sections"][kind] == {"correct": 0, "wrong": 0, "no_result": 3,
                                           "confused": 0, "error": 0}


# The whole table output for the three pdfTeX files above (cells are padded).
# The builtin pack has no xref rule, so the Xref column is all no result.
_PDFTEX_TABLES = "\n".join([
    "Files: 3 total, 3 with ground truth",
    "",
    "Per-section detection",
    "Detection  Header    Body      Xref      Trailer ",
    "---------  --------  --------  --------  --------",
    "Correct    0 (0%)    3 (100%)  0 (0%)    0 (0%)  ",
    "Wrong      3 (100%)  0 (0%)    0 (0%)    3 (100%)",
    "No result  0 (0%)    0 (0%)    3 (100%)  0 (0%)  ",
    "",
    "Two-candidate detections",
    "Detection  Header    Body    Xref    Trailer ",
    "---------  --------  ------  ------  --------",
    "Confused   3 (100%)  0 (0%)  0 (0%)  3 (100%)",
    "Error      0 (0%)    0 (0%)  0 (0%)  0 (0%)  ",
    "",
    "File-level (majority vote)",
    "Correct   Wrong   No result  (ambiguous)",
    "--------  ------  ---------  -----------",
    "3 (100%)  0 (0%)  0 (0%)     0          ",
    "",
    "Per-producer detection",
    "Producer  Files  Detected  Rate",
    "--------  -----  --------  ----",
    "PdfTeX    3      3         100%",
    "",
    "OS detected for 0 files (0% of all, 0% of correctly detected)",
    "",
])


def test_batch_unknown_section_is_an_error_object(corpus_dir, capsys):
    code = main(["batch", str(corpus_dir), "--format", "csv", "--sections", "header,hdr"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["file"] == str(corpus_dir)
    assert payload["error"]["type"] == "ValueError"
    assert payload["error"]["message"] == _NOT_A_SECTION


@pytest.mark.parametrize("command", ["scan", "batch"])
@pytest.mark.parametrize("sections", ["xref", "header,xref"])
def test_a_section_the_pack_has_no_rule_for_is_an_error_object(command, sections, tmp_path,
                                                               capsys):
    # The builtin pack has no xref rule: a scan of the xref section could
    # only say no_result, as a file that matched nothing does.
    path = _write_fixture(tmp_path, Producer.MICROSOFT_OFFICE_WORD)
    target = str(path) if command == "scan" else str(tmp_path)
    assert main([command, target, "--sections", sections]) == EXIT_ERROR
    payload = json.loads(capsys.readouterr().out)
    assert payload["file"] == target
    assert payload["error"] == {"type": "ValueError",
                                "message": "--sections names xref, which the pack has no rule for"}


@pytest.mark.parametrize("command", ["scan", "batch"])
def test_sections_may_name_xref_with_a_pack_that_has_an_xref_rule(command, tmp_path, capsys):
    pack = tmp_path / "xref.rules"
    pack.write_text(_XREF_RULE, encoding="utf-8")
    path = _write_fixture(tmp_path, Producer.MICROSOFT_OFFICE_WORD)
    target = str(path) if command == "scan" else str(tmp_path)
    assert main([command, target, "--sections", "xref", "--pack", str(pack),
                 "--format", "json"]) == EXIT_PRODUCER
    payload = json.loads(capsys.readouterr().out)
    report = payload if command == "scan" else payload["files"][0]
    assert report["votes"] == {"MicrosoftOfficeWord": 1}


@pytest.mark.parametrize("argv, error_type, named", [
    # scan checks --sections, then reads its input, then loads --pack.
    (["scan", "missing.pdf", "--pack", "missing.rules", "--sections", "hdr"], "ValueError", "hdr"),
    (["scan", "missing.pdf", "--pack", "missing.rules", "--sections", "header"],
     "FileNotFoundError", "missing.pdf"),
    (["scan", "cairo-1.pdf", "--pack", "missing.rules", "--sections", "header"],
     "FileNotFoundError", "missing.rules"),
    # batch loads --pack, then reads its manifest or directory, then checks --sections.
    (["batch", "missing.tsv", "--pack", "missing.rules", "--sections", "hdr"],
     "FileNotFoundError", "missing.rules"),
    (["batch", "missing.tsv", "--sections", "hdr"], "FileNotFoundError", "missing.tsv"),
    (["batch", ".", "--sections", "hdr"], "ValueError", "hdr"),
])
def test_scan_and_batch_report_their_first_error(argv, error_type, named, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_fixture(tmp_path, Producer.CAIRO)
    assert main(argv) == EXIT_ERROR
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == error_type
    assert named in error["message"]


def test_batch_empty_corpus(tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("")
    code = main(["batch", str(manifest), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["stats"]["total"] == 0


def test_batch_records_per_file_errors(tmp_path, capsys):
    good = _write_fixture(tmp_path, Producer.CAIRO)
    (tmp_path / "bad.pdf").write_bytes(b"not a pdf")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{good.name}\tCairo\nbad.pdf\tCairo\n")
    code = main(["batch", str(manifest), "--format", "json", "--jobs", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["stats"]["file_level"]["correct"] == 1
    assert payload["stats"]["errors"][0]["file"] == "bad.pdf"


def test_batch_survives_a_digit_run_past_the_int_limit(tmp_path, capsys):
    _write_fixture(tmp_path, Producer.CAIRO)
    (tmp_path / "huge-startxref.pdf").write_bytes(
        b"%PDF-1.4\n1 0 obj\n<<>>\nendobj\ntrailer\n<</Size 2>>\nstartxref\n"
        + b"9" * 5000 + b"\n%%EOF\n")
    code = main(["batch", str(tmp_path), "--format", "csv", "--jobs", "1"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert code == 0
    # No rule fires on the second file: it has no header comment, no body
    # template and no xref element, and its trailer matches no key order.
    assert [(r["file"], r["verdict"]) for r in rows] == [
        ("cairo-1.pdf", "producer"), ("huge-startxref.pdf", "no_result"),
    ]


def test_batch_csv_file_holds_the_csv_format_output(corpus_dir, tmp_path, capsys):
    manifest = str(corpus_dir / "manifest.tsv")
    assert main(["batch", manifest, "--format", "csv"]) == 0
    printed = capsys.readouterr().out
    out_path = tmp_path / "out.csv"
    assert main(["batch", manifest, "--csv", str(out_path)]) == 0
    assert capsys.readouterr().out.startswith("Files: 33 total")
    assert out_path.read_bytes() == printed.encode()


def test_batch_table_lists_unreadable_files_under_errors(tmp_path, capsys):
    good = _write_fixture(tmp_path, Producer.CAIRO)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{good.name}\tCairo\nmissing.pdf\tCairo\n")
    assert main(["batch", str(manifest)]) == 0
    assert capsys.readouterr().out.endswith(
        "\nErrors:\n  missing.pdf: FileNotFoundError: [Errno 2] No such file or directory: "
        f"'{tmp_path / 'missing.pdf'}'\n")


def test_batch_manifest_skips_comments_and_blank_lines(tmp_path, capsys):
    good = _write_fixture(tmp_path, Producer.CAIRO)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"# path\tproducer\n\n   \n{good.name}\tCairo\n  # indented\n")
    assert main(["batch", str(manifest), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [f["file"] for f in payload["files"]] == [good.name]
    assert payload["stats"]["errors"] == []


def test_batch_and_mine_read_a_manifest_alike(tmp_path):
    cairo = _write_fixture(tmp_path, Producer.CAIRO)
    luatex = _write_fixture(tmp_path, Producer.LUATEX)
    skia = _write_fixture(tmp_path, Producer.SKIA_PDF)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(
        b"# path\tproducer\tos\tdistro\r\n\r\n \t \r\n"
        + f"{cairo.name}\tCairo   \r\n".encode()
        + f"{luatex.name}\tLuaTeX\twindows\tmiktex\r\n".encode()
        + f"  # indented\r\n{skia.name}\tSkiaPDF\r\n".encode())
    batch = cli._batch_inputs(str(manifest))
    corpus = LabeledCorpus.from_manifest(manifest)
    assert batch == [(path.name, path, producer) for path, producer in
                     ((cairo, "Cairo"), (luatex, "LuaTeX"), (skia, "SkiaPDF"))]
    assert [(f.data, f.producer) for f in corpus.files] == [
        (path.read_bytes(), truth) for _, path, truth in batch]
    assert [(f.os, f.distro) for f in corpus.files] == [("", ""), ("windows", "miktex"), ("", "")]


def test_batch_manifest_row_with_an_empty_path_is_an_error_object(tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("# comment\n\tPdfTeX\n")
    code = main(["batch", str(manifest), "--format", "csv"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERROR
    assert payload["file"] == str(manifest)
    assert payload["error"] == {"type": "ValueError", "message": f"{manifest}:2: empty path"}


def test_batch_and_audit_list_a_directory_in_one_order(tmp_path, capsys):
    # Path order puts a/x.pdf first ("a" < "a-b"), label order a-b/y.pdf
    # ("-" < "/"); both commands use label order.
    for sub, name in (("a", "x.pdf"), ("a-b", "y.pdf")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / name).write_bytes(generate(PROFILES[Producer.CAIRO], 1))
    expected = [str(Path("a-b", "y.pdf")), str(Path("a", "x.pdf"))]
    assert main(["batch", str(tmp_path), "--format", "csv"]) == 0
    assert [r["file"] for r in csv.DictReader(io.StringIO(capsys.readouterr().out))] == expected
    assert main(["audit", str(tmp_path), "--format", "json"]) == 0
    assert [r["file"] for r in json.loads(capsys.readouterr().out)["files"]] == expected


def test_a_directorys_pdfs_are_its_files_named_pdf_in_any_case(tmp_path, capsys):
    fixture = generate(PROFILES[Producer.CAIRO], 1)
    (tmp_path / "sub.pdf").mkdir()  # a directory, not a PDF
    for name in ("a.pdf", "B.PDF", "notes.txt", str(Path("sub.pdf", "c.Pdf"))):
        (tmp_path / name).write_bytes(fixture)
    expected = ["B.PDF", "a.pdf", str(Path("sub.pdf", "c.Pdf"))]
    assert main(["batch", str(tmp_path), "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(r["file"], r["producer"]) for r in rows] == [(name, "Cairo") for name in expected]
    assert main(["audit", str(tmp_path), "--format", "json"]) == 0
    assert [r["file"] for r in json.loads(capsys.readouterr().out)["files"]] == expected


# -- audit ---------------------------------------------------------------------


def test_audit_three_statuses(tmp_path, capsys):
    _write_fixture(tmp_path, Producer.LIBREOFFICE, 1)  # declared == detected
    consistent = tmp_path / "libreoffice-1.pdf"
    inconsistent = tmp_path / "claims-libreoffice.pdf"
    inconsistent.write_bytes(
        generate(replace(PROFILES[Producer.GHOSTSCRIPT], producer_string="LibreOffice 6.1"), 2)
    )
    stripped = tmp_path / "stripped.pdf"
    stripped.write_bytes(generate(replace(PROFILES[Producer.GHOSTSCRIPT], producer_string=""), 3))
    code = main(["audit", str(tmp_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    by_file = {r["file"]: r["status"] for r in payload["files"]}
    assert by_file[consistent.name] == "consistent"
    assert by_file[inconsistent.name] == "inconsistent"
    assert by_file[stripped.name] == "unverifiable"
    assert payload["summary"] == {"consistent": 1, "inconsistent": 1,
                                  "unverifiable": 1, "error": 0}


def _xmp_object(num: int, producer: str) -> bytes:
    xml = f'<x:xmpmeta><rdf:Description pdf:Producer="{producer}"/></x:xmpmeta>'.encode()
    return (b"%d 0 obj\n<</Type /Metadata /Subtype /XML /Length %d>>\nstream\n"
            % (num, len(xml)) + xml + b"\nendstream\nendobj\n")


def test_audit_and_metadata_truth_use_the_tool_the_audit_graded(tmp_path, capsys):
    # Info names no known tool, so the audit grades against the XMP one.
    data = generate(replace(PROFILES[Producer.GHOSTSCRIPT], producer_string="Acme Converter 2.0"), 1)
    data = data.replace(b"5 0 obj", _xmp_object(9, "GPL Ghostscript 9.26") + b"5 0 obj", 1)
    (tmp_path / "gs-xmp.pdf").write_bytes(data)
    assert main(["audit", str(tmp_path), "--format", "json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["files"]
    assert entry["declared_producer"] == "Acme Converter 2.0"
    assert entry["status"] == "consistent"
    assert entry["normalized"] == "Ghostscript"
    assert main(["batch", str(tmp_path), "--truth", "metadata", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"][0]["truth"] == "Ghostscript"
    assert payload["files"][0]["file_class"] == "correct"
    assert payload["stats"]["labeled"] == 1


def test_audit_single_file_table(tmp_path, capsys):
    path = _write_fixture(tmp_path, Producer.SKIA_PDF)
    assert main(["audit", str(path), "--format", "table"]) == 0
    assert "consistent" in capsys.readouterr().out


def test_audit_pack_that_is_not_utf8_is_an_error_object(tmp_path, capsys):
    path = _write_fixture(tmp_path, Producer.SKIA_PDF)
    pack = tmp_path / "latin1.rules"
    pack.write_bytes(b"# caf\xe9\n")
    code = main(["audit", str(path), "--pack", str(pack)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["file"] == str(pack)
    assert payload["error"]["type"] == "UnicodeDecodeError"


# -- one scan path ------------------------------------------------------------


def test_every_command_segments_each_file_once(corpus_dir, monkeypatch, capsys):
    calls: Counter[bytes] = Counter()
    real_segment = cli.segment

    def counting_segment(data: bytes):
        calls[data] += 1
        return real_segment(data)

    monkeypatch.setattr(cli, "segment", counting_segment)
    paths = sorted(corpus_dir.rglob("*.pdf"))
    every_file = Counter(path.read_bytes() for path in paths)
    manifest = str(corpus_dir / "manifest.tsv")
    runs = [
        ["batch", manifest, "--format", "csv", "--jobs", "1"],
        ["batch", manifest, "--format", "csv", "--jobs", "2"],
        ["audit", str(corpus_dir)],
    ]
    for argv in runs:
        calls.clear()
        assert main(argv) == 0, argv
        capsys.readouterr()
        assert calls == every_file, argv
    calls.clear()
    for path in paths:
        assert main(["scan", str(path)]) == 0
        capsys.readouterr()
    assert calls == every_file


def _encrypted_libreoffice() -> bytes:
    """The LibreOffice fixture as an encrypted file holds it: an /Encrypt
    entry in the trailer, and the Info strings ciphertext."""
    data = generate(PROFILES[Producer.LIBREOFFICE], 1)
    for old, new in ((b"(LibreOffice 6.4)", b"<9C4E2B77D1A0F35E>"), (b"(Writer)", b"<51F0A3>"),
                     (b"/Info 5 0 R", b"/Info 5 0 R\n/Encrypt 7 0 R")):
        assert data.count(old) == 1
        data = data.replace(old, new)
    return data


def test_scan_reads_no_info_string_of_an_encrypted_file(tmp_path, capsys):
    path = tmp_path / "encrypted.pdf"
    path.write_bytes(_encrypted_libreoffice())
    assert main(["scan", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == {"kind": "producer", "producer": "LibreOffice"}
    assert report["declared"] == {"producer": None, "creator": None, "source": None}
    assert report["consistency"] == "unverifiable"
    assert report["diagnostics"] == ["EncryptedInfo"]


def _write_odd_files(directory: Path) -> list[Path]:
    """One file each whose report has an ambiguous verdict, no result, an OS
    with a distribution, diagnostics, and an Info left unread: the fields
    the fixtures leave empty."""
    # LuaTeX with pdfTeX's header magic and xref stream: Linux with TeX Live.
    texlive = replace(PROFILES[Producer.LUATEX], header_magic=bytes.fromhex("D0D4C5D8"),
                      trailer=None, xref_stream=PROFILES[Producer.PDFTEX].xref_stream)
    files = {
        "tex.pdf": b"%PDF-1.5\n%\xD0\xD4\xC5\xD8\n1 0 obj\n<</Pages 2 0 R>>\nendobj\n"
                   + _TINY_XREF + b"trailer\n<</Weird 1>>\n",
        "plain.pdf": b"%PDF-1.4\n1 0 obj\n<</Pages 2 0 R>>\nendobj\n" + _TINY_XREF
                     + b"trailer\n<</Weird 1/Order 2>>\n",
        "texlive.pdf": generate(texlive, 1),
        "diag.pdf": b"%PDF-1.4\n1 0 obj\n<</A (unclosed\nendobj\n",
        "encrypted.pdf": _encrypted_libreoffice(),
    }
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return [directory / name for name in files]


def _csv_fields(report: dict) -> dict[str, str]:
    """The CSV columns of a scan JSON report, as batch should write them."""
    verdict, declared = report["verdict"], report["declared"]
    fields = {
        "file": report["file"],
        "verdict": verdict["kind"],
        "producer": verdict.get("producer") or "",
        "candidates": ";".join(verdict.get("candidates", ())),
        "votes": ";".join(f"{k}:{v}" for k, v in report["votes"].items()),
        "os": ";".join(o["os"] + (f"/{o['distro']}" if o["distro"] else "") for o in report["os"]),
        "declared_producer": declared["producer"] or "",
        "declared_creator": declared["creator"] or "",
        "declared_source": declared["source"] or "",
        "consistency": report["consistency"],
        "diagnostics": ";".join(report["diagnostics"]),
    }
    for section in report["sections"]:
        fields[f"{section['kind']}_candidates"] = ";".join(section["candidates"])
        fields[f"{section['kind']}_rules"] = ";".join(section["rules"])
    return fields


# The builtin pack holds no xref rule; with this one, the xref columns fill.
_XREF_RULE = ('rule xref-word-table {\n  producer = MicrosoftOfficeWord\n  section = xref\n'
              '  pattern = "^xref\\r\\n0 [0-9]+\\r\\n"\n}\n')


def test_batch_csv_rows_say_what_scan_json_says(corpus_dir, tmp_path, capsys):
    paths = sorted(corpus_dir.rglob("*.pdf")) + _write_odd_files(tmp_path)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(f"{path}\n" for path in paths))
    pack = tmp_path / "xref.rules"
    pack.write_text(render_rulepack(builtin().rules) + "\n" + _XREF_RULE, encoding="utf-8")
    assert main(["batch", str(manifest), "--format", "csv", "--pack", str(pack)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["file"] for row in rows] == sorted(str(path) for path in paths)
    for row in rows:
        main(["scan", row["file"], "--format", "json", "--pack", str(pack)])
        fields = _csv_fields(json.loads(capsys.readouterr().out))
        assert set(fields) == set(CSV_COLUMNS) - {"truth", "file_class"}
        assert {c: row[c] for c in fields} == fields, row["file"]
    # The corpus reaches every kind of value a column can hold.
    assert {row["verdict"] for row in rows} == {"producer", "ambiguous", "no_result"}
    assert any("/" in row["os"] for row in rows)
    assert all(any(row[c] for row in rows) for c in CSV_COLUMNS if c not in ("truth", "file_class"))


def test_a_report_assembled_layer_by_layer_equals_scan_bytes(corpus_dir, tmp_path):
    pack = builtin()
    for path in sorted(corpus_dir.rglob("*.pdf")) + _write_odd_files(tmp_path):
        data = path.read_bytes()
        report = cli.scan_bytes(path.name, data, pack)
        assert cli.scan_bytes(path.name, data, pack) == report
        # The layers scan_bytes runs, called one at a time, with each
        # section's evidence as a sorted set of fired rule ids.
        sections = segment(data)
        matches = {kind: match_section(pack, sections, kind) for kind in SECTION_ORDER}
        verdict = majority_vote({kind: section_verdict(matches[kind], kind)
                                 for kind in SECTION_ORDER})
        verdict.os_candidates = detect_os(verdict, matches)
        verdict.evidence = {kind: tuple(sorted({m.rule_id for m in matches[kind]}))
                            for kind in SECTION_ORDER}
        declared = extract_declared(data, sections=sections)
        status, _ = consistency_status(declared, verdict)
        assert build_scan_report(path.name, verdict, declared, status,
                                 sections.diagnostics) == report, path.name
        # Equality sees the verdict the report holds.
        assert replace(report, verdict=replace(report.verdict, evidence={})) != report


# -- mine / fixtures ---------------------------------------------------------


def test_mine_rediscovers_word_template(corpus_dir, capsys):
    code = main(["mine", str(corpus_dir / "manifest.tsv"), "--section", "body"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"4 0 obj\\r\\n<</Filter/FlateDecode/Length [0-9]*>>\\r\\nstream\\r\\n"' in out


def test_mine_empty_manifest_is_an_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("")
    code = main(["mine", str(manifest)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["error"]["type"] == "EmptyGroup"


@pytest.mark.parametrize("threshold", ["nan", "-1"])
def test_mine_threshold_outside_zero_to_one_is_an_error_object(corpus_dir, tmp_path, capsys,
                                                               threshold):
    out_path = tmp_path / "mined.rules"
    code = main(["mine", str(corpus_dir / "manifest.tsv"), "--max-discriminacy", threshold,
                 "-o", str(out_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERROR
    assert payload["error"]["type"] == "ValueError"
    assert "max_discriminacy" in payload["error"]["message"]
    assert not out_path.exists()


@pytest.mark.parametrize("flag, value, name", [("--min-len", "2", "min_len"),
                                               ("--max-discriminacy", "nan", "max_discriminacy")])
def test_mine_checks_thresholds_before_reading_the_manifests_files(tmp_path, capsys,
                                                                    flag, value, name):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("missing.pdf\tPdfTeX\n")
    code = main(["mine", str(manifest), flag, value])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERROR
    assert payload["error"]["type"] == "ValueError"
    assert name in payload["error"]["message"]


def test_mine_manifest_row_with_an_empty_path_is_an_error_object(tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("# comment\n\tPdfTeX\n")
    code = main(["mine", str(manifest)])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERROR
    assert payload["file"] == str(manifest)
    assert payload["error"] == {"type": "ValueError", "message": f"{manifest}:2: empty path"}


@pytest.mark.parametrize("label", ["C#Writer", " Cairo"])
def test_mine_refuses_a_label_its_pack_would_not_read_back(corpus_dir, tmp_path, capsys, label):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{corpus_dir / 'cairo' / 'cairo-001.pdf'}\t{label}\n"
                        f"{corpus_dir / 'skiapdf' / 'skiapdf-001.pdf'}\tSkia\n")
    out_path = tmp_path / "mined.rules"
    code = main(["mine", str(manifest), "-o", str(out_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERROR
    assert payload["file"] == str(manifest)
    assert payload["error"]["type"] == "ValueError"
    assert payload["error"]["message"].endswith(f"producer {label!r} would not read back as written")
    assert not out_path.exists()


@pytest.mark.parametrize("labels, message", [
    (("!!!", "Skia"), "rule '-body-0' of producer '!!!': the id is not a rule id"),
    (("C Writer", "C-Writer"), "rule 'c-writer-body-0' of producer 'C-Writer': the id is already written"),
], ids=["not-an-id", "duplicate-id"])
def test_mine_refuses_a_rule_id_its_pack_would_not_read_back(corpus_dir, tmp_path, capsys,
                                                             labels, message):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{corpus_dir / 'cairo' / 'cairo-001.pdf'}\t{labels[0]}\n"
                        f"{corpus_dir / 'skiapdf' / 'skiapdf-001.pdf'}\t{labels[1]}\n")
    out_path = tmp_path / "mined.rules"
    code = main(["mine", str(manifest), "-o", str(out_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERROR
    assert payload["error"] == {"type": "ValueError", "message": message}
    assert not out_path.exists()


def test_fixtures_then_batch_pipeline(tmp_path, capsys):
    code = main(["fixtures", "--dir", str(tmp_path / "fx"), "--seeds", "2"])
    manifest = capsys.readouterr().out.strip()
    assert code == 0
    code = main(["batch", manifest, "--format", "json", "--jobs", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["stats"]["file_level"]["correct"] == payload["stats"]["total"] == 22


def test_fixtures_seed_start_names_and_writes_those_seeds(tmp_path, capsys):
    directory = tmp_path / "fx"
    code = main(["fixtures", "--dir", str(directory), "--seeds", "2", "--seed-start", "5"])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(directory / "manifest.tsv")
    lines = (directory / "manifest.tsv").read_text().splitlines()
    assert len(lines) == 22
    expected = {}
    for producer, profile in PROFILES.items():
        slug = producer.value.lower()
        for seed in (5, 6):
            expected[f"{slug}/{slug}-{seed:03d}.pdf"] = generate(profile, seed)
    assert sorted(line.split("\t")[0] for line in lines) == sorted(expected)
    written = sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*.pdf"))
    assert written == sorted(expected)
    for relpath, data in expected.items():
        assert (directory / relpath).read_bytes() == data


def test_mine_output_reloads_and_detects(corpus_dir, tmp_path, capsys):
    out_path = tmp_path / "mined.rules"
    code = main(["mine", str(corpus_dir / "manifest.tsv"), "-o", str(out_path)])
    capsys.readouterr()
    assert code == 0
    code = main(["batch", str(corpus_dir / "manifest.tsv"), "--pack", str(out_path),
                 "--format", "json", "--jobs", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["stats"]["file_level"]["correct"] == 33


@pytest.mark.parametrize("command", ["batch", "mine", "fixtures"])
def test_an_unwritable_output_is_an_error_object(corpus_dir, tmp_path, capsys, command):
    manifest = str(corpus_dir / "manifest.tsv")
    missing = tmp_path / "missing"
    under_a_file = tmp_path / "a-file" / "fx"
    (tmp_path / "a-file").write_text("")
    argv, label, error = {
        "batch": (["batch", manifest, "--csv", str(missing / "out.csv")], manifest,
                  "FileNotFoundError"),
        "mine": (["mine", manifest, "--section", "header", "-o", str(missing / "m.rules")],
                 manifest, "FileNotFoundError"),
        "fixtures": (["fixtures", "--dir", str(under_a_file), "--seeds", "1"], str(under_a_file),
                     "NotADirectoryError"),
    }[command]
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERROR
    assert payload["file"] == label
    assert payload["error"]["type"] == error


# -- import graph ---------------------------------------------------------


def _modules_after(code: str) -> set[str]:
    """The ``pdfprov`` modules a fresh interpreter holds after ``code``."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = code + "\nimport sys\nprint(' '.join(m for m in sys.modules if m.startswith('pdfprov')))"
    result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60, check=True)
    return set(result.stdout.split())


def test_importing_the_package_loads_only_the_builtin_pack_modules():
    assert _modules_after("import pdfprov\npdfprov.builtin()") == {
        "pdfprov", "pdfprov.builtin_pack", "pdfprov.rules", "pdfprov.segmenter",
        "pdfprov.errors", "pdfprov.producers",
    }
    loaded = _modules_after("import pdfprov.cli")
    assert "pdfprov.cli" in loaded
    assert not loaded & {"pdfprov.miner", "pdfprov.fixtures"}


# -- closed stdout ----------------------------------------------------------


@pytest.mark.parametrize("command, target", [
    ("scan", "cairo/cairo-001.pdf"),
    ("batch", "manifest.tsv"),
])
def test_a_closed_stdout_ends_quietly_with_exit_1(corpus_dir, command, target):
    # As in `pdfprov scan F | head -0`: the reader is gone before the first
    # write, so no report reaches it, and no traceback may reach stderr.
    src = Path(__file__).resolve().parents[1] / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "pdfprov.cli", command,
                                 str(corpus_dir / target)],
                                stdout=write_end, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == EXIT_ERROR
