"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; they also appear in captured output.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace

import pytest

from pdfprov.builtin_pack import builtin
from pdfprov.cli import main, scan_bytes
from pdfprov.detector import VerdictKind, detect, majority_vote
from pdfprov.fixtures import PROFILES, emit_corpus, generate
from pdfprov.metadata import ConsistencyStatus
from pdfprov.miner import (
    CorpusFile,
    LabeledCorpus,
    emit_rulepack,
    mine,
    mine_all,
    uniform_group_labels,
)
from pdfprov.producers import Producer
from pdfprov.rules import SECTION_ORDER, SectionKind, load_rulepack, match_section
from pdfprov.segmenter import Diagnostic, segment

AD = Producer.ACROBAT_DISTILLER.value
W = Producer.MICROSOFT_OFFICE_WORD.value
LO = Producer.LIBREOFFICE.value
GS = Producer.GHOSTSCRIPT.value
Q = Producer.MACOS_QUARTZ.value
PT = Producer.PDFTEX.value
SK = Producer.SKIA_PDF.value
CA = Producer.CAIRO.value
XD = Producer.XDVIPDFMX.value
LT = Producer.LUATEX.value
PL = Producer.PDFLATEX.value


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


# -- 1. header magic fidelity ---------------------------------------------


# Expected header-section candidate set for each of the thirteen
# transcribed magic rules (shared values name every sharer).
_MAGIC_EXPECT = {
    bytes.fromhex("E2E3CFD3"): {AD},
    bytes.fromhex("B5B5B5B5"): {W},
    bytes.fromhex("D0D4C5D8"): {PT, LT},
    bytes.fromhex("CCD5C1D4C5D8D0C4C6"): {LT},
    bytes.fromhex("E4F0EDF8"): {XD},
    bytes.fromhex("C7EC8FA2"): {GS},
    bytes.fromhex("C3A4C3BCC3B6C39F"): {LO},
    bytes.fromhex("C4E5F2E5EBA7F3A0D0C4C6"): {Q},
    bytes.fromhex("B5EDAEFB"): {CA},
    bytes.fromhex("D3EBE9E1"): {SK},
    bytes.fromhex("F6E4FCDF"): {PL},
}


def test_criterion_1_header_magic_fidelity():
    pack = builtin()
    started = time.monotonic()
    checked = 0
    seen: set[bytes] = set()
    for rule in pack.for_section(SectionKind.HEADER):
        magic = bytes.fromhex(rule.pattern.removeprefix("^").replace("\\x", ""))
        seen.add(magic)
        data = (b"%PDF-1.4\n%" + magic + b"\n1 0 obj\n<<>>\nendobj\n"
                b"xref\n0 1\n0000000000 65535 f \ntrailer\n<</Odd 1>>\n")
        candidates = {
            m.rule.producer for m in match_section(pack, segment(data), SectionKind.HEADER)
        }
        assert candidates == _MAGIC_EXPECT[magic], rule.id
        checked += 1
    assert seen == set(_MAGIC_EXPECT)
    elapsed = time.monotonic() - started
    _report("1 header magic fidelity",
            checked == 13 and elapsed < 1.0,
            f"checked={checked} elapsed={elapsed:.3f}s")


# -- 2. trailer key-sequence fidelity ---------------------------------------


_H32 = b"AB12CD34EF56AB12CD34EF56AB12CD34"


def _stream_trailer(dictionary: bytes) -> bytes:
    return (b"%PDF-1.5\n9 0 obj\n" + dictionary
            + b"\nstream\nxyz\nendstream\nendobj\nstartxref\n9\n%%EOF\n")


def _classic(trailer: bytes) -> bytes:
    return b"%PDF-1.4\n" + trailer


_FOUR_WAY = {LT, PT, GS, Q}

# One synthetic trailer per transcribed row, written independently of the
# fixture generator (formatting intentionally varied).
_TRAILER_CASES = [
    ("AcrobatDistiller", _stream_trailer(
        b"<</DecodeParms<</Columns 5/Predictor 12>>/Filter/FlateDecode"
        b"/ID[<" + _H32 + b"><" + _H32 + b">]/Info 3 0 R/Length 3/Root 1 0 R"
        b"/Size 10/Type/XRef/W[1 2 1]>>"), {AD}),
    ("TexLive LuaTeX", _stream_trailer(
        b"<</Type /XRef /Index [0 10] /Size 10 /W [1 2 1] /Root 1 0 R /Info 3 0 R"
        b" /ID [<" + _H32 + b"> <" + _H32 + b">] /Length 3 /Filter /FlateDecode>>"),
     {LT, PT}),
    ("TexLive pdfTeX", _stream_trailer(
        b"<</Type/XRef/Index[0 10]/Size 10/W[1 2 1]/Root 1 0 R/Info 3 0 R"
        b"/ID[<" + _H32 + b"><" + _H32 + b">]/Length 3/Filter/FlateDecode>>"),
     {LT, PT}),
    ("MikTeX LuaTeX", _classic(
        b"trailer\n<< /Size 10 /Root 1 0 R /Info 3 0 R /ID [<" + _H32 + b"> <"
        + _H32 + b">] >>\n"), _FOUR_WAY),
    ("MikTeX pdfTeX", _classic(
        b"trailer << /Size 10 /Root 1 0 R /Info 3 0 R /ID [<" + _H32 + b"><"
        + _H32 + b">] >>"), _FOUR_WAY),
    ("Ghostscript", _classic(
        b"trailer\n<</Size 10/Root 1 0 R/Info 3 0 R/ID[<" + _H32 + b"><"
        + _H32 + b">]>>\n"), _FOUR_WAY),
    ("xdvipdfm", _stream_trailer(
        b"<</Type /XRef /Root 1 0 R /Info 3 0 R /ID [<" + _H32 + b"> <" + _H32
        + b">] /Size 10 /W [1 2 1] /Filter /FlateDecode /Length 3>>"), {XD}),
    ("Microsoft Office Word", _classic(
        b"trailer\r\n<</Size 25/Root 1 0 R/Info 9 0 R/ID[<" + _H32 + b"><" + _H32
        + b">] /Prev 46566/XRefStm 46274>>\r\n"), {W}),
    ("LibreOffice", _classic(
        b"trailer\n<</Size 14/Root 12 0 R\n/Info 13 0 R\n/ID [ <" + _H32 + b">\n<"
        + _H32 + b"> ]\n/DocChecksum /7C2B6DC7F4AF6CC658C0703D8002E3D4\n>>\n"), {LO}),
    ("Mac OS X Quartz", _classic(
        b"trailer\n<< /Size 10 /Root 1 0 R /Info 3 0 R /ID [ <" + _H32 + b">\n<"
        + _H32 + b"> ] >>\n"), _FOUR_WAY),
    ("cairo", _classic(b"trailer\n<< /Size 4\n   /Root 1 0 R\n   /Info 3 0 R\n>>\n"),
     {CA, SK}),
    ("Skia/PDF", _classic(b"trailer << /Size 4 /Root 1 0 R /Info 3 0 R >>"), {CA, SK}),
    ("PDFLaTeX", _classic(
        b"trailer\n<</Root 1 0 R/info 3 0 R/ID[<" + _H32 + b"><" + _H32
        + b">]/Size 4>>\n"), {PL}),
]


def test_criterion_2_trailer_sequence_fidelity():
    pack = builtin()
    assert len(_TRAILER_CASES) == 13
    for name, data, expected in _TRAILER_CASES:
        candidates = {
            m.rule.producer for m in match_section(pack, segment(data), SectionKind.TRAILER)
        }
        assert candidates == expected, f"{name}: {sorted(candidates)}"
    # The lowercase '/info' row also matches when spelled '/Info'.
    upper = _TRAILER_CASES[-1][1].replace(b"/info", b"/Info")
    candidates = {
        m.rule.producer for m in match_section(pack, segment(upper), SectionKind.TRAILER)
    }
    assert candidates == {PL}
    _report("2 trailer sequence fidelity", True)


# -- 3. xref grammar --------------------------------------------------------


def test_criterion_3_xref_grammar():
    table_bytes = (b"xref\n0 5\n"
                   b"0000000010 65535 f \n"
                   b"0000000017 00000 n \n"
                   b"0000000166 00000 n \n"
                   b"0000000222 00000 n \n"
                   b"0000000486 00000 n \n")
    sections = segment(b"%PDF-1.4\n" + table_bytes)
    (table,) = sections.xref_tables
    raw = sections.data[table.start : table.end]
    ok = raw == table_bytes and not sections.diagnostics
    ok = ok and len(raw) - len(b"xref\n0 5\n") == 5 * 20
    # A 9-digit offset breaks the fixed width.
    short = segment(b"%PDF-1.4\n" + table_bytes.replace(b"0000000017", b"000000017"))
    entry_at = len(b"%PDF-1.4\nxref\n0 5\n0000000010 65535 f \n")
    ok = ok and short.diagnostics == [Diagnostic("MalformedXrefEntry", entry_at, 1)]
    _report("3 xref entry grammar", ok)


# -- 4. fixture self-detection ------------------------------------------------


def test_criterion_4_fixture_self_detection(corpus_bytes):
    pack = builtin()
    started = time.monotonic()
    total = correct = 0
    failures = []
    for producer, blobs in corpus_bytes.items():
        for seed_idx, data in enumerate(blobs):
            total += 1
            verdict = detect(pack, segment(data))
            if verdict.kind is VerdictKind.PRODUCER and verdict.producer == producer.value:
                correct += 1
            else:
                failures.append((producer.value, seed_idx + 1, verdict.kind.value))
    elapsed = time.monotonic() - started
    _report("4 fixture self-detection",
            total == 110 and correct == total and elapsed < 5.0,
            f"{correct}/{total} in {elapsed:.2f}s; failures={failures[:5]}")


# -- 5. metadata robustness ----------------------------------------------------


def _mutate_metadata(data: bytes, fill: int) -> bytes:
    sections = segment(data)
    out = bytearray(data)
    mutated = False
    for obj in sections.objects:
        if not obj.is_metadata:
            continue
        raw = data[obj.start : obj.end]
        head = raw.index(b"obj") + 3
        tail = raw.rindex(b"endobj")
        start = obj.start
        out[start + head : start + tail] = bytes([fill]) * (tail - head)
        mutated = True
    assert mutated
    return bytes(out)


def _comparable(report) -> dict:
    payload = report.to_dict()
    payload.pop("declared")
    payload.pop("consistency")
    return payload


def test_criterion_5_metadata_robustness(corpus_bytes):
    pack = builtin()
    checked = 0
    for producer, blobs in corpus_bytes.items():
        for data in blobs:
            base = _comparable(scan_bytes("f", data, pack))
            zeroed = _comparable(scan_bytes("f", _mutate_metadata(data, 0x00), pack))
            rewritten = _comparable(scan_bytes("f", _mutate_metadata(data, 0x58), pack))
            assert zeroed == base, producer.value
            assert rewritten == base, producer.value
            checked += 1
    _report("5 metadata robustness", checked == 110, f"checked={checked}")


# -- 6. vote semantics ---------------------------------------------------------


def _oracle(config):
    """Independent tally: count nominating sections per producer, then the
    stated decision rule, case by case."""
    producers = sorted({p for candidate_set in config for p in candidate_set})
    tally = {
        p: sum(1 for candidate_set in config if p in candidate_set) for p in producers
    }
    if not tally:
        return ("no_result", None, frozenset())
    top = max(tally.values())
    leaders = frozenset(p for p in producers if tally[p] == top)
    if len(leaders) > 1:
        return ("ambiguous", None, leaders)
    winner = next(iter(leaders))
    if top >= 2:
        return ("producer", winner, leaders)
    # A single vote stands only with no opposition at all.
    if all(tally[p] == 0 for p in producers if p != winner):
        return ("producer", winner, leaders)
    return ("ambiguous", None, frozenset(p for p in producers if tally[p] == 1))


def test_criterion_6_vote_semantics():
    producers = ["A", "B", "C"]
    options = [frozenset()] + [frozenset({p}) for p in producers] + [
        frozenset(pair) for pair in itertools.combinations(producers, 2)
    ]
    checked = mismatches = 0
    for config in itertools.product(options, repeat=4):
        verdicts = {
            kind: candidates
            for kind, candidates in zip(SECTION_ORDER, config)
        }
        verdict = majority_vote(verdicts)
        expected_kind, expected_producer, expected_set = _oracle(config)
        got = (verdict.kind.value, verdict.producer,
               verdict.candidates if verdict.kind is VerdictKind.AMBIGUOUS else
               frozenset() if verdict.kind is VerdictKind.NO_RESULT else
               verdict.candidates)
        want = (expected_kind, expected_producer, expected_set)
        if got != want:
            mismatches += 1
        checked += 1
    # The flagship tie: two sections each for two producers.
    tie = majority_vote({
        SectionKind.HEADER: frozenset({"A"}),
        SectionKind.BODY: frozenset({"A"}),
        SectionKind.XREF: frozenset({"B"}),
        SectionKind.TRAILER: frozenset({"B"}),
    })
    ok = (checked == 7 ** 4 and mismatches == 0
          and tie.kind is VerdictKind.AMBIGUOUS and tie.candidates == {"A", "B"})
    _report("6 vote semantics", ok, f"configs={checked} mismatches={mismatches}")


# -- 7. miner rediscovery ----------------------------------------------------


_TABLE_TEMPLATE = "4 0 obj\\r\\n<</Filter/FlateDecode/Length [0-9]*>>\\r\\nstream\\r\\n"


def test_criterion_7_miner_rediscovery(corpus_bytes):
    corpus = LabeledCorpus([
        CorpusFile(data, producer.value, PROFILES[producer].os_label,
                   PROFILES[producer].distro_label)
        for producer, blobs in corpus_bytes.items()
        for data in blobs
    ])
    body = mine(corpus, SectionKind.BODY)
    word_templates = [c.template for c in body[W]]
    rediscovered = _TABLE_TEMPLATE in word_templates

    candidates = mine_all(corpus)
    pack = load_rulepack(
        emit_rulepack(candidates, "fixtures-mined", uniform_group_labels(corpus)),
        name="fixtures-mined",
    )
    total = correct = 0
    for producer, profile in PROFILES.items():
        for seed in range(11, 21):  # held out: disjoint from the mined seeds
            total += 1
            verdict = detect(pack, segment(generate(profile, seed)))
            if verdict.kind is VerdictKind.PRODUCER and verdict.producer == producer.value:
                correct += 1
    _report("7 miner rediscovery", rediscovered and total == 110 and correct == total,
            f"template={'yes' if rediscovered else word_templates} held-out={correct}/{total}")


# -- 8. consistency audit -----------------------------------------------------


def test_criterion_8_consistency_audit():
    pack = builtin()
    claims_libreoffice = {"producer_string": "LibreOffice 6.1"}
    matching = generate(replace(PROFILES[Producer.LIBREOFFICE], **claims_libreoffice), 5)
    mismatched = generate(replace(PROFILES[Producer.GHOSTSCRIPT], **claims_libreoffice), 5)
    stripped = _mutate_metadata(generate(PROFILES[Producer.GHOSTSCRIPT], 6), 0x00)
    statuses = [ConsistencyStatus(scan_bytes("audit.pdf", data, pack).consistency)
                for data in (matching, mismatched, stripped)]
    ok = statuses == [ConsistencyStatus.CONSISTENT, ConsistencyStatus.INCONSISTENT,
                      ConsistencyStatus.UNVERIFIABLE]
    _report("8 consistency audit", ok, f"statuses={[s.value for s in statuses]}")


# -- 9. batch determinism -----------------------------------------------------


def test_criterion_9_batch_determinism(tmp_path, capsys):
    manifest = emit_corpus(tmp_path, seeds=range(1, 11))
    outputs = []
    for jobs in ("1", "8"):
        code = main(["batch", str(manifest), "--format", "csv", "--jobs", jobs])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    ok = outputs[0] == outputs[1] and outputs[0].count("\n") == 111  # header + 110 rows
    with capsys.disabled():
        _report("9 batch determinism", ok)
