"""Metadata auditor: extraction, normalization, consistency statuses."""

from __future__ import annotations

import itertools
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_linear_time
from pdfprov.cli import scan_bytes
from pdfprov.detector import VerdictKind, detect
from pdfprov.fixtures import PROFILES, generate
from pdfprov.metadata import (
    _XMP_TAG_RE,
    _decode_literal,
    _xmp_field,
    ConsistencyStatus,
    DeclaredMetadata,
    MetadataSource,
    consistency_status,
    decode_pdf_string,
    extract_declared,
    normalize_producer_string,
)
from pdfprov.producers import Producer
from pdfprov.segmenter import segment

GS = Producer.GHOSTSCRIPT


# -- extract_declared --------------------------------------------------------


def test_info_producer_extracted():
    data = generate(replace(PROFILES[GS], producer_string="GPL Ghostscript 9.26"), 1)
    declared = extract_declared(data, segment(data))
    assert declared.producer == "GPL Ghostscript 9.26"
    assert declared.source is MetadataSource.INFO


def test_absent_metadata():
    data = b"%PDF-1.4\n1 0 obj\n<<>>\nendobj\n"
    declared = extract_declared(data, segment(data))
    assert declared.producer is None
    assert declared.creator is None
    assert declared.source is None


def test_info_reference_with_nul_separators():
    # NUL is PDF whitespace, so "9\x000 R" is a reference to object 9.
    data = (b"%PDF-1.4\n"
            b"9 0 obj\n<</Producer (A)>>\nendobj\n"
            b"trailer\n<</Size 10/Info 9\x000\x00R>>\n")
    assert extract_declared(data, segment(data)).info_producer == "A"


def test_info_after_an_unclosed_array_is_read():
    # The array ends at the next object header, so the Info object is one
    # of its own.
    data = (b"%PDF-1.4\n1 0 obj\n<</A [1 2\nendobj\n2 0 obj <</Producer (x)>> endobj\n"
            b"3 0 obj <<>> endobj\ntrailer\n<</Info 2 0 R>>")
    assert [o.obj_num for o in segment(data).objects] == [1, 2, 3]
    assert extract_declared(data, segment(data)).producer == "x"


def _xmp_object(num: int, producer: str) -> bytes:
    xml = (f'<x:xmpmeta><rdf:Description pdf:Producer="{producer}" '
           f'xmp:CreatorTool="Tool"/></x:xmpmeta>').encode()
    return (b"%d 0 obj\n<</Type /Metadata /Subtype /XML /Length %d>>\nstream\n"
            % (num, len(xml)) + xml + b"\nendstream\nendobj\n")


def test_info_and_xmp_disagreement_keeps_both():
    data = (b"%PDF-1.4\n"
            b"5 0 obj\n<</Producer (A)>>\nendobj\n"
            + _xmp_object(6, "B")
            + b"trailer\n<</Size 7/Root 1 0 R/Info 5 0 R>>\n")
    declared = extract_declared(data, segment(data))
    assert declared.source is MetadataSource.BOTH
    assert declared.info_producer == "A"
    assert declared.xmp_producer == "B"
    assert declared.producer == "A"  # Info wins for the headline value


def test_xmp_element_form():
    xml = b"<pdf:Producer>Skia/PDF m85</pdf:Producer>"
    obj = b"7 0 obj\n<</Type /Metadata /Length %d>>\nstream\n" % len(xml)
    data = b"%PDF-1.4\n" + obj + xml + b"\nendstream\nendobj\n"
    declared = extract_declared(data, segment(data))
    assert declared.producer == "Skia/PDF m85"
    assert declared.source is MetadataSource.XMP


def test_xmp_fields_are_read_from_the_whole_metadata_stream():
    """Body elements cut stream payloads after two bytes; the XMP fields
    of a /Type /Metadata stream are still read from all of its bytes."""
    xml = (b"<?xpacket begin='' id='W5M0MpCehiHzreSzNTczkc9d'?>" + b" " * 2000
           + b"<pdf:Producer>Skia/PDF m85</pdf:Producer>"
           + b"<xmp:CreatorTool>Chromium</xmp:CreatorTool>\n<?xpacket end='w'?>")
    obj = b"7 0 obj\n<</Type /Metadata /Subtype /XML /Length %d>>\nstream\n" % len(xml)
    data = b"%PDF-1.4\n" + obj + xml + b"\nendstream\nendobj\n"
    (meta,) = segment(data).objects
    assert meta.is_metadata and data[meta.payload_start : meta.payload_end] == xml
    declared = extract_declared(data, segment(data))
    assert (declared.producer, declared.creator) == ("Skia/PDF m85", "Chromium")
    assert declared.source is MetadataSource.XMP


# The element search the find loop replaced, kept as its oracle.
def _regex_xmp_field(raw: bytes, names: tuple[bytes, ...]) -> str | None:
    for name in names:
        m = re.search(rb"<" + name + rb"(?:\s[^>]*)?>(.*?)</" + name + rb">", raw, re.DOTALL)
        if m:
            text = _XMP_TAG_RE.sub(b"", m.group(1)).strip()
            if text:
                return text.decode("utf-8", "replace")
        m = re.search(name + rb'="([^"]*)"', raw)
        if m and m.group(1).strip():
            return m.group(1).strip().decode("utf-8", "replace")
    return None


_XMP_NAMES = (b"pdf:Producer", b"xmp:CreatorTool")
_XMP_SOUP = [
    b"<pdf:Producer", b"</pdf:Producer>", b"</pdf:Producer", b"<pdf:ProducerX",
    b"<xmp:CreatorTool", b"</xmp:CreatorTool>", b'xmp:CreatorTool="T"', b'pdf:Producer="P"',
    b'pdf:Producer=" "', b"<", b">", b"/", b'"', b"<rdf:li>", b"</rdf:li>", b"a", b"Tool",
    b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\x00",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_XMP_SOUP), max_size=30))
@example([b"<pdf:ProducerX", b">a", b"<pdf:Producer", b">b", b"</pdf:Producer>"])
@example([b"<pdf:Producer", b"\x0b", b"a", b">", b"x", b"</pdf:Producer>"])
@example([b"<pdf:Producer", b">", b"<pdf:Producer", b">", b"</pdf:Producer"])
@example([b"<pdf:Producer"])
@example([b"<pdf:Producer", b" ", b"</pdf:Producer>", b"a", b"</pdf:Producer>"])
def test_xmp_element_search_matches_the_regex(parts):
    raw = b"".join(parts)
    assert _xmp_field(raw, _XMP_NAMES) == _regex_xmp_field(raw, _XMP_NAMES)


@pytest.mark.parametrize("shape", [b"<pdf:Producer>", b"<pdf:Producer a"])
def test_xmp_search_time_is_linear(shape):
    # Every opening tag is left unclosed; the regex searched on to the end
    # from each one.
    n = 1000
    assert_linear_time(
        f"{shape!r} at n={n}", lambda raw: _xmp_field(raw, (b"pdf:Producer",)),
        shape * n, shape * 2 * n,
    )


def test_pdf_string_forms():
    assert decode_pdf_string(b"(simple)") == "simple"
    assert decode_pdf_string(b"(with \\(escaped\\) parens)") == "with (escaped) parens"
    assert decode_pdf_string(b"(nested (balanced) parens)") == "nested (balanced) parens"
    assert decode_pdf_string(b"(octal \\101)") == "octal A"
    assert decode_pdf_string(b"(not octal \\8)") == "not octal 8"
    assert decode_pdf_string(b"<414243>") == "ABC"
    assert decode_pdf_string(b"<FEFF00410042>") == "AB"


def test_utf8_text_strings_decode_behind_their_byte_order_mark():
    """PDF 2.0 (ISO 32000-2, 7.9.2.2) lets a text string be UTF-8 behind EF BB BF."""
    text = "LibreOffice 7.0 \u2014 Writer"
    encoded = b"\xef\xbb\xbf" + text.encode("utf-8")
    assert decode_pdf_string(b"(" + encoded + b")") == text
    assert decode_pdf_string(b"<" + encoded.hex().upper().encode() + b">") == text
    # Without the mark the same bytes are PDFDocEncoding: E2 80 94 is a-circumflex,
    # bullet and the fl ligature.
    assert decode_pdf_string(b"(" + text.encode("utf-8") + b")") == "LibreOffice 7.0 \u00e2\u2022\ufb02 Writer"


def test_text_strings_without_a_byte_order_mark_decode_as_pdfdocencoding():
    """ISO 32000-1 Annex D: PDFDocEncoding differs from Latin-1 at 0x18-0x1F,
    0x80-0x9E and 0xA0, and leaves 0x7F, 0x9F and 0xAD undefined."""
    assert decode_pdf_string(b"(Acme\x84Writer \x92 9)") == "Acme\u2014Writer \u2122 9"
    assert decode_pdf_string(b"<18 1F 80 9E A0>") == "\u02d8\u02dc\u2022\u017e\u20ac"
    assert decode_pdf_string(b"(\\030\\237\\240)") == "\u02d8\x9f\u20ac"
    # Undefined codes, and Latin-1's own letters, read as Latin-1.
    assert decode_pdf_string(b"(\x7f\x9f\xad\xe9\xff)") == "\x7f\x9f\xad\xe9\xff"


# The escape decoder's loop before one re.sub replaced it, kept verbatim as
# the oracle the pattern must agree with.
_LITERAL_ESCAPES = {
    b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\x0c",
    b"(": b"(", b")": b")", b"\\": b"\\",
}


def _loop_decode_literal(value: bytes) -> bytes:
    out = bytearray()
    i = 0
    n = len(value)
    while i < n:
        b = value[i : i + 1]
        if b != b"\\":
            out += b
            i += 1
            continue
        nxt = value[i + 1 : i + 2]
        if nxt in _LITERAL_ESCAPES:
            out += _LITERAL_ESCAPES[nxt]
            i += 2
        elif (m := re.match(rb"[0-7]{1,3}", value[i + 1 : i + 4])) is not None:
            out.append(int(m.group(0), 8) & 0xFF)
            i += 1 + len(m.group(0))
        elif nxt in (b"\r", b"\n"):  # line continuation
            i += 2
            if nxt == b"\r" and value[i : i + 1] == b"\n":
                i += 1
        else:
            out += nxt
            i += 2
    return bytes(out)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from([b"\\", b"0", b"3", b"7", b"8", b"\r", b"\n", b"n", b"f",
                                 b"(", b")", b"a", b"\xff", b"\\777", b"\\8", b"\\\r\n"]),
                max_size=16).map(b"".join))
@example(b"Acrobat Distiller 19.0 \\(Windows\\)")
@example(b"\\1234\\\\\\")
def test_literal_escapes_decode_as_the_loop_did(value):
    assert _decode_literal(value) == _loop_decode_literal(value)


def test_hex_string_producer():
    data = (b"%PDF-1.4\n5 0 obj\n<</Producer <47686F73747363726970743E>>>\nendobj\n"
            b"trailer\n<</Size 6/Info 5 0 R>>\n")
    declared = extract_declared(data, segment(data))
    assert declared.producer == "Ghostscript>"


# -- normalize_producer_string -----------------------------------------------


def test_normalize_known_strings():
    assert normalize_producer_string("GPL Ghostscript 9.23") == "Ghostscript"
    assert normalize_producer_string("Microsoft Word for Office 365") == "MicrosoftOfficeWord"
    assert normalize_producer_string("Skia/PDF m76") == "SkiaPDF"
    assert normalize_producer_string("MiKTeX pdfTeX-1.40.12") == "PdfTeX"
    assert normalize_producer_string("LuaTeX-1.10.0") == "LuaTeX"
    assert normalize_producer_string("xdvipdfmx (20200315)") == "XdviPDFmx"
    assert normalize_producer_string("macOS ... Quartz PDFContext") == "MacOSXQuartz"


def test_normalize_unknown_strings():
    assert normalize_producer_string("Online2PDF.com") is None
    assert normalize_producer_string("") is None
    assert normalize_producer_string(None) is None
    assert normalize_producer_string("Same as original file") is None


def test_normalize_idempotent_over_display_names():
    # Human-facing tool names, as commonly printed by the tools themselves.
    display_names = {
        Producer.ACROBAT_DISTILLER: "Acrobat Distiller",
        Producer.MICROSOFT_OFFICE_WORD: "Microsoft Office Word",
        Producer.LIBREOFFICE: "LibreOffice",
        Producer.GHOSTSCRIPT: "Ghostscript",
        Producer.MACOS_QUARTZ: "Mac OS X Quartz",
        Producer.PDFTEX: "pdfTeX",
        Producer.SKIA_PDF: "Skia/PDF",
        Producer.CAIRO: "cairo",
        Producer.XDVIPDFMX: "xdviPDFmx",
        Producer.LUATEX: "LuaTeX",
        Producer.PDFLATEX: "PDFLaTeX",
    }
    for producer, display in display_names.items():
        assert normalize_producer_string(display) == producer.value


# -- consistency, through the scan that audit runs -----------------------------


def test_consistent_when_declared_matches_detection(pack):
    data = generate(replace(PROFILES[Producer.LIBREOFFICE], producer_string="LibreOffice 6.1"), 2)
    report = scan_bytes("lo.pdf", data, pack)
    assert ConsistencyStatus(report.consistency) is ConsistencyStatus.CONSISTENT
    assert normalize_producer_string(report.declared.producer) == Producer.LIBREOFFICE.value


def test_inconsistent_when_declared_is_another_tool(pack):
    # Ghostscript coding style, LibreOffice claim.
    data = generate(replace(PROFILES[GS], producer_string="LibreOffice 6.1"), 2)
    report = scan_bytes("gs.pdf", data, pack)
    assert report.producer == GS.value
    assert ConsistencyStatus(report.consistency) is ConsistencyStatus.INCONSISTENT


def test_unverifiable_when_declared_unmappable(pack):
    data = generate(replace(PROFILES[GS], producer_string="VeryPDF"), 2)
    report = scan_bytes("gs.pdf", data, pack)
    assert report.producer == GS.value
    assert ConsistencyStatus(report.consistency) is ConsistencyStatus.UNVERIFIABLE


def test_unverifiable_on_ambiguous_detection(pack):
    from pdfprov.detector import majority_vote
    from pdfprov.rules import SectionKind

    ambiguous = majority_vote({
        SectionKind.HEADER: frozenset({"Cairo"}),
        SectionKind.BODY: frozenset({"SkiaPDF"}),
        SectionKind.XREF: frozenset(),
        SectionKind.TRAILER: frozenset(),
    })
    assert ambiguous.kind is VerdictKind.AMBIGUOUS
    data = generate(PROFILES[GS], 1)
    declared = extract_declared(data, segment(data))
    status, _ = consistency_status(declared, ambiguous)
    assert status is ConsistencyStatus.UNVERIFIABLE


def test_outvoted_declared_tool_is_unverifiable():
    from pdfprov.detector import majority_vote
    from pdfprov.rules import SectionKind

    # LuaTeX wins 3-2, but two sections also voted for the declared pdfTeX.
    verdict = majority_vote({
        SectionKind.HEADER: frozenset({"LuaTeX", "PdfTeX"}),
        SectionKind.BODY: frozenset({"LuaTeX"}),
        SectionKind.XREF: frozenset(),
        SectionKind.TRAILER: frozenset({"LuaTeX", "PdfTeX"}),
    })
    assert verdict.producer == "LuaTeX"
    declared = DeclaredMetadata(producer="pdfTeX-1.40.22")
    assert consistency_status(declared, verdict) == (ConsistencyStatus.UNVERIFIABLE, "PdfTeX")
    # A declared tool no section voted for is still contradicted.
    declared = DeclaredMetadata(producer="LibreOffice 6.1")
    assert consistency_status(declared, verdict) == (
        ConsistencyStatus.INCONSISTENT, "LibreOffice"
    )


def test_status_totality(pack):
    """Every (declared, detected) combination maps to exactly one status."""
    detected_producer = detect(pack, segment(generate(PROFILES[GS], 1)))
    from pdfprov.detector import majority_vote
    from pdfprov.rules import SectionKind

    empty = {k: frozenset() for k in
             (SectionKind.HEADER, SectionKind.BODY, SectionKind.XREF, SectionKind.TRAILER)}
    no_result = majority_vote(empty)
    declared_options = [None, "GPL Ghostscript 9.26", "LibreOffice 6.1", "mystery tool"]
    for declared_str, verdict in itertools.product(declared_options,
                                                   [detected_producer, no_result]):
        data = generate(replace(PROFILES[GS], producer_string=declared_str or ""), 1)
        declared = extract_declared(data, segment(data))
        if declared_str is None:
            declared.producer = None
        status, _ = consistency_status(declared, verdict)
        assert status in set(ConsistencyStatus)


def test_detection_is_independent_of_declared_metadata(pack):
    base = generate(replace(PROFILES[GS], producer_string="GPL Ghostscript 9.26"), 3)
    renamed = generate(replace(PROFILES[GS], producer_string="NotGhostscript 1.0"), 3)
    assert len(base) != 0
    verdict_a = detect(pack, segment(base))
    verdict_b = detect(pack, segment(renamed))
    assert verdict_a.votes == verdict_b.votes
    assert verdict_a.producer == verdict_b.producer
    assert verdict_a.section_verdicts == verdict_b.section_verdicts
