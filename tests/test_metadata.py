"""Metadata auditor: extraction, normalization, consistency statuses."""

from __future__ import annotations

import itertools

from pdfprov.detector import VerdictKind, detect
from pdfprov.fixtures import PROFILES, generate
from pdfprov.metadata import (
    ConsistencyStatus,
    MetadataSource,
    consistency_check,
    consistency_status,
    decode_pdf_string,
    extract_declared,
    normalize_producer_string,
)
from pdfprov.producers import DISPLAY_NAMES, Producer

GS = Producer.GHOSTSCRIPT


# -- extract_declared --------------------------------------------------------


def test_info_producer_extracted():
    data = generate(PROFILES[GS], 1, producer_string="GPL Ghostscript 9.26")
    declared = extract_declared(data)
    assert declared.producer == "GPL Ghostscript 9.26"
    assert declared.source is MetadataSource.INFO


def test_absent_metadata():
    declared = extract_declared(b"%PDF-1.4\n1 0 obj\n<<>>\nendobj\n")
    assert declared.producer is None
    assert declared.creator is None
    assert declared.source is None


def test_info_reference_with_nul_separators():
    # NUL is PDF whitespace, so "9\x000 R" is a reference to object 9.
    data = (b"%PDF-1.4\n"
            b"9 0 obj\n<</Producer (A)>>\nendobj\n"
            b"trailer\n<</Size 10/Info 9\x000\x00R>>\n")
    assert extract_declared(data).info_producer == "A"


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
    declared = extract_declared(data)
    assert declared.source is MetadataSource.BOTH
    assert declared.info_producer == "A"
    assert declared.xmp_producer == "B"
    assert declared.producer == "A"  # Info wins for the headline value


def test_xmp_element_form():
    xml = b"<pdf:Producer>Skia/PDF m85</pdf:Producer>"
    obj = b"7 0 obj\n<</Type /Metadata /Length %d>>\nstream\n" % len(xml)
    data = b"%PDF-1.4\n" + obj + xml + b"\nendstream\nendobj\n"
    declared = extract_declared(data)
    assert declared.producer == "Skia/PDF m85"
    assert declared.source is MetadataSource.XMP


def test_pdf_string_forms():
    assert decode_pdf_string(b"(simple)") == "simple"
    assert decode_pdf_string(b"(with \\(escaped\\) parens)") == "with (escaped) parens"
    assert decode_pdf_string(b"(nested (balanced) parens)") == "nested (balanced) parens"
    assert decode_pdf_string(b"(octal \\101)") == "octal A"
    assert decode_pdf_string(b"(not octal \\8)") == "not octal 8"
    assert decode_pdf_string(b"<414243>") == "ABC"
    assert decode_pdf_string(b"<FEFF00410042>") == "AB"


def test_hex_string_producer():
    data = (b"%PDF-1.4\n5 0 obj\n<</Producer <47686F73747363726970743E>>>\nendobj\n"
            b"trailer\n<</Size 6/Info 5 0 R>>\n")
    declared = extract_declared(data)
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
    for producer, display in DISPLAY_NAMES.items():
        assert normalize_producer_string(display) == producer.value


# -- consistency_check -------------------------------------------------------


def test_consistent_when_declared_matches_detection(pack):
    data = generate(PROFILES[Producer.LIBREOFFICE], 2, producer_string="LibreOffice 6.1")
    report = consistency_check(data, pack)
    assert report.status is ConsistencyStatus.CONSISTENT
    assert report.normalized_declared == Producer.LIBREOFFICE.value


def test_inconsistent_when_declared_is_another_tool(pack):
    # Ghostscript coding style, LibreOffice claim.
    data = generate(PROFILES[GS], 2, producer_string="LibreOffice 6.1")
    report = consistency_check(data, pack)
    assert report.detected.producer == GS.value
    assert report.status is ConsistencyStatus.INCONSISTENT


def test_unverifiable_when_declared_unmappable(pack):
    data = generate(PROFILES[GS], 2, producer_string="VeryPDF")
    report = consistency_check(data, pack)
    assert report.detected.producer == GS.value
    assert report.status is ConsistencyStatus.UNVERIFIABLE


def test_unverifiable_on_ambiguous_detection(pack):
    from pdfprov.detector import SectionVerdict, majority_vote
    from pdfprov.rules import SectionKind

    ambiguous = majority_vote({
        SectionKind.HEADER: SectionVerdict(SectionKind.HEADER, frozenset({"Cairo"})),
        SectionKind.BODY: SectionVerdict(SectionKind.BODY, frozenset({"SkiaPDF"})),
        SectionKind.XREF: SectionVerdict(SectionKind.XREF, frozenset()),
        SectionKind.TRAILER: SectionVerdict(SectionKind.TRAILER, frozenset()),
    })
    assert ambiguous.kind is VerdictKind.AMBIGUOUS
    declared = extract_declared(generate(PROFILES[GS], 1))
    status, _ = consistency_status(declared, ambiguous)
    assert status is ConsistencyStatus.UNVERIFIABLE


def test_status_totality(pack):
    """Every (declared, detected) combination maps to exactly one status."""
    detected_producer = detect(pack, generate(PROFILES[GS], 1))
    from pdfprov.detector import SectionVerdict, majority_vote
    from pdfprov.rules import SectionKind

    empty = {k: SectionVerdict(k, frozenset()) for k in
             (SectionKind.HEADER, SectionKind.BODY, SectionKind.XREF, SectionKind.TRAILER)}
    no_result = majority_vote(empty)
    declared_options = [None, "GPL Ghostscript 9.26", "LibreOffice 6.1", "mystery tool"]
    for declared_str, verdict in itertools.product(declared_options,
                                                   [detected_producer, no_result]):
        declared = extract_declared(
            generate(PROFILES[GS], 1, producer_string=declared_str or "")
        )
        if declared_str is None:
            declared.producer = None
        status, _ = consistency_status(declared, verdict)
        assert status in set(ConsistencyStatus)


def test_detection_is_independent_of_declared_metadata(pack):
    base = generate(PROFILES[GS], 3, producer_string="GPL Ghostscript 9.26")
    renamed = generate(PROFILES[GS], 3, producer_string="NotGhostscript 1.0")
    assert len(base) != 0
    verdict_a = detect(pack, base)
    verdict_b = detect(pack, renamed)
    assert verdict_a.votes == verdict_b.votes
    assert verdict_a.producer == verdict_b.producer
    assert {k: v.candidates for k, v in verdict_a.section_verdicts.items()} == {
        k: v.candidates for k, v in verdict_b.section_verdicts.items()
    }
