"""Segmenter: header, objects, xref tables, trailers, spans, metadata flags."""

from __future__ import annotations

import random
import re
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    LIBREOFFICE_TRAILER,
    PDFTEX_STREAM_OBJECT,
    LUATEX_STREAM_OBJECT,
    WORD_DOUBLE_TRAILER,
    WORD_XREF_TABLE,
    header_bytes,
)
from pdfprov.errors import NotAPdf
from pdfprov.fixtures import PROFILES, generate
from pdfprov import segmenter
from pdfprov.builtin_pack import builtin
from pdfprov.cli import scan_bytes
from pdfprov.producers import Producer
from pdfprov.rules import SectionKind, presence_token, section_elements
from pdfprov.segmenter import (
    _KEY_RE,
    _MAX_NESTING,
    _KEYWORD_RE,
    _NAME,
    _scan_literal_string,
    _skip_ws,
    PdfSections,
    Span,
    _HEAD_RE,
    _Stop,
    _find_header,
    _lex,
    parse_header,
    segment,
)


def _fragment(data: bytes) -> PdfSections:
    """Segment a header-less fragment behind a minimal %PDF header."""
    return segment(b"%PDF-1.4\n" + data)


# -- parse_header ----------------------------------------------------------


def test_header_distiller_magic():
    assert parse_header(b"%PDF-1.4\n%\xE2\xE3\xCF\xD3\n rest") == b"\xE2\xE3\xCF\xD3"


def test_header_without_second_comment():
    assert parse_header(b"%PDF-1.7\n1 0 obj\n<<>>\nendobj\n") is None


def test_header_word_magic_crlf():
    assert parse_header(b"%PDF-1.5\n%\xB5\xB5\xB5\xB5\r\nrest") == b"\xB5\xB5\xB5\xB5"


@pytest.mark.parametrize(
    "data, comment, diagnostics",
    [
        pytest.param(b"%PDF-1.4\n%\xE2\xE3\xCF\xD3\n", b"\xE2\xE3\xCF\xD3", [], id="versioned"),
        pytest.param(b"%PDF\n%\xE2\xE3\xCF\xD3\n", b"\xE2\xE3\xCF\xD3",
                     ["HeaderVersionMissing"], id="no-version"),
        pytest.param(b"%PDF-x %PDF-1.4\n%\xE2\xE3\xCF\xD3\n", b"\xE2\xE3\xCF\xD3", [],
                     id="versioned-after-plain"),
        pytest.param(b"%PDF-1.\n%\xE2\n", b"\xE2", ["HeaderVersionMissing", "ShortBinaryComment"],
                     id="cut-version-short-comment"),
        pytest.param(b"%PDF-1.4\n%\n1 0 obj\n<<>>\nendobj\n", None, [], id="empty-comment"),
    ],
)
def test_header_version_diagnostic(data, comment, diagnostics):
    sections = segment(data)
    assert sections.binary_comment == comment
    assert sections.diagnostics == diagnostics


def test_header_not_a_pdf():
    with pytest.raises(NotAPdf):
        parse_header(b"GIF89a not a pdf at all")
    with pytest.raises(NotAPdf):
        parse_header(b"")


def test_header_magic_tolerated_after_junk_prefix():
    assert parse_header(b"JUNK" * 10 + b"%PDF-1.6\n%\xC7\xEC\x8F\xA2\n") == b"\xC7\xEC\x8F\xA2"


def test_header_magic_beyond_window_rejected():
    with pytest.raises(NotAPdf):
        parse_header(b" " * 2000 + b"%PDF-1.4\n")


def test_header_short_comment_recorded_and_flagged():
    data = b"%PDF-1.4\n%\xE2\xE3\n1 0 obj\n<<>>\nendobj\n"
    sections = segment(data)
    assert sections.binary_comment == b"\xE2\xE3"
    assert "ShortBinaryComment" in sections.diagnostics


# -- objects ---------------------------------------------------------------


def test_pdftex_style_object():
    objs = _fragment(PDFTEX_STREAM_OBJECT).objects
    assert len(objs) == 1
    obj = objs[0]
    assert (obj.obj_num, obj.gen_num) == (4, 0)
    assert list(obj.values) == ["/Length", "/Filter"]
    assert obj.raw == PDFTEX_STREAM_OBJECT.rstrip(b"\n")


def test_luatex_style_object_same_keys_different_raw():
    objs = _fragment(LUATEX_STREAM_OBJECT).objects
    assert list(objs[0].values) == ["/Length", "/Filter"]
    assert objs[0].raw != _fragment(PDFTEX_STREAM_OBJECT).objects[0].raw


def test_empty_body_region():
    assert segment(b"%PDF-1.4\njust a header\n").objects == []


def test_truncated_object_recorded_not_fatal():
    data = b"%PDF-1.4\n9 0 obj\n<</Length 3>>\nstream\nabc"
    sections = segment(data)
    (obj,) = sections.objects
    assert obj.raw == data[len(b"%PDF-1.4\n"):]
    assert sections.diagnostics == ["TruncatedObject obj 9 0"]


# -- stream payloads -----------------------------------------------------------


@pytest.mark.parametrize("eol_after", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("payload", [b"", b"x", b"x\xda", b"x\xda\x01"],
                         ids=["0-bytes", "1-byte", "2-bytes", "3-bytes"])
@pytest.mark.parametrize("eol_before", [b"\r\n", b"\n", b""],
                         ids=["CRLF-endstream", "LF-endstream", "bare-endstream"])
def test_payload_span_lies_between_the_stream_line_ends(eol_after, payload, eol_before):
    head = b"5 0 obj\n<</Length %d>>\nstream" % len(payload) + eol_after
    tail = eol_before + b"endstream\nendobj"
    data = b"%PDF-1.4\n" + head + payload + tail + b"\n"
    sections = segment(data)
    (o,) = sections.objects
    assert o.raw == head + payload + tail
    assert o.payload == Span(o.span.offset + len(head), len(payload))
    assert data[o.payload.offset : o.payload.end] == payload
    # The body element keeps two payload bytes and the endstream line end.
    assert section_elements(sections, SectionKind.BODY) == [("obj:5:0", head + payload[:2] + tail)]


@pytest.mark.parametrize("eol_after", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
def test_payload_without_endstream_runs_to_the_end_of_the_input(eol_after):
    head = b"%PDF-1.4\n9 0 obj\n<</Length 9>>\nstream" + eol_after
    data = head + b"x\xdaabc\n"
    sections = segment(data)
    (o,) = sections.objects
    assert o.payload == Span(len(head), len(data) - len(head))
    assert section_elements(sections, SectionKind.BODY) == [("obj:9:0", o.raw[:-4])]
    (o,) = segment(head).objects
    assert o.payload == Span(len(head), 0)


def test_payload_without_endstream_ends_at_the_next_object_header():
    data = (b"%PDF-1.4\n1 0 obj <</Length 2>> stream\nxx\nendobj\n"
            b"2 0 obj <</Type/Catalog>> endobj\n3 0 obj <</Producer (x)>> endobj\n"
            b"trailer <</Root 2 0 R/Info 3 0 R>>\n")
    sections = segment(data)
    assert [o.obj_num for o in sections.objects] == [1, 2, 3]
    first = sections.objects[0]
    assert data[first.payload.offset : first.payload.end] == b"xx\nendobj\n"
    assert first.span.end == data.index(b"2 0 obj")
    assert [t.values for t in sections.trailers] == [{"/Root": b"2 0 R", "/Info": b"3 0 R"}]
    assert sections.info_obj_num == 3
    assert sections.diagnostics == ["TruncatedObject obj 1 0"]


def test_objects_without_a_stream_have_no_payload():
    objs = _fragment(b"1 0 obj\n<</Type/Catalog>>\nendobj\n2 0 obj\n42\nendobj\n").objects
    assert [o.payload for o in objs] == [None, None]


def test_object_numbers_not_matched_inside_longer_tokens():
    data = (b"110 0 obj\n<</A 1>>\nendobj\n12345678901 0 obj\n<<>>\nendobj\n"
            b"x1 0 obj 3 0 obj\n<<>>\nendobj\n/X1 0 obj 7 0 obj\n<<>>\nendobj\n")
    objs = _fragment(data).objects
    assert [(o.obj_num, o.gen_num) for o in objs] == [(110, 0), (3, 0), (7, 0)]


def test_nested_dict_keys_stay_out_of_top_level():
    data = b"5 0 obj\n<</A<</Inner 1>>/B 2>>\nendobj\n"
    assert list(_fragment(data).objects[0].values) == ["/A", "/B"]


# What follows the dictionary in every value-grammar fragment.  A value that
# never closes runs to the end of the input and takes this tail with it, but
# its dictionary, with no ">>" to close it, ends at the tail's endobj.
_TAIL = b"\nendobj\n"
_MALFORMED = ["MalformedDictionary obj 1 0"]


@pytest.mark.parametrize(
    "body, values, dict_text, diagnostics",
    [
        pytest.param(b"<</Type/My#20Name/N 1>>", {"/Type": b"/My#20Name", "/N": b"1"},
                     None, [], id="name-with-hex-escape"),
        pytest.param(b"<</A <48 65>/B 2>>", {"/A": b"<48 65>", "/B": b"2"},
                     None, [], id="hex-string"),
        pytest.param(b"<</A <4F", {"/A": b"<4F" + _TAIL},
                     b"<</A <4F\n", _MALFORMED, id="unclosed-hex-string"),
        pytest.param(b"<</A (a(b)\\)c)/B 1>>", {"/A": b"(a(b)\\)c)", "/B": b"1"},
                     None, [], id="literal-string"),
        pytest.param(b"<</A (a", {"/A": b"(a" + _TAIL},
                     b"<</A (a\n", _MALFORMED, id="unclosed-literal-string"),
        pytest.param(b"<</A -1.5/B 12 0 R>>", {"/A": b"-1.5", "/B": b"12 0 R"},
                     None, [], id="number-and-reference"),
        pytest.param(b"<</Info +3 0 R>>", {"/Info": b"+3 0 R"},
                     None, [], id="signed-reference"),
        pytest.param(b"<</A true/B null>>", {"/A": b"true", "/B": b"null"},
                     None, [], id="keywords"),
        pytest.param(b"<</K [1 <</S /P /Q [2]>> (x)]/L 0>>",
                     {"/K": b"[1 <</S /P /Q [2]>> (x)]", "/L": b"0"},
                     None, [], id="array-holding-a-dictionary"),
        pytest.param(b"<</A 1 % note >>\n/B 2>>", {"/A": b"1", "/B": b"2"},
                     None, [], id="comment"),
        pytest.param(b"<</A 1 x>>", {"/A": b"1"}, None, _MALFORMED, id="stray-token"),
        # Past the nesting floor the value is recovered by balancing << >>,
        # which here runs off the end of the input.
        pytest.param(b"<</A " + b"[" * 70 + b"1" + b"]" * 70 + b">>",
                     {"/A": b"[" * 70 + b"1" + b"]" * 70 + b">>" + _TAIL},
                     b"<</A " + b"[" * 70 + b"1" + b"]" * 70 + b">>\n",
                     _MALFORMED, id="nesting-floor"),
    ],
)
def test_dictionary_value_grammar(body, values, dict_text, diagnostics):
    data = b"%PDF-1.4\n1 0 obj\n" + body + _TAIL
    sections = segment(data)
    (obj,) = sections.objects
    assert list(obj.values.items()) == list(values.items())
    span = obj.dict_span
    assert data[span.offset : span.end] == (body if dict_text is None else dict_text)
    assert sections.diagnostics == diagnostics


def test_signed_number_is_not_an_info_reference():
    sections = _fragment(b"3 0 obj\n<<>>\nendobj\ntrailer\n<</Info +3 0 R>>\n")
    assert sections.trailers[0].values == {"/Info": b"+3 0 R"}
    assert sections.info_obj_num is None
    assert not sections.objects[0].is_metadata


# -- xref tables --------------------------------------------------------------


def test_word_xref_table():
    sections = _fragment(WORD_XREF_TABLE)
    (table,) = sections.xref_tables
    assert table == WORD_XREF_TABLE
    assert len(table) - len(b"xref\n0 5\n") == 5 * 20
    assert sections.diagnostics == []


def test_absent_xref_sets_flag():
    sections = segment(b"%PDF-1.5\n1 0 obj\n<<>>\nendobj\n")
    assert sections.xref_tables == []
    assert presence_token(sections) == b"A"


def test_two_revisions_two_tables():
    data = WORD_XREF_TABLE + b"junk\n" + WORD_XREF_TABLE
    assert _fragment(data).xref_tables == [WORD_XREF_TABLE, WORD_XREF_TABLE]


def test_malformed_entry_skipped_with_diagnostic():
    data = b"xref\n0 2\n0000000017 00000 n \n17 0 n\n"
    sections = _fragment(data)
    assert any(d.startswith("MalformedXrefEntry") for d in sections.diagnostics)
    # The skipped line stays inside the table.
    assert sections.xref_tables == [data]


def test_startxref_keyword_is_not_a_table():
    assert _fragment(b"startxref\n123\n%%EOF\n").xref_tables == []


def test_understated_table_does_not_swallow_the_trailer():
    data = (b"%PDF-1.4\nxref\n0 5\n"
            b"0000000000 65535 f \n0000000017 00000 n \n"
            b"trailer\n<</Size 5/Root 1 0 R>>\n")
    sections = segment(data)
    assert any(d.startswith("XrefTruncatedSubsection") for d in sections.diagnostics)
    assert sections.xref_tables == [data[len(b"%PDF-1.4\n") : data.index(b"trailer")]]
    assert list(sections.trailers[0].values) == ["/Size", "/Root"]


def test_element_spans_lie_within_the_file(corpus_bytes):
    for blobs in corpus_bytes.values():
        sections = segment(blobs[0])
        assert sections.objects and sections.trailers
        for element in (*sections.objects, *sections.trailers):
            assert 0 <= element.span.offset <= element.span.end <= len(blobs[0])


# -- trailers ---------------------------------------------------------------


def test_libreoffice_trailer_keys():
    (trailer,) = _fragment(LIBREOFFICE_TRAILER).trailers
    assert list(trailer.values) == ["/Size", "/Root", "/Info", "/ID", "/DocChecksum"]


def test_word_double_trailer():
    trailers = _fragment(WORD_DOUBLE_TRAILER).trailers
    assert len(trailers) == 2
    assert list(trailers[1].values)[-2:] == ["/Prev", "/XRefStm"]


def test_minimal_trailer():
    (trailer,) = _fragment(b"trailer << /Size 4 /Root 1 0 R >>").trailers
    assert list(trailer.values) == ["/Size", "/Root"]


# A digit run longer than Python's int() accepts (4,300 digits by default).
_HUGE = b"9" * 5000
_TABLE = b"xref\n0 1\n0000000000 65535 f \n"


@pytest.mark.parametrize(
    "data, check",
    [
        pytest.param(
            _TABLE + _HUGE + b" 1\n0000000009 00000 n \ntrailer\n<</Size 1>>\n",
            lambda s: s.xref_tables == [_TABLE],
            id="xref-subsection",
        ),
        pytest.param(
            b"1 0 obj\n<</Producer (x)>>\nendobj\n" + _TABLE
            + b"trailer\n<</Size 2/Info 1 0 R>>\ntrailer\n<</Size 2/Info " + _HUGE
            + b" 0 R>>\n",
            lambda s: s.info_obj_num == 1 and s.objects[0].is_metadata,
            id="info-reference",
        ),
    ],
)
def test_digit_runs_past_the_int_limit_do_not_match(data, check):
    assert check(_fragment(data))


def test_xref_stream_dict_is_a_trailer():
    data = (b"6 0 obj\n<</Type /XRef /Size 7 /Root 1 0 R>>\nstream\nxx\nendstream\n"
            b"endobj\nstartxref\n9\n%%EOF\n")
    (trailer,) = _fragment(data).trailers
    assert not trailer.raw.startswith(b"trailer")
    assert list(trailer.values)[0] == "/Type"


def test_malformed_trailer_stops_at_the_next_trailer_or_object():
    first, second = _fragment(b"trailer\n<< <<x\ntrailer\n<</Size 1>>\n").trailers
    assert first.raw == b"trailer\n<< <<x\n"
    assert list(second.values) == ["/Size"]
    (trailer,) = _fragment(b"trailer\n<< <<x\n1 0 obj\n<<>>\nendobj\n").trailers
    assert trailer.raw == b"trailer\n<< <<x\n"


def test_malformed_object_dictionary_stops_at_the_next_object():
    data = generate(PROFILES[Producer.LUATEX], 1)
    broken = data.replace(b"<</Type/Catalog/Pages 2 0 R>>", b"<</Type/Catalog/Pages>>")
    assert broken != data
    sections = segment(broken)
    assert [o.obj_num for o in sections.objects] == [o.obj_num for o in segment(data).objects]
    assert len(sections.xref_tables) == 1 and len(sections.trailers) == 1
    assert sections.info_obj_num == 5
    first = sections.objects[0]
    # No ">>" closes the dictionary before the next object, so it ends at the
    # object's own endobj.
    assert first.raw == b"1 0 obj\n<</Type/Catalog/Pages>>\nendobj"
    assert sections.diagnostics == ["MalformedDictionary obj 1 0"]


def test_nesting_floor_recovery_stops_at_the_next_object():
    data = generate(PROFILES[Producer.LUATEX], 1)
    deep = b"/X" + b"[" * 70 + b"]" * 70
    broken = data.replace(b"/Pages 2 0 R>>", b"/Pages 2 0 R" + deep + b">>", 1)
    assert broken != data
    sections = segment(broken)
    assert [o.obj_num for o in sections.objects] == [1, 2, 3, 4, 5]
    assert len(sections.xref_tables) == 1 and len(sections.trailers) == 1
    assert sections.info_obj_num == 5
    # The recovery runs to the next object header at the latest, and the
    # object ends at its own endobj before it.
    assert sections.objects[0].raw.endswith(b"]>>\nendobj")
    assert sections.objects[0].span.end < broken.index(b"2 0 obj")
    assert sections.diagnostics == ["MalformedDictionary obj 1 0"]


def test_unclosed_array_ends_at_the_dictionary_end():
    data = generate(PROFILES[Producer.LUATEX], 1)
    broken = data.replace(b"/Kids[3 0 R]", b"/Kids[3 0 R", 1)
    assert broken != data
    sections = segment(broken)
    assert [o.obj_num for o in sections.objects] == [1, 2, 3, 4, 5]
    assert len(sections.xref_tables) == 1 and len(sections.trailers) == 1
    assert sections.info_obj_num == 5
    kids = sections.objects[1]
    assert kids.values["/Kids"] == b"[3 0 R/Count 1>>"
    # No ">>" is left to close the dictionary before the next object, so it
    # ends at the object's own endobj, which is not cut off.
    assert kids.raw.endswith(b"endobj")
    assert kids.span.end < broken.index(b"3 0 obj")
    assert sections.diagnostics == ["MalformedDictionary obj 2 0"]
    assert scan_bytes("broken.pdf", broken, builtin()).consistency == "consistent"


def test_unclosed_literal_string_ends_at_the_dictionary_end():
    data = generate(PROFILES[Producer.LUATEX], 1)
    broken = data.replace(b"/Type/Pages", b"/Type/Pages/T (a", 1)
    assert broken != data
    sections = segment(broken)
    assert [o.obj_num for o in sections.objects] == [1, 2, 3, 4, 5]
    assert len(sections.xref_tables) == 1 and len(sections.trailers) == 1
    assert sections.info_obj_num == 5
    pages = sections.objects[1]
    # The string runs on to the ">>" that balances its dictionary, short of
    # the next object header.
    assert pages.values["/T"] == b"(a/Kids[3 0 R]/Count 1>>"
    assert pages.raw.endswith(b"endobj")
    assert pages.span.end < broken.index(b"3 0 obj")
    assert sections.diagnostics == ["MalformedDictionary obj 2 0"]
    assert scan_bytes("broken.pdf", broken, builtin()).consistency == "consistent"


@pytest.mark.parametrize("string", [b"(x\n", b"(x (y)\n"], ids=["flat", "nested"])
def test_a_string_does_not_run_past_the_next_object_header(string):
    data = (b"%PDF-1.4\n1 0 obj\n<</A " + string
            + b"endobj\n2 0 obj\n<</B /y>> ) >>\nendobj\n")
    sections = segment(data)
    assert [o.obj_num for o in sections.objects] == [1, 2]
    first, second = sections.objects
    # The dictionary ends at the object's own endobj, short of the header.
    assert first.values == {"/A": string + b"endobj\n"}
    assert first.raw == b"1 0 obj\n<</A " + string + b"endobj"
    assert second.values == {"/B": b"/y"}
    assert sections.diagnostics == ["MalformedDictionary obj 1 0"]


def test_an_unclosed_hex_string_does_not_run_past_the_next_object_header():
    data = b"%PDF-1.4\n1 0 obj << /A <\n2 0 obj << /A <4F\n3 0 obj <</B 1>> endobj\n"
    sections = segment(data)
    assert [o.obj_num for o in sections.objects] == [1, 2, 3]
    assert [o.values for o in sections.objects] == [{"/A": b"<\n"}, {"/A": b"<4F\n"}, {"/B": b"1"}]
    assert sections.diagnostics == [
        "MalformedDictionary obj 1 0", "TruncatedObject obj 1 0",
        "MalformedDictionary obj 2 0", "TruncatedObject obj 2 0",
    ]


@pytest.mark.parametrize(
    "body",
    [b"<</A (x trailer1 0 obj y)>>\n", b"<</A (x (trailer1 0 obj) y)>>\n", b"<</A 1>> x1 0 obj "],
    ids=["string", "nested-string", "after-the-dictionary"],
)
def test_a_header_that_starts_no_object_bounds_nothing(body):
    # "1 0 obj" behind a letter starts no object, so neither the string's
    # limit nor the object's end is there.
    data = b"%PDF-1.4\n1 0 obj\n" + body + b"endobj\n"
    sections = segment(data)
    (obj,) = sections.objects
    assert obj.raw == data[len(b"%PDF-1.4\n"):-1]
    assert sections.diagnostics == []


@pytest.mark.parametrize("string", [b"(x\n", b"(x (y)\n"], ids=["flat", "nested"])
def test_a_trailer_string_does_not_run_past_the_next_trailer(string):
    data = b"%PDF-1.4\ntrailer\n<</Info " + string + b"trailer\n<</Size 3>> )>>\n"
    sections = segment(data)
    first, second = sections.trailers
    assert first.raw == b"trailer\n<</Info " + string and first.values == {}
    assert second.raw == b"trailer\n<</Size 3>>" and second.values == {"/Size": b"3"}
    assert sections.diagnostics == ["MalformedTrailer at offset 9"]


def test_nesting_floor_recovery_in_a_trailer_stops_at_the_next_object():
    deep = b"[" * 70 + b"]" * 70
    data = b"trailer\n<</A " + deep + b">>\n1 0 obj\n<</Type/Catalog>>\nendobj\n"
    sections = _fragment(data)
    (trailer,) = sections.trailers
    assert trailer.raw == b"trailer\n<</A " + deep + b">>\n"
    assert [list(o.values) for o in sections.objects] == [["/Type"]]


# -- segment -------------------------------------------------------------------


def _composite() -> bytes:
    return (header_bytes(b"\xB5\xB5\xB5\xB5", b"1.7", b"\r\n")
            + PDFTEX_STREAM_OBJECT + WORD_XREF_TABLE + WORD_DOUBLE_TRAILER)


def test_segment_composite_counts():
    sections = segment(_composite())
    assert len(sections.objects) == 1
    # The empty "xref 0 0" placeholder inside the double trailer is not a
    # table of its own.
    assert len(sections.xref_tables) == 1
    assert len(sections.trailers) == 2


def test_segment_empty_input():
    with pytest.raises(NotAPdf):
        segment(b"")


def test_info_target_flagged_as_metadata():
    data = (b"%PDF-1.4\n"
            b"9 0 obj <</Producer (X)>> endobj\n"
            b"trailer << /Size 10 /Root 1 0 R /Info 9 0 R >>\n")
    sections = segment(data)
    (obj,) = sections.objects
    assert obj.is_metadata


def test_metadata_stream_flagged():
    data = b"%PDF-1.4\n7 0 obj\n<</Type /Metadata /Length 2>>\nstream\nhi\nendstream\nendobj\n"
    assert segment(data).objects[0].is_metadata


def test_only_those_objects_flagged():
    data = (b"%PDF-1.4\n"
            b"1 0 obj <</Type/Catalog>> endobj\n"
            b"9 0 obj <</Producer (X)>> endobj\n"
            b"trailer << /Size 10 /Info 9 0 R >>\n")
    sections = segment(data)
    flags = {o.obj_num: o.is_metadata for o in sections.objects}
    assert flags == {1: False, 9: True}
    assert sections.info_obj_num == 9


def test_span_coverage_and_determinism(corpus_bytes):
    for blobs in corpus_bytes.values():
        data = blobs[0]
        sections = segment(data)
        for obj in sections.objects:
            assert data[obj.span.offset : obj.span.end] == obj.raw
        for trailer in sections.trailers:
            assert data[trailer.span.offset : trailer.span.end] == trailer.raw
        assert segment(data) == sections


def test_object_spans_do_not_overlap(corpus_bytes):
    for blobs in corpus_bytes.values():
        sections = segment(blobs[0])
        spans = sorted((o.span.offset, o.span.end) for o in sections.objects)
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start >= prev_end


def test_deep_nesting_does_not_recurse_unboundedly():
    data = b"1 0 obj\n" + b"<<" * 5000 + b"/A 1" + b">>" * 5000 + b"\nendobj\n"
    objs = _fragment(data).objects  # must terminate, tolerantly
    assert len(objs) <= 1


def test_random_mutations_never_crash(corpus_bytes):
    """A forensic parser must degrade, not abort, on damaged files."""
    import random

    from pdfprov.rules import evaluate_sections

    rng = random.Random(20240811)
    base = corpus_bytes[next(iter(corpus_bytes))][0]
    for _ in range(60):
        mutated = bytearray(base)
        for _ in range(rng.randrange(1, 12)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            sections = segment(bytes(mutated))
        except NotAPdf:
            continue
        evaluate_sections(builtin(), sections)


_NAME_POOL = ["/Length", "/Filter", "/Root", "/Info", "/Size", "/ID", "/Type",
              "/Prev", "/Kids", "/Count", "/Parent", "/Contents"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(_NAME_POOL), min_size=1, max_size=8, unique=True),
       st.randoms(use_true_random=False))
def test_key_order_preserved_for_any_permutation(keys, rng):
    shuffled = list(keys)
    rng.shuffle(shuffled)
    body = b"".join(k.encode() + b" %d " % i for i, k in enumerate(shuffled))
    data = b"3 0 obj\n<<" + body + b">>\nendobj\n"
    assert list(_fragment(data).objects[0].values) == shuffled

    trailer = b"trailer\n<<" + body + b">>\n"
    assert list(_fragment(trailer).trailers[0].values) == shuffled


# -- keyword search between objects --------------------------------------------

# The whole-file keyword regexes that the gap search replaced, kept as the
# oracle of the keyword pattern.
_XREF_ORACLE_RE = re.compile(rb"(?<![A-Za-z])xref(?![A-Za-z])")
_TRAILER_ORACLE_RE = re.compile(rb"(?<![A-Za-z])trailer(?![A-Za-z0-9])")

_FRAGMENTS = [b"xref", b"xrefs", b"trailer", b"Atrailer", b"trailer1", b"1 0 obj",
              b"12 0 obj", b"endobj", b"stream\n", b"endstream", b"<<", b">>", b"(",
              b"%", b" ", b"\n", b"x", b"7"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40))
def test_gap_keyword_search_matches_lookbehind_regexes(parts):
    data = b"".join(parts)
    objects = _lex(data)[0]
    ends = [0] + [o.span.end for o in objects]
    starts = [o.span.offset for o in objects] + [len(data)]
    hits = [m for start, stop in zip(ends, starts) for m in _KEYWORD_RE.finditer(data, start, stop)]
    for oracle, word in ((_XREF_ORACLE_RE, b"xref"), (_TRAILER_ORACLE_RE, b"trailer")):
        expected = [
            m.start() for m in oracle.finditer(data)
            if not any(o.span.offset <= m.start() < o.span.end for o in objects)
        ]
        assert [m.start() for m in hits if m.group() == word] == expected


# -- object-header search -----------------------------------------------------

# The header pattern before its quantifiers were made possessive, kept as
# the oracle of the header search.
_OBJ_ORACLE_RE = re.compile(
    rb"(\d{1,10})[\x00\t\n\x0c\r ]+(\d{1,5})[\x00\t\n\x0c\r ]+obj(?![0-9A-Za-z])"
)
_HEADER_SOUP = [b"0", b"7", b"123456", b"12345678901", b"\x00", b"\t", b"\n", b"\x0c",
                b"\r", b" ", b"obj", b"ob", b"bj", b"objx", b"obj1", b"x", b"R", b"<<", b"%"]


def _numbers(m):
    """The spans of a header's two numbers, which fix where its "obj" ends."""
    return None if m is None else (m.span(1), m.span(2))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_HEADER_SOUP), max_size=30))
@example([b"12345678901", b" ", b"0", b" ", b"obj"])
@example([b"obj", b" ", b"1", b" ", b"0", b"\x00", b"obj"])
# A clean header inside the comment after a header that is not clean.
@example([b"x", b"7", b" ", b"0", b" ", b"obj", b" ", b"%", b"7", b" ", b"0", b" ", b"obj"])
def test_header_search_matches_the_backtracking_pattern(parts):
    data = b"".join(parts)
    for i in range(len(data) + 1):
        m = _OBJ_ORACLE_RE.search(data, i)
        assert _numbers(_HEAD_RE.search(data, i)) == _numbers(m)
        # _find_header takes the first header that starts a clean token.
        while m and not segmenter._clean_token_start(data, m.start()):
            m = _OBJ_ORACLE_RE.search(data, m.start() + 1)
        assert _numbers(_find_header(data, i)) == _numbers(m)


# -- the entry pattern against the token walk ----------------------------------

# The walk-only dictionary lexer that the entry pattern runs ahead of, kept
# as its oracle: each entry goes through the key pattern and the value walk.
_WALK_SCALAR_RE = re.compile(
    _NAME + rb"|<[^>]*>?|[-+.0-9]+(?:[\x00\t\n\x0c\r ]+(\d+)[\x00\t\n\x0c\r ]+R(?![0-9A-Za-z]))?"
    rb"|true|false|null|.?",
    re.S,
)


def _walk_skip_value(data, i, stop, depth=0):
    if i >= len(data):
        return i
    if depth > _MAX_NESTING:
        return stop.recover(data, i + 1)
    if data.startswith(b"<<", i):
        if depth == _MAX_NESTING:
            return stop.recover(data, i + 2)
        end, _, failed = _walk_scan_dict(data, _skip_ws(data, i + 2, stop.at), stop, depth + 1)
        return end if failed is None else stop.recover(data, end)
    b = data[i]
    if b == 0x5B:  # '['
        i = _skip_ws(data, i + 1, stop.at)
        while i < stop.at:
            if data[i] == 0x5D:
                return i + 1
            if data.startswith(b">>", i):
                return stop.recover(data, i)
            i = _skip_ws(data, _walk_skip_value(data, i, stop, depth + 1), stop.at)
        return i
    if b == 0x28:  # '('
        end = _scan_literal_string(data, i, stop.limit(data, i))
        return stop.recover(data, i + 1) if end is None else end
    return _WALK_SCALAR_RE.match(data, i, stop.limit(data, i) if b == 0x3C else stop.at).end()


def _walk_scan_dict(data, i, stop, depth=0):
    values = {}
    stop = stop or _Stop(data)
    while i < stop.at:
        if data.startswith(b">>", i):
            return i + 2, values, None
        m = _KEY_RE.match(data, i, stop.at)
        if m is None:
            return i, values, stop
        vstart = m.end()
        i = _walk_skip_value(data, vstart, stop, depth)
        values[m.group(1).decode("latin-1")] = data[vstart:i]
        i = _skip_ws(data, i, stop.at)
    return i, values, stop


def _nested_flat_array(depth: int) -> bytes:
    """An entry whose innermost dictionary, ``depth`` deep, holds a flat array."""
    return b"/D <<" * depth + b"/K [1 2]" + b">>" * depth


_ORACLE_TOKENS = [
    # A greedy key or number that a backtracking pattern would cut short.
    b"/Wnull(", b"/Coun1>>", b"/A", b"/Type", b"/K", b" ", b"\n",
    b"%/A 1\n", b"1", b"-1.5", b"3 0 R", b"true", b"null", b"/N",
    b"(a(b)c)", b"(a\\)b)", b"(", b")", b"<4F", b"<4F>", b"<<", b">>",
    b"[", b"]", b"[1 2]", b"{", b"x",
    # A malformed nested dictionary, then an object header that its
    # recovery takes as the bound, inside a name.
    b"<</B 1 x>>", b"/X1 0 obj",
]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(_ORACLE_TOKENS), st.integers(60, 70).map(_nested_flat_array)),
        max_size=30,
    ),
    st.booleans(),
)
@example([b"/A ", b"<</B 1 x>>", b" /C ", b"/X1 0 obj"], False)
@example([_nested_flat_array(64)], False)
# After a recovery sets the bound, a flat entry that runs past it (a hex
# string holding the next header) goes to the walk.
@example([b"/A ", b"<</B 1 x>>", b" /C <4F", b" 2 0 obj", b">", b" /D 1"], False)
# An unclosed hex string ends at the next object header, in an object as in
# a trailer.
@example([b"/A <4F", b" 2 0 obj", b" /D 1"], False)
@example([b"/A <4F", b" 2 0 obj", b" /D 1"], True)
def test_entry_pattern_lexes_as_the_token_walk(parts, in_trailer):
    body = b"".join(parts)
    tail = b"\n2 0 obj\n<</Type/Catalog>>\nendobj\n"
    if in_trailer:
        data = b"%PDF-1.4\ntrailer\n<<" + body + b">>\n" + tail + b"trailer\n<<" + body
    else:
        data = b"%PDF-1.4\n1 0 obj\n<<" + body + b">>\nendobj" + tail
    with mock.patch.object(segmenter, "_scan_dict", _walk_scan_dict):
        expected = asdict(segment(data))
    assert asdict(segment(data)) == expected


# -- the anchored object loop against the searches ------------------------------


def _searched_lex_objects(data):
    """The object loop before it read heads and tails in place, kept as its
    oracle: each object's end and the next header are searched for."""
    objects, diags = [], []
    n = len(data)
    m = _find_header(data)
    while m:
        start = m.start()
        obj_num, gen_num = int(m.group(1)), int(m.group(2))
        i = _skip_ws(data, data.index(b"obj", m.end(2)) + 3, n)
        values, dict_span, payload = {}, None, None
        stop = _Stop(data)
        if data.startswith(b"<<", i):
            dstart = i
            i, values, failed = segmenter._scan_dict(data, _skip_ws(data, i + 2, n), stop)
            if failed:
                end = stop.balance(data, i)
                if end is None:
                    end = data.rfind(b"endobj", dstart, stop.at)
                    end = max(i, stop.at) if end < 0 else end
                i = end
                diags.append(f"MalformedDictionary obj {obj_num} {gen_num}")
            dict_span = Span(dstart, i - dstart)
        j = _skip_ws(data, i, n)
        if data.startswith(b"stream", j):
            p = segmenter._skip_eol(data, j + 6)
            i = data.find(b"endstream", j + 6)
            if i < 0:
                h = _find_header(data, p)
                i = h.start() if h else n
                payload = Span(p, i - p)
            else:
                e = i - 2 if data.startswith(b"\r\n", i - 2) else i - (data[i - 1] in b"\r\n")
                payload, i = Span(p, max(e - p, 0)), i + 9
        m = stop.header(data, i)
        cut = m.start() if m else n
        end = data.find(b"endobj", i, cut)
        if end < 0:
            diags.append(f"TruncatedObject obj {obj_num} {gen_num}")
            end = cut
        else:
            end += 6
        objects.append(segmenter.IndirectObject(
            obj_num, gen_num, data[start:end], values.get("/Type", b"").strip() == b"/Metadata",
            Span(start, end - start), dict_span, payload, values,
        ))
    return objects, diags


def _lexed_objects(data):
    """The objects of the one-pass lexer and their diagnostics."""
    objects, _, _, diags = _lex(data)
    return objects, [d for d in diags if " obj " in d]


_OBJECT_PARTS = [
    b"1 0 obj\n<</A 1>>", b"2 0 obj <</Length 3>>stream\nabc\nendstream",
    b"3 0 obj\nstream\r\nxy\r\nendstream", b"12345678901 0 obj <<>>", b"4 0 obj 42",
    b"5 0 obj<</A (a(b)c)/B [1 <</C 2>>]>>", b"6 0 obj<</A (x", b"7 0 obj <</A 1 x>>",
    b"8 0 obj %c\n<</A 1>>", b"9 0 obj<<>> %c\nstream\nz\nendstream", b"10 0 obj<</B 1",
]
_BETWEEN_OBJECTS = [
    b"endobj", b"endobj1 0 obj", b"%c\n", b"%endobj\n", b"%1 0 obj\n", b" ", b"\r", b"\n",
    b"\r\n", b"\x00", b"xref", b"trailer", b"obj", b" obj", b"endstream", b"x", b"7", b">>",
]

# Named inputs for each way the bytes after an object can leave the
# anchored path, or stay on it.
_TAIL_CASES = {
    "endobj-then-header": b"1 0 obj<<>>endobj\n2 0 obj<<>>endobj",
    "endobj-glued-to-a-header": b"1 0 obj<<>>endobj1 0 obj<<>>endobj 2 0 obj 3",
    "comment-before-endobj": b"1 0 obj<<>> %c\nendobj\n2 0 obj<<>>endobj",
    "comment-holding-endobj": b"1 0 obj<<>> %endobj\nendobj\n2 0 obj<<>>",
    "comment-before-the-next-header": b"1 0 obj<<>>endobj %c\n2 0 obj<<>>endobj",
    "comment-holding-a-header": b"1 0 obj<<>>endobj %2 0 obj\n3 0 obj<<>>endobj",
    "cr-lf-nul-whitespace": b"1 0 obj<<>>\r\n\x00endobj\x00\r2 0 obj\r<<>>\nendobj",
    "11-digit-object-number": b"1 0 obj<<>>\n12345678901 0 obj<<>>endobj\n2 0 obj 1",
    "stream-without-dictionary": b"1 0 obj\nstream\nab\nendstream\nendobj\n2 0 obj 3 endobj",
    "stream-without-endstream": b"1 0 obj<</L 2>>stream\nab\n2 0 obj<<>>endobj",
    "no-endobj": b"1 0 obj<<>>\n2 0 obj<<>>\n3 0 obj 4",
    "no-endobj-then-comment": b"1 0 obj<<>>\n%c\n2 0 obj<<>>\n",
    "endobj-twice": b"1 0 obj<<>>endobj endobj 2 0 obj<<>>endobj",
    "xref-after-the-last-object": b"1 0 obj<<>>endobj\nxref\n0 1\n0000000000 65535 f \n",
    "trailer-after-an-object": b"1 0 obj<<>>\ntrailer\n<</Size 2>>\n2 0 obj<<>>endobj",
    "stray-obj": b"1 0 obj<<>> obj endobj\n2 0 obj<<>>\nobj\n",
    "header-behind-a-letter": b"1 0 obj<<>>x2 0 obj<<>>endobj",
    "malformed-dictionary": b"1 0 obj<</A 1 x>>endobj\n2 0 obj<</A (x>>\n3 0 obj 1 endobj",
}


@pytest.mark.parametrize("body", list(_TAIL_CASES.values()), ids=list(_TAIL_CASES))
def test_anchored_object_loop_named_cases(body):
    data = b"%PDF-1.4\n" + body
    assert _lexed_objects(data) == _searched_lex_objects(data)


def test_anchored_object_loop_matches_the_searches():
    rng = random.Random(1401)
    alphabet = _OBJECT_PARTS + _BETWEEN_OBJECTS
    for _ in range(3000):
        data = b"%PDF-1.4\n" + b"".join(rng.choices(alphabet, k=rng.randrange(1, 25)))
        assert _lexed_objects(data) == _searched_lex_objects(data), data
