"""Segmenter: header, objects, xref tables, trailers, offsets, metadata flags."""

from __future__ import annotations

import contextlib
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
from pdfprov.rules import SectionKind, section_elements
from pdfprov.segmenter import (
    _KEY_RE,
    _MAX_NESTING,
    _KEYWORD_RE,
    _NAME,
    _scan_literal_string,
    _skip_ws,
    PdfSections,
    _HEAD_RE,
    _Stop,
    _find_header,
    _lex,
    object_values,
    parse_header,
    segment,
)


def _fragment(data: bytes) -> PdfSections:
    """Segment a header-less fragment behind a minimal %PDF header."""
    return segment(b"%PDF-1.4\n" + data)


def _object_values(data: bytes) -> list[dict[str, bytes]]:
    """The dictionary values of each object of ``data``, lexed on demand."""
    return [object_values(data, o) for o in segment(data).objects]


def _raw(sections: PdfSections, element) -> bytes:
    """The bytes of ``element``: the segmented data from its start to its end."""
    return sections.data[element.start : element.end]


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
    sections = _fragment(PDFTEX_STREAM_OBJECT)
    objs = sections.objects
    assert len(objs) == 1
    obj = objs[0]
    assert (obj.obj_num, obj.gen_num) == (4, 0)
    assert [list(v) for v in _object_values(b"%PDF-1.4\n" + PDFTEX_STREAM_OBJECT)] == [
        ["/Length", "/Filter"]
    ]
    assert _raw(sections, obj) == PDFTEX_STREAM_OBJECT.rstrip(b"\n")


def test_luatex_style_object_same_keys_different_raw():
    luatex, pdftex = _fragment(LUATEX_STREAM_OBJECT), _fragment(PDFTEX_STREAM_OBJECT)
    assert [list(v) for v in _object_values(b"%PDF-1.4\n" + LUATEX_STREAM_OBJECT)] == [
        ["/Length", "/Filter"]
    ]
    assert _raw(luatex, luatex.objects[0]) != _raw(pdftex, pdftex.objects[0])


def test_empty_body_region():
    assert segment(b"%PDF-1.4\njust a header\n").objects == []


def test_truncated_object_recorded_not_fatal():
    data = b"%PDF-1.4\n9 0 obj\n<</Length 3>>\nstream\nabc"
    sections = segment(data)
    (obj,) = sections.objects
    assert _raw(sections, obj) == data[len(b"%PDF-1.4\n"):]
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
    assert _raw(sections, o) == head + payload + tail
    assert (o.payload_start, o.payload_end) == (o.start + len(head), o.start + len(head) + len(payload))
    assert data[o.payload_start : o.payload_end] == payload
    # The body element keeps two payload bytes and the endstream line end.
    assert section_elements(sections, SectionKind.BODY) == [("obj:5:0", head + payload[:2] + tail)]


@pytest.mark.parametrize("eol_after", [b"\n", b"\r\n"], ids=["LF", "CRLF"])
def test_payload_without_endstream_runs_to_the_end_of_the_input(eol_after):
    head = b"%PDF-1.4\n9 0 obj\n<</Length 9>>\nstream" + eol_after
    data = head + b"x\xdaabc\n"
    sections = segment(data)
    (o,) = sections.objects
    assert (o.payload_start, o.payload_end) == (len(head), len(data))
    assert section_elements(sections, SectionKind.BODY) == [("obj:9:0", _raw(sections, o)[:-4])]
    (o,) = segment(head).objects
    assert (o.payload_start, o.payload_end) == (len(head), len(head))


def test_payload_without_endstream_ends_at_the_next_object_header():
    data = (b"%PDF-1.4\n1 0 obj <</Length 2>> stream\nxx\nendobj\n"
            b"2 0 obj <</Type/Catalog>> endobj\n3 0 obj <</Producer (x)>> endobj\n"
            b"trailer <</Root 2 0 R/Info 3 0 R>>\n")
    sections = segment(data)
    assert [o.obj_num for o in sections.objects] == [1, 2, 3]
    # The payload ends before the last endobj ahead of that header, and the
    # object keeps its endobj.
    first = sections.objects[0]
    assert data[first.payload_start : first.payload_end] == b"xx"
    assert first.end == data.index(b"endobj") + len(b"endobj")
    assert [t.values for t in sections.trailers] == [{"/Root": b"2 0 R", "/Info": b"3 0 R"}]
    assert sections.info_obj_num == 3
    assert sections.diagnostics == []


# A payload that holds an endstream of its own, 13 bytes long.
_INNER = b"a\nendstream\nb"


@pytest.mark.parametrize("entries, eol, payload", [
    # A direct /Length with an endstream at its end, after a line end of 0-2
    # bytes, ends the payload there.
    (b"/Length 13", b"\n", _INNER),
    (b"/Length 13", b"\r\n", _INNER),
    (b"/Length 12", b"\n", _INNER),
    (b"/Length 14", b"\n", _INNER),
    (b"/Length 000000000000000013", b"\n", _INNER),
    # The last top-level /Length wins, in the run and in the walk.
    (b"/Length 2 /Length 13", b"\n", _INNER),
    (b"/Length 13 0 R /Length 13", b"\n", _INNER),
    (b"/DecodeParms <</Columns 4>> /Length 13", b"\n", _INNER),
    (b"/Length 13 /DecodeParms <</Columns 4>>", b"\n", _INNER),
    # Else the first endstream ends it: no keyword at the /Length, or no
    # direct integer of at most 18 digits.
    (b"/Length 12", b"\r\n", b"a"),
    (b"/Length 15", b"\n", b"a"),
    (b"/Length 0", b"\n", b"a"),
    (b"/Length 13 0 R", b"\n", b"a"),
    (b"/Length 0000000000000000013", b"\n", b"a"),
    (b"/DecodeParms <</Columns 4>> /Length 0000000000000000013", b"\n", b"a"),
    (b"/Length 13 /Length 13 0 R", b"\n", b"a"),
    (b"/Length 13 /DecodeParms <</Columns 4>> /Length 2 0 R", b"\n", b"a"),
    (b"/DecodeParms <</Length 13>>", b"\n", b"a"),
    (b"/Title (/Length 13)", b"\n", b"a"),
])
def test_a_checked_length_ends_the_payload(entries, eol, payload):
    head = b"%PDF-1.4\n5 0 obj\n<<" + entries + b">>\nstream\n"
    data = head + _INNER + eol + b"endstream\nendobj\n"
    sections = segment(data)
    (o,) = sections.objects
    assert (o.payload_start, o.payload_end) == (len(head), len(head) + len(payload))
    assert o.end == len(data) - 1
    assert sections.diagnostics == []


def test_a_length_past_the_end_of_the_input_is_not_trusted():
    tail = b"\nendstream\nendobj\n"
    head = b"%PDF-1.4\n" + b"5 0 obj\n<</Length %d>>\nstream\n" % (len(_INNER) + len(tail) + 1)
    (o,) = segment(head + _INNER + tail).objects
    assert (o.payload_start, o.payload_end) == (len(head), len(head) + 1)


def test_an_embedded_pdf_stays_in_its_payload():
    inner = (b"%PDF-1.4\n1 0 obj\n<</Length 2>>\nstream\nhi\nendstream\nendobj\n"
             b"2 0 obj\n<</Producer (Inner Tool)>>\nendobj\n"
             b"trailer\n<</Size 3/Info 2 0 R>>\nstartxref\n9\n%%EOF\n")
    head = b"%PDF-1.7\n" + b"1 0 obj\n<</Type/EmbeddedFile/Length %d>>\nstream\n" % len(inner)
    data = (head + inner + b"\nendstream\nendobj\n3 0 obj\n<</Producer (Outer Tool)>>\nendobj\n"
            b"trailer\n<</Size 4/Info 3 0 R>>\n")
    sections = segment(data)
    assert [o.obj_num for o in sections.objects] == [1, 3]
    first = sections.objects[0]
    assert (first.payload_start, first.payload_end) == (len(head), len(head) + len(inner))
    assert [t.values for t in sections.trailers] == [{"/Size": b"4", "/Info": b"3 0 R"}]
    assert sections.info_obj_num == 3
    assert object_values(data, sections.objects[1]) == {"/Producer": b"(Outer Tool)"}


def test_objects_without_a_stream_have_no_payload():
    objs = _fragment(b"1 0 obj\n<</Type/Catalog>>\nendobj\n2 0 obj\n42\nendobj\n").objects
    assert [(o.payload_start, o.payload_end) for o in objs] == [(None, None)] * 2


def test_object_numbers_not_matched_inside_longer_tokens():
    data = (b"110 0 obj\n<</A 1>>\nendobj\n12345678901 0 obj\n<<>>\nendobj\n"
            b"x1 0 obj 3 0 obj\n<<>>\nendobj\n/X1 0 obj 7 0 obj\n<<>>\nendobj\n")
    objs = _fragment(data).objects
    assert [(o.obj_num, o.gen_num) for o in objs] == [(110, 0), (3, 0), (7, 0)]


def test_nested_dict_keys_stay_out_of_top_level():
    data = b"%PDF-1.4\n5 0 obj\n<</A<</Inner 1>>/B 2>>\nendobj\n"
    assert [list(v) for v in _object_values(data)] == [["/A", "/B"]]


# What follows the dictionary in every value-grammar fragment.  A dictionary
# that no ">>" closes ends at the tail's endobj, and so does a value in it
# that never closes: no value reads past its dictionary.
_TAIL = b"\nendobj\n"
_MALFORMED = ["MalformedDictionary obj 1 0"]


@pytest.mark.parametrize(
    "body, values, dict_text, diagnostics",
    [
        pytest.param(b"<</Type/My#20Name/N 1>>", {"/Type": b"/My#20Name", "/N": b"1"},
                     None, [], id="name-with-hex-escape"),
        pytest.param(b"<</A <48 65>/B 2>>", {"/A": b"<48 65>", "/B": b"2"},
                     None, [], id="hex-string"),
        pytest.param(b"<</A <4F", {"/A": b"<4F\n"},
                     b"<</A <4F\n", _MALFORMED, id="unclosed-hex-string"),
        pytest.param(b"<</A (a(b)\\)c)/B 1>>", {"/A": b"(a(b)\\)c)", "/B": b"1"},
                     None, [], id="literal-string"),
        pytest.param(b"<</A (a", {"/A": b"(a\n"},
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
        # which here runs to the end of the dictionary.
        pytest.param(b"<</A " + b"[" * 70 + b"1" + b"]" * 70 + b">>",
                     {"/A": b"[" * 70 + b"1" + b"]" * 70 + b">>\n"},
                     b"<</A " + b"[" * 70 + b"1" + b"]" * 70 + b">>\n",
                     _MALFORMED, id="nesting-floor"),
    ],
)
def test_dictionary_value_grammar(body, values, dict_text, diagnostics):
    data = b"%PDF-1.4\n1 0 obj\n" + body + _TAIL
    sections = segment(data)
    (obj,) = sections.objects
    assert list(object_values(data, obj).items()) == list(values.items())
    assert data[obj.dict_start : obj.dict_end] == (body if dict_text is None else dict_text)
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
    assert _raw(sections, table) == WORD_XREF_TABLE
    assert (table.start, table.end) == (len(b"%PDF-1.4\n"), len(b"%PDF-1.4\n") + len(WORD_XREF_TABLE))
    assert len(_raw(sections, table)) - len(b"xref\n0 5\n") == 5 * 20
    assert sections.diagnostics == []


def test_absent_xref_sets_flag():
    sections = segment(b"%PDF-1.5\n1 0 obj\n<<>>\nendobj\n")
    assert sections.xref_tables == []
    assert section_elements(sections, SectionKind.XREF) == []


def test_two_revisions_two_tables():
    data = WORD_XREF_TABLE + b"junk\n" + WORD_XREF_TABLE
    sections = _fragment(data)
    assert [_raw(sections, t) for t in sections.xref_tables] == [WORD_XREF_TABLE, WORD_XREF_TABLE]


def test_malformed_entry_skipped_with_diagnostic():
    data = b"xref\n0 2\n0000000017 00000 n \n17 0 n\n"
    sections = _fragment(data)
    assert any(d.startswith("MalformedXrefEntry") for d in sections.diagnostics)
    # The skipped line stays inside the table.
    assert [_raw(sections, t) for t in sections.xref_tables] == [data]


def test_startxref_keyword_is_not_a_table():
    assert _fragment(b"startxref\n123\n%%EOF\n").xref_tables == []


def test_understated_table_does_not_swallow_the_trailer():
    data = (b"%PDF-1.4\nxref\n0 5\n"
            b"0000000000 65535 f \n0000000017 00000 n \n"
            b"trailer\n<</Size 5/Root 1 0 R>>\n")
    sections = segment(data)
    assert any(d.startswith("XrefTruncatedSubsection") for d in sections.diagnostics)
    assert [_raw(sections, t) for t in sections.xref_tables] == [
        data[len(b"%PDF-1.4\n") : data.index(b"trailer")]]
    assert list(sections.trailers[0].values) == ["/Size", "/Root"]


# -- xref entry runs -------------------------------------------------------------

_FREE = b"0000000000 65535 f \n"
_USED = b"0000000017 00000 n \n"
# One entry with each end of line, and one with none before the next entry.
_EOL_ENTRIES = [b"0000000017 00000 n \r\n", b"0000000018 00000 f \r", b"0000000019 00000 n \n",
                b"0000000023 00000 n", b"0000000020 00000 n\r\n", b"0000000021 00000 f\r",
                b"0000000022 00000 n\n"]


def _entry_by_entry(data: bytes) -> PdfSections:
    """``segment()`` with every xref entry matched alone, as before entries
    were matched a run at a time: the oracle of the run."""
    with mock.patch.object(segmenter, "_ENTRIES_RE", re.compile(b"")):
        return segment(data)


# case -> (the table after "xref\n", how much of it the table keeps, diagnostics)
_RUN_CASES = {
    "count-covers-the-run": (b"0 3\n" + _FREE + _USED * 2, None, []),
    "count-understates-the-run": (b"0 2\n" + _FREE + _USED * 2, b"0 2\n" + _FREE + _USED, []),
    "count-overstates-the-run": (b"0 5\n" + _FREE + _USED, None, ["XrefTruncatedSubsection"]),
    "malformed-entry-mid-run": (b"0 4\n" + _FREE + b"17 0 n\n" + _USED * 2, None, ["MalformedXrefEntry"]),
    "mixed-eol-widths": (b"0 7\n" + b"".join(_EOL_ENTRIES), None, []),
    "two-subsections": (b"0 2\n" + _FREE + _USED + b"5 3\n" + _USED * 3, None, []),
    "understated-then-a-subsection": (
        b"0 1\n" + _FREE + b"5 1\n" + _USED * 2, b"0 1\n" + _FREE + b"5 1\n" + _USED, []
    ),
}


@pytest.mark.parametrize("table, kept, diagnostics", list(_RUN_CASES.values()), ids=list(_RUN_CASES))
def test_an_entry_run_reads_what_single_entries_read(table, kept, diagnostics):
    data = b"%PDF-1.4\nxref\n" + table + b"trailer\n<</Size 1>>\n"
    sections = segment(data)
    assert asdict(sections) == asdict(_entry_by_entry(data))
    # A count that understates its run leaves the rest of the run out.
    assert [_raw(sections, t) for t in sections.xref_tables] == [
        b"xref\n" + (table if kept is None else kept)]
    assert [d.split()[0] for d in sections.diagnostics] == diagnostics


def test_entry_runs_match_single_entries_on_random_tables():
    rng = random.Random(1901)
    lines = [_FREE, _USED, *_EOL_ENTRIES, b"17 0 n\n", b"0000000017 0 n\n", b"x\n", b"\n",
             b"0 0\n", b"trailer\n<<>>\n", b"xref\n"]
    for _ in range(3000):
        parts = [b"xref\n"]
        for _ in range(rng.randrange(1, 4)):
            parts.append(b"%d %d\n" % (rng.randrange(5), rng.randrange(8)))
            parts += rng.choices(lines, weights=[8, 8, *[2] * 7, 1, 1, 1, 1, 1, 1, 1], k=rng.randrange(8))
        data = b"%PDF-1.4\n" + b"".join(parts)
        assert asdict(segment(data)) == asdict(_entry_by_entry(data)), data


def test_element_spans_lie_within_the_file(corpus_bytes):
    for blobs in corpus_bytes.values():
        sections = segment(blobs[0])
        assert sections.objects and sections.trailers
        for element in (*sections.objects, *sections.xref_tables, *sections.trailers):
            assert 0 <= element.start <= element.end <= len(blobs[0])


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
            lambda s: [_raw(s, t) for t in s.xref_tables] == [_TABLE],
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
    sections = _fragment(data)
    (trailer,) = sections.trailers
    assert not _raw(sections, trailer).startswith(b"trailer")
    assert list(trailer.values)[0] == "/Type"


def test_malformed_trailer_stops_at_the_next_trailer_or_object():
    sections = _fragment(b"trailer\n<< <<x\ntrailer\n<</Size 1>>\n")
    first, second = sections.trailers
    assert _raw(sections, first) == b"trailer\n<< <<x\n"
    assert list(second.values) == ["/Size"]
    sections = _fragment(b"trailer\n<< <<x\n1 0 obj\n<<>>\nendobj\n")
    (trailer,) = sections.trailers
    assert _raw(sections, trailer) == b"trailer\n<< <<x\n"


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
    assert _raw(sections, first) == b"1 0 obj\n<</Type/Catalog/Pages>>\nendobj"
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
    assert _raw(sections, sections.objects[0]).endswith(b"]>>\nendobj")
    assert sections.objects[0].end < broken.index(b"2 0 obj")
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
    assert object_values(broken, kids)["/Kids"] == b"[3 0 R/Count 1>>"
    # No ">>" is left to close the dictionary before the next object, so it
    # ends at the object's own endobj, which is not cut off.
    assert _raw(sections, kids).endswith(b"endobj")
    assert kids.end < broken.index(b"3 0 obj")
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
    assert object_values(broken, pages)["/T"] == b"(a/Kids[3 0 R]/Count 1>>"
    assert _raw(sections, pages).endswith(b"endobj")
    assert pages.end < broken.index(b"3 0 obj")
    assert sections.diagnostics == ["MalformedDictionary obj 2 0"]
    assert scan_bytes("broken.pdf", broken, builtin()).consistency == "consistent"


@pytest.mark.parametrize("string", [b"(x\n", b"(x (y)\n"], ids=["flat", "nested"])
def test_a_string_does_not_run_past_the_next_object_header(string):
    data = (b"%PDF-1.4\n1 0 obj\n<</A " + string
            + b"endobj\n2 0 obj\n<</B /y>> ) >>\nendobj\n")
    sections = segment(data)
    assert [o.obj_num for o in sections.objects] == [1, 2]
    first = sections.objects[0]
    # The dictionary ends at the object's own endobj, short of the header.
    assert _object_values(data) == [{"/A": string}, {"/B": b"/y"}]
    assert _raw(sections, first) == b"1 0 obj\n<</A " + string + b"endobj"
    assert sections.diagnostics == ["MalformedDictionary obj 1 0"]


def test_a_broken_xref_stream_value_does_not_take_in_the_next_trailer():
    # The xref stream's dictionary is its revision's trailer; a value that
    # never closes ends with the dictionary, at the object's own endobj.
    data = (b"%PDF-1.5\n1 0 obj\n<</Type/XRef/Size 2/ID [<ab> (x]/W [1 2 1]/Length 2>>\n"
            b"stream\nxx\nendstream\nendobj\ntrailer\n<</Size 2/Info 1 0 R>>\n%%EOF\n")
    sections = segment(data)
    (obj,) = sections.objects
    xref_stream, classic = sections.trailers
    assert xref_stream.values["/ID"] == b"[<ab> (x]/W [1 2 1]/Length 2>>\nstream\nxx\nendstream\n"
    assert (xref_stream.start, xref_stream.end) == (obj.dict_start, obj.dict_end)
    assert classic.values == {"/Size": b"2", "/Info": b"1 0 R"}


def test_an_unclosed_array_ends_at_the_next_object_header():
    data = b"%PDF-1.4\n" + b"".join(b"%d 0 obj <</A [1 endobj\n" % (n + 1) for n in range(2000))
    sections = segment(data)
    assert [o.obj_num for o in sections.objects] == list(range(1, 2001))
    assert _object_values(data)[:2] == [{"/A": b"[1 "}] * 2
    assert sections.diagnostics[:2] == ["MalformedDictionary obj 1 0", "MalformedDictionary obj 2 0"]


def test_an_unclosed_hex_string_does_not_run_past_the_next_object_header():
    data = b"%PDF-1.4\n1 0 obj << /A <\n2 0 obj << /A <4F\n3 0 obj <</B 1>> endobj\n"
    sections = segment(data)
    assert [o.obj_num for o in sections.objects] == [1, 2, 3]
    assert _object_values(data) == [{"/A": b"<\n"}, {"/A": b"<4F\n"}, {"/B": b"1"}]
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
    assert _raw(sections, obj) == data[len(b"%PDF-1.4\n"):-1]
    assert sections.diagnostics == []


@pytest.mark.parametrize("string", [b"(x\n", b"(x (y)\n"], ids=["flat", "nested"])
def test_a_trailer_string_does_not_run_past_the_next_trailer(string):
    data = b"%PDF-1.4\ntrailer\n<</Info " + string + b"trailer\n<</Size 3>> )>>\n"
    sections = segment(data)
    first, second = sections.trailers
    assert _raw(sections, first) == b"trailer\n<</Info " + string and first.values == {}
    assert _raw(sections, second) == b"trailer\n<</Size 3>>" and second.values == {"/Size": b"3"}
    assert sections.diagnostics == ["MalformedTrailer at offset 9"]


def test_nesting_floor_recovery_in_a_trailer_stops_at_the_next_object():
    deep = b"[" * 70 + b"]" * 70
    data = b"trailer\n<</A " + deep + b">>\n1 0 obj\n<</Type/Catalog>>\nendobj\n"
    sections = _fragment(data)
    (trailer,) = sections.trailers
    assert _raw(sections, trailer) == b"trailer\n<</A " + deep + b">>\n"
    assert [list(object_values(b"%PDF-1.4\n" + data, o)) for o in sections.objects] == [["/Type"]]


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
        assert sections.data is data
        assert segment(data) == sections


def test_object_spans_do_not_overlap(corpus_bytes):
    for blobs in corpus_bytes.values():
        sections = segment(blobs[0])
        # An xref stream's dictionary lies inside its object.
        classic = [t for t in sections.trailers if _raw(sections, t).startswith(b"trailer")]
        spans = sorted((e.start, e.end) for e in (*sections.objects, *sections.xref_tables, *classic))
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
    data = b"%PDF-1.4\n3 0 obj\n<<" + body + b">>\nendobj\n"
    assert [list(v) for v in _object_values(data)] == [shuffled]

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
    ends = [0] + [o.end for o in objects]
    starts = [o.start for o in objects] + [len(data)]
    hits = [m for start, stop in zip(ends, starts) for m in _KEYWORD_RE.finditer(data, start, stop)]
    for oracle, word in ((_XREF_ORACLE_RE, b"xref"), (_TRAILER_ORACLE_RE, b"trailer")):
        expected = [
            m.start() for m in oracle.finditer(data)
            if not any(o.start <= m.start() < o.end for o in objects)
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
        while m and m.start() and data[m.start() - 1] not in b"\x00\t\n\x0c\r ()<>[]{}/%":
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
        end, _, closed = _walk_scan_dict(data, _skip_ws(data, i + 2, stop.at), stop, depth + 1)
        return end if closed else stop.recover(data, end)
    b = data[i]
    if b == 0x5B:  # '['
        i = _skip_ws(data, i + 1, stop.limit(data, i))
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
    while i < stop.at:
        if data.startswith(b">>", i):
            return i + 2, values, True
        m = _KEY_RE.match(data, i, stop.at)
        if m is None:
            break
        vstart = m.end()
        i = _walk_skip_value(data, vstart, stop, depth)
        values[m.group(1).decode("latin-1")] = data[vstart:i]
        i = _skip_ws(data, i, stop.at)
    return i, values, False


def _walk_only():
    """Patch the segmenter to lex every dictionary entry with the walk: an
    object pattern whose run takes no flat entry, with the run's groups, and
    the walk-only dictionary lexer."""
    pattern = segmenter._OBJECT_RE.pattern
    no_run = pattern.replace(segmenter._FLAT_RUN, b"(?:(?!)" + b"()" * 4 + b")?")
    assert no_run != pattern
    patches = contextlib.ExitStack()
    patches.enter_context(mock.patch.object(segmenter, "_scan_dict", _walk_scan_dict))
    patches.enter_context(mock.patch.object(segmenter, "_OBJECT_RE", re.compile(no_run, re.S)))
    return patches


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
# A run of flat entries with whitespace and a comment between them.
@example([b"/A", b" ", b"1", b"\n", b"%/A 1\n", b"/K", b"[1 2]", b" ", b"/Type", b"/N", b" "], False)
# Strings nested two deep, or one deep around an object header, take the walk.
@example([b"/A ", b"(", b"(a(b)c)", b")", b" /B 1"], False)
@example([b"/A ((a(b\\)c)d)e)", b" /B 1"], False)
@example([b"/A (x(", b" 2 0 obj", b")y)", b" /B 1"], False)
def test_entry_pattern_lexes_as_the_token_walk(parts, in_trailer):
    body = b"".join(parts)
    tail = b"\n2 0 obj\n<</Type/Catalog>>\nendobj\n"
    if in_trailer:
        data = b"%PDF-1.4\ntrailer\n<<" + body + b">>\n" + tail + b"trailer\n<<" + body
    else:
        data = b"%PDF-1.4\n1 0 obj\n<<" + body + b">>\nendobj" + tail
    with _walk_only():
        expected = asdict(segment(data))
    assert asdict(segment(data)) == expected


def _read_fields(data):
    """What the pipeline reads of each object's dictionary: whether it is
    metadata, its offsets, its values lexed on demand, and the trailers."""
    sections = segment(data)
    objects = [(o.is_metadata, o.dict_start, o.dict_end, object_values(data, o))
               for o in sections.objects]
    return objects, sections.trailers


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_ORACLE_TOKENS + [b"/Metadata", b"/XRef", b"/Types"]), max_size=30))
# The last /Type wins, in the run as in the walk.
@example([b"/Type", b"/Metadata", b"/Type", b"/XRef"])
@example([b"/Type", b"/XRef", b"/Type", b"/Metadata"])
# A /Type whose value is not a name.
@example([b"/Type", b"/Metadata", b"/Type", b" ", b"1"])
@example([b"/Type", b"(a)", b"/Type", b"/Metadata"])
@example([b"/Types", b"/Metadata"])
@example([b"/Type", b"%/A 1\n", b"/XRef"])
@example([b"/Type", b"1", b" ", b"/Metadata"])
@example([b"/A", b" ", b"(/Type /Metadata)"])
# A nested value after a flat run: the walk resumes, and the /Type inside
# the nested dictionary is not the object's.
@example([b"/Type", b"/XRef", b"/K", b"<<", b"/Type", b"/Metadata", b">>"])
@example([b"/Type", b"/XRef", b"/K", b"(a(b)c)", b"/Type", b"/Metadata"])
def test_flat_run_reads_what_the_walk_reads(parts):
    body = b"".join(parts)
    data = b"%PDF-1.4\n1 0 obj\n<<" + body + b">>\nendobj\n2 0 obj <</Type/Metadata>> endobj\n"
    with _walk_only():
        expected = _read_fields(data)
    assert _read_fields(data) == expected


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_ORACLE_TOKENS + [
    b"/Length", b"13", b"13 0 R", b"0000000000000000013", b"/L <</Length 13>>", b"(/Length 13)",
]), max_size=30))
@example([b"/Length", b" ", b"13"])
@example([b"/Length", b" ", b"1", b"/Length", b" ", b"13"])
@example([b"/Length", b" ", b"13", b"/Length", b" ", b"13 0 R"])
@example([b"/Length", b" ", b"13", b"/L <</Length 13>>", b"/Length", b" ", b"1"])
@example([b"/L <</Length 13>>", b"/Length", b" ", b"13"])
@example([b"/Length", b" ", b"13", b" ", b"x"])
@example([b"/Length", b" ", b"13", b"%/A 1\n", b"/Length", b"<<"])
def test_length_run_reads_what_the_walk_reads(parts):
    body = b"".join(parts)
    data = (b"%PDF-1.4\n1 0 obj\n<<" + body + b">>\nstream\n" + _INNER + b"\nendstream\nendobj\n"
            b"2 0 obj <</Length 2>>stream\nab\nendstream\nendobj\n")
    with _walk_only():
        expected = asdict(segment(data))
    assert asdict(segment(data)) == expected


def test_flat_objects_take_no_dictionary_walk():
    def scan_dict_calls(count):
        data = b"%PDF-1.4\n" + b"".join(
            b"%d 0 obj\n<</Length 3/Filter/FlateDecode/Type/XObject/BBox [0 0 1 1]>>\n"
            b"stream\nabc\nendstream\nendobj\n" % (n + 1) for n in range(count)
        )
        with mock.patch.object(segmenter, "_scan_dict", wraps=segmenter._scan_dict) as scan:
            assert len(segment(data).objects) == count
        return scan.call_count

    assert scan_dict_calls(50) == scan_dict_calls(1)


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
        values, dstart, dend, pstart, pend = {}, None, None, None, None
        if data.startswith(b"<<", i):
            dstart = i
            stop = _Stop(data)
            i, values, closed = segmenter._scan_dict(data, _skip_ws(data, i + 2, n), stop)
            if not closed:
                end = stop.balance(data, i)
                if end is None:
                    end = data.rfind(b"endobj", dstart, stop.at)
                    end = max(i, stop.at) if end < 0 else end
                i = end
                diags.append(f"MalformedDictionary obj {obj_num} {gen_num}")
            dend = i
        j = _skip_ws(data, i, n)
        if data.startswith(b"stream", j):
            p = segmenter._skip_eol(data, j + 6)
            # A direct /Length, the last top-level one, holds if an
            # endstream lies after it and a line end of 0-2 bytes.
            length = values.get("/Length", b"")
            length = int(length) if length.isdigit() and len(length) <= 18 else None
            i = -1 if length is None else data.find(b"endstream", p + length, p + length + 11)
            if i < 0:
                i = data.find(b"endstream", j + 6)
            if i < 0:
                # Without one, the payload ends before the last endobj ahead
                # of the next header, or else at that header.
                h = _find_header(data, p)
                cut = h.start() if h else n
                i = data.rfind(b"endobj", p, cut)
                if i < 0:
                    pstart, pend, i = p, cut, cut
                else:
                    e = i - 2 if data.startswith(b"\r\n", i - 2) else i - (data[i - 1] in b"\r\n")
                    pstart, pend = p, max(e, p)
            else:
                e = i - 2 if data.startswith(b"\r\n", i - 2) else i - (data[i - 1] in b"\r\n")
                pstart, pend, i = p, max(e, p), i + 9
        m = _find_header(data, i)
        cut = m.start() if m else n
        end = data.find(b"endobj", i, cut)
        if end < 0:
            diags.append(f"TruncatedObject obj {obj_num} {gen_num}")
            end = cut
        else:
            end += 6
        objects.append(segmenter.IndirectObject(
            obj_num, gen_num, values.get("/Type", b"").strip() == b"/Metadata",
            start, end, dstart, dend, pstart, pend,
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
    # Payloads that hold an endstream, with a right, a wrong and an indirect
    # /Length, in the run and in the walk.
    b"13 0 obj <</Length 13>>stream\na\nendstream\nb\nendstream",
    b"14 0 obj <</Length 9>>stream\r\na\nendstream\nb\r\nendstream",
    b"15 0 obj <</Length 15 0 R>>stream\na\nendstream\nb\nendstream",
    b"16 0 obj <</K<<>>/Length 13>>stream\na\nendstream\nb\nendstream",
    b"17 0 obj <</Length 2>>stream\nab\n",
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
    "stream-without-endstream-before-its-endobj": (
        b"1 0 obj<</L 2>>stream\nab\r\nendobj x endobj\n2 0 obj<<>>endobj"
    ),
    "stream-without-endstream-at-the-end": b"1 0 obj stream\nab\nendobj\ntrailer<<>>",
    "no-endobj": b"1 0 obj<<>>\n2 0 obj<<>>\n3 0 obj 4",
    "no-endobj-then-comment": b"1 0 obj<<>>\n%c\n2 0 obj<<>>\n",
    "endobj-twice": b"1 0 obj<<>>endobj endobj 2 0 obj<<>>endobj",
    "xref-after-the-last-object": b"1 0 obj<<>>endobj\nxref\n0 1\n0000000000 65535 f \n",
    "trailer-after-an-object": b"1 0 obj<<>>\ntrailer\n<</Size 2>>\n2 0 obj<<>>endobj",
    "stray-obj": b"1 0 obj<<>> obj endobj\n2 0 obj<<>>\nobj\n",
    "header-behind-a-letter": b"1 0 obj<<>>x2 0 obj<<>>endobj",
    "malformed-dictionary": b"1 0 obj<</A 1 x>>endobj\n2 0 obj<</A (x>>\n3 0 obj 1 endobj",
    "endstream-inside-the-length": b"1 0 obj<</Length 13>>stream\na\nendstream\nb\nendstream endobj",
    "length-of-a-malformed-dictionary": b"1 0 obj<</Length 13 x>>stream\na\nendstream\nb\nendstream",
}


@pytest.mark.parametrize("body", list(_TAIL_CASES.values()), ids=list(_TAIL_CASES))
def test_anchored_object_loop_named_cases(body):
    data = b"%PDF-1.4\n" + body
    assert _lexed_objects(data) == _searched_lex_objects(data)


# A comment that holds an object header, passed before the dictionary first
# needs its bound, ahead of an array, a literal string and a hex string that
# need it: the bound is searched for from each, so none of them is cut.
_PASSED_HEADER_CASES = {
    "comment-holding-a-header-before-an-array": b"1 0 obj\n<</A 1 %2 0 obj\n/B [<</C 1>>]>>\nendobj\n",
    "comment-holding-a-header-before-a-string": b"1 0 obj\n<</A 1 %2 0 obj\n/B (a(b(c)))>>\nendobj\n",
    "comment-holding-a-header-before-a-hex-string": b"1 0 obj\n<</A 1 %2 0 obj\n/B <obj>>>\nendobj\n",
}


@pytest.mark.parametrize("body", list(_PASSED_HEADER_CASES.values()), ids=list(_PASSED_HEADER_CASES))
def test_a_header_the_lexer_passed_is_no_bound(body):
    data = b"%PDF-1.4\n" + body
    sections = segment(data)
    (obj,) = sections.objects
    assert sections.diagnostics == []
    assert obj.dict_end == data.index(b">>\nendobj") + 2
    assert _lexed_objects(data) == _searched_lex_objects(data)


def test_a_header_after_the_first_token_that_needs_a_bound_is_the_bound():
    # The string needs the bound first, and the first header after it lies in
    # a comment: the search does not lex, so the dictionary ends there,
    # malformed, and the header starts an object.
    data = b"%PDF-1.4\n1 0 obj\n<</B (a(b(c))) %2 0 obj\n/A 1>>\nendobj\n"
    sections = segment(data)
    assert [(o.obj_num, o.dict_end) for o in sections.objects] == [(1, data.index(b"2 0 obj")), (2, None)]
    assert "MalformedDictionary obj 1 0" in sections.diagnostics
    assert _lexed_objects(data) == _searched_lex_objects(data)


def test_the_bound_is_searched_for_only_when_a_token_needs_it():
    # A nested dictionary goes to the walk, which closes it with no bound:
    # no search runs through the payload after it.
    def header_searches(dictionary):
        payload = b"x" * (1 << 20)
        data = (b"%PDF-1.4\n1 0 obj\n" + dictionary % len(payload) + b"\nstream\n" + payload
                + b"\nendstream\nendobj\n2 0 obj\n<</Type/Font>>\nendobj\n")
        with mock.patch.object(segmenter, "_find_header", wraps=segmenter._find_header) as find:
            sections = segment(data)
        assert sections.diagnostics == []
        assert sections.objects[0].payload_end - sections.objects[0].payload_start == len(payload)
        return find.call_count

    nested = header_searches(b"<</Length %d/Resources<</Font<</F1 2 0 R>>>>>>")
    assert nested <= header_searches(b"<</Length %d/F1 2 0 R>>")


def test_anchored_object_loop_matches_the_searches():
    rng = random.Random(1401)
    alphabet = _OBJECT_PARTS + _BETWEEN_OBJECTS
    for _ in range(3000):
        data = b"%PDF-1.4\n" + b"".join(rng.choices(alphabet, k=rng.randrange(1, 25)))
        assert _lexed_objects(data) == _searched_lex_objects(data), data
