"""Segmenter: header, objects, xref tables, trailers, spans, metadata flags."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
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
from pdfprov.segmenter import (
    _TRAILER_KW,
    _XREF_KW,
    _gaps,
    _keyword_hits,
    _lex_objects,
    extract_objects,
    extract_trailers,
    parse_header,
    parse_xref,
    segment,
)


# -- parse_header ----------------------------------------------------------


def test_header_distiller_magic():
    info = parse_header(b"%PDF-1.4\n%\xE2\xE3\xCF\xD3\n rest")
    assert info.version == "1.4"
    assert info.binary_comment == b"\xE2\xE3\xCF\xD3"


def test_header_without_second_comment():
    info = parse_header(b"%PDF-1.7\n1 0 obj\n<<>>\nendobj\n")
    assert info.version == "1.7"
    assert info.binary_comment is None


def test_header_word_magic_crlf():
    info = parse_header(b"%PDF-1.5\n%\xB5\xB5\xB5\xB5\r\nrest")
    assert info.version == "1.5"
    assert info.binary_comment == b"\xB5\xB5\xB5\xB5"


def test_header_not_a_pdf():
    with pytest.raises(NotAPdf):
        parse_header(b"GIF89a not a pdf at all")
    with pytest.raises(NotAPdf):
        parse_header(b"")


def test_header_magic_tolerated_after_junk_prefix():
    info = parse_header(b"JUNK" * 10 + b"%PDF-1.6\n%\xC7\xEC\x8F\xA2\n")
    assert info.version == "1.6"
    assert info.binary_comment == b"\xC7\xEC\x8F\xA2"


def test_header_magic_beyond_window_rejected():
    with pytest.raises(NotAPdf):
        parse_header(b" " * 2000 + b"%PDF-1.4\n")


def test_header_short_comment_recorded_and_flagged():
    data = b"%PDF-1.4\n%\xE2\xE3\n1 0 obj\n<<>>\nendobj\n"
    sections = segment(data)
    assert sections.header.binary_comment == b"\xE2\xE3"
    assert "ShortBinaryComment" in sections.diagnostics


# -- extract_objects ---------------------------------------------------------


def test_pdftex_style_object():
    objs = extract_objects(PDFTEX_STREAM_OBJECT)
    assert len(objs) == 1
    obj = objs[0]
    assert (obj.obj_num, obj.gen_num) == (4, 0)
    assert obj.dict_keys == ["/Length", "/Filter"]
    assert obj.has_stream


def test_luatex_style_object_same_keys_different_raw():
    objs = extract_objects(LUATEX_STREAM_OBJECT)
    assert objs[0].dict_keys == ["/Length", "/Filter"]
    assert objs[0].raw != extract_objects(PDFTEX_STREAM_OBJECT)[0].raw


def test_empty_body_region():
    assert extract_objects(b"%PDF-1.4\njust a header\n") == []


def test_truncated_object_recorded_not_fatal():
    data = b"%PDF-1.4\n9 0 obj\n<</Length 3>>\nstream\nabc"
    sections = segment(data)
    assert len(sections.objects) == 1
    assert sections.objects[0].truncated
    assert any(d.startswith("TruncatedObject") for d in sections.diagnostics)


def test_object_numbers_not_matched_inside_longer_tokens():
    data = b"110 0 obj\n<</A 1>>\nendobj\n"
    objs = extract_objects(data)
    assert [(o.obj_num, o.gen_num) for o in objs] == [(110, 0)]


def test_nested_dict_keys_stay_out_of_top_level():
    data = b"5 0 obj\n<</A<</Inner 1>>/B 2>>\nendobj\n"
    assert extract_objects(data)[0].dict_keys == ["/A", "/B"]


# -- parse_xref ---------------------------------------------------------------


def test_word_xref_table():
    tables = parse_xref(WORD_XREF_TABLE)
    assert len(tables) == 1
    (sub,) = tables[0].subsections
    assert (sub.first_obj, sub.count) == (0, 5)
    entry = sub.entries[0]
    assert (entry.offset, entry.generation, entry.kind) == (10, 65535, "f")


def test_absent_xref_sets_flag():
    sections = segment(b"%PDF-1.5\n1 0 obj\n<<>>\nendobj\n")
    assert sections.xref_tables == []
    assert sections.classic_xref_absent


def test_two_revisions_two_tables():
    data = WORD_XREF_TABLE + b"junk\n" + WORD_XREF_TABLE
    tables = parse_xref(data)
    assert len(tables) == 2
    assert tables[0].start_offset < tables[1].start_offset


def test_malformed_entry_skipped_with_diagnostic():
    data = b"xref\n0 2\n0000000017 00000 n \n17 0 n\n"
    sections = segment(b"%PDF-1.4\n" + data)
    assert any(d.startswith("MalformedXrefEntry") for d in sections.diagnostics)
    (table,) = sections.xref_tables
    assert len(table.subsections[0].entries) == 1


def test_xref_width_law_is_render_roundtrip():
    tables = parse_xref(WORD_XREF_TABLE)
    cursor = WORD_XREF_TABLE.index(b"\n", WORD_XREF_TABLE.index(b"0 5")) + 1
    for entry in tables[0].subsections[0].entries:
        assert entry.render() == WORD_XREF_TABLE[cursor : cursor + 18]
        cursor += entry.raw_len


def test_startxref_keyword_is_not_a_table():
    assert parse_xref(b"startxref\n123\n%%EOF\n") == []


def test_understated_table_does_not_swallow_the_trailer():
    data = (b"%PDF-1.4\nxref\n0 5\n"
            b"0000000000 65535 f \n0000000017 00000 n \n"
            b"trailer\n<</Size 5/Root 1 0 R>>\n")
    sections = segment(data)
    assert any(d.startswith("XrefTruncatedSubsection") for d in sections.diagnostics)
    assert len(sections.xref_tables[0].subsections[0].entries) == 2
    assert sections.trailers[0].keys == ["/Size", "/Root"]


def test_spans_property_covers_every_element(corpus_bytes):
    blobs = corpus_bytes[next(iter(corpus_bytes))]
    data = blobs[0]
    sections = segment(data)
    spans = sections.spans
    assert "header" in spans
    for ref, span in spans.items():
        assert 0 <= span.offset <= span.end <= sections.file_len, ref


# -- extract_trailers ---------------------------------------------------------


def test_libreoffice_trailer_keys():
    (trailer,) = extract_trailers(LIBREOFFICE_TRAILER)
    assert trailer.keys == ["/Size", "/Root", "/Info", "/ID", "/DocChecksum"]


def test_word_double_trailer():
    trailers = extract_trailers(WORD_DOUBLE_TRAILER)
    assert len(trailers) == 2
    assert trailers[1].keys[-2:] == ["/Prev", "/XRefStm"]
    assert trailers[0].startxref_value == 46566


def test_minimal_trailer():
    (trailer,) = extract_trailers(b"trailer << /Size 4 /Root 1 0 R >>")
    assert trailer.keys == ["/Size", "/Root"]


def test_xref_stream_dict_is_a_trailer():
    data = (b"6 0 obj\n<</Type /XRef /Size 7 /Root 1 0 R>>\nstream\nxx\nendstream\n"
            b"endobj\nstartxref\n9\n%%EOF\n")
    (trailer,) = extract_trailers(data)
    assert trailer.from_xref_stream
    assert trailer.keys[0] == "/Type"
    assert trailer.startxref_value == 9


def test_malformed_trailer_stops_at_the_next_trailer_or_object():
    first, second = extract_trailers(b"trailer\n<< <<x\ntrailer\n<</Size 1>>\n")
    assert first.raw == b"trailer\n<< <<x\n"
    assert second.keys == ["/Size"]
    (trailer,) = extract_trailers(b"trailer\n<< <<x\n1 0 obj\n<<>>\nendobj\n")
    assert trailer.raw == b"trailer\n<< <<x\n"


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
        for table in sections.xref_tables:
            assert data[table.span.offset : table.span.end] == table.raw
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
    objs = extract_objects(data)  # must terminate, tolerantly
    assert len(objs) <= 1


def test_random_mutations_never_crash(corpus_bytes):
    """A forensic parser must degrade, not abort, on damaged files."""
    import random

    from pdfprov.builtin_pack import builtin
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
    assert extract_objects(data)[0].dict_keys == shuffled

    trailer = b"trailer\n<<" + body + b">>\n"
    assert extract_trailers(trailer)[0].keys == shuffled


# -- keyword search between objects --------------------------------------------

# The whole-file keyword regexes the gap search replaced, kept as its oracle.
_XREF_ORACLE_RE = re.compile(rb"(?<![A-Za-z])xref(?![A-Za-z])")
_TRAILER_ORACLE_RE = re.compile(rb"(?<![A-Za-z])trailer(?![A-Za-z0-9])")

_FRAGMENTS = [b"xref", b"xrefs", b"trailer", b"Atrailer", b"trailer1", b"1 0 obj",
              b"12 0 obj", b"endobj", b"stream\n", b"endstream", b"<<", b">>", b"(",
              b"%", b" ", b"\n", b"x", b"7"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40))
def test_gap_keyword_search_matches_lookbehind_regexes(parts):
    data = b"".join(parts)
    objects, _ = _lex_objects(data)
    gaps = _gaps(objects, len(data))
    for oracle, keyword in ((_XREF_ORACLE_RE, _XREF_KW), (_TRAILER_ORACLE_RE, _TRAILER_KW)):
        expected = [
            m.start() for m in oracle.finditer(data)
            if not any(o.span.offset <= m.start() < o.span.end for o in objects)
        ]
        assert [p for p, _ in _keyword_hits(data, gaps, keyword)] == expected
