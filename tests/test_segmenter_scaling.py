"""Segmentation time grows linearly with input size on adversarial inputs.

Each family repeats one hostile shape k times.  Each of the first six made
an earlier segmenter do work proportional to k for each repetition.  In
the next two, the dictionary entry pattern scans each entry and then
gives it back to the token walk, which lexes it again.  The ninth is one
classic xref table of k entries, which the table walk matches one by one.
In the next two, each literal string that never closes was scanned to
the end of the input; it now stops at the next object header, or for a
trailer at the next trailer keyword or object.  In the next two, a comment
before each object header keeps the object loop off its anchored path, so
every object's end and the next header are searched for.  In the next
three, each trailer or xref table ran on past the next keyword, which was
then lexed again: a comment after each trailer keyword was skipped to the
end of its line, each table read every later line as a malformed entry,
and each unclosed hex string ran to the end of the input.  In the next,
each unclosed array ran on through the next objects; it now ends at the
next object header, which each array looks up.  The segmenter before that
was linear here, but found one object in 33.  In the last, each stream's
declared /Length is wrong, so no endstream lies at its end and each
payload falls back to the search for the first one; it guards that
fallback, and the segmenter before it was linear here too.  The extra
family is one xref table whose subsection count of 1 understates its run
of k entries: the run is matched once, and the one entry the count covers
is matched again alone.
The test times ``segment()`` at n and 2n repetitions with
``conftest.assert_linear_time`` and requires the larger input to cost at
most 2.5 times the smaller one; quadratic work costs 4 times.  Sizes keep
the earlier segmenter at a few seconds or less at n.  On every family
but the last two, the earlier segmenter's ratios stayed at 2.9 or more in
all three measurements.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_linear_time
from pdfprov.builtin_pack import builtin
from pdfprov.cli import scan_bytes
from pdfprov.fixtures import PROFILES, generate
from pdfprov.producers import Producer
from pdfprov.segmenter import Diagnostic, segment
from test_segmenter_parity import TOKENS


def _objects(k: int, body: bytes) -> bytes:
    return b"".join(b"%d 0 obj\n" % (i + 1) + body for i in range(k))


def _keyword_per_object(k: int) -> bytes:
    return b"".join(
        b"%d 0 obj\n<</Contents (see %s)>>\nendobj\n" % (i + 1, b"xref" if i % 2 else b"trailer")
        for i in range(k)
    )


_NUMBERS = b" ".join(b"%d" % j for j in range(1, 41))

# family -> (n, input builder for k repetitions)
FAMILIES = {
    # Each trailer looked for a startxref up to the end of the file, in a
    # segmenter that still read startxref values.
    "trailer-without-startxref": (8000, lambda k: b"trailer << /Size 1 >>\n" * k),
    # Each xref-stream object did the same.
    "xref-stream-without-startxref": (
        6000, lambda k: _objects(k, b"<</Type/XRef/Size 1>>\nendobj\n")
    ),
    # Each keyword scanned byte by byte to the end of the file for a line end.
    "xref-without-newline": (4000, lambda k: b"xref " * k),
    # Each malformed trailer balanced << >> pairs up to the end of the file.
    "malformed-trailer": (1500, lambda k: b"trailer\n<< <<x\n" * k),
    # Each object looked for its endobj up to the end of the file.
    "no-endobj": (4000, lambda k: _objects(k, b"<</Type/Annot/Rect [0 0 1 1]>>\n")),
    # Each keyword was tested against every object span.
    "keyword-per-object": (3000, _keyword_per_object),
    # A flat array of 40 numbers that a stray "{" turns away at its end.
    "rejected-flat-array": (
        300, lambda k: _objects(k, b"<</A [" + _NUMBERS + b" {]>>\nendobj\n")
    ),
    # A string turned away at its parentheses nested two deep.
    "rejected-nested-string": (
        1500, lambda k: _objects(k, b"<</A (" + b"x" * 40 + b"((y)))>>\nendobj\n")
    ),
    "long-xref-table": (5000, lambda k: b"xref\n0 %d\n" % k + b"0000000000 65535 f \n" * k),
    "unclosed-string-per-object": (1000, lambda k: b"1 0 obj << /A (x >> endobj\n" * k),
    "unclosed-string-per-trailer": (1000, lambda k: b"trailer << /A (" * k),
    "comment-after-endobj": (4000, lambda k: _objects(k, b"<</Type/Annot>>\nendobj %c\n")),
    "comment-without-endobj": (4000, lambda k: _objects(k, b"<</Type/Annot>>\n%c\n")),
    "trailer-comment-overlap": (2000, lambda k: b"trailer %" * k),
    "xref-overlap": (250, lambda k: b"xref\n0 1000000\n" + b"1 xref\n0 1000000\n" * k),
    "unclosed-hex-per-trailer": (2000, lambda k: b"trailer << /A <" * k),
    "unclosed-array-per-object": (4000, lambda k: _objects(k, b"<</A [1 endobj\n")),
    "wrong-length-per-stream": (
        4000, lambda k: _objects(k, b"<</Length 9>>\nstream\nab\nendstream\nendobj\n")
    ),
    "understated-xref-table": (20000, lambda k: b"xref\n0 1\n" + b"0000000000 65535 f \n" * k),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_segment_time_is_linear(family):
    n, build = FAMILIES[family]
    assert_linear_time(
        f"{family} at n={n}", segment, b"%PDF-1.4\n" + build(n), b"%PDF-1.4\n" + build(2 * n)
    )


# -- memory ----------------------------------------------------------------------


def test_segment_allocates_far_less_than_its_input():
    """Objects are offsets into the input: segmenting copies none of their
    bytes, so the peak of what ``segment()`` allocates is a small share of
    a many-object file whose bytes lie mostly in stream payloads."""
    payload = random.Random(1).randbytes(2500)
    stream = b"<</Length %d/Filter/FlateDecode>>\nstream\n%s\nendstream\nendobj\n" % (
        len(payload), payload)
    data = generate(PROFILES[Producer.PDFTEX], 1) + _objects(800, stream)
    assert len(data) > 2_000_000
    tracemalloc.start()
    try:
        sections = segment(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sections.objects) > 800 and not sections.diagnostics
    assert peak < len(data) / 2, f"segment() peaked at {peak} bytes on {len(data)}"


@pytest.mark.parametrize("n", [1000, 2000])
def test_segment_builds_one_tracked_object_per_object(n):
    """Each object is one record of ints: with the collector off,
    ``segment()`` leaves one new GC-tracked object per stream object, and a
    few for the sections and their lists."""
    data = b"%PDF-1.4\n" + _objects(n, b"<</Length 2/Filter/FlateDecode>>\nstream\nxx\nendstream\nendobj\n")
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        sections = segment(data)
        tracked = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert len(sections.objects) == n and not sections.diagnostics
    assert tracked <= n + 64, f"segment() left {tracked} tracked objects for {n} objects"


# -- one diagnostic per code --------------------------------------------------------

def _bad_xref_entries(k: int) -> tuple[bytes, int]:
    head = b"%PDF-1.4\n" + b"xref\n0 %d\n0000000000 65535 f \n" % (k + 1)
    return head + b"17 0 n\n" * k, len(head)


# Hostile shapes with one diagnostic per repetition: objects that never
# close, and an xref table whose entries, all but the first, break the
# entry grammar.  Each gives (the input, where its first bad element starts).
_BAD_ELEMENTS = {
    "no-endobj": lambda k: (b"%PDF-1.4\n" + _objects(k, b"<</Type/Annot/Rect [0 0 1 1]>>\n"),
                            len(b"%PDF-1.4\n")),
    "malformed-xref-entries": _bad_xref_entries,
}
_BAD_CASES = [("no-endobj", "TruncatedObject", 2000), ("malformed-xref-entries", "MalformedXrefEntry", 20000)]


@pytest.mark.parametrize("family, code, n", _BAD_CASES, ids=[c[0] for c in _BAD_CASES])
def test_bad_elements_give_one_counted_diagnostic(family, code, n):
    for k in (n, 2 * n):
        data, first = _BAD_ELEMENTS[family](k)
        assert segment(data).diagnostics == [Diagnostic(code, first, k)]


@pytest.mark.parametrize("family, code, n", _BAD_CASES, ids=[c[0] for c in _BAD_CASES])
def test_a_report_does_not_grow_with_its_bad_elements(family, code, n):
    def json_length(k):
        return len(scan_bytes("hostile.pdf", _BAD_ELEMENTS[family](k)[0], builtin()).to_json())

    # Only the count's digits may grow: the code and its offset stay.
    assert json_length(2 * n) - json_length(n) <= len(str(2 * n)) - len(str(n))


def test_diagnostic_codes_come_out_in_offset_order():
    # A malformed xref entry, then an object whose dictionary is malformed.
    data = b"%PDF-1.4\nxref\n0 2\n0000000000 65535 f \n17 0 n\n1 0 obj\n<</A 1 x>>\nendobj\n"
    assert segment(data).diagnostics == [
        Diagnostic("MalformedXrefEntry", data.index(b"17 0 n"), 1),
        Diagnostic("MalformedDictionary", data.index(b"1 0 obj"), 1),
    ]


# -- no two elements share a byte -------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=12), st.integers(1, 4))
# A trailer whose comment runs past the next trailer keyword.
@example([b"trailer", b"<<", b"%"], 2)
# A trailer whose unclosed hex string runs past the next one.
@example([b"trailer", b"<<", b"/A", b" ", b"<"], 2)
def test_elements_share_no_byte(parts, k):
    data = b"%PDF-1.4\n" + b"".join(parts) * k
    sections = segment(data)
    # An xref stream's dictionary lies inside its object.
    classic = [t for t in sections.trailers if data.startswith(b"trailer", t.start)]
    elements = (*sections.objects, *sections.xref_tables, *classic)
    spans = sorted((e.start, e.end) for e in elements)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start
