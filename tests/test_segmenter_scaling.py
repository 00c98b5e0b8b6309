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
every object's end and the next header are searched for.  In the last
three, each trailer or xref table ran on past the next keyword, which was
then lexed again: a comment after each trailer keyword was skipped to the
end of its line, each table read every later line as a malformed entry,
and each unclosed hex string ran to the end of the input.
The test times ``segment()`` at n and 2n repetitions with
``conftest.assert_linear_time`` and requires the larger input to cost at
most 2.5 times the smaller one; quadratic work costs 4 times.  Sizes keep
the earlier segmenter at a few seconds or less at n.  The earlier
segmenter's ratios stayed at 2.9 or more in all three measurements.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_linear_time
from pdfprov.segmenter import segment
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
    # A string turned away at its inner parentheses.
    "rejected-nested-string": (
        1500, lambda k: _objects(k, b"<</A (" + b"x" * 40 + b"(y))>>\nendobj\n")
    ),
    "long-xref-table": (5000, lambda k: b"xref\n0 %d\n" % k + b"0000000000 65535 f \n" * k),
    "unclosed-string-per-object": (1000, lambda k: b"1 0 obj << /A (x >> endobj\n" * k),
    "unclosed-string-per-trailer": (1000, lambda k: b"trailer << /A (" * k),
    "comment-after-endobj": (4000, lambda k: _objects(k, b"<</Type/Annot>>\nendobj %c\n")),
    "comment-without-endobj": (4000, lambda k: _objects(k, b"<</Type/Annot>>\n%c\n")),
    "trailer-comment-overlap": (2000, lambda k: b"trailer %" * k),
    "xref-overlap": (250, lambda k: b"xref\n0 1000000\n" + b"1 xref\n0 1000000\n" * k),
    "unclosed-hex-per-trailer": (2000, lambda k: b"trailer << /A <" * k),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_segment_time_is_linear(family):
    n, build = FAMILIES[family]
    assert_linear_time(
        f"{family} at n={n}", segment, b"%PDF-1.4\n" + build(n), b"%PDF-1.4\n" + build(2 * n)
    )


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
    classic = [t for t in sections.trailers if t.raw.startswith(b"trailer")]
    size = (sum(o.span.length for o in sections.objects) + sum(map(len, sections.xref_tables))
            + sum(t.span.length for t in classic))
    assert size <= len(data)
