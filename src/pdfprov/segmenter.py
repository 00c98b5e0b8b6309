"""Lexical segmentation of raw PDF bytes into the four structural sections.

A PDF file is split into header, body objects, classic cross-reference
tables and trailer dictionaries without interpreting the object graph or
decoding any stream.  Everything is located by scanning bytes, never by
following the cross-reference offsets: the offsets may be absent or lie,
and the style signals this package cares about live in the raw byte
shapes anyway.

Segmentation takes time linear in the input size.  One pass lexes the
objects, and each object's ``endobj`` search stops at the next object
header.  The ``xref`` and ``trailer`` keywords are searched for only in
the gaps between objects.  Line ends and ``startxref`` positions are each
found once, and a malformed trailer's recovery stops at the next trailer
or object.  The exception is elements that overlap: a trailer dictionary
or xref table that runs on past the next keyword of its kind (behind an
unclosed string or comment, say) is scanned again from that keyword.

All functions here are pure; the same input bytes always produce a
structurally identical result.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import NotAPdf

# How far into the file the %PDF magic may sit.  Real-world files are
# sometimes prefixed with junk that common readers skip over.
MAGIC_SCAN_WINDOW = 1024

_WHITESPACE = b"\x00\t\n\x0c\r "
_DELIMITERS = b"()<>[]{}/%"

_HEADER_RE = re.compile(rb"%PDF-(\d+)\.(\d+)")
_MAGIC_RE = re.compile(rb"%PDF")
_OBJ_RE = re.compile(
    rb"(\d{1,10})[\x00\t\n\x0c\r ]+(\d{1,5})[\x00\t\n\x0c\r ]+obj(?![0-9A-Za-z])"
)
# The rest of an indirect reference "N G R" after its first number.
_REF_TAIL_RE = re.compile(rb"[\x00\t\n\x0c\r ]+(\d+)[\x00\t\n\x0c\r ]+R(?![0-9A-Za-z])")
_SUBSECTION_RE = re.compile(rb"(\d+)[ \t]+(\d+)[ \t]*(?:\r\n|\r|\n)")
# One table entry: 10-digit offset, 5-digit generation, n/f flag, then an
# end-of-line of 0-2 bytes (producers vary; 20 bytes is the common case).
_ENTRY_RE = re.compile(rb"(\d{10}) (\d{5}) ([nf])( \r\n| \r| \n|\r\n|\r|\n)?")
_EOL_RE = re.compile(rb"[\r\n]")
_STARTXREF_RE = re.compile(rb"startxref[\x00\t\n\x0c\r ]+(\d+)")
_REF_RE = re.compile(rb"(\d+)[\x00\t\n\x0c\r ]+(\d+)[\x00\t\n\x0c\r ]+R(?![0-9A-Za-z])")

_LETTERS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
# A keyword counts when no ASCII letter precedes it and none of these
# bytes follows it.
_XREF_KW = (b"xref", _LETTERS)
_TRAILER_KW = (b"trailer", _LETTERS + b"0123456789")


@dataclass(frozen=True)
class Span:
    """Byte range (offset, length) of an element within the file."""

    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass
class HeaderInfo:
    """Version line plus the raw binary comment that often follows it."""

    version: str
    binary_comment: bytes | None
    span: Span


@dataclass
class IndirectObject:
    """One ``N G obj ... endobj`` span of the body."""

    obj_num: int
    gen_num: int
    raw: bytes
    dict_keys: list[str]
    has_stream: bool
    is_metadata: bool
    span: Span
    truncated: bool = False
    # Absolute byte range of the top-level dictionary, when one was found.
    dict_span: Span | None = None
    # Shallow raw values of top-level dictionary entries (last wins).
    values: dict[str, bytes] = field(default_factory=dict, repr=False)


@dataclass
class XrefEntry:
    """One fixed-width cross-reference entry."""

    offset: int
    generation: int
    kind: str  # "n" (in use) or "f" (free)
    raw_len: int

    def render(self) -> bytes:
        """Re-render the 18-byte fixed-width core of the entry."""
        return b"%010d %05d %s" % (self.offset, self.generation, self.kind.encode())


@dataclass
class XrefSubsection:
    first_obj: int
    count: int
    entries: list[XrefEntry]


@dataclass
class XrefTable:
    """One classic cross-reference table (one per file revision)."""

    subsections: list[XrefSubsection]
    start_offset: int
    raw: bytes
    span: Span


@dataclass
class TrailerDict:
    """A trailer dictionary: classic keyword form or an xref-stream dict."""

    keys: list[str]
    raw: bytes
    startxref_value: int | None
    span: Span
    from_xref_stream: bool = False
    values: dict[str, bytes] = field(default_factory=dict, repr=False)


@dataclass
class PdfSections:
    """The segmented view of one PDF file."""

    header: HeaderInfo
    objects: list[IndirectObject]
    xref_tables: list[XrefTable]
    trailers: list[TrailerDict]
    file_len: int
    classic_xref_absent: bool
    diagnostics: list[str] = field(default_factory=list)
    # Object number of the Info dictionary: the /Info reference of the
    # last trailer that has one.
    info_obj_num: int | None = None

    @property
    def spans(self) -> dict[str, Span]:
        """Byte range of every parsed element, keyed by element reference."""
        out: dict[str, Span] = {"header": self.header.span}
        for obj in self.objects:
            out[f"obj:{obj.obj_num}:{obj.gen_num}"] = obj.span
        for i, table in enumerate(self.xref_tables):
            out[f"xref:{i}"] = table.span
        for i, trailer in enumerate(self.trailers):
            out[f"trailer:{i}"] = trailer.span
        return out


# -- Low-level token scanning -------------------------------------------------


def _skip_ws(data: bytes, i: int) -> int:
    n = len(data)
    while i < n:
        b = data[i]
        if b in _WHITESPACE:
            i += 1
        elif b == 0x25:  # '%' comment runs to end of line
            i = _line_end(data, i)
        else:
            break
    return i


def _scan_name(data: bytes, i: int) -> int:
    """Advance past a name token starting at the '/' at ``i``."""
    i += 1
    n = len(data)
    while i < n and data[i] not in _WHITESPACE and data[i] not in _DELIMITERS:
        i += 1
    return i


def _scan_literal_string(data: bytes, i: int) -> int:
    """Advance past a ``(...)`` string, honouring escapes and nesting."""
    depth = 0
    n = len(data)
    while i < n:
        b = data[i]
        if b == 0x5C:  # backslash escapes the next byte
            i += 2
            continue
        if b == 0x28:
            depth += 1
        elif b == 0x29:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _scan_number(data: bytes, i: int) -> int:
    n = len(data)
    while i < n and data[i] in b"+-.0123456789":
        i += 1
    return i


# Dictionaries and arrays nest via recursion; hostile inputs get a floor.
_MAX_NESTING = 64


def _skip_value(data: bytes, i: int, depth: int = 0) -> int:
    """Advance past one PDF value starting at non-whitespace position ``i``."""
    n = len(data)
    if i >= n:
        return i
    if depth > _MAX_NESTING:
        return _recover_dict_end(data, i + 1, n)
    b = data[i]
    if b == 0x3C:  # '<'
        if data[i + 1 : i + 2] == b"<":
            end, _, _, _ = _scan_dict(data, i, depth + 1)
            return end
        j = data.find(b">", i + 1)
        return n if j < 0 else j + 1
    if b == 0x5B:  # '['
        i += 1
        while i < n:
            i = _skip_ws(data, i)
            if i >= n:
                break
            if data[i] == 0x5D:
                return i + 1
            i = _skip_value(data, i, depth + 1)
        return i
    if b == 0x28:  # '('
        return _scan_literal_string(data, i)
    if b == 0x2F:  # '/'
        return _scan_name(data, i)
    if b in b"+-.0123456789":
        j = _scan_number(data, i)
        # A number may open an indirect reference: "N G R".
        m = _REF_TAIL_RE.match(data, j)
        return m.end() if m else j
    if data.startswith(b"true", i):
        return i + 4
    if data.startswith(b"false", i):
        return i + 5
    if data.startswith(b"null", i):
        return i + 4
    return i + 1  # tolerate unknown bytes


def _scan_dict(
    data: bytes, i: int, depth: int = 0, recover_stop: int | None = None
) -> tuple[int, list[str], dict[str, bytes], bool]:
    """Parse the dictionary opening at ``i`` (must point at ``<<``).

    Returns ``(end, keys, values, ok)`` where ``end`` is the index just
    past the closing ``>>``, ``keys`` lists top-level keys in source
    order and ``values`` maps each key to the raw bytes of its value.
    When the dictionary itself is malformed, recovery looks for its end
    no further than ``recover_stop`` (default: the end of ``data``).
    """
    n = len(data)
    keys: list[str] = []
    values: dict[str, bytes] = {}
    if depth > _MAX_NESTING:
        return _recover_dict_end(data, i + 2, n), keys, values, False
    i += 2
    while i < n:
        i = _skip_ws(data, i)
        if i >= n:
            return n, keys, values, False
        if data.startswith(b">>", i):
            return i + 2, keys, values, True
        if data[i] != 0x2F:
            # Malformed: recover by balancing << >> pairs from here.
            stop = n if recover_stop is None else recover_stop
            return _recover_dict_end(data, i, stop), keys, values, False
        key_end = _scan_name(data, i)
        key = data[i:key_end].decode("latin-1")
        keys.append(key)
        i = _skip_ws(data, key_end)
        vstart = i
        i = _skip_value(data, i, depth)
        values[key] = data[vstart:i]
    return n, keys, values, False


def _recover_dict_end(data: bytes, i: int, stop: int) -> int:
    """Index past the ``>>`` that balances an open ``<<``, or ``stop``."""
    depth = 1
    while i < stop:
        if data.startswith(b"<<", i, stop):
            depth += 1
            i += 2
        elif data.startswith(b">>", i, stop):
            depth -= 1
            i += 2
            if depth == 0:
                return i
        else:
            i += 1
    return max(i, stop)


def _clean_token_start(data: bytes, pos: int) -> bool:
    if pos == 0:
        return True
    prev = data[pos - 1]
    return prev in _WHITESPACE or prev in _DELIMITERS


# -- Section parsers -----------------------------------------------------------


def parse_header(data: bytes) -> HeaderInfo:
    """Extract the version and the optional second-line binary comment."""
    info, _ = _parse_header_with_diags(data)
    return info


def _parse_header_with_diags(data: bytes) -> tuple[HeaderInfo, list[str]]:
    if not data:
        raise NotAPdf("empty input")
    window = data[:MAGIC_SCAN_WINDOW]
    diags: list[str] = []
    m = _HEADER_RE.search(window)
    if m:
        version = f"{int(m.group(1))}.{int(m.group(2))}"
        start = m.start()
        line_end = _line_end(data, m.end())
    else:
        plain = _MAGIC_RE.search(window)
        if not plain:
            raise NotAPdf(f"no %PDF magic in the first {MAGIC_SCAN_WINDOW} bytes")
        version = ""
        start = plain.start()
        line_end = _line_end(data, plain.end())
        diags.append("HeaderVersionMissing")
    comment: bytes | None = None
    i = _skip_eol(data, line_end)
    end = i
    if i < len(data) and data[i] == 0x25:  # '%'
        cend = _line_end(data, i + 1)
        raw = data[i + 1 : cend]
        if raw:
            comment = raw
            if len(raw) < 4 or sum(1 for b in raw if b >= 0x80) < 4:
                diags.append("ShortBinaryComment")
        end = _skip_eol(data, cend)
    return HeaderInfo(version, comment, Span(start, end - start)), diags


def _line_end(data: bytes, i: int) -> int:
    m = _EOL_RE.search(data, i)
    return m.start() if m else len(data)


def _skip_eol(data: bytes, i: int) -> int:
    if data.startswith(b"\r\n", i):
        return i + 2
    if i < len(data) and data[i] in b"\r\n":
        return i + 1
    return i


def _lex_objects(data: bytes) -> tuple[list[IndirectObject], list[str]]:
    objects: list[IndirectObject] = []
    diags: list[str] = []
    n = len(data)
    m = _OBJ_RE.search(data)
    while m:
        if not _clean_token_start(data, m.start()):
            m = _OBJ_RE.search(data, m.start() + 1)
            continue
        start = m.start()
        obj_num = int(m.group(1))
        gen_num = int(m.group(2))
        i = _skip_ws(data, m.end())
        keys: list[str] = []
        values: dict[str, bytes] = {}
        dict_span: Span | None = None
        if data.startswith(b"<<", i):
            dstart = i
            i, keys, values, ok = _scan_dict(data, i)
            dict_span = Span(dstart, i - dstart)
            if not ok:
                diags.append(f"MalformedDictionary obj {obj_num} {gen_num}")
        has_stream = False
        j = _skip_ws(data, i)
        if data.startswith(b"stream", j):
            has_stream = True
            i = data.find(b"endstream", j + 6)
            if i < 0:
                diags.append(f"TruncatedObject obj {obj_num} {gen_num}")
                objects.append(
                    IndirectObject(
                        obj_num, gen_num, data[start:], keys, True, False,
                        Span(start, n - start), truncated=True,
                        dict_span=dict_span, values=values,
                    )
                )
                break
            i += len(b"endstream")
        # The object ends at its endobj, or is cut off by the next header,
        # which is also where the following object starts.
        m = _OBJ_RE.search(data, i)
        stop = m.start() if m else n
        end = data.find(b"endobj", i, stop)
        if end < 0:
            diags.append(f"TruncatedObject obj {obj_num} {gen_num}")
            objects.append(
                IndirectObject(
                    obj_num, gen_num, data[start:stop], keys, has_stream, False,
                    Span(start, stop - start), truncated=True,
                    dict_span=dict_span, values=values,
                )
            )
            continue
        end += len(b"endobj")
        objects.append(
            IndirectObject(
                obj_num, gen_num, data[start:end], keys, has_stream, False,
                Span(start, end - start), dict_span=dict_span, values=values,
            )
        )
    return objects, diags


def _gaps(objects: list[IndirectObject], n: int) -> list[tuple[int, int]]:
    """The ``[start, stop)`` ranges of ``data[:n]`` outside every object."""
    gaps = []
    prev = 0
    for obj in objects:
        gaps.append((prev, obj.span.offset))
        prev = obj.span.end
    gaps.append((prev, n))
    return gaps


def _keyword_hits(
    data: bytes, gaps: list[tuple[int, int]], keyword: tuple[bytes, bytes]
) -> list[tuple[int, int]]:
    """``(offset, gap stop)`` of every keyword that starts inside a gap.

    ``keyword`` is a (word, bytes that may not follow it) pair.  An object
    starts with a digit, so a word starting in a gap also ends in it.
    """
    word, followers = keyword
    size = len(word)
    n = len(data)
    hits = []
    for start, stop in gaps:
        p = data.find(word, start, stop)
        while p >= 0:
            if ((p == 0 or data[p - 1] not in _LETTERS)
                    and (p + size == n or data[p + size] not in followers)):
                hits.append((p, stop))
            p = data.find(word, p + size, stop)
    return hits


def _lex_xref_tables(
    data: bytes, hits: list[tuple[int, int]]
) -> tuple[list[XrefTable], list[str]]:
    tables: list[XrefTable] = []
    diags: list[str] = []
    # The last line end found and the position searched from: no CR or LF
    # lies between them, so a later query in that range needs no search.
    last = (0, -1)

    def line_end(i: int) -> int:
        nonlocal last
        if not last[0] <= i <= last[1]:
            last = (i, _line_end(data, i))
        return last[1]

    for start, _ in hits:
        i = _skip_eol(data, line_end(start + len(b"xref")))
        subsections: list[XrefSubsection] = []
        total = 0
        while True:
            hm = _SUBSECTION_RE.match(data, i)
            if not hm:
                break
            first_obj, count = int(hm.group(1)), int(hm.group(2))
            i = hm.end()
            entries: list[XrefEntry] = []
            for _ in range(count):
                em = _ENTRY_RE.match(data, i)
                if not em:
                    # A digit-led line is a width-violating entry: skip it.
                    # Anything else means the table ended early.
                    if not data[i : i + 1].isdigit():
                        diags.append(f"XrefTruncatedSubsection at offset {i}")
                        break
                    diags.append(f"MalformedXrefEntry at offset {i}")
                    nl = _skip_eol(data, line_end(i))
                    if nl == i:
                        break
                    i = nl
                    continue
                eol = em.group(4) or b""
                entries.append(
                    XrefEntry(
                        int(em.group(1)), int(em.group(2)),
                        em.group(3).decode(), 18 + len(eol),
                    )
                )
                i = em.end()
            subsections.append(XrefSubsection(first_obj, count, entries))
            total += len(entries)
        if total == 0:
            # A keyword without a subsection header is not a table, and
            # "xref 0 0" placeholders (hybrid-reference files) carry no
            # offsets and do not count as a table of their own.
            continue
        tables.append(XrefTable(subsections, start, data[start:i], Span(start, i - start)))
    return tables, diags


def _lex_trailers(
    data: bytes, objects: list[IndirectObject], hits: list[tuple[int, int]]
) -> tuple[list[TrailerDict], list[str]]:
    trailers: list[TrailerDict] = []
    diags: list[str] = []
    startxrefs = list(_STARTXREF_RE.finditer(data))
    starts = [m.start() for m in startxrefs]

    def next_startxref(pos: int) -> int | None:
        k = bisect_left(starts, pos)
        return int(startxrefs[k].group(1)) if k < len(starts) else None

    for k, (start, gap_stop) in enumerate(hits):
        i = _skip_ws(data, start + len(b"trailer"))
        if not data.startswith(b"<<", i):
            continue
        # A malformed dictionary ends, at the latest, where the next
        # trailer keyword or the next object begins.
        stop = min(hits[k + 1][0], gap_stop) if k + 1 < len(hits) else gap_stop
        end, keys, values, ok = _scan_dict(data, i, recover_stop=stop)
        if not ok:
            diags.append(f"MalformedTrailer at offset {start}")
            keys, values = [], {}
        trailers.append(
            TrailerDict(
                keys, data[start:end], next_startxref(end), Span(start, end - start),
                values=values,
            )
        )
    for obj in objects:
        if obj.values.get("/Type", b"").strip() == b"/XRef" and obj.dict_span:
            sp = obj.dict_span
            trailers.append(
                TrailerDict(
                    list(obj.dict_keys),
                    data[sp.offset : sp.end],
                    next_startxref(obj.span.end),
                    sp,
                    from_xref_stream=True,
                    values=dict(obj.values),
                )
            )
    trailers.sort(key=lambda t: t.span.offset)
    return trailers, diags


def _flag_metadata(objects: list[IndirectObject], trailers: list[TrailerDict]) -> int | None:
    """Mark the Info target and /Type /Metadata streams as metadata.

    Returns the Info object number, if a trailer names one.
    """
    info_num: int | None = None
    for trailer in trailers:  # later revisions win
        # "/info" tolerates one producer's lowercase spelling of the key.
        ref = trailer.values.get("/Info") or trailer.values.get("/info")
        if ref:
            rm = _REF_RE.match(ref.strip())
            if rm:
                info_num = int(rm.group(1))
    for obj in objects:
        if obj.values.get("/Type", b"").strip() == b"/Metadata":
            obj.is_metadata = True
        if info_num is not None and obj.obj_num == info_num:
            obj.is_metadata = True
    return info_num


def _lex_all(
    data: bytes,
) -> tuple[list[IndirectObject], list[XrefTable], list[TrailerDict], int | None, list[str]]:
    objects, diags = _lex_objects(data)
    gaps = _gaps(objects, len(data))
    tables, xref_diags = _lex_xref_tables(data, _keyword_hits(data, gaps, _XREF_KW))
    trailers, trailer_diags = _lex_trailers(
        data, objects, _keyword_hits(data, gaps, _TRAILER_KW)
    )
    info_num = _flag_metadata(objects, trailers)
    return objects, tables, trailers, info_num, diags + xref_diags + trailer_diags


def extract_objects(data: bytes) -> list[IndirectObject]:
    """Return every indirect object in file-byte order, metadata flagged."""
    objects, _, _, _, _ = _lex_all(data)
    return objects


def parse_xref(data: bytes) -> list[XrefTable]:
    """Return every classic cross-reference table, in byte order."""
    _, tables, _, _, _ = _lex_all(data)
    return tables


def extract_trailers(data: bytes) -> list[TrailerDict]:
    """Return classic trailers and xref-stream dictionaries, in byte order."""
    _, _, trailers, _, _ = _lex_all(data)
    return trailers


def segment(data: bytes) -> PdfSections:
    """Segment raw bytes into the four structural sections.

    Raises :class:`NotAPdf` when no %PDF magic is found near the start.
    """
    header, diags = _parse_header_with_diags(data)
    objects, tables, trailers, info_num, lex_diags = _lex_all(data)
    return PdfSections(
        header=header,
        objects=objects,
        xref_tables=tables,
        trailers=trailers,
        file_len=len(data),
        classic_xref_absent=not tables,
        diagnostics=diags + lex_diags,
        info_obj_num=info_num,
    )
