"""Lexical segmentation of raw PDF bytes into the four structural sections.

A PDF file is split into header, body objects, classic cross-reference
tables and trailer dictionaries without interpreting the object graph or
decoding any stream.  Everything is located by scanning bytes, never by
following the cross-reference offsets: the offsets may be absent or lie,
and the style signals this package cares about live in the raw byte
shapes anyway.  Each element is a ``start``/``end`` pair of offsets into
the input, which :class:`PdfSections` keeps as ``data``: no object's bytes
are copied.  A stream object's payload runs from after the line end that
follows ``stream`` to before the line end in front of ``endstream``, so
that readers of its style can leave the data out: the ``endstream`` after
the size that the last top-level ``/Length`` declares, a direct integer of
at most 18 digits, and a line end of 0-2 bytes, if one lies there, else
the first.

Dictionaries are lexed by compiled token patterns built from one
whitespace and one delimiter class.  One pattern lexes a whole entry (its
key, its value and the whitespace after each) when the value is flat: a
name, a hex string, a number or ``N G R`` reference, ``true``, ``false``
or ``null``, a literal string with no ``obj`` whose parentheses nest one
level at most, or an array of those.  Every other entry goes to the token
walk: a key pattern, then the value walked in Python, recursing into
``<<`` and ``[`` and stepping through literal strings byte by byte.  The
two read one grammar and give the same keys and values for any entry the
pattern lexes.  An object's dictionary is first matched as one run of flat
entries, which marks its last ``/Type`` and ``/Length`` keys, whose values
are read if they are a name and a direct integer.  A ``>>`` after the run
closes the dictionary; else the walk resumes where the run stopped, with
no bound searched for yet, as from the ``<<``, and its keys win.  Objects
keep no values: :func:`object_values` lexes a dictionary on demand, and an
xref stream's is lexed whole for its trailer.

Segmentation takes time linear in the input size.  One forward pass lexes
the objects, and the xref tables and trailers in the gaps between them.
From one payload to the next, an object with only whitespace around it
costs one anchored match (the previous ``endobj``, a clean ``N G obj``,
``<<``, the run, ``>>`` and ``stream``) and a ``find`` bounded to 11 bytes
at its ``/Length``; only a missing or wrong one costs the ``endstream``
search.  Other bytes between objects (a comment, junk, a digit run that is
not a header) fall back to the searches, and the same pattern reads the
head of a header that a search found.  The header search is
possessive, so it never backs out of an xref table's digit runs, is not
run where no whitespace-led ``obj`` follows, and takes only a header that
starts a token.  The ``xref`` and ``trailer`` keywords are searched for
only in the gaps that the header search stepped over.  Each table and
trailer ends, at the latest, at the next such keyword or at the gap's end,
which is the next object, so no two elements share a byte.

Each object's ``endobj`` search stops at the next object header.  Its
dictionary has one bound: the first object header at or after the first
token that needs one, searched for once and only then (a trailer's bound
is the next keyword or object).  So a dictionary that lexes cleanly
searches nothing, and every later token stops at that header too, even one
inside a comment: the search does not lex.  A literal or hex string or an
array not closed before the bound ends there, as malformed.  A recovery
inside a dictionary, past a nested malformed one, the nesting floor, an
unclosed token or an array still open at a ``>>``, stops at that bound,
and so do the arrays and dictionaries around it.  A dictionary that no
``>>`` closes before its bound ends at the object's own ``endobj``, the
last before the bound, and a payload that no ``endstream`` ends, at the
last before the next header.

All functions here are pure; the same input bytes always produce a
structurally identical result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import NotAPdf

# How far into the file the %PDF magic may sit.  Real-world files are
# sometimes prefixed with junk that common readers skip over.
MAGIC_SCAN_WINDOW = 1024

# The whitespace and delimiter classes of the PDF token grammar; the
# dictionary, reference and object-header patterns are built from them.
_WHITESPACE = b"\x00\t\n\x0c\r "
_DELIMITERS = b"()<>[]{}/%"
_WS = b"[" + _WHITESPACE + b"]"
_REGULAR = b"[^" + _WHITESPACE + re.escape(_DELIMITERS) + b"]"
# Whitespace and comments; a comment runs from "%" to the end of its line.
# These three are possessive: each takes its longest run, as the token walk
# does, and never gives bytes back.
_SKIP = _WS + rb"*+(?:%[^\r\n]*+" + _WS + rb"*+)*+"
_NAME = b"/" + _REGULAR + b"*+"
# The rest of an indirect reference "N G R" after its first number.
_REF_TAIL = _WS + rb"++\d++" + _WS + rb"++R(?![0-9A-Za-z])"

# A name, a number or "N G R" reference, true, false or null.
_ATOM = _NAME + rb"|[-+.0-9]+(?:" + _REF_TAIL + rb")?|true|false|null"
# A value that is not a dictionary, array or literal string: an atom or a
# hex string up to the next ">" (not "<<").  The group is atomic: it takes
# what the first alternative that matches takes, whatever follows it.
_SCALAR = b"(?>" + _ATOM + rb"|<(?!<)[^>]*>?)"
# A literal string with no "obj" whose parentheses nest one level at most,
# and a hex string with no "obj": one that holds an object header goes to
# the walk, which ends it there.
_STRING_BYTES = rb"[^()\\o]+|\\.|o(?!bj)"
_FLAT_STRING = rb"\((?>" + _STRING_BYTES + rb"|\((?>" + _STRING_BYTES + rb")*+\))*+\)"
_FLAT_HEX = rb"<(?!<)(?>[^>o]+|o(?!bj))*+(?!obj)>?"

_SKIP_RE = re.compile(_SKIP)
# A dictionary key and the whitespace after it, which ends where its value
# starts.
_KEY_RE = re.compile(b"(" + _NAME + b")" + _SKIP)
# A scalar, or else one unknown byte (none at the end of the input).
_SCALAR_RE = re.compile(_SCALAR + rb"|.?", re.S)
# One entry with no dictionary, nested array or string nested two deep in its
# value: the key (group 1), whitespace, the value (group 2) and whitespace.
# Every part is atomic, so it takes the bytes that the token walk takes.
_FLAT_ITEM = b"(?>" + _ATOM + b"|" + _FLAT_HEX + b"|" + _FLAT_STRING + b")"
_FLAT_VALUE = b"(?:" + _FLAT_ITEM + rb"|\[" + _SKIP + b"(?:" + _FLAT_ITEM + _SKIP + rb")*+\])"
_FLAT_ENTRY_RE = re.compile(b"(" + _NAME + b")" + _SKIP + b"(" + _FLAT_VALUE + b")" + _SKIP, re.S)
# The flat entries that _FLAT_ENTRY_RE matches in turn.  Group 1 is the last
# "/Length" value that is a direct integer of at most 18 digits, and the empty
# group 4 lies past the last "/Length" key with another value.  The empty
# group 2 lies past the last "/Type" key, and group 3 is the last name value
# of a "/Type" key.  A value is the last key's if it starts after its mark.
# Greedy: Python 3.11 loses a capture inside a possessive repeat.
_FLAT_RUN = (
    b"(?:(?:/Length(?!" + _REGULAR + b")" + _SKIP + rb"(\d{1,18}+)(?![-+.0-9]|" + _REF_TAIL + b")"
    + b"|(?:/Type(?!" + _REGULAR + b")()(?:(?=" + _SKIP + b"(" + _NAME + b")))?|/Length(?!"
    + _REGULAR + b")()|" + _NAME + b")" + _SKIP + _FLAT_VALUE + b")" + _SKIP + b")*"
)
_ANGLES_RE = re.compile(rb"<<|>>")
_REF_RE = re.compile(rb"(\d+)" + _REF_TAIL)
# An object header "N G obj", numbers in groups 1 and 2.  A digit run must be
# followed by whitespace and a whitespace run by a digit or "o", so giving
# bytes back never makes a match: possessive.
_HEAD = rb"(\d{1,10}+)" + _WS + rb"++(\d{1,5}+)" + _WS + rb"++obj(?![0-9A-Za-z])"
_HEAD_RE = re.compile(_HEAD)
# The "stream" keyword after a dictionary and the line end after it.
_STREAM = _SKIP + rb"(stream)(?:\r\n|[\r\n])?"
_STREAM_RE = re.compile(_STREAM)
# From one object's dictionary or payload to the next's: whitespace, "endobj"
# (group 1), whitespace, and where a clean token starts, "N G obj" (groups 2
# and 3), "<<" (4), the run (5-8) and ">>" (9) or, where none ends the run, an
# empty group 10; else "stream" (11) and its line end.
_OBJECT_RE = re.compile(
    _WS + b"*+(endobj)?" + _WS + b"*+(?:(?<!" + _REGULAR + b")" + _HEAD + _SKIP + b"(?:(<<)" + _SKIP
    + _FLAT_RUN + b"(?:(>>)|()))?(?(10)|(?:" + _STREAM + b")?))?", re.S
)
_WS_OBJ_RE = re.compile(_WS + b"obj")
_HEADER_RE = re.compile(rb"%PDF-\d+\.\d+")
_MAGIC_RE = re.compile(rb"%PDF")
_SUBSECTION_RE = re.compile(rb"(\d+)[ \t]+(\d+)[ \t]*(?:\r\n|\r|\n)")
# One table entry: 10-digit offset, 5-digit generation, n/f flag, then an
# end-of-line of 0-2 bytes (producers vary; 20 bytes is the common case).
# Each entry holds exactly one " n" or " f".  A run of them is matched whole.
_ENTRY = rb"\d{10} \d{5} [nf](?: \r\n| \r| \n|\r\n|\r|\n)?"
_ENTRY_RE = re.compile(_ENTRY)
_ENTRIES_RE = re.compile(b"(?:" + _ENTRY + b")*+")
_EOL_RE = re.compile(rb"[\r\n]")
# An "xref" or "trailer" keyword: no ASCII letter precedes it, and no
# letter (or, after "trailer", digit) follows it.  Each branch starts with
# its first letter, which lets the search skip ahead to it: a leading
# lookbehind made it four times slower.
_KEYWORD_RE = re.compile(
    rb"(?:x(?<![A-Za-z]x)ref(?![A-Za-z])|t(?<![A-Za-z]t)railer(?![0-9A-Za-z]))"
)


# Not frozen: a frozen dataclass takes over twice as long to build.
@dataclass(slots=True)
class IndirectObject:
    """One ``N G obj ... endobj`` object of the body.

    It holds offsets into :attr:`PdfSections.data`, no bytes of its own:
    ``data[start:end]`` is the whole object, and ``data[dict_start:dict_end]``
    the dictionary after ``obj``, if any, whose entries :func:`object_values`
    lexes on demand.  ``is_metadata`` holds for a ``/Type /Metadata``
    object and for the Info target.  ``data[payload_start:payload_end]`` is
    a stream object's data: from the byte after the end of line that follows
    the ``stream`` keyword up to, not including, the end of line in front of
    ``endstream`` (the module docstring says which); with none, in front of
    the last ``endobj`` ahead of the next object header, and else up to that
    header or the end of the input.  Each pair is None when absent.
    """

    obj_num: int
    gen_num: int
    is_metadata: bool
    start: int
    end: int
    dict_start: int | None = None
    dict_end: int | None = None
    payload_start: int | None = None
    payload_end: int | None = None


@dataclass
class XrefTable:
    """A classic cross-reference table: ``data[start:end]``."""

    start: int
    end: int


@dataclass
class TrailerDict:
    """A trailer dictionary, ``data[start:end]``: classic keyword form or an
    xref-stream dict, with the raw value of each top-level key."""

    start: int
    end: int
    values: dict[str, bytes] = field(default_factory=dict, repr=False)


@dataclass
class PdfSections:
    """The segmented view of one PDF file: its elements are offsets into
    ``data``, the segmented bytes object itself, not a copy."""

    data: bytes = field(repr=False)
    # The comment line after the %PDF line, without its "%", if any.
    binary_comment: bytes | None
    objects: list[IndirectObject]
    # Each classic cross-reference table, in file order.
    xref_tables: list[XrefTable]
    trailers: list[TrailerDict]
    diagnostics: list[str] = field(default_factory=list)
    # Object number of the Info dictionary: the /Info reference of the
    # last trailer that has one.
    info_obj_num: int | None = None


# -- Low-level token scanning -------------------------------------------------


def _skip_ws(data: bytes, i: int, end: int) -> int:
    return _SKIP_RE.match(data, i, end).end()


def _scan_literal_string(data: bytes, i: int, limit: int) -> int | None:
    """Index past a ``(...)`` string, honouring escapes and nesting, or
    None when it does not close before ``limit``."""
    depth = 0
    while i < limit:
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
    return None


# Dictionaries and arrays nest via recursion; hostile inputs get a floor.
_MAX_NESTING = 64


class _Stop:
    """Where the lexing of one top-level dictionary gives up.

    No match of the lexer reads past ``at``.  A trailer's and an
    :func:`object_values` dictionary's bound is fixed.  An object's is
    searched for once, when a token first needs it: a recovery past a
    malformed dictionary or the nesting floor, or a string or array that
    must close before the bound.  It is the first object header at or after
    that token, so it never lies behind the lexer.  Until then ``at`` stays
    at the end of the input.  Every enclosing array and dictionary of a
    recovery ends at the bound too, and an unclosed string or array is
    scanned no further.
    """

    __slots__ = ("at", "searched")

    def __init__(self, data: bytes, at: int | None = None) -> None:
        self.at = len(data) if at is None else at
        self.searched = at is not None

    def limit(self, data: bytes, i: int) -> int:
        """The bound; the first call, from the lexer's index ``i``,
        searches for it."""
        if not self.searched:
            m = _find_header(data, i)
            self.at = m.start() if m else len(data)
            self.searched = True
        return self.at

    def recover(self, data: bytes, i: int) -> int:
        """Index past the ``>>`` that balances an open ``<<``, or the bound."""
        end = self.balance(data, i)
        return max(i, self.at) if end is None else end

    def balance(self, data: bytes, i: int) -> int | None:
        """Index past the ``>>`` that balances an open ``<<`` before the
        bound, or None when none does."""
        depth = 1
        for m in _ANGLES_RE.finditer(data, i, self.limit(data, i)):
            depth += 1 if m.group() == b"<<" else -1
            if depth == 0:
                return m.end()
        return None


def _skip_value(data: bytes, i: int, stop: _Stop, depth: int = 0) -> int:
    """Advance past one PDF value starting at non-whitespace position ``i``."""
    if i >= len(data):
        return i
    if depth > _MAX_NESTING:
        return stop.recover(data, i + 1)
    if data.startswith(b"<<", i):
        if depth == _MAX_NESTING:
            return stop.recover(data, i + 2)
        end, _, closed = _scan_dict(data, _skip_ws(data, i + 2, stop.at), stop, depth + 1)
        return end if closed else stop.recover(data, end)
    # An array, a literal or a hex string still open at the bound, or an
    # array at a ">>", ends as malformed, and so do the dictionaries around it.
    b = data[i]
    if b == 0x5B:  # '['
        i = _skip_ws(data, i + 1, stop.limit(data, i))
        while i < stop.at:
            if data[i] == 0x5D:
                return i + 1
            if data.startswith(b">>", i):
                return stop.recover(data, i)
            i = _skip_ws(data, _skip_value(data, i, stop, depth + 1), stop.at)
        return i
    if b == 0x28:  # '('
        end = _scan_literal_string(data, i, stop.limit(data, i))
        return stop.recover(data, i + 1) if end is None else end
    return _SCALAR_RE.match(data, i, stop.limit(data, i) if b == 0x3C else stop.at).end()


def _scan_dict(data: bytes, i: int, stop: _Stop, depth: int = 0) -> tuple[int, dict[str, bytes], bool]:
    """Parse the entries of a dictionary from ``i``, past its ``<<`` and
    the whitespace after it.

    Returns ``(end, values, closed)`` where ``end`` is the index just past
    the closing ``>>`` and ``values`` maps each top-level key, in source
    order, to the raw bytes of its value.  A malformed dictionary, or one
    still open at ``stop.at``, is not ``closed``: it ends where the lexer
    stopped, and the caller finds its end, at the latest at the one bound
    of the top-level dictionary, ``stop.limit``.
    """
    values: dict[str, bytes] = {}
    # The items of an array at the floor's depth lie past it, so there the
    # walk alone must see them.
    flat = _FLAT_ENTRY_RE.match if depth < _MAX_NESTING else None
    n = len(data)
    at = stop.at
    while i < at:
        m = flat(data, i, at) if flat else None
        # A match that ends at the bound may have cut its last token short.
        if m and (at == n or m.end() < at):
            values[m.group(1).decode("latin-1")] = m.group(2)
            i = m.end()
            continue
        if data.startswith(b">>", i):
            return i + 2, values, True
        m = _KEY_RE.match(data, i, at)
        if m is None:
            break
        vstart = m.end()
        i = _skip_value(data, vstart, stop, depth)
        values[m.group(1).decode("latin-1")] = data[vstart:i]
        at = stop.at
        i = _skip_ws(data, i, at)
    return i, values, False


def _find_header(data: bytes, i: int = 0) -> re.Match[bytes] | None:
    """The first object-header match at or after ``i`` that starts a clean
    token, or None.

    A header's ``obj`` follows whitespace.  With none left, as past the last
    object, the search is skipped: it would try every xref-table entry.
    """
    while _WS_OBJ_RE.search(data, i):
        m = _HEAD_RE.search(data, i)
        if m is None or m.start() == 0 or data[m.start() - 1] in _WHITESPACE + _DELIMITERS:
            return m
        # No clean header starts before this one's generation number ends:
        # a digit precedes every later start in its object number, and a
        # start past that leaves no room for two numbers before its "obj".
        i = m.end(2)
    return None


# -- Section parsers -----------------------------------------------------------


def parse_header(data: bytes) -> bytes | None:
    """The binary comment on the line after the %PDF line, if any."""
    return _parse_header_with_diags(data)[0]


def _parse_header_with_diags(data: bytes) -> tuple[bytes | None, list[str]]:
    if not data:
        raise NotAPdf("empty input")
    window = data[:MAGIC_SCAN_WINDOW]
    diags: list[str] = []
    m = _HEADER_RE.search(window)
    if m is None:
        m = _MAGIC_RE.search(window)
        if m is None:
            raise NotAPdf(f"no %PDF magic in the first {MAGIC_SCAN_WINDOW} bytes")
        diags.append("HeaderVersionMissing")
    i = _skip_eol(data, _line_end(data, m.end(), len(data)))
    comment: bytes | None = None
    if i < len(data) and data[i] == 0x25:  # '%'
        comment = data[i + 1 : _line_end(data, i + 1, len(data))] or None
        if comment and (len(comment) < 4 or sum(1 for b in comment if b >= 0x80) < 4):
            diags.append("ShortBinaryComment")
    return comment, diags


def _line_end(data: bytes, i: int, end: int) -> int:
    m = _EOL_RE.search(data, i, end)
    return m.start() if m else end


def _to_int(digits: bytes) -> int | None:
    """``int(digits)``, or None for a run longer than Python converts."""
    try:
        return int(digits)
    except ValueError:
        return None


def _skip_eol(data: bytes, i: int) -> int:
    if data.startswith(b"\r\n", i):
        return i + 2
    if i < len(data) and data[i] in b"\r\n":
        return i + 1
    return i


def _lex(data: bytes) -> tuple[list[IndirectObject], list[XrefTable], list[TrailerDict], list[str]]:
    """One forward pass over the body: the objects, and the xref tables and
    trailers in the gaps between them, each in file order, and their
    diagnostics: the objects' first, then the tables', then the trailers'."""
    objects: list[IndirectObject] = []
    tables: list[XrefTable] = []
    trailers: list[TrailerDict] = []
    diags: list[str] = []
    xref_diags: list[str] = []
    trailer_diags: list[str] = []
    n = len(data)
    end = 0  # where the last object ended: the start of the next gap
    m = (h := _find_header(data)) and _OBJECT_RE.match(data, h.start())
    searched = True
    # False once a search found no endstream: none follows a later index.
    endstreams = True
    while True:
        if searched:
            # Each table or trailer in the gap before this header ends, at
            # the latest, at the next keyword or at the gap's end.  A
            # header matched in place has only whitespace before it.
            gap_end = m.start(2) if m else n
            kw = _KEYWORD_RE.search(data, end, gap_end)
            while kw:
                nxt = _KEYWORD_RE.search(data, kw.end(), gap_end)
                bound = nxt.start() if nxt else gap_end
                if kw.group() == b"xref":
                    if table := _lex_xref_table(data, kw.start(), bound, xref_diags):
                        tables.append(table)
                elif trailer := _lex_trailer(data, kw.start(), bound, trailer_diags):
                    trailers.append(trailer)
                kw = nxt
        if m is None:
            break
        start, obj_num, gen_num = m.start(2), int(m[2]), int(m[3])
        i = m.end()
        p = i if m.start(11) >= 0 else -1  # where the payload starts
        kind = dstart = dend = pstart = pend = length = None
        if m.start(4) >= 0:
            dstart = m.start(4)
            if m.start(7) >= m.start(6) >= 0:  # only a name is /Metadata or /XRef
                kind = m[7]
            if m.start(5) > m.start(8):
                length = int(m[5])
            if m.start(10) < 0:  # a ">>" closed the run
                dend = m.end(9)
            else:
                # The walk resumes where the run stopped, as from the "<<".
                i, values, closed = _scan_dict(data, i, stop := _Stop(data))
                kind = values.get("/Type", kind)
                if (v := values.get("/Length")) is not None:
                    length = int(v) if v.isdigit() and len(v) <= 18 else None
                if not closed:
                    # A malformed dictionary ends, at the latest, at the next
                    # object header, and so does the object; with no ">>" to
                    # close it before that, at the object's own endobj.
                    end = stop.balance(data, i)
                    if end is None:
                        end = data.rfind(b"endobj", dstart, stop.at)
                        end = max(i, stop.at) if end < 0 else end
                    i = end
                    diags.append(f"MalformedDictionary obj {obj_num} {gen_num}")
                dend = i
                p = s.end() if (s := _STREAM_RE.match(data, i)) else -1
        if p >= 0:
            # The payload runs from the line end after "stream" to the line
            # end in front of the endstream at its /Length, else the first,
            # else the last endobj ahead of the next header; else it runs to
            # that header, which cuts the object off.  In "stream\nendstream"
            # one line end ends one keyword and starts the other.
            i = -1 if length is None else data.find(b"endstream", p + length, p + length + 11)
            if i < 0:
                i = data.find(b"endstream", p) if endstreams else -1
            if i < 0:
                endstreams = False
                h = _find_header(data, p)
                cut = h.start() if h else n
                i = data.rfind(b"endobj", p, cut)
            if i < 0:
                pstart, pend, i = p, cut, cut
            else:
                e = i - 2 if data.startswith(b"\r\n", i - 2) else i - (data[i - 1] in b"\r\n")
                pstart, pend = p, max(e, p)
                i += len(b"endstream") if data.startswith(b"endstream", i) else 0
        # The object ends at its endobj, or is cut off by the next header,
        # which is also where the following object starts.  Where only
        # whitespace and an endobj lie between, both are read in place, with
        # the next head; else the first header and endobj are searched for.
        m = t = _OBJECT_RE.match(data, i)
        if searched := (k := t.start(2)) < 0:
            k = t.end()
            m = (h := _find_header(data, k)) and _OBJECT_RE.match(data, h.start())
        if t.start(1) >= 0:
            end = t.end(1)
        else:
            cut = m.start(2) if m else n
            end = data.find(b"endobj", k, cut)
            if end < 0:
                diags.append(f"TruncatedObject obj {obj_num} {gen_num}")
                end = cut
            else:
                end += len(b"endobj")
        kind = kind.strip() if kind else b""
        obj = IndirectObject(obj_num, gen_num, kind == b"/Metadata", start, end, dstart, dend, pstart, pend)
        objects.append(obj)
        if kind == b"/XRef":
            # An xref stream's dictionary is its revision's trailer.
            trailers.append(TrailerDict(dstart, dend, object_values(data, obj)))
    return objects, tables, trailers, diags + xref_diags + trailer_diags


def object_values(data: bytes, obj: IndirectObject) -> dict[str, bytes]:
    """The raw value of each top-level key of ``obj``'s dictionary, in source
    order (last wins); a malformed one gives those lexed before it failed,
    and no value reads past the dictionary's end."""
    if (end := obj.dict_end) is None:
        return {}
    return _scan_dict(data, _skip_ws(data, obj.dict_start + 2, end), _Stop(data, end))[1]


def _lex_xref_table(data: bytes, start: int, bound: int, diags: list[str]) -> XrefTable | None:
    """The classic xref table at the ``xref`` keyword at ``start``, which
    ends by ``bound``; None when it holds no entry."""
    i = _skip_eol(data, _line_end(data, start + len(b"xref"), bound))
    total = 0
    while True:
        hm = _SUBSECTION_RE.match(data, i, bound)
        count = _to_int(hm.group(2)) if hm and _to_int(hm.group(1)) is not None else None
        if count is None:
            break
        i = hm.end()
        # One match takes a run of entries that the count covers; the rest,
        # and a run the count understates, go one entry at a time.
        e = _ENTRIES_RE.match(data, i, bound).end()
        if (run := data.count(b" n", i, e) + data.count(b" f", i, e)) <= count:
            total, count, i = total + run, count - run, e
        for _ in range(count):
            em = _ENTRY_RE.match(data, i, bound)
            if not em:
                # A digit-led line is a width-violating entry: skip it.
                # Anything else means the table ended early.
                if not data[i : min(i + 1, bound)].isdigit():
                    diags.append(f"XrefTruncatedSubsection at offset {i}")
                    break
                diags.append(f"MalformedXrefEntry at offset {i}")
                nl = _skip_eol(data, _line_end(data, i, bound))
                if nl == i:
                    break
                i = nl
                continue
            total += 1
            i = em.end()
    # A keyword without a subsection header is not a table, and "xref 0 0"
    # placeholders (hybrid-reference files) carry no offsets and do not
    # count as a table of their own.
    return XrefTable(start, i) if total else None


def _lex_trailer(data: bytes, start: int, bound: int, diags: list[str]) -> TrailerDict | None:
    """The trailer dictionary after the ``trailer`` keyword at ``start``,
    which ends by ``bound``; None when no ``<<`` follows the keyword."""
    i = _skip_ws(data, start + len(b"trailer"), bound)
    if not data.startswith(b"<<", i):
        return None
    stop = _Stop(data, bound)
    end, values, closed = _scan_dict(data, _skip_ws(data, i + 2, bound), stop)
    if not closed:
        end = stop.recover(data, end)
        diags.append(f"MalformedTrailer at offset {start}")
        values = {}
    return TrailerDict(start, end, values)


def _flag_metadata(objects: list[IndirectObject], trailers: list[TrailerDict]) -> int | None:
    """Mark the Info target as metadata; return its number, if any."""
    info_num: int | None = None
    for trailer in trailers:  # later revisions win
        # "/info" tolerates one producer's lowercase spelling of the key.
        rm = _REF_RE.match((trailer.values.get("/Info") or trailer.values.get("/info") or b"").strip())
        if rm and (num := _to_int(rm.group(1))) is not None:
            info_num = num
    for obj in objects:
        if obj.obj_num == info_num:
            obj.is_metadata = True
    return info_num


def segment(data: bytes) -> PdfSections:
    """Segment raw bytes into the four structural sections.

    Raises :class:`NotAPdf` when no %PDF magic is found near the start.
    """
    binary_comment, diags = _parse_header_with_diags(data)
    objects, tables, trailers, body_diags = _lex(data)
    return PdfSections(
        data=data,
        binary_comment=binary_comment,
        objects=objects,
        xref_tables=tables,
        trailers=trailers,
        diagnostics=diags + body_diags,
        info_obj_num=_flag_metadata(objects, trailers),
    )
