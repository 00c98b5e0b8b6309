"""Self-declared producer metadata: extraction, normalization, consistency.

PDF files declare their producer in two untrusted places: the document
information dictionary (resolved through the trailer's /Info reference)
and the XMP metadata stream.  Both are read here, never fed to the
detector, and finally compared against what the coding-style verdict
says actually wrote the file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .detector import Verdict, VerdictKind
from .errors import NotAPdf
from .producers import Producer
from .segmenter import PdfSections, object_values, segment


class MetadataSource(str, Enum):
    INFO = "info"
    XMP = "xmp"
    BOTH = "both"


class ConsistencyStatus(str, Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    UNVERIFIABLE = "unverifiable"


@dataclass
class DeclaredMetadata:
    """What the file says about its own producer."""

    producer: str | None = None
    creator: str | None = None
    source: MetadataSource | None = None
    info_producer: str | None = None
    xmp_producer: str | None = None


# -- PDF string decoding -------------------------------------------------------

_LITERAL_ESCAPES = {
    b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\x0c",
    b"(": b"(", b")": b")", b"\\": b"\\",
}


def _decode_literal(value: bytes) -> bytes:
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


def _to_text(raw: bytes) -> str:
    if raw.startswith(b"\xfe\xff"):
        return raw[2:].decode("utf-16-be", "replace")
    return raw.decode("latin-1", "replace")


def decode_pdf_string(value: bytes) -> str | None:
    """Decode a raw PDF string value (parenthesized or hex form)."""
    value = value.strip()
    if value.startswith(b"(") and value.endswith(b")"):
        return _to_text(_decode_literal(value[1:-1]))
    if value.startswith(b"<") and value.endswith(b">") and not value.startswith(b"<<"):
        hexdigits = re.sub(rb"[^0-9A-Fa-f]", b"", value[1:-1])
        if len(hexdigits) % 2:
            hexdigits += b"0"
        return _to_text(bytes.fromhex(hexdigits.decode("ascii")))
    return None


# -- Extraction ----------------------------------------------------------------

_XMP_TAG_RE = re.compile(rb"<[^<>]+>")
# The bytes that may end an element's name in its opening tag.
_XMP_NAME_END = b"> \t\n\r\x0b\x0c"


def _xmp_element(raw: bytes, name: bytes) -> bytes | None:
    """The content of the first ``<name ...>...</name>`` element, as the
    regex ``<name(?:\\s[^>]*)?>(.*?)</name>`` finds it, in linear time: no
    later ``<name`` finds a ``>`` and ``</name>`` that the first one ending
    at ``>`` or whitespace does not."""
    start = b"<" + name
    p = raw.find(start)
    # The empty slice past the end also stops the loop; no ">" follows it.
    while p >= 0 and raw[p + len(start) : p + len(start) + 1] not in _XMP_NAME_END:
        p = raw.find(start, p + 1)
    if p < 0:
        return None
    gt = raw.find(b">", p + len(start))
    end = raw.find(b"</" + name + b">", gt + 1) if gt >= 0 else -1
    return raw[gt + 1 : end] if end >= 0 else None


def _xmp_field(raw: bytes, names: tuple[bytes, ...]) -> str | None:
    for name in names:
        content = _xmp_element(raw, name)
        if content is not None:
            text = _XMP_TAG_RE.sub(b"", content).strip()
            if text:
                return text.decode("utf-8", "replace")
        m = re.search(name + rb'="([^"]*)"', raw)
        if m and m.group(1).strip():
            return m.group(1).strip().decode("utf-8", "replace")
    return None


def extract_declared(data: bytes, sections: PdfSections | None = None) -> DeclaredMetadata:
    """Read /Producer and /Creator from the Info dictionary and XMP stream."""
    if sections is None:
        try:
            sections = segment(data)
        except NotAPdf:
            return DeclaredMetadata()
    declared = DeclaredMetadata()
    info_creator = xmp_creator = None
    for obj in sections.objects:
        if obj.obj_num == sections.info_obj_num:
            values = object_values(data, obj)
            if "/Producer" in values:
                declared.info_producer = decode_pdf_string(values["/Producer"])
            if "/Creator" in values:
                info_creator = decode_pdf_string(values["/Creator"])
        elif obj.is_metadata:
            xmp = data[obj.start : obj.end]
            producer = _xmp_field(xmp, (b"pdf:Producer",))
            creator = _xmp_field(xmp, (b"xmp:CreatorTool", b"xap:CreatorTool"))
            if producer is not None:
                declared.xmp_producer = producer
            if creator is not None:
                xmp_creator = creator
    # Info takes precedence; XMP fills gaps and disagreement stays visible
    # through the per-source fields.
    declared.producer = declared.info_producer or declared.xmp_producer or None
    declared.creator = info_creator or xmp_creator or None
    has_info = declared.info_producer is not None or info_creator is not None
    has_xmp = declared.xmp_producer is not None or xmp_creator is not None
    if has_info and has_xmp:
        declared.source = MetadataSource.BOTH
    elif has_info:
        declared.source = MetadataSource.INFO
    elif has_xmp:
        declared.source = MetadataSource.XMP
    return declared


# -- Normalization -------------------------------------------------------------

# Case-insensitive substring tests, first hit wins.  Version suffixes are
# deliberately ignored: consistency is judged at tool granularity.
_SUBSTRING_MAP: tuple[tuple[tuple[str, ...], Producer], ...] = (
    (("ghostscript",), Producer.GHOSTSCRIPT),
    (("microsoft", "word"), Producer.MICROSOFT_OFFICE_WORD),
    (("libreoffice",), Producer.LIBREOFFICE),
    (("skia/pdf",), Producer.SKIA_PDF),
    (("acrobat distiller",), Producer.ACROBAT_DISTILLER),
    (("xdvipdfm",), Producer.XDVIPDFMX),
    (("pdflatex",), Producer.PDFLATEX),
    (("luatex",), Producer.LUATEX),
    (("pdftex",), Producer.PDFTEX),
    (("cairo",), Producer.CAIRO),
    (("quartz",), Producer.MACOS_QUARTZ),
)


def normalize_producer_string(value: str | None) -> str | None:
    """Map a declared producer string to a canonical tool name, if any."""
    if not value:
        return None
    lowered = value.lower()
    for needles, producer in _SUBSTRING_MAP:
        if all(needle in lowered for needle in needles):
            return producer.value
    return None


# -- Consistency ---------------------------------------------------------------


def consistency_status(declared: DeclaredMetadata, detected: Verdict) -> tuple[ConsistencyStatus, str | None]:
    normalized = normalize_producer_string(declared.producer) or normalize_producer_string(
        declared.xmp_producer
    )
    if detected.kind is not VerdictKind.PRODUCER or normalized is None:
        return ConsistencyStatus.UNVERIFIABLE, normalized
    if normalized == detected.producer:
        return ConsistencyStatus.CONSISTENT, normalized
    # A declared tool that some section voted for was only outvoted: the
    # style evidence does not contradict it.
    if normalized in detected.votes:
        return ConsistencyStatus.UNVERIFIABLE, normalized
    return ConsistencyStatus.INCONSISTENT, normalized
