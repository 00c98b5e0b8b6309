"""Deterministic, minimal PDF fixtures exhibiting each producer's style.

One profile per producer tool holds its published habits as bytes: the
binary header comment and three templates.  ``content`` is object 4, the
content stream (``NEUTRAL_CONTENT`` where the layout was never published:
those producers are told apart by header/xref/trailer signals alone).
``xref_stream`` is the dictionary of the xref-stream object 6, or None.
``trailer`` is what follows the classic xref table up to the last
``startxref``, or None; a classic table is written exactly when there is a
trailer.  A producer's variant is ``dataclasses.replace`` with other templates.

Fixtures are skeletal on purpose: a catalog, one page, one uncompressed
content stream and an Info dictionary.  All published signals live in
this skeleton; page content would only add noise.  ``generate`` is a pure
function of (profile, seed, strings): outputs are byte-identical across
runs, with the seed varying stream lengths and /ID values only.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

from .producers import Distro, OpSys, Producer, manifest_line

# Object 4 of the producers whose stream layout was never published.
NEUTRAL_CONTENT = b"4 0 obj\n<</Length {length}>>\nstream\n{content}\nendstream\nendobj\n"


@dataclass(frozen=True)
class ProducerProfile:
    """Everything needed to render one producer's fixture.

    ``generate`` fills each template's ``{name}`` fields with one pass and
    writes the common ``startxref``/``%%EOF`` tail.  ``content`` (fields
    ``length``, ``content``) is object 4.  ``xref_stream`` (``length``,
    ``size``, ``id``) is object 6's dictionary.  ``trailer`` (``size``,
    ``id``, ``xref``, ``xrefstm``) follows the classic table, which is
    written exactly when there is a trailer.  No template holds another brace.
    """

    producer: Producer
    header_magic: bytes
    pdf_version: bytes
    eol: bytes
    content: bytes
    trailer: bytes | None
    xref_stream: bytes | None = None
    os_label: str = ""
    distro_label: str = ""
    producer_string: str = ""
    creator_string: str = "Writer"


PROFILES: dict[Producer, ProducerProfile] = {
    Producer.ACROBAT_DISTILLER: ProducerProfile(
        Producer.ACROBAT_DISTILLER, bytes.fromhex("E2E3CFD3"), b"1.5", b"\n",
        NEUTRAL_CONTENT,
        xref_stream=b"<</DecodeParms<</Columns 5/Predictor 12>>/Filter/FlateDecode"
                    b"/ID[<{id}><{id}>]/Info 5 0 R/Length {length}/Root 1 0 R/Size {size}"
                    b"/Type/XRef/W[1 2 1]>>",
        trailer=None,
        producer_string="Acrobat Distiller 19.0 (Windows)",
        creator_string="PScript5.dll Version 5.2.2",
    ),
    Producer.MICROSOFT_OFFICE_WORD: ProducerProfile(
        Producer.MICROSOFT_OFFICE_WORD, bytes.fromhex("B5B5B5B5"), b"1.7", b"\r\n",
        b"4 0 obj\r\n<</Filter/FlateDecode/Length {length}>>\r\nstream\r\n{content}"
        b"\r\nendstream\r\nendobj\r\n",
        xref_stream=b"<</Type/XRef/Size {size}/W[1 2 1]/Root 1 0 R/Info 5 0 R"
                    b"/ID[<{id}><{id}>]/Length {length}>>",
        # A plain trailer, then an empty xref section and a second trailer
        # that points back at the table and at the xref stream.
        trailer=b"trailer\r\n<</Size {size}/Root 1 0 R/Info 5 0 R/ID[<{id}><{id}>] >>\r\n"
                b"startxref\r\n{xref}\r\nxref\r\n0 0\r\n"
                b"trailer\r\n<</Size {size}/Root 1 0 R/Info 5 0 R/ID[<{id}><{id}>]"
                b" /Prev {xref}/XRefStm {xrefstm}>>\r\n",
        os_label=OpSys.WINDOWS.value,
        producer_string="Microsoft® Word 2016",
        creator_string="Microsoft® Word 2016",
    ),
    Producer.LIBREOFFICE: ProducerProfile(
        Producer.LIBREOFFICE, bytes.fromhex("C3A4C3BCC3B6C39F"), b"1.4", b"\n",
        NEUTRAL_CONTENT,
        # The checksum is a hex name token; it is not a style signal that
        # varies per file, so fixtures keep it constant.
        trailer=b"trailer\n<</Size {size}/Root 1 0 R\n/Info 5 0 R\n/ID [ <{id}>\n<{id}> ]\n"
                b"/DocChecksum /7C2B6DC7F4AF6CC658C0703D8002E3D4\n>>\n",
        os_label=OpSys.LINUX.value,
        producer_string="LibreOffice 6.4",
        creator_string="Writer",
    ),
    Producer.GHOSTSCRIPT: ProducerProfile(
        Producer.GHOSTSCRIPT, bytes.fromhex("C7EC8FA2"), b"1.4", b"\n",
        NEUTRAL_CONTENT,
        trailer=b"trailer\n<</Size {size} /Root 1 0 R /Info 5 0 R /ID [<{id}><{id}>]>>\n",
        producer_string="GPL Ghostscript 9.26",
        creator_string="dvips",
    ),
    Producer.MACOS_QUARTZ: ProducerProfile(
        Producer.MACOS_QUARTZ, bytes.fromhex("C4E5F2E5EBA7F3A0D0C4C6"), b"1.4", b"\n",
        NEUTRAL_CONTENT,
        trailer=b"trailer\n<< /Size {size} /Root 1 0 R /Info 5 0 R /ID [ <{id}>\n<{id}> ] >>\n",
        os_label=OpSys.MACOS.value,
        producer_string="Mac OS X 10.15.7 Quartz PDFContext",
        creator_string="Pages",
    ),
    Producer.PDFTEX: ProducerProfile(
        Producer.PDFTEX, bytes.fromhex("D0D4C5D8"), b"1.5", b"\n",
        b"4 0 obj\n<</Length {length}      /Filter/FlateDecode>>\nstream\n{content}"
        b"\nendstream\nendobj\n",
        xref_stream=b"<</Type /XRef /Index [0 {size}] /Size {size} /W [1 2 1] /Root 1 0 R"
                    b" /Info 5 0 R /ID [<{id}> <{id}>] /Length {length} /Filter /FlateDecode>>",
        trailer=None,
        distro_label=Distro.TEXLIVE.value,
        producer_string="pdfTeX-1.40.21",
        creator_string="TeX",
    ),
    Producer.SKIA_PDF: ProducerProfile(
        Producer.SKIA_PDF, bytes.fromhex("D3EBE9E1"), b"1.4", b"\n",
        NEUTRAL_CONTENT,
        trailer=b"trailer\n<</Size {size}/Root 1 0 R/Info 5 0 R>>\n",
        producer_string="Skia/PDF m85",
        creator_string="Chromium",
    ),
    Producer.CAIRO: ProducerProfile(
        Producer.CAIRO, bytes.fromhex("B5EDAEFB"), b"1.4", b"\n",
        NEUTRAL_CONTENT,
        trailer=b"trailer\n<< /Size {size}\n   /Root 1 0 R\n   /Info 5 0 R\n>>\n",
        producer_string="cairo 1.16.0 (https://cairographics.org)",
        creator_string="cairo 1.16.0 (https://cairographics.org)",
    ),
    Producer.XDVIPDFMX: ProducerProfile(
        Producer.XDVIPDFMX, bytes.fromhex("E4F0EDF8"), b"1.5", b"\n",
        NEUTRAL_CONTENT,
        xref_stream=b"<</Type /XRef /Root 1 0 R /Info 5 0 R /ID [<{id}> <{id}>] /Size {size}"
                    b" /W [1 2 1] /Filter /FlateDecode /Length {length}>>",
        trailer=None,
        producer_string="xdvipdfmx (20200315)",
        creator_string="LaTeX with hyperref",
    ),
    Producer.LUATEX: ProducerProfile(
        Producer.LUATEX, bytes.fromhex("CCD5C1D4C5D8D0C4C6"), b"1.4", b"\n",
        b"4 0 obj\n<<\n/Length {length}      \n/Filter /FlateDecode\n>>\nstream\n{content}"
        b"\nendstream\nendobj\n",
        trailer=b"trailer\n<< /Size {size}\n/Root 1 0 R\n/Info 5 0 R\n/ID [<{id}> <{id}>]\n>>\n",
        os_label=OpSys.WINDOWS.value, distro_label=Distro.MIKTEX.value,
        producer_string="LuaTeX-1.10.0",
        creator_string="LaTeX",
    ),
    Producer.PDFLATEX: ProducerProfile(
        Producer.PDFLATEX, bytes.fromhex("F6E4FCDF"), b"1.4", b"\n",
        NEUTRAL_CONTENT,
        trailer=b"trailer\n<</Root 1 0 R/info 5 0 R/ID[<{id}><{id}>]/Size {size}>>\n",
        producer_string="PDFLaTeX",
        creator_string="HAL",
    ),
}

_FIELD = re.compile(rb"\{(\w+)\}")


def _fill(template: bytes, **fields: bytes) -> bytes:
    """``template`` with each ``{name}`` replaced by ``fields[name]``."""
    return _FIELD.sub(lambda match: fields[match[1].decode()], template)


def _stream_content(rnd: random.Random, seed: int) -> bytes:
    # First byte is forced distinct per seed so that cross-seed common
    # substrings stop exactly at the stream keyword.
    length = 64 + 2 * (seed % 48)
    return bytes([0x41 + seed % 26]) + bytes(rnd.randrange(0x41, 0x5B) for _ in range(length - 1))


def generate(profile: ProducerProfile, seed: int,
             producer_string: str | None = None,
             creator_string: str | None = None) -> bytes:
    """Render one fixture PDF for ``profile``, deterministic in ``seed``."""
    rnd = random.Random(f"{profile.producer.value}:{seed}")
    e = profile.eol
    strings = (profile.producer_string if producer_string is None else producer_string,
               profile.creator_string if creator_string is None else creator_string)
    producer, creator = (text.encode("latin-1", "replace").replace(b"\\", b"\\\\")
                         for text in strings)
    content = _stream_content(rnd, seed)
    file_id = bytes(rnd.choice(b"0123456789ABCDEF") for _ in range(32))
    size = b"6" if profile.xref_stream is None else b"7"

    objects: list[bytes] = [
        b"1 0 obj" + e + b"<</Type/Catalog/Pages 2 0 R>>" + e + b"endobj" + e,
        b"2 0 obj" + e + b"<</Type/Pages/Kids[3 0 R]/Count 1>>" + e + b"endobj" + e,
        b"3 0 obj" + e + b"<</Type/Page/Parent 2 0 R/MediaBox[0 0 612 792]/Contents 4 0 R>>"
        + e + b"endobj" + e,
        _fill(profile.content, length=b"%d" % len(content), content=content),
        b"5 0 obj" + e + b"<</Producer (" + producer + b")/Creator (" + creator + b")>>"
        + e + b"endobj" + e,
    ]
    if profile.xref_stream is not None:
        payload = bytes([0x61 + seed % 26]) + bytes(rnd.randrange(0x61, 0x7B)
                                                   for _ in range(15 + seed % 9))
        dictionary = _fill(profile.xref_stream, length=b"%d" % len(payload), size=size, id=file_id)
        objects.append(b"6 0 obj" + e + dictionary + e + b"stream" + e + payload + e
                       + b"endstream" + e + b"endobj" + e)

    parts: list[bytes] = [b"%PDF-" + profile.pdf_version + e,
                          b"%" + profile.header_magic + e]
    offsets: list[int] = []
    pos = sum(len(p) for p in parts)
    for obj in objects:
        offsets.append(pos)
        parts.append(obj)
        pos += len(obj)

    if profile.trailer is None:
        # No classic table: the xref-stream object is the trailer.
        startxref = offsets[5]
    else:
        startxref = pos
        entry_eol = b"\r\n" if e == b"\r\n" else b" \n"
        parts.append(b"xref" + e + b"0 " + size + e + b"0000000000 65535 f" + entry_eol)
        parts.extend(b"%010d 00000 n" % off + entry_eol for off in offsets)
        # When there is an xref stream, it is the last object.
        parts.append(_fill(profile.trailer, size=size, id=file_id, xref=b"%d" % startxref,
                           xrefstm=b"%d" % offsets[-1]))
    parts.append(b"startxref" + e + b"%d" % startxref + e + b"%%EOF" + e)
    return b"".join(parts)


def emit_corpus(directory: str | Path, seeds: range = range(1, 11),
                producers: list[Producer] | None = None) -> Path:
    """Write the fixture corpus plus a tab-separated manifest.

    Returns the manifest path.  Layout: ``<dir>/<tool>/<tool>-<seed>.pdf``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines: list[str] = []
    for producer in producers or list(Producer):
        profile = PROFILES[producer]
        slug = producer.value.lower()
        (directory / slug).mkdir(exist_ok=True)
        for seed in seeds:
            relpath = f"{slug}/{slug}-{seed:03d}.pdf"
            (directory / relpath).write_bytes(generate(profile, seed))
            lines.append(manifest_line(relpath, profile.producer.value, profile.os_label,
                                       profile.distro_label))
    manifest = directory / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest
