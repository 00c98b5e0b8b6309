"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload name, the seed and the size
parameters: the same arguments give byte-identical files.  Files are built
from the program's own fixture profiles (``pdfprov.fixtures``), so each one
carries the label of the profile that produced it; the label is the
generator's, never the detector's.

The seed only picks fixture seeds and payload bytes.  Profiles, object
counts and size steps are the same for every seed, so that runs with
different seeds do the same amount of work.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from pdfprov.fixtures import PROFILES, generate
from pdfprov.producers import Producer


@dataclass(frozen=True)
class Doc:
    """One input file: where it goes in the on-disk corpus and its label."""

    name: str
    data: bytes
    label: str
    family: str = ""  # scaling family this file belongs to, if any
    step: int = 0  # size step within the family: 1 is n, 2 is 2n


@dataclass
class Inputs:
    """What one workload run scans, batches and mines."""

    scan: list[Doc]
    mine: list[Doc]
    # Whether the closed loop and batch scan with the pack mined from
    # ``mine`` instead of the builtin pack.
    scan_with_mined_pack: bool = False

    def scaling_pairs(self) -> dict[str, tuple[str, str]]:
        """family -> (name of its n-size file, name of its 2n-size file)."""
        pairs: dict[str, dict[int, str]] = {}
        for doc in self.scan:
            if doc.family and doc.step in (1, 2):
                pairs.setdefault(doc.family, {})[doc.step] = doc.name
        return {f: (s[1], s[2]) for f, s in sorted(pairs.items()) if 1 in s and 2 in s}


# -- Growing a fixture --------------------------------------------------------

# Payload bytes never contain ASCII letters, so no keyword (obj, endobj,
# xref, trailer, stream) can appear inside a stream by chance.
_NO_LETTERS = bytes.maketrans(
    bytes(range(0x41, 0x5B)) + bytes(range(0x61, 0x7B)),
    bytes(range(0x80, 0x9A)) + bytes(range(0xA0, 0xBA)),
)
_OBJ_HEADER_RE = re.compile(rb"(?m)^(\d+) 0 obj")
_LENGTH_RE = re.compile(rb"/Length (\d+)")
_TABLE_RE = re.compile(rb"xref(\r\n|\n)0 (\d+)(\r\n|\n)0000000000 65535 f( \r\n| \n|\r\n)")


def _eol(fixture: bytes) -> bytes:
    return b"\r\n" if fixture[8:10] == b"\r\n" else b"\n"


def _object_bounds(data: bytes, num: int) -> tuple[int, int]:
    """Start of object ``num`` and the end of its ``endobj`` line."""
    start = data.index(b"%d 0 obj" % num)
    end = data.index(b"endobj", start) + len(b"endobj")
    if data.startswith(b"\r\n", end):
        return start, end + 2
    return start, end + 1


def _stream_maker(fixture: bytes):
    """A function (num, payload) -> object bytes in the style of object 4.

    Object 4 is every fixture's content stream, written in its producer's
    body style, so the new objects keep that style.
    """
    start, end = _object_bounds(fixture, 4)
    obj = fixture[start:end]
    eol = _eol(fixture)
    data_start = obj.index(b"stream" + eol) + len(b"stream" + eol)
    data_end = obj.rindex(eol + b"endstream")
    head = obj[len(b"4 0 obj"):data_start]
    tail = obj[data_end:]
    length = _LENGTH_RE.search(head)
    before, after = head[: length.start(1)], head[length.end(1):]

    def make(num: int, payload: bytes) -> bytes:
        return b"%d 0 obj" % num + before + b"%d" % len(payload) + after + payload + tail

    return make


def payload(rnd: random.Random, length: int) -> bytes:
    return rnd.randbytes(length).translate(_NO_LETTERS)


def xmp_object(num: int, eol: bytes, producer: str, creator: str) -> bytes:
    packet = (
        '<?xpacket begin="" id="W5M0MpCehiHzreSzNTczkc9d"?>\n'
        '<x:xmpmeta xmlns:x="adobe:ns:meta/"><rdf:RDF'
        ' xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">\n'
        '<rdf:Description rdf:about="" xmlns:pdf="http://ns.adobe.com/pdf/1.3/"'
        ' xmlns:xmp="http://ns.adobe.com/xap/1.0/">\n'
        f"<pdf:Producer>{producer}</pdf:Producer>\n"
        f"<xmp:CreatorTool>{creator}</xmp:CreatorTool>\n"
        "</rdf:Description></rdf:RDF></x:xmpmeta>\n"
        '<?xpacket end="w"?>'
    ).encode("utf-8")
    return (b"%d 0 obj" % num + eol + b"<</Type/Metadata/Subtype/XML/Length %d>>" % len(packet)
            + eol + b"stream" + eol + packet + eol + b"endstream" + eol + b"endobj" + eol)


def grow(fixture: bytes, objects: list[bytes]) -> bytes:
    """Insert ``objects`` after the Info object (5) and re-index the file.

    A classic cross-reference table is rewritten to list every object at
    its real offset, as a producer would write it.  The trailer is left as
    the fixture wrote it: its /Size is part of the producer's signature.
    """
    _, cut = _object_bounds(fixture, 5)
    data = fixture[:cut] + b"".join(objects) + fixture[cut:]
    headers = [(int(m.group(1)), m.start()) for m in _OBJ_HEADER_RE.finditer(data)]
    size = max(num for num, _ in headers) + 1
    table = _TABLE_RE.search(data)
    if table:
        eol, entry_eol = table.group(1), table.group(4)
        offsets = dict(headers)
        # The fixture's table runs to the trailer keyword that follows it.
        table_end = data.index(b"trailer", table.start())
        rows = [b"xref" + eol + b"0 %d" % size + eol + b"0000000000 65535 f" + entry_eol]
        rows += [b"%010d 00000 n" % offsets.get(num, 0) + entry_eol for num in range(1, size)]
        data = data[: table.start()] + b"".join(rows) + data[table_end:]
    return data


# -- Workloads ----------------------------------------------------------------


def fixture_seed(seed: int, k: int) -> int:
    """The k-th fixture seed (k < 48) of a workload seed.

    A fixture's content stream is 64 + 2 * (fixture seed mod 48) bytes
    long.  Fixing the residue at k + 1 gives every workload seed the same
    stream lengths, and so the same amount of work.
    """
    return 48 * seed + k + 1


def fixture_corpus(seed: int, per_profile: int = 20) -> Inputs:
    """The program's own fixtures, 11 profiles x ``per_profile`` seeds.

    Each profile's first fixture also gets a 2n twin with twice the object
    count and about twice the bytes, for the scaling ratio.
    """
    scan: list[Doc] = []
    for producer in Producer:
        profile = PROFILES[producer]
        slug = producer.value.lower()
        for i in range(per_profile):
            fseed = fixture_seed(seed, i)
            scan.append(Doc(f"{slug}/{slug}-{fseed:05d}.pdf", generate(profile, fseed),
                            producer.value, family=slug if i == 0 else "", step=1 if i == 0 else 0))
    for doc in [d for d in scan if d.step == 1]:
        scan.append(Doc(doc.name.replace(".pdf", "-2n.pdf"), doubled(doc.data, seed),
                        doc.label, family=doc.family, step=2))
    return Inputs(scan=scan, mine=[d for d in scan if d.step != 2])


def doubled(fixture: bytes, seed: int) -> bytes:
    """The fixture with as many objects again and about twice the bytes."""
    make = _stream_maker(fixture)
    numbers = [int(num) for num in _OBJ_HEADER_RE.findall(fixture)]
    count, first = len(numbers), max(numbers) + 1
    rnd = random.Random(seed)
    overhead = len(make(first, b""))
    per_object = max(1, (len(fixture) - count * overhead) // count)
    return grow(fixture, [make(first + k, payload(rnd, per_object)) for k in range(count)])


# Large-synthetic uses one classic-xref and one xref-stream profile, each in
# a body style that a builtin body rule matches, so every object is matched.
LARGE_PROFILES = (Producer.LUATEX, Producer.PDFTEX)


def many_object_file(producer: Producer, seed: int, objects: int,
                     payload_range: tuple[int, int]) -> bytes:
    """A fixture grown to ``objects`` extra stream objects plus an XMP packet.

    Payloads for object k depend only on (producer, seed, k), so a file
    with 2n objects starts with the n objects of the smaller file.
    """
    profile = PROFILES[producer]
    fixture = generate(profile, seed)
    make = _stream_maker(fixture)
    eol = _eol(fixture)
    first = 8  # objects 1-6 are the fixture's, 7 is the XMP packet
    grown = [xmp_object(7, eol, profile.producer_string, profile.creator_string)]
    lo, hi = payload_range
    for k in range(objects):
        rnd = random.Random(f"{producer.value}:{seed}:{k}")
        grown.append(make(first + k, payload(rnd, rnd.randrange(lo, hi))))
    return grow(fixture, grown)


def large_synthetic(seed: int, objects: int = 400, steps: int = 4,
                    payload_range: tuple[int, int] = (512, 4096)) -> Inputs:
    """Two profiles at ``steps`` sizes from n to 2n objects (~1 to ~2 MB).

    Sizes are spread evenly between n and 2n, so scan latencies form a
    spread rather than two clusters and their percentiles are steady.
    """
    scan: list[Doc] = []
    for producer in LARGE_PROFILES:
        slug = producer.value.lower()
        for s in range(steps):
            count = objects + objects * s // (steps - 1)
            step = 1 if s == 0 else 2 if s == steps - 1 else 0
            scan.append(Doc(f"{slug}-{count}.pdf",
                            many_object_file(producer, fixture_seed(seed, 0), count,
                                             payload_range),
                            producer.value, family=slug, step=step))
    mine = [
        Doc(f"mine/{p.value.lower()}-{k}.pdf",
            many_object_file(p, fixture_seed(seed, k), 12, (32, 160)), p.value)
        for p in LARGE_PROFILES for k in range(6)
    ]
    return Inputs(scan=scan, mine=mine)


# The two quadratic families of the segmenter: objects that never close
# with ``endobj``, and one ``xref``/``trailer`` keyword inside every object.
ADVERSARIAL_FAMILIES = {
    "no-endobj": Producer.GHOSTSCRIPT,
    "keyword-per-object": Producer.PDFTEX,
}


def adversarial_file(family: str, seed: int, objects: int) -> bytes:
    producer = ADVERSARIAL_FAMILIES[family]
    fixture = generate(PROFILES[producer], seed)
    eol = _eol(fixture)
    rnd = random.Random(f"{family}:{seed}")
    grown = []
    for k in range(objects):
        num = 7 + k
        rect = b"[%d %d %d %d]" % tuple(rnd.randrange(0, 600) for _ in range(4))
        if family == "no-endobj":
            grown.append(b"%d 0 obj" % num + eol + b"<</Type/Annot/Subtype/Square/Rect"
                         + rect + b">>" + eol)
        else:
            word = b"xref" if k % 2 else b"trailer"
            grown.append(b"%d 0 obj" % num + eol + b"<</Type/Annot/Subtype/Text/Rect" + rect
                         + b"/Contents (see " + word + b")>>" + eol + b"endobj" + eol)
    # One closed object after the family keeps the xref table and trailer
    # outside every object, so the pathology costs time but not the verdict.
    num = 7 + objects
    grown.append(b"%d 0 obj" % num + eol + b"<</Type/Annot/Subtype/Link>>" + eol + b"endobj" + eol)
    return grow(fixture, grown)


def adversarial_scaling(seed: int, objects: dict[str, int] | None = None,
                        steps: int = 8, mine_objects: int = 8) -> Inputs:
    """Both quadratic families at ``steps`` sizes from n to 2n objects."""
    objects = objects or {"no-endobj": 700, "keyword-per-object": 500}
    scan: list[Doc] = []
    for family, producer in ADVERSARIAL_FAMILIES.items():
        n = objects[family]
        for s in range(steps):
            count = n + n * s // (steps - 1)
            step = 1 if s == 0 else 2 if s == steps - 1 else 0
            scan.append(Doc(f"{family}-{count}.pdf",
                            adversarial_file(family, fixture_seed(seed, 0), count),
                            producer.value, family=family, step=step))
    mine = [
        Doc(f"mine/{family}-{k}.pdf",
            adversarial_file(family, fixture_seed(seed, k), mine_objects), producer.value)
        for family, producer in ADVERSARIAL_FAMILIES.items() for k in range(4)
    ]
    return Inputs(scan=scan, mine=mine)


def mine_corpus(seed: int, per_profile: int = 30) -> Inputs:
    """A labeled fixture corpus to mine; the mined pack then scans it."""
    inputs = fixture_corpus(seed + 7919, per_profile)
    return Inputs(scan=inputs.scan, mine=inputs.mine, scan_with_mined_pack=True)


WORKLOADS = {
    "fixture-corpus": fixture_corpus,
    "large-synthetic": large_synthetic,
    "adversarial-scaling": adversarial_scaling,
    "mine-corpus": mine_corpus,
}
