"""Fixture generator: published facts per profile, determinism, validity."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import replace

from pdfprov.detector import VerdictKind, detect
from pdfprov.fixtures import PROFILES, emit_corpus, generate
from pdfprov.producers import Producer
from pdfprov.segmenter import segment


def test_distiller_profile_facts():
    data = generate(PROFILES[Producer.ACROBAT_DISTILLER], 1)
    sections = segment(data)
    assert sections.binary_comment == b"\xE2\xE3\xCF\xD3"
    assert sections.xref_tables == []


def test_word_profile_double_trailer():
    data = generate(PROFILES[Producer.MICROSOFT_OFFICE_WORD], 1)
    assert data.count(b"trailer\r\n") == 2
    sections = segment(data)
    classic = [t for t in sections.trailers if data.startswith(b"trailer", t.start)]
    assert len(classic) == 2
    assert "/Prev" in classic[1].values and "/XRefStm" in classic[1].values


def test_libreoffice_trailer_ends_with_doc_checksum():
    data = generate(PROFILES[Producer.LIBREOFFICE], 1)
    (trailer,) = segment(data).trailers
    assert list(trailer.values)[-1] == "/DocChecksum"


def test_generation_is_deterministic():
    for producer, profile in PROFILES.items():
        assert generate(profile, 5) == generate(profile, 5)
    assert generate(PROFILES[Producer.CAIRO], 1) != generate(PROFILES[Producer.CAIRO], 2)


def test_seed_varies_stream_length_and_id():
    a = segment(generate(PROFILES[Producer.GHOSTSCRIPT], 1))
    b = segment(generate(PROFILES[Producer.GHOSTSCRIPT], 2))
    stream_a = next(o for o in a.objects if b"endstream" in a.data[o.start : o.end])
    stream_b = next(o for o in b.objects if b"endstream" in b.data[o.start : o.end])
    assert stream_a.end - stream_a.start != stream_b.end - stream_b.start
    assert a.trailers[0].values["/ID"] != b.trailers[0].values["/ID"]


def test_all_fixtures_segment_cleanly(corpus_bytes):
    for blobs in corpus_bytes.values():
        for data in blobs:
            sections = segment(data)
            assert sections.diagnostics == []
            assert len(sections.objects) >= 4
            assert any(b"endstream" in data[o.start : o.end] for o in sections.objects)
            assert any(o.is_metadata for o in sections.objects)
            assert sections.trailers


def test_self_detection_across_seeds(corpus_bytes, pack):
    for producer, blobs in corpus_bytes.items():
        for data in blobs:
            verdict = detect(pack, segment(data))
            assert verdict.kind is VerdictKind.PRODUCER
            assert verdict.producer == producer.value


def test_emit_corpus_layout(tmp_path):
    manifest = emit_corpus(tmp_path, seeds=range(1, 3))
    rows = [line.split("\t") for line in manifest.read_text().splitlines()]
    assert [row[1] for row in rows] == [p.value for p in Producer for _ in (1, 2)]
    for (path, *_), (producer, seed) in zip(rows, itertools.product(Producer, (1, 2))):
        assert (tmp_path / path).read_bytes() == generate(PROFILES[producer], seed)


# The Info strings the tests give profiles with ``replace``, and one
# creator_string that needs escaping.
_OVERRIDES = [
    (Producer.GHOSTSCRIPT, {"producer_string": "LibreOffice 6.1"}),
    (Producer.GHOSTSCRIPT, {"producer_string": ""}),
    (Producer.GHOSTSCRIPT, {"producer_string": "Acme Converter 2.0"}),
    (Producer.GHOSTSCRIPT, {"producer_string": "GPL Ghostscript 9.26"}),
    (Producer.GHOSTSCRIPT, {"producer_string": "VeryPDF"}),
    (Producer.GHOSTSCRIPT, {"producer_string": "mystery tool"}),
    (Producer.GHOSTSCRIPT, {"producer_string": "NotGhostscript 1.0"}),
    (Producer.LIBREOFFICE, {"producer_string": "LibreOffice 6.1"}),
    (Producer.CAIRO, {"creator_string": "back\\slash"}),
]


def test_every_fixture_byte_is_pinned():
    """One digest over every profile at seeds 1-60 and every override: a
    change to any fixture byte, even one that keeps every offset, fails it."""
    digest = hashlib.sha256()
    for profile in PROFILES.values():
        for seed in range(1, 61):
            digest.update(generate(profile, seed))
    for producer, overrides in _OVERRIDES:
        for seed in (1, 2, 3):
            digest.update(generate(replace(PROFILES[producer], **overrides), seed))
    assert digest.hexdigest() == (
        "f153470dabebe2bf96ab5269e6021917a354c29a0e6cab7c53b23142afeebbba")
