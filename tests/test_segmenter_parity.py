"""Segmenter output pinned by one digest per family of seeded inputs.

Each family is a deterministic list of inputs.  Its digest is the sha256 of
``repr(dataclasses.asdict(segment(x)))`` over the whole list, so any change
in what ``segment()`` returns for any of its inputs changes the digest.  The
render leaves out the input that ``PdfSections.data`` holds, gives each
object the bytes of its span, in the field position its old ``raw`` copy
had, and writes each element's offsets as the ``span`` (and an object's
``dict_span`` and ``payload``) of the old ``Span`` records, so the digests
read the same as when elements held those.  A
segmenter refactor meant to keep its output shows that it did here, in the
tier-1 run.  A change meant to alter the output updates the digest of each
family it moves and says in CHANGES.md why, and on how many inputs.

Families:

- ``fixtures``: fixture seeds 1-59 for each of the 11 producer profiles.
- ``token-soups``: object and trailer dictionaries of random tokens,
  among them the shapes a dictionary lexer can get wrong (keys that run
  into a keyword or a number, comments between entries, nested and
  escaped strings, unclosed strings, hex strings and arrays).
- ``mutants``: fixtures with one edit beside a ``<<``, ``>>``, ``[`` or
  ``]``.
- ``nesting-floor``: dictionaries and arrays nested 58-71 deep around
  flat and nested values, on both sides of the nesting floor.

Run this file as a script (``PYTHONPATH=src:tests python
tests/test_segmenter_parity.py``) to print each family's current digest.
With ``--per-input`` it prints a ``family index sha1`` line for each input
instead, so that a ``diff`` of two trees' outputs lists the inputs that
moved.
"""

from __future__ import annotations

import hashlib
import random
import re
import sys
from collections.abc import Iterator
from dataclasses import asdict

import pytest

from pdfprov.errors import NotAPdf
from pdfprov.fixtures import PROFILES, generate
from pdfprov.segmenter import segment

_HEADER = b"%PDF-1.4\n"
_TAIL = b"2 0 obj\n<</Type/Catalog>>\nendobj\ntrailer\n<</Root 2 0 R/Size 3>>\n"

# Tokens of the soups and of the mutants' insertions.
TOKENS = [
    b"/A", b"/Type", b"/Kids", b"/W", b"/Coun", b"/Wnull(", b"/Coun1>>", b"/My#20Name",
    b" ", b"  ", b"\n", b"\r\n", b"%/A 1\n", b"%", b"1", b"-1.5", b"+3", b"12 0 R",
    b"0", b"R", b"true", b"false", b"null", b"nullx", b"(a)", b"(a(b)c)", b"(a\\)b)",
    b"(", b")", b"\\", b"<48 65>", b"<4F", b"<", b">", b"<<", b">>", b"[", b"]",
    b"[1 2]", b"[/A (x) <4F> 3 0 R]", b"{", b"}", b"x", b"obj", b"endobj", b"stream\n",
    b"1 0 obj", b"trailer", b"xref",
]


def _fixtures() -> Iterator[bytes]:
    for seed in range(1, 60):
        for profile in PROFILES.values():
            yield generate(profile, seed)


def _token_soups(count: int = 3000) -> Iterator[bytes]:
    rng = random.Random(5101)
    for k in range(count):
        body = b"".join(rng.choice(TOKENS) for _ in range(rng.randrange(1, 40)))
        if k % 3 == 0:
            yield _HEADER + b"1 0 obj\n<<" + body + b">>\nendobj\n" + _TAIL
        elif k % 3 == 1:
            yield _HEADER + b"trailer\n<<" + body + b">>\nstartxref\n9\n%%EOF\n"
        else:
            yield _HEADER + b"1 0 obj\n<<" + body + b"\n" + _TAIL + b"trailer\n<<" + body


def _mutants(count: int = 3000) -> Iterator[bytes]:
    rng = random.Random(5102)
    bases = [generate(profile, seed) for seed in (1, 2) for profile in PROFILES.values()]
    for _ in range(count):
        data = rng.choice(bases)
        sites = [m.start() for m in re.finditer(rb"<<|>>|\[|\]", data)]
        p = rng.choice(sites) + rng.randrange(-1, 3)
        edit = rng.randrange(3)
        if edit == 0:
            yield data[:p] + data[p + rng.randrange(1, 3):]
        elif edit == 1:
            yield data[:p] + rng.choice(TOKENS) + data[p:]
        else:
            yield data[:p] + bytes([rng.choice(b"<>[]()/% \n{")]) + data[p + 1:]


def _nesting_floor() -> Iterator[bytes]:
    inners = [b"/K [1 2]", b"/K [1 (a) /N <4F>]", b"/K (s)", b"/K 1 0 R", b"/K [1 {]",
              b"/K [[1]]", b"/K <</L 1>>", b"/K [1"]
    for depth in range(58, 72):
        for inner in inners:
            nested = b"/D <<" * depth + inner + b">>" * depth
            yield _HEADER + b"1 0 obj\n<<" + nested + b">>\nendobj\n" + _TAIL
            yield _HEADER + b"trailer\n<<" + nested + b">>\n" + _TAIL
            yield (_HEADER + b"1 0 obj\n<</D " + b"[" * depth + inner[3:] + b"]" * depth
                   + b">>\nendobj\n" + _TAIL)


FAMILIES = {
    "fixtures": _fixtures,
    "token-soups": _token_soups,
    "mutants": _mutants,
    "nesting-floor": _nesting_floor,
}

# sha256 of each family's segment() output.
DIGESTS = {
    "fixtures": "4689b619f3752bad09c4764c8e6575a3dde7f99dac35ac2d7e5f2d01032bd361",
    "token-soups": "bed8002de1c6b6f8f14f2cdda2d4385050c4ca2cbd5ca03e238f062c3a543887",
    "mutants": "2cc704b531e20a5ed9e30799c7795fa949fffd71b1f56d6d4bea0c539d578138",
    "nesting-floor": "e29a2a7738a04e10a34f38b90c87103c18b710a31aede5ecc64b4776fb3127ae",
}


def _span(start: int | None, end: int | None) -> dict | None:
    return None if start is None else {"offset": start, "length": end - start}


def _render(sections) -> dict:
    """``asdict(sections)`` without ``data``, each element with its offsets
    as the ``span`` dict of the old ``Span`` record (``dict_span`` and
    ``payload`` too for an object) and with the bytes of its span as
    ``raw`` (after an object's numbers): the fields and positions of the
    records that the digests were taken from."""
    out = asdict(sections)
    data = out.pop("data")
    out["objects"] = [
        {"obj_num": o.obj_num, "gen_num": o.gen_num, "raw": data[o.start : o.end],
         "is_metadata": o.is_metadata, "span": _span(o.start, o.end),
         "dict_span": _span(o.dict_start, o.dict_end), "payload": _span(o.payload_start, o.payload_end)}
        for o in sections.objects
    ]
    out["xref_tables"] = [{"raw": data[t.start : t.end], "span": _span(t.start, t.end)}
                          for t in sections.xref_tables]
    out["trailers"] = [{"raw": data[t.start : t.end], "span": _span(t.start, t.end),
                        "values": t.values} for t in sections.trailers]
    return out


def _outputs(inputs: Iterator[bytes]) -> Iterator[bytes]:
    """The rendered ``segment()`` output of each input, one line each."""
    for data in inputs:
        try:
            out = repr(_render(segment(data)))
        except NotAPdf as exc:
            out = f"NotAPdf: {exc}"
        yield out.encode("utf-8") + b"\n"


def family_digest(inputs: Iterator[bytes]) -> str:
    digest = hashlib.sha256()
    for out in _outputs(inputs):
        digest.update(out)
    return digest.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_segment_output_matches_its_digest(family):
    assert family_digest(FAMILIES[family]()) == DIGESTS[family]


if __name__ == "__main__":
    if sys.argv[1:] == ["--per-input"]:
        for name, family in FAMILIES.items():
            for index, out in enumerate(_outputs(family())):
                print(name, index, hashlib.sha1(out).hexdigest())
    else:
        for name, family in FAMILIES.items():
            print(f"{name}: {family_digest(family())}")
