"""Segmenter output pinned by one digest per family of seeded inputs.

Each family is a deterministic list of inputs.  Its digest is the sha256 of
``repr(dataclasses.asdict(segment(x)))`` over the whole list, so any change
in what ``segment()`` returns for any of its inputs changes the digest.  A
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
"""

from __future__ import annotations

import hashlib
import random
import re
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
    "fixtures": "ae6414bb648e5ad8a5c6f7b9045ab19825336c588d07cc027fadd83a8aad3a19",
    "token-soups": "7cb607dc8aa81641c6778f526ee6851ca87949eb737324ef40453ffa4086e9d3",
    "mutants": "cc98286e8bec5dc5b15ad01561768e6c8f50fb9f0551e6dcdec260419460f419",
    "nesting-floor": "c8f35fb4eecc44bd2b2e8cbe15a7023ecbfc223687d716e5fb33e3c7d9db1c95",
}


def family_digest(inputs: Iterator[bytes]) -> str:
    digest = hashlib.sha256()
    for data in inputs:
        try:
            out = repr(asdict(segment(data)))
        except NotAPdf as exc:
            out = f"NotAPdf: {exc}"
        digest.update(out.encode("utf-8") + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_segment_output_matches_its_digest(family):
    assert family_digest(FAMILIES[family]()) == DIGESTS[family]


if __name__ == "__main__":
    for name, family in FAMILIES.items():
        print(f"{name}: {family_digest(family())}")
