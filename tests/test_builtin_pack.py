"""Builtin pack: transcription fidelity and liveness of every rule.

``builtin.rules`` is the pack's only definition.  The transcribed facts
are pinned here in expected tables, and the groups of producers sharing a
signature are derived from the loaded pack's own rules.
"""

from __future__ import annotations

import re
from collections import Counter
from importlib import resources

from pdfprov.builtin_pack import builtin
from pdfprov.fixtures import PROFILES, generate
from pdfprov.producers import Producer
from pdfprov.rules import (
    RuleKind,
    SECTION_ORDER,
    SectionKind,
    match_section,
    render_rulepack,
)
from pdfprov.segmenter import segment

AD = Producer.ACROBAT_DISTILLER.value
W = Producer.MICROSOFT_OFFICE_WORD.value
LO = Producer.LIBREOFFICE.value
GS = Producer.GHOSTSCRIPT.value
Q = Producer.MACOS_QUARTZ.value
PT = Producer.PDFTEX.value
SK = Producer.SKIA_PDF.value
CA = Producer.CAIRO.value
XD = Producer.XDVIPDFMX.value
LT = Producer.LUATEX.value
PL = Producer.PDFLATEX.value

_NONE: frozenset[str] = frozenset()

# rule id -> (producer, magic bytes, os tags, distro tags).  Tag sets that
# cover every possibility are encoded as untagged (intersection semantics).
_HEADER_RULES = {
    "header-acrobat-distiller": (AD, "E2E3CFD3", _NONE, _NONE),
    "header-word": (W, "B5B5B5B5", {"windows"}, _NONE),
    "header-pdftex": (PT, "D0D4C5D8", _NONE, _NONE),
    "header-luatex-texlive-linux": (LT, "D0D4C5D8", {"linux"}, {"texlive"}),
    "header-luatex-miktex-linux": (LT, "CCD5C1D4C5D8D0C4C6", {"linux"}, {"miktex"}),
    "header-luatex-macos-windows": (LT, "CCD5C1D4C5D8D0C4C6", {"macos", "windows"}, _NONE),
    "header-xdvipdfmx": (XD, "E4F0EDF8", _NONE, _NONE),
    "header-ghostscript": (GS, "C7EC8FA2", _NONE, _NONE),
    "header-libreoffice": (LO, "C3A4C3BCC3B6C39F", {"linux"}, _NONE),
    "header-quartz": (Q, "C4E5F2E5EBA7F3A0D0C4C6", {"macos"}, _NONE),
    "header-cairo": (CA, "B5EDAEFB", _NONE, _NONE),
    "header-skia": (SK, "D3EBE9E1", _NONE, _NONE),
    "header-pdflatex": (PL, "F6E4FCDF", _NONE, _NONE),
}

_XS_TEX = ("/Type", "/XRef", "/Index", "/Size", "/W", "/Root", "/Info", "/ID",
           "/Length", "/Filter", "/FlateDecode")
_CLASSIC_4 = ("/Size", "/Root", "/Info", "/ID")

# rule id -> (producer, classic "trailer <<" form, key sequence, distro tags).
_KEYORDER_RULES = {
    "trailer-acrobat-distiller": (
        AD, False,
        ("/DecodeParms", "/Columns", "/Predictor", "/Filter", "/FlateDecode", "/ID",
         "/Info", "/Length", "/Root", "/Size", "/Type", "/XRef", "/W"),
        _NONE),
    "trailer-luatex-texlive": (LT, False, _XS_TEX, {"texlive"}),
    "trailer-pdftex-texlive": (PT, False, _XS_TEX, {"texlive"}),
    "trailer-luatex-miktex": (LT, True, _CLASSIC_4, {"miktex"}),
    "trailer-pdftex-miktex": (PT, True, _CLASSIC_4, {"miktex"}),
    "trailer-ghostscript": (GS, True, _CLASSIC_4, _NONE),
    "trailer-xdvipdfmx": (
        XD, False,
        ("/Type", "/XRef", "/Root", "/Info", "/ID", "/Size", "/W", "/Filter",
         "/FlateDecode", "/Length"),
        _NONE),
    "trailer-word": (W, True, ("/Size", "/Root", "/Info", "/ID", "/Prev", "/XRefStm"), _NONE),
    "trailer-libreoffice": (LO, True, ("/Size", "/Root", "/Info", "/ID", "/DocChecksum"), _NONE),
    "trailer-quartz": (Q, True, _CLASSIC_4, _NONE),
    "trailer-cairo": (CA, True, ("/Size", "/Root", "/Info"), _NONE),
    "trailer-skia": (SK, True, ("/Size", "/Root", "/Info"), _NONE),
    "trailer-pdflatex": (PL, True, ("/Root", "/Info", "/ID", "/Size"), _NONE),
}

# rule id -> (producer, section, kind, pattern, distro tags).
_OTHER_RULES = {
    "body-pdftex-stream": (
        PT, SectionKind.BODY, RuleKind.TEMPLATE,
        "obj\\n<</Length [0-9]+ +/Filter/FlateDecode>>\\nstream\\n", _NONE),
    "body-luatex-stream": (
        LT, SectionKind.BODY, RuleKind.TEMPLATE,
        "obj\\n<<\\n/Length [0-9]+ +\\n/Filter /FlateDecode\\n>>\\nstream\\n", _NONE),
    "body-word-stream": (
        W, SectionKind.BODY, RuleKind.TEMPLATE,
        "4 0 obj\\r\\n<</Filter/FlateDecode/Length [0-9]*>>\\r\\nstream\\r\\n", _NONE),
    "trailer-word-double": (
        W, SectionKind.TRAILER, RuleKind.TEMPLATE, "/Prev [0-9]+/XRefStm [0-9]+>>", _NONE),
    "xref-absent-acrobat-distiller": (AD, SectionKind.XREF, RuleKind.PRESENCE, "^A$", _NONE),
    "xref-absent-xdvipdfmx": (XD, SectionKind.XREF, RuleKind.PRESENCE, "^A$", _NONE),
    "xref-present-pdftex-miktex": (PT, SectionKind.XREF, RuleKind.PRESENCE, "^P$", {"miktex"}),
}


def _magic_bytes(pattern: str) -> bytes:
    """Decode the ``\\xNN`` escapes of a header magic pattern."""
    return bytes(int(h, 16) for h in re.findall(r"\\x([0-9A-Fa-f]{2})", pattern))


_KEY_TOKEN_RE = re.compile(r"/(?:\[Ii\]nfo|[A-Za-z][A-Za-z0-9]*)")


def _keyorder_keys(pattern: str) -> tuple[str, ...]:
    """The key sequence a keyorder pattern asserts."""
    return tuple(
        "/Info" if tok == "/[Ii]nfo" else tok for tok in _KEY_TOKEN_RE.findall(pattern)
    )


def _rules_of(kind: RuleKind):
    return [r for r in builtin().rules if r.kind is kind]


def _shipped_text() -> str:
    return resources.files("pdfprov").joinpath("builtin.rules").read_text("utf-8")


def test_pack_composition():
    pack = builtin()
    by_kind = {}
    for rule in pack.rules:
        by_kind[rule.kind] = by_kind.get(rule.kind, 0) + 1
    assert by_kind[RuleKind.MAGIC] == 13
    assert by_kind[RuleKind.KEYORDER] == 13
    assert by_kind[RuleKind.PRESENCE] == 3
    assert by_kind[RuleKind.TEMPLATE] == 4
    assert len(pack.rules) == 33
    assert sum(Counter(r.producer for r in pack.rules).values()) == 33


def test_magic_rules_decode_back_to_source_bytes():
    rules = _rules_of(RuleKind.MAGIC)
    assert [r.id for r in rules] == list(_HEADER_RULES)
    for rule in rules:
        producer, magic, os_tags, distro_tags = _HEADER_RULES[rule.id]
        assert rule.section is SectionKind.HEADER
        assert rule.pattern == "^" + "".join(f"\\x{b:02X}" for b in bytes.fromhex(magic))
        assert _magic_bytes(rule.pattern) == bytes.fromhex(magic)
        assert rule.producer == producer
        assert rule.os_tags == os_tags
        assert rule.distro_tags == distro_tags
    assert len(rules) == 13


def test_shared_magic_values():
    grouped: dict[bytes, set[str]] = {}
    for rule in _rules_of(RuleKind.MAGIC):
        grouped.setdefault(_magic_bytes(rule.pattern), set()).add(rule.producer)
    assert grouped[bytes.fromhex("D0D4C5D8")] == {PT, LT}
    # Eleven distinct values across thirteen rules.
    assert len(grouped) == 11


def test_distiller_header_rule_is_unique_and_exact():
    rules = [r for r in builtin().rules
             if r.section is SectionKind.HEADER
             and r.producer == Producer.ACROBAT_DISTILLER.value]
    assert len(rules) == 1
    assert _magic_bytes(rules[0].pattern) == b"\xE2\xE3\xCF\xD3"


def test_luatex_long_magic_rows_and_tags():
    rules = [r for r in _rules_of(RuleKind.MAGIC)
             if _magic_bytes(r.pattern) == bytes.fromhex("CCD5C1D4C5D8D0C4C6")]
    assert len(rules) == 2
    assert all(r.producer == LT for r in rules)
    tags = {(r.os_tags, r.distro_tags) for r in rules}
    assert (frozenset({"linux"}), frozenset({"miktex"})) in tags
    assert (frozenset({"macos", "windows"}), frozenset()) in tags


def test_keyorder_rules_render_their_key_sequences():
    rules = _rules_of(RuleKind.KEYORDER)
    assert [r.id for r in rules] == list(_KEYORDER_RULES)
    for rule in rules:
        producer, classic, keys, distro_tags = _KEYORDER_RULES[rule.id]
        assert rule.section is SectionKind.TRAILER
        assert rule.producer == producer
        assert rule.pattern.startswith("^trailer\\s*<<\\s*" if classic else "^<<\\s*")
        assert _keyorder_keys(rule.pattern) == keys
        assert rule.os_tags == frozenset()
        assert rule.distro_tags == distro_tags
    assert len(rules) == 13
    # One source spells "/info"; its pattern accepts either casing.
    lowercase = [r.id for r in rules if "/[Ii]nfo" in r.pattern]
    assert lowercase == ["trailer-pdflatex"]


def _keyorder_groups() -> dict[tuple[bool, tuple[str, ...]], set[str]]:
    grouped: dict[tuple[bool, tuple[str, ...]], set[str]] = {}
    for rule in _rules_of(RuleKind.KEYORDER):
        key = (rule.pattern.startswith("^trailer"), _keyorder_keys(rule.pattern))
        grouped.setdefault(key, set()).add(rule.producer)
    return grouped


def test_four_way_shared_classic_sequence():
    assert _keyorder_groups()[(True, _CLASSIC_4)] == {LT, PT, GS, Q}


def test_cairo_skia_share_their_sequence():
    cairo = next(r for r in _rules_of(RuleKind.KEYORDER) if r.producer == CA)
    key = (True, _keyorder_keys(cairo.pattern))
    assert key[1] == ("/Size", "/Root", "/Info")
    assert _keyorder_groups()[key] == {CA, SK}


def test_presence_and_template_rules():
    rules = [r for r in builtin().rules
             if r.kind in (RuleKind.PRESENCE, RuleKind.TEMPLATE)]
    assert {r.id for r in rules} == set(_OTHER_RULES)
    for rule in rules:
        producer, section, kind, pattern, distro_tags = _OTHER_RULES[rule.id]
        assert (rule.producer, rule.section, rule.kind, rule.pattern) == (
            producer, section, kind, pattern)
        assert rule.os_tags == frozenset()
        assert rule.distro_tags == distro_tags


def test_rules_file_is_in_canonical_form():
    shipped = _shipped_text()
    comment = []
    for line in shipped.splitlines():
        if not line.startswith("#"):
            break
        comment.append(line[2:] if line.startswith("# ") else line[1:])
    assert comment, "builtin.rules lost its leading comment"
    assert render_rulepack(builtin().rules, "\n".join(comment)) == shipped


def test_rules_file_coverage_lines_agree_with_pack():
    coverage = {
        m.group(1): int(m.group(2))
        for m in re.finditer(r"(?m)^#\s+(\S+)\s+(\d+)/\d+$", _shipped_text())
    }
    counts = Counter(r.producer for r in builtin().rules)
    assert set(coverage) == {p.value for p in Producer}
    for producer in Producer:
        assert coverage[producer.value] == counts[producer.value], producer.value


def test_no_dead_rules(corpus_bytes):
    """Every builtin rule matches at least one fixture."""
    pack = builtin()
    live: set[str] = set()
    for blobs in corpus_bytes.values():
        sections = segment(blobs[0])
        for kind in SECTION_ORDER:
            live.update(m.rule_id for m in match_section(pack, sections, kind))
    dead = {r.id for r in pack.rules} - live
    assert not dead, f"rules matching no fixture: {sorted(dead)}"


def test_profiles_agree_with_signature_data():
    """Fixture profiles must embody the transcribed signature facts."""
    magic_by_producer: dict[str, set[bytes]] = {}
    for rule in _rules_of(RuleKind.MAGIC):
        magic_by_producer.setdefault(rule.producer, set()).add(_magic_bytes(rule.pattern))
    for producer, profile in PROFILES.items():
        assert profile.header_magic in magic_by_producer[producer.value]
        data = generate(profile, 1)
        sections = segment(data)
        matched = {
            m.producer
            for m in match_section(builtin(), sections, SectionKind.TRAILER)
        }
        assert producer.value in matched
