"""Declarative byte-pattern rules and their execution against PDF sections.

A rule binds a byte-oriented regular expression to a producer, a section
and optional OS/distribution tags.  Rule files are plain UTF-8 text:

    rule <id> {
      producer = <name>
      section  = header | body | xref | trailer
      kind     = magic | keyorder | template | presence
      os       = [windows, linux, macos]        # optional
      distro   = [texlive, miktex]              # optional
      pattern  = "<byte-regex>"
    }

Comments start with '#'.  Patterns operate on raw bytes and support
literals, \\xNN escapes, \\r \\n \\t, character classes, repetition
(``*`` ``+`` ``?`` ``{m,n}``), alternation, grouping and the ``^``/``$``
anchors.  Lookaround and backreferences are rejected, and so is a repeat
that may run its body more than once when the body holds a variable-count
repeat (``(a+)+``, ``(?:a*){2,5}``, ``(a?)*``): a backtracking search of
such a pattern can take time exponential in the input.  Groups nested
too deeply for the regex parser are rejected too.

Body rules match each non-metadata object's bytes with its stream payload
cut out after the first two bytes: the dictionary, the ``stream`` and
``endstream`` framing with its line ends, and the compression header
(``x\\xDA`` for zlib at level 9) are a writer's style; the compressed data
is not.  The miner reads the same elements, so a mined template that spans
the cut matches in a scan.

Presence rules are special: they match a one-byte pseudo-input that is
``P`` when the file has at least one classic xref table and ``A`` when it
has none, so that presence/absence facts ride the same rule mechanism as
byte patterns.  A presence match on the ``P`` token is flagged advisory:
nearly every producer emits a table, so the fact isn't treated as a
nomination by the detector, only as OS/distribution evidence.

A rule either fires on a section or it does not, and that is all the
vote reads.  So each rule that fires is reported once, at its first hit:
the first element it is found in and the leftmost offset there.  A
section's matches come out in rule-id order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from re import _constants, _parser

from .errors import PatternCompileError, RuleParseError
from .producers import Distro, OpSys
from .segmenter import IndirectObject, PdfSections


class SectionKind(str, Enum):
    HEADER = "header"
    BODY = "body"
    XREF = "xref"
    TRAILER = "trailer"


SECTION_ORDER = (SectionKind.HEADER, SectionKind.BODY, SectionKind.XREF, SectionKind.TRAILER)


class RuleKind(str, Enum):
    MAGIC = "magic"
    KEYORDER = "keyorder"
    TEMPLATE = "template"
    PRESENCE = "presence"


# An escape (group 1: the escaped character), a character class, skipped
# since "(?" or "\1" in it is no group, or "(?" (group 2: the next character).
# A class never closed runs to the end, so no "[" is scanned twice.
_CONSTRUCT_RE = re.compile(r"\\(.)|\[\^?\]?(?:\\.|[^\]\\])*\]?|\(\?(.?)", re.S)
_REPEATS = (_constants.MAX_REPEAT, _constants.MIN_REPEAT, _constants.POSSESSIVE_REPEAT)


def _nests_repeats(items: _parser.SubPattern, repeated: bool = False) -> bool:
    """Whether a variable-count repeat lies inside a repeat that may run
    its body more than once.  ``repeated`` says ``items`` is inside one."""
    for op, av in items:
        if op in _REPEATS:
            low, high, body = av
            if (repeated and low != high) or _nests_repeats(body, repeated or high > 1):
                return True
        elif op is _constants.SUBPATTERN:
            if _nests_repeats(av[-1], repeated):
                return True
        elif op is _constants.BRANCH:
            if any(_nests_repeats(branch, repeated) for branch in av[1]):
                return True
    return False


def compile_pattern(source: str, rule_id: str = "<pattern>") -> re.Pattern[bytes]:
    """Compile a byte-regex source string; '.' matches any byte."""
    if any(m[1] in "123456789" if m[1] else m[2] not in (None, ":")
           for m in _CONSTRUCT_RE.finditer(source)):
        raise PatternCompileError(rule_id, "lookaround and backreferences are not supported")
    try:
        raw = source.encode("latin-1")
    except UnicodeEncodeError as exc:
        raise PatternCompileError(rule_id, f"non-byte character in pattern: {exc}") from None
    try:
        regex = re.compile(raw, re.DOTALL)
        # A repeat can only hold another inside a group.
        nested = b"(" in raw and _nests_repeats(_parser.parse(raw, re.DOTALL))
    except re.error as exc:
        raise PatternCompileError(rule_id, str(exc)) from None
    except RecursionError:
        # The parser recurses once per group level.
        raise PatternCompileError(rule_id, "groups nest too deeply") from None
    if nested:
        raise PatternCompileError(
            rule_id, "a repeated group may not hold a variable-count repeat"
        )
    return regex


@dataclass(frozen=True)
class Rule:
    """One producer signature."""

    id: str
    producer: str
    section: SectionKind
    kind: RuleKind
    pattern: str
    os_tags: frozenset[str] = frozenset()
    distro_tags: frozenset[str] = frozenset()
    regex: re.Pattern[bytes] = field(compare=False, hash=False, repr=False, default=None)  # type: ignore[assignment]


@dataclass
class Rulepack:
    """A named, ordered collection of rules with unique ids."""

    name: str
    version: str
    rules: list[Rule]
    # Each section's rules in rule-id order, the order matches are reported in.
    _by_section: dict[SectionKind, list[Rule]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id = sorted(self.rules, key=lambda r: r.id)
        self._by_section = {kind: [r for r in by_id if r.section == kind] for kind in SectionKind}

    def for_section(self, section: SectionKind) -> list[Rule]:
        return self._by_section[section]


@dataclass(frozen=True)
class RuleMatch:
    """A rule that fired on a section, at its first element and offset."""

    rule_id: str
    producer: str
    section: SectionKind
    match_offset: int
    element_ref: str
    kind: RuleKind
    os_tags: frozenset[str] = frozenset()
    distro_tags: frozenset[str] = frozenset()
    advisory: bool = False


# -- Rule-file parsing ---------------------------------------------------------

_RULE_OPEN_RE = re.compile(r"^rule\s+([A-Za-z0-9_][A-Za-z0-9_.-]*)\s*\{\s*$")
_FIELD_RE = re.compile(r"^([a-z]+)\s*=\s*(.*)$")
_VALID_OS = {o.value for o in OpSys}
_VALID_DISTRO = {d.value for d in Distro}


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line.strip()
    out: list[str] = []
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if in_string:
            if ch == "\\":
                out.append(line[i : i + 2])
                i += 2
                continue
            if ch == '"':
                in_string = False
        else:
            if ch == '"':
                in_string = True
            elif ch == "#":
                break
        out.append(ch)
        i += 1
    return "".join(out).strip()


def _parse_quoted(value: str, lineno: int) -> str:
    """Decode a quoted pattern value.

    Only ``\\"`` is consumed at the file layer; every other escape is part
    of the regex source and passes through verbatim.
    """
    if not value.startswith('"'):
        raise RuleParseError(lineno, "pattern value must be quoted")
    out: list[str] = []
    i = 1
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == '"':
                out.append('"')
            else:
                out.append(ch)
                out.append(nxt)
            i += 2
            continue
        if ch == '"':
            rest = value[i + 1 :].strip()
            if rest:
                raise RuleParseError(lineno, f"unexpected trailing text {rest!r}")
            return "".join(out)
        out.append(ch)
        i += 1
    raise RuleParseError(lineno, "unterminated pattern string")


def _parse_tag_list(value: str, valid: set[str], what: str, lineno: int) -> frozenset[str]:
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise RuleParseError(lineno, f"{what} must be a [bracketed, list]")
    items = [item.strip() for item in value[1:-1].split(",") if item.strip()]
    for item in items:
        if item not in valid:
            raise RuleParseError(lineno, f"unknown {what} tag {item!r}")
    return frozenset(items)


def load_rulepack(text: str, name: str = "rulepack", version: str = "0") -> Rulepack:
    """Parse rule-file text into a compiled, validated :class:`Rulepack`."""
    rules: list[Rule] = []
    seen_ids: set[str] = set()
    current: dict[str, object] | None = None
    current_line = 0
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line)
        if not line:
            continue
        if current is None:
            m = _RULE_OPEN_RE.match(line)
            if not m:
                raise RuleParseError(lineno, f"expected 'rule <id> {{', got {line!r}")
            rid = m.group(1)
            if rid in seen_ids:
                raise RuleParseError(lineno, f"duplicate rule id {rid!r}")
            seen_ids.add(rid)
            current = {"id": rid}
            current_line = lineno
            continue
        if line == "}":
            rules.append(_finish_rule(current, current_line))
            current = None
            continue
        m = _FIELD_RE.match(line)
        if not m:
            raise RuleParseError(lineno, f"expected 'key = value', got {line!r}")
        key, value = m.group(1), m.group(2)
        if key == "producer":
            current["producer"] = value.strip()
        elif key == "section":
            try:
                current["section"] = SectionKind(value.strip())
            except ValueError:
                raise RuleParseError(lineno, f"unknown section {value.strip()!r}") from None
        elif key == "kind":
            try:
                current["kind"] = RuleKind(value.strip())
            except ValueError:
                raise RuleParseError(lineno, f"unknown kind {value.strip()!r}") from None
        elif key == "os":
            current["os"] = _parse_tag_list(value, _VALID_OS, "os", lineno)
        elif key == "distro":
            current["distro"] = _parse_tag_list(value, _VALID_DISTRO, "distro", lineno)
        elif key == "pattern":
            current["pattern"] = _parse_quoted(value.strip(), lineno)
        else:
            raise RuleParseError(lineno, f"unknown field {key!r}")
    if current is not None:
        raise RuleParseError(current_line, "unterminated rule block")
    return Rulepack(name, version, rules)


def _finish_rule(fields: dict[str, object], lineno: int) -> Rule:
    for required in ("producer", "section", "kind", "pattern"):
        if required not in fields:
            raise RuleParseError(lineno, f"rule {fields['id']!r} is missing {required!r}")
    rid, pattern = str(fields["id"]), str(fields["pattern"])
    return Rule(
        rid,
        str(fields["producer"]),
        fields["section"],  # type: ignore[arg-type]
        fields["kind"],  # type: ignore[arg-type]
        pattern,
        fields.get("os", frozenset()),  # type: ignore[arg-type]
        fields.get("distro", frozenset()),  # type: ignore[arg-type]
        compile_pattern(pattern, rid),
    )


def render_rulepack(rules: list[Rule], header_comment: str = "") -> str:
    """Render rules back to the rule-file format (deterministic)."""
    blocks: list[str] = []
    if header_comment:
        blocks.append("\n".join(f"# {line}".rstrip() for line in header_comment.splitlines()))
    for rule in rules:
        lines = [f"rule {rule.id} {{"]
        lines.append(f"  producer = {rule.producer}")
        lines.append(f"  section  = {rule.section.value}")
        lines.append(f"  kind     = {rule.kind.value}")
        if rule.os_tags:
            lines.append(f"  os       = [{', '.join(sorted(rule.os_tags))}]")
        if rule.distro_tags:
            lines.append(f"  distro   = [{', '.join(sorted(rule.distro_tags))}]")
        pattern = rule.pattern.replace('"', '\\"')
        lines.append(f'  pattern  = "{pattern}"')
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# -- Matching ------------------------------------------------------------------


# The payload bytes a body element keeps: zlib's two header bytes (``x\xDA``
# at compression level 9) are a writer's setting; the data after them is not.
_PAYLOAD_KEPT = 2


def _body_element(obj: IndirectObject) -> bytes:
    """An object's bytes with its stream payload cut out after its first
    ``_PAYLOAD_KEPT`` bytes; the line end before ``endstream`` stays."""
    payload = obj.payload
    if payload is None or payload.length <= _PAYLOAD_KEPT:
        return obj.raw
    cut = payload.offset - obj.span.offset
    return obj.raw[: cut + _PAYLOAD_KEPT] + obj.raw[cut + payload.length :]


def section_elements(sections: PdfSections, kind: SectionKind) -> list[tuple[str, bytes]]:
    """Eligible (element_ref, bytes) pairs for one section.

    A body element is one non-metadata object's bytes with its stream
    payload cut out past the first two bytes (see :func:`_body_element`),
    so rules and the miner see the dictionary, the ``stream``/``endstream``
    framing and the compression header, never the compressed data.  For
    the xref section this returns the table bytes only (the presence
    pseudo-input is handled by :func:`match_section` directly).
    """
    if kind is SectionKind.HEADER:
        comment = sections.binary_comment
        return [("header", comment)] if comment else []
    if kind is SectionKind.BODY:
        return [
            (f"obj:{obj.obj_num}:{obj.gen_num}", _body_element(obj))
            for obj in sections.objects
            if not obj.is_metadata
        ]
    if kind is SectionKind.XREF:
        return [(f"xref:{i}", raw) for i, raw in enumerate(sections.xref_tables)]
    return [(f"trailer:{i}", t.raw) for i, t in enumerate(sections.trailers)]


def presence_token(sections: PdfSections) -> bytes:
    return b"P" if sections.xref_tables else b"A"


def match_section(
    pack: Rulepack, sections: PdfSections, kind: SectionKind
) -> list[RuleMatch]:
    """Report each rule of one section that fires, once, at its first hit.

    Rules run in id order and elements in section order; a rule stops at
    the first element its pattern is found in, so the matches come out in
    rule-id order, one per fired rule, each at its first element and the
    leftmost offset within it.  The vote reads only which rules fired.
    """
    token = presence_token(sections)
    presence_targets = [("xref:presence", token)]
    element_targets = section_elements(sections, kind)
    matches: list[RuleMatch] = []
    for rule in pack.for_section(kind):
        targets = presence_targets if rule.kind is RuleKind.PRESENCE else element_targets
        for ref, data in targets:
            m = rule.regex.search(data)
            if m is None:
                continue
            matches.append(
                RuleMatch(
                    rule_id=rule.id,
                    producer=rule.producer,
                    section=kind,
                    match_offset=m.start(),
                    element_ref=ref,
                    kind=rule.kind,
                    os_tags=rule.os_tags,
                    distro_tags=rule.distro_tags,
                    advisory=(rule.kind is RuleKind.PRESENCE and token == b"P"),
                )
            )
            break
    return matches


def evaluate_sections(pack: Rulepack, sections: PdfSections) -> dict[SectionKind, list[RuleMatch]]:
    return {kind: match_section(pack, sections, kind) for kind in SECTION_ORDER}


__all__ = [
    "SectionKind",
    "SECTION_ORDER",
    "RuleKind",
    "Rule",
    "Rulepack",
    "RuleMatch",
    "compile_pattern",
    "load_rulepack",
    "render_rulepack",
    "section_elements",
    "presence_token",
    "match_section",
    "evaluate_sections",
]
