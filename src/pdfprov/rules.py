"""Declarative byte-pattern rules and their execution against PDF sections.

A rule binds a byte-oriented regular expression to a producer, a section
and optional OS/distribution tags.  Rule files are plain UTF-8 text:

    rule <id> {
      producer = <name>
      section  = header | body | xref | trailer
      os       = [windows, linux, macos]        # optional
      distro   = [texlive, miktex]              # optional
      pattern  = "<byte-regex>"
    }

A '#' outside a quoted value starts a comment.  The pattern is quoted, and
only ``\\"`` in it is unescaped; the producer and the tags are bare, so
they may hold no '#' and no leading or trailing space (:func:`render_rulepack`
refuses such a value).  Patterns operate on raw bytes, in a dialect that
:func:`compile_pattern` checks against one grammar before ``re`` sees them.
A piece is a literal byte, an escape (``\\xNN``, ``\\r``, ``\\n``, ``\\t``,
an escaped special; no backreference) or a character class, with an
optional ``*``, ``+``, ``?`` or ``{m,n}``.  A pattern is pieces, ``|``, and
the ``^``/``$`` anchors, and groups ``(...)`` or ``(?:...)`` of pieces and
``|``; a group nests in no other and takes at most a ``?``.  So lookaround,
inline flags, named groups and backreferences are refused, and so are
lazy and possessive quantifiers and a repeated group such as ``(ab)+`` or
``(a|ab)*``: no search of a pattern in the dialect takes time exponential
in its input.  A run of overlapping repeats, such as ``a*a*b``, can still
take polynomial time.

Every rule searches the elements of its section (:func:`element_bytes`).
Body rules match each non-metadata object's bytes with its stream payload
cut out after the first two bytes: the dictionary, the ``stream`` and
``endstream`` framing with its line ends, and the compression header
(``x\\xDA`` for zlib at level 9) are a writer's style; the compressed data
is not.  The xref section's elements are the classic tables and the xref
stream objects, in file order, each stream cut as a body object is; an xref
stream is no body element.  The miner reads the same elements, so a mined
template that spans the cut matches in a scan.

A rule either fires on a section or it does not, and that is all the
vote reads.  So each rule that fires is reported once, at its first hit:
the first element it is found in and the leftmost offset there.  A
section's matches come out in rule-id order.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .errors import PatternCompileError, RuleParseError
from .producers import Distro, OpSys
from .segmenter import IndirectObject, PdfSections


class SectionKind(str, Enum):
    HEADER = "header"
    BODY = "body"
    XREF = "xref"
    TRAILER = "trailer"


SECTION_ORDER = (SectionKind.HEADER, SectionKind.BODY, SectionKind.XREF, SectionKind.TRAILER)


# A rule has no kind; the reader refuses this one, and perfbench/ names it (ROADMAP item 9).
class RuleKind(str, Enum):
    PRESENCE = "presence"


# The dialect of the module docstring, as one grammar.  Each alternative
# starts on its own character and each repeat is possessive, so a match
# takes time linear in the pattern.
_PIECE = (r"(?:\\(?:x[0-9A-Fa-f]{2}|[^1-9x])|\[\^?\]?(?:\\.|[^\]\\])*+\]|[^\\\[\](){}|*+?^$])"
          r"(?:[*+?]|\{(?:[0-9]++(?:,[0-9]*+)?|,[0-9]++)\})?")
_DIALECT_RE = re.compile(rf"(?:{_PIECE}|[|^$]|\((?:\?:)?(?:{_PIECE}|\|)*+\)\??)*+", re.S)


def compile_pattern(source: str, rule_id: str = "<pattern>") -> re.Pattern[bytes]:
    """Compile a byte-regex source string in the rule dialect; '.' matches any byte.

    A pattern outside the dialect is refused at the offset where it leaves
    it, and the error quotes up to 20 characters from there."""
    end = _DIALECT_RE.match(source).end()  # type: ignore[union-attr]
    if end < len(source):
        raise PatternCompileError(
            rule_id, f"not in the rule dialect from offset {end}: {source[end : end + 20]!r}")
    try:
        raw = source.encode("latin-1")
    except UnicodeEncodeError as exc:
        raise PatternCompileError(rule_id, f"non-byte character in pattern: {exc}") from None
    try:
        return re.compile(raw, re.DOTALL)
    except (re.error, OverflowError) as exc:  # Overflow: a repeat count of 2**32 - 1 or more
        raise PatternCompileError(rule_id, str(exc)) from None


@dataclass(frozen=True)
class Rule:
    """One producer signature."""

    id: str
    producer: str
    section: SectionKind
    pattern: str
    os_tags: frozenset[str] = frozenset()
    distro_tags: frozenset[str] = frozenset()
    regex: re.Pattern[bytes] = field(compare=False, hash=False, repr=False, default=None)  # type: ignore[assignment]
    kind = None  # not a field: perfbench/ still reads it (ROADMAP item 9)


@dataclass
class Rulepack:
    """An ordered collection of rules with unique ids."""

    rules: list[Rule]
    # Each section's rules in rule-id order, the order matches are reported in.
    _by_section: dict[SectionKind, list[Rule]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id = sorted(self.rules, key=lambda r: r.id)
        self._by_section = {kind: [r for r in by_id if r.section == kind] for kind in SectionKind}

    def for_section(self, section: SectionKind) -> list[Rule]:
        return self._by_section[section]


@dataclass(frozen=True, slots=True)
class RuleMatch:
    """A rule that fired on a section, at its first element and offset."""

    rule: Rule
    element_ref: str
    match_offset: int

    @property
    def rule_id(self) -> str:
        return self.rule.id


# -- Rule-file parsing ---------------------------------------------------------

_RULE_OPEN_RE = re.compile(r"^rule\s+([A-Za-z0-9_][A-Za-z0-9_.-]*)\s*\{\s*$")
_FIELD_RE = re.compile(r"^([a-z]+)\s*=\s*(.*)$")
# A quoted value: '"', then characters, a '\' taking the next one with it,
# up to the closing '"' (group 2) or the end of the line.  Group 1 is the body.
_QUOTED_RE = re.compile(r'"((?:[^"\\]++|\\.)*+)(")?', re.S)
# A line's text before its comment, which a '#' outside a quoted value starts;
# a line with no '#' is all text, and testing for one costs less than a match.
_CODE_RE = re.compile(rf'(?:[^"#]++|{_QUOTED_RE.pattern})*+', re.S)
# The fields whose value is a list of tags from a fixed set.
_TAG_FIELDS = {"os": {o.value for o in OpSys}, "distro": {d.value for d in Distro}}


def _strip_comment(line: str) -> str:
    return (_CODE_RE.match(line)[0] if "#" in line else line).strip()  # type: ignore[index]


def _read_field(key: str, value: str, lineno: int) -> Any:
    """The value of one ``key = value`` line, checked against its field."""
    value = value.strip()
    if key == "producer":
        if not value:
            raise RuleParseError(lineno, "producer must not be empty")
        return value
    if key == "pattern":
        m = _QUOTED_RE.match(value)
        if m is None:
            raise RuleParseError(lineno, "pattern value must be quoted")
        if m[2] is None:
            raise RuleParseError(lineno, "unterminated pattern string")
        if rest := value[m.end() :].strip():
            raise RuleParseError(lineno, f"unexpected trailing text {rest!r}")
        return m[1].replace('\\"', '"')
    if key == "section":
        try:
            return SectionKind(value)
        except ValueError:
            raise RuleParseError(lineno, f"unknown section {value!r}") from None
    if key == "kind":  # an older file's line: checked, then ignored
        if value == RuleKind.PRESENCE:
            raise RuleParseError(lineno, "kind 'presence' is no longer supported: "
                                 "xref rules search xref tables and streams as templates")
        if value not in ("magic", "keyorder", "template"):
            raise RuleParseError(lineno, f"unknown kind {value!r}")
        return None
    if key not in _TAG_FIELDS:
        raise RuleParseError(lineno, f"unknown field {key!r}")
    if not (value.startswith("[") and value.endswith("]")):
        raise RuleParseError(lineno, f"{key} must be a [bracketed, list]")
    items = [item.strip() for item in value[1:-1].split(",") if item.strip()]
    for item in items:
        if item not in _TAG_FIELDS[key]:
            raise RuleParseError(lineno, f"unknown {key} tag {item!r}")
    return frozenset(items)


def load_rulepack(text: str, name: str = "") -> Rulepack:
    """Parse rule-file text into a compiled, validated :class:`Rulepack`.

    ``name`` is unused; ``perfbench/`` still passes one."""
    rules: list[Rule] = []
    seen_ids: set[str] = set()
    current: dict[str, Any] | None = None
    current_line = 0
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line)
        if not line:
            continue
        if current is None:
            m = _RULE_OPEN_RE.match(line)
            if not m:
                raise RuleParseError(lineno, f"expected 'rule <id> {{', got {line!r}")
            if m[1] in seen_ids:
                raise RuleParseError(lineno, f"duplicate rule id {m[1]!r}")
            seen_ids.add(m[1])
            current, current_line = {"id": m[1]}, lineno
            continue
        if line == "}":
            rules.append(_finish_rule(current, current_line))
            current = None
            continue
        m = _FIELD_RE.match(line)
        if not m:
            raise RuleParseError(lineno, f"expected 'key = value', got {line!r}")
        value = _read_field(m[1], m[2], lineno)
        if m[1] in current:
            raise RuleParseError(lineno, f"rule {current['id']!r} sets {m[1]!r} twice")
        current[m[1]] = value
    if current is not None:
        raise RuleParseError(current_line, "unterminated rule block")
    return Rulepack(rules)


def _finish_rule(fields: dict[str, Any], lineno: int) -> Rule:
    for required in ("producer", "section", "pattern"):
        if required not in fields:
            raise RuleParseError(lineno, f"rule {fields['id']!r} is missing {required!r}")
    return Rule(fields["id"], fields["producer"], fields["section"], fields["pattern"],
                fields.get("os", frozenset()), fields.get("distro", frozenset()),
                compile_pattern(fields["pattern"], fields["id"]))


def _field_line(rule: Rule, key: str, value: object, text: str) -> str:
    """The line ``key = text``; a ValueError if it would not read back as ``value``."""
    try:
        if len(text.splitlines()) <= 1 and _read_field(key, _strip_comment(text), 0) == value:
            return f"  {key:<8} = {text}"
    except RuleParseError:
        pass
    raise ValueError(f"rule {rule.id!r}: {key} {text!r} would not read back as written")


def render_rulepack(rules: list[Rule], header_comment: str = "") -> str:
    """Render rules back to the rule-file format (deterministic).

    A value that would not read back as written, such as a producer
    holding a ``#`` or a line break, is a ``ValueError``; so is an id that
    is not a rule id, or one already written.
    """
    blocks: list[str] = []
    if header_comment:
        blocks.append("\n".join(f"# {line}".rstrip() for line in header_comment.splitlines()))
    written: set[str] = set()
    for rule in rules:
        m = _RULE_OPEN_RE.match(f"rule {rule.id} {{")
        if rule.id in written or not m or m[1] != rule.id:
            reason = "is already written" if rule.id in written else "is not a rule id"
            raise ValueError(f"rule {rule.id!r} of producer {rule.producer!r}: the id {reason}")
        written.add(rule.id)
        lines = [
            f"rule {rule.id} {{",
            _field_line(rule, "producer", rule.producer, rule.producer),
            _field_line(rule, "section", rule.section, rule.section.value),
        ]
        for key, tags in (("os", rule.os_tags), ("distro", rule.distro_tags)):
            if tags:
                lines.append(_field_line(rule, key, tags, f"[{', '.join(sorted(tags))}]"))
        quoted = '"{}"'.format(rule.pattern.replace('"', '\\"'))
        lines += [_field_line(rule, "pattern", rule.pattern, quoted), "}"]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# -- Matching ------------------------------------------------------------------


# The payload bytes a body element keeps: zlib's two header bytes (``x\xDA``
# at compression level 9) are a writer's setting; the data after them is not.
_PAYLOAD_KEPT = 2


def _object_element(data: bytes, obj: IndirectObject) -> bytes:
    """An object's bytes in ``data`` with its stream payload cut out after its
    first ``_PAYLOAD_KEPT`` bytes; the line end before ``endstream`` stays."""
    p = obj.payload_start
    if p is None or obj.payload_end - p <= _PAYLOAD_KEPT:
        return data[obj.start : obj.end]
    return data[obj.start : p + _PAYLOAD_KEPT] + data[obj.payload_end : obj.end]


def element_bytes(sections: PdfSections, kind: SectionKind) -> tuple[list[bytes], Callable[[int], str]]:
    """The bytes of each eligible element of one section, and a function
    that names the element at an index; the names are built only when asked.

    A body element is one non-metadata object's bytes with its stream
    payload cut out past the first two bytes (see :func:`_object_element`),
    so rules and the miner see the dictionary, the ``stream``/``endstream``
    framing and the compression header, never the compressed data.  The
    xref elements are the classic tables and, cut alike, the xref stream
    objects, in file order.  An object is an xref stream when a trailer
    starts at its dictionary: the segmenter makes each ``/Type /XRef``
    dictionary its revision's trailer.  Such an object is no body element.
    """
    if kind is SectionKind.HEADER:
        comment = sections.binary_comment
        return ([comment] if comment else []), lambda _: "header"
    data = sections.data
    if kind is SectionKind.TRAILER:
        return [data[t.start : t.end] for t in sections.trailers], "trailer:{}".format
    stream_dicts = {t.start for t in sections.trailers}
    if kind is SectionKind.BODY:
        objects = [obj for obj in sections.objects
                   if not obj.is_metadata and obj.dict_start not in stream_dicts]
        return [_object_element(data, obj) for obj in objects], (
            lambda i: f"obj:{objects[i].obj_num}:{objects[i].gen_num}")
    spans = sorted([(t.start, data[t.start : t.end]) for t in sections.xref_tables]
                   + [(obj.start, _object_element(data, obj)) for obj in sections.objects
                      if obj.dict_start in stream_dicts])
    return [element for _, element in spans], "xref:{}".format


def section_elements(sections: PdfSections, kind: SectionKind) -> list[tuple[str, bytes]]:
    """Eligible (element_ref, bytes) pairs: :func:`element_bytes`, named."""
    elements, ref = element_bytes(sections, kind)
    return [(ref(i), element) for i, element in enumerate(elements)]


def match_section(
    pack: Rulepack, sections: PdfSections, kind: SectionKind
) -> list[RuleMatch]:
    """Report each rule of one section that fires, once, at its first hit.

    Rules run in id order and elements in section order; a rule stops at
    the first element its pattern is found in, so the matches come out in
    rule-id order, one per fired rule, each at its first element and the
    leftmost offset within it.  The vote reads only which rules fired.
    """
    rules = pack.for_section(kind)
    if not rules:
        return []  # finding the xref streams alone is a pass over every object
    elements, ref = element_bytes(sections, kind)
    matches: list[RuleMatch] = []
    for rule in rules:
        for data in elements:
            m = rule.regex.search(data)
            if m is None:
                continue
            # Equal bytes match alike, so no earlier element has these: index() finds this one.
            matches.append(RuleMatch(rule, ref(elements.index(data)), m.start()))
            break
    return matches


def evaluate_sections(pack: Rulepack, sections: PdfSections) -> dict[SectionKind, list[RuleMatch]]:
    """Each section's matches; a section the pack has no rule for has none."""
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
    "element_bytes",
    "section_elements",
    "match_section",
    "evaluate_sections",
]
