"""Derive producer signatures by comparing same-source PDFs across tools.

The miner looks, per producer and per section, for byte patterns shared
by every file in the group, in the elements that rules match
(:func:`rules.element_bytes`: body objects without their stream
payloads), then generalizes the volatile parts: decimal
digit runs become ``[0-9]*`` and long hex strings inside angle brackets
become ``[0-9A-F]*`` (but only where the values actually vary across the
group; constant runs stay literal).  Every surviving candidate is scored
for support (fraction of the producer's files it matches, 1.0 by
construction and re-verified) and discriminacy (worst-case fraction of
any other producer's files it matches).

The search works on a token alphabet where digit/hex runs compare equal
regardless of value.  One suffix automaton (Blumer et al., "The smallest
automaton recognizing the subwords of a text", TCS 1985) is built over
the shortest file's tokens; every other file is walked through it once,
and the maximal runs common to all files are read off its states.  Time
and memory are linear in the group's total token count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

from .errors import EmptyGroup, SectionAbsentEverywhere
from .producers import Producer, read_manifest
from .rules import (
    Rule,
    RuleKind,
    SectionKind,
    SECTION_ORDER,
    compile_pattern,
    element_bytes,
    render_rulepack,
)
from .segmenter import PdfSections, segment

_NUM = 256
_HEX = 257
_SEP_BASE = 258

# A long hex run in angle brackets, or a digit run.
_TOKEN_RE = re.compile(rb"<([0-9A-Fa-f]{16,})>|[0-9]+")

_SLUGS: dict[str, str] = {
    Producer.ACROBAT_DISTILLER.value: "acrobat-distiller",
    Producer.MICROSOFT_OFFICE_WORD.value: "word",
    Producer.LIBREOFFICE.value: "libreoffice",
    Producer.GHOSTSCRIPT.value: "ghostscript",
    Producer.MACOS_QUARTZ.value: "quartz",
    Producer.PDFTEX.value: "pdftex",
    Producer.SKIA_PDF.value: "skia",
    Producer.CAIRO.value: "cairo",
    Producer.XDVIPDFMX.value: "xdvipdfmx",
    Producer.LUATEX.value: "luatex",
    Producer.PDFLATEX.value: "pdflatex",
}


def producer_slug(name: str) -> str:
    return _SLUGS.get(name) or re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


@dataclass(frozen=True)
class CorpusFile:
    data: bytes
    producer: str
    os: str = ""
    distro: str = ""


@dataclass
class LabeledCorpus:
    """PDF bytes grouped by producer, with the labels of a manifest (the
    format :func:`pdfprov.producers.read_manifest` reads)."""

    files: list[CorpusFile]
    _sections: dict[int, PdfSections] = field(default_factory=dict, repr=False)

    @property
    def groups(self) -> dict[str, list[CorpusFile]]:
        grouped: dict[str, list[CorpusFile]] = {}
        for f in self.files:
            grouped.setdefault(f.producer, []).append(f)
        return grouped

    def sections_of(self, f: CorpusFile) -> PdfSections:
        key = id(f)
        if key not in self._sections:
            self._sections[key] = segment(f.data)
        return self._sections[key]

    @staticmethod
    def from_manifest(path: str | Path) -> "LabeledCorpus":
        """Load a manifest whose rows all name a producer."""
        path = Path(path)
        files: list[CorpusFile] = []
        for lineno, cols in read_manifest(path):
            if len(cols) < 2 or not cols[1]:
                raise ValueError(f"{path}:{lineno}: expected '<path>\\t<producer>'")
            files.append(CorpusFile((path.parent / cols[0]).read_bytes(), *cols[1:4]))
        return LabeledCorpus(files)


@dataclass(frozen=True)
class CandidatePattern:
    """A mined pattern with its corpus evidence."""

    producer: str
    section: SectionKind
    template: str
    kind: RuleKind
    support: float
    discriminacy: float
    byte_len: int


# -- Tokenization ----------------------------------------------------------


def _tokenize(data: bytes) -> list[int]:
    tokens: list[int] = []
    pos = 0
    for m in _TOKEN_RE.finditer(data):
        start, end = m.span()
        if m.lastindex:  # a hex run
            tokens.extend(data[pos : start + 1])  # keep '<'
            tokens.append(_HEX)
            pos = end - 1  # '>' belongs to the following literal run
        else:
            tokens.extend(data[pos:start])
            tokens.append(_NUM)
            pos = end
    tokens.extend(data[pos:])
    return tokens


def _file_tokens(haystacks: list[bytes]) -> list[int]:
    tokens: list[int] = []
    for i, hay in enumerate(haystacks):
        if i:
            tokens.append(_SEP_BASE + i)  # unmatchable boundary
        tokens.extend(_tokenize(hay))
    return tokens


# -- Maximal common substrings ----------------------------------------------


def _automaton(tokens: list[int]) -> tuple[list[int], list[int], list[dict[int, int]], list[int]]:
    """Suffix automaton of ``tokens`` (Blumer et al., TCS 1985).

    Returns per state the length of its longest string, its suffix link,
    its transitions and the end position of its first occurrence.  State
    0 is the root; there are at most ``2 * len(tokens)`` states.
    """
    length, link, trans, end = [0], [-1], [{}], [-1]
    last = 0
    for pos, tok in enumerate(tokens):
        cur = len(length)
        length.append(length[last] + 1)
        link.append(0)
        trans.append({})
        end.append(pos)
        p = last
        while p != -1 and tok not in trans[p]:
            trans[p][tok] = cur
            p = link[p]
        if p != -1:
            q = trans[p][tok]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                trans.append(dict(trans[q]))
                end.append(end[q])
                while p != -1 and trans[p].get(tok) == q:
                    trans[p][tok] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    return length, link, trans, end


def _common_across(files_tokens: list[list[int]], min_tokens: int) -> list[tuple[int, ...]]:
    """Maximal token runs of at least ``min_tokens`` found in every file.

    Each stream is one file's elements joined by separators (see
    :func:`_file_tokens`); no run crosses a separator.  A one-file group
    returns its elements unchanged.  Otherwise the runs come sorted by
    (length desc, tokens).
    """
    if len(files_tokens) == 1:
        parts = groupby(files_tokens[0], lambda tok: tok >= _SEP_BASE)
        return [tuple(part) for is_separator, part in parts if not is_separator]
    # Common runs are the same whichever file the automaton holds; the
    # shortest keeps it smallest.
    base_index = min(range(len(files_tokens)), key=lambda i: len(files_tokens[i]))
    base = files_tokens[base_index]
    length, link, trans, end = _automaton(base)
    states = len(length)
    by_length_desc = sorted(range(1, states), key=length.__getitem__, reverse=True)
    common = list(length)
    for index, tokens in enumerate(files_tokens):
        if index == base_index:
            continue
        # Matching statistics: the longest match ending at each token,
        # recorded at the state that holds it.
        best = [0] * states
        state = matched = 0
        for tok in tokens:
            if tok >= _SEP_BASE:
                state = matched = 0
                continue
            nxt = trans[state].get(tok)
            while nxt is None and state:
                state = link[state]
                matched = length[state]
                nxt = trans[state].get(tok)
            if nxt is None:
                continue
            state = nxt
            matched += 1
            if matched > best[state]:
                best[state] = matched
        # A match in a state also matches every string of its suffix link.
        for v in by_length_desc:
            run = best[v]
            if run:
                best[link[v]] = length[link[v]]
            if run < common[v]:
                common[v] = run
    # common[v] is 0 or the length of the longest common string of state
    # v.  That string extends left into a suffix-link child and right
    # along a transition.
    left_common = [False] * states
    for w in range(1, states):
        if common[w]:
            left_common[link[w]] = True
    runs: list[tuple[int, ...]] = []
    for v in range(1, states):
        run = common[v]
        if run < min_tokens:
            continue
        if run == length[v] and left_common[v]:
            continue
        if any(common[u] > run for u in trans[v].values()):
            continue
        runs.append(tuple(base[end[v] - run + 1 : end[v] + 1]))
    runs.sort(key=lambda r: (-len(r), r))
    return runs


# -- Template construction ---------------------------------------------------

_LITERAL_SPECIALS = set(b"\\.^$*+?()[]{}|")


def escape_literal(chunk: bytes) -> str:
    """Render literal bytes as byte-regex source text."""
    out: list[str] = []
    for b in chunk:
        if b in _LITERAL_SPECIALS:
            out.append("\\" + chr(b))
        elif b == 0x0D:
            out.append("\\r")
        elif b == 0x0A:
            out.append("\\n")
        elif b == 0x09:
            out.append("\\t")
        elif 0x20 <= b <= 0x7E:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02X}")
    return "".join(out)


def _occurrence_regex(tokens: tuple[int, ...]) -> re.Pattern[bytes]:
    parts: list[bytes] = []
    for tok in tokens:
        if tok == _NUM:
            parts.append(b"([0-9]+)")
        elif tok == _HEX:
            parts.append(b"([0-9A-Fa-f]{16,})")
        else:
            parts.append(re.escape(bytes([tok])))
    return re.compile(b"".join(parts), re.DOTALL)


def _build_template(tokens: tuple[int, ...], group_haystacks: list[list[bytes]]) -> str | None:
    """Turn a common token run into regex source, generalizing varying runs."""
    probe = _occurrence_regex(tokens)
    slots = sum(1 for t in tokens if t in (_NUM, _HEX))
    values: list[set[bytes]] = [set() for _ in range(slots)]
    for haystacks in group_haystacks:
        for hay in haystacks:
            for m in probe.finditer(hay):
                for idx in range(slots):
                    values[idx].add(m.group(idx + 1))
    if slots and any(not v for v in values):
        return None  # never observed as a whole; not a real common run
    parts: list[str] = []
    literal: list[int] = []
    slot = 0
    for tok in tokens:
        if tok < 256:
            literal.append(tok)
            continue
        if literal:
            parts.append(escape_literal(bytes(literal)))
            literal = []
        seen = values[slot]
        slot += 1
        if len(seen) == 1:
            parts.append(next(iter(seen)).decode("ascii"))
        elif tok == _NUM:
            parts.append("[0-9]*")
        else:
            parts.append("[0-9A-F]*")
    if literal:
        parts.append(escape_literal(bytes(literal)))
    return "".join(parts)


# -- Mining -------------------------------------------------------------------


def _group_haystacks(corpus: LabeledCorpus, group: list[CorpusFile],
                     section: SectionKind) -> list[list[bytes]]:
    return [element_bytes(corpus.sections_of(f), section)[0] for f in group]


def _fraction_matching(regex: re.Pattern[bytes], haystacks_per_file: list[list[bytes]]) -> float:
    if not haystacks_per_file:
        return 0.0
    hits = sum(
        1 for haystacks in haystacks_per_file if any(regex.search(h) for h in haystacks)
    )
    return hits / len(haystacks_per_file)


def mine(corpus: LabeledCorpus, section: SectionKind, min_len: int = 8,
         max_discriminacy: float = 0.0) -> dict[str, list[CandidatePattern]]:
    """Mine one section across the whole corpus.

    Returns, per producer, the candidates with full support, discriminacy
    at or below the threshold (a share, 0 to 1), and a concrete match of
    at least ``min_len`` bytes, sorted by (discriminacy, length desc,
    template).
    """
    if min_len < 4:
        raise ValueError("min_len must be at least 4")
    if not 0.0 <= max_discriminacy <= 1.0:
        raise ValueError(f"max_discriminacy must be between 0 and 1, not {max_discriminacy}")
    groups = corpus.groups
    if not groups:
        raise EmptyGroup("corpus has no files")
    all_haystacks = {
        producer: _group_haystacks(corpus, group, section)
        for producer, group in groups.items()
    }
    if section is not SectionKind.XREF and all(
        not any(h) for h in all_haystacks.values()
    ):
        raise SectionAbsentEverywhere(section.value)

    results: dict[str, list[CandidatePattern]] = {}
    for producer, group in groups.items():
        own = all_haystacks[producer]
        others = {p: h for p, h in all_haystacks.items() if p != producer}
        candidates: list[CandidatePattern] = []
        if all(not h for h in own):
            if section is SectionKind.XREF:
                # The absence of the section is itself the signature.
                disc = max(
                    (sum(1 for h in hs if not h) / len(hs) for hs in others.values()),
                    default=0.0,
                )
                cand = CandidatePattern(producer, section, "^A$", RuleKind.PRESENCE,
                                        1.0, disc, 1)
                if disc <= max_discriminacy:
                    candidates.append(cand)
            results[producer] = candidates
            continue
        if any(not h for h in own):
            results[producer] = []  # mixed presence: full support is impossible
            continue
        file_tokens = [_file_tokens(h) for h in own]
        for tokens in _common_across(file_tokens, min_tokens=2):
            template = _build_template(tokens, own)
            if template is None:
                continue
            regex = compile_pattern(template)
            first = None
            for hay in own[0]:
                first = regex.search(hay)
                if first:
                    break
            if first is None:
                continue
            byte_len = first.end() - first.start()
            if byte_len < min_len:
                continue
            support = _fraction_matching(regex, own)
            if support < 1.0:
                continue
            disc = max(
                (_fraction_matching(regex, hs) for hs in others.values()), default=0.0
            )
            if disc > max_discriminacy:
                continue
            candidates.append(
                CandidatePattern(producer, section, template, RuleKind.TEMPLATE,
                                 support, disc, byte_len)
            )
        candidates.sort(key=lambda c: (c.discriminacy, -c.byte_len, c.template))
        results[producer] = candidates
    return results


def mine_all(corpus: LabeledCorpus, min_len: int = 8,
             max_discriminacy: float = 0.0) -> dict[str, list[CandidatePattern]]:
    """Mine all four sections; candidate lists are concatenated per producer."""
    merged: dict[str, list[CandidatePattern]] = {p: [] for p in corpus.groups}
    for section in SECTION_ORDER:
        try:
            mined = mine(corpus, section, min_len, max_discriminacy)
        except SectionAbsentEverywhere:
            continue
        for producer, cands in mined.items():
            merged[producer].extend(cands)
    return merged


def emit_rulepack(candidates: dict[str, list[CandidatePattern]], name: str,
                  group_labels: dict[str, tuple[str, str]] | None = None) -> str:
    """Render mined candidates as deterministic rule-file text.

    ``group_labels`` optionally maps producers to (os, distro) tags; pass
    :func:`uniform_group_labels` output to tag rules whose whole group
    shares a label.  The output always re-loads through ``load_rulepack``.
    """
    group_labels = group_labels or {}
    rules: list[Rule] = []
    for producer in sorted(candidates):
        slug = producer_slug(producer)
        os_label, distro_label = group_labels.get(producer, ("", ""))
        per_section: dict[SectionKind, int] = {}
        for cand in sorted(
            candidates[producer],
            key=lambda c: (SECTION_ORDER.index(c.section), c.discriminacy, -c.byte_len, c.template),
        ):
            idx = per_section.get(cand.section, 0)
            per_section[cand.section] = idx + 1
            rules.append(Rule(
                f"{slug}-{cand.section.value}-{idx}", producer, cand.section, cand.kind,
                cand.template,
                frozenset({os_label}) if os_label else frozenset(),
                frozenset({distro_label}) if distro_label else frozenset(),
            ))
    return render_rulepack(rules, f"mined rulepack: {name}\ngenerated by pdfprov mine")


def uniform_group_labels(corpus: LabeledCorpus) -> dict[str, tuple[str, str]]:
    """(os, distro) per producer when the whole group agrees, else blanks."""
    labels: dict[str, tuple[str, str]] = {}
    for producer, group in corpus.groups.items():
        os_values = {f.os for f in group}
        distro_values = {f.distro for f in group}
        os_label = os_values.pop() if len(os_values) == 1 else ""
        distro_label = distro_values.pop() if len(distro_values) == 1 else ""
        labels[producer] = (os_label, distro_label)
    return labels
