"""Derive producer signatures by comparing same-source PDFs across tools.

The miner looks, per producer and per section, for byte patterns shared
by every file in the group, in the elements that rules match
(:func:`rules.element_bytes`: body objects and xref streams without their
stream payloads, and classic xref tables), then generalizes the volatile
parts: decimal digit runs become ``[0-9]*`` and long hex strings inside
angle brackets become ``[0-9A-F]*``, or ``[0-9A-Fa-f]*`` where a value
holds a lowercase digit (but only where the values actually vary across
the group; constant runs stay literal).  A candidate is kept only if it
matches every one of the producer's files, and is scored for
discriminacy (worst-case fraction of any other producer's files it
matches).

The search works on tokens that compare equal whatever a digit or hex
run's value.  A token is one character of a ``str``: a byte is its
Latin-1 character, a digit run is ``_NUM`` and a hex run ``_HEX``, and a
file's stream is its elements' tokens joined by ``_SEP``.  So a run of
tokens is a substring.  One suffix automaton (Blumer et al., "The
smallest automaton recognizing the subwords of a text", TCS 1985) is
built over the shortest file's stream; other streams are walked through
it, and the maximal runs common to all files are read off its states.
The automaton and the walks take time and memory linear in the group's
total token count.

A walk only ever shortens the common runs, so a stream is not walked if
it repeats one already seen, or if, after a walk that shortened nothing,
it holds every maximal common run found so far as a substring: every
common string lies inside one of those runs, so the walk would find them
all.  A stream that lacks a run does shorten it, so after such a walk
streams are walked untested until a walk again shortens nothing.
Mining thus costs in proportion to the distinct shapes a producer
writes, not to the number of its files.

Files of one producer repeat most of their elements, so each distinct
piece of work is done once: an element's bytes are tokenized once per
section, a template's probe scans each distinct element of the group
once, and a candidate searches each distinct element at most once.
Scoring stops at the first own file a candidate misses, or at the
first other producer whose share exceeds the threshold; a kept
candidate is always scored in full.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EmptyGroup, SectionAbsentEverywhere
from .producers import Producer, read_manifest
from .rules import (
    Rule,
    SectionKind,
    SECTION_ORDER,
    compile_pattern,
    element_bytes,
    render_rulepack,
)
from .segmenter import PdfSections, segment

# A token is one character: a byte is its Latin-1 character, and these
# three lie past Latin-1.  A stream is elements' tokens joined by _SEP.
_NUM = "\u0100"
_HEX = "\u0101"
_SEP = "\u0102"

# A long hex run in angle brackets, and a digit run.
_HEX_RE = re.compile(r"<[0-9A-Fa-f]{16,}>")
_NUM_RE = re.compile(r"[0-9]+")

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
    # Keyed by the file's bytes: segmenting is pure, and an id can be reused.
    _sections: dict[bytes, PdfSections] = field(default_factory=dict, repr=False)

    @property
    def groups(self) -> dict[str, list[CorpusFile]]:
        grouped: dict[str, list[CorpusFile]] = {}
        for f in self.files:
            grouped.setdefault(f.producer, []).append(f)
        return grouped

    def sections_of(self, f: CorpusFile) -> PdfSections:
        sections = self._sections.get(f.data)
        if sections is None:
            sections = self._sections[f.data] = segment(f.data)
        return sections

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
    discriminacy: float
    byte_len: int


# -- Tokenization ----------------------------------------------------------


def _tokenize(data: bytes) -> str:
    """One element's tokens: each hex run in angle brackets is one _HEX
    between its brackets, then each digit run is one _NUM."""
    return _NUM_RE.sub(_NUM, _HEX_RE.sub("<" + _HEX + ">", data.decode("latin-1")))


def _file_tokens(haystacks: list[bytes], tokenized: dict[bytes, str]) -> str:
    """One file's elements as one token stream; ``tokenized`` keeps each
    distinct element's tokens across calls."""
    parts: list[str] = []
    for hay in haystacks:
        tokens = tokenized.get(hay)
        if tokens is None:
            tokens = tokenized[hay] = _tokenize(hay)
        parts.append(tokens)
    return _SEP.join(parts)


# -- Maximal common substrings ----------------------------------------------

# Per state: the length of its longest string, its suffix link, its
# transitions and the end position of its first occurrence.
_Automaton = tuple[list[int], list[int], list[dict[str, int]], list[int]]


def _automaton(tokens: str) -> _Automaton:
    """Suffix automaton of ``tokens`` (Blumer et al., TCS 1985).

    State 0 is the root; there are at most ``2 * len(tokens)`` states.
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


def _common_across(files_tokens: list[str], min_tokens: int) -> list[str]:
    """Maximal token runs of at least ``min_tokens`` found in every file.

    Each stream is one file's elements joined by ``_SEP`` (see
    :func:`_file_tokens`); no run crosses a separator.  A one-file group
    returns each distinct non-empty element once, in first-seen order.
    Otherwise the runs come sorted by (length desc, tokens).

    A stream is walked unless it repeats one already seen or, after a walk
    that lowered no common length, it holds every current maximal run as
    a substring: each state's common string lies inside one, so a walk
    would find it.  A stream that lacks a run lowers that run's state, so
    testing pauses until a walk again lowers nothing.
    """
    if len(files_tokens) == 1:
        return [part for part in dict.fromkeys(files_tokens[0].split(_SEP)) if part]
    # Common runs are the same whichever file the automaton holds; the
    # shortest keeps it smallest.
    base_index = min(range(len(files_tokens)), key=lambda i: len(files_tokens[i]))
    base = files_tokens[base_index]
    automaton = length, link, trans, _ = _automaton(base)
    states = len(length)
    by_length_desc = sorted(range(1, states), key=length.__getitem__, reverse=True)
    common = list(length)
    seen: set[str] = set()
    # The maximal runs of ``common`` (of one token or more), once computed
    # and until a walk lowers ``common``.
    runs: list[str] | None = None
    testing = False
    for index, tokens in enumerate(files_tokens):
        if index == base_index:
            continue
        # A stream equal to one already seen has the same matching
        # statistics, so it cannot lower ``common`` any further.
        if tokens in seen:
            continue
        seen.add(tokens)
        if testing:
            if runs is None:
                runs = _maximal_runs(base, automaton, common, 1)
            if all(run in tokens for run in runs):
                continue
        # Matching statistics: the longest match ending at each token,
        # recorded at the state that holds it.
        best = [0] * states
        state = matched = 0
        for tok in tokens:
            if tok == _SEP:
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
        lowered = False
        for v in by_length_desc:
            run = best[v]
            if run:
                best[link[v]] = length[link[v]]
            if run < common[v]:
                common[v] = run
                lowered = True
        if lowered:
            runs = None
        testing = not lowered
    if runs is None:
        return _maximal_runs(base, automaton, common, min_tokens)
    return [run for run in runs if len(run) >= min_tokens]


def _maximal_runs(base: str, automaton: _Automaton, common: list[int],
                  min_tokens: int) -> list[str]:
    """The maximal runs of at least ``min_tokens`` that ``common`` holds,
    sorted by (length desc, tokens).

    ``common[v]`` is 0 or the length of the longest common string of
    state ``v`` of ``base``'s automaton.  That string extends left into a
    suffix-link child and right along a transition.
    """
    length, link, trans, end = automaton
    states = len(length)
    left_common = [False] * states
    for w in range(1, states):
        if common[w]:
            left_common[link[w]] = True
    runs: list[str] = []
    for v in range(1, states):
        run = common[v]
        if run < min_tokens:
            continue
        if run == length[v] and left_common[v]:
            continue
        if any(common[u] > run for u in trans[v].values()):
            continue
        runs.append(base[end[v] - run + 1 : end[v] + 1])
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


# A run split at these is its literal pieces with the slots between them.
_SLOT_RE = re.compile(f"([{_NUM}{_HEX}])")
_SLOT_PROBES = {_NUM: b"([0-9]+)", _HEX: b"([0-9A-Fa-f]{16,})"}


def _build_template(run: str, haystacks: Iterable[bytes]) -> str | None:
    """Turn a common token run into regex source, generalizing the digit
    and hex slots whose values vary across the group's ``haystacks`` (each
    distinct element once suffices).

    The run splits at its ``_NUM`` and ``_HEX`` characters into literal
    pieces.  A probe of those pieces, with a group around each slot, reads
    every value each slot takes in the haystacks.
    """
    pieces = _SLOT_RE.split(run)
    literals = [piece.encode("latin-1") for piece in pieces[::2]]
    slots = pieces[1::2]
    values: list[set[bytes]] = [set() for _ in slots]
    if slots:
        probe = re.compile(b"".join(
            re.escape(literal) + _SLOT_PROBES[slot] for literal, slot in zip(literals, slots)
        ) + re.escape(literals[-1]))
        for hay in haystacks:
            for m in probe.finditer(hay):
                for seen, value in zip(values, m.groups()):
                    seen.add(value)
        if not all(values):
            return None  # never observed as a whole; not a real common run
    parts = [escape_literal(literals[0])]
    for slot, seen, literal in zip(slots, values, literals[1:]):
        if len(seen) == 1:
            parts.append(next(iter(seen)).decode("ascii"))
        elif slot == _NUM:
            parts.append("[0-9]*")
        elif any(value != value.upper() for value in seen):
            parts.append("[0-9A-Fa-f]*")
        else:
            parts.append("[0-9A-F]*")
        parts.append(escape_literal(literal))
    return "".join(parts)


# -- Mining -------------------------------------------------------------------


def _group_haystacks(corpus: LabeledCorpus, group: list[CorpusFile],
                     section: SectionKind) -> list[list[bytes]]:
    return [element_bytes(corpus.sections_of(f), section)[0] for f in group]


def _matcher(regex: re.Pattern[bytes]) -> Callable[[tuple[bytes, ...]], bool]:
    """Whether any element of a file matches ``regex``; each distinct
    element is searched at most once."""
    found: dict[bytes, bool] = {}

    def matches(elements: tuple[bytes, ...]) -> bool:
        for hay in elements:
            hit = found.get(hay)
            if hit is None:
                hit = found[hay] = regex.search(hay) is not None
            if hit:
                return True
        return False

    return matches


def _fraction_matching(matches: Callable[[tuple[bytes, ...]], bool],
                       files: Counter[tuple[bytes, ...]]) -> float:
    """The share of ``files`` (each distinct file once, with its count)
    that ``matches``."""
    return sum(n for elements, n in files.items() if matches(elements)) / files.total()


def check_thresholds(min_len: int, max_discriminacy: float) -> None:
    """Reject mining thresholds that :func:`mine` cannot honour."""
    if min_len < 4:
        raise ValueError("min_len must be at least 4")
    if not 0.0 <= max_discriminacy <= 1.0:
        raise ValueError(f"max_discriminacy must be between 0 and 1, not {max_discriminacy}")


def mine(corpus: LabeledCorpus, section: SectionKind, min_len: int = 8,
         max_discriminacy: float = 0.0) -> dict[str, list[CandidatePattern]]:
    """Mine one section across the whole corpus.

    Returns, per producer, the candidates that match every file of the
    producer, with discriminacy at or below the threshold (a share, 0 to
    1) and a concrete match of at least ``min_len`` bytes, sorted by
    (discriminacy, length desc, template).
    """
    check_thresholds(min_len, max_discriminacy)
    groups = corpus.groups
    if not groups:
        raise EmptyGroup("corpus has no files")
    all_haystacks = {
        producer: _group_haystacks(corpus, group, section)
        for producer, group in groups.items()
    }
    return _mine_elements(all_haystacks, section, min_len, max_discriminacy)


def _mine_elements(all_haystacks: dict[str, list[list[bytes]]], section: SectionKind,
                   min_len: int, max_discriminacy: float) -> dict[str, list[CandidatePattern]]:
    """:func:`mine` over each producer's files, given as their element bytes."""
    if all(not any(h) for h in all_haystacks.values()):
        raise SectionAbsentEverywhere(section.value)
    files = {producer: Counter(map(tuple, haystacks))
             for producer, haystacks in all_haystacks.items()}
    tokenized: dict[bytes, str] = {}

    results: dict[str, list[CandidatePattern]] = {}
    for producer, own in all_haystacks.items():
        candidates: list[CandidatePattern] = []
        # A file with no element has an empty stream, which holds no run.
        file_tokens = [_file_tokens(h, tokenized) for h in own]
        distinct = {hay for elements in files[producer] for hay in elements}
        for run in _common_across(file_tokens, min_tokens=2):
            template = _build_template(run, distinct)
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
            matches = _matcher(regex)
            if not all(map(matches, files[producer])):
                continue  # some own file lacks it
            disc = 0.0
            for other, other_files in files.items():
                if other == producer:
                    continue
                share = _fraction_matching(matches, other_files)
                if share > max_discriminacy:
                    break
                disc = max(disc, share)
            else:
                candidates.append(CandidatePattern(producer, section, template, disc, byte_len))
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
                f"{slug}-{cand.section.value}-{idx}", producer, cand.section, cand.template,
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
