"""Per-section candidate sets, majority voting and outcome classification.

Each section nominates the set of producers whose rules matched it.  The
file-level verdict combines the four sections by counting, per producer,
how many sections nominated it:

* a unique maximum of two or more votes names that producer;
* a tied maximum is reported as ambiguous rather than decided by chance;
* a single vote wins only when no other producer received any vote;
* four empty sections yield no result.

A section's verdict is that candidate set, a frozenset of producer
names: every rule that fired on the section nominates its producer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

from .rules import (
    SECTION_ORDER,
    RuleMatch,
    Rulepack,
    SectionKind,
    evaluate_sections,
)
from .segmenter import PdfSections


class VerdictKind(str, Enum):
    PRODUCER = "producer"
    AMBIGUOUS = "ambiguous"
    NO_RESULT = "no_result"


class Status(str, Enum):
    CORRECT = "correct"
    WRONG = "wrong"
    NO_RESULT = "no_result"


@dataclass
class Verdict:
    """The vote-combined answer for one file."""

    kind: VerdictKind
    producer: str | None
    candidates: frozenset[str]
    votes: dict[str, int]
    section_verdicts: dict[SectionKind, frozenset[str]]
    os_candidates: tuple[tuple[str, str | None], ...] = ()
    # Filled in by detect(): every fired rule id per section.
    evidence: dict[SectionKind, tuple[str, ...]] = field(default_factory=dict)


# The table cells a file and a section count toward, in table order.
FILE_TALLIES = ("correct", "wrong", "no_result", "ambiguous_within_wrong")
SECTION_TALLIES = ("correct", "wrong", "no_result", "confused", "error")


@dataclass
class OutcomeClass:
    """A verdict graded against a known ground truth: the names of the cells
    the file and each section count toward, a ``Status`` value first."""

    file_status: Status
    file_tallies: tuple[str, ...]
    sections: dict[SectionKind, tuple[str, ...]]


def section_verdict(matches: Iterable[RuleMatch], section: SectionKind) -> frozenset[str]:
    """The producers that one section's matches nominate."""
    return frozenset(m.rule.producer for m in matches if m.rule.section == section)


def majority_vote(section_verdicts: Mapping[SectionKind, frozenset[str]]) -> Verdict:
    """Combine the four per-section candidate sets by majority vote."""
    votes: dict[str, int] = {}
    for kind in SECTION_ORDER:
        for producer in section_verdicts.get(kind, ()):
            votes[producer] = votes.get(producer, 0) + 1
    top = max(votes.values(), default=0)
    leaders = frozenset(p for p, v in votes.items() if v == top)
    # A lone leader with a single vote can still win, but only because
    # nobody else received any vote at all: a 1-1 split is ambiguous.
    if not leaders:
        kind = VerdictKind.NO_RESULT
    elif len(leaders) == 1:
        kind = VerdictKind.PRODUCER
    else:
        kind = VerdictKind.AMBIGUOUS
    producer = next(iter(leaders)) if kind is VerdictKind.PRODUCER else None
    return Verdict(kind, producer, leaders, dict(sorted(votes.items())),
                   dict(section_verdicts))


def detect_os(
    verdict: Verdict, matches: Mapping[SectionKind, list[RuleMatch]]
) -> tuple[tuple[str, str | None], ...]:
    """Infer OS (and distribution) by intersecting tags of the winner's matches.

    Tags are rare and an over-claim is worse than silence, so this
    intersects rather than votes: any contradiction, or the absence of
    OS-tagged matches, yields no claim.
    """
    if verdict.kind is not VerdictKind.PRODUCER:
        return ()
    os_sets: list[frozenset[str]] = []
    distro_sets: list[frozenset[str]] = []
    for section_matches in matches.values():
        for m in section_matches:
            if m.rule.producer != verdict.producer:
                continue
            if m.rule.os_tags:
                os_sets.append(m.rule.os_tags)
            if m.rule.distro_tags:
                distro_sets.append(m.rule.distro_tags)
    if not os_sets:
        return ()
    os_common = frozenset.intersection(*os_sets)
    if not os_common:
        return ()
    distro_common: frozenset[str] = (
        frozenset.intersection(*distro_sets) if distro_sets else frozenset()
    )
    distros: tuple[str | None, ...] = tuple(sorted(distro_common)) or (None,)
    return tuple((o, d) for o in sorted(os_common) for d in distros)


def detect(pack: Rulepack, sections: PdfSections,
           only: Iterable[SectionKind] | None = None) -> Verdict:
    """Match the sections in ``only`` (default: all four), vote and infer OS."""
    matches = evaluate_sections(pack, sections, SECTION_ORDER if only is None else set(only))
    verdict = majority_vote({kind: section_verdict(matches[kind], kind) for kind in SECTION_ORDER})
    verdict.os_candidates = detect_os(verdict, matches)
    # Evidence lists every fired rule; each fired rule has one match, and
    # matches come in rule-id order.
    verdict.evidence = {kind: tuple(m.rule.id for m in matches[kind]) for kind in SECTION_ORDER}
    return verdict


def classify(verdict: Verdict, ground_truth: str) -> OutcomeClass:
    """Grade a verdict, per section and at file level, against the truth."""
    sections: dict[SectionKind, tuple[str, ...]] = {}
    for kind, candidates in verdict.section_verdicts.items():
        if not candidates:
            sections[kind] = ("no_result",)
        elif candidates == {ground_truth}:
            sections[kind] = ("correct",)
        elif len(candidates) == 2:
            sections[kind] = ("wrong", "confused" if ground_truth in candidates else "error")
        else:
            sections[kind] = ("wrong",)
    if verdict.kind is VerdictKind.NO_RESULT:
        file_tallies: tuple[str, ...] = ("no_result",)
    elif verdict.kind is VerdictKind.AMBIGUOUS:
        file_tallies = ("wrong", "ambiguous_within_wrong")
    elif verdict.producer == ground_truth:
        file_tallies = ("correct",)
    else:
        file_tallies = ("wrong",)
    return OutcomeClass(Status(file_tallies[0]), file_tallies, sections)
