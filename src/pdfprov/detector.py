"""Per-section candidate sets, majority voting and outcome classification.

Each section nominates the set of producers whose rules matched it.  The
file-level verdict combines the four sections by counting, per producer,
how many sections nominated it:

* a unique maximum of two or more votes names that producer;
* a tied maximum is reported as ambiguous rather than decided by chance;
* a single vote wins only when no other producer received any vote;
* four empty sections yield no result.

A section's verdict is that candidate set, a frozenset of producer
names.  Presence matches flagged advisory (the ubiquitous "has a classic
xref table" fact) never nominate; they only feed OS/distribution inference.
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


class Refinement(str, Enum):
    CONFUSED = "confused"  # two candidates, one of them the true producer
    ERROR = "error"  # two candidates, neither the true producer


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


@dataclass
class SectionOutcome:
    status: Status
    refinement: Refinement | None = None


@dataclass
class OutcomeClass:
    """Classification of a verdict against a known ground truth."""

    file_status: Status
    sections: dict[SectionKind, SectionOutcome]


def section_verdict(matches: Iterable[RuleMatch], section: SectionKind) -> frozenset[str]:
    """The producers that one section's non-advisory matches nominate."""
    return frozenset(m.producer for m in matches if m.section == section and not m.advisory)


def majority_vote(section_verdicts: Mapping[SectionKind, frozenset[str]]) -> Verdict:
    """Combine the four per-section candidate sets by majority vote."""
    votes: dict[str, int] = {}
    for kind in SECTION_ORDER:
        for producer in section_verdicts.get(kind, ()):
            votes[producer] = votes.get(producer, 0) + 1
    ordered_votes = dict(sorted(votes.items()))
    if not votes:
        return Verdict(VerdictKind.NO_RESULT, None, frozenset(), ordered_votes,
                       dict(section_verdicts))
    top = max(votes.values())
    leaders = frozenset(p for p, v in votes.items() if v == top)
    if len(leaders) == 1:
        # A lone leader with a single vote can still win, but only because
        # nobody else received any vote at all: a 1-1 split is ambiguous.
        return Verdict(VerdictKind.PRODUCER, next(iter(leaders)), leaders,
                       ordered_votes, dict(section_verdicts))
    return Verdict(VerdictKind.AMBIGUOUS, None, leaders, ordered_votes,
                   dict(section_verdicts))


def detect_os(
    verdict: Verdict, matches: Mapping[SectionKind, list[RuleMatch]]
) -> tuple[tuple[str, str | None], ...]:
    """Infer OS (and distribution) by intersecting tags of the winner's matches.

    Tags are rare and an over-claim is worse than silence, so this
    intersects rather than votes: any contradiction, or the absence of
    OS-tagged matches, yields no claim.  Advisory matches participate;
    they exist chiefly to carry distribution evidence.
    """
    if verdict.kind is not VerdictKind.PRODUCER:
        return ()
    os_sets: list[frozenset[str]] = []
    distro_sets: list[frozenset[str]] = []
    for section_matches in matches.values():
        for m in section_matches:
            if m.producer != verdict.producer:
                continue
            if m.os_tags:
                os_sets.append(m.os_tags)
            if m.distro_tags:
                distro_sets.append(m.distro_tags)
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
    """Match, vote and infer OS on one segmented file."""
    matches = evaluate_sections(pack, sections)
    if only is not None:
        wanted = set(only)
        matches = {kind: found if kind in wanted else [] for kind, found in matches.items()}
    verdict = majority_vote({kind: section_verdict(matches[kind], kind) for kind in SECTION_ORDER})
    verdict.os_candidates = detect_os(verdict, matches)
    # Evidence lists every fired rule, advisory ones included; each fired
    # rule has one match, and matches come in rule-id order.
    verdict.evidence = {kind: tuple(m.rule_id for m in matches[kind]) for kind in SECTION_ORDER}
    return verdict


def classify(verdict: Verdict, ground_truth: str) -> OutcomeClass:
    """Grade a verdict, per section and at file level, against the truth."""
    sections: dict[SectionKind, SectionOutcome] = {}
    for kind, candidates in verdict.section_verdicts.items():
        if not candidates:
            sections[kind] = SectionOutcome(Status.NO_RESULT)
            continue
        status = Status.CORRECT if candidates == {ground_truth} else Status.WRONG
        refinement = None
        if len(candidates) == 2:
            refinement = (
                Refinement.CONFUSED if ground_truth in candidates else Refinement.ERROR
            )
        sections[kind] = SectionOutcome(status, refinement)
    if verdict.kind is VerdictKind.NO_RESULT:
        file_status = Status.NO_RESULT
    elif verdict.kind is VerdictKind.PRODUCER and verdict.producer == ground_truth:
        file_status = Status.CORRECT
    else:
        file_status = Status.WRONG
    return OutcomeClass(file_status, sections)
