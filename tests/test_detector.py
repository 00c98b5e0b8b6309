"""Detector: section verdicts, majority vote, classification, OS inference."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from pdfprov.detector import (
    Status,
    VerdictKind,
    classify,
    detect,
    detect_os,
    majority_vote,
    section_verdict,
)
from pdfprov import rules
from pdfprov.builtin_pack import builtin
from pdfprov.fixtures import PROFILES, generate
from pdfprov.producers import Producer
from pdfprov.rules import (Rule, RuleKind, RuleMatch, Rulepack, SECTION_ORDER, SectionKind,
                           load_rulepack)
from pdfprov.segmenter import segment

W = Producer.MICROSOFT_OFFICE_WORD.value
LO = Producer.LIBREOFFICE.value
PT = Producer.PDFTEX.value
LT = Producer.LUATEX.value
GS = Producer.GHOSTSCRIPT.value


def _match(producer: str, section=SectionKind.BODY, rule_id: str = "r",
           element: str = "obj:1:0",
           os_tags=frozenset(), distro_tags=frozenset()) -> RuleMatch:
    rule = Rule(rule_id, producer, section, RuleKind.TEMPLATE, "", frozenset(os_tags),
                frozenset(distro_tags))
    return RuleMatch(rule, element, 0)


def _verdicts(header=(), body=(), xref=(), trailer=()):
    sets = {SectionKind.HEADER: header, SectionKind.BODY: body,
            SectionKind.XREF: xref, SectionKind.TRAILER: trailer}
    return {
        kind: frozenset(candidates)
        for kind, candidates in sets.items()
    }


# -- section_verdict ---------------------------------------------------------


def test_singleton_candidates():
    assert section_verdict([_match(W, rule_id="word-body-1")], SectionKind.BODY) == {W}


def test_shared_magic_yields_both_producers():
    matches = [
        _match(PT, SectionKind.HEADER, "header-pdftex", "header"),
        _match(LT, SectionKind.HEADER, "header-luatex-texlive-linux", "header"),
    ]
    assert section_verdict(matches, SectionKind.HEADER) == {PT, LT}


def test_no_matches_no_candidates():
    assert section_verdict([], SectionKind.XREF) == frozenset()


def test_xref_matches_nominate_like_any_other():
    matches = [_match(PT, SectionKind.XREF, "pdftex-xref-0", "xref:0"),
               _match(LT, SectionKind.BODY, "luatex-body-0")]
    assert section_verdict(matches, SectionKind.XREF) == {PT}


# -- majority_vote -----------------------------------------------------------


def test_strict_majority():
    v = majority_vote(_verdicts(header={PT}, body={PT}, xref={PT}, trailer={GS}))
    assert v.kind is VerdictKind.PRODUCER
    assert v.producer == PT
    assert v.votes == {GS: 1, PT: 3}


def test_two_two_tie_is_ambiguous():
    v = majority_vote(_verdicts(header={W}, body={W}, xref={LO}, trailer={LO}))
    assert v.kind is VerdictKind.AMBIGUOUS
    assert v.candidates == {W, LO}


def test_four_empty_sections_no_result():
    v = majority_vote(_verdicts())
    assert v.kind is VerdictKind.NO_RESULT
    assert v.votes == {}


def test_multi_candidate_sections_vote_for_each():
    v = majority_vote(_verdicts(header={PT, LT}, body={PT}, trailer={PT, LT}))
    assert v.kind is VerdictKind.PRODUCER
    assert v.producer == PT
    assert v.votes == {LT: 2, PT: 3}


def test_single_vote_wins_only_alone():
    alone = majority_vote(_verdicts(trailer={GS}))
    assert alone.kind is VerdictKind.PRODUCER and alone.producer == GS
    contested = majority_vote(_verdicts(header={W}, trailer={GS}))
    assert contested.kind is VerdictKind.AMBIGUOUS
    assert contested.candidates == {W, GS}


def test_vote_conservation(corpus_bytes):
    pack = builtin()
    for blobs in corpus_bytes.values():
        verdict = detect(pack, segment(blobs[0]))
        assert all(v <= 4 for v in verdict.votes.values())


def test_a_pack_filtered_to_two_sections_matches_only_them(monkeypatch):
    # The builtin pack has no xref rule; one over the classic table gives it one.
    xref_rule = load_rulepack('rule xref-word {\n  producer = MicrosoftOfficeWord\n'
                              '  section = xref\n  kind = template\n  pattern = "^xref"\n}\n')
    pack = Rulepack(builtin().rules + xref_rule.rules)
    sections = segment(generate(PROFILES[Producer.MICROSOFT_OFFICE_WORD], 1))
    full = detect(pack, sections)
    assert all(full.evidence[kind] for kind in SECTION_ORDER)
    searched = []
    element_bytes = rules.element_bytes
    monkeypatch.setattr(rules, "element_bytes",
                        lambda *args: searched.append(args[1]) or element_bytes(*args))
    for pair in itertools.combinations(SECTION_ORDER, 2):
        searched.clear()
        verdict = detect(Rulepack([r for r in pack.rules if r.section in pair]), sections)
        # No element of another section is even built.
        assert searched == list(pair)
        assert verdict.section_verdicts == {
            kind: full.section_verdicts[kind] if kind in pair else frozenset()
            for kind in SECTION_ORDER}
        assert verdict.evidence == {kind: full.evidence[kind] if kind in pair else ()
                                    for kind in SECTION_ORDER}


@settings(max_examples=80, deadline=None)
@given(st.permutations(list(SECTION_ORDER)),
       st.lists(st.sets(st.sampled_from([W, LO, PT]), max_size=2),
                min_size=4, max_size=4))
def test_vote_is_permutation_stable(order, candidate_sets):
    base = {
        kind: frozenset(cands)
        for kind, cands in zip(SECTION_ORDER, candidate_sets)
    }
    shuffled = {kind: base[kind] for kind in order}
    a, b = majority_vote(base), majority_vote(shuffled)
    assert (a.kind, a.producer, a.candidates, a.votes) == (
        b.kind, b.producer, b.candidates, b.votes
    )


def test_outcome_trichotomy_exhaustive():
    producers = [W, LO, PT]
    options = [frozenset()] + [frozenset({p}) for p in producers] + [
        frozenset(pair) for pair in itertools.combinations(producers, 2)
    ]
    for config in itertools.product(options, repeat=4):
        verdict = majority_vote({
            kind: cands
            for kind, cands in zip(SECTION_ORDER, config)
        })
        kinds = [verdict.kind is VerdictKind.PRODUCER,
                 verdict.kind is VerdictKind.AMBIGUOUS,
                 verdict.kind is VerdictKind.NO_RESULT]
        assert sum(kinds) == 1


def test_extra_vote_for_winner_never_flips():
    for header in ({W}, {W, LO}):
        base = _verdicts(header=header, body={W}, trailer={LO})
        with_extra = _verdicts(header=header, body={W}, xref={W}, trailer={LO})
        before = majority_vote(base)
        after = majority_vote(with_extra)
        if before.kind is VerdictKind.PRODUCER:
            assert after.producer == before.producer


# -- classify ------------------------------------------------------------------


def test_classify_correct():
    v = majority_vote(_verdicts(header={GS}, trailer={GS}))
    assert classify(v, GS).file_status is Status.CORRECT


def test_classify_confused_section():
    v = majority_vote(_verdicts(header={PT, LT}, body={PT}, trailer={PT}))
    outcome = classify(v, PT)
    assert outcome.sections[SectionKind.HEADER] == ("wrong", "confused")


def test_classify_error_section():
    v = majority_vote(_verdicts(header={Producer.CAIRO.value, Producer.SKIA_PDF.value}))
    outcome = classify(v, W)
    assert outcome.sections[SectionKind.HEADER] == ("wrong", "error")


def test_classify_ambiguous_is_wrong_at_file_level():
    v = majority_vote(_verdicts(header={W}, body={W}, xref={LO}, trailer={LO}))
    assert classify(v, W).file_status is Status.WRONG
    assert classify(v, W).file_tallies == ("wrong", "ambiguous_within_wrong")


def test_classify_no_result():
    v = majority_vote(_verdicts())
    outcome = classify(v, W)
    assert outcome.file_status is Status.NO_RESULT
    assert all(s == ("no_result",) for s in outcome.sections.values())


def test_classify_pure_function():
    v = majority_vote(_verdicts(header={GS}, trailer={GS}))
    assert classify(v, GS) == classify(v, GS)


# -- detect_os -----------------------------------------------------------------


def test_word_windows_tag():
    data = generate(PROFILES[Producer.MICROSOFT_OFFICE_WORD], 1)
    verdict = detect(builtin(), segment(data))
    assert verdict.os_candidates == (("windows", None),)


def test_agnostic_matches_make_no_claim():
    data = generate(PROFILES[Producer.PDFTEX], 1)
    verdict = detect(builtin(), segment(data))
    assert verdict.producer == PT
    assert verdict.os_candidates == ()


def test_conflicting_tags_make_no_claim():
    # The long LuaTeX magic has two readings (linux/miktex vs mac+win);
    # their intersection is empty, so no OS is claimed.
    data = generate(PROFILES[Producer.LUATEX], 1)
    verdict = detect(builtin(), segment(data))
    assert verdict.producer == LT
    assert verdict.os_candidates == ()


def test_shared_magic_tags_apply_to_winner_only():
    matches = {
        SectionKind.HEADER: [
            _match(PT, SectionKind.HEADER, "header-pdftex", "header"),
            _match(LT, SectionKind.HEADER, "header-luatex-texlive-linux", "header",
                   os_tags={"linux"}, distro_tags={"texlive"}),
        ],
        SectionKind.BODY: [], SectionKind.XREF: [], SectionKind.TRAILER: [],
    }
    verdict = majority_vote(_verdicts(header={LT}, body={LT}))
    assert verdict.producer == LT
    assert detect_os(verdict, matches) == (("linux", "texlive"),)


def test_no_os_from_non_producer_verdicts():
    verdict = majority_vote(_verdicts())
    assert detect_os(verdict, {k: [] for k in SECTION_ORDER}) == ()
