"""Miner: template rediscovery, scoring invariants, emission round-trip."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdfprov.errors import EmptyGroup
from pdfprov.fixtures import PROFILES, emit_corpus, generate
from pdfprov.miner import (
    CandidatePattern,
    CorpusFile,
    LabeledCorpus,
    _common_across,
    _file_tokens,
    _tokenize,
    emit_rulepack,
    mine,
    mine_all,
    uniform_group_labels,
)
from pdfprov.producers import Producer
from pdfprov.rules import RuleKind, SectionKind, compile_pattern, load_rulepack

WORD = Producer.MICROSOFT_OFFICE_WORD.value
WORD_TEMPLATE = "4 0 obj\\r\\n<</Filter/FlateDecode/Length [0-9]*>>\\r\\nstream\\r\\n"


def _corpus(seeds=range(1, 6), producers=None) -> LabeledCorpus:
    files = []
    for producer, profile in PROFILES.items():
        if producers and producer not in producers:
            continue
        for seed in seeds:
            files.append(CorpusFile(generate(profile, seed), producer.value,
                                    profile.os_label, profile.distro_label))
    return LabeledCorpus(files)


def test_a_fixture_manifest_reads_back_each_profiles_labels(tmp_path):
    corpus = LabeledCorpus.from_manifest(emit_corpus(tmp_path, seeds=range(1, 3)))
    expected = [(generate(PROFILES[p], seed), p.value, PROFILES[p].os_label,
                 PROFILES[p].distro_label) for p in Producer for seed in (1, 2)]
    assert [(f.data, f.producer, f.os, f.distro) for f in corpus.files] == expected


def _word_pair(length_a: bytes, length_b: bytes) -> LabeledCorpus:
    def blob(n: bytes, filler: bytes) -> bytes:
        return (b"%PDF-1.7\r\n%\xB5\xB5\xB5\xB5\r\n"
                b"4 0 obj\r\n<</Filter/FlateDecode/Length " + n + b">>\r\nstream\r\n"
                + filler + b"\r\nendstream\r\nendobj\r\n")

    return LabeledCorpus([
        CorpusFile(blob(length_a, b"QQQQQQQQQQ"), WORD),
        CorpusFile(blob(length_b, b"ZZZZZZZZZZ"), WORD),
    ])


def test_word_template_rediscovered_from_two_files():
    corpus = _word_pair(b"2413", b"187")
    candidates = mine(corpus, SectionKind.BODY)[WORD]
    assert any(c.template == WORD_TEMPLATE for c in candidates)
    assert all(c.support == 1.0 for c in candidates)


def test_constant_runs_stay_literal():
    corpus = _word_pair(b"2413", b"2413")
    candidates = mine(corpus, SectionKind.BODY)[WORD]
    assert any("Length 2413>>" in c.template for c in candidates)


def test_single_file_group_has_full_support():
    corpus = LabeledCorpus([CorpusFile(generate(PROFILES[Producer.CAIRO], 1), "Cairo")])
    candidates = mine(corpus, SectionKind.TRAILER)["Cairo"]
    assert candidates, "a lone file should still yield its own substrings"
    assert all(c.support == 1.0 for c in candidates)


def test_disjoint_files_yield_no_candidates():
    # Only the unavoidable "N G obj" / "endobj" scaffolding is shared, and
    # it falls below the length floor.
    corpus = LabeledCorpus([
        CorpusFile(b"%PDF-1.4\n1 5 obj\n<</AAAA 1>>\nendobj\n", "Cairo"),
        CorpusFile(b"%PDF-1.4\n2 7 obj\n[9 9 9 9]\nendobj\n", "Cairo"),
    ])
    assert mine(corpus, SectionKind.BODY, min_len=16)["Cairo"] == []


def test_empty_group_rejected():
    with pytest.raises(EmptyGroup):
        mine(LabeledCorpus([]), SectionKind.BODY)


def test_xref_absence_becomes_presence_candidate():
    corpus = _corpus(seeds=range(1, 4), producers=[Producer.ACROBAT_DISTILLER])
    candidates = mine(corpus, SectionKind.XREF)[Producer.ACROBAT_DISTILLER.value]
    assert [c.kind for c in candidates] == [RuleKind.PRESENCE]
    assert candidates[0].template == "^A$"


def test_xref_absence_shared_by_other_producer_is_filtered():
    corpus = _corpus(seeds=range(1, 4),
                     producers=[Producer.ACROBAT_DISTILLER, Producer.XDVIPDFMX])
    candidates = mine(corpus, SectionKind.XREF)
    assert candidates[Producer.ACROBAT_DISTILLER.value] == []
    assert candidates[Producer.XDVIPDFMX.value] == []


def test_soundness_and_discriminacy_of_mined_pack():
    corpus = _corpus(seeds=range(1, 6))
    groups = corpus.groups
    for section in (SectionKind.BODY, SectionKind.TRAILER):
        for producer, candidates in mine(corpus, section).items():
            for cand in candidates:
                regex = compile_pattern(cand.template)
                from pdfprov.miner import _group_haystacks, _fraction_matching
                own = _group_haystacks(corpus, groups[producer], section)
                assert _fraction_matching(regex, own) == 1.0
                for other, files in groups.items():
                    if other == producer:
                        continue
                    hay = _group_haystacks(corpus, files, section)
                    assert _fraction_matching(regex, hay) == 0.0


def test_mining_ignores_metadata_objects():
    base = _corpus(seeds=range(1, 4), producers=[Producer.GHOSTSCRIPT,
                                                 Producer.LIBREOFFICE])
    mined = mine(base, SectionKind.BODY)
    for candidates in mined.values():
        for cand in candidates:
            assert "Producer" not in cand.template
            assert "Ghostscript" not in cand.template


def test_order_insensitive():
    files = _corpus(seeds=range(1, 5), producers=[Producer.MICROSOFT_OFFICE_WORD,
                                                  Producer.GHOSTSCRIPT]).files
    rng = random.Random(7)
    baseline = None
    for _ in range(3):
        shuffled = list(files)
        rng.shuffle(shuffled)
        mined = mine(LabeledCorpus(shuffled), SectionKind.BODY)
        key = {p: sorted(c.template for c in cands) for p, cands in mined.items()}
        if baseline is None:
            baseline = key
        assert key == baseline


def test_min_len_floor():
    with pytest.raises(ValueError):
        mine(_word_pair(b"1", b"2"), SectionKind.BODY, min_len=2)


def test_emit_empty_is_valid():
    text = emit_rulepack({}, "empty")
    pack = load_rulepack(text)
    assert pack.rules == []
    assert text.startswith("#")


def test_emit_single_candidate_block():
    cand = CandidatePattern(WORD, SectionKind.BODY, WORD_TEMPLATE,
                            RuleKind.TEMPLATE, 1.0, 0.0, 52)
    text = emit_rulepack({WORD: [cand]}, "one")
    assert "rule word-body-0 {" in text
    pack = load_rulepack(text)
    assert pack.rules[0].pattern == WORD_TEMPLATE


def test_emission_roundtrip_preserves_pattern_count():
    corpus = _corpus(seeds=range(1, 6))
    candidates = mine_all(corpus)
    total = sum(len(c) for c in candidates.values())
    pack = load_rulepack(emit_rulepack(candidates, "mined", uniform_group_labels(corpus)))
    assert len(pack.rules) == total


def test_group_labels_tag_rules():
    corpus = _corpus(seeds=range(1, 4), producers=[Producer.LUATEX, Producer.GHOSTSCRIPT])
    candidates = mine(corpus, SectionKind.TRAILER)
    text = emit_rulepack(candidates, "tagged", uniform_group_labels(corpus))
    pack = load_rulepack(text)
    luatex_rules = [r for r in pack.rules if r.producer == Producer.LUATEX.value]
    assert luatex_rules and all(r.os_tags == {"windows"} for r in luatex_rules)
    assert all(r.distro_tags == {"miktex"} for r in luatex_rules)


# -- Reference search ---------------------------------------------------------
# The pairwise search the suffix automaton replaced: intersect file 0's
# elements with each further file in turn, keeping the maximal runs.  It
# costs about |a|*|b|/alphabet per pair, so it only serves as the oracle.


def _maximal_common(a: tuple[int, ...], b: list[int]) -> set[tuple[int, ...]]:
    """All maximal token substrings of ``a`` that occur in ``b``."""
    positions: dict[int, list[int]] = {}
    for j, tok in enumerate(b):
        positions.setdefault(tok, []).append(j)
    out: set[tuple[int, ...]] = set()
    prev: dict[int, int] = {}
    rows: list[dict[int, int]] = []
    for tok in a:
        row: dict[int, int] = {}
        for j in positions.get(tok, ()):
            row[j] = prev.get(j - 1, 0) + 1
        rows.append(row)
        prev = row
    for i, row in enumerate(rows):
        nxt = rows[i + 1] if i + 1 < len(rows) else {}
        for j, run in row.items():
            if (j + 1) not in nxt:  # not extendable to the right
                out.add(tuple(a[i - run + 1 : i + 1]))
    return out


def _contains(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    n, m = len(big), len(small)
    if m > n:
        return False
    first = small[0]
    for i in range(n - m + 1):
        if big[i] == first and big[i : i + m] == small:
            return True
    return False


def _drop_contained(cands: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    ordered = sorted(cands, key=lambda c: (-len(c), c))
    kept: list[tuple[int, ...]] = []
    for cand in ordered:
        if not any(_contains(k, cand) for k in kept):
            kept.append(cand)
    return kept


def _reference_common_across(files_tokens: list[list[int]], first_haystacks: list[bytes],
                             min_tokens: int) -> list[tuple[int, ...]]:
    cands: list[tuple[int, ...]] = [
        tuple(_tokenize(hay)) for hay in first_haystacks if hay
    ]
    for tokens in files_tokens[1:]:
        found: set[tuple[int, ...]] = set()
        for cand in cands:
            found |= _maximal_common(cand, tokens)
        cands = [c for c in _drop_contained(found) if len(c) >= min_tokens]
        if not cands:
            break
    return cands


# Element bytes: a few letters and delimiters, decimal runs (one _NUM token
# each) and 16+-digit hex strings in angle brackets (one _HEX token each).
_PIECES = st.one_of(
    st.sampled_from([b"a", b"b", b"/", b"<", b">"]),
    st.integers(0, 999).map(lambda n: b"%d" % n),
    st.text("0123456789ABCDEFabcdef", min_size=16, max_size=18).map(
        lambda t: b"<" + t.encode() + b">"
    ),
)
_CHUNK = st.lists(_PIECES, min_size=1, max_size=8).map(b"".join)


@st.composite
def _groups(draw) -> list[list[bytes]]:
    # Elements are built from a shared pool of chunks, so files share long
    # runs with varied boundaries, and elements can be empty or repeat.
    pool = draw(st.lists(_CHUNK, min_size=1, max_size=3))
    element = st.one_of(
        st.sampled_from(pool),
        st.lists(st.one_of(st.sampled_from(pool), _PIECES), max_size=3).map(b"".join),
    )
    file = st.integers(0, 4).flatmap(lambda n: st.lists(element, min_size=n, max_size=n))
    return draw(st.lists(file, min_size=1, max_size=5))


@given(_groups(), st.integers(1, 3))
# "ab" is common but not maximal: its left extension "xab" is common too.
@example([[b"xab", b"yab"], [b"xab", b"zzzzzzzz"]], 1)
@example([[b"xab", b"zzzzzzzz"], [b"xab", b"yab"]], 1)
# "ab" is common, but each file reaches it only through a longer run.
@example([[b"xab", b"yab"], [b"xab", b"zzzzzzzz"], [b"yab", b"zzzzzzzz"]], 1)
@settings(max_examples=300, deadline=None)
def test_common_across_equals_pairwise_search(group, min_tokens):
    files_tokens = [_file_tokens(elements) for elements in group]
    expected = _reference_common_across(files_tokens, group[0], min_tokens)
    assert _common_across(files_tokens, min_tokens) == expected
