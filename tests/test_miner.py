"""Miner: template rediscovery, scoring invariants, emission round-trip."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdfprov.errors import EmptyGroup, SectionAbsentEverywhere
from pdfprov.fixtures import PROFILES, emit_corpus, generate
from pdfprov.miner import (
    CandidatePattern,
    CorpusFile,
    LabeledCorpus,
    _HEX,
    _NUM,
    _SEP,
    _build_template,
    _common_across,
    _file_tokens,
    _mine_elements,
    _tokenize,
    emit_rulepack,
    mine,
    mine_all,
    uniform_group_labels,
)
from pdfprov.producers import Producer
from pdfprov.rules import SectionKind, compile_pattern, element_bytes, load_rulepack

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


def test_sections_follow_the_files_bytes_not_its_identity():
    # Once a file is dropped, a new file may reuse its id, but not its sections.
    corpus = LabeledCorpus([CorpusFile(generate(PROFILES[Producer.CAIRO], 1), "Cairo")])
    corpus.sections_of(corpus.files[0])
    corpus.files.clear()
    corpus.files.append(CorpusFile(generate(PROFILES[Producer.PDFTEX], 1), "PdfTeX"))
    new = corpus.files[0]
    assert corpus.sections_of(new).data == new.data


def _word_pair(length_a: bytes, length_b: bytes) -> LabeledCorpus:
    def blob(n: bytes, filler: bytes) -> bytes:
        return (b"%PDF-1.7\r\n%\xB5\xB5\xB5\xB5\r\n"
                b"4 0 obj\r\n<</Filter/FlateDecode/Length " + n + b">>\r\nstream\r\n"
                + filler + b"\r\nendstream\r\nendobj\r\n")

    return LabeledCorpus([
        CorpusFile(blob(length_a, b"QQQQQQQQQQ"), WORD),
        CorpusFile(blob(length_b, b"ZZZZZZZZZZ"), WORD),
    ])


def _group_elements(corpus: LabeledCorpus, producer: str,
                    section: SectionKind) -> list[list[bytes]]:
    """Each file of ``producer`` as its ``section`` elements."""
    return [element_bytes(corpus.sections_of(f), section)[0] for f in corpus.groups[producer]]


def _match_every_file(candidates, corpus: LabeledCorpus, producer: str,
                      section: SectionKind) -> bool:
    """Whether each candidate's regex matches an element of every file of ``producer``."""
    files = _group_elements(corpus, producer, section)
    return all(any(map(compile_pattern(c.template).search, elements))
               for c in candidates for elements in files)


def test_word_template_rediscovered_from_two_files():
    corpus = _word_pair(b"2413", b"187")
    candidates = mine(corpus, SectionKind.BODY)[WORD]
    assert any(c.template == WORD_TEMPLATE for c in candidates)
    assert _match_every_file(candidates, corpus, WORD, SectionKind.BODY)


def test_constant_runs_stay_literal():
    corpus = _word_pair(b"2413", b"2413")
    candidates = mine(corpus, SectionKind.BODY)[WORD]
    assert any("Length 2413>>" in c.template for c in candidates)


def _trailers(ids: list[bytes]) -> list[list[bytes]]:
    return [[b"<< /Size 7 /ID [<%s><%s>] /Root 1 0 R >>" % (i, i)] for i in ids]


@pytest.mark.parametrize("ids, slot", [
    ([b"0123456789abcdef0123456789abcdef", b"fedcba9876543210fedcba9876543210"], "[0-9A-Fa-f]*"),
    ([b"0123456789ABCDEF0123456789ABCDEF", b"FEDCBA9876543210FEDCBA9876543210"], "[0-9A-F]*"),
], ids=["lowercase", "uppercase"])
def test_a_varying_hex_slot_matches_the_case_it_was_read_in(ids, slot):
    # The tokenizer reads hex runs of either case; a lowercase value needs
    # a slot that matches lowercase, or the template misses its own files.
    (cand,) = _mine_elements({"P": _trailers(ids)}, SectionKind.TRAILER, 8, 0.0)["P"]
    assert cand.template == f"<< /Size 7 /ID \\[<{slot}><{slot}>\\] /Root 1 0 R >>"


def test_single_file_group_has_full_support():
    corpus = LabeledCorpus([CorpusFile(generate(PROFILES[Producer.CAIRO], 1), "Cairo")])
    candidates = mine(corpus, SectionKind.TRAILER)["Cairo"]
    assert candidates, "a lone file should still yield its own substrings"
    assert _match_every_file(candidates, corpus, "Cairo", SectionKind.TRAILER)


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


_XREF_STREAM_PRODUCERS = [Producer.ACROBAT_DISTILLER, Producer.XDVIPDFMX]


def test_xref_mining_gives_templates_over_streams():
    """Files with no classic table mine their xref streams, each file's one
    xref element, into templates that match that element."""
    corpus = _corpus(seeds=range(1, 4), producers=_XREF_STREAM_PRODUCERS)
    mined = mine(corpus, SectionKind.XREF)
    emitted = load_rulepack(emit_rulepack(mined, "xref")).rules
    assert {r.producer for r in emitted} == {p.value for p in _XREF_STREAM_PRODUCERS}
    assert {r.section for r in emitted} == {SectionKind.XREF}
    for producer in _XREF_STREAM_PRODUCERS:
        (cand,) = mined[producer.value]
        assert cand.template.startswith("6 0 obj\\n<</")
        assert cand.template.endswith(">>\\nstream\\n")
        assert "/Type/XRef" in cand.template or "/Type /XRef" in cand.template
        for elements in _group_elements(corpus, producer.value, SectionKind.XREF):
            (stream,) = elements
            assert compile_pattern(cand.template).match(stream)


def test_xref_stream_framing_shared_by_another_producer_is_filtered():
    """Both producers end their xref streams alike; that run is kept for
    one producer alone, and for both only when discriminacy 1 is allowed."""
    framing = "\\nendstream\\nendobj"
    alone = _corpus(seeds=range(1, 4), producers=[Producer.ACROBAT_DISTILLER])
    assert framing in [c.template for c in
                       mine(alone, SectionKind.XREF)[Producer.ACROBAT_DISTILLER.value]]
    both = _corpus(seeds=range(1, 4), producers=_XREF_STREAM_PRODUCERS)
    for threshold, kept in ((0.0, False), (1.0, True)):
        for cands in mine(both, SectionKind.XREF, max_discriminacy=threshold).values():
            framings = [c for c in cands if c.template == framing]
            assert [c.discriminacy for c in framings] == ([1.0] if kept else [])


def test_a_corpus_without_any_xref_element_has_no_xref_section():
    corpus = LabeledCorpus([CorpusFile(b"%PDF-1.4\n1 0 obj\n<<>>\nendobj\n", "Cairo")])
    with pytest.raises(SectionAbsentEverywhere):
        mine(corpus, SectionKind.XREF)
    assert [c.section for c in mine_all(corpus)["Cairo"]] == [SectionKind.BODY]


def test_soundness_and_discriminacy_of_mined_pack():
    corpus = _corpus(seeds=range(1, 6))
    groups = corpus.groups
    for section in (SectionKind.BODY, SectionKind.TRAILER):
        for producer, candidates in mine(corpus, section).items():
            for cand in candidates:
                regex = compile_pattern(cand.template)
                own = _group_elements(corpus, producer, section)
                assert _share_matching(regex, own) == 1.0
                for other in groups:
                    if other == producer:
                        continue
                    hay = _group_elements(corpus, other, section)
                    assert _share_matching(regex, hay) == 0.0


def test_the_discriminacy_threshold_only_filters():
    # A lower threshold stops scoring a candidate early; it must drop
    # exactly the candidates scored above it, and keep the others' scores.
    corpus = _corpus(seeds=range(1, 4))
    shares = set()
    for section in (SectionKind.BODY, SectionKind.TRAILER):
        everything = mine(corpus, section, max_discriminacy=1.0)
        shares |= {c.discriminacy for cands in everything.values() for c in cands}
        for threshold in (0.0, 0.25, 0.5, 1.0):
            expected = {p: [c for c in cands if c.discriminacy <= threshold]
                        for p, cands in everything.items()}
            assert mine(corpus, section, max_discriminacy=threshold) == expected
    assert shares == {0.0, 1.0}


def test_listing_every_file_twice_changes_nothing():
    files = _corpus(seeds=range(1, 4)).files
    twice = LabeledCorpus([f for f in files for _ in range(2)])
    for threshold in (0.0, 0.5):
        assert mine_all(twice, max_discriminacy=threshold) == mine_all(
            LabeledCorpus(files), max_discriminacy=threshold)
    # A one-file group whose two objects share one token stream.
    objects = b"".join(b"%d 0 obj\n<</Type/Foo/Bar 1>>\nendobj\n" % n for n in (1, 2))
    one = [CorpusFile(b"%PDF-1.4\n" + objects + b"trailer\n<</Size 3>>\n", "Cairo"),
           CorpusFile(generate(PROFILES[Producer.LUATEX], 1), Producer.LUATEX.value)]
    once = mine(LabeledCorpus(one), SectionKind.BODY)
    assert [c.template for c in once["Cairo"]] == ["[0-9]* 0 obj\\n<</Type/Foo/Bar 1>>\\nendobj"]
    assert mine(LabeledCorpus([one[0], *one]), SectionKind.BODY) == once


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


@pytest.mark.parametrize("threshold", [-1.0, 1.5, float("nan"), float("inf")])
def test_max_discriminacy_outside_zero_to_one_is_rejected(threshold):
    # Every comparison with nan is false, so nan would admit every
    # template; -1 would admit nothing.
    with pytest.raises(ValueError, match="max_discriminacy"):
        mine(_word_pair(b"1", b"2"), SectionKind.BODY, max_discriminacy=threshold)
    with pytest.raises(ValueError, match="max_discriminacy"):
        mine_all(_word_pair(b"1", b"2"), max_discriminacy=threshold)


def test_max_discriminacy_bounds_are_accepted():
    for threshold in (0.0, 1.0):
        assert mine(_word_pair(b"1", b"2"), SectionKind.BODY, max_discriminacy=threshold)[WORD]


def test_emit_empty_is_valid():
    text = emit_rulepack({}, "empty")
    pack = load_rulepack(text)
    assert pack.rules == []
    assert text.startswith("#")


def test_emit_single_candidate_block():
    cand = CandidatePattern(WORD, SectionKind.BODY, WORD_TEMPLATE, 0.0, 52)
    text = emit_rulepack({WORD: [cand]}, "one")
    assert "rule word-body-0 {" in text
    pack = load_rulepack(text)
    assert pack.rules[0].pattern == WORD_TEMPLATE


def test_emission_roundtrip_preserves_pattern_count():
    corpus = _corpus(seeds=range(1, 6))
    candidates = mine_all(corpus)
    total = sum(len(c) for c in candidates.values())
    text = emit_rulepack(candidates, "mined", uniform_group_labels(corpus))
    assert len(load_rulepack(text).rules) == total
    assert not re.search(r"(?m)^\s*kind\b", text)  # a rule has no kind


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


def _maximal_common(a: str, b: str) -> set[str]:
    """All maximal token substrings of ``a`` that occur in ``b``."""
    positions: dict[str, list[int]] = {}
    for j, tok in enumerate(b):
        positions.setdefault(tok, []).append(j)
    out: set[str] = set()
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
                out.add(a[i - run + 1 : i + 1])
    return out


def _drop_contained(cands: set[str]) -> list[str]:
    ordered = sorted(cands, key=lambda c: (-len(c), c))
    kept: list[str] = []
    for cand in ordered:
        if not any(cand in k for k in kept):
            kept.append(cand)
    return kept


def _reference_common_across(files_tokens: list[str], first_haystacks: list[bytes],
                             min_tokens: int) -> list[str]:
    cands: list[str] = list(dict.fromkeys(
        _one_pass_tokenize(hay) for hay in first_haystacks if hay
    ))
    for tokens in files_tokens[1:]:
        found: set[str] = set()
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


def _file(pool: list[bytes]) -> st.SearchStrategy[list[bytes]]:
    # Elements are built from a shared pool of chunks, so files share long
    # runs with varied boundaries, and elements can be empty or repeat.
    element = st.one_of(
        st.sampled_from(pool),
        st.lists(st.one_of(st.sampled_from(pool), _PIECES), max_size=3).map(b"".join),
    )
    return st.integers(0, 4).flatmap(lambda n: st.lists(element, min_size=n, max_size=n))


@st.composite
def _groups(draw) -> list[list[bytes]]:
    pool = draw(st.lists(_CHUNK, min_size=1, max_size=3))
    return draw(st.lists(_file(pool), min_size=1, max_size=5))


@given(_groups(), st.integers(1, 3))
# "ab" is common but not maximal: its left extension "xab" is common too.
@example([[b"xab", b"yab"], [b"xab", b"zzzzzzzz"]], 1)
@example([[b"xab", b"zzzzzzzz"], [b"xab", b"yab"]], 1)
# "ab" is common, but each file reaches it only through a longer run.
@example([[b"xab", b"yab"], [b"xab", b"zzzzzzzz"], [b"yab", b"zzzzzzzz"]], 1)
# Repeated streams, the base's included: separators still end every run.
@example([[b"ab", b"ab"], [b"ab", b"ab"], [b"ab", b"ab"]], 1)
@example([[b"xab", b"yab"], [b"xab", b"zab"], [b"xab", b"zab"], [b"xab", b"yab"]], 1)
# A one-file group gives each distinct element once.
@example([[b"1ab", b"2ab", b"1ab"]], 1)
# Five files that differ in one token: the third walk lowers nothing, so the
# fourth and fifth are tested and skipped.  The sixth lacks the run "def":
# its test fails and its walk lowers the runs found so far.
@example([[b"abcpdef"], [b"abcqdef"], [b"abcrdef"], [b"abcsdef"], [b"abctdef"],
          [b"abcpdeyyy"]], 1)
# Skipped files to the end: the runs found for the test are the result.
@example([[b"abcpdef", b"b"], [b"abcqdef", b"b"], [b"abcrdef", b"b"], [b"abcsdef", b"b"]], 2)
@settings(max_examples=300, deadline=None)
def test_common_across_equals_pairwise_search(group, min_tokens):
    tokenized: dict[bytes, str] = {}
    files_tokens = [_file_tokens(elements, tokenized) for elements in group]
    expected = _reference_common_across(files_tokens, group[0], min_tokens)
    assert _common_across(files_tokens, min_tokens) == expected


@given(_groups())
# Two files hold "a1b" and "a2b": the slot varies, so it is generalized.
@example([[b"a1b"], [b"a2b"]])
# A slot whose value is one in every file stays literal.
@example([[b"xa1b", b"c"], [b"ya1b"]])
@settings(max_examples=300, deadline=None)
def test_every_common_run_templates_to_a_match_in_every_file(group):
    # The candidate loop checks no own file and skips no run: each run of
    # the search must give a template that matches an element of every file.
    tokenized: dict[bytes, str] = {}
    files_tokens = [_file_tokens(elements, tokenized) for elements in group]
    distinct = {hay for elements in group for hay in elements}
    for run in _common_across(files_tokens, 1):
        template = _build_template(run, distinct)
        assert isinstance(template, str)
        regex = compile_pattern(template)
        assert all(any(map(regex.search, elements)) for elements in group), template


# A long hex run in angle brackets, or a digit run.
_TOKEN_RE = re.compile(rb"<([0-9A-Fa-f]{16,})>|[0-9]+")


def _one_pass_tokenize(data: bytes) -> str:
    """The tokenizer as one scan that takes each hex or digit run in turn."""
    tokens: list[str] = []
    pos = 0
    for m in _TOKEN_RE.finditer(data):
        start, end = m.span()
        if m.lastindex:  # a hex run
            tokens.append(data[pos : start + 1].decode("latin-1"))  # keep '<'
            tokens.append(_HEX)
            pos = end - 1  # '>' belongs to the following literal run
        else:
            tokens.append(data[pos:start].decode("latin-1"))
            tokens.append(_NUM)
            pos = end
    tokens.append(data[pos:].decode("latin-1"))
    return "".join(tokens)


# Angle brackets, digit runs and hex runs of every length around the
# 16-digit floor, so brackets, digits and hex runs abut in every order.
_TOKEN_PIECES = st.one_of(
    st.sampled_from([b"<", b">", b"x", b"\xff"]),
    st.text("0123456789", min_size=1, max_size=4).map(str.encode),
    st.text("0123456789ABCDEFabcdef", min_size=1, max_size=20).map(str.encode),
)


@given(st.lists(_TOKEN_PIECES, max_size=12).map(b"".join))
@example(b"<0123456789abcdef><0123456789ABCDEF>")
@example(b"12<0123456789abcdef0>34")
# Every byte is one token, its Latin-1 character, and none is a slot.
@example(bytes(range(256)))
@settings(max_examples=500, deadline=None)
def test_tokenize_equals_the_one_pass_tokenizer(data):
    assert _tokenize(data) == _one_pass_tokenize(data)


# -- Reference candidate loop ---------------------------------------------------
# The candidate loop before it did each distinct piece of work once: every
# element tokenized, every file searched, every haystack probed, and every
# candidate scored in full before the thresholds.


def _share_matching(regex: re.Pattern[bytes], haystacks_per_file: list[list[bytes]]) -> float:
    """The share of files with an element that ``regex`` matches."""
    if not haystacks_per_file:
        return 0.0
    hits = sum(
        1 for haystacks in haystacks_per_file if any(regex.search(h) for h in haystacks)
    )
    return hits / len(haystacks_per_file)


def _stream(haystacks: list[bytes]) -> str:
    return _SEP.join(map(_one_pass_tokenize, haystacks))


def _reference_mine(all_haystacks: dict[str, list[list[bytes]]], section: SectionKind,
                    min_len: int, max_discriminacy: float) -> dict[str, list[CandidatePattern]]:
    if all(not any(h) for h in all_haystacks.values()):
        raise SectionAbsentEverywhere(section.value)
    results: dict[str, list[CandidatePattern]] = {}
    for producer, own in all_haystacks.items():
        others = {p: h for p, h in all_haystacks.items() if p != producer}
        candidates: list[CandidatePattern] = []
        if any(not h for h in own):
            results[producer] = []
            continue
        every_haystack = [hay for haystacks in own for hay in haystacks]
        for tokens in _common_across([_stream(h) for h in own], min_tokens=2):
            template = _build_template(tokens, every_haystack)
            if template is None:
                continue
            regex = compile_pattern(template)
            first = next(filter(None, (regex.search(hay) for hay in own[0])), None)
            if first is None or first.end() - first.start() < min_len:
                continue
            disc = max((_share_matching(regex, hs) for hs in others.values()), default=0.0)
            if _share_matching(regex, own) < 1.0 or disc > max_discriminacy:
                continue
            candidates.append(CandidatePattern(producer, section, template,
                                               disc, first.end() - first.start()))
        candidates.sort(key=lambda c: (c.discriminacy, -c.byte_len, c.template))
        results[producer] = candidates
    return results


@st.composite
def _labeled_elements(draw) -> dict[str, list[list[bytes]]]:
    # One chunk pool for every producer, so templates can match other
    # producers' files; files may repeat within a producer.
    pool = draw(st.lists(_CHUNK, min_size=1, max_size=3))
    corpus: dict[str, list[list[bytes]]] = {}
    for producer in ("P", "Q", "R")[: draw(st.integers(1, 3))]:
        files = draw(st.lists(_file(pool), min_size=1, max_size=4))
        corpus[producer] = files + draw(st.lists(st.sampled_from(files), max_size=2))
    return corpus


@given(_labeled_elements(), st.sampled_from([SectionKind.BODY, SectionKind.XREF]),
       st.integers(4, 8), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
@settings(max_examples=300, deadline=None)
def test_candidate_loop_equals_the_reference_loop(corpus, section, min_len, threshold):
    try:
        expected = _reference_mine(corpus, section, min_len, threshold)
    except SectionAbsentEverywhere:
        with pytest.raises(SectionAbsentEverywhere):
            _mine_elements(corpus, section, min_len, threshold)
        return
    assert _mine_elements(corpus, section, min_len, threshold) == expected
