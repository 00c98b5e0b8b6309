"""Rule engine: file format, byte-regex dialect, matching semantics."""

from __future__ import annotations

import warnings
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    LIBREOFFICE_TRAILER,
    LUATEX_STREAM_OBJECT,
    PDFTEX_STREAM_OBJECT,
    TABLE_RULE_WORD_BODY,
    WORD_STREAM_OBJECT,
    assert_linear_time,
    header_bytes,
)
from pdfprov.errors import NotAPdf, PatternCompileError, RuleParseError
from pdfprov.fixtures import PROFILES, generate
from pdfprov.producers import Producer
from pdfprov.rules import (
    _read_field,
    _strip_comment,
    Rule,
    Rulepack,
    SECTION_ORDER,
    SectionKind,
    compile_pattern,
    evaluate_sections,
    load_rulepack,
    match_section,
    render_rulepack,
    section_elements,
)
from pdfprov.segmenter import segment


# -- load_rulepack -------------------------------------------------------------


def test_load_word_body_rule():
    pack = load_rulepack(TABLE_RULE_WORD_BODY)
    assert len(pack.rules) == 1
    rule = pack.rules[0]
    assert rule.producer == Producer.MICROSOFT_OFFICE_WORD.value
    assert rule.section is SectionKind.BODY


def test_empty_rule_file_is_a_valid_empty_pack():
    pack = load_rulepack("# nothing here\n\n")
    assert pack.rules == []
    assert Counter(r.producer for r in pack.rules) == {}


def test_duplicate_rule_ids_rejected():
    text = TABLE_RULE_WORD_BODY + "\n" + TABLE_RULE_WORD_BODY
    with pytest.raises(RuleParseError):
        load_rulepack(text)


def test_missing_field_rejected():
    with pytest.raises(RuleParseError):
        load_rulepack('rule r1 {\n  producer = Cairo\n  section = body\n}\n')


def test_unknown_section_rejected():
    with pytest.raises(RuleParseError) as err:
        load_rulepack('rule r1 {\n  section = footer\n}\n')
    assert "footer" in str(err.value)


# A valid rule; each case below replaces one piece of it.
_RULE = 'rule r1 {\n  producer = Cairo\n  section = body\n  kind = template\n  pattern = "abc"\n}\n'


@pytest.mark.parametrize("old, new, message", [
    ('"abc"', "abc", "line 5: pattern value must be quoted"),
    ('"abc"', '"abc', "line 5: unterminated pattern string"),
    ('"abc"', '"abc" x', "line 5: unexpected trailing text 'x'"),
    ("  kind", "  os = linux\n  kind", "line 4: os must be a [bracketed, list]"),
    ("  kind", "  distro = [texlive, tetex]\n  kind", "line 4: unknown distro tag 'tetex'"),
    ("rule r1 {", "# a comment\nr1 {", "line 2: expected 'rule <id> {', got 'r1 {'"),
    ("producer = Cairo", "producer Cairo", "line 2: expected 'key = value', got 'producer Cairo'"),
    # An empty producer would be a vote for the name "".
    ("producer = Cairo", "producer =", "line 2: producer must not be empty"),
    ("producer = Cairo", "producer =   # none", "line 2: producer must not be empty"),
    # A legacy kind line is ignored, but only if it names a kind that was.
    ("template", "templat", "line 4: unknown kind 'templat'"),
    ("template", "banana", "line 4: unknown kind 'banana'"),
    # A pack of the old format fails loudly, not by never firing.
    ("template", "presence", "line 4: kind 'presence' is no longer supported: "
                             "xref rules search xref tables and streams as templates"),
    ("  section", "  colour = red\n  section", "line 3: unknown field 'colour'"),
    ("}\n", "}\n\nrule r2 {\n  producer = Cairo\n", "line 8: unterminated rule block"),
])
def test_rule_file_errors_name_their_line(old, new, message):
    assert _RULE.count(old) == 1
    with pytest.raises(RuleParseError) as err:
        load_rulepack(_RULE.replace(old, new))
    assert str(err.value) == message


@pytest.mark.parametrize("kind_line", ["  kind = magic\n", "  kind = keyorder\n",
                                       "  kind     = template  # legacy\n", ""])
def test_a_legacy_kind_line_is_read_and_ignored(kind_line):
    # A rule has no kind: an older pack's kind line changes nothing it loads to.
    (rule,) = load_rulepack(_RULE.replace("  kind = template\n", kind_line)).rules
    assert rule == Rule("r1", "Cairo", SectionKind.BODY, "abc")
    assert "kind" not in render_rulepack([rule])


def test_quote_escape_and_non_byte_character_in_a_pattern():
    (rule,) = load_rulepack('rule q {\n  producer = Cairo\n  section = body\n'
                            '  pattern = "a\\"b"\n}\n').rules
    assert rule.pattern == 'a"b'
    assert rule.regex.fullmatch(b'a"b')
    with pytest.raises(PatternCompileError) as err:
        load_rulepack('rule euro {\n  producer = Cairo\n  section = body\n'
                      '  pattern = "\u20ac"\n}\n')
    assert str(err.value).startswith("rule 'euro': non-byte character in pattern: ")


def test_bad_pattern_reports_rule_id():
    text = ('rule broken {\n  producer = Cairo\n  section = body\n'
            '  pattern = "([unclosed"\n}\n')
    with pytest.raises(PatternCompileError) as err:
        load_rulepack(text)
    assert err.value.rule_id == "broken"


def test_comments_and_hash_inside_pattern():
    text = ('# a comment\nrule r1 {  # trailing comment\n  producer = Cairo\n'
            '  section = body\n  pattern = "a#b"  # not a comment inside\n}\n')
    pack = load_rulepack(text)
    assert pack.rules[0].pattern == "a#b"
    assert pack.rules[0].regex.search(b"xa#by")


def test_render_load_roundtrip():
    pack = load_rulepack(TABLE_RULE_WORD_BODY)
    again = load_rulepack(render_rulepack(pack.rules))
    assert again.rules == pack.rules


# The reader's character loops before the quoted-value pattern replaced
# them, kept verbatim as the oracle the pattern must agree with.
def _loop_strip_comment(line: str) -> str:
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


def _loop_parse_quoted(value: str, lineno: int) -> str:
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


def _outcome(read, *args) -> str:
    try:
        return "value " + read(*args)
    except RuleParseError as exc:
        return "error " + str(exc)


_LINES = st.lists(st.sampled_from(['"', "\\", "#", '\\"', "=", "[", "]", " ", "\t", "a", "b"]),
                  max_size=20).map("".join)


@settings(max_examples=2000, deadline=None)
@given(_LINES)
@example('x = "a\\"#b" # c')
@example('"a\\')
def test_the_quoted_value_pattern_agrees_with_the_character_loops(line):
    assert _strip_comment(line) == _loop_strip_comment(line)
    for value in (line, '"' + line):
        assert _outcome(_read_field, "pattern", value, 3) == _outcome(
            _loop_parse_quoted, value.strip(), 3)


@pytest.mark.parametrize("producer", ["C#Writer", " Skia", "Skia ", "Sk\nia", "Sk\x85ia", ""])
def test_the_writer_refuses_a_producer_that_would_not_read_back(producer):
    rules = [Rule("r", "Cairo", SectionKind.BODY, "a"),
             Rule("bad", producer, SectionKind.BODY, "a")]
    with pytest.raises(ValueError) as err:
        render_rulepack(rules)
    assert str(err.value) == f"rule 'bad': producer {producer!r} would not read back as written"


@pytest.mark.parametrize("rule_id, reason", [
    ("-body-0", "is not a rule id"), ("", "is not a rule id"), ("a b", "is not a rule id"),
    ("a\n", "is not a rule id"), ("r", "is already written"),
])
def test_the_writer_refuses_an_id_that_would_not_read_back(rule_id, reason):
    rules = [Rule("r", "Cairo", SectionKind.BODY, "a"),
             Rule(rule_id, "Skia", SectionKind.BODY, "a")]
    with pytest.raises(ValueError) as err:
        render_rulepack(rules)
    assert str(err.value) == f"rule {rule_id!r} of producer 'Skia': the id {reason}"


@pytest.mark.parametrize("key, rule", [
    ("os", Rule("r", "Cairo", SectionKind.BODY, "a", frozenset({"beos"}))),
    ("os", Rule("r", "Cairo", SectionKind.BODY, "a", frozenset({"linux#"}))),
    ("distro", Rule("r", "Cairo", SectionKind.BODY, "a",
                    distro_tags=frozenset({"texlive, miktex"}))),
    ("pattern", Rule("r", "Cairo", SectionKind.BODY, 'a\\"')),
    ("pattern", Rule("r", "Cairo", SectionKind.BODY, "a\nb")),
])
def test_the_writer_refuses_tags_and_patterns_that_would_not_read_back(key, rule):
    with pytest.raises(ValueError, match=f"^rule 'r': {key} .* would not read back as written$"):
        render_rulepack([rule])


_BARE_VALUES = st.one_of(st.sampled_from([p.value for p in Producer]),
                         st.text(st.sampled_from('ab"\\=,[]'), max_size=6),
                         st.text(st.sampled_from('ab #"\\=,[]\n\x85'), max_size=4))
# Regex atoms, which any sequence of compiles; the last two cannot be written.
_PATTERN_ATOMS = st.sampled_from(["a", '"', "\\\\", "#", "\\x41", '[#"]', " ", "b*"] * 4 + ['\\"', "\n"])


@st.composite
def _rule_lists(draw) -> list[Rule]:
    def tags(valid: list[str]) -> frozenset[str]:
        return draw(st.frozensets(st.sampled_from(valid + ["a#b", "a, b"]), max_size=2))
    return [Rule(f"r{i}", draw(_BARE_VALUES), draw(st.sampled_from(SectionKind)),
                 "".join(draw(st.lists(_PATTERN_ATOMS, max_size=6))),
                 tags(["linux", "windows", "macos"]), tags(["texlive", "miktex"]))
            for i in range(draw(st.integers(0, 2)))]


@settings(max_examples=500, deadline=None)
@given(_rule_lists())
@example([Rule("r", 'C"Writer', SectionKind.BODY, 'a"b\\\\"#',
               frozenset({"linux"}), frozenset({"texlive", "miktex"}))])
def test_rules_the_writer_accepts_read_back_as_written(rules):
    try:
        text = render_rulepack(rules, "mined rulepack\nwith # in its comment")
    except ValueError as exc:
        assert str(exc).endswith("would not read back as written")
        return
    assert load_rulepack(text).rules == rules


def test_extension_packs_may_name_unknown_producers():
    text = ('rule new-tool {\n  producer = SomeNewTool\n  section = header\n'
            '  pattern = "^\\xAA\\xBB"\n}\n')
    pack = load_rulepack(text)
    assert pack.rules[0].producer == "SomeNewTool"
    sections = segment(b"%PDF-1.4\n%\xAA\xBB\xCC\xDD\n")
    matches = match_section(pack, sections, SectionKind.HEADER)
    assert [m.rule.producer for m in matches] == ["SomeNewTool"]


# -- byte-regex dialect ---------------------------------------------------


def test_hex_escapes_are_literal_bytes():
    # \x2A is the byte '*', not a quantifier.
    regex = compile_pattern("\\x2A\\x41+")
    assert regex.search(b"*AAA")
    assert not regex.search(b"B")


def test_dialect_rejects_lookaround_and_backrefs():
    for pattern in ["a(?=b)", "(?=a)", "a(?<=b)", r"(a)\1", "(?P<n>a)", "(?i)a", "(?#c)a",
                    r"x\9", r"\((?!a)"]:
        with pytest.raises(PatternCompileError) as err:
            compile_pattern(pattern)
        assert "lookaround and backreferences" in err.value.reason, pattern


@pytest.mark.parametrize(
    "pattern, data",
    [(r"/Title \(?[A-Z]", b"/Title (X"), ("[(?]x", b"?x"), (r"\\1", b"\\1"), (r"[\](?]", b"?")],
)
def test_dialect_accepts_group_syntax_that_is_escaped_or_in_a_class(pattern, data):
    assert compile_pattern(pattern).fullmatch(data)


def _reject_unclosed(source: str) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FutureWarning)  # "Possible nested set"
        with pytest.raises(PatternCompileError, match="unterminated character set"):
            compile_pattern(source)


def test_dialect_check_time_is_linear():
    # No "[" closes, so a check that sought each one's "]" would rescan the
    # rest of the pattern from every one.
    assert_linear_time("unclosed classes at n=5000", _reject_unclosed, "[a" * 5000, "[a" * 10000)


@pytest.mark.parametrize(
    "pattern", ["(a+)+b", "(?:a*)*", "(a{1,2})+b", "(a+){1,1000}b", "(a?)*", "x(y|z[0-9]*)+"]
)
def test_dialect_rejects_a_variable_repeat_inside_a_repeated_group(pattern):
    with pytest.raises(PatternCompileError) as err:
        compile_pattern(pattern, "nested")
    assert err.value.rule_id == "nested"
    assert "variable-count repeat" in err.value.reason


@pytest.mark.parametrize(
    "pattern", ["(ab)+", "(a{3})*", "(/K[0-9]*)?", "(a|ab)*", "\\(a+\\)+", "[(]a+[)]+"]
)
def test_dialect_accepts_repeats_of_one_level(pattern):
    compile_pattern(pattern)


def test_dialect_accepts_classes_repetition_alternation_anchors():
    regex = compile_pattern("^(foo|ba[rz]){1,2}[0-9]*$")
    assert regex.search(b"foobaz42")


# -- match_section ---------------------------------------------------------


def _word_fixture_bytes() -> bytes:
    return header_bytes(b"\xB5\xB5\xB5\xB5", b"1.7", b"\r\n") + WORD_STREAM_OBJECT


def test_word_template_matches_once():
    pack = load_rulepack(TABLE_RULE_WORD_BODY)
    matches = match_section(pack, segment(_word_fixture_bytes()), SectionKind.BODY)
    assert len(matches) == 1
    assert matches[0].rule.producer == Producer.MICROSOFT_OFFICE_WORD.value
    assert matches[0].element_ref == "obj:4:0"


def test_word_template_rejects_non_digit_length():
    data = _word_fixture_bytes().replace(b"/Length 2413", b"/Length abc")
    pack = load_rulepack(TABLE_RULE_WORD_BODY)
    assert match_section(pack, segment(data), SectionKind.BODY) == []


def test_bytes_inside_metadata_object_never_match():
    payload = WORD_STREAM_OBJECT.rstrip()  # the would-be matching bytes
    stream_obj = b"7 0 obj\r\n<</Type /Metadata /Length %d>>\r\nstream\r\n" % len(payload)
    data = b"%PDF-1.4\r\n" + stream_obj + payload + b"\r\nendstream\r\nendobj\r\n"
    pack = load_rulepack(TABLE_RULE_WORD_BODY)
    sections = segment(data)
    assert sections.objects[0].is_metadata
    assert match_section(pack, sections, SectionKind.BODY) == []


def test_match_offsets_fall_inside_elements(pack, corpus_bytes):
    for blobs in corpus_bytes.values():
        sections = segment(blobs[0])
        for kind in SECTION_ORDER:
            for m in match_section(pack, sections, kind):
                assert m.match_offset >= 0
                assert m.rule.section == kind


# -- evaluate_sections -------------------------------------------------------


def test_distiller_fixture_header_and_presence(pack):
    """The xref stream is present in the xref section, as its one element,
    cut as a body object is, and absent from the body."""
    data = generate(PROFILES[Producer.ACROBAT_DISTILLER], 1)
    sections = segment(data)
    matches = evaluate_sections(pack, sections)
    header_producers = {m.rule.producer for m in matches[SectionKind.HEADER]}
    assert header_producers == {Producer.ACROBAT_DISTILLER.value}
    assert sections.xref_tables == []
    (stream,) = [o for o in sections.objects if o.dict_start == sections.trailers[-1].start]
    raw = data[stream.start : stream.end]
    assert section_elements(sections, SectionKind.XREF) == [
        ("xref:0", raw[: stream.payload_start - stream.start + 2]
         + data[stream.payload_end : stream.end])]
    assert raw.startswith(b"6 0 obj\n<</DecodeParms") and raw.endswith(b"endstream\nendobj")
    body = section_elements(sections, SectionKind.BODY)
    assert f"obj:{stream.obj_num}:0" not in dict(body)
    assert len(body) == sum(not o.is_metadata for o in sections.objects) - 1
    assert matches[SectionKind.XREF] == []  # the builtin pack has no xref rule


def test_word_fixture_xref_elements_in_file_order():
    """A hybrid file: its xref stream and, after it, its classic table."""
    data = generate(PROFILES[Producer.MICROSOFT_OFFICE_WORD], 1)
    sections = segment(data)
    (table,) = sections.xref_tables
    elements = section_elements(sections, SectionKind.XREF)
    assert [ref for ref, _ in elements] == ["xref:0", "xref:1"]
    assert elements[0][1].startswith(b"6 0 obj\r\n<</Type/XRef/Size 7/W[1 2 1]")
    assert elements[0][1].endswith(b">>\r\nstream\r\nbl\r\nendstream\r\nendobj")
    assert elements[1][1] == data[table.start : table.end]
    assert data.index(elements[0][1][:20]) < table.start
    assert "obj:6:0" not in dict(section_elements(sections, SectionKind.BODY))


def test_an_xref_rule_fires_on_an_xref_stream():
    rule = load_rulepack(
        'rule xref-w {\n  producer = XdviPDFmx\n  section = xref\n'
        '  pattern = "/Size [0-9]+ /W \\[1 2 1\\] /Filter"\n}\n'
    )
    sections = segment(generate(PROFILES[Producer.XDVIPDFMX], 1))
    (m,) = match_section(rule, sections, SectionKind.XREF)
    assert (m.rule_id, m.element_ref) == ("xref-w", "xref:0")
    assert match_section(rule, sections, SectionKind.BODY) == []


def test_zero_rule_pack_matches_nothing(corpus_bytes):
    empty = Rulepack([])
    data = corpus_bytes[Producer.GHOSTSCRIPT][0]
    assert all(v == [] for v in evaluate_sections(empty, segment(data)).values())


def test_a_section_without_rules_builds_no_elements(pack, corpus_bytes, monkeypatch):
    # The builtin pack has no xref rule, and finding the xref streams
    # walks every object.
    assert pack.for_section(SectionKind.XREF) == []
    sections = segment(corpus_bytes[Producer.MICROSOFT_OFFICE_WORD][0])

    def no_elements(*_):
        raise AssertionError("elements built for a section without rules")

    monkeypatch.setattr("pdfprov.rules.element_bytes", no_elements)
    assert match_section(pack, sections, SectionKind.XREF) == []


def test_libreoffice_trailer_matched_by_keyorder(pack):
    data = b"%PDF-1.4\n%\xC3\xA4\xC3\xBC\xC3\xB6\xC3\x9F\n" + LIBREOFFICE_TRAILER
    matches = evaluate_sections(pack, segment(data))
    assert {m.rule.producer for m in matches[SectionKind.TRAILER]} == {
        Producer.LIBREOFFICE.value
    }


def test_evaluation_of_a_non_pdf_raises_not_a_pdf(pack):
    with pytest.raises(NotAPdf):
        evaluate_sections(pack, segment(b"plain text"))


def test_section_isolation(pack, corpus_bytes):
    for blobs in corpus_bytes.values():
        matches = evaluate_sections(pack, segment(blobs[0]))
        for kind, section_matches in matches.items():
            for m in section_matches:
                assert m.rule.section == kind
                if kind is SectionKind.BODY:
                    assert m.element_ref.startswith("obj:")
                elif kind is SectionKind.HEADER:
                    assert m.element_ref == "header"


def test_match_order_is_stable(pack, corpus_bytes):
    data = corpus_bytes[Producer.MICROSOFT_OFFICE_WORD][0]
    first = evaluate_sections(pack, segment(data))
    second = evaluate_sections(pack, segment(data))
    assert first == second


_ZZ_BEFORE_AA = (
    'rule zz-obj-keyword {\n  producer = Zed\n  section = body\n'
    '  pattern = "obj"\n}\n'
    'rule aa-type-key {\n  producer = Ay\n  section = body\n'
    '  pattern = "/Type"\n}\n'
)


_THREE_OBJECTS = (b"%PDF-1.4\n1 0 obj\n<</Type/Catalog/Pages 2 0 R>>\nendobj\n"
                  b"2 0 obj\n<</Type/Pages/Kids[3 0 R]/Count 1>>\nendobj\n"
                  b"3 0 obj\n<</Type/Page/Parent 2 0 R>>\nendobj\n"
                  b"trailer\n<</Root 1 0 R>>\n")


def test_matches_come_out_by_rule_id_element_and_offset():
    pack = load_rulepack(_ZZ_BEFORE_AA)
    assert [r.id for r in pack.rules] == ["zz-obj-keyword", "aa-type-key"]
    matches = match_section(pack, segment(_THREE_OBJECTS), SectionKind.BODY)
    # Both rules fire on every object, "obj" twice in each, but each rule
    # is reported once: at the first object, at its first offset there.
    assert [(m.rule_id, m.element_ref, m.match_offset) for m in matches] == [
        ("aa-type-key", "obj:1:0", 10), ("zz-obj-keyword", "obj:1:0", 4),
    ]


def _first_hits(pack, sections, kind):
    """Each rule's first ``finditer`` hit over the section, in rule-id order."""
    hits = []
    for rule in sorted(pack.rules, key=lambda r: r.id):
        if rule.section is not kind:
            continue
        targets = section_elements(sections, kind)
        every = [(rule.id, ref, m.start()) for ref, data in targets
                 for m in rule.regex.finditer(data)]
        hits.extend(every[:1])
    return hits


@pytest.mark.parametrize("which", ["builtin", "two-rule"])
def test_each_fired_rule_is_reported_once_at_its_first_hit(pack, which):
    rules = pack if which == "builtin" else load_rulepack(_ZZ_BEFORE_AA)
    for profile in PROFILES.values():
        sections = segment(generate(profile, 1))
        for kind in SECTION_ORDER:
            found = [(m.rule_id, m.element_ref, m.match_offset)
                     for m in match_section(rules, sections, kind)]
            assert found == _first_hits(rules, sections, kind)


# -- body elements without stream payloads --------------------------------


def _raw_body_elements(sections) -> list[tuple[str, bytes]]:
    """Whole non-metadata objects, but for xref streams, whose dictionary
    is a trailer."""
    trailers = {t.start for t in sections.trailers}
    return [(f"obj:{o.obj_num}:{o.gen_num}", sections.data[o.start : o.end])
            for o in sections.objects if not o.is_metadata and o.dict_start not in trailers]


def _first_hit(rule: Rule, targets: list[tuple[str, bytes]]) -> tuple[str, int] | None:
    for ref, data in targets:
        m = rule.regex.search(data)
        if m:
            return ref, m.start()
    return None


def test_builtin_body_rules_hit_cut_elements_where_they_hit_raw_objects(pack, corpus_bytes):
    files = [blob for blobs in corpus_bytes.values() for blob in blobs]
    files += [b"%PDF-1.4\n" + obj for obj in
              (PDFTEX_STREAM_OBJECT, LUATEX_STREAM_OBJECT, WORD_STREAM_OBJECT)]
    cut_elements = hits = 0
    for data in files:
        sections = segment(data)
        cut, raw = section_elements(sections, SectionKind.BODY), _raw_body_elements(sections)
        assert [ref for ref, _ in cut] == [ref for ref, _ in raw]
        cut_elements += sum(a != b for (_, a), (_, b) in zip(cut, raw))
        for rule in pack.for_section(SectionKind.BODY):
            hit = _first_hit(rule, cut)
            assert hit == _first_hit(rule, raw), (rule.id, data[:40])
            hits += hit is not None
    assert cut_elements >= len(files) and hits >= len(files) // 4


def test_a_rule_across_the_cut_fires_in_scan():
    """A mined template may span the cut; matching reads the same cut
    elements that mining does, so it fires."""
    rule = load_rulepack(
        'rule across-cut {\n  producer = PdfTeX\n  section = body\n'
        '  pattern = ">>\\nstream\\nx\\xDA\\nendstream\\nendobj"\n}\n'
    )
    obj = b"4 0 obj\n<</Length 6>>\nstream\nx\xda\x01\x02\x03\x04\nendstream\nendobj\n"
    (m,) = match_section(rule, segment(b"%PDF-1.4\n" + obj), SectionKind.BODY)
    assert (m.rule_id, m.element_ref, m.match_offset) == ("across-cut", "obj:4:0", 19)


_METADATA_FIRST = (
    b"%PDF-1.4\n1 0 obj\n<</Producer (x)>>\nendobj\n"
    b"2 0 obj\n<</Type/Metadata/Subtype/XML/Length 9>>\nstream\n<x:xmp/>\nendstream\nendobj\n"
    b"3 0 obj\n<</Type/Catalog/Pages 4 0 R>>\nendobj\n"
    b"4 0 obj\n<</Type/Pages/Kids[]/Count 0>>\nendobj\n"
    b"trailer\n<</Size 5/Root 3 0 R/Info 1 0 R>>\n"
)


def test_a_body_match_names_the_object_it_fired_on():
    """Metadata objects are no body elements, so a ref built from an
    element's index alone would name an object before the right one."""
    pack = load_rulepack(
        'rule catalog {\n  producer = PdfTeX\n  section = body\n'
        '  pattern = "/Type/Catalog"\n}\n'
        'rule pages {\n  producer = PdfTeX\n  section = body\n'
        '  pattern = "/Kids"\n}\n'
    )
    sections = segment(_METADATA_FIRST)
    assert [o.is_metadata for o in sections.objects] == [True, True, False, False]
    elements = section_elements(sections, SectionKind.BODY)
    matches = match_section(pack, sections, SectionKind.BODY)
    assert [m.element_ref for m in matches] == ["obj:3:0", "obj:4:0"]
    for m in matches:
        rule = next(r for r in pack.rules if r.id == m.rule_id)
        assert m.element_ref == next(ref for ref, data in elements if rule.regex.search(data))


def test_metadata_immunity(pack, corpus_bytes):
    """Rewriting bytes strictly inside metadata objects changes no match."""
    for producer, blobs in corpus_bytes.items():
        data = blobs[0]
        before = evaluate_sections(pack, segment(data))
        assert evaluate_sections(pack, segment(_zero_metadata(data))) == before


def _zero_metadata(data: bytes) -> bytes:
    sections = segment(data)
    mutated = bytearray(data)
    for obj in sections.objects:
        if not obj.is_metadata:
            continue
        raw = data[obj.start : obj.end]
        head = raw.index(b"obj") + 3
        tail = raw.rindex(b"endobj")
        start = obj.start
        mutated[start + head : start + tail] = b"\x00" * (tail - head)
    return bytes(mutated)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=29))
def test_monotonicity_adding_a_rule_never_removes_matches(index):
    from pdfprov.builtin_pack import builtin

    base = builtin()
    smaller = Rulepack([r for i, r in enumerate(base.rules) if i != index])
    data = generate(PROFILES[Producer.MICROSOFT_OFFICE_WORD], 3)
    small_matches = evaluate_sections(smaller, segment(data))
    full_matches = evaluate_sections(base, segment(data))
    for kind in SECTION_ORDER:
        assert set(small_matches[kind]) <= set(full_matches[kind])
