"""The miner's common-run search takes time linear in the group's size,
and its body input does not grow with stream payloads.

``miner._common_across`` is timed by ``conftest.assert_linear_time`` on a
four-file group whose body has n and then 2n objects, and the larger
group may cost at most 2.5 times the smaller one; quadratic work costs 4 times.  The pairwise
search it replaced took 3.9-4.9 times on this group, and 5.0 and 7.0
times per doubling on grown four-file pdfTeX groups.  At these sizes the
group still fits in the CPU caches; larger groups add cache misses that
push even the linear search towards the bound.

Every file fills its stream payloads from its own set of non-ASCII
bytes, disjoint from the other files' sets.  The common runs are then the
object scaffolding alone, so their number does not grow with n and the
ratio measures the search, not the size of its output.

A group of near-copies, files that differ only in one payload byte, is
timed at n and 2n files.  Two walks fix its common runs, and each later
file holds them all, so it is not walked; the larger group may cost at
most 1.5 times the smaller one, where walking every file costs 1.55-1.85
times.

Near-copies whose own bytes recur through the whole file are timed at n
and 2n tokens.  Each file differs from the others at every 25th token, so
the common runs are the n/25 stretches between, and every file past the
third is tested for them, not walked.  The test seeks each run from where
the one before it was found, one pass over the file; seeking each from
the start cost 2.75-3.2 times per doubling.  At 12,000 tokens and more the
automaton itself leaves the CPU caches and costs about 2.4 times, so the
family stays at 4,000 tokens, with 128 files to keep the tests' share up.

Body elements cut each stream payload after its first two bytes, so a
corpus whose payloads double while the objects stay the same gives the
miner the same body elements and the same candidates.
"""

from __future__ import annotations

import random

from conftest import assert_linear_time
from pdfprov.miner import CorpusFile, LabeledCorpus, _common_across, _file_tokens, mine
from pdfprov.rules import SectionKind, section_elements

FILES = 4
# Objects per file at n.
N = 30


def _body(file_index: int, objects: int) -> list[bytes]:
    """One file's body elements: pdfTeX-style stream objects."""
    rng = random.Random(file_index)
    payload_bytes = range(0x80 + 32 * file_index, 0x80 + 32 * (file_index + 1))
    elements = []
    for num in range(1, objects + 1):
        payload = bytes(rng.choice(payload_bytes) for _ in range(rng.randrange(100, 300)))
        elements.append(
            b"%d 0 obj\n<</Length %d      /Filter/FlateDecode>>\nstream\n" % (num, len(payload))
            + payload + b"\nendstream\nendobj\n"
        )
    return elements


def _group(objects: int) -> list[str]:
    return [_file_tokens(_body(k, objects), {}) for k in range(FILES)]


def test_common_runs_do_not_grow_with_the_group():
    small, large = _common_across(_group(N), 2), _common_across(_group(2 * N), 2)
    assert small and small == large


def test_common_run_search_time_is_linear():
    assert_linear_time(
        f"groups of {FILES} files at n={N}", lambda group: _common_across(group, 2),
        _group(N), _group(2 * N),
    )


# Files in the smaller group of near-copies; the larger has twice as many.
COPIES = 12
# The largest cost ratio allowed between the two groups of near-copies.
MAX_COPIES_RATIO = 1.5


def _near_copies(files: int) -> list[str]:
    """``files`` copies of one body that differ only in one payload byte,
    each copy's own, so no two token streams are equal."""
    first, *rest = _body(0, N)
    i = first.index(b"stream\n") + 10
    return [_file_tokens([first[:i] + bytes([0xC0 + k]) + first[i + 1:], *rest], {})
            for k in range(files)]


def test_near_copies_cost_no_walk_each():
    # Once two walks have fixed the common runs, every further copy holds
    # them all and is not walked; walking every copy costs about 2 times.
    small, large = _near_copies(COPIES), _near_copies(2 * COPIES)
    assert _common_across(small, 2) == _common_across(large, 2)
    assert_linear_time(
        f"{COPIES} near-copies at n={N}", lambda group: _common_across(group, 2),
        small, large, bound=MAX_COPIES_RATIO,
    )


# Tokens of each near-copy at n, the files in the group, and the spacing
# of each file's own byte.
SPREAD_TOKENS = 4_000
SPREAD_COPIES = 128
SPREAD_EVERY = 25


def _spread_copies(tokens: int) -> list[str]:
    """``SPREAD_COPIES`` copies of one ``tokens``-token element, each with
    its own byte at every ``SPREAD_EVERY``-th token."""
    rng = random.Random(0)
    element = bytearray(rng.choice(b"abcdefghijklmnopqrstuvwxyz/<>[] ") for _ in range(tokens))
    files = []
    for k in range(SPREAD_COPIES):
        element[::SPREAD_EVERY] = bytes([0x80 + k]) * len(element[::SPREAD_EVERY])
        files.append(_file_tokens([bytes(element)], {}))
    return files


def test_near_copies_are_tested_in_one_pass():
    small, large = _spread_copies(SPREAD_TOKENS), _spread_copies(2 * SPREAD_TOKENS)
    assert len(_common_across(small, 2)) == SPREAD_TOKENS // SPREAD_EVERY
    assert_linear_time(
        f"{SPREAD_COPIES} near-copies of {SPREAD_TOKENS} tokens",
        lambda group: _common_across(group, 2), small, large,
    )


# A body object of each style, with its /Length an indirect reference, as
# pdfTeX and LuaTeX write it, so the dictionary is the same whatever the
# payload's size.
_STYLES = {
    "PdfTeX": b"%d 0 obj\n<</Length %d 0 R/Filter/FlateDecode>>\nstream\n",
    "LuaTeX": b"%d 0 obj\n<<\n/Length %d 0 R\n/Filter /FlateDecode\n>>\nstream\n",
}


def _payload_corpus(payload_size: int) -> LabeledCorpus:
    """Three files per style of eight stream objects, each payload
    ``x\\xDA`` and then ``payload_size - 2`` random bytes."""
    files = []
    for producer, head in _STYLES.items():
        for k in range(3):
            rng = random.Random(f"{producer}-{k}")
            objects = [
                head % (num, num + 100)
                + b"x\xda" + bytes(rng.randrange(256) for _ in range(payload_size - 2))
                + b"\nendstream\nendobj\n"
                for num in range(1, 9)
            ]
            data = b"%PDF-1.5\n%\xe2\xe3\xcf\xd3\n" + b"".join(objects) + b"trailer\n<</Size 9>>\n"
            files.append(CorpusFile(data, producer))
    return LabeledCorpus(files)


def test_body_mining_does_not_read_stream_payloads():
    small, large = _payload_corpus(2_000), _payload_corpus(4_000)
    assert sum(map(len, (f.data for f in large.files))) > 1.9 * sum(
        map(len, (f.data for f in small.files)))
    for f_small, f_large in zip(small.files, large.files):
        assert (section_elements(small.sections_of(f_small), SectionKind.BODY)
                == section_elements(large.sections_of(f_large), SectionKind.BODY))
    mined = mine(small, SectionKind.BODY)
    assert all(mined.values())
    assert mined == mine(large, SectionKind.BODY)
