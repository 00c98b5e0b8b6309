"""The miner's common-run search takes time linear in the group's size.

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
"""

from __future__ import annotations

import random

from conftest import assert_linear_time
from pdfprov.miner import _common_across, _file_tokens

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


def _group(objects: int) -> list[list[int]]:
    return [_file_tokens(_body(k, objects)) for k in range(FILES)]


def test_common_runs_do_not_grow_with_the_group():
    small, large = _common_across(_group(N), 2), _common_across(_group(2 * N), 2)
    assert small and small == large


def test_common_run_search_time_is_linear():
    assert_linear_time(
        f"groups of {FILES} files at n={N}", lambda group: _common_across(group, 2),
        _group(N), _group(2 * N),
    )
