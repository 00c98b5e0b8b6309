"""The builtin producer-signature pack.

``builtin.rules``, shipped next to this module, is the pack's only
definition: published, verifiable facts about the producer tools (header
magic numbers, trailer key orders, classic-xref presence and a handful of
body/trailer templates).  It is parsed, validated and compiled by
:func:`pdfprov.rules.load_rulepack`, as user and mined packs are.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .rules import Rule, Rulepack, load_rulepack


def build_rules() -> list[Rule]:
    """Load the rules of the shipped ``builtin.rules``."""
    text = Path(__file__).with_name("builtin.rules").read_text(encoding="utf-8")
    return load_rulepack(text).rules


@lru_cache(maxsize=1)
def builtin() -> Rulepack:
    """The embedded builtin rulepack."""
    return Rulepack("builtin", build_rules())
