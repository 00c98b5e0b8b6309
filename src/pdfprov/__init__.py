"""pdfprov: PDF producer-tool detection from coding style.

The library segments raw PDF bytes into their four structural sections,
runs declarative byte-pattern rulepacks against them, combines the
per-section candidates by majority vote, and cross-checks the verdict
against the file's own (untrusted) metadata.  A miner derives new
rulepacks from labeled corpora and a fixture generator provides a
deterministic desk-scale corpus.
"""

from .builtin_pack import builtin
from .detector import (
    OutcomeClass,
    Refinement,
    SectionVerdict,
    Status,
    Verdict,
    VerdictKind,
    classify,
    detect,
    detect_os,
    majority_vote,
    section_verdict,
)
from .errors import (
    EmptyGroup,
    NotAPdf,
    PatternCompileError,
    PdfProvError,
    RuleParseError,
    SectionAbsentEverywhere,
)
from .fixtures import PROFILES, ProducerProfile, emit_corpus, generate
from .metadata import (
    ConsistencyStatus,
    DeclaredMetadata,
    extract_declared,
    normalize_producer_string,
)
from .miner import CandidatePattern, CorpusFile, LabeledCorpus, emit_rulepack, mine
from .producers import Distro, OpSys, Producer
from .rules import (
    Rule,
    RuleKind,
    RuleMatch,
    Rulepack,
    SectionKind,
    load_rulepack,
    match_section,
)
from .segmenter import (
    HeaderInfo,
    IndirectObject,
    PdfSections,
    Span,
    TrailerDict,
    XrefEntry,
    XrefTable,
    parse_header,
    segment,
)

__version__ = "0.1.0"
