"""pdfprov: PDF producer-tool detection from coding style.

The library segments raw PDF bytes into their four structural sections,
runs declarative byte-pattern rulepacks against them, combines the
per-section candidates by majority vote, and cross-checks the verdict
against the file's own (untrusted) metadata.  A miner derives new
rulepacks from labeled corpora and a fixture generator provides a
deterministic desk-scale corpus.

The package exposes only :func:`builtin`, so that importing it loads the
builtin pack's modules and nothing else.  Every other name comes from its
module, for example ``from pdfprov.segmenter import segment``.
"""

from .builtin_pack import builtin

__version__ = "0.1.0"
