"""LANTERN-SENTRY: repo-aware static analysis for the invariants this
codebase actually runs on.

Eight PRs of fused kernels, cross-thread serving structures, and structured
errors rest on hand-maintained contracts — every turbo path keeps a
parity-tested reference twin, shared state mutates only under its lock, hot
decode paths stay allocation-disciplined, service code raises the
:mod:`repro.errors` taxonomy, and the documented API surface matches the
code.  SENTRY machine-checks them: a dependency-free, ``ast``-based engine
(``python -m repro.analysis``) with five repo-aware rule families:

* ``lock-discipline`` — in classes that own a :class:`threading.Lock`,
  attributes mutated under ``with self._lock:`` anywhere must be mutated
  under it everywhere, and read-modify-write counter updates may never run
  unlocked;
* ``parity-pair`` — every fused/turbo kernel resolves to its reference
  twin, and tests exercise both;
* ``hot-path`` — the declared hot functions (batched decode, cache lookup,
  span record, router forward) stay free of per-iteration array
  concatenation, array-accumulating list appends, stray ``float64``
  literals, and per-item try/except;
* ``error-taxonomy`` — serving code raises only the :mod:`repro.errors`
  hierarchy, and broad ``except`` clauses never swallow silently;
* ``api-surface`` — HTTP routes and ``__main__`` CLI flags stay documented
  in ``docs/``.

Findings are suppressed inline with ``# sentry: off[rule-name]`` or
accepted wholesale through a committed baseline file; see
``docs/development.md`` for the workflow.
"""

from __future__ import annotations

from repro.analysis.engine import (
    AnalysisContext,
    AnalysisReport,
    Finding,
    SourceFile,
    analyze,
    discover_repo_root,
)
from repro.analysis.baseline import Baseline
from repro.analysis.rules import ALL_RULES, get_rules

__all__ = [
    "ALL_RULES",
    "AnalysisContext",
    "AnalysisReport",
    "Baseline",
    "Finding",
    "SourceFile",
    "analyze",
    "discover_repo_root",
    "get_rules",
]
