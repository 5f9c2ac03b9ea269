"""parity-pair: every fused/turbo kernel keeps a live, tested reference twin.

The repro's optimization story (ROADMAP PRs 3-6) is "fast path + reference
path + agreement test".  This rule makes the triangle structural:

* every ``*_fused``/``*_turbo`` symbol in ``nlg/nn/`` or ``nlg/seq2seq.py``
  must resolve to a reference counterpart in the same scope — the base name
  (``forward_fused`` → ``forward``) or ``<base>_reference``
  (``_forward_turbo`` → ``_forward_reference``);
* every *public* fused symbol must be exercised together with its twin by
  at least one test module (private kernels are reached through config
  flags, so their pairing is enforced at the call-site pair below);
* declared call-site pairs (batched beam decode vs. its sequential twin)
  get the same treatment even though neither name carries a suffix.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.engine import AnalysisContext, Finding, SourceFile
from repro.analysis.rules import Rule

_FUSED_SUFFIXES = ("_fused", "_turbo")

#: (file suffix, class, fast symbol) → required reference symbol; these are
#: parity pairs whose names carry no fused/turbo marker
_EXTRA_PAIRS = (
    ("nlg/seq2seq.py", "QEP2Seq", "beam_decode_batch", "beam_decode_candidates_sequential"),
)


def _fused_base(name: str) -> Optional[str]:
    for suffix in _FUSED_SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return name[: -len(suffix)]
    return None


def _scope_functions(scope: ast.AST) -> dict[str, ast.AST]:
    """Direct function children of a module or class body."""
    return {
        node.name: node
        for node in getattr(scope, "body", [])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class ParityPairRule(Rule):
    name = "parity-pair"
    description = (
        "fused/turbo kernels must keep a resolvable reference twin, and public "
        "pairs must share a test"
    )
    requires_tests = True

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        sources = context.files_under("nlg/nn") + context.files_matching(
            "nlg/seq2seq.py"
        )
        tests = context.test_texts()
        for source in sources:
            yield from self._check_scope(source, source.tree, None, tests)
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_scope(source, node, node.name, tests)
            yield from self._check_extra_pairs(source, tests)

    def _check_scope(
        self,
        source: SourceFile,
        scope: ast.AST,
        class_name: Optional[str],
        tests: dict[str, str],
    ) -> Iterator[Finding]:
        functions = _scope_functions(scope)
        for name, node in functions.items():
            base = _fused_base(name)
            if base is None:
                continue
            qual = f"{class_name}.{name}" if class_name else name
            reference = next(
                (c for c in (base, base + "_reference") if c in functions), None
            )
            if reference is None:
                yield Finding(
                    rule=self.name,
                    path=source.rel,
                    line=node.lineno,
                    symbol=qual,
                    message=(
                        f"fused symbol {qual} has no reference counterpart "
                        f"({base} or {base}_reference) in the same scope"
                    ),
                )
                continue
            if name.startswith("_") or not tests:
                continue
            if not any(name in text and reference in text for text in tests.values()):
                yield Finding(
                    rule=self.name,
                    path=source.rel,
                    line=node.lineno,
                    symbol=f"{qual}:untested",
                    message=(
                        f"no test module references both {name} and its "
                        f"reference twin {reference}"
                    ),
                )

    def _check_extra_pairs(
        self, source: SourceFile, tests: dict[str, str]
    ) -> Iterator[Finding]:
        for suffix, class_name, fast, reference in _EXTRA_PAIRS:
            if not (source.rel == suffix or source.rel.endswith("/" + suffix)):
                continue
            cls = next(
                (
                    node
                    for node in ast.walk(source.tree)
                    if isinstance(node, ast.ClassDef) and node.name == class_name
                ),
                None,
            )
            if cls is None:
                continue
            functions = _scope_functions(cls)
            if fast not in functions:
                continue
            if reference not in functions:
                yield Finding(
                    rule=self.name,
                    path=source.rel,
                    line=functions[fast].lineno,
                    symbol=f"{class_name}.{fast}",
                    message=(
                        f"{class_name}.{fast} lost its declared reference twin "
                        f"{class_name}.{reference}"
                    ),
                )
            elif tests and not any(
                fast in text and reference in text for text in tests.values()
            ):
                yield Finding(
                    rule=self.name,
                    path=source.rel,
                    line=functions[fast].lineno,
                    symbol=f"{class_name}.{fast}:untested",
                    message=(
                        f"no test module references both {fast} and {reference}"
                    ),
                )
