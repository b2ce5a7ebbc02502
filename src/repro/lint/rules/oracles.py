"""RPR001 — every vectorized kernel keeps its ``_*_naive`` oracle twin.

The wavefront/Gram-trick/screened-assignment fast paths are only
trustworthy because a plain transcription of the paper's recurrence lives
next to each one and a differential test pins the two together
bit-for-bit.  This rule makes the
convention mechanical, in three parts:

1. **Required twins.** For the modules listed in :data:`REQUIRED_ORACLES`,
   each named kernel must be accompanied by its naive twin in the same
   module.  Deleting ``_dtw_naive`` from ``distances/dtw.py`` fails the
   lint run even though the test suite might still import something else.
2. **Orphan twins.** Any module-level ``_<kernel>_naive`` definition must
   have a ``<kernel>`` partner in the same module — a twin whose fast
   path was renamed away is a stale oracle.
3. **Test reference.** Every ``_*_naive`` definition must be referenced by
   name somewhere under ``tests/`` — an oracle no differential test reads
   proves nothing.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator

from ..engine import Project, SourceFile
from ..violations import Violation
from . import Rule, register

#: module-path suffix -> {fast kernel name: required oracle twin name}
REQUIRED_ORACLES: Dict[str, Dict[str, str]] = {
    "distances/dtw.py": {
        "dtw": "_dtw_naive",
        "dtw_path": "_dtw_path_naive",
    },
    "distances/elastic.py": {
        "lcss": "_lcss_naive",
        "edr": "_edr_naive",
        "erp": "_erp_naive",
        "msm": "_msm_naive",
    },
    "core/shape_extraction.py": {
        "shape_extraction": "_shape_extraction_naive",
    },
    "core/kshape.py": {
        "assign_sbd": "_assign_sbd_naive",
    },
}

_NAIVE = re.compile(r"^_(?P<kernel>\w+)_naive$")


def _module_defs(tree: ast.Module) -> Dict[str, ast.AST]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


@register
class OracleTwinRule(Rule):
    code = "RPR001"
    name = "oracle-twin"
    summary = "vectorized kernels keep a _*_naive oracle referenced from a test"

    def check(self, project: Project) -> Iterator[Violation]:
        for source in project.files:
            if source.tree is None:
                continue
            yield from self._check_file(project, source)

    def _check_file(self, project: Project, source: SourceFile) -> Iterator[Violation]:
        defs = _module_defs(source.tree)
        for suffix, pairs in REQUIRED_ORACLES.items():
            if not source.endswith(suffix):
                continue
            for kernel, twin in pairs.items():
                if kernel in defs and twin not in defs:
                    yield self.violation(
                        f"kernel `{kernel}` has no naive oracle twin `{twin}` "
                        "in this module; the fast path must stay pinned to a "
                        "literal transcription of the paper's recurrence",
                        source.relpath,
                        defs[kernel],
                    )
        for name, node in defs.items():
            match = _NAIVE.match(name)
            if match is None:
                continue
            kernel = match.group("kernel")
            if kernel not in defs:
                yield self.violation(
                    f"naive oracle `{name}` has no fast-path partner "
                    f"`{kernel}` in this module (stale oracle?)",
                    source.relpath,
                    node,
                )
            if name not in project.test_text:
                yield self.violation(
                    f"naive oracle `{name}` is not referenced from any file "
                    "under tests/; add a differential test pinning the fast "
                    "path to it",
                    source.relpath,
                    node,
                )
