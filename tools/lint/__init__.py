"""WALRUS project lint: an AST rule framework for the repository's
correctness invariants.

Run it from the repository root::

    python -m tools.lint src/          # lint the library
    python -m tools.lint --list-rules  # show the registered rules
    walrus lint                        # same, through the CLI

Built-in rules (see ``docs/DEVELOPING.md`` for rationale and the
suppression syntax ``# lint: allow[CODE]``):

=====  ==============================================================
R001   no bare ``ValueError``/``RuntimeError``/``Exception`` raises
R002   no unseeded module-level randomness (``np.random.*`` draws)
R003   no exact float ``==``/``!=`` in ``core``/``index``/``wavelets``
R005   public functions must carry complete type annotations
=====  ==============================================================
"""

from __future__ import annotations

from tools.lint.engine import (Finding, Rule, SourceFile, default_rules,
                               discover_files, lint_source, main,
                               register, run_paths)

__all__ = [
    "Finding",
    "Rule",
    "SourceFile",
    "default_rules",
    "discover_files",
    "lint_source",
    "main",
    "register",
    "run_paths",
]
