"""R004 — work submitted to process pools must be picklable.

A ``multiprocessing.Pool`` (such as the one
:meth:`repro.core.database.WalrusDatabase.add_images` maps a batch
over when ``workers > 1``) ships the callable to worker processes by
pickling.  Lambdas, closures (functions defined inside another
function) and bound methods of arbitrary objects either fail to pickle
outright or silently drag an entire object graph across the fork
boundary.  Submit module-level functions; thread per-worker state
through an initializer, as ``add_images`` does.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.engine import Finding, Rule, SourceFile, register

#: Pool/executor methods whose first argument is shipped to workers.
_SUBMIT_METHODS = frozenset({
    "apply", "apply_async", "map", "map_async",
    "imap", "imap_unordered", "starmap", "starmap_async", "submit",
})


def _nested_function_names(tree: ast.Module) -> frozenset[str]:
    """Names of functions defined inside another function (closures)."""
    nested: set[str] = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer:
                continue
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(inner.name)
    return frozenset(nested)


def _imported_modules(tree: ast.Module) -> frozenset[str]:
    """Local names that are bound to modules by ``import`` statements."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return frozenset(names)


@register
class PicklableSubmissionRule(Rule):
    code = "R004"
    name = "picklable-pool-submissions"
    rationale = ("callables handed to process-pool methods must be "
                 "module-level functions (lambdas, closures and bound "
                 "methods do not pickle)")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        nested = _nested_function_names(source.tree)
        modules = _imported_modules(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in _SUBMIT_METHODS):
                continue
            if not node.args:
                continue
            submitted = node.args[0]
            if isinstance(submitted, ast.Lambda):
                yield self.finding(
                    source, node,
                    f"lambda submitted to {func.attr}(); lambdas are not "
                    "picklable — use a module-level function")
            elif isinstance(submitted, ast.Name) and submitted.id in nested:
                yield self.finding(
                    source, node,
                    f"closure {submitted.id!r} submitted to {func.attr}(); "
                    "nested functions are not picklable — hoist it to "
                    "module level")
            elif isinstance(submitted, ast.Attribute):
                chain_root = submitted
                while isinstance(chain_root.value, ast.Attribute):
                    chain_root = chain_root.value
                root = chain_root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    continue  # module.function is picklable by reference
                yield self.finding(
                    source, node,
                    f"bound method .{submitted.attr} submitted to "
                    f"{func.attr}(); bound methods pickle their whole "
                    "instance (or fail) — use a module-level function "
                    "with an initializer")
