"""R012 — ``np.frombuffer`` views must not escape into long-lived state.

v3 reads are zero-copy: ``np.frombuffer`` over the store's shared
``mmap`` returns views that alias the mapping.  The retired-mapping
lifecycle in ``storage``/``nodecodec`` keeps superseded mappings
alive while decoded nodes still reference them — but only for views
*it* handed out.  A view stashed anywhere else (an instance attribute,
a module-level cache, a container that outlives the call) dangles the
moment the store closes its mappings, and "works" until the first
segfault-shaped ``BufferError`` in production.

The rule taints every local bound to a ``frombuffer`` result, keeps
the taint through view-preserving operations (``reshape``, ``view``,
``T``, slicing), drops it through copying ones (``copy``, ``astype``,
``np.array``, ``np.ascontiguousarray``, ``tolist``, ``unpackbits``,
arithmetic), and flags tainted values stored into attributes,
subscripted containers, or via mutating container methods.  Returning
a view is allowed — ownership transfers to the caller, which this
rule checks in turn.  ``nodecodec.py`` is exempt: it makes the views
the lifecycle hands out.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.engine import Finding, Rule, SourceFile, path_segments, register

#: ndarray methods returning a view over the same buffer.
_VIEW_METHODS = frozenset({"reshape", "view", "ravel", "squeeze",
                           "swapaxes", "transpose"})

#: Container methods that store their argument.
_STORING_METHODS = frozenset({"append", "add", "insert", "extend",
                              "appendleft", "setdefault", "update"})

#: Files that own the retired-mapping lifecycle.
_LIFECYCLE_OWNERS = frozenset({"nodecodec.py"})


def _is_frombuffer(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "frombuffer"
    return isinstance(func, ast.Name) and func.id == "frombuffer"


@register
class ViewEscapeRule(Rule):
    code = "R012"
    name = "mmap-view-escape"
    rationale = ("np.frombuffer views alias the shared mmap and are "
                 "only kept valid by the retired-mapping lifecycle in "
                 "storage/nodecodec; copy() before storing them "
                 "anywhere long-lived")

    def applies_to(self, path: str) -> bool:
        segments = path_segments(path)
        return ("repro" in segments and "tests" not in segments
                and segments[-1] not in _LIFECYCLE_OWNERS)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(source, node)
        # Module-level: a frombuffer bound at import time is stored in
        # module state by definition.
        for statement in source.tree.body:
            if isinstance(statement, ast.Assign) \
                    and self._tainted(statement.value, frozenset()):
                yield self.finding(
                    source, statement,
                    "np.frombuffer view bound at module level outlives "
                    "every mapping; copy the data instead")

    def _check_function(self, source: SourceFile,
                        func: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> Iterator[Finding]:
        tainted = self._tainted_locals(func)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                if not self._tainted(node.value, tainted):
                    continue
                for target in node.targets:
                    escape = self._escape_target(target)
                    if escape is not None:
                        yield self.finding(
                            source, node,
                            f"np.frombuffer view stored into {escape}; "
                            "the view aliases the shared mmap — "
                            ".copy() it first")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _STORING_METHODS \
                    and isinstance(node.func.value,
                                   (ast.Attribute, ast.Name)):
                receiver = node.func.value
                if isinstance(receiver, ast.Name) \
                        and receiver.id in tainted:
                    continue  # mutating the view itself, not storing it
                if any(self._tainted(arg, tainted) for arg in node.args):
                    yield self.finding(
                        source, node,
                        f"np.frombuffer view passed to "
                        f".{node.func.attr}(...) on a long-lived "
                        "container; .copy() it first")

    def _tainted_locals(self, func: ast.AST) -> frozenset[str]:
        """Local names ever bound to a view, to fixpoint."""
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in ast.walk(func):
                if not isinstance(node, ast.Assign):
                    continue
                if not self._tainted(node.value, frozenset(tainted)):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) \
                            and target.id not in tainted:
                        tainted.add(target.id)
                        changed = True
        return frozenset(tainted)

    def _tainted(self, expr: ast.AST, tainted: frozenset[str]) -> bool:
        """Whether ``expr`` evaluates to (a view of) a frombuffer view."""
        if _is_frombuffer(expr):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in tainted
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in _VIEW_METHODS:
                return self._tainted(func.value, tainted)
            return False  # any other call: assume it copies
        if isinstance(expr, ast.Subscript):
            return self._tainted(expr.value, tainted)
        if isinstance(expr, ast.Attribute) and expr.attr == "T":
            return self._tainted(expr.value, tainted)
        if isinstance(expr, ast.IfExp):
            return (self._tainted(expr.body, tainted)
                    or self._tainted(expr.orelse, tainted))
        return False

    def _escape_target(self, target: ast.AST) -> str | None:
        """A description of the long-lived store ``target`` denotes,
        or ``None`` when assigning there is fine (plain locals)."""
        if isinstance(target, ast.Attribute):
            return f"attribute '{ast.unparse(target)}'"
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute):
                return f"container '{ast.unparse(base)}'"
            if isinstance(base, ast.Name) and base.id.isupper():
                return f"module-level container '{base.id}'"
        return None
