"""R014 — span handles must be entered with ``with``.

``Tracer.span(...)`` returns a context-manager *handle*, not a span:
nothing starts until ``__enter__`` and — critically — nothing ever
finishes without ``__exit__``.  A handle that is called and discarded
(``tracer.span("probe")`` as a bare statement) or parked in a variable
that is never entered records no timing, never resets the
ambient-span context variable, and if entered manually without a
paired exit leaves every subsequent span in the request parented to a
ghost.  The whole-trace invariant (root exit → flight-recorder
hand-off) rests on enter/exit pairing, so the rule insists on the one
form Python guarantees to pair them: the ``with`` statement.

Flagged inside ``src/repro``::

    tracer.span("probe")                  # discarded: never runs
    handle = get_tracer().span("probe")   # parked: nothing pairs it

Allowed::

    with tracer.span("probe") as span: ...
    with get_tracer().span("probe", parent=remote) as span: ...

The lifecycle owner is exempt: ``observability/spans.py`` defines the
handles.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.engine import (Finding, Rule, SourceFile, path_segments,
                               register)

#: Files that own the handle lifecycle and may manage it manually.
_EXEMPT_FILES = frozenset({"spans.py"})


def _is_span_call(node: ast.Call) -> bool:
    """``<receiver>.span(...)`` where the receiver looks like a tracer:
    a name or attribute mentioning ``tracer`` or a direct
    ``get_tracer()`` call."""
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr != "span":
        return False
    receiver = func.value
    if isinstance(receiver, ast.Call):
        inner = receiver.func
        name = inner.attr if isinstance(inner, ast.Attribute) else \
            inner.id if isinstance(inner, ast.Name) else ""
        return name == "get_tracer"
    if isinstance(receiver, ast.Name):
        return "tracer" in receiver.id.lower()
    if isinstance(receiver, ast.Attribute):
        return "tracer" in receiver.attr.lower()
    return False


@register
class SpanLifecycleRule(Rule):
    code = "R014"
    name = "span-lifecycle"
    rationale = ("Tracer.span(...) returns a context-manager handle; "
                 "only a with statement guarantees the __enter__/"
                 "__exit__ pairing that finishes the span and restores "
                 "the ambient-span context")

    def applies_to(self, path: str) -> bool:
        segments = path_segments(path)
        if "repro" not in segments or "tests" in segments:
            return False
        if "observability" in segments and segments \
                and segments[-1] in _EXEMPT_FILES:
            return False
        return True

    def check(self, source: SourceFile) -> Iterator[Finding]:
        managed: set[int] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    managed.add(id(item.context_expr))
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call) and _is_span_call(node) \
                    and id(node) not in managed:
                yield self.finding(
                    source, node,
                    "span handle not entered with a with statement; "
                    "write `with tracer.span(...) as span:` so the "
                    "span is guaranteed to finish")
