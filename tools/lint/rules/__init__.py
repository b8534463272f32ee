"""Built-in lint rules.

Importing this package registers every rule with the engine's
registry.  Each rule lives in its own module so the framework stays a
plugin API: drop a new module here, decorate the class with
``@register``, import it below, and it runs.

R001–R003, R005–R008 and R014 are per-node rules; R009–R013 are built on the
dataflow layer in ``tools/lint/dataflow.py`` (see
``docs/DEVELOPING.md``).
"""

from __future__ import annotations

from tools.lint.rules.annotations import PublicAnnotationsRule
from tools.lint.rules.blocking_timeouts import BlockingTimeoutRule
from tools.lint.rules.deadline_threading import DeadlineThreadingRule
from tools.lint.rules.exceptions import BareExceptionRule
from tools.lint.rules.float_equality import FloatEqualityRule
from tools.lint.rules.format_spec import FormatSpecRule
from tools.lint.rules.lock_discipline import LockDisciplineRule
from tools.lint.rules.lock_ordering import LockOrderingRule
from tools.lint.rules.logging_handlers import LoggingHandlerIsolationRule
from tools.lint.rules.randomness import UnseededRandomnessRule
from tools.lint.rules.span_lifecycle import SpanLifecycleRule
from tools.lint.rules.timing import DirectTimingRule
from tools.lint.rules.view_escape import ViewEscapeRule

__all__ = [
    "BareExceptionRule",
    "BlockingTimeoutRule",
    "DeadlineThreadingRule",
    "FloatEqualityRule",
    "FormatSpecRule",
    "LockDisciplineRule",
    "LockOrderingRule",
    "LoggingHandlerIsolationRule",
    "PublicAnnotationsRule",
    "SpanLifecycleRule",
    "UnseededRandomnessRule",
    "ViewEscapeRule",
]
