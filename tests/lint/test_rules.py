"""Fixture-driven tests: one positive hit, one negative pass, and one
allow-comment suppression per rule (plus rule-specific edge cases)."""

import textwrap

from tools.lint.engine import SourceFile, lint_source
from tools.lint.rules import (BareExceptionRule, BlockingTimeoutRule,
                              DirectTimingRule,
                              FloatEqualityRule,
                              LoggingHandlerIsolationRule,
                              PublicAnnotationsRule,
                              UnseededRandomnessRule)


def check(rule, snippet, path="src/repro/core/snippet.py"):
    source = SourceFile.parse(path, textwrap.dedent(snippet))
    return lint_source(source, [rule])


class TestR001BareExceptions:
    def test_flags_bare_valueerror(self):
        findings = check(BareExceptionRule(), """\
            def f(x):
                raise ValueError(f"bad {x}")
            """)
        assert [f.code for f in findings] == ["R001"]
        assert findings[0].line == 2

    def test_flags_uncalled_and_exception_and_runtimeerror(self):
        findings = check(BareExceptionRule(), """\
            raise RuntimeError("a")
            raise Exception
            """)
        assert [f.line for f in findings] == [1, 2]

    def test_passes_taxonomy_raises(self):
        assert check(BareExceptionRule(), """\
            from repro.exceptions import InvalidParameterError

            def f(x):
                raise InvalidParameterError(f"bad {x}")
            """) == []

    def test_passes_bare_reraise(self):
        assert check(BareExceptionRule(), """\
            try:
                pass
            except Exception:
                raise
            """) == []

    def test_allow_comment_suppresses(self):
        assert check(BareExceptionRule(), """\
            raise ValueError("intentional")  # lint: allow[R001]
            """) == []

    def test_skipped_in_tests_tree(self):
        assert check(BareExceptionRule(), 'raise ValueError("x")\n',
                     path="tests/core/test_x.py") == []


class TestR002UnseededRandomness:
    def test_flags_numpy_module_level_draw(self):
        findings = check(UnseededRandomnessRule(), """\
            import numpy as np
            noise = np.random.rand(3)
            """)
        assert [f.code for f in findings] == ["R002"]

    def test_flags_numpy_seed_and_full_module_name(self):
        findings = check(UnseededRandomnessRule(), """\
            import numpy
            numpy.random.seed(0)
            """)
        assert len(findings) == 1

    def test_flags_stdlib_module_function(self):
        findings = check(UnseededRandomnessRule(), """\
            import random
            x = random.randint(0, 10)
            """)
        assert [f.code for f in findings] == ["R002"]

    def test_passes_explicit_generators(self):
        assert check(UnseededRandomnessRule(), """\
            import random
            import numpy as np

            rng = np.random.default_rng(1999)
            values = rng.normal(size=4)
            stdlib_rng = random.Random(7)
            pick = stdlib_rng.random()
            """) == []

    def test_allow_comment_suppresses(self):
        assert check(UnseededRandomnessRule(), """\
            import numpy as np
            x = np.random.rand()  # lint: allow[R002]
            """) == []


class TestR003FloatEquality:
    def test_flags_equality_against_float_literal(self):
        findings = check(FloatEqualityRule(), """\
            def f(x):
                return x == 0.5
            """)
        assert [f.code for f in findings] == ["R003"]

    def test_flags_noteq_negative_literal_and_float_call(self):
        findings = check(FloatEqualityRule(), """\
            a = b != -1.5
            c = d == float(e)
            """)
        assert [f.line for f in findings] == [1, 2]

    def test_passes_orderings_and_integer_equality(self):
        assert check(FloatEqualityRule(), """\
            def f(x, n):
                return x < 0.5 or x >= 1.0 or n == 3
            """) == []

    def test_only_applies_to_hot_subpackages(self):
        snippet = "x = y == 0.5\n"
        assert check(FloatEqualityRule(), snippet,
                     path="src/repro/datasets/generator.py") == []
        assert check(FloatEqualityRule(), snippet,
                     path="src/repro/wavelets/haar.py") != []
        assert check(FloatEqualityRule(), snippet,
                     path="src/repro/index/rstar.py") != []

    def test_allow_comment_suppresses(self):
        assert check(FloatEqualityRule(),
                     "exact = x == 0.0  # lint: allow[R003]\n") == []


class TestR005PublicAnnotations:
    def test_flags_unannotated_parameter(self):
        findings = check(PublicAnnotationsRule(), """\
            def public(x) -> int:
                return x
            """)
        assert [f.code for f in findings] == ["R005"]
        assert "x" in findings[0].message

    def test_flags_missing_return(self):
        findings = check(PublicAnnotationsRule(), """\
            def public(x: int):
                return x
            """)
        assert "return annotation" in findings[0].message

    def test_flags_unannotated_starargs_and_dunders(self):
        findings = check(PublicAnnotationsRule(), """\
            class Thing:
                def __exit__(self, *exc_info) -> None:
                    pass
            """)
        assert [f.code for f in findings] == ["R005"]
        assert "*exc_info" in findings[0].message

    def test_passes_fully_annotated_method_and_skips_self(self):
        assert check(PublicAnnotationsRule(), """\
            class Thing:
                def method(self, x: int, *args: str, **kw: object) -> int:
                    return x

                @staticmethod
                def helper(y: int) -> int:
                    return y

                @classmethod
                def build(cls, z: int) -> "Thing":
                    return cls()
            """) == []

    def test_private_helpers_and_nested_functions_exempt(self):
        assert check(PublicAnnotationsRule(), """\
            def _helper(x):
                def inner(y):
                    return y
                return inner(x)
            """) == []

    def test_allow_comment_suppresses(self):
        assert check(PublicAnnotationsRule(), """\
            def public(x):  # lint: allow[R005]
                return x
            """) == []


class TestR006DirectTiming:
    def test_flags_clock_reads(self):
        findings = check(DirectTimingRule(), """\
            import time
            start = time.perf_counter()
            stamp = time.time()
            mono = time.monotonic_ns()
            """)
        assert [f.code for f in findings] == ["R006"] * 3
        assert [f.line for f in findings] == [2, 3, 4]

    def test_flags_from_import(self):
        findings = check(DirectTimingRule(), """\
            from time import perf_counter
            """)
        assert [f.code for f in findings] == ["R006"]
        assert "Stopwatch" in findings[0].message

    def test_passes_sleep_and_calendar_functions(self):
        assert check(DirectTimingRule(), """\
            import time
            time.sleep(0.1)
            label = time.strftime("%Y-%m-%d")
            """) == []

    def test_passes_observability_primitives(self):
        assert check(DirectTimingRule(), """\
            from repro.observability import Stopwatch, get_metrics

            def f() -> float:
                watch = Stopwatch()
                with get_metrics().timer("f.seconds"):
                    pass
                return watch.elapsed
            """) == []

    def test_observability_layer_exempt(self):
        snippet = "import time\nnow = time.perf_counter()\n"
        assert check(DirectTimingRule(), snippet,
                     path="src/repro/observability/registry.py") == []

    def test_outside_repro_exempt(self):
        snippet = "import time\nnow = time.perf_counter()\n"
        assert check(DirectTimingRule(), snippet,
                     path="tools/lint/engine.py") == []

    def test_allow_comment_suppresses(self):
        assert check(DirectTimingRule(), """\
            import time
            now = time.time()  # lint: allow[R006]
            """) == []


class TestR007LoggingHandlerIsolation:
    def test_flags_handler_construction(self):
        findings = check(LoggingHandlerIsolationRule(), """\
            import logging
            handler = logging.StreamHandler()
            logging.basicConfig(level=logging.INFO)
            """)
        assert [f.code for f in findings] == ["R007"] * 2
        assert [f.line for f in findings] == [2, 3]

    def test_flags_logging_handlers_module(self):
        findings = check(LoggingHandlerIsolationRule(), """\
            import logging.handlers
            h = logging.handlers.RotatingFileHandler("x.log")
            """)
        assert [f.code for f in findings] == ["R007"]
        assert findings[0].line == 2

    def test_flags_handler_imports(self):
        findings = check(LoggingHandlerIsolationRule(), """\
            from logging import StreamHandler
            from logging.handlers import RotatingFileHandler
            """)
        assert [f.code for f in findings] == ["R007"] * 2

    def test_flags_add_and_remove_handler(self):
        findings = check(LoggingHandlerIsolationRule(), """\
            import logging
            logger = logging.getLogger("x")
            logger.addHandler(object())
            logger.removeHandler(object())
            """)
        assert [f.code for f in findings] == ["R007"] * 2
        assert [f.line for f in findings] == [3, 4]

    def test_passes_plain_logging_use(self):
        assert check(LoggingHandlerIsolationRule(), """\
            import logging
            logger = logging.getLogger("x")
            logger.info("hello")
            """) == []

    def test_event_log_module_exempt(self):
        snippet = ("import logging.handlers\n"
                   "h = logging.handlers.RotatingFileHandler('x.log')\n")
        assert check(LoggingHandlerIsolationRule(), snippet,
                     path="src/repro/observability/events.py") == []

    def test_other_observability_modules_not_exempt(self):
        snippet = "import logging\nh = logging.StreamHandler()\n"
        findings = check(LoggingHandlerIsolationRule(), snippet,
                         path="src/repro/observability/export.py")
        assert [f.code for f in findings] == ["R007"]

    def test_outside_repro_exempt(self):
        snippet = "import logging\nlogging.basicConfig()\n"
        assert check(LoggingHandlerIsolationRule(), snippet,
                     path="tools/lint/engine.py") == []

    def test_allow_comment_suppresses(self):
        assert check(LoggingHandlerIsolationRule(), """\
            import logging
            logging.basicConfig()  # lint: allow[R007]
            """) == []


class TestR008BlockingTimeouts:
    PATH = "src/repro/server/app.py"

    def test_flags_bare_wait_like_calls(self):
        findings = check(BlockingTimeoutRule(), """\
            def f(lock, event, thread, queue):
                lock.acquire()
                event.wait()
                thread.join()
                queue.get()
            """, path=self.PATH)
        assert [f.code for f in findings] == ["R008"] * 4
        assert [f.line for f in findings] == [2, 3, 4, 5]

    def test_passes_bounded_and_nonblocking_forms(self):
        assert check(BlockingTimeoutRule(), """\
            def f(lock, event, thread, queue):
                lock.acquire(timeout=1.0)
                lock.acquire(blocking=False)
                lock.acquire(False)
                event.wait(timeout=0.5)
                event.wait(0.5)
                thread.join(timeout=5.0)
                queue.get(timeout=2.0)
            """, path=self.PATH) == []

    def test_positional_args_count_as_bounds(self):
        # dict.get(key) and "sep".join(parts) must not be flagged.
        assert check(BlockingTimeoutRule(), """\
            def f(mapping, parts):
                mapping.get("key")
                return ", ".join(parts)
            """, path=self.PATH) == []

    def test_flags_urlopen_without_timeout(self):
        findings = check(BlockingTimeoutRule(), """\
            import urllib.request

            def f(request):
                return urllib.request.urlopen(request)
            """, path=self.PATH)
        assert [f.code for f in findings] == ["R008"]

    def test_passes_urlopen_with_timeout(self):
        assert check(BlockingTimeoutRule(), """\
            import urllib.request

            def f(request):
                return urllib.request.urlopen(request, timeout=10.0)
            """, path=self.PATH) == []

    def test_scoped_to_server_package(self):
        snippet = "def f(lock):\n    lock.acquire()\n"
        assert check(BlockingTimeoutRule(), snippet,
                     path="src/repro/core/database.py") == []
        assert check(BlockingTimeoutRule(), snippet,
                     path="src/repro/observability/server.py") == []

    def test_allow_comment_suppresses(self):
        assert check(BlockingTimeoutRule(), """\
            def f(lock):
                lock.acquire()  # lint: allow[R008]
            """, path=self.PATH) == []
