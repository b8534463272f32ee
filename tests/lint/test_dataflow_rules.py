"""The dataflow rules R009–R012: lock discipline, lock ordering,
deadline threading, mmap-view escape.

Each rule gets positive fixtures (the violation is flagged), negative
fixtures (idiomatic code stays clean) and a suppression fixture
(``# lint: allow[...]`` wins).  R009/R011/R012 are per-file rules
checked through ``rule.check``; R010 is a project rule driven through
``start_run``/``check``/``finish`` like the runner does.
"""

import textwrap

from tools.lint.engine import SourceFile, lint_source
from tools.lint.rules.deadline_threading import DeadlineThreadingRule
from tools.lint.rules.lock_discipline import LockDisciplineRule
from tools.lint.rules.lock_ordering import LockOrderingRule
from tools.lint.rules.view_escape import ViewEscapeRule

SERVER_PATH = "src/repro/server/fixture.py"
CORE_PATH = "src/repro/core/fixture.py"


def parse(snippet, path=SERVER_PATH):
    return SourceFile.parse(path, textwrap.dedent(snippet))


def check(rule, source):
    """Run one rule the way the runner does (suppressions honored)."""
    return lint_source(source, [rule])


class TestR009LockDiscipline:
    GUARDED_CLASS = """
        import threading

        class Box:
            def __init__(self) -> None:
                self._lock = threading.Lock()
                self._count = 0  # guarded-by: _lock
                self._items = []  # guarded-by: _lock
    """

    def test_flags_unlocked_write(self):
        source = parse(self.GUARDED_CLASS + """
        def bump(box: Box) -> None:
            box._count += 1
        """)
        findings = check(LockDisciplineRule(), source)
        assert [f.code for f in findings] == ["R009"]
        assert "Box._count" in findings[0].message

    def test_flags_unlocked_method_write_and_mutator(self):
        source = parse(self.GUARDED_CLASS + """
        class User:
            def poke(self, box: Box) -> None:
                box._count = 5
                box._items.append(1)
        """)
        findings = check(LockDisciplineRule(), source)
        assert len(findings) == 2
        assert all(f.code == "R009" for f in findings)

    def test_flags_unlocked_keyed_write(self):
        source = parse("""
            import threading

            class Table:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._rows = {}  # guarded-by: _lock

                def put(self, key, value) -> None:
                    self._rows[key] = value
        """)
        findings = check(LockDisciplineRule(), source)
        assert [f.code for f in findings] == ["R009"]

    def test_passes_locked_writes(self):
        source = parse(self.GUARDED_CLASS + """
        def bump(box: Box) -> None:
            with box._lock:
                box._count += 1
                box._items.append(1)
        """)
        assert check(LockDisciplineRule(), source) == []

    def test_init_writes_exempt_but_class_attrs_are_not(self):
        source = parse("""
            import threading

            class Log:
                _N = 0  # guarded-by: _LOCK
                _LOCK = threading.Lock()

                def __init__(self) -> None:
                    self._seq = 0  # guarded-by: _LOCK
                    self._seq = 1
                    Log._N += 1
        """)
        findings = check(LockDisciplineRule(), source)
        assert len(findings) == 1
        assert "Log._N" in findings[0].message

    def test_cross_object_guard_through_attribute(self):
        source = parse("""
            import threading

            class Plan:
                def __init__(self) -> None:
                    self.lock = threading.Lock()
                    self.ops = 0  # guarded-by: lock

            class Worker:
                def __init__(self, plan: Plan) -> None:
                    self.plan = plan

                def good(self) -> None:
                    with self.plan.lock:
                        self.plan.ops += 1

                def bad(self) -> None:
                    self.plan.ops += 1
        """)
        findings = check(LockDisciplineRule(), source)
        assert len(findings) == 1
        assert "Plan.ops" in findings[0].message

    def test_standalone_comment_annotates_next_line(self):
        source = parse("""
            import threading

            class Wide:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    # guarded-by: _lock
                    self._table = {}

                def clobber(self) -> None:
                    self._table = {}
        """)
        findings = check(LockDisciplineRule(), source)
        assert [f.code for f in findings] == ["R009"]

    def test_allow_comment_suppresses(self):
        source = parse(self.GUARDED_CLASS + """
        def bump(box: Box) -> None:
            box._count += 1  # lint: allow[R009]
        """)
        assert check(LockDisciplineRule(), source) == []

    def test_outside_jurisdiction(self):
        rule = LockDisciplineRule()
        assert not rule.applies_to("src/repro/core/matching.py")
        assert not rule.applies_to("tests/server/test_app.py")
        assert rule.applies_to("src/repro/server/app.py")
        assert rule.applies_to("src/repro/observability/registry.py")
        assert rule.applies_to("src/repro/index/faults.py")


def run_project_rule(rule, sources):
    rule.start_run()
    findings = []
    for source in sources:
        findings.extend(check(rule, source))
    for finding in rule.finish():
        matching = [s for s in sources if s.path == finding.path]
        if not matching or not matching[0].suppresses(finding):
            findings.append(finding)
    return findings


class TestR010LockOrdering:
    def test_flags_opposite_order(self):
        source = parse("""
            import threading

            class Pair:
                def __init__(self) -> None:
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self) -> None:
                    with self._a:
                        with self._b:
                            pass

                def backward(self) -> None:
                    with self._b:
                        with self._a:
                            pass
        """)
        findings = run_project_rule(LockOrderingRule(), [source])
        assert findings and all(f.code == "R010" for f in findings)
        assert "cycle" in findings[0].message

    def test_flags_self_deadlock_through_call(self):
        source = parse("""
            import threading

            class Box:
                def __init__(self) -> None:
                    self._lock = threading.Lock()

                def outer(self) -> None:
                    with self._lock:
                        self.inner()

                def inner(self) -> None:
                    with self._lock:
                        pass
        """)
        findings = run_project_rule(LockOrderingRule(), [source])
        assert [f.code for f in findings] == ["R010"]
        assert "Box._lock" in findings[0].message

    def test_reentrant_lock_self_acquisition_allowed(self):
        source = parse("""
            import threading

            class Box:
                def __init__(self) -> None:
                    self._lock = threading.RLock()

                def outer(self) -> None:
                    with self._lock:
                        self.inner()

                def inner(self) -> None:
                    with self._lock:
                        pass
        """)
        assert run_project_rule(LockOrderingRule(), [source]) == []

    def test_consistent_order_is_clean(self):
        source = parse("""
            import threading

            class Pair:
                def __init__(self) -> None:
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self) -> None:
                    with self._a:
                        with self._b:
                            pass

                def two(self) -> None:
                    with self._a:
                        with self._b:
                            pass
        """)
        assert run_project_rule(LockOrderingRule(), [source]) == []

    def test_cross_file_cycle(self):
        first = parse("""
            import threading
            from other import Right

            class Left:
                def __init__(self, right: Right) -> None:
                    self._lock = threading.Lock()
                    self.right = right

                def go(self) -> None:
                    with self._lock:
                        with self.right._lock:
                            pass
        """, path="src/repro/server/left.py")
        second = parse("""
            import threading
            from left import Left

            class Right:
                def __init__(self, left: Left) -> None:
                    self._lock = threading.Lock()
                    self.left = left

                def go(self) -> None:
                    with self._lock:
                        with self.left._lock:
                            pass
        """, path="src/repro/server/right.py")
        findings = run_project_rule(LockOrderingRule(), [first, second])
        assert findings and all(f.code == "R010" for f in findings)

    def test_allow_comment_suppresses_finish_findings(self):
        source = parse("""
            import threading

            class Pair:
                def __init__(self) -> None:
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self) -> None:
                    with self._a:
                        with self._b:  # lint: allow[R010]
                            pass

                def backward(self) -> None:
                    with self._b:
                        with self._a:  # lint: allow[R010]
                            pass
        """)
        assert run_project_rule(LockOrderingRule(), [source]) == []


class TestR011DeadlineThreading:
    def test_flags_unconsulted_deadline(self):
        source = parse("""
            def search(items, deadline=None):
                return [item for item in items]
        """, path=CORE_PATH)
        findings = check(DeadlineThreadingRule(), source)
        assert [f.code for f in findings] == ["R011"]
        assert "never consults" in findings[0].message

    def test_flags_while_loop_without_check(self):
        source = parse("""
            def drain(queue, deadline=None):
                if deadline is not None:
                    deadline.check("drain")
                while queue:
                    queue.pop()
        """, path=CORE_PATH)
        findings = check(DeadlineThreadingRule(), source)
        assert [f.code for f in findings] == ["R011"]
        assert "while loop" in findings[0].message

    def test_flags_dropped_forwarding(self):
        source = parse("""
            def inner(deadline=None):
                if deadline is not None:
                    deadline.check("inner")

            def outer(deadline=None):
                if deadline is not None:
                    deadline.check("outer")
                inner()
        """, path=CORE_PATH)
        findings = check(DeadlineThreadingRule(), source)
        assert [f.code for f in findings] == ["R011"]
        assert "drops" in findings[0].message

    def test_passes_checked_loop_forwarding_and_explicit_none(self):
        source = parse("""
            def inner(deadline=None):
                if deadline is not None:
                    deadline.check("inner")

            def outer(items, deadline=None):
                while items:
                    if deadline is not None:
                        deadline.check("outer")
                    items.pop()
                inner(deadline=deadline)
                inner(deadline=None)
        """, path=CORE_PATH)
        assert check(DeadlineThreadingRule(), source) == []

    def test_closure_consult_counts(self):
        source = parse("""
            def search(node, deadline=None):
                def recurse(child):
                    if deadline is not None:
                        deadline.check("search")
                    for grandchild in child:
                        recurse(grandchild)
                recurse(node)
        """, path=CORE_PATH)
        assert check(DeadlineThreadingRule(), source) == []

    def test_enclosing_loop_consult_covers_inner_while(self):
        source = parse("""
            def scan(rows, deadline=None):
                for row in rows:
                    if deadline is not None:
                        deadline.check("scan")
                    while row:
                        row.pop()
        """, path=CORE_PATH)
        assert check(DeadlineThreadingRule(), source) == []

    def test_allow_comment_suppresses(self):
        source = parse("""
            def drain(queue, deadline=None):
                if deadline is not None:
                    deadline.check("drain")
                while queue:  # lint: allow[R011]
                    queue.pop()
        """, path=CORE_PATH)
        assert check(DeadlineThreadingRule(), source) == []


class TestR012ViewEscape:
    def test_flags_attribute_store(self):
        source = parse("""
            import numpy as np

            class Cache:
                def load(self, payload) -> None:
                    self._bounds = np.frombuffer(payload, dtype=np.float64)
        """, path=CORE_PATH)
        findings = check(ViewEscapeRule(), source)
        assert [f.code for f in findings] == ["R012"]

    def test_flags_store_through_view_preserving_ops(self):
        source = parse("""
            import numpy as np

            class Cache:
                def load(self, payload, key) -> None:
                    rows = np.frombuffer(payload, dtype=np.uint8)
                    shaped = rows.reshape(4, 4)
                    self._pages[key] = shaped[:2]
        """, path=CORE_PATH)
        findings = check(ViewEscapeRule(), source)
        assert [f.code for f in findings] == ["R012"]

    def test_flags_container_append(self):
        source = parse("""
            import numpy as np

            class Cache:
                def load(self, payload) -> None:
                    self._held.append(np.frombuffer(payload, dtype=np.uint8))
        """, path=CORE_PATH)
        findings = check(ViewEscapeRule(), source)
        assert [f.code for f in findings] == ["R012"]

    def test_copying_operations_launder_the_taint(self):
        source = parse("""
            import numpy as np

            class Cache:
                def load(self, payload) -> None:
                    view = np.frombuffer(payload, dtype=np.float64)
                    self._bounds = view.copy()
                    self._floats = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
                    self._bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        """, path=CORE_PATH)
        assert check(ViewEscapeRule(), source) == []

    def test_returning_a_view_is_allowed(self):
        source = parse("""
            import numpy as np

            def decode(payload):
                return np.frombuffer(payload, dtype=np.float64)
        """, path=CORE_PATH)
        assert check(ViewEscapeRule(), source) == []

    def test_lifecycle_owners_exempt(self):
        rule = ViewEscapeRule()
        assert not rule.applies_to("src/repro/index/nodecodec.py")
        assert rule.applies_to("src/repro/index/storage.py")

    def test_allow_comment_suppresses(self):
        source = parse("""
            import numpy as np

            class Cache:
                def load(self, payload) -> None:
                    self._bounds = np.frombuffer(payload, dtype=np.float64)  # lint: allow[R012]
        """, path=CORE_PATH)
        assert check(ViewEscapeRule(), source) == []
