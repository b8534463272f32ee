"""The repository must satisfy its own lint rules.

This is the always-on replacement for the old CI grep job: if any
subpackage reintroduces a bare ``ValueError``, unseeded randomness, an
exact float comparison in a hot path or an unannotated public
function, this test fails locally before CI does.
"""

import os

from tools.lint.engine import run_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_src_tree_is_lint_clean():
    findings = run_paths([os.path.join(REPO_ROOT, "src")])
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_lint_framework_is_lint_clean():
    findings = run_paths([os.path.join(REPO_ROOT, "tools")])
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_benchmarks_and_scripts_are_lint_clean():
    # The expanded jurisdiction: harnesses and automation are held to
    # the same rules as the library.
    findings = run_paths([os.path.join(REPO_ROOT, "benchmarks"),
                          os.path.join(REPO_ROOT, "scripts")])
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)
