"""R013 — format-spec conformance between docs/FORMAT.md and the
storage modules.

The real tree must conform, and — the part that matters — injected
drift on either side of the contract must produce findings: a tampered
doc against the real code, tampered code against the real doc, a
reworded-away anchor, and a missing doc.
"""

import os
import shutil

from tools.lint.engine import run_paths
from tools.lint.rules.format_spec import FormatSpecRule

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
INDEX_DIR = os.path.join(REPO_ROOT, "src", "repro", "index")
DOC_PATH = os.path.join(REPO_ROOT, "docs", "FORMAT.md")


def read_doc():
    with open(DOC_PATH, "r", encoding="utf-8") as stream:
        return stream.read()


def run_against_doc(doc_path, paths=(INDEX_DIR,)):
    return run_paths(list(paths), [FormatSpecRule(doc_path=doc_path)])


def test_real_tree_conforms():
    findings = run_paths([INDEX_DIR], [FormatSpecRule()])
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_doc_drift_is_caught(tmp_path):
    text = read_doc()
    assert "<8sI4x" in text and "offset 128" in text
    tampered = tmp_path / "FORMAT.md"
    tampered.write_text(text.replace("<8sI4x", "<8sH4x")
                            .replace("offset 128", "offset 120"))
    findings = run_against_doc(str(tampered))
    assert len(findings) == 2, "\n".join(f.render() for f in findings)
    assert all(f.code == "R013" for f in findings)
    assert all(f.path.endswith("storage.py") for f in findings)
    messages = " | ".join(f.message for f in findings)
    assert "_SUPER" in messages and "_DATA_START" in messages


def test_code_drift_is_caught(tmp_path):
    original = os.path.join(INDEX_DIR, "storage.py")
    with open(original, "r", encoding="utf-8") as stream:
        code = stream.read()
    assert 'struct.Struct("<QII")' in code
    drifted = tmp_path / "storage.py"
    drifted.write_text(code.replace('struct.Struct("<QII")',
                                    'struct.Struct("<QQI")'))
    findings = run_against_doc(DOC_PATH, paths=[str(tmp_path)])
    assert findings, "changing _RECORD's layout must trip R013"
    assert all(f.code == "R013" for f in findings)
    assert any("_RECORD" in f.message and "'<QQI'" in f.message
               for f in findings)


def test_reworded_anchor_fails_loudly(tmp_path):
    # Deleting the doc sentence the check anchors on must not silently
    # disable the check.
    text = read_doc()
    assert "heap from offset" in text
    tampered = tmp_path / "FORMAT.md"
    tampered.write_text(text.replace("heap from offset",
                                     "payload area at offset"))
    findings = run_against_doc(str(tampered))
    assert len(findings) == 1, "\n".join(f.render() for f in findings)
    assert "was not found" in findings[0].message
    assert "_DATA_START" in findings[0].message


def test_missing_doc_is_a_finding(tmp_path):
    findings = run_against_doc(str(tmp_path / "FORMAT.md"))
    assert len(findings) == 1
    assert "no checkable spec" in findings[0].message


def test_undocumented_magic_is_caught(tmp_path):
    index_copy = tmp_path / "index"
    index_copy.mkdir()
    for name in ("storage.py", "nodecodec.py"):
        shutil.copy(os.path.join(INDEX_DIR, name), index_copy / name)
    storage = index_copy / "storage.py"
    code = storage.read_text()
    assert 'b"WALRUSPG"' in code
    storage.write_text(code.replace('b"WALRUSPG"', 'b"WALRUSPX"'))
    findings = run_against_doc(DOC_PATH, paths=[str(index_copy)])
    messages = [f.message for f in findings]
    assert any("WALRUSPX" in m and "not documented" in m
               for m in messages), messages
    assert any("WALRUSPG" in m and "no storage constant" in m
               for m in messages), messages


def test_rule_ignores_non_layout_modules():
    rule = FormatSpecRule()
    assert not rule.applies_to("src/repro/index/rstar.py")
    assert not rule.applies_to("tests/index/storage.py")
    assert not rule.applies_to("src/repro/index/storage_v3.py")
    assert rule.applies_to("src/repro/index/storage.py")
    assert rule.applies_to("src/repro/index/nodecodec.py")
