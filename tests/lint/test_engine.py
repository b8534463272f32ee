"""Engine behavior: discovery, suppression, reporting, exit codes."""

import ast
import json
import textwrap

import pytest

from tools.lint.engine import (Finding, Rule, SourceFile, default_rules,
                               discover_files, lint_source, main,
                               run_paths)


def parse(snippet, path="src/repro/core/snippet.py"):
    return SourceFile.parse(path, textwrap.dedent(snippet))


class TestSuppressionParsing:
    def test_single_code(self):
        source = parse("x = 1  # lint: allow[R001]\n")
        assert source.allowed == {1: frozenset({"R001"})}

    def test_multiple_codes(self):
        source = parse("x = 1  # lint: allow[R001, R003]\n")
        assert source.allowed == {1: frozenset({"R001", "R003"})}

    def test_wildcard(self):
        source = parse("x = 1  # lint: allow[*]\n")
        finding = Finding(path=source.path, line=1, col=0, code="R999",
                          message="anything")
        assert source.suppresses(finding)

    def test_other_line_does_not_suppress(self):
        source = parse("x = 1  # lint: allow[R001]\ny = 2\n")
        finding = Finding(path=source.path, line=2, col=0, code="R001",
                          message="m")
        assert not source.suppresses(finding)

    def test_other_code_does_not_suppress(self):
        source = parse("x = 1  # lint: allow[R002]\n")
        finding = Finding(path=source.path, line=1, col=0, code="R001",
                          message="m")
        assert not source.suppresses(finding)

    def test_multiple_allow_comments_on_one_line_merge(self):
        source = parse(
            "x = 1  # lint: allow[R001] # lint: allow[R009, R012]\n")
        assert source.allowed == {1: frozenset({"R001", "R009", "R012"})}
        for code in ("R001", "R009", "R012"):
            assert source.suppresses(Finding(
                path=source.path, line=1, col=0, code=code, message="m"))
        assert not source.suppresses(Finding(
            path=source.path, line=1, col=0, code="R002", message="m"))


class TestPositionClamping:
    def test_column_past_line_end_is_clamped(self):
        source = parse("x = 1\n")
        node = ast.Name(id="x", lineno=1, col_offset=400)
        assert source.position(node) == (1, 4)

    def test_line_outside_file_is_clamped(self):
        source = parse("x = 1\ny = 2\n")
        node = ast.Name(id="y", lineno=99, col_offset=0)
        assert source.position(node) == (2, 0)

    def test_clamped_findings_still_match_allow_comments(self):
        # The point of clamping: a finding anchored by a buggy parser
        # position must still land on the line its allow-comment is on.
        source = parse("x = f'{1}'  # lint: allow[R777]\n")
        node = ast.Constant(value=1, lineno=1, col_offset=500)

        class FStringRule(Rule):
            code = "R777"

            def check(self, src):
                yield self.finding(src, node, "inside an f-string")

        assert lint_source(source, [FStringRule()]) == []


class TestDiscovery:
    def test_walks_directories_and_skips_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-311.py").write_text("")
        (tmp_path / "pkg" / "notes.txt").write_text("not python")
        found = discover_files([str(tmp_path)])
        assert found == [str(tmp_path / "pkg" / "a.py")]

    def test_accepts_single_files(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        assert discover_files([str(target)]) == [str(target)]


class TestRunner:
    def test_syntax_error_becomes_e999(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = run_paths([str(bad)])
        assert len(findings) == 1
        assert findings[0].code == "E999"

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("CONSTANT = 1\n")
        assert main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_exit_nonzero_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro"
        bad.mkdir(parents=True)
        (bad / "mod.py").write_text('raise ValueError("boom")\n')
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        # Findings render as path:line:col CODE message.
        assert f"{bad / 'mod.py'}:1:0 R001" in out

    def test_select_unknown_code_is_an_error(self, tmp_path):
        assert main(["--select", "R999", str(tmp_path)]) == 2

    def test_select_runs_only_requested_rules(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text('raise ValueError("boom")\ndef f(x): pass\n')
        assert main(["--select", "R005", str(bad)]) == 1

    def test_list_rules_mentions_all_codes(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("R001", "R002", "R003", "R005", "R009",
                     "R010", "R011", "R012", "R013"):
            assert code in out


class TestJsonFormat:
    def test_clean_tree_emits_empty_report_and_exit_zero(
            self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("CONSTANT = 1\n")
        assert main(["--format", "json", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"version": 1, "count": 0, "findings": []}

    def test_findings_serialize_and_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro"
        bad.mkdir(parents=True)
        (bad / "mod.py").write_text('raise ValueError("boom")\n')
        assert main(["--format", "json", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["count"] == len(report["findings"]) == 1
        finding = report["findings"][0]
        assert finding["code"] == "R001"
        assert finding["file"] == str(bad / "mod.py")
        assert finding["line"] == 1
        assert isinstance(finding["col"], int)
        assert "ValueError" in finding["message"]


class TestRuleApi:
    def test_default_rules_are_sorted_and_complete(self):
        codes = [rule.code for rule in default_rules()]
        assert codes == sorted(codes)
        assert {"R001", "R002", "R003", "R005"} <= set(codes)

    def test_rules_skip_files_outside_their_jurisdiction(self):
        source = SourceFile.parse("tests/unit/test_x.py",
                                  'raise ValueError("fine in tests")\n')
        assert lint_source(source, default_rules()) == []

    def test_base_rule_check_is_abstract(self):
        source = parse("x = 1\n")
        with pytest.raises(NotImplementedError):
            list(Rule().check(source))


class CountingProjectRule(Rule):
    """Cross-file rule fixture: reports the total file count at finish."""

    code = "R998"
    project = True

    def applies_to(self, path):
        return True

    def start_run(self):
        self.seen = []

    def check(self, source):
        self.seen.append(source.path)
        return iter(())

    def finish(self):
        for path in self.seen:
            yield Finding(path=path, line=1, col=0, code=self.code,
                          message=f"one of {len(self.seen)} files")


class TestProjectRules:
    def test_finish_sees_whole_run_state(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        findings = run_paths([str(tmp_path)], [CountingProjectRule()])
        assert len(findings) == 2
        assert all("of 2 files" in f.message for f in findings)

    def test_start_run_resets_state_between_runs(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        rule = CountingProjectRule()
        run_paths([str(tmp_path)], [rule])
        findings = run_paths([str(tmp_path)], [rule])
        assert len(findings) == 1
        assert "of 1 files" in findings[0].message

    def test_finish_findings_respect_suppressions(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1  # lint: allow[R998]\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        findings = run_paths([str(tmp_path)], [CountingProjectRule()])
        assert [f.path for f in findings] == [str(tmp_path / "b.py")]
