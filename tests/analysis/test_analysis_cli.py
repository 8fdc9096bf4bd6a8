"""CLI behaviour: exit codes, JSON schema, rule selection, subcommands."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import docstrings
from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

BAD_SOURCE = "import random\n"
OK_SOURCE = "VALUE = 1\n"


@pytest.fixture()
def bad_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    return "bad.py"


def test_findings_exit_one_with_text_report(bad_file, capsys):
    assert main([bad_file]) == 1
    out = capsys.readouterr().out
    assert "determinism" in out
    assert "bad.py:1" in out
    assert "hint:" in out


def test_clean_tree_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.py").write_text(OK_SOURCE)
    assert main(["ok.py"]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_json_format_schema(bad_file, capsys):
    assert main([bad_file, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["summary"]["errors"] >= 1
    assert set(payload["rules"]) >= {"determinism", "layering", "hotpath"}
    finding = payload["findings"][0]
    assert {"file", "line", "rule_id", "message", "severity", "snippet"} <= set(finding)


def test_output_artifact_written(bad_file, tmp_path, capsys):
    artifact = tmp_path / "results" / "findings.json"
    assert main([bad_file, "--output", str(artifact)]) == 1
    capsys.readouterr()
    payload = json.loads(artifact.read_text())
    assert payload["summary"]["errors"] >= 1


def test_rule_selection_and_listing(bad_file, capsys):
    # Selecting a rule that cannot fire on the file -> clean.
    assert main([bad_file, "--rules", "views"]) == 0
    capsys.readouterr()
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("layering", "determinism", "hotpath",
                    "views", "except-discipline"):
        assert rule_id in out


def test_unknown_rule_id_is_usage_error(bad_file, capsys):
    assert main([bad_file, "--rules", "nope"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["does-not-exist"])
    assert exc.value.code == 2


def test_parse_error_surfaces_as_finding(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.py").write_text("def f(:\n")
    assert main(["broken.py"]) == 1
    assert "parse-error" in capsys.readouterr().out


def test_docstrings_subcommand(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["docstrings"]) == 0
    assert "public defs documented" in capsys.readouterr().out


def test_docs_subcommand_links_only(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["docs", "--links-only"]) == 0
    assert "links ok" in capsys.readouterr().out


def test_docstrings_missing_target_fails(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setattr(docstrings, "TARGETS",
                        ("src/repro/analysis/rules/gone.py",))
    assert main(["docstrings"]) == 1
    assert "FAIL src/repro/analysis/rules/gone.py" in capsys.readouterr().out
