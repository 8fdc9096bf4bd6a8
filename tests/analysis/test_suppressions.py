"""Inline suppressions and SARIF output: justified allows, stale notes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

BAD_LINE = "import random  # repro: allow[determinism] -- {reason}\n"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_justified_inline_allow_suppresses(workdir, capsys):
    (workdir / "mod.py").write_text(
        BAD_LINE.format(reason="legacy shim kept for the ablation harness"))
    assert main(["mod.py"]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_reasonless_allow_is_itself_an_error(workdir, capsys):
    (workdir / "mod.py").write_text("import random  # repro: allow[determinism]\n")
    assert main(["mod.py"]) == 1
    out = capsys.readouterr().out
    # The original finding is NOT silenced, and the bare allow is flagged.
    assert "determinism" in out
    assert "inline-allow" in out


def test_standalone_allow_covers_next_line(workdir, capsys):
    (workdir / "mod.py").write_text(
        "# repro: allow[determinism] -- fixture exercising standalone allows\n"
        "import random\n")
    assert main(["mod.py"]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_stale_allow_reported_but_not_fatal(workdir, capsys):
    (workdir / "mod.py").write_text(
        "VALUE = 1  # repro: allow[determinism] -- nothing fires here anymore\n")
    assert main(["mod.py"]) == 0
    assert "stale inline allow" in capsys.readouterr().out


def test_allow_for_other_rule_does_not_suppress(workdir, capsys):
    (workdir / "mod.py").write_text(
        BAD_LINE.format(reason="wrong rule id on purpose").replace(
            "allow[determinism]", "allow[layering]"))
    assert main(["mod.py"]) == 1
    assert "determinism" in capsys.readouterr().out


def test_allow_naming_unknown_rule_is_an_error(workdir, capsys):
    """A typo'd or retired rule id can never suppress: fail loudly."""
    (workdir / "mod.py").write_text(
        BAD_LINE.format(reason="retired id left behind").replace(
            "allow[determinism]", "allow[determinism, hotpath-reach]"))
    assert main(["mod.py"]) == 1
    out = capsys.readouterr().out
    assert "inline-allow" in out
    assert "unknown rule id(s) hotpath-reach" in out
    assert "mod.py:1: determinism" not in out  # the known id still applies


def test_allow_inside_string_literal_is_ignored(workdir, capsys):
    (workdir / "mod.py").write_text(
        'DOC = "# repro: allow[determinism] -- not a real comment"\n'
        "import random\n")
    assert main(["mod.py"]) == 1
    assert "determinism" in capsys.readouterr().out


def test_sarif_output_schema_and_suppressions(workdir, capsys):
    (workdir / "clean.py").write_text(
        BAD_LINE.format(reason="kept to exercise the SARIF suppression path"))
    (workdir / "dirty.py").write_text("import random\n")
    sarif_path = workdir / "out.sarif"
    assert main(["clean.py", "dirty.py", "--sarif", str(sarif_path)]) == 1
    capsys.readouterr()
    payload = json.loads(sarif_path.read_text())
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "determinism" in rule_ids
    results = run["results"]
    active = [r for r in results if not r.get("suppressions")]
    suppressed = [r for r in results if r.get("suppressions")]
    assert any(r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
               == "dirty.py" for r in active)
    assert any(r["suppressions"][0]["kind"] == "external" for r in suppressed)


def test_sarif_format_to_stdout(workdir, capsys):
    (workdir / "dirty.py").write_text("import random\n")
    assert main(["dirty.py", "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    assert payload["runs"][0]["results"]
