"""tools/check_docs.py: the CLI flag contract over a temporary doc tree."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_docs.py"
_REMOVED_FLAG_SPAN = "Run `repro engine --no-such-flag` once.\n"


@pytest.fixture
def check_docs(tmp_path, monkeypatch):
    """The tool, reading markdown from ``tmp_path`` instead of the repo.

    ``docs/cli.md`` mentions every real parser flag, so the only
    problems left are the ones a test writes.
    """
    spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO", tmp_path)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "cli.md").write_text(
        " ".join(sorted(module._parser_flags())) + "\n")
    return module


def test_removed_flag_in_the_changelog_passes(check_docs, tmp_path):
    (tmp_path / "CHANGES.md").write_text(_REMOVED_FLAG_SPAN)
    assert check_docs.check_cli_flags() == []


def test_removed_flag_in_the_readme_fails(check_docs, tmp_path):
    (tmp_path / "README.md").write_text(_REMOVED_FLAG_SPAN)
    assert check_docs.check_cli_flags() == [
        "README.md: repro command uses unknown flag --no-such-flag "
        "(not defined in src/repro/cli.py)"]


def test_a_flag_named_only_in_history_files_is_undocumented(check_docs,
                                                           tmp_path):
    cli_doc = tmp_path / "docs" / "cli.md"
    cli_doc.write_text(cli_doc.read_text().replace("--resume", ""))
    for name in ("CHANGES.md", "ROADMAP.md"):
        (tmp_path / name).write_text("`repro engine --resume`\n")
    assert check_docs.check_cli_flags() == [
        "src/repro/cli.py: flag --resume is undocumented "
        "(not mentioned in any tracked *.md file)"]
