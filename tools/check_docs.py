#!/usr/bin/env python
"""Documentation gate for CI (no third-party dependencies).

Four checks, all fatal:

1. **Markdown links** — every intra-repo link in every tracked ``*.md``
   file must resolve to an existing file (external ``http(s)``/
   ``mailto`` links and pure ``#anchors`` are skipped).
2. **Telemetry contract** — every span name, metric name and pseudo-op
   declared in ``repro.obs.names`` must appear verbatim in
   ``docs/observability.md`` (the names are API; the doc is the
   contract).
3. **CLI flag contract** — every ``--flag`` the ``repro`` argument
   parser defines must be mentioned in at least one tracked markdown
   file, and every ``--flag`` appearing on a ``repro`` command line in
   the docs must exist in ``src/repro/cli.py``.  The history files
   (``CHANGES.md``, ``ROADMAP.md``) are not live docs and count
   neither way.  Drift here exits 2 (distinct from the
   generic failure exit 1) so CI can tell a stale doc from a broken
   one.
4. **Docstrings** — the pydocstyle ``D1`` subset (D100–D104) over
   ``src/repro``: every public module, package, class, function and
   method needs a docstring.  Magic methods (D105) and ``__init__``
   (D107) are exempt, mirroring the ruff configuration in
   ``pyproject.toml``.

Run from the repository root::

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_SKIP_DIRS = {".git", ".pytest_cache", "__pycache__", ".venv", "node_modules"}


def _markdown_files() -> list[Path]:
    return sorted(
        path for path in REPO.rglob("*.md")
        if not _SKIP_DIRS & set(part for part in path.parts)
    )


def _strip_code_fences(text: str) -> str:
    """Drop fenced code blocks (quoted material is not a live link)."""
    kept, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            kept.append(line)
    return "\n".join(kept)


def check_markdown_links() -> list[str]:
    """Every relative markdown link must point at an existing file."""
    errors = []
    for md in _markdown_files():
        text = _strip_code_fences(md.read_text(encoding="utf-8"))
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (md.parent / relative).resolve()
            if not resolved.exists():
                errors.append(
                    f"{md.relative_to(REPO)}: broken link -> {target}")
    return errors


def check_telemetry_contract() -> list[str]:
    """docs/observability.md must name every contract span/metric."""
    sys.path.insert(0, str(SRC))
    from repro.obs import names  # noqa: E402 (path set up above)

    doc_path = REPO / "docs" / "observability.md"
    if not doc_path.exists():
        return ["docs/observability.md is missing"]
    doc = doc_path.read_text(encoding="utf-8")
    required = (
        list(names.ALL_SPANS)
        + list(names.ALL_METRICS)
        + [names.PSEUDO_OP_INTRINSIC, names.PSEUDO_OP_REFUND,
           names.PSEUDO_OP_UNATTRIBUTED]
    )
    return [
        f"docs/observability.md: contract name never mentioned: {name}"
        for name in required if name not in doc
    ]


#: Changelog and planning files at the repository root: they record
#: flags that were removed or not yet built, so they are not CLI docs.
_HISTORY_FILES = {"CHANGES.md", "ROADMAP.md"}

_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_INLINE_CODE = re.compile(r"`([^`\n]+)`")
_REPRO_COMMAND = re.compile(r"\brepro\s")


def _parser_flags() -> set[str]:
    """Every ``--flag`` string handed to ``add_argument`` in cli.py."""
    tree = ast.parse((SRC / "repro" / "cli.py").read_text(
        encoding="utf-8"))
    flags = {"--help"}  # argparse defines it implicitly
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            for arg in node.args:
                if (isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and arg.value.startswith("--")):
                    flags.add(arg.value)
    return flags


def _repro_segments(text: str):
    """Yield code segments that invoke ``repro`` (fences + inline).

    Prose is excluded so a ``--flag`` belonging to another tool on the
    same line as the word "repro" is not misattributed; only fenced
    command lines and inline code spans count as repro invocations.
    """
    fenced = False
    for line in text.replace("\\\n", " ").splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            if _REPRO_COMMAND.search(line):
                yield line
        else:
            for span in _INLINE_CODE.findall(line):
                if _REPRO_COMMAND.search(span):
                    yield span


def _documented_flag_usage() -> tuple[set[str], dict[str, list[str]]]:
    """Flags mentioned anywhere, and flags used in repro commands.

    Returns ``(mentioned, used)`` where ``mentioned`` is every
    ``--flag`` token in any tracked markdown file (prose or code) and
    ``used`` maps each flag appearing inside a code segment that
    invokes ``repro`` to the docs using it.  The history files are
    skipped.
    """
    mentioned: set[str] = set()
    used: dict[str, list[str]] = {}
    for md in _markdown_files():
        where = str(md.relative_to(REPO))
        if where in _HISTORY_FILES:
            continue
        text = md.read_text(encoding="utf-8")
        mentioned.update(_FLAG.findall(text))
        for segment in _repro_segments(text):
            for flag in _FLAG.findall(segment):
                spots = used.setdefault(flag, [])
                if where not in spots:
                    spots.append(where)
    return mentioned, used


def check_cli_flags() -> list[str]:
    """cli.py flags and documented repro flags must agree both ways."""
    parser_flags = _parser_flags()
    mentioned, used = _documented_flag_usage()
    errors = []
    for flag in sorted(parser_flags - mentioned):
        errors.append(
            f"src/repro/cli.py: flag {flag} is undocumented "
            f"(not mentioned in any tracked *.md file)")
    for flag in sorted(set(used) - parser_flags):
        for where in used[flag]:
            errors.append(
                f"{where}: repro command uses unknown flag {flag} "
                f"(not defined in src/repro/cli.py)")
    return errors


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_docstrings(path: Path, tree: ast.Module) -> list[str]:
    where = path.relative_to(REPO)
    errors = []
    if ast.get_docstring(tree) is None:
        errors.append(f"{where}:1: D100 missing module docstring")

    def visit(node: ast.AST, inside_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_public(child.name) and \
                        ast.get_docstring(child) is None:
                    errors.append(
                        f"{where}:{child.lineno}: D101 missing "
                        f"docstring in class {child.name}")
                visit(child, inside_class=True)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                dunder = (child.name.startswith("__")
                          and child.name.endswith("__"))
                if _is_public(child.name) and not dunder and \
                        ast.get_docstring(child) is None:
                    code = "D102" if inside_class else "D103"
                    kind = "method" if inside_class else "function"
                    errors.append(
                        f"{where}:{child.lineno}: {code} missing "
                        f"docstring in {kind} {child.name}")
                visit(child, inside_class=False)

    visit(tree, inside_class=False)
    return errors


def check_docstrings() -> list[str]:
    """Enforce the D1 subset over every module under src/repro."""
    errors = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        errors.extend(_missing_docstrings(path, tree))
    return errors


def main() -> int:
    """Run all four checks; non-zero exit when anything fails.

    CLI-flag drift exits 2; any other failure exits 1.
    """
    failures = []
    cli_drift = False
    for title, check in [
        ("markdown links", check_markdown_links),
        ("telemetry contract", check_telemetry_contract),
        ("cli flag contract", check_cli_flags),
        ("docstrings (D1)", check_docstrings),
    ]:
        errors = check()
        status = "ok" if not errors else f"{len(errors)} problem(s)"
        print(f"check {title:<24}: {status}")
        if errors and check is check_cli_flags:
            cli_drift = True
        failures.extend(errors)
    if failures:
        print()
        for error in failures:
            print(f"  {error}")
        return 2 if cli_drift else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
