"""The ``repro-lint`` command-line interface.

::

    repro-lint [paths ...] [--select ID ...] [--ignore ID ...]
               [--no-cache] [--list-rules] [--root DIR]

With no paths, lints the directories configured in
``[tool.repro-lint] paths`` of pyproject.toml (default: src, scripts,
benchmarks, examples).  Any finding fails the run.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import (
    LintConfig,
    all_project_rules,
    all_rule_ids,
    all_rules,
)
from repro.lint.project import lint_project

EXIT_CLEAN = 0
EXIT_FINDINGS = 1


def _find_root(start: Path) -> Path:
    """Nearest ancestor containing pyproject.toml (else the start)."""
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


def _select_rules(parser: argparse.ArgumentParser, select, ignore):
    """(file rules, project rules) filtered by --select/--ignore."""
    known = all_rule_ids() | {"suppression", "parse-error"}
    for rule_id in (*(select or ()), *ignore):
        if rule_id not in known:
            parser.error(f"unknown rule id {rule_id!r}; "
                         f"valid: {sorted(known)}")
    rules = all_rules()
    project_rules = all_project_rules()
    if select:
        wanted = set(select)
        rules = {rule_id: rule for rule_id, rule in rules.items()
                 if rule_id in wanted}
        project_rules = {
            rule_id: rule for rule_id, rule in project_rules.items()
            if wanted.intersection(rule.all_ids())}
    if ignore:
        dropped = set(ignore)
        rules = {rule_id: rule for rule_id, rule in rules.items()
                 if rule_id not in dropped}
        project_rules = {
            rule_id: rule for rule_id, rule in project_rules.items()
            if not dropped.issuperset(rule.all_ids())}
    return rules, project_rules


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="invariant-enforcing static analysis for the repro tree")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: configured "
                             "paths from pyproject.toml)")
    parser.add_argument("--select", nargs="+", metavar="RULE",
                        help="run only these rule ids")
    parser.add_argument("--ignore", nargs="+", metavar="RULE", default=[],
                        help="skip these rule ids")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the phase-1 fact "
                             "cache")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--root", type=Path, default=None,
                        help="repository root (default: nearest ancestor "
                             "of cwd with a pyproject.toml)")
    args = parser.parse_args(argv)

    if args.list_rules:
        catalog: dict[str, str] = {
            rule_id: rule.description
            for rule_id, rule in all_rules().items()}
        for rule in all_project_rules().values():
            for rule_id in rule.all_ids():
                catalog.setdefault(rule_id, rule.description)
        width = max(len(rule_id) for rule_id in catalog)
        for rule_id in sorted(catalog):
            print(f"{rule_id:<{width}}  {catalog[rule_id]}")
        return EXIT_CLEAN

    rules, project_rules = _select_rules(parser, args.select, args.ignore)
    root = args.root if args.root is not None else _find_root(Path.cwd())
    try:
        config = LintConfig.load(root)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    findings, _index = lint_project(
        args.paths or None, root=root, rules=rules,
        project_rules=project_rules, config=config,
        use_cache=not args.no_cache)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"repro-lint: {len(findings)} finding(s)", file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_CLEAN


if __name__ == "__main__":
    raise SystemExit(main())
