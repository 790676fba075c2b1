"""The rule engine: registries, per-file dispatch, config, suppressions.

Linting is two-phase (see :mod:`repro.lint.project`): phase 1 parses
and tokenizes every module exactly once, building per-module fact
summaries and the shared project index; phase 2 runs two kinds of
rules over it:

* :class:`Rule` — per-file rules: one AST walk per file, each rule
  declares the node types it wants and receives them through
  :meth:`Rule.visit`;
* :class:`ProjectRule` — cross-file rules: receive the whole
  :class:`~repro.lint.project.ProjectIndex` (import graph, call
  summaries, async/executor/RNG facts) and may relate any module to
  any other.

Findings carry ``path:line:col``, a stable rule id, and a fix hint.
Suppressions are inline comments::

    # repro-lint: disable=det-wallclock — harness timeout, not simulator state

A suppression **must** carry a justification after an em dash (or
``--``); one without a reason is itself a finding (rule
``suppression``). ``disable-file=`` on any line suppresses a rule for
the whole file. Path allowlists, the architecture layer map, and the
seed-flow/sim-core configuration live in ``pyproject.toml`` under
``[tool.repro-lint]``; see ``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

_SUPPRESS_RE = re.compile(
    r"repro-lint:\s*(disable|disable-file)=([\w,\-]+)"
    r"(?:\s*(?:—|--)\s*(?P<reason>\S.*))?")

#: Rule id of the meta-finding for unjustified suppressions.
SUPPRESSION_RULE = "suppression"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule}: " \
               f"{self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Suppression:
    """A parsed ``repro-lint: disable`` comment.

    A trailing comment suppresses its own line; a comment that is the
    whole line suppresses the line below it (like ``# noqa`` vs a
    block-style pragma), so justifications can stay under the line
    length limit.
    """

    line: int
    rules: frozenset[str]
    file_wide: bool
    reason: str | None
    standalone: bool = False

    def covers(self, finding: Finding) -> bool:
        if finding.rule not in self.rules and "all" not in self.rules:
            return False
        if self.file_wide:
            return True
        return finding.line == self.line \
            or (self.standalone and finding.line == self.line + 1)


class FileContext:
    """Everything a rule may want to know about one file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        # import alias resolution: name -> dotted origin.
        #   ``import numpy as np``        -> modules["np"] = "numpy"
        #   ``from time import monotonic`` -> names["monotonic"] = "time.monotonic"
        self.modules: dict[str, str] = {}
        self.names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = \
                        alias.name if alias.asname else alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    def resolve(self, func: ast.expr) -> str | None:
        """Dotted origin of a callable expression, or None.

        ``np.random.rand`` resolves to ``numpy.random.rand`` under
        ``import numpy as np``; a bare ``monotonic`` resolves to
        ``time.monotonic`` under ``from time import monotonic``.
        """
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        base = node.id
        if base in self.names:
            return ".".join([self.names[base], *parts])
        if base in self.modules:
            return ".".join([self.modules[base], *parts])
        return None


class Rule:
    """Base class: subclass, set the class attributes, register."""

    id: str = ""
    description: str = ""
    hint: str = ""
    #: AST node types dispatched to :meth:`visit` (empty = none).
    node_types: tuple[type, ...] = ()

    def begin_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Whole-file checks run before the node walk."""
        return ()

    def visit(self, ctx: FileContext, node: ast.AST) -> Iterable[Finding]:
        return ()

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                rule_id: str | None = None, hint: str | None = None) -> Finding:
        return Finding(path=ctx.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule=rule_id or self.id, message=message,
                       hint=self.hint if hint is None else hint)


class ProjectRule:
    """Base class for cross-file rules (phase 2).

    A project rule sees the whole :class:`~repro.lint.project.ProjectIndex`
    at once instead of one file at a time, so it can walk the import
    graph, follow interprocedural call summaries, or compare modules
    against each other. ``id`` is the *family* id; a rule may emit
    findings under several ids (list them in ``ids`` so ``--select``
    and allowlists know about all of them).
    """

    id: str = ""
    description: str = ""
    hint: str = ""
    #: every finding id this rule can emit (defaults to just ``id``).
    ids: tuple[str, ...] = ()

    def check_project(self, index, config: "LintConfig") -> Iterable[Finding]:
        """Yield findings over the whole project index."""
        return ()

    def all_ids(self) -> tuple[str, ...]:
        return self.ids or (self.id,)

    def finding(self, path: str, line: int, message: str,
                rule_id: str | None = None, hint: str | None = None,
                col: int = 0) -> Finding:
        return Finding(path=path, line=line, col=col,
                       rule=rule_id or self.id, message=message,
                       hint=self.hint if hint is None else hint)


_REGISTRY: dict[str, Rule] = {}
_PROJECT_REGISTRY: dict[str, ProjectRule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule (by its ``id``) to the registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def register_project(rule_cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding a project rule to the phase-2 registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule.id in _PROJECT_REGISTRY or rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _PROJECT_REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> dict[str, Rule]:
    return dict(_REGISTRY)


def all_project_rules() -> dict[str, ProjectRule]:
    return dict(_PROJECT_REGISTRY)


def all_rule_ids() -> set[str]:
    """Every selectable finding id across both registries."""
    ids = set(_REGISTRY)
    for rule in _PROJECT_REGISTRY.values():
        ids.update(rule.all_ids())
    return ids


# ---- configuration ----------------------------------------------------------

@dataclass
class LintConfig:
    """``[tool.repro-lint]`` from pyproject.toml."""

    #: directories/files linted when the CLI gets no path arguments
    paths: list[str] = field(default_factory=lambda: [
        "src", "scripts", "benchmarks", "examples"])
    #: path fragments excluded everywhere (matched against posix paths)
    exclude: list[str] = field(default_factory=list)
    #: rule id -> path globs where the rule does not apply
    allow: dict[str, list[str]] = field(default_factory=dict)
    #: architecture layer map, lowest first: (layer name, package
    #: prefixes). A module belongs to the first layer whose prefix
    #: matches. Empty = arch-layering disabled.
    layers: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    #: package prefixes forming the deterministic simulation core: no
    #: module here may (transitively, at import time) reach asyncio or
    #: wall-clock code. Empty = arch-sim-reach disabled.
    sim_core: list[str] = field(default_factory=list)
    #: module prefixes housing the blessed seeded-RNG factories; calls
    #: to ``default_rng``/``Random`` *inside* them are the sanctioned
    #: roots, everywhere else they are det-seed-flow findings.
    rng_factories: list[str] = field(
        default_factory=lambda: ["repro.engine.rng"])
    #: function names (within the factory modules) whose return value
    #: counts as a blessed, plan-seeded generator.
    rng_factory_functions: list[str] = field(
        default_factory=lambda: ["make_rng", "spawn_rng"])
    #: phase-1 fact cache directory, relative to the repo root.
    cache_dir: str = ".lint_cache"

    @classmethod
    def load(cls, root: Path) -> "LintConfig":
        """The config under ``root``; defaults when it has no pyproject.toml.

        Raises ValueError when pyproject.toml exists but cannot be
        parsed: linting with defaults would drop the layer map, the
        sim-core list and every allowlist without a word.
        """
        pyproject = root / "pyproject.toml"
        if not pyproject.is_file():
            return cls()
        try:
            import tomllib
        except ImportError as exc:   # python 3.10 has no tomllib
            raise ValueError(f"cannot read {pyproject}: tomllib needs "
                             f"Python >= 3.11") from exc
        table = tomllib.loads(pyproject.read_text()) \
            .get("tool", {}).get("repro-lint", {})
        config = cls()
        config.paths = list(table.get("paths", config.paths))
        config.exclude = list(table.get("exclude", config.exclude))
        config.allow = {rule: list(globs)
                        for rule, globs in table.get("allow", {}).items()}
        config.layers = [(str(entry.get("name", f"layer{i}")),
                          tuple(entry.get("packages", ())))
                         for i, entry in enumerate(table.get("layer", []))]
        config.sim_core = list(table.get("sim-core", config.sim_core))
        config.rng_factories = list(
            table.get("rng-factories", config.rng_factories))
        config.rng_factory_functions = list(
            table.get("rng-factory-functions", config.rng_factory_functions))
        config.cache_dir = str(table.get("cache-dir", config.cache_dir))
        return config

    def layer_of(self, module: str) -> tuple[int, str] | None:
        """(index, name) of the layer owning a dotted module, or None."""
        for index, (name, packages) in enumerate(self.layers):
            for package in packages:
                if module == package or module.startswith(package + "."):
                    return (index, name)
        return None

    def in_sim_core(self, module: str) -> bool:
        return any(module == p or module.startswith(p + ".")
                   for p in self.sim_core)

    def is_rng_factory(self, module: str) -> bool:
        return any(module == p or module.startswith(p + ".")
                   for p in self.rng_factories)

    def excluded(self, rel_path: str) -> bool:
        return any(fragment in rel_path for fragment in self.exclude)

    def allowed(self, rule_id: str, rel_path: str) -> bool:
        """True when the rule is switched off for this path."""
        path = Path(rel_path)
        return any(path.match(glob) or fragment_match(glob, rel_path)
                   for glob in self.allow.get(rule_id, ()))


def fragment_match(glob: str, rel_path: str) -> bool:
    """A glob without wildcards also matches as a plain path fragment."""
    return not any(ch in glob for ch in "*?[") and glob in rel_path


# ---- suppressions -----------------------------------------------------------

def parse_suppressions(source: str, path: str) -> \
        tuple[list[Suppression], list[Finding]]:
    """Extract suppression comments (COMMENT tokens only, so strings
    that merely mention the syntax are inert)."""
    found: list[Suppression] = []
    meta: list[Finding] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start[0], tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except tokenize.TokenizeError:
        comments = []
    source_lines = source.splitlines()
    for line, text in comments:
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        file_wide = match.group(1) == "disable-file"
        rules = frozenset(r.strip() for r in match.group(2).split(",")
                          if r.strip())
        reason = match.group("reason")
        line_text = source_lines[line - 1] if line <= len(source_lines) else ""
        found.append(Suppression(line=line, rules=rules,
                                 file_wide=file_wide, reason=reason,
                                 standalone=line_text.lstrip()
                                 .startswith("#")))
        if not reason:
            meta.append(Finding(
                path=path, line=line, col=0, rule=SUPPRESSION_RULE,
                message=f"suppression of {', '.join(sorted(rules))} has no "
                        "justification",
                hint="append ' — <reason>' to the disable comment"))
    return found, meta


# ---- per-file rule execution (phase 1 helper) -------------------------------

def run_file_rules(ctx: FileContext,
                   rules: dict[str, Rule]) -> list[Finding]:
    """One AST walk of one file through every per-file rule.

    Pure with respect to configuration: allowlists and suppressions are
    applied later, so the result is cacheable per (source, rules).
    """
    findings: list[Finding] = []
    for rule in rules.values():
        findings.extend(rule.begin_file(ctx))
    dispatch = [(rule, rule.node_types) for rule in rules.values()
                if rule.node_types]
    for node in ast.walk(ctx.tree):
        for rule, node_types in dispatch:
            if isinstance(node, node_types):
                findings.extend(rule.visit(ctx, node))
    return findings


def lint_source(source: str, path: str,
                rules: dict[str, Rule] | None = None,
                config: LintConfig | None = None) -> list[Finding]:
    """Lint one file's source text; returns surviving findings sorted.

    The file is treated as a one-module project, so per-file rules and
    every project rule that can operate without cross-file context
    (seed-flow creation checks, async safety) still apply.
    """
    from repro.lint.project import lint_single_source
    return lint_single_source(source, path, rules=rules, config=config)


def iter_python_files(paths: Iterable[str | Path],
                      config: LintConfig, root: Path) -> Iterator[Path]:
    for entry in paths:
        path = Path(entry)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            rel = _rel(candidate, root)
            if not config.excluded(rel):
                yield candidate


def _rel(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(paths: Iterable[str | Path] | None = None,
               root: Path | None = None,
               rules: dict[str, Rule] | None = None,
               config: LintConfig | None = None,
               project_rules: dict[str, ProjectRule] | None = None,
               use_cache: bool = False) -> list[Finding]:
    """Two-phase lint of files/directories (default: configured paths)."""
    from repro.lint.project import lint_project
    findings, _index = lint_project(paths, root=root, rules=rules,
                                    project_rules=project_rules,
                                    config=config, use_cache=use_cache)
    return findings
