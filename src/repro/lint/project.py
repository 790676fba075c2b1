"""Phase 1 of the two-phase engine: parse once, summarize everything.

Every module under the configured paths is parsed and tokenized exactly
once.  The single pass produces a :class:`ModuleFacts` record holding

* the import table (module-level vs deferred vs ``TYPE_CHECKING``),
* one :class:`FunctionFact` per function — resolved call sites,
  blocking-call and file-I/O facts, ``asyncio`` task creations,
  condition wait/notify sites, executor submissions, RNG creations and
  RNG-valued argument flows, return-value classifications,
* the suppression table (this is the **only** tokenize pass a module
  ever gets — per-file findings, project findings and the meta
  ``suppression`` rule all consume the same parsed table),
* the per-file rule findings (config-independent, so cacheable).

:class:`ProjectIndex` assembles the records into the shared cross-file
structures: dotted-name resolution, the internal import graph, and the
project call graph.  Phase 2 (:class:`~repro.lint.engine.ProjectRule`)
runs over the index only — it never re-reads or re-parses a file.

Facts are JSON-serializable and cached per source file under
``.lint_cache/`` keyed on ``(source sha256, engine signature)``; the
engine signature hashes every file of :mod:`repro.lint`, so editing any
rule invalidates the cache wholesale.  A warm ``make lint`` therefore
skips phase 1 entirely.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from repro.lint.engine import (
    SUPPRESSION_RULE,
    FileContext,
    Finding,
    LintConfig,
    ProjectRule,
    Rule,
    Suppression,
    all_project_rules,
    all_rules,
    iter_python_files,
    parse_suppressions,
    run_file_rules,
)

#: Wall-clock call origins (shared with the det-wallclock rule).
WALLCLOCK_ORIGINS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.sleep", "time.strftime", "time.localtime",
    "time.gmtime", "time.ctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "asyncio.sleep",
})

#: Ambient (unseeded / host-entropy) RNG constructors and draw sites.
AMBIENT_RNG_EXACT = frozenset({
    "os.urandom", "uuid.uuid4", "uuid.uuid1",
    "numpy.random.default_rng", "random.Random", "random.SystemRandom",
})
AMBIENT_RNG_PREFIXES = ("random.", "numpy.random.", "secrets.")

#: Constructor-name suffixes of pools whose workers are processes, so
#: whatever is submitted to them is pickled.
PROCESS_EXECUTORS = ("ProcessPoolExecutor", "SupervisedPool")

#: Calls that block the thread they run on (and so the event loop).
BLOCKING_ORIGINS = frozenset({
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.system", "os.waitpid", "os.wait",
    "socket.create_connection", "urllib.request.urlopen",
    "requests.get", "requests.post", "requests.request",
})

#: Method names that read/write files (flagged in async code when the
#: call sits inside a loop — one blocking stat is noise, a loop is not).
FILE_IO_ATTRS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})

_RNG_PARAM_RE = re.compile(r"(^|_)rng$")


# ---- facts ------------------------------------------------------------------

@dataclass
class CallFact:
    """One call site, with its callee resolved as far as phase 1 can.

    ``callee`` is a dotted origin (``repro.faults.chaos.maybe_arm``),
    ``local:<name>`` for a bare name, ``self:<name>`` for a method call
    on ``self``, or ``?`` when unresolvable.
    """

    callee: str
    lineno: int


@dataclass
class BlockingFact:
    origin: str                 # dotted origin, or "file-io:<attr>"
    lineno: int
    in_loop: bool


@dataclass
class TaskFact:
    origin: str                 # asyncio.create_task / ensure_future / ...
    lineno: int
    discarded: bool             # expression statement: nothing holds it


@dataclass
class CondFact:
    receiver: str               # dotted receiver repr, e.g. "job.cond"
    op: str                     # wait | wait_for | notify | notify_all
    lineno: int
    guarded: bool               # lexically inside `async with <receiver>`


@dataclass
class SubmitFact:
    api: str                    # submit | run_in_executor | map
    executor: str               # process | thread | unknown
    callable_kind: str          # lambda | nested | module | method | unknown
    callable_name: str
    lineno: int


@dataclass
class RngCreateFact:
    origin: str
    lineno: int


@dataclass
class ArgFact:
    """One non-trivial argument flowing into a call (for taint)."""

    callee: str                 # as in CallFact
    param: str                  # keyword name, or "#<index>" positional
    source: str                 # classification, see _classify_expr
    lineno: int


@dataclass
class FunctionFact:
    qualname: str               # "<module>", "f", "Cls.m", "f.<locals>.g"
    lineno: int
    is_async: bool
    nested: bool
    params: tuple[str, ...] = ()
    calls: list[CallFact] = field(default_factory=list)
    blocking: list[BlockingFact] = field(default_factory=list)
    tasks: list[TaskFact] = field(default_factory=list)
    conds: list[CondFact] = field(default_factory=list)
    submits: list[SubmitFact] = field(default_factory=list)
    rng_creates: list[RngCreateFact] = field(default_factory=list)
    args: list[ArgFact] = field(default_factory=list)
    returns: list[str] = field(default_factory=list)  # classifications
    future_results: list[int] = field(default_factory=list)  # linenos


@dataclass
class ImportFact:
    target: str                 # dotted module as resolvable
    lineno: int
    scope: str                  # toplevel | deferred | typing


@dataclass
class ModuleFacts:
    """Everything phase 2 may want to know about one module."""

    path: str                   # repo-relative posix path
    module: str                 # dotted name ("repro.engine.rng")
    sha: str                    # sha256 of the source
    imports: list[ImportFact] = field(default_factory=list)
    functions: dict[str, FunctionFact] = field(default_factory=dict)
    condition_names: list[str] = field(default_factory=list)
    file_findings: list[Finding] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)
    suppression_meta: list[Finding] = field(default_factory=list)
    has_wallclock: bool = False
    imports_asyncio: bool = False
    parse_error: bool = False

    def toplevel_imports(self) -> list[ImportFact]:
        return [imp for imp in self.imports if imp.scope == "toplevel"]


def module_name_for(rel_path: str) -> str:
    """Dotted module name of a repo-relative path.

    ``src/repro/engine/rng.py`` -> ``repro.engine.rng`` (the ``src``
    layout root is stripped); ``scripts/run_paper.py`` ->
    ``scripts.run_paper``; package ``__init__`` files name the package.
    """
    parts = list(Path(rel_path).with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or rel_path


# ---- extraction -------------------------------------------------------------

class _Frame:
    """Per-function extraction state."""

    def __init__(self, fact: FunctionFact) -> None:
        self.fact = fact
        self.loop_depth = 0
        self.async_with: list[str] = []     # dotted receiver reprs
        self.var_sources: dict[str, str] = {}
        self.local_defs: set[str] = set()


def _dotted(node: ast.expr) -> str | None:
    """Dotted source repr of a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _FactsExtractor(ast.NodeVisitor):
    """One walk of one module's AST collecting every phase-2 fact."""

    def __init__(self, ctx: FileContext, facts: ModuleFacts) -> None:
        self.ctx = ctx
        self.facts = facts
        module_fact = FunctionFact(qualname="<module>", lineno=0,
                                   is_async=False, nested=False)
        facts.functions["<module>"] = module_fact
        self._frames: list[_Frame] = [_Frame(module_fact)]
        self._class_stack: list[str] = []
        self._seen_task_calls: set[int] = set()

    @property
    def _frame(self) -> _Frame:
        return self._frames[-1]

    # -- imports ----------------------------------------------------------

    def _import_scope(self) -> str:
        return "toplevel" if len(self._frames) == 1 else "deferred"

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.facts.imports.append(ImportFact(
                target=alias.name, lineno=node.lineno,
                scope=self._import_scope()))
            if alias.name.split(".")[0] == "asyncio" \
                    and self._import_scope() == "toplevel":
                self.facts.imports_asyncio = True

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return          # relative imports stay within their package
        scope = self._import_scope()
        for alias in node.names:
            self.facts.imports.append(ImportFact(
                target=f"{node.module}.{alias.name}", lineno=node.lineno,
                scope=scope))
        if node.module.split(".")[0] == "asyncio" and scope == "toplevel":
            self.facts.imports_asyncio = True

    def visit_If(self, node: ast.If) -> None:
        # `if TYPE_CHECKING:` bodies are annotation-only: re-tag their
        # imports so the layer rules skip them.
        if "TYPE_CHECKING" in ast.dump(node.test):
            before = len(self.facts.imports)
            for child in node.body:
                self.visit(child)
            for imp in self.facts.imports[before:]:
                imp.scope = "typing"
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    # -- scopes -----------------------------------------------------------

    def _enter_function(self, node, is_async: bool) -> None:
        parent = self._frame.fact
        if parent.qualname == "<module>":
            qualname = ".".join([*self._class_stack, node.name])
            nested = False
        else:
            qualname = f"{parent.qualname}.<locals>.{node.name}"
            nested = True
            self._frame.local_defs.add(node.name)
        args = node.args
        params = tuple(a.arg for a in (*args.posonlyargs, *args.args,
                                       *args.kwonlyargs))
        fact = FunctionFact(qualname=qualname, lineno=node.lineno,
                            is_async=is_async, nested=nested, params=params)
        self.facts.functions[qualname] = fact
        self._frames.append(_Frame(fact))
        for child in node.body:
            self.visit(child)
        self._frames.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node, is_async=True)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return      # classified at the call site that receives it

    # -- loops / async with ----------------------------------------------

    def _visit_loop(self, node) -> None:
        self._frame.loop_depth += 1
        self.generic_visit(node)
        self._frame.loop_depth -= 1

    visit_For = visit_While = visit_AsyncFor = _visit_loop

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        receivers = [r for item in node.items
                     if (r := _dotted(item.context_expr)) is not None]
        self._frame.async_with.extend(receivers)
        self.generic_visit(node)
        del self._frame.async_with[len(self._frame.async_with)
                                   - len(receivers):]

    # -- statements feeding classification --------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_condition_binding(node.targets, node.value)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            self._frame.var_sources[node.targets[0].id] = \
                self._classify_expr(node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_condition_binding([node.target], node.value)
            if isinstance(node.target, ast.Name):
                self._frame.var_sources[node.target.id] = \
                    self._classify_expr(node.value)
        self.generic_visit(node)

    def _record_condition_binding(self, targets: list[ast.expr],
                                  value: ast.expr) -> None:
        """Names/attributes bound to ``asyncio.Condition`` anywhere in
        the value expression (covers ``field(default_factory=...)``)."""
        bound = False
        for sub in ast.walk(value):
            if isinstance(sub, (ast.Name, ast.Attribute)) \
                    and self.ctx.resolve(sub) == "asyncio.Condition":
                bound = True
                break
        if not bound:
            return
        for target in targets:
            name = target.attr if isinstance(target, ast.Attribute) \
                else target.id if isinstance(target, ast.Name) else None
            if name and name not in self.facts.condition_names:
                self.facts.condition_names.append(name)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._frame.fact.returns.append(self._classify_expr(node.value))
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        if isinstance(node.value, ast.Call) \
                and self._task_origin(node.value) is not None:
            self._record_task(node.value, discarded=True)
        self.generic_visit(node)

    # -- calls ------------------------------------------------------------

    def _callee_key(self, func: ast.expr) -> str:
        origin = self.ctx.resolve(func)
        if origin is not None:
            return origin
        if isinstance(func, ast.Name):
            return f"local:{func.id}"
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "self":
            return f"self:{func.attr}"
        return "?"

    def _task_origin(self, node: ast.Call) -> str | None:
        origin = self.ctx.resolve(node.func)
        if origin in ("asyncio.create_task", "asyncio.ensure_future"):
            return origin
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "create_task" \
                and isinstance(func.value, ast.Name) \
                and "loop" in func.value.id.lower():
            return f"{func.value.id}.create_task"
        return None

    def _record_task(self, node: ast.Call, discarded: bool) -> None:
        if id(node) in self._seen_task_calls:
            return
        self._seen_task_calls.add(id(node))
        self._frame.fact.tasks.append(TaskFact(
            origin=self._task_origin(node) or "?", lineno=node.lineno,
            discarded=discarded))

    def _classify_expr(self, node: ast.expr) -> str:
        """Taint-relevant source classification of an expression."""
        if isinstance(node, ast.Await):
            return self._classify_expr(node.value)
        if isinstance(node, ast.Call):
            return f"call:{self._callee_key(node.func)}"
        if isinstance(node, ast.Name):
            frame = self._frame
            if node.id in frame.var_sources:
                return frame.var_sources[node.id]
            if node.id in frame.fact.params:
                return f"param:{node.id}"
            return "other"
        return "other"

    def visit_Call(self, node: ast.Call) -> None:
        fact = self._frame.fact
        key = self._callee_key(node.func)
        fact.calls.append(CallFact(callee=key, lineno=node.lineno))

        origin = self.ctx.resolve(node.func)
        if origin in WALLCLOCK_ORIGINS:
            self.facts.has_wallclock = True
        if origin in BLOCKING_ORIGINS:
            fact.blocking.append(BlockingFact(
                origin=origin, lineno=node.lineno,
                in_loop=self._frame.loop_depth > 0))
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in FILE_IO_ATTRS:
            fact.blocking.append(BlockingFact(
                origin=f"file-io:{func.attr}", lineno=node.lineno,
                in_loop=self._frame.loop_depth > 0))
        if isinstance(func, ast.Name) and func.id == "open":
            fact.blocking.append(BlockingFact(
                origin="file-io:open", lineno=node.lineno,
                in_loop=self._frame.loop_depth > 0))
        if isinstance(func, ast.Attribute) and func.attr == "result" \
                and not node.args and not node.keywords \
                and isinstance(func.value, ast.Name) \
                and "fut" in func.value.id.lower():
            fact.future_results.append(node.lineno)

        if self._task_origin(node) is not None:
            self._record_task(node, discarded=False)

        # condition operations
        if isinstance(func, ast.Attribute) \
                and func.attr in ("wait", "wait_for", "notify", "notify_all"):
            receiver = _dotted(func.value)
            if receiver is not None:
                fact.conds.append(CondFact(
                    receiver=receiver, op=func.attr, lineno=node.lineno,
                    guarded=receiver in self._frame.async_with))

        # executor submissions
        self._record_submit(node, origin)

        # RNG creations
        if origin is not None and (
                origin in AMBIENT_RNG_EXACT
                or origin.startswith(AMBIENT_RNG_PREFIXES)):
            fact.rng_creates.append(RngCreateFact(origin=origin,
                                                  lineno=node.lineno))

        # argument flows (taint): record classifiable sources only
        for index, arg in enumerate(node.args):
            source = self._classify_expr(arg)
            if source != "other":
                fact.args.append(ArgFact(callee=key, param=f"#{index}",
                                         source=source, lineno=node.lineno))
        for kw in node.keywords:
            if kw.arg is None:
                continue
            source = self._classify_expr(kw.value)
            if source != "other":
                fact.args.append(ArgFact(callee=key, param=kw.arg,
                                         source=source, lineno=node.lineno))

        self.generic_visit(node)

    # -- executor classification ------------------------------------------

    def _executor_kind(self, node: ast.expr) -> str:
        """process | thread | unknown for an executor expression."""
        if isinstance(node, ast.Constant) and node.value is None:
            return "thread"     # run_in_executor(None, ...) default pool
        origin = self.ctx.resolve(node)
        if origin is None and isinstance(node, ast.Call):
            origin = self.ctx.resolve(node.func)
        if origin is not None:
            if origin.endswith(PROCESS_EXECUTORS):
                return "process"
            if origin.endswith("ThreadPoolExecutor"):
                return "thread"
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None:
            source = self._lookup_binding(name)
            if source is not None:
                if source.endswith(PROCESS_EXECUTORS):
                    return "process"
                if source.endswith("ThreadPoolExecutor"):
                    return "thread"
        return "unknown"

    def _lookup_binding(self, name: str) -> str | None:
        """Last ``call:`` source bound to ``name`` in any open frame,
        falling back to the module-wide executor binding table."""
        for frame in reversed(self._frames):
            source = frame.var_sources.get(name)
            if source is not None and source.startswith("call:"):
                return source[len("call:"):]
        return self._module_bindings.get(name)

    @property
    def _module_bindings(self) -> dict[str, str]:
        # attribute bindings (self._pool = ProcessPoolExecutor(...)) are
        # collected up front by analyze_module
        return getattr(self, "_attr_bindings", {})

    def _record_submit(self, node: ast.Call, origin: str | None) -> None:
        func = node.func
        api = None
        executor_expr: ast.expr | None = None
        callable_expr: ast.expr | None = None
        if isinstance(func, ast.Attribute) and func.attr in ("submit", "map"):
            api = func.attr
            executor_expr = func.value
            callable_expr = node.args[0] if node.args else None
        elif isinstance(func, ast.Attribute) \
                and func.attr == "run_in_executor" and len(node.args) >= 2:
            api = "run_in_executor"
            executor_expr = node.args[0]
            callable_expr = node.args[1]
        if api is None or callable_expr is None or executor_expr is None:
            return
        kind = self._executor_kind(executor_expr)
        if api in ("submit", "map") and kind == "unknown":
            return      # .submit()/.map() on arbitrary objects is not ours
        c_kind, c_name = self._classify_callable(callable_expr)
        self._frame.fact.submits.append(SubmitFact(
            api=api, executor=kind, callable_kind=c_kind,
            callable_name=c_name, lineno=node.lineno))

    def _classify_callable(self, node: ast.expr) -> tuple[str, str]:
        if isinstance(node, ast.Lambda):
            return "lambda", "<lambda>"
        if isinstance(node, ast.Call):
            origin = self.ctx.resolve(node.func)
            if origin in ("functools.partial", None) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "partial" and node.args:
                return self._classify_callable(node.args[0])
            if origin == "functools.partial" and node.args:
                return self._classify_callable(node.args[0])
            return "unknown", _dotted(node.func) or "?"
        if isinstance(node, ast.Name):
            for frame in reversed(self._frames[1:]):
                if node.id in frame.local_defs:
                    return "nested", node.id
            origin = self.ctx.resolve(node)
            return "module", origin or node.id
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return "method", f"self.{node.attr}"
            origin = self.ctx.resolve(node)
            if origin is not None:
                return "module", origin
            return "method", _dotted(node) or node.attr
        return "unknown", "?"


def _collect_attr_bindings(tree: ast.Module, ctx: FileContext) -> dict:
    """Module-wide ``<attr or name> -> constructor origin`` table for
    executor classification, covering ``self._pool =
    ProcessPoolExecutor(...)`` and ``with ProcessPoolExecutor() as
    pool:`` alike."""
    bindings: dict[str, str] = {}

    def record(targets: list[ast.expr], value: ast.expr) -> None:
        if not isinstance(value, ast.Call):
            return
        origin = ctx.resolve(value.func)
        if origin is None or not origin.endswith(
                (*PROCESS_EXECUTORS, "ThreadPoolExecutor")):
            return
        for target in targets:
            name = target.attr if isinstance(target, ast.Attribute) \
                else target.id if isinstance(target, ast.Name) else None
            if name:
                bindings[name] = origin

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            record(node.targets, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            record([node.target], node.value)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    record([item.optional_vars], item.context_expr)
    return bindings


def analyze_module(source: str, path: str,
                   rules: dict[str, Rule] | None = None) -> ModuleFacts:
    """Phase 1 for one module: one parse, one walk, one tokenize pass."""
    rules = rules if rules is not None else all_rules()
    facts = ModuleFacts(path=path, module=module_name_for(path),
                        sha=hashlib.sha256(source.encode()).hexdigest())
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        facts.parse_error = True
        facts.file_findings.append(Finding(
            path=path, line=exc.lineno or 1, col=0, rule="parse-error",
            message=f"syntax error: {exc.msg}"))
        return facts
    ctx = FileContext(path=path, source=source, tree=tree)
    extractor = _FactsExtractor(ctx, facts)
    extractor._attr_bindings = _collect_attr_bindings(tree, ctx)
    extractor.visit(tree)
    facts.file_findings.extend(run_file_rules(ctx, rules))
    facts.suppressions, facts.suppression_meta = \
        parse_suppressions(source, path)
    return facts


# ---- the project index ------------------------------------------------------

class ProjectIndex:
    """Cross-file structures shared by every phase-2 rule."""

    def __init__(self, modules: Iterable[ModuleFacts]) -> None:
        self.modules: dict[str, ModuleFacts] = {}       # by path
        self.by_module: dict[str, str] = {}             # dotted -> path
        for facts in modules:
            self.modules[facts.path] = facts
            self.by_module[facts.module] = facts.path

    def resolve_internal(self, dotted: str) -> str | None:
        """Dotted name of the project module an import target lands in.

        ``from repro.system import node`` records target
        ``repro.system.node``; a ``from repro.system.node import Node``
        records ``repro.system.node.Node`` — walk prefixes outward
        until one names a module we indexed.
        """
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.by_module:
                return candidate
        return None

    def import_edges(self, scope: str = "toplevel") \
            -> dict[str, list[tuple[str, ImportFact]]]:
        """Internal import graph: module -> [(target module, fact)]."""
        graph: dict[str, list[tuple[str, ImportFact]]] = {}
        for facts in self.modules.values():
            edges = graph.setdefault(facts.module, [])
            for imp in facts.imports:
                if imp.scope != scope:
                    continue
                target = self.resolve_internal(imp.target)
                if target is not None and target != facts.module:
                    edges.append((target, imp))
        return graph

    # -- call graph -------------------------------------------------------

    def function_key(self, module: str, qualname: str) -> str:
        return f"{module}::{qualname}"

    def functions(self) -> dict[str, FunctionFact]:
        out: dict[str, FunctionFact] = {}
        for facts in self.modules.values():
            for qualname, fact in facts.functions.items():
                out[self.function_key(facts.module, qualname)] = fact
        return out

    def resolve_call(self, caller_module: str, caller_qualname: str,
                     callee: str) -> str | None:
        """Function key a call fact lands on, if it is a project function."""
        facts = self.modules.get(self.by_module.get(caller_module, ""))
        if callee.startswith("local:"):
            name = callee[len("local:"):]
            if facts and name in facts.functions:
                return self.function_key(caller_module, name)
            return None
        if callee.startswith("self:"):
            name = callee[len("self:"):]
            if facts and "." in caller_qualname:
                cls = caller_qualname.split(".")[0]
                if f"{cls}.{name}" in facts.functions:
                    return self.function_key(caller_module, f"{cls}.{name}")
            return None
        if callee == "?":
            return None
        # dotted: strip the function (and maybe class) name off the end
        parts = callee.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module in self.by_module:
                qualname = ".".join(parts[split:])
                target = self.modules[self.by_module[module]]
                if qualname in target.functions:
                    return self.function_key(module, qualname)
                return None
        return None


# ---- the phase-1 cache ------------------------------------------------------

def engine_signature() -> str:
    """Hash of every source file of the lint package.

    Any rule or engine edit must invalidate cached facts *and* cached
    per-file findings; hashing the package source is the bluntest
    correct key.
    """
    lint_dir = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(lint_dir.rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _json_default(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _facts_to_dict(facts: ModuleFacts) -> dict:
    return asdict(facts)


def _facts_from_dict(data: dict) -> ModuleFacts:
    facts = ModuleFacts(path=data["path"], module=data["module"],
                        sha=data["sha"])
    facts.imports = [ImportFact(**d) for d in data["imports"]]
    facts.functions = {}
    for qualname, fd in data["functions"].items():
        fact = FunctionFact(
            qualname=fd["qualname"], lineno=fd["lineno"],
            is_async=fd["is_async"], nested=fd["nested"],
            params=tuple(fd["params"]),
            calls=[CallFact(**d) for d in fd["calls"]],
            blocking=[BlockingFact(**d) for d in fd["blocking"]],
            tasks=[TaskFact(**d) for d in fd["tasks"]],
            conds=[CondFact(**d) for d in fd["conds"]],
            submits=[SubmitFact(**d) for d in fd["submits"]],
            rng_creates=[RngCreateFact(**d) for d in fd["rng_creates"]],
            args=[ArgFact(**d) for d in fd["args"]],
            returns=list(fd["returns"]),
            future_results=list(fd["future_results"]))
        facts.functions[qualname] = fact
    facts.condition_names = list(data["condition_names"])
    facts.file_findings = [Finding(**d) for d in data["file_findings"]]
    facts.suppressions = [
        Suppression(line=d["line"], rules=frozenset(d["rules"]),
                    file_wide=d["file_wide"], reason=d["reason"],
                    standalone=d["standalone"])
        for d in data["suppressions"]]
    facts.suppression_meta = [Finding(**d) for d in data["suppression_meta"]]
    facts.has_wallclock = data["has_wallclock"]
    facts.imports_asyncio = data["imports_asyncio"]
    facts.parse_error = data["parse_error"]
    return facts


class FactsCache:
    """Per-file JSON cache of phase-1 facts keyed on source + engine."""

    def __init__(self, cache_dir: Path, signature: str) -> None:
        self.dir = cache_dir
        self.signature = signature

    def _entry_path(self, rel_path: str) -> Path:
        name = hashlib.sha256(rel_path.encode()).hexdigest()[:24]
        return self.dir / f"{name}.json"

    def get(self, rel_path: str, source_sha: str) -> ModuleFacts | None:
        entry = self._entry_path(rel_path)
        try:
            data = json.loads(entry.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if data.get("engine") != self.signature \
                or data.get("sha") != source_sha \
                or data.get("path") != rel_path:
            return None
        try:
            return _facts_from_dict(data["facts"])
        except (KeyError, TypeError):
            return None

    def put(self, facts: ModuleFacts) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        payload = {"engine": self.signature, "sha": facts.sha,
                   "path": facts.path, "facts": _facts_to_dict(facts)}
        self._entry_path(facts.path).write_text(
            json.dumps(payload, sort_keys=True, default=_json_default),
            encoding="utf-8")


# ---- orchestration ----------------------------------------------------------

def build_index(paths: Iterable[str | Path] | None = None,
                root: Path | None = None,
                rules: dict[str, Rule] | None = None,
                config: LintConfig | None = None,
                use_cache: bool = False) -> ProjectIndex:
    """Phase 1 over files/directories -> the shared project index."""
    root = Path(root) if root is not None else Path.cwd()
    config = config if config is not None else LintConfig.load(root)
    rules = rules if rules is not None else all_rules()
    cache = FactsCache(root / config.cache_dir, engine_signature()) \
        if use_cache else None
    modules: list[ModuleFacts] = []
    for file_path in iter_python_files(paths or config.paths, config, root):
        rel = _rel(file_path, root)
        source = file_path.read_text()
        if cache is not None:
            sha = hashlib.sha256(source.encode()).hexdigest()
            cached = cache.get(rel, sha)
            if cached is not None:
                modules.append(cached)
                continue
        facts = analyze_module(source, rel, rules=rules)
        if cache is not None:
            cache.put(facts)
        modules.append(facts)
    return ProjectIndex(modules)


def _rel(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _apply_suppressions(index: ProjectIndex, findings: list[Finding],
                        config: LintConfig) -> list[Finding]:
    """Config allowlists + inline suppressions + the meta rule."""
    kept: list[Finding] = []
    for finding in findings:
        if config.allowed(finding.rule, finding.path):
            continue
        facts = index.modules.get(finding.path)
        if facts is not None and any(s.covers(finding)
                                     for s in facts.suppressions):
            continue
        kept.append(finding)
    for facts in index.modules.values():
        if config.allowed(SUPPRESSION_RULE, facts.path):
            continue
        kept.extend(facts.suppression_meta)
    return sorted(kept, key=lambda f: f.sort_key)


def run_project_rules(index: ProjectIndex, config: LintConfig,
                      project_rules: dict[str, ProjectRule] | None = None) \
        -> list[Finding]:
    rules = project_rules if project_rules is not None \
        else all_project_rules()
    findings: list[Finding] = []
    for rule in rules.values():
        findings.extend(rule.check_project(index, config))
    return findings


def lint_project(paths: Iterable[str | Path] | None = None,
                 root: Path | None = None,
                 rules: dict[str, Rule] | None = None,
                 project_rules: dict[str, ProjectRule] | None = None,
                 config: LintConfig | None = None,
                 use_cache: bool = False) \
        -> tuple[list[Finding], ProjectIndex]:
    """Both phases over files/directories; returns (findings, index)."""
    root = Path(root) if root is not None else Path.cwd()
    config = config if config is not None else LintConfig.load(root)
    index = build_index(paths, root=root, rules=rules, config=config,
                        use_cache=use_cache)
    findings: list[Finding] = []
    for facts in index.modules.values():
        findings.extend(facts.file_findings)
    findings.extend(run_project_rules(index, config,
                                      project_rules=project_rules))
    return _apply_suppressions(index, findings, config), index


def lint_single_source(source: str, path: str,
                       rules: dict[str, Rule] | None = None,
                       config: LintConfig | None = None) -> list[Finding]:
    """One file as a one-module project (the ``lint_source`` contract)."""
    config = config or LintConfig()
    facts = analyze_module(source, path, rules=rules)
    index = ProjectIndex([facts])
    findings = list(facts.file_findings)
    if not facts.parse_error:
        findings.extend(run_project_rules(index, config))
    return _apply_suppressions(index, findings, config)
