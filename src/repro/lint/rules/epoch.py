"""Epoch-hygiene rule: no writes that dodge ``__setattr__`` interception.

The steady-state fast path (``docs/performance.md``) caches each
socket's segment-rate matrix keyed on an :class:`repro.engine.epoch.EpochCell`
that is bumped by ``Core.__setattr__`` / ``Uncore.__setattr__`` when a
rate-relevant field changes. A write that bypasses normal attribute
assignment — ``object.__setattr__``, ``__dict__`` pokes, ``vars()``
subscript stores, ``setattr`` with a computed name — skips the bump,
leaving the cached matrix stale and silently desynchronizing fastpath
and slow-path results. ``epoch-bypass`` flags:

* ``object.__setattr__(obj, field, v)`` naming a rate-relevant field,
  or with a non-literal field name (unprovable), outside a
  ``__setattr__`` method body (the interceptors themselves must use it).
  A call through any name bound to ``object.__setattr__`` in the file
  (``osa = object.__setattr__``) counts as the attribute itself;
* any store through ``obj.__dict__[...]`` / ``vars(obj)[...]`` or
  ``obj.__dict__.update(...)``;
* ``setattr(obj, name, v)`` with a computed ``name`` — it does route
  through interception, but which field it writes cannot be verified
  statically, so it needs a literal or a justified suppression.

The same family polices the batched-RNG buffer: ``rng-batch-bypass``
flags any access to :class:`repro.engine.rng.DrawBatch`'s private
prefill state (``_prefill``, ``_prefill_array``, ``_prefill_args``,
``_prefill_cursor``) outside ``repro/engine/rng.py`` — as an
attribute, or by a literal name through
``getattr``/``setattr``/``hasattr``/``delattr`` or
``operator.attrgetter``. ``take()`` and ``take_n()`` are the only
sanctioned ways to consume the buffer — they record the draw site in
the sanitize ledger exactly like direct generator calls; reaching into
the buffer consumes randomness invisibly, so a fastpath-on and
fastpath-off run could agree on every final counter while having drawn
differently. ``block()`` is the only sanctioned read-ahead: a
hand-made one can refill early or read past the block, and its values
are then taken by nothing.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import FileContext, Finding, Rule, register

#: The union of Core._EPOCH_FIELDS and Uncore._EPOCH_FIELDS: writes to
#: these must bump the socket epoch (see repro.system.core / .uncore).
RATE_FIELDS = frozenset({
    "freq_hz", "requested_hz", "cstate", "avx_license", "workload",
    "_phase", "halted",
})


def _setattr_impl_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """Line spans of ``def __setattr__`` bodies (the sanctioned callers
    of ``object.__setattr__``)."""
    return [(node.lineno, node.end_lineno or node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in ("__setattr__", "__delattr__")]


def _is_object_setattr(node: ast.expr | None) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object")


def _setattr_aliases(tree: ast.Module) -> frozenset[str]:
    """Names bound to ``object.__setattr__`` anywhere in the file."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if _is_object_setattr(node.value):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return frozenset(names)


def _is_dunder_dict(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def _is_vars_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars")


@register
class EpochBypassRule(Rule):
    id = "epoch-bypass"
    description = ("attribute write bypasses EpochCell dirty tracking "
                   "(stale rate-matrix cache)")
    hint = ("assign normally so __setattr__ interception bumps the socket "
            "epoch; see docs/performance.md")
    node_types = (ast.Call, ast.Assign, ast.AugAssign, ast.AnnAssign)

    def begin_file(self, ctx: FileContext) -> Iterable[Finding]:
        self._spans = _setattr_impl_spans(ctx.tree)
        self._aliases = _setattr_aliases(ctx.tree)
        return ()

    def _in_setattr_impl(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        return any(lo <= line <= hi for lo, hi in self._spans)

    def visit(self, ctx: FileContext, node: ast.AST) -> Iterable[Finding]:
        if isinstance(node, ast.Call):
            yield from self._visit_call(ctx, node)
            return
        # stores through __dict__ / vars(): x.__dict__["f"] = v etc.
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and (
                    _is_dunder_dict(target.value)
                    or _is_vars_call(target.value)):
                yield self.finding(
                    ctx, target,
                    "store through __dict__/vars() bypasses __setattr__ "
                    "interception")

    def _visit_call(self, ctx: FileContext,
                    node: ast.Call) -> Iterable[Finding]:
        func = node.func
        # object.__setattr__(obj, "field", value), or through an alias
        if (_is_object_setattr(func)
                or isinstance(func, ast.Name) and func.id in self._aliases) \
                and not self._in_setattr_impl(node):
            name_arg = node.args[1] if len(node.args) >= 2 else None
            if isinstance(name_arg, ast.Constant) \
                    and isinstance(name_arg.value, str):
                if name_arg.value in RATE_FIELDS:
                    yield self.finding(
                        ctx, node,
                        f"object.__setattr__ writes rate-relevant field "
                        f"{name_arg.value!r} without an epoch bump")
            else:
                yield self.finding(
                    ctx, node,
                    "object.__setattr__ with a computed field name cannot "
                    "be proven epoch-safe")
        # obj.__dict__.update(...)
        elif isinstance(func, ast.Attribute) and func.attr == "update" \
                and _is_dunder_dict(func.value):
            yield self.finding(
                ctx, node,
                "__dict__.update() bypasses __setattr__ interception")
        # setattr(obj, <computed>, value)
        elif isinstance(func, ast.Name) and func.id == "setattr" \
                and len(node.args) >= 2 \
                and not (isinstance(node.args[1], ast.Constant)
                         and isinstance(node.args[1].value, str)):
            yield self.finding(
                ctx, node,
                "setattr with a computed field name cannot be verified "
                "against the epoch field set")


#: DrawBatch's private prefill state. Touching it outside the batch
#: implementation bypasses take()'s draw-order accounting.
BATCH_INTERNALS = frozenset({"_prefill", "_prefill_array",
                             "_prefill_args", "_prefill_cursor"})

#: The one module allowed to touch the prefill buffer.
_RNG_MODULE_SUFFIX = "repro/engine/rng.py"


@register
class RngBatchBypassRule(Rule):
    id = "rng-batch-bypass"
    description = ("direct access to the DrawBatch prefill buffer "
                   "bypasses draw-order accounting")
    hint = ("consume batched draws through DrawBatch.take() or "
            "take_n(); only repro/engine/rng.py may touch the prefill "
            "state")
    node_types = (ast.Attribute, ast.Call)

    def begin_file(self, ctx: FileContext) -> Iterable[Finding]:
        path = ctx.path.replace("\\", "/")
        self._exempt = path.endswith(_RNG_MODULE_SUFFIX)
        return ()

    def visit(self, ctx: FileContext, node: ast.AST) -> Iterable[Finding]:
        if self._exempt:
            return
        name = (node.attr if isinstance(node, ast.Attribute)
                else _literal_attr_name(node))
        if name not in BATCH_INTERNALS:
            return
        yield self.finding(
            ctx, node,
            f"access to DrawBatch internal {name!r} outside "
            f"repro/engine/rng.py skips the sanitize ledger")


#: Builtins (and ``operator.attrgetter``) that reach an attribute by a
#: name given as a string.
_NAMED_ACCESS = frozenset({"getattr", "setattr", "hasattr", "delattr",
                           "attrgetter"})


def _literal_attr_name(call: ast.Call) -> str | None:
    """The attribute a named-access call reaches, when its name is a
    string literal: ``getattr(obj, "_prefill")`` and the like."""
    func = call.func
    callee = (func.id if isinstance(func, ast.Name)
              else func.attr if isinstance(func, ast.Attribute) else None)
    if callee not in _NAMED_ACCESS:
        return None
    index = 0 if callee == "attrgetter" else 1
    if len(call.args) <= index:
        return None
    arg = call.args[index]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    return None
