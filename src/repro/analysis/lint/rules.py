"""The repo-invariant rule set.

Each rule encodes one contract of the execution layer that a generic
linter cannot know.  Rules work on a :class:`~.framework.LintModule`
(AST plus raw source lines, so they can honor trailing ``# guarded-by:``
/ ``# bounded-by:`` annotations) and yield :class:`~.framework.LintFinding`.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Tuple

from .framework import LintFinding, LintModule, register_rule

#: Constructors whose presence marks a class as lock-owning.
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore"})

#: Attribute-name fragments that mark a container as a cache/accumulator.
_CACHE_NAME = re.compile(r"(cache|memo|store|entries|log|history|seen|records)", re.IGNORECASE)


def _walk_scopes(
    tree: ast.Module,
) -> Iterator[Tuple[str, Optional[ast.ClassDef], ast.AST]]:
    """Yield ``(scope, enclosing_class, node)`` for every AST node.

    ``scope`` is ``Class.method``, ``Class``, ``function`` or ``<module>``.
    """

    def visit(node: ast.AST, scope: str, cls: Optional[ast.ClassDef]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                yield (inner, child, child)
                yield from visit(child, inner, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                yield (inner, cls, child)
                yield from visit(child, inner, cls)
            else:
                yield (scope, cls, child)
                yield from visit(child, scope, cls)

    yield from visit(tree, "<module>", None)


def _is_lock_call(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    callee = value.func
    name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
    return name in _LOCK_FACTORIES


def _is_mutable_container(value: ast.AST) -> bool:
    """Whether the assigned value is an (empty or not) dict/list/set literal."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = getattr(value.func, "id", "")
        return name in {"dict", "list", "set", "defaultdict", "deque", "OrderedDict"} or (
            isinstance(value.func, ast.Attribute) and value.func.attr in {"defaultdict", "deque", "OrderedDict"}
        )
    return False


def _self_attribute_target(statement: ast.stmt) -> Optional[Tuple[str, ast.AST]]:
    """``(attribute_name, value)`` for ``self.<name> = <value>`` statements."""
    if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
        target, value = statement.targets[0], statement.value
    elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
        target, value = statement.target, statement.value
    else:
        return None
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr, value
    return None


@register_rule("guarded-state")
def guarded_state(module: LintModule) -> Iterator[LintFinding]:
    """Mutable containers on lock-owning classes must name their lock.

    A class whose ``__init__`` creates a ``threading.Lock``/``RLock``/
    ``Condition`` attribute is shared across workers; every mutable
    container attribute it also creates must carry a trailing
    ``# guarded-by: <lock attribute>`` annotation documenting which lock
    serializes access (or be explicitly exempted with
    ``# guarded-by: none (<reason>)``).
    """
    for scope, cls, node in _walk_scopes(module.tree):
        if not (isinstance(node, ast.FunctionDef) and node.name == "__init__" and cls):
            continue
        assignments: List[Tuple[str, ast.stmt, ast.AST]] = []
        lock_names = set()
        for statement in ast.walk(node):
            if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
                continue
            pair = _self_attribute_target(statement)
            if pair is None:
                continue
            attribute, value = pair
            if _is_lock_call(value):
                lock_names.add(attribute)
            elif _is_mutable_container(value):
                assignments.append((attribute, statement, value))
        if not lock_names:
            continue
        for attribute, statement, _value in assignments:
            if module.annotation(statement, "guarded-by") is not None:
                continue
            yield LintFinding(
                rule="guarded-state",
                path=module.path,
                line=statement.lineno,
                scope=scope,
                symbol=attribute,
                message=(
                    f"{cls.name}.{attribute} is a mutable container on a "
                    f"lock-owning class (locks: {', '.join(sorted(lock_names))}); "
                    f"annotate it with '# guarded-by: <lock>'"
                ),
            )


@register_rule("wall-clock")
def wall_clock(module: LintModule) -> Iterator[LintFinding]:
    """``time.time()`` is banned in the execution layer.

    Operator kernels and the interpreter account durations in traces; wall
    clock drifts under NTP adjustment, so interval timing must use
    ``time.perf_counter()`` (or ``time.monotonic()`` for deadlines).
    Only modules under ``exec/`` are in scope — absolute timestamps are
    fine elsewhere (e.g. server logs).
    """
    if "exec/" not in module.path:
        return
    for scope, _cls, node in _walk_scopes(module.tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr == "time"
            and isinstance(callee.value, ast.Name)
            and callee.value.id == "time"
        ):
            yield LintFinding(
                rule="wall-clock",
                path=module.path,
                line=node.lineno,
                scope=scope,
                symbol="time.time",
                message=(
                    "time.time() in the execution layer; use "
                    "time.perf_counter() for intervals (NTP-immune)"
                ),
            )


@register_rule("unbounded-cache")
def unbounded_cache(module: LintModule) -> Iterator[LintFinding]:
    """Cache-like containers on long-lived objects must declare a bound.

    An attribute whose name says it accumulates (``*cache*``, ``*memo*``,
    ``*entries*``, ``*log*``, ...) and that is initialised to an empty
    container must either be bounded in code or carry a trailing
    ``# bounded-by: <mechanism>`` annotation naming what keeps it from
    growing without limit (eviction policy, per-query lifetime, ...).
    """
    for scope, cls, node in _walk_scopes(module.tree):
        if not (isinstance(node, ast.FunctionDef) and node.name == "__init__" and cls):
            continue
        for statement in ast.walk(node):
            if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
                continue
            pair = _self_attribute_target(statement)
            if pair is None:
                continue
            attribute, value = pair
            if not _CACHE_NAME.search(attribute):
                continue
            if not _is_mutable_container(value):
                continue
            if module.annotation(statement, "bounded-by") is not None:
                continue
            yield LintFinding(
                rule="unbounded-cache",
                path=module.path,
                line=statement.lineno,
                scope=scope,
                symbol=attribute,
                message=(
                    f"{cls.name}.{attribute} looks like an accumulator with no "
                    f"declared bound; annotate it with '# bounded-by: <mechanism>'"
                ),
            )


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    """Whether a handler neither re-raises nor inspects the exception."""
    bound = handler.name
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return False
        if bound and isinstance(node, ast.Name) and node.id == bound:
            return False
    return True


def _names_in(node: ast.AST) -> List[str]:
    """Identifiers and string constants in an expression (tuples unpacked)."""
    found: List[str] = []
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            found.append(part.id)
        elif isinstance(part, ast.Attribute):
            found.append(part.attr)
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            found.append(part.value)
    return found


def _catches_cancel(handler: ast.ExceptHandler) -> bool:
    return handler.type is not None and "QueryCancelled" in _names_in(handler.type)


@register_rule("swallowed-cancel")
def swallowed_cancel(module: LintModule) -> Iterator[LintFinding]:
    """A catch-all ``except`` must not eat cooperative cancellation.

    ``QueryCancelled`` is control flow: a worker observing the cancel
    flag raises it to unwind.  A bare/``Exception``/``BaseException``
    handler that neither re-raises nor references the bound exception
    (i.e. cannot possibly route it onward) silently kills cancellation.
    An earlier sibling handler that catches ``QueryCancelled`` explicitly
    exempts the catch-all.
    """
    for scope, _cls, node in _walk_scopes(module.tree):
        if not isinstance(node, ast.Try):
            continue
        cancel_handled = False
        for handler in node.handlers:
            if _catches_cancel(handler):
                cancel_handled = True
                continue
            catch_all = handler.type is None or (
                isinstance(handler.type, ast.Name)
                and handler.type.id in {"Exception", "BaseException"}
            )
            if not catch_all or cancel_handled:
                continue
            if _handler_swallows(handler):
                caught = "bare except" if handler.type is None else f"except {handler.type.id}"
                yield LintFinding(
                    rule="swallowed-cancel",
                    path=module.path,
                    line=handler.lineno,
                    scope=scope,
                    symbol=caught,
                    message=(
                        f"{caught} swallows QueryCancelled: re-raise, reference "
                        f"the bound exception, or catch QueryCancelled first"
                    ),
                )


#: Dotted names inside the packages that solve LPs with SciPy.
_LP_MODULE = re.compile(r"repro\.(width|polymatroid)(\.|$)")


def _package_of(path: str) -> Optional[List[str]]:
    """The package of a module under ``repro/`` as name parts, or ``None``."""
    directories = path.split("/")[:-1]
    if "repro" not in directories:
        return None
    return directories[max(i for i, d in enumerate(directories) if d == "repro"):]


def _imported_modules(node: ast.AST, package: List[str]) -> List[str]:
    """The dotted modules an import statement may load (relative ones resolved)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = package[: len(package) - node.level + 1] if node.level else []
    module = ".".join(base + (node.module.split(".") if node.module else []))
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


@register_rule("layering")
def layering(module: LintModule) -> Iterator[LintFinding]:
    """Importing the engine must not load the LP stack.

    ``repro.width`` and ``repro.polymatroid`` solve LPs with SciPy, about
    0.3 s and 45 MB at every server, CLI and REPL start.  A module-level
    import of either from any other ``repro`` module (``repro/__init__.py``
    included) is a finding; an import inside a function runs only when the
    function does, and is allowed.
    """
    package = _package_of(module.path)
    if package is None or _LP_MODULE.match(".".join(package)):
        return
    stack: List[ast.AST] = [module.tree]
    while stack:  # every node that runs at import time: all but function bodies
        for node in ast.iter_child_nodes(stack.pop()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(node)
            names = [n for n in _imported_modules(node, package) if _LP_MODULE.match(n)]
            if names:
                yield LintFinding(
                    rule="layering",
                    path=module.path,
                    line=node.lineno,
                    scope="<module>",
                    symbol=names[0],
                    message=(
                        f"module-level import of {names[0]} loads SciPy with the "
                        f"engine; import it inside the function that needs it"
                    ),
                )
