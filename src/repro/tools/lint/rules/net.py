"""Rule TL009: RPC call sites handle the full protocol error set.

Once ``repro.net`` turned every client↔node interaction into an RPC,
each public client operation became a place where three things can
happen that the application must never see raw: the epoch moved
(:class:`SealedError`), the node died (:class:`NodeDownError`), or the
network ate a message (:class:`RpcTimeout`). The client library's
public surface has to absorb all three with its retry/reconfigure
logic — ``CorfuClient.trim`` leaking ``SealedError`` to the GC during
a reconfiguration is exactly the bug this rule exists to catch.

The reactions live in one private retry helper that the public
operations call, so the rule also checks handlers wherever they are: a
method that catches one of the three errors must catch all of them.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.net.wire import RPC_OPS as _WIRE_OPS
from repro.tools.lint.engine import Diagnostic, ParsedModule, Rule, Severity
from repro.tools.lint.rules.common import class_methods

#: Method names that constitute node RPCs. Derived from the wire
#: registry (:data:`repro.net.wire.RPC_OPS` — the exact surface the
#: socket transport serves) plus the chain-replication wrapper ``fill``
#: that exists only client-side.
_RPC_OPS = _WIRE_OPS | frozenset({"fill"})

#: The protocol errors every public RPC-driving method must react to.
_REQUIRED = frozenset({"SealedError", "NodeDownError", "RpcTimeout"})

#: Handler names that cover the whole set at once.
_CATCH_ALLS = frozenset(
    {"CorfuError", "ReproError", "Exception", "BaseException"}
)


def _is_rpc_client(cls: ast.ClassDef) -> bool:
    """True for projection-aware client classes.

    The marker is a ``refresh_projection`` method: holding (and
    refreshing) a projection is what distinguishes a retry-owning
    client from the server classes and the stateless chain helper,
    which legitimately propagate protocol errors to their caller.
    """
    return "refresh_projection" in class_methods(cls)


def _handler_names(handler_type: Optional[ast.expr]) -> Set[str]:
    if handler_type is None:
        return set(_CATCH_ALLS)
    names: Set[str] = set()
    for node in (
        handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    ):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


class RpcErrorDiscipline(Rule):
    """TL009: public RPC call sites handle Sealed/NodeDown/RpcTimeout."""

    rule_id = "TL009"
    title = "RPC call sites handle SealedError/NodeDownError/RpcTimeout"
    severity = Severity.ERROR
    paper_section = "§2.2, §5"
    rationale = (
        "The client owns all retry logic: a sealed epoch means 'refresh "
        "the projection and retry', a dead node means 'reconfigure "
        "around it', a timeout means 'back off and retry "
        "idempotence-aware'. A public client operation that issues node "
        "RPCs without handlers for all three leaks transient "
        "infrastructure events to the application as exceptions — a "
        "trim racing a reconfiguration must not abort the caller's GC. "
        "Private helpers may propagate (their public caller holds the "
        "retry loop); public entry points may not. Any method that "
        "handles one of the three errors (the retry helper itself) "
        "must handle all three: a dropped handler there leaks that "
        "error from every operation at once."
    )

    def check(self, module: ParsedModule) -> Iterable[Diagnostic]:
        for cls in (
            n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
        ):
            if not _is_rpc_client(cls):
                continue
            for name, fn in class_methods(cls).items():
                unguarded = []
                if not name.startswith("_"):
                    # Helpers may propagate to the public retry path.
                    unguarded = list(self._unguarded_rpcs(module, cls, name, fn))
                if unguarded:
                    yield from unguarded
                else:
                    yield from self._partial_handlers(module, cls, name, fn)

    def _partial_handlers(
        self,
        module: ParsedModule,
        cls: ast.ClassDef,
        name: str,
        fn: ast.FunctionDef,
    ) -> Iterable[Diagnostic]:
        """Flag a method that handles some protocol errors but not all."""
        covered: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler):
                covered |= _handler_names(node.type)
        missing = sorted(_REQUIRED - covered)
        if covered & _REQUIRED and missing and not covered & _CATCH_ALLS:
            yield self.diag(
                module,
                fn,
                f"{cls.name}.{name} handles "
                f"{'/'.join(sorted(covered & _REQUIRED))} but not "
                f"{'/'.join(missing)}; a method that reacts to one "
                f"protocol error must react to all three",
            )

    def _unguarded_rpcs(
        self,
        module: ParsedModule,
        cls: ast.ClassDef,
        name: str,
        fn: ast.FunctionDef,
    ) -> Iterable[Diagnostic]:
        for call, enclosing_tries in _rpc_calls_with_tries(fn):
            covered: Set[str] = set()
            for try_node in enclosing_tries:
                for handler in try_node.handlers:
                    covered |= _handler_names(handler.type)
            if covered & _CATCH_ALLS:
                continue
            missing = sorted(_REQUIRED - covered)
            if missing:
                yield self.diag(
                    module,
                    call,
                    f"{cls.name}.{name} issues RPC "
                    f"'{call.func.attr}' without handling "
                    f"{'/'.join(missing)}; public client operations "
                    f"must absorb sealed epochs, dead nodes, and "
                    f"timeouts via the standard retry path",
                )


def _rpc_calls_with_tries(fn: ast.FunctionDef):
    """Yield ``(call, [enclosing Try nodes])`` for each RPC-op call.

    Only calls through an attribute receiver count (``x.write(...)``);
    plain-name calls (``write(...)``) are local functions, not RPCs.
    """
    stack: List[ast.Try] = []

    def visit(node: ast.AST):
        if isinstance(node, ast.Try):
            stack.append(node)
            for child in node.body:
                visit(child)
            stack.pop()
            # Handler/else/finally bodies are NOT covered by their own
            # try: an exception raised there propagates.
            for handler in node.handlers:
                for child in handler.body:
                    visit(child)
            for child in node.orelse + node.finalbody:
                visit(child)
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RPC_OPS
        ):
            yield_sites.append((node, list(stack)))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested functions get their own analysis scope
            visit(child)

    yield_sites: List = []
    for stmt in fn.body:
        visit(stmt)
    return yield_sites
