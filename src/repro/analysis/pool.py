"""POOL001: the shared process pool is reached through one dispatcher.

Chain tasks, subtree items and engine reduction tasks all cross into
worker processes.  Three hand-written submit/drain/retry loops for them
drifted apart (the chain fan-out ignored the per-item timeout and the
retry limit the other two honoured), so the pool now has a chokepoint:
:func:`repro.store.workqueue.dispatch`.  Outside that module no code may
create a pool or touch futures directly.  Detection is syntactic: calls
named ``shared_pool`` or ``ProcessPoolExecutor``, and any ``.submit(``
or ``.result(`` method call.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleContext, Rule, register


@register
class PoolChokepointRule(Rule):
    rule_id = "POOL001"
    name = "pool-chokepoint"
    summary = (
        "shared_pool( / ProcessPoolExecutor( calls, or pool .submit( / "
        ".result( calls, outside repro/store/workqueue.py"
    )
    invariant = (
        "every pooled item goes through repro.store.workqueue.dispatch: one "
        "submission order, one worker envelope (fault point, spans, counter "
        "delta) and one retry/timeout/fallback state machine"
    )
    motivation = (
        "three hand-written pool loops drifted apart: the chain fan-out "
        "ignored REPRO_POOL_ITEM_TIMEOUT and REPRO_POOL_RETRIES while the "
        "subtree and engine paths honoured them"
    )
    fix = (
        "submit through repro.store.workqueue.dispatch and recompute the "
        "items it marks with Recompute in process"
    )

    #: The one module allowed to create the pool and handle its futures.
    _DISPATCH_MODULE = "repro/store/workqueue.py"
    _POOL_FACTORIES = frozenset({"shared_pool", "ProcessPoolExecutor"})
    #: Method-call names: the factories plus the future-handling calls.
    _POOL_METHODS = _POOL_FACTORIES | {"submit", "result"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.path == self._DISPATCH_MODULE:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name, banned = func.id, self._POOL_FACTORIES
            elif isinstance(func, ast.Attribute):
                name, banned = func.attr, self._POOL_METHODS
            else:
                continue
            if name in banned:
                yield ctx.finding(
                    self,
                    node,
                    f"{name}(...) outside {self._DISPATCH_MODULE}; submit "
                    "through repro.store.workqueue.dispatch instead",
                )
