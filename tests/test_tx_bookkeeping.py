"""Decided-transaction bookkeeping retains no commit records.

A runtime remembers, for every transaction it decided, the commit's
offset and the oids it involved, so ``publish_decision`` can append the
decision on the right streams later. It must not keep the decoded
:class:`CommitRecord` itself: that carries the read set, the inline
updates and their payload bytes, and was the largest retained
allocation on long transactional runs.
"""

from __future__ import annotations

import gc
import types

from repro.objects import TangoMap
from repro.tango.records import CommitRecord

#: Never followed by the reachability walk: they lead to module globals
#: (anything any imported module holds), not to runtime state.
_OPAQUE = (
    types.ModuleType,
    type,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.CodeType,
    types.FrameType,
)


def _reachable_commit_records(root) -> list:
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if isinstance(obj, CommitRecord):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) in seen or isinstance(ref, _OPAQUE):
                continue
            seen.add(id(ref))
            stack.append(ref)
    return found


class _MarkedMap(TangoMap):
    needs_decision_record = True


def _run_transactions(make_runtime, count: int):
    rt1, rt2 = make_runtime(), make_runtime()
    maps1 = [TangoMap(rt1, oid=1), _MarkedMap(rt1, oid=2)]
    maps2 = [TangoMap(rt2, oid=1), _MarkedMap(rt2, oid=2)]
    for i in range(count):
        source, target = maps1[i % 2], maps1[(i + 1) % 2]

        def tx(source=source, target=target, i=i):
            seen = source.get("k%d" % (i % 7))
            target.put("k%d" % (i % 5), "v%d-%s" % (i, seen))

        rt1.run_transaction(tx)
        if i % 10 == 0:
            # Another client writes a key the next transaction reads,
            # so some transactions abort and retry.
            maps2[(i + 1) % 2].put("k%d" % ((i + 1) % 7), "spoiler")
    for m in maps2:
        m.size()  # rt2 plays (and decides) every commit record
    return rt1, rt2


def test_no_commit_record_reachable_after_200_transactions(make_runtime):
    rt1, rt2 = _run_transactions(make_runtime, 200)
    for rt in (rt1, rt2):
        assert len(rt._pending_records) >= 200
        for offset, oids in rt._pending_records.values():
            assert isinstance(offset, int)
            assert oids and all(isinstance(oid, int) for oid in oids)
        assert _reachable_commit_records(rt) == []


def test_publish_decision_uses_retained_oids(make_runtime):
    rt1, rt2 = _run_transactions(make_runtime, 20)
    tx_id = next(iter(rt2._pending_records))
    before = rt2.stats["decisions_published"]
    assert rt2.publish_decision(tx_id) is True
    assert rt2.stats["decisions_published"] == before + 1
