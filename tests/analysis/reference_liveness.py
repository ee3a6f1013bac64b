"""Set-based liveness, kept as the test oracle for the bitset analysis.

This is the register-set formulation the bitset analysis replaced:
``need`` maps each live register to the set of guards under which it is
read (``ALWAYS`` for unconditional needs).  It is slow and obviously
faithful to the predicate rules, which is what an oracle should be.
:func:`to_mask` encodes its results in the bitset layout for comparison.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.cfg import predecessors_map, successors_map
from repro.ir.opcodes import OpCategory
from repro.ir.operands import PReg

#: guard key meaning "needed unconditionally"
ALWAYS = None


def to_mask(regs) -> int:
    mask = 0
    for r in regs:
        mask |= 1 << r.bit
    return mask


def scan_block(insts, live_out, live_in_map, record=None):
    """Backward transfer: registers live before the block.

    ``record``, if given, is filled with the live set *before* each
    instruction (parallel to ``insts``).
    """
    need: dict = {r: {ALWAYS} for r in live_out}
    if record is not None:
        record.clear()
        record.extend([frozenset()] * len(insts))
    for i in range(len(insts) - 1, -1, -1):
        inst = insts[i]
        defined = inst.defined_regs()
        # Redefining a predicate turns needs conditioned on it into
        # unconditional needs.
        for d in defined:
            if isinstance(d, PReg):
                for guards in need.values():
                    if d in guards:
                        guards.discard(d)
                        guards.add(ALWAYS)
        if inst.cat is OpCategory.PREDSET:
            # pred_clear/pred_set definitely define every predicate.
            for guards in need.values():
                if any(isinstance(g, PReg) for g in guards):
                    guards.difference_update(
                        {g for g in guards if isinstance(g, PReg)})
                    guards.add(ALWAYS)
            for r in [r for r in need if isinstance(r, PReg)]:
                del need[r]
        # Kills.
        if not inst.is_conditional_write:
            for d in defined:
                need.pop(d, None)
        elif inst.pred is not None:
            for d in defined:
                guards = need.get(d)
                if guards is not None:
                    guards.discard(inst.pred)
                    if not guards:
                        del need[d]
        # Uses (the guard itself under ALWAYS).
        g = inst.pred
        for r in inst.used_regs():
            key = ALWAYS if isinstance(r, PReg) and r == g else g
            need.setdefault(r, set()).add(key)
        if g is not None:
            need.setdefault(g, set()).add(ALWAYS)
        # Mid-block exits revive their target's live-ins under the
        # exit's guard.
        if inst.is_control and inst.target is not None \
                and inst.cat is not OpCategory.CALL:
            for r in live_in_map.get(inst.target, frozenset()):
                need.setdefault(r, set()).add(g)
        if record is not None:
            record[i] = frozenset(need)
    return set(need)


def worklist_liveness(fn):
    """(live_in, live_out) register sets by a worklist fixpoint."""
    succs = successors_map(fn)
    preds = predecessors_map(fn)
    blocks = {b.name: b for b in fn.blocks}
    live_in = {b.name: frozenset() for b in fn.blocks}
    live_out = {b.name: frozenset() for b in fn.blocks}
    worklist = deque(b.name for b in reversed(fn.blocks))
    queued = set(worklist)
    while worklist:
        name = worklist.popleft()
        queued.discard(name)
        out: set = set()
        for s in succs[name]:
            out |= live_in[s]
        new_in = frozenset(scan_block(blocks[name].instructions,
                                      frozenset(out), live_in))
        live_out[name] = frozenset(out)
        if new_in != live_in[name]:
            live_in[name] = new_in
            for p in preds[name]:
                if p not in queued:
                    queued.add(p)
                    worklist.append(p)
    return live_in, live_out


def round_robin_liveness(fn):
    """(live_in, live_out) by sweeping every block until nothing
    changes: the oldest formulation."""
    succs = successors_map(fn)
    live_in = {b.name: frozenset() for b in fn.blocks}
    live_out = {b.name: frozenset() for b in fn.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(fn.blocks):
            name = block.name
            out: set = set()
            for s in succs[name]:
                out |= live_in[s]
            new_in = frozenset(scan_block(block.instructions,
                                          frozenset(out), live_in))
            out_f = frozenset(out)
            if out_f != live_out[name] or new_in != live_in[name]:
                live_out[name] = out_f
                live_in[name] = new_in
                changed = True
    return live_in, live_out


def assert_matches(fn, live, label="") -> None:
    """Bitset ``live`` equals the oracle on ``fn``: live-in, live-out
    and the live set before every instruction."""
    from repro.analysis.liveness import live_before_each

    want_in, want_out = worklist_liveness(fn)
    for block in fn.blocks:
        name = block.name
        assert live.live_in[name] == to_mask(want_in[name]), (label, name)
        assert live.live_out[name] == to_mask(want_out[name]), \
            (label, name)
        record: list = []
        scan_block(block.instructions, want_out[name], want_in, record)
        got = live_before_each(block, live.live_out[name], live=live)
        assert got == [to_mask(r) for r in record], (label, name)
        standalone = live_before_each(block, live.live_out[name],
                                      live.live_in)
        assert standalone == got, (label, name)


def reference_dce(fn) -> bool:
    """Dead code elimination as whole-function rounds: recompute the
    oracle liveness, sweep every block, repeat until nothing changes."""
    changed = False
    while True:
        live_in, live_out = worklist_liveness(fn)
        round_changed = False
        for block in fn.blocks:
            live_now = set(live_out[block.name])
            kept = []
            for inst in reversed(block.instructions):
                defs = inst.defined_regs()
                if inst.is_pure and defs \
                        and all(d not in live_now for d in defs):
                    round_changed = True
                    continue
                if not inst.is_conditional_write:
                    for d in defs:
                        live_now.discard(d)
                live_now.update(inst.used_regs())
                if inst.is_control and inst.target is not None \
                        and inst.cat is not OpCategory.CALL:
                    live_now.update(live_in.get(inst.target, frozenset()))
                kept.append(inst)
            kept.reverse()
            block.instructions = kept
        if not round_changed:
            return changed
        changed = True
