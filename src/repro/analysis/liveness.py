"""Backward liveness over dense register bits.

**Bit layout.**  A register set is a Python int: ``VReg(i)`` is bit
``2*i`` and ``PReg(i)`` is bit ``2*i+1`` (the register's ``bit`` id, see
:mod:`repro.ir.operands`).  The ids are stateless, so live sets of one
function can be combined without a numbering table; :func:`class_masks`
splits a set into INT/FLOAT/predicate counts.

**Extended blocks.**  Superblocks and hyperblocks contain mid-block exit
branches, so the backward walk revives each exit target's live-in set
at the exit's position: a later definite definition must not hide a
value the exit path needs.

**Guard masks.**  The analysis is predication-aware.  A guarded
definition is not a definite kill (the old value survives a false
guard), but it satisfies needs that arise only under the *same,
still-valid guard*.  The state at a program point is one ``uncond``
mask (needed whatever the guards) plus one mask per live guard
predicate (needed only when that guard is true):

* a use under guard ``p`` sets its bits in ``p``'s mask; the guard
  itself is read unconditionally;
* a definite definition clears its bits in every mask;
* a definition guarded by ``p`` clears its bits in ``p``'s mask only;
* redefining predicate ``p`` merges ``p``'s mask into ``uncond`` (needs
  conditioned on the new value are unconditional needs of whatever
  feeds the define);
* ``pred_set``/``pred_clear`` merges every guard mask into ``uncond``
  and then clears every predicate bit;
* an exit under guard ``g`` adds its target's live-in to ``g``'s mask.

A register is live when its bit is in any mask.  This precision is what
lets predicate promotion (paper Figure 2) see single-iteration
temporaries as loop-dead.

**Block summaries.**  Each bit and each guard key evolves independently
under that transfer, so a block's effect is a fixed bit-vector
function: ``live_in = gen | (through & live_out) | OR(pass_e &
live_in[target_e])`` over its exits ``e``.  :func:`liveness` computes
each block's summary in one forward walk and iterates the fixpoint over
summaries; :meth:`Liveness.update` recomputes only edited blocks'
summaries and re-solves, which is how dead code elimination keeps its
liveness exact without rescanning the function.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.analysis.cfg import predecessors_map, successors_map
from repro.ir.function import BasicBlock, Function
from repro.ir.instruction import Instruction
from repro.ir.opcodes import OpCategory
from repro.ir.operands import PReg, RegClass, VReg

#: ``Facts.kill``: how an instruction's definitions kill
KILL_NONE, KILL_DEFINITE, KILL_GUARDED = 0, 1, 2
#: ``Facts.gkey`` of an unguarded instruction
ALWAYS = -1


def reg_mask(regs) -> int:
    """Bit mask of an iterable of registers."""
    mask = 0
    for r in regs:
        mask |= 1 << r.bit
    return mask


def pred_mask(width: int) -> int:
    """Every predicate (odd) bit below ``width``."""
    return int("10" * ((width + 1) // 2) or "0", 2)


@dataclass(slots=True)
class Facts:
    """One instruction's transfer inputs, as masks.

    ``use`` holds every register read (the guard included), ``gbit``
    the guard's own bit, ``gkey`` its bit id (``ALWAYS`` when
    unguarded), ``pdefs`` the bit ids of defined predicates, and
    ``target`` the label whose live-in this instruction revives.
    """

    use: int
    defs: int
    kill: int
    gkey: int
    gbit: int
    pdefs: tuple[int, ...]
    predset: bool
    target: str | None


def inst_facts(inst: Instruction) -> Facts:
    """The :class:`Facts` of ``inst``; valid until it is edited."""
    use = 0
    for r in inst.used_regs():
        use |= 1 << r.bit
    defs = 0
    for r in inst.defined_regs():
        defs |= 1 << r.bit
    pred = inst.pred
    if not inst.is_conditional_write:
        kill = KILL_DEFINITE
    elif pred is not None:
        kill = KILL_GUARDED
    else:
        kill = KILL_NONE
    gkey = ALWAYS if pred is None else pred.bit
    target = inst.target if (inst.is_control and inst.target is not None
                            and inst.cat is not OpCategory.CALL) else None
    return Facts(use, defs, kill, gkey, 0 if pred is None else 1 << gkey,
                 tuple(pd.reg.bit for pd in inst.pdests),
                 inst.cat is OpCategory.PREDSET, target)


def _summarize(facts: list[Facts], preds: int, full: int):
    """(gen, through, exits) of one block, in one forward walk.

    Walking down, ``always`` is the set of bits for which an
    unconditional need placed at the current point survives to the
    block top, and ``guarded[p]`` the bits for which a need under guard
    ``p`` does not (``p``'s guarded kills above); a need under ``p``
    survives on ``always & ~guarded[p]``.
    """
    always = full
    guarded: dict[int, int] = {}
    gen = 0
    exits: list[tuple[str, int]] = []
    for f in facts:
        gkey = f.gkey
        if gkey == ALWAYS:
            gen |= f.use & always
            if f.target is not None:
                exits.append((f.target, always))
        else:
            survive = always & ~guarded.get(gkey, 0)
            gen |= (f.use & ~f.gbit & survive) | (f.gbit & always)
            if f.target is not None:
                exits.append((f.target, survive))
        if f.predset:
            always &= ~preds
            guarded.clear()
        if f.kill == KILL_DEFINITE:
            always &= ~f.defs
        elif f.kill == KILL_GUARDED:
            guarded[gkey] = guarded.get(gkey, 0) | f.defs
        for p in f.pdefs:
            guarded.pop(p, None)
    return gen, always, exits


def _scan(facts: list[Facts], live_out: int, live_in: dict[str, int],
          preds: int, record: list | None = None) -> int:
    """Backward transfer: the registers live before the block.

    ``record``, if given, receives the live set *before* each
    instruction (parallel to ``facts``).
    """
    uncond = live_out
    guarded: dict[int, int] = {}
    for i in range(len(facts) - 1, -1, -1):
        f = facts[i]
        for p in f.pdefs:
            uncond |= guarded.pop(p, 0)
        if f.predset:
            for mask in guarded.values():
                uncond |= mask
            guarded.clear()
            uncond &= ~preds
        if f.kill == KILL_DEFINITE:
            uncond &= ~f.defs
            for g in guarded:
                guarded[g] &= ~f.defs
        elif f.kill == KILL_GUARDED and f.gkey in guarded:
            guarded[f.gkey] &= ~f.defs
        extra = live_in.get(f.target, 0) if f.target is not None else 0
        if f.gkey == ALWAYS:
            uncond |= f.use | extra
        else:
            uncond |= f.gbit
            guarded[f.gkey] = guarded.get(f.gkey, 0) | f.use & ~f.gbit \
                | extra
        if record is not None:
            live = uncond
            for mask in guarded.values():
                live |= mask
            record[i] = live
    for mask in guarded.values():
        uncond |= mask
    return uncond


@dataclass
class Liveness:
    """Per-block live-in/live-out register masks of one function.

    Also keeps what :meth:`update` needs to re-solve after an edit: each
    block's instruction facts and summary, and the CFG maps (edits must
    not change the CFG).
    """

    live_in: dict[str, int] = field(default_factory=dict)
    live_out: dict[str, int] = field(default_factory=dict)
    #: every predicate bit of the function
    pred_bits: int = 0
    #: per-block instruction facts, parallel to ``block.instructions``
    facts: dict[str, list[Facts]] = field(default_factory=dict,
                                          repr=False)
    successors: dict[str, list[str]] = field(default_factory=dict,
                                             repr=False)
    predecessors: dict[str, list[str]] = field(default_factory=dict,
                                               repr=False)
    _summary: dict = field(default_factory=dict, repr=False)
    _order: list[str] = field(default_factory=list, repr=False)
    _full: int = field(default=0, repr=False)

    def update(self, blocks: list[BasicBlock]) -> list[str]:
        """Re-solve after ``blocks`` were edited in place; returns the
        labels whose live-in changed.

        The fixpoint restarts from empty sets over the cached summaries
        (only the edited blocks are rescanned).  Shrinking the previous
        solution in place instead could stop at a larger fixpoint: a
        register kept live only around a loop that no longer uses it.
        """
        for block in blocks:
            facts = [inst_facts(inst) for inst in block.instructions]
            self.facts[block.name] = facts
            self._summary[block.name] = _summarize(facts, self.pred_bits,
                                                   self._full)
        old = self.live_in
        self._solve()
        return [name for name in self._order
                if self.live_in[name] != old[name]]

    def _solve(self) -> None:
        succs, preds, summary = \
            self.successors, self.predecessors, self._summary
        live_in = dict.fromkeys(self._order, 0)
        live_out = dict.fromkeys(self._order, 0)
        worklist = deque(reversed(self._order))
        queued = set(worklist)
        while worklist:
            name = worklist.popleft()
            queued.discard(name)
            out = 0
            for s in succs[name]:
                out |= live_in[s]
            gen, through, exits = summary[name]
            new_in = gen | (through & out)
            for target, passes in exits:
                new_in |= passes & live_in.get(target, 0)
            live_out[name] = out
            if new_in != live_in[name]:
                live_in[name] = new_in
                for p in preds[name]:
                    if p not in queued:
                        queued.add(p)
                        worklist.append(p)
        self.live_in = live_in
        self.live_out = live_out


def liveness(fn: Function) -> Liveness:
    """Least-fixpoint liveness of ``fn``: one summary per block, then a
    worklist seeded in reverse layout order that revisits a block only
    when some successor's live-in grew."""
    facts = {b.name: [inst_facts(inst) for inst in b.instructions]
             for b in fn.blocks}
    top = 0
    for block_facts in facts.values():
        for f in block_facts:
            top |= f.use | f.defs
    width = max(top.bit_length(), 2 * max(fn.next_vreg, fn.next_preg))
    preds = pred_mask(width)
    full = (1 << width) - 1
    succs = successors_map(fn)
    live = Liveness(pred_bits=preds, facts=facts, successors=succs,
                    predecessors=predecessors_map(fn, succs),
                    _summary={name: _summarize(f, preds, full)
                              for name, f in facts.items()},
                    _order=[b.name for b in fn.blocks], _full=full)
    live._solve()
    return live


def block_use_def(block: BasicBlock) -> tuple[int, int]:
    """(upward-exposed uses, definitely-defined registers) of one block.

    Provided for diagnostics and tests; :func:`liveness` uses the
    position-aware summaries directly.
    """
    facts = [inst_facts(inst) for inst in block.instructions]
    width = 0
    defs = 0
    for f in facts:
        width |= f.use | f.defs
        if f.kill == KILL_DEFINITE:
            defs |= f.defs
    preds = pred_mask(width.bit_length())
    return _scan(facts, 0, {}, preds), defs


def live_before_each(block: BasicBlock, live_out: int,
                     live_in_map: dict[str, int] | None = None,
                     live: Liveness | None = None) -> list[int]:
    """Registers live immediately *before* each instruction of ``block``.

    ``live_in_map`` supplies live-in sets of branch targets so mid-block
    exits revive what their targets need; ``live`` (the function's
    :class:`Liveness`) supplies both that map and cached facts.
    Returned list is parallel to ``block.instructions``.
    """
    if live is not None:
        facts = live.facts[block.name]
        live_in_map, preds = live.live_in, live.pred_bits
    else:
        facts = [inst_facts(inst) for inst in block.instructions]
        top = live_out
        for f in facts:
            top |= f.use | f.defs
        for mask in (live_in_map or {}).values():
            top |= mask
        preds = pred_mask(top.bit_length())
    record = [0] * len(facts)
    _scan(facts, live_out, live_in_map or {}, preds, record)
    return record


def class_masks(fn: Function) -> tuple[int, int]:
    """(FLOAT, predicate) bit masks of every register ``fn`` mentions;
    the remaining bits of a live set are INT registers."""
    floats = preds = 0
    regs: list = list(fn.params)
    for block in fn.blocks:
        for inst in block.instructions:
            regs.extend(inst.used_regs())
            regs.extend(inst.defined_regs())
    for r in regs:
        if isinstance(r, PReg):
            preds |= 1 << r.bit
        elif isinstance(r, VReg) and r.rclass is RegClass.FLOAT:
            floats |= 1 << r.bit
    return floats, preds
