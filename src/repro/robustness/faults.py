"""Fault-injection harness: prove the checkers catch what they claim.

A verifier that never fires is indistinguishable from one that works.
This module deliberately corrupts each layer the robustness subsystem
guards — IR operands (structural), predicate values (semantic) and
trace entries (dynamic) — and records which checker caught each
corruption.  A corruption class is only credited when the *intended*
checker raises:

=====================  ==============================  ====================
corruption class       example injection               intended checker
=====================  ==============================  ====================
``ir-operand``         branch to a missing label,      ``VerificationError``
                       garbage source operand,         (structural verifier)
                       malformed pdests, ISA-subset
                       violations
``predicate-value``    swapped comparison operands     ``ModelDivergenceError``
                       of a predicate define           (differential oracle)
``trace-entry``        dropped event, nullified        ``TraceIntegrityError``
                       unguarded op, retargeted        (trace integrity)
                       branch
=====================  ==============================  ====================

Run it via ``python -m repro selftest`` or the pytest suite.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.analysis.profile import Profile
from repro.emu.interpreter import run_program
from repro.emu.trace import ExecutionResult
from repro.ir.function import Program
from repro.ir.instruction import Instruction, PredDest, PType
from repro.ir.opcodes import OpCategory, Opcode
from repro.ir.operands import Imm, PReg
from repro.ir.verifier import verify_program
from repro.machine.descriptor import scalar_machine
from repro.robustness.differential import assert_equivalent
from repro.robustness.integrity import check_trace_integrity
from repro.toolchain import (Model, compile_for_model, frontend,
                             schedule_for_machine)

#: Small hammock-heavy kernel in the mould of the paper's ``wc`` case
#: study: hot enough (128 iterations) for hyperblock formation, with
#: asymmetric `<`/`>` conditions so swapping a predicate define's
#: comparison operands changes behavior, and an unconditional store per
#: iteration whose value depends on the predicated accumulators — so
#: predicate corruption diverges stored *values* without perturbing
#: store *addresses* (no spurious memory faults).
CAMPAIGN_SOURCE = """
int src[128];
int out[128];
int n;

int main() {
  int i;
  int c;
  int low;
  int high;
  low = 0;
  high = 0;
  for (i = 0; i < n; i = i + 1) {
    c = src[i];
    if (c < 5) low = low + c;
    if (c > 2) high = high + 1;
    out[i] = low * 10 + high;
  }
  return low * 100 + high;
}
"""

CAMPAIGN_INPUTS = {"src": [(i * 7 + 3) % 13 for i in range(128)],
                   "n": [128]}


@dataclass
class FaultReport:
    """Outcome of one injected corruption."""

    fault: str         # specific injection id
    corruption: str    # class: ir-operand | predicate-value | trace-entry
    description: str   # what was corrupted
    expected: str      # intended checker's exception type name
    caught_by: str | None  # exception type actually raised, or None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.caught_by == self.expected


# ----- IR corruptions -------------------------------------------------------

def inject_bad_branch_target(program: Program) -> str:
    for fn in program.functions.values():
        for inst in fn.all_instructions():
            if inst.cat in (OpCategory.BRANCH, OpCategory.JUMP):
                inst.target = "__corrupted_label__"
                return f"retargeted {inst!r} in {fn.name} to a missing label"
    raise RuntimeError("campaign program has no branches to corrupt")


def inject_bad_operand(program: Program) -> str:
    for fn in program.functions.values():
        for inst in fn.all_instructions():
            if inst.cat is OpCategory.ALU and inst.srcs:
                inst.srcs = ("garbage",) + inst.srcs[1:]
                return f"replaced a source of {inst!r} in {fn.name} " \
                       f"with a non-operand"
    raise RuntimeError("campaign program has no ALU instructions")


def inject_malformed_pdests(program: Program) -> str:
    for fn in program.functions.values():
        for inst in fn.all_instructions():
            if inst.cat is OpCategory.PREDDEF and inst.pdests:
                inst.pdests = inst.pdests * 3
                return f"gave predicate define {inst!r} in {fn.name} " \
                       f"{len(inst.pdests)} pdests"
    # Baseline/cmov programs have no defines: misplace pdests instead.
    for fn in program.functions.values():
        for inst in fn.all_instructions():
            if inst.cat is OpCategory.ALU:
                inst.pdests = (PredDest(PReg(0), PType.U),)
                return f"attached pdests to non-define {inst!r} in {fn.name}"
    raise RuntimeError("no instruction available for pdest corruption")


def inject_guard_violation(program: Program) -> str:
    """Guard an instruction in a program whose ISA level forbids guards."""
    for fn in program.functions.values():
        for inst in fn.all_instructions():
            if inst.cat is OpCategory.ALU and inst.pred is None:
                inst.pred = PReg(0)
                return f"guarded {inst!r} in {fn.name}"
    raise RuntimeError("campaign program has no ALU instructions")


def inject_cmov_in_baseline(program: Program) -> str:
    fn = program.main
    dest = fn.new_vreg()
    cmov = Instruction(op=Opcode.CMOV, dest=dest, srcs=(Imm(1), Imm(0)))
    fn.entry.instructions.insert(0, cmov)
    return f"inserted {cmov!r} into baseline {fn.name}"


# ----- predicate-value corruption -------------------------------------------

def inject_predicate_corruption(program: Program) -> str:
    """Make runtime predicate values wrong without breaking structure.

    Swapping the comparison operands of an asymmetric predicate define
    flips which arm of the diamond executes — structurally valid IR, so
    only behavioral checking (the differential oracle) can notice.
    """
    for fn in program.functions.values():
        for inst in fn.all_instructions():
            if inst.cat is OpCategory.PREDDEF \
                    and inst.condition in ("lt", "le", "gt", "ge"):
                inst.srcs = (inst.srcs[1], inst.srcs[0])
                return f"swapped comparison operands of {inst!r} " \
                       f"in {fn.name}"
    for fn in program.functions.values():
        for inst in fn.all_instructions():
            if inst.pred is not None \
                    and inst.cat is not OpCategory.PREDDEF:
                inst.pred = None
                return f"dropped the guard of {inst!r} in {fn.name}"
    raise RuntimeError("campaign program has no predicate machinery")


# ----- trace corruptions ----------------------------------------------------

def inject_trace_drop(execution: ExecutionResult, _program: Program) -> str:
    trace = execution.trace
    assert trace is not None
    idx = len(trace) // 2
    dropped = trace.pop(idx)
    return f"dropped trace event {idx} ({dropped.inst!r})"


def inject_trace_nullify_unguarded(execution: ExecutionResult,
                                   _program: Program) -> str:
    trace = execution.trace
    assert trace is not None
    for idx, ev in enumerate(trace):
        if ev.executed and ev.inst.pred is None \
                and ev.inst.cat is OpCategory.ALU:
            trace[idx] = ev._replace(executed=False, taken=False,
                                     addr=-1, value=None)
            # Keep the books consistent so the *guard* check fires, not
            # the cheaper suppressed-count accounting check.
            execution.suppressed_count += 1
            return f"nullified unguarded event {idx} ({ev.inst!r})"
    raise RuntimeError("trace has no unguarded ALU events")


def inject_trace_retarget(execution: ExecutionResult,
                          program: Program) -> str:
    trace = execution.trace
    assert trace is not None
    owner: dict[int, list[str]] = {}
    for fn in program.functions.values():
        labels = [b.name for b in fn.blocks]
        for inst in fn.all_instructions():
            owner[inst.uid] = labels
    for idx, ev in enumerate(trace):
        if ev.executed and ev.taken \
                and ev.inst.cat in (OpCategory.BRANCH, OpCategory.JUMP):
            labels = owner.get(ev.inst.uid, [])
            alt = next((lb for lb in labels if lb != ev.inst.target), None)
            if alt is None:
                continue
            forged = ev.inst.copy(target=alt)
            trace[idx] = ev._replace(inst=forged)
            return f"retargeted taken control event {idx} " \
                   f"({ev.inst.target!r} -> {alt!r})"
    raise RuntimeError("trace has no retargetable control transfers")


# ----- the campaign ---------------------------------------------------------

def run_fault_campaign() -> list[FaultReport]:
    """Inject every corruption class; return one report per injection.

    Raises ``RuntimeError`` if the *uncorrupted* pipeline fails its own
    checks — the campaign is meaningless on a broken baseline.
    """
    machine = scalar_machine()
    base = frontend(CAMPAIGN_SOURCE)
    profile = Profile.collect(base, inputs=CAMPAIGN_INPUTS)
    compiled = {model: schedule_for_machine(
                    compile_for_model(base, model, profile), machine)
                for model in Model}
    reference = run_program(compiled[Model.SUPERBLOCK].program,
                            inputs=CAMPAIGN_INPUTS, collect_trace=True)
    execution = run_program(compiled[Model.FULLPRED].program,
                            inputs=CAMPAIGN_INPUTS, collect_trace=True)

    # Sanity: the clean pipeline must pass every checker.
    for model, comp in compiled.items():
        verify_program(comp.program, model.isa_level)
    check_trace_integrity(execution, compiled[Model.FULLPRED].program)
    check_trace_integrity(reference, compiled[Model.SUPERBLOCK].program)
    assert_equivalent(execution, reference, workload="campaign",
                      model=Model.FULLPRED.value,
                      reference_model=Model.SUPERBLOCK.value)

    reports: list[FaultReport] = []

    ir_faults = [
        ("ir-bad-branch-target", inject_bad_branch_target, Model.FULLPRED),
        ("ir-bad-operand", inject_bad_operand, Model.FULLPRED),
        ("ir-malformed-pdests", inject_malformed_pdests, Model.FULLPRED),
        ("ir-guard-in-cmov-code", inject_guard_violation, Model.CMOV),
        ("ir-cmov-in-baseline", inject_cmov_in_baseline, Model.SUPERBLOCK),
    ]
    for fault, injector, model in ir_faults:
        program = copy.deepcopy(compiled[model].program)
        description = injector(program)
        _observe(reports, fault, "ir-operand", description,
                 "VerificationError",
                 lambda p=program, m=model: verify_program(p, m.isa_level))

    trace_faults = [
        ("trace-dropped-event", inject_trace_drop),
        ("trace-nullified-unguarded", inject_trace_nullify_unguarded),
        ("trace-retargeted-branch", inject_trace_retarget),
    ]
    for fault, injector in trace_faults:
        forged = copy.deepcopy(execution)
        description = injector(forged, compiled[Model.FULLPRED].program)
        _observe(reports, fault, "trace-entry", description,
                 "TraceIntegrityError",
                 lambda f=forged: check_trace_integrity(
                     f, compiled[Model.FULLPRED].program))

    corrupted = copy.deepcopy(compiled[Model.FULLPRED].program)
    description = inject_predicate_corruption(corrupted)
    diverged = run_program(corrupted, inputs=CAMPAIGN_INPUTS)
    _observe(reports, "predicate-swapped-compare", "predicate-value",
             description, "ModelDivergenceError",
             lambda: assert_equivalent(
                 diverged, reference, workload="campaign",
                 model="Full Predication (corrupted)",
                 reference_model=Model.SUPERBLOCK.value))
    return reports


def _observe(reports: list[FaultReport], fault: str, corruption: str,
             description: str, expected: str, thunk) -> None:
    try:
        thunk()
    except Exception as exc:  # noqa: BLE001 — we classify, not handle
        reports.append(FaultReport(fault, corruption, description,
                                   expected, type(exc).__name__, str(exc)))
    else:
        reports.append(FaultReport(fault, corruption, description,
                                   expected, None,
                                   "corruption went undetected"))


def format_fault_reports(reports: list[FaultReport]) -> str:
    lines = [f"{'fault':<28s}{'class':<17s}{'caught by':<24s}{'ok':<4s}",
             "-" * 73]
    for r in reports:
        lines.append(f"{r.fault:<28s}{r.corruption:<17s}"
                     f"{r.caught_by or 'UNDETECTED':<24s}"
                     f"{'yes' if r.ok else 'NO':<4s}")
    caught = sum(1 for r in reports if r.ok)
    lines.append(f"{caught}/{len(reports)} corruption classes caught by "
                 f"their intended checker")
    return "\n".join(lines)
