"""Machine descriptions for the paper's processor models.

A :class:`MachineDescription` bundles every parameter of the simulated
processor: issue width, branch issue limit, the latency table, branch
prediction, and the memory hierarchy (perfect or real caches).  The
paper's configurations (Figures 8-11) are provided as constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.ir.opcodes import Opcode, OpCategory
# Imported for its side effect: every opcode's PA-7100 ``op.latency``.
import repro.machine.latencies  # noqa: F401

#: op-class names a latency override may target: a coarse category
#: ("load", "falu") or an individual opcode mnemonic ("mul", "div_f").
_CATEGORY_NAMES = {c.value: c for c in OpCategory}
_OPCODE_NAMES = {o.value: o for o in Opcode}


def normalize_latency_overrides(overrides) -> tuple[tuple[str, int], ...]:
    """Validate and canonicalize a latency-override table.

    Accepts a mapping or an iterable of ``(name, cycles)`` pairs and
    returns a sorted tuple — the hashable canonical form embedded in
    :class:`MachineDescription`.  Unknown op-class names and
    non-positive cycle counts raise a typed ``SpecError`` *here*, before
    any digest is computed, so a typo can never be silently hashed into
    a never-matching cache key.
    """
    from repro.robustness.errors import SpecError
    items = overrides.items() if hasattr(overrides, "items") else overrides
    table: dict[str, int] = {}
    for pair in items:
        try:
            name, cycles = pair
        except (TypeError, ValueError):
            raise SpecError(
                f"latency override {pair!r} is not a (name, cycles) pair",
                field="latency_overrides") from None
        if name not in _CATEGORY_NAMES and name not in _OPCODE_NAMES:
            known = ", ".join(sorted(_CATEGORY_NAMES))
            raise SpecError(
                f"unknown op class {name!r} in latency overrides "
                f"(categories: {known}; or any opcode mnemonic)",
                field="latency_overrides")
        if not isinstance(cycles, int) or isinstance(cycles, bool) \
                or not 1 <= cycles <= 1024:
            raise SpecError(
                f"latency override {name!r} must be an integer cycle "
                f"count in [1, 1024], got {cycles!r}",
                field="latency_overrides")
        if name in table and table[name] != cycles:
            raise SpecError(
                f"conflicting latency overrides for {name!r}: "
                f"{table[name]} vs {cycles}", field="latency_overrides")
        table[name] = cycles
    return tuple(sorted(table.items()))


@lru_cache(maxsize=64)
def _split_overrides(overrides: tuple[tuple[str, int], ...]
                     ) -> tuple[dict[Opcode, int], dict[OpCategory, int]]:
    """Partition canonical overrides into opcode- and category-keyed maps.

    Names that are both a category and an opcode mnemonic ("load",
    "cmov", ...) take the *category* meaning — a latency table entry
    named "load" reads as "all loads", matching the paper's tables.
    """
    by_op: dict[Opcode, int] = {}
    by_cat: dict[OpCategory, int] = {}
    for name, cycles in overrides:
        if name in _CATEGORY_NAMES:
            by_cat[_CATEGORY_NAMES[name]] = cycles
        else:
            by_op[_OPCODE_NAMES[name]] = cycles
    return by_op, by_cat


@dataclass(frozen=True)
class CacheConfig:
    """Direct-mapped cache parameters (paper Section 4.1)."""

    size_bytes: int = 64 * 1024
    line_bytes: int = 64
    miss_penalty: int = 12

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class BTBConfig:
    """Branch target buffer: 1K entries, 2-bit counters, 2-cycle penalty."""

    entries: int = 1024
    mispredict_penalty: int = 2


@dataclass(frozen=True)
class MachineDescription:
    """Complete description of a simulated target processor."""

    name: str = "baseline"
    issue_width: int = 8
    branch_issue_limit: int = 1
    #: predicate define -> guarded use minimum distance, in cycles
    #: (suppression happens at decode/issue, so the predicate must be set
    #: at least the previous cycle — paper Section 2.1).
    predicate_use_delay: int = 1
    perfect_caches: bool = True
    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    btb: BTBConfig = field(default_factory=BTBConfig)
    #: bytes per encoded instruction, for I-cache indexing
    instruction_bytes: int = 4
    #: latency-table overrides as canonical ``((name, cycles), ...)``
    #: pairs over PA-7100 defaults; names are op categories or opcode
    #: mnemonics, validated by :func:`normalize_latency_overrides`.
    latency_overrides: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.latency_overrides:
            object.__setattr__(
                self, "latency_overrides",
                normalize_latency_overrides(self.latency_overrides))

    def latency(self, op: Opcode) -> int:
        if self.latency_overrides:
            by_op, by_cat = _split_overrides(self.latency_overrides)
            if op in by_op:
                return by_op[op]
            if op.cat in by_cat:
                return by_cat[op.cat]
        return op.latency

    def with_issue(self, width: int, branches: int) -> "MachineDescription":
        return replace(self, issue_width=width, branch_issue_limit=branches,
                       name=f"{width}-issue,{branches}-branch")

    def with_latencies(self, overrides) -> "MachineDescription":
        """Return a copy with ``overrides`` layered on the PA-7100 table."""
        return replace(self, latency_overrides=normalize_latency_overrides(
            overrides))

    def with_real_caches(self, icache: CacheConfig | None = None,
                         dcache: CacheConfig | None = None
                         ) -> "MachineDescription":
        return replace(self, perfect_caches=False,
                       icache=icache or self.icache,
                       dcache=dcache or self.dcache)

    # ----- cache-key digests --------------------------------------------

    def digest(self) -> str:
        """Stable digest of every simulation-relevant parameter.

        ``name`` is a display label and deliberately excluded: two
        differently-named but identical machines must share artifacts.
        """
        from repro.engine.keys import stable_digest
        overrides = normalize_latency_overrides(self.latency_overrides)
        return stable_digest(
            self.issue_width, self.branch_issue_limit,
            self.predicate_use_delay, self.perfect_caches, self.icache,
            self.dcache, self.btb, self.instruction_bytes,
            *((["latencies", overrides],) if overrides else ()))

    def schedule_digest(self) -> str:
        """Digest of the parameters that affect *compilation* only.

        The list scheduler sees issue width, branch issue limit, the
        predicate-use delay, instruction encoding size and the latency
        table (DAG edge weights); the memory hierarchy does not reorder
        code, so machines differing only in caches/BTB share compiled
        programs and traces (the paper's amortization of one emulation
        across machine configurations).
        """
        from repro.engine.keys import stable_digest
        overrides = normalize_latency_overrides(self.latency_overrides)
        return stable_digest(
            self.issue_width, self.branch_issue_limit,
            self.predicate_use_delay, self.instruction_bytes,
            *((["latencies", overrides],) if overrides else ()))


def scalar_machine() -> MachineDescription:
    """The 1-issue baseline processor used as the speedup denominator."""
    return MachineDescription(name="1-issue", issue_width=1,
                              branch_issue_limit=1)


def fig8_machine() -> MachineDescription:
    """8-issue, 1-branch, perfect caches (Figure 8)."""
    return MachineDescription(name="8-issue,1-branch", issue_width=8,
                              branch_issue_limit=1)


def fig9_machine() -> MachineDescription:
    """8-issue, 2-branch, perfect caches (Figure 9)."""
    return MachineDescription(name="8-issue,2-branch", issue_width=8,
                              branch_issue_limit=2)


def fig10_machine() -> MachineDescription:
    """4-issue, 1-branch, perfect caches (Figure 10)."""
    return MachineDescription(name="4-issue,1-branch", issue_width=4,
                              branch_issue_limit=1)


def fig11_machine(icache_bytes: int = 64 * 1024,
                  dcache_bytes: int = 64 * 1024) -> MachineDescription:
    """8-issue, 1-branch with real caches (Figure 11).

    Cache sizes are parameters because the repository's workloads are
    scaled-down kernels: with the paper's 64K caches they fit entirely,
    so the experiment harness uses proportionally scaled caches (see
    EXPERIMENTS.md) while the paper's exact geometry remains the default.
    """
    m = MachineDescription(name="8-issue,1-branch,real-caches",
                           issue_width=8, branch_issue_limit=1)
    return m.with_real_caches(CacheConfig(size_bytes=icache_bytes),
                              CacheConfig(size_bytes=dcache_bytes))
