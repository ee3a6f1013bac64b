"""Workload infrastructure: benchmark definitions and deterministic
input generation.

Each workload re-implements the *kernel* of one of the paper's
benchmarks (SPEC-92 subset + Unix utilities) in MiniC, on synthetic
inputs from a seeded generator, scaled so a run produces tens of
thousands to a few hundred thousand dynamic instructions (see DESIGN.md
for the scaling substitution).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

_MASK64 = (1 << 64) - 1


class DeterministicRandom:
    """64-bit LCG so inputs are identical across Python versions."""

    _MUL = 6364136223846793005
    _INC = 1442695040888963407

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK64

    def next_u32(self) -> int:
        self.state = (self.state * self._MUL + self._INC) & _MASK64
        return (self.state >> 32) & 0xFFFFFFFF

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        span = high - low + 1
        return low + self.next_u32() % span

    def choice(self, seq):
        return seq[self.next_u32() % len(seq)]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u32() % (i + 1)
            items[i], items[j] = items[j], items[i]

    def text(self, length: int, words: list[str],
             newline_every: int = 8) -> bytes:
        """Space/newline separated pseudo-text of roughly ``length``."""
        parts: list[str] = []
        count = 0
        size = 0
        while size < length:
            word = self.choice(words)
            parts.append(word)
            size += len(word) + 1
            count += 1
            parts.append("\n" if count % newline_every == 0 else " ")
        return "".join(parts).encode()[:length]


@dataclass(frozen=True)
class Workload:
    """One benchmark: MiniC source plus input builders.

    ``scale`` multiplies input sizes; the experiment harness uses small
    scales for quick runs and larger ones for the headline figures.
    ``expected`` optionally maps a scale to the known-correct return
    value (cross-model result checking happens regardless).
    """

    name: str
    description: str
    source: str
    build_inputs: Callable[[float], dict[str, list[int | float]]]
    #: paper benchmark this kernel stands in for
    stands_for: str = ""
    category: str = "integer"

    def inputs(self, scale: float = 1.0) -> dict[str, list[int | float]]:
        return self.build_inputs(scale)


_REGISTRY: dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in _REGISTRY:
        raise ValueError(f"duplicate workload {workload.name!r}")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    _ensure_loaded()
    return _REGISTRY[name]


def all_workloads() -> list[Workload]:
    _ensure_loaded()
    return list(_REGISTRY.values())


def workload_names() -> list[str]:
    _ensure_loaded()
    return list(_REGISTRY)


#: name prefix of :func:`source_workload` workloads (never registered)
SOURCE_PREFIX = "svc-"


def source_workload(source: str) -> Workload:
    """An unregistered workload running MiniC ``source`` on no inputs,
    named by digest so any process rebuilds it from the text alone."""
    return Workload(name=SOURCE_PREFIX + hashlib.sha256(
                        source.encode()).hexdigest()[:12],
                    description="service source submission",
                    source=source, build_inputs=lambda _scale: {})


def _ensure_loaded() -> None:
    # Import benchmark modules for their registration side effects.
    from repro.workloads import (alvinn, cccp, cmp, compress, ear, eqn,
                                 eqntott, espresso, grep, li, lex, qsort,
                                 sc, wc, yacc)
    del (alvinn, cccp, cmp, compress, ear, eqn, eqntott, espresso, grep,
         li, lex, qsort, sc, wc, yacc)
