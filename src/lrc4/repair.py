"""Erasure-repair simulation: the operational meaning of (r, delta)-locality.

A local group tolerates up to delta - 1 erasures: its delta - 1 parity
rows restricted to the group support form an MDS parity check, so any
delta - 1 unknowns solve uniquely from the surviving group symbols.  The
simulator peels: groups are tried in index order, repaired symbols feed
later groups (supports may overlap by one coordinate in some families),
and it stops at a fixpoint.  Global decoding is deliberately absent;
a pattern that exceeds some group's tolerance is reported as a clean
local failure, because the simulator exists to certify locality, not to
be a decoder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import gf4
from ._gf4vec import echelon
from .code import _check_coordinate_set
from .constructions import BuiltCode
from .mat4 import Mat4


#: a received word holds field elements, or None for an erasure
_RECEIVED_SYMBOLS = frozenset((None, *gf4.ELEMENTS))


@dataclass(frozen=True)
class ErasurePattern:
    """1-based coordinates marked as erased."""

    erased: frozenset[int]

    @classmethod
    def of(cls, coords) -> "ErasurePattern":
        return cls(frozenset(int(i) for i in coords))

    def apply(self, codeword: Sequence[int]) -> list[int | None]:
        _check_coordinate_set(self.erased, len(codeword))
        return [None if (i + 1) in self.erased else int(x) for i, x in enumerate(codeword)]


@dataclass(frozen=True)
class RepairStep:
    """One group solve: which coordinates were recovered from which reads."""

    group: int  # 1-based group index
    solved: tuple[int, ...]  # 1-based coordinates recovered
    reads: tuple[int, ...]  # 1-based coordinates read (inside the group support)


@dataclass
class RepairOutcome:
    ok: bool
    codeword: list[int] | None
    trace: list[RepairStep] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)


def encode(bc: BuiltCode, message: Sequence[int]) -> list[int]:
    """message * generator; the result satisfies H c^T = 0."""
    code = bc.code
    msg = [int(x) for x in message]
    if len(msg) != code.k:
        raise ValueError(f"message length {len(msg)} != k = {code.k}")
    return list((Mat4([msg]) @ code.generator()).row(0))


def random_message(bc: BuiltCode, rng: random.Random) -> list[int]:
    return [rng.randrange(4) for _ in range(bc.code.k)]


def _solve_group(
    h: Mat4, rows: tuple[int, ...], support: frozenset[int], word: list, unknowns: list[int]
) -> dict[int, int] | str:
    """Solve the group's parity equations for the erased coordinates.

    Returns coordinate -> value, or why the system has no unique
    solution: "inconsistent" when the surviving group symbols belong to
    no codeword, "underdetermined" when several values fit (cannot
    happen for an intact MDS group within tolerance).
    """
    e = len(unknowns)
    known = sorted(support - set(unknowns))
    # one packed equation per row: unknown j's coefficient at bit j, the
    # syndrome of the known symbols at bit e
    eqs = []
    for row_idx in rows:
        row = h.array[row_idx - 1].tolist()
        acc = 0
        for coord in known:
            acc ^= gf4.MUL[row[coord - 1]][word[coord - 1]]
        hi, lo = (acc >> 1) << e, (acc & 1) << e
        for j, coord in enumerate(unknowns):
            x = row[coord - 1]
            hi |= (x >> 1) << j
            lo |= (x & 1) << j
        eqs.append((hi, lo))
    pivots = echelon(eqs)
    if e in pivots:
        return "inconsistent"
    if len(pivots) != e:
        return "underdetermined"
    return {unknowns[p]: (hi >> e & 1) << 1 | lo >> e & 1 for p, (hi, lo) in zip(pivots, eqs)}


def local_repair(bc: BuiltCode, received: Sequence[int | None]) -> RepairOutcome:
    """Repair erasures using only single-group reads, peeling to a fixpoint.

    For each erased coordinate the lowest-index group containing it with
    at most delta - 1 erasures is solved; all of that group's erasures
    resolve at once, reading only surviving coordinates inside its
    support.  Unresolvable coordinates are reported per coordinate.  A
    repaired word that fails a parity check raises ValueError: the
    surviving symbols were not those of a codeword.
    """
    n = bc.code.n
    if len(received) != n:
        raise ValueError(f"received word has length {len(received)}, want {n}")
    word: list = [None if x is None else int(x) for x in received]
    if not _RECEIVED_SYMBOLS.issuperset(word):
        bad = sorted(set(word) - _RECEIVED_SYMBOLS)
        raise ValueError(f"received symbols {bad} are not GF(4) elements 0..3")
    h = bc.profile.matrix
    delta = bc.delta
    groups = bc.profile.groups
    trace: list[RepairStep] = []

    unsolved: dict[int, dict[str, list[int]]] = {}  # coordinate -> why -> groups
    progress = True
    while progress:
        progress = False
        erased = [i for i in range(1, n + 1) if word[i - 1] is None]
        if not erased:
            break
        for i in erased:
            if word[i - 1] is not None:
                continue  # peeled earlier in this pass
            for gi, grp in enumerate(groups):
                if i not in grp.support:
                    continue
                unknowns = sorted(c for c in grp.support if word[c - 1] is None)
                if len(unknowns) > delta - 1:
                    continue
                solved = _solve_group(h, grp.rows, grp.support, word, unknowns)
                if isinstance(solved, str):
                    unsolved.setdefault(i, {}).setdefault(solved, []).append(gi + 1)
                    continue
                for coord, val in solved.items():
                    word[coord - 1] = val
                reads = tuple(sorted(grp.support - set(unknowns)))
                trace.append(RepairStep(group=gi + 1, solved=tuple(unknowns), reads=reads))
                progress = True
                break

    failures = []
    for i in range(1, n + 1):
        if word[i - 1] is None:
            if i in unsolved:
                failures.append((i, "; ".join(
                    f"local solve {why} in groups {gs}" for why, gs in unsolved[i].items()
                )))
            else:
                eligible = [gi + 1 for gi, g in enumerate(groups) if i in g.support]
                failures.append(
                    (i, f"groups {eligible} all exceed {delta - 1} erasures")
                )
    if failures:
        return RepairOutcome(ok=False, codeword=None, trace=trace, failures=failures)

    final = np.array(word, dtype=np.uint8)
    synd = np.bitwise_xor.reduce(gf4.MUL_NP[h.array, final[None, :]], axis=1)
    if synd.any():
        raise ValueError("received word is not a codeword: the repaired word fails a parity check")
    return RepairOutcome(ok=True, codeword=[int(x) for x in word], trace=trace)


def erasure_tolerance_ok(bc: BuiltCode, pattern: ErasurePattern) -> bool:
    """Does every group see at most delta - 1 erasures?"""
    return all(
        len(pattern.erased & g.support) <= bc.delta - 1 for g in bc.profile.groups
    )


def random_tolerable_pattern(bc: BuiltCode, rng: random.Random) -> ErasurePattern:
    """A random erasure pattern with at most delta - 1 erasures per group."""
    budget = bc.delta - 1
    erased: set[int] = set()
    coords = list(range(1, bc.code.n + 1))
    rng.shuffle(coords)
    for c in coords:
        trial = erased | {c}
        if all(len(trial & g.support) <= budget for g in bc.profile.groups):
            if rng.random() < 0.6:
                erased.add(c)
    return ErasurePattern(frozenset(erased))
