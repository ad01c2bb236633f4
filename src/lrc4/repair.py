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

What a repair needs of the profile is fixed, so the profile compiles it
once, when it is made, onto its own fields: each group's support as a
bit mask (``masks``) and its local rows packed as in ``_gf4vec``
(``local_rows``), the groups holding each coordinate (``groups_of``),
and every row of the matrix packed (``words``).  A repair packs the
received word the same way (``_gf4vec.pack_word``), 0 at the erasures,
with a mask of the erasures: a group's unknowns are a mask AND, and its
equations are its rows at the unknowns with the syndrome of the
surviving symbols (``_gf4vec.dots``), which ``echelon`` solves.  The
final check that the repaired word is a codeword takes the syndrome on
every row of the matrix, augmented stack rows included; no numpy call
and no copy of a full row is made per repair.

A trial's codeword is made by ``encode`` in one ``MUL_NP`` lookup, which
scales each generator row by its message symbol, and one XOR reduce over
the rows; the symbols are checked by the package's element rule first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._gf4vec import Vec, coordinates, dots, echelon, mask, pack_word
from .code import _in_range
from .constructions import BuiltCode
from .gf4 import MUL_NP, _elements, _integers


@dataclass(frozen=True)
class ErasurePattern:
    """1-based coordinates marked as erased, taken as ints once, when the
    pattern is made (``ValueError`` on 1.5 or a bool); ``apply`` and
    :func:`erasure_tolerance_ok` check only their range."""

    erased: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "erased", frozenset(_integers(self.erased, "coordinates")))

    @classmethod
    def of(cls, coords) -> "ErasurePattern":
        return cls(coords)

    def apply(self, codeword: Sequence[int]) -> list[int | None]:
        erased = _in_range(self.erased, len(codeword))
        word = _elements(codeword, "codeword entries")
        for c in erased:
            word[c - 1] = None
        return word


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
    msg = list(message)
    if len(msg) != code.k:
        raise ValueError(f"message length {len(msg)} != k = {code.k}")
    # checked before the cast, which would wrap -1 and 256
    msg = np.array(_elements(msg, "matrix entries"), dtype=np.uint8)
    return np.bitwise_xor.reduce(MUL_NP[msg[:, None], code.gen.array], axis=0).tolist()


def random_message(bc: BuiltCode, rng: random.Random) -> list[int]:
    return [rng.randrange(4) for _ in range(bc.code.k)]


def _solve_group(rows: Sequence[Vec], word: Vec, unknown: int) -> dict[int, int] | str:
    """Solve a group's parity equations for its erased coordinates.

    ``rows`` are the group's local rows and ``word`` the received word,
    both packed, the word 0 at the erased coordinates that ``unknown``
    marks.  Returns coordinate -> value, or why the system has no unique
    solution: "inconsistent" when the surviving group symbols belong to
    no codeword, "underdetermined" when several values fit (cannot
    happen for an intact MDS group within tolerance).
    """
    # one packed equation per row: the row at the unknowns, and the
    # syndrome of the surviving symbols (its w- and 1-part) at a bit
    # above them all
    top = unknown.bit_length()
    eqs = []
    for (ah, al), s in zip(rows, dots(rows, word)):
        eqs.append((ah & unknown | (s >> 1) << top, al & unknown | (s & 1) << top))
    pivots = echelon(eqs)
    if top in pivots:
        return "inconsistent"
    if len(pivots) != unknown.bit_count():
        return "underdetermined"
    return {p + 1: (hi >> top & 1) << 1 | lo >> top & 1 for p, (hi, lo) in zip(pivots, eqs)}


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
    word = _elements(received, "received symbols", erasures=True)
    profile = bc.profile
    budget = bc.delta - 1
    hi, lo, erased = pack_word(word)
    trace: list[RepairStep] = []

    unsolved: dict[int, dict[str, list[int]]] = {}  # coordinate -> why -> groups
    progress = True
    while progress and erased:
        progress = False
        for i in coordinates(erased):
            if not erased >> (i - 1) & 1:
                continue  # peeled earlier in this pass
            for gi in profile.groups_of[i - 1]:
                unknown = erased & profile.masks[gi]
                if unknown.bit_count() > budget:
                    continue
                solved = _solve_group(profile.local_rows[gi], (hi, lo), unknown)
                if isinstance(solved, str):
                    unsolved.setdefault(i, {}).setdefault(solved, []).append(gi + 1)
                    continue
                for coord, val in solved.items():
                    word[coord - 1] = val
                    hi |= (val >> 1) << (coord - 1)
                    lo |= (val & 1) << (coord - 1)
                erased ^= unknown
                reads = tuple(coordinates(profile.masks[gi] ^ unknown))
                trace.append(RepairStep(group=gi + 1, solved=tuple(solved), reads=reads))
                progress = True
                break

    failures = []
    for i in coordinates(erased):
        if i in unsolved:
            failures.append((i, "; ".join(
                f"local solve {why} in groups {gs}" for why, gs in unsolved[i].items()
            )))
        else:
            eligible = [gi + 1 for gi in profile.groups_of[i - 1]]
            failures.append((i, f"groups {eligible} all exceed {budget} erasures"))
    if failures:
        return RepairOutcome(ok=False, codeword=None, trace=trace, failures=failures)

    if any(dots(profile.words, (hi, lo))):
        raise ValueError("received word is not a codeword: the repaired word fails a parity check")
    return RepairOutcome(ok=True, codeword=word, trace=trace)


def erasure_tolerance_ok(bc: BuiltCode, pattern: ErasurePattern) -> bool:
    """Does every group see at most delta - 1 erasures?"""
    erased = mask(_in_range(pattern.erased, bc.code.n))
    return all((erased & m).bit_count() < bc.delta for m in bc.profile.masks)


def random_tolerable_pattern(bc: BuiltCode, rng: random.Random) -> ErasurePattern:
    """A random erasure pattern with at most delta - 1 erasures per group."""
    budget = bc.delta - 1
    groups_of = bc.profile.groups_of
    counts = [0] * bc.profile.l
    erased: set[int] = set()
    coords = list(range(1, bc.code.n + 1))
    rng.shuffle(coords)
    draw = rng.random
    # one draw per coordinate whose groups all have room, and no other:
    # seeded patterns depend on the stream
    for c in coords:
        held = groups_of[c - 1]
        for gi in held:
            if counts[gi] >= budget:
                break
        else:
            if draw() < 0.6:
                erased.add(c)
                for gi in held:
                    counts[gi] += 1
    return ErasurePattern(frozenset(erased))
