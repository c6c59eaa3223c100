"""Staircase skew diagrams and their semistandard tableaux.

A strict partition lam = (lam_1 > ... > lam_r > 0) with r <= n indexes a
skew diagram Y_lam whose d-th anti-diagonal (row + col = lam_1 + d)
carries lam_d boxes, in rows d .. d + lam_d - 1.  For lam = (7,6,4,2)
this is the staircase with row lengths 1,2,3,4,4,3,2 and 19 boxes.

Semistandard fillings (rows weakly increasing, columns strictly
increasing, entries 1..n) are mapped into words by an admissible reading,
and the word operators pull back to tableau operators.  Two readings are
provided; they induce the same tableau operators, which the test suite
checks exhaustively.

The full set of semistandard fillings is stable under the operators but
is in general a disjoint union of several connected crystals (already for
lam = (3): three free boxes read onto the whole of B^(x)3, which splits).
``crystal_of_shape`` therefore returns the connected component of the
canonical highest tableau b_lam (anti-diagonal d filled with the letter
d), which is the crystal of the irreducible highest weight module with
highest weight lam; ``full_ssyt_graph`` exposes the whole filling set.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import kernel
from .errors import StructureError, VerificationError
from .graphs import ODD, build_graph, closure
from .words import check_rank

Parts = tuple  # strict partition as a tuple of parts


def check_strict_partition(parts, n: int) -> Parts:
    """Validate and normalize a strict partition with at most n parts."""
    check_rank(n)
    parts = tuple(int(p) for p in parts)
    if not parts:
        raise ValueError("empty partition")
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if any(a <= b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"parts must strictly decrease: {parts}")
    if len(parts) > n:
        raise ValueError(f"{parts} has more than {n} parts")
    return parts


def strict_partitions(max_size: int, n: int):
    """All strict partitions with at most n parts and |lam| <= max_size."""
    out = []

    def grow(prefix, remaining, cap):
        for p in range(min(remaining, cap), 0, -1):
            cand = prefix + (p,)
            if len(cand) <= n:
                out.append(cand)
                grow(cand, remaining - p, p - 1)

    grow((), max_size, max_size)
    out.sort(key=lambda t: (sum(t), t))
    return out


@dataclass(frozen=True)
class SkewShape:
    partition: Parts
    boxes: tuple  # (row, col) pairs, row-major order


@dataclass(frozen=True)
class Tableau:
    shape: SkewShape
    entries: tuple  # aligned with shape.boxes

    def entry(self, box):
        return self.entries[self.shape.boxes.index(box)]

    def weight(self, n: int) -> tuple:
        wt = [0] * n
        for v in self.entries:
            wt[v - 1] += 1
        return tuple(wt)


def shape_from_partition(parts, n: int | None = None) -> SkewShape:
    """Staircase skew diagram of a strict partition."""
    parts = check_strict_partition(parts, n if n is not None else len(parts))
    boxes = set()
    for d, p in enumerate(parts, start=1):
        for i in range(d, d + p):
            boxes.add((i, parts[0] + d - i))
    return SkewShape(partition=parts, boxes=tuple(sorted(boxes)))


@lru_cache(maxsize=None)
def _neighbors(boxes: tuple) -> tuple:
    """Per box index: (left-neighbor index or -1, up-neighbor index or -1)."""
    index = {b: k for k, b in enumerate(boxes)}
    out = []
    for r, c in boxes:
        out.append((index.get((r, c - 1), -1), index.get((r - 1, c), -1)))
    return tuple(out)


def is_semistandard(shape: SkewShape, entries) -> bool:
    """Rows weakly increase left to right, columns strictly top to bottom."""
    for k, (left, up) in enumerate(_neighbors(shape.boxes)):
        if left >= 0 and entries[left] > entries[k]:
            return False
        if up >= 0 and entries[up] >= entries[k]:
            return False
    return True


def enumerate_ssyt(shape: SkewShape, n: int) -> list:
    """All semistandard fillings, ordered by row-major filling sequence."""
    boxes = shape.boxes
    neighbors = _neighbors(boxes)
    m = len(boxes)
    out = []
    entries = [0] * m

    def fill(k):
        if k == m:
            out.append(Tableau(shape=shape, entries=tuple(entries)))
            return
        left, up = neighbors[k]
        lo = 1
        if left >= 0 and entries[left] > lo:
            lo = entries[left]
        if up >= 0 and entries[up] + 1 > lo:
            lo = entries[up] + 1
        for v in range(lo, n + 1):
            entries[k] = v
            fill(k + 1)
        entries[k] = 0

    fill(0)
    return out


@lru_cache(maxsize=None)
def reading_order(boxes: tuple, reading: str) -> tuple:
    """Box indices in reading order.

    "row": rows top to bottom, each row right to left.
    "col": columns rightmost to leftmost, each column top to bottom.
    """
    if reading == "row":
        ranked = sorted(range(len(boxes)), key=lambda k: (boxes[k][0], -boxes[k][1]))
    elif reading == "col":
        ranked = sorted(range(len(boxes)), key=lambda k: (-boxes[k][1], boxes[k][0]))
    else:
        raise ValueError(f"unknown reading {reading!r}")
    return tuple(ranked)


def reading_word(t: Tableau, reading: str = "row") -> bytes:
    """Word of a tableau under the chosen reading."""
    order = reading_order(t.shape.boxes, reading)
    return bytes(t.entries[k] for k in order)


class TableauOps:
    """Kashiwara operators on tableaux of one shape, via a reading."""

    kind = "tableau"

    def __init__(self, shape: SkewShape, n: int, reading: str = "row"):
        self.shape = shape
        self.n = n
        self.reading = reading
        self.order = reading_order(shape.boxes, reading)

    def encode(self, t: Tableau) -> bytes:
        return bytes(t.entries[k] for k in self.order)

    def decode(self, w: bytes) -> Tableau:
        entries = [0] * len(self.order)
        for pos, k in enumerate(self.order):
            entries[k] = w[pos]
        entries = tuple(entries)
        if not is_semistandard(self.shape, entries):
            raise StructureError(
                f"operator produced a non-semistandard filling {entries} "
                f"on shape {self.shape.partition}")
        return Tableau(shape=self.shape, entries=entries)

    def _lift(self, w):
        return None if w is None else self.decode(w)

    def weight(self, t: Tableau) -> tuple:
        return t.weight(self.n)

    def e(self, i, t):
        return self._lift(kernel.apply_e(self.encode(t), i))

    def f(self, i, t):
        return self._lift(kernel.apply_f(self.encode(t), i))

    def ebar1(self, t):
        if self.n < 2:
            return None
        return self._lift(kernel.apply_ebar1(self.encode(t)))

    def fbar1(self, t):
        if self.n < 2:
            return None
        return self._lift(kernel.apply_fbar1(self.encode(t)))

    def sort_key(self, t: Tableau):
        return t.entries

    def is_highest_weight(self, t: Tableau) -> bool:
        return kernel.is_q_highest(self.encode(t), self.n)


def tableau_operator(direction: str, label, t: Tableau, n: int,
                     reading: str = "row"):
    """Apply one operator (direction "e"/"f", label 1..n-1 or "1bar")."""
    ops = TableauOps(t.shape, n, reading)
    if label == ODD:
        return ops.ebar1(t) if direction == "e" else ops.fbar1(t)
    if direction == "e":
        return ops.e(label, t)
    if direction == "f":
        return ops.f(label, t)
    raise ValueError(f"unknown direction {direction!r}")


def b_lambda(parts, n: int) -> Tableau:
    """The canonical highest tableau: anti-diagonal d filled with d.

    Checked to be semistandard, of weight lam, and annihilated by all
    raising operators; any violation raises, since it would contradict
    the structure this tableau is defined to carry.
    """
    parts = check_strict_partition(parts, n)
    shape = shape_from_partition(parts, n)
    diagonal = {}
    for d, p in enumerate(parts, start=1):
        for i in range(d, d + p):
            diagonal[(i, parts[0] + d - i)] = d
    t = Tableau(shape=shape, entries=tuple(diagonal[b] for b in shape.boxes))
    if not is_semistandard(shape, t.entries):
        raise VerificationError(f"canonical tableau of {parts} not semistandard")
    expected = tuple(list(parts) + [0] * (n - len(parts)))
    if t.weight(n) != expected:
        raise VerificationError(f"canonical tableau of {parts} has wrong weight")
    if not kernel.is_q_highest(reading_word(t), n):
        raise VerificationError(
            f"canonical tableau of {parts} is not a highest weight vector")
    return t


def crystal_of_shape(parts, n: int, reading: str = "row"):
    """Connected crystal of the highest weight lam, on staircase tableaux.

    This is the component of ``b_lambda`` inside the full filling set; see
    the module docstring for why the full set may be larger.
    """
    parts = check_strict_partition(parts, n)
    t = b_lambda(parts, n)
    ops = TableauOps(t.shape, n, reading)
    return closure(ops, t)


def full_ssyt_graph(parts, n: int, reading: str = "row"):
    """Crystal graph on every semistandard filling of the staircase."""
    parts = check_strict_partition(parts, n)
    shape = shape_from_partition(parts, n)
    ops = TableauOps(shape, n, reading)
    return build_graph(ops, enumerate_ssyt(shape, n))


def tableau_json(t: Tableau) -> dict:
    """JSON form: partition plus explicit cells."""
    return {
        "shape": list(t.shape.partition),
        "cells": [
            {"row": r, "col": c, "entry": v}
            for (r, c), v in zip(t.shape.boxes, t.entries)
        ],
    }
