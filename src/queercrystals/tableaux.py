"""Staircase skew diagrams and their semistandard tableaux.

A strict partition lam = (lam_1 > ... > lam_r > 0) with r <= n indexes a
skew diagram Y_lam whose d-th anti-diagonal (row + col = lam_1 + d)
carries lam_d boxes, in rows d .. d + lam_d - 1.  For lam = (7,6,4,2)
this is the staircase with row lengths 1,2,3,4,4,3,2 and 19 boxes.

Semistandard fillings (rows weakly increasing, columns strictly
increasing, entries 1..n) are mapped into words by an admissible reading,
and the word operators pull back to tableau operators.  ``_fillings`` is
the one enumerator of fillings, as entry tuples; ``enumerate_ssyt`` wraps
them as ``Tableau`` objects.  Two readings are provided; they induce the
same tableau operators, which ``theorems.verify_reading_independence``
checks on every filling.

Tableau crystal graphs are built on the row-reading words with the
kernel's word operators, with nodes ordered by the tableau's canonical key
(weight, then entries in box order).  The entries computed for that sort
are kept, and each node is made a ``Tableau`` from them once, which
checks that it is semistandard; every operator result is a node, so
every result is checked.  ``TableauOps`` applies single operators to
``Tableau`` objects directly.

The full set of semistandard fillings is stable under the operators but
is in general a disjoint union of several connected crystals (already for
lam = (3): three free boxes read onto the whole of B^(x)3, which splits).
``crystal_of_shape`` therefore returns the connected component of the
canonical highest tableau b_lam (anti-diagonal d filled with the letter
d), which is the crystal of the irreducible highest weight module with
highest weight lam; ``full_ssyt_graph`` exposes the whole filling set.
The checks of one shape build the crystals of its neighbours lam + eps_j
again, so ``crystal_of_shape`` keeps the last 16 it built, keyed by the
normalized partition and the rank, for the life of the process: callers
share one immutable graph, with the node index and predecessor arrays it
derives on request.
"""

import operator
from functools import lru_cache

from . import kernel
from .errors import StructureError, VerificationError
from .graphs import (ODD, CrystalGraph, WordOps, _Adapter, _Frozen, _set,
                     all_labels, build_graph, closure)
from .words import _integer, check_rank, check_word

Parts = tuple  # strict partition as a tuple of parts


def check_strict_partition(parts, n: int) -> Parts:
    """Validate and normalize a strict partition with at most n parts."""
    check_rank(n)
    parts = tuple(_integer(p, "part") for p in parts)
    if not parts:
        raise ValueError("empty partition")
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if any(a <= b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"parts must strictly decrease: {parts}")
    if len(parts) > n:
        raise ValueError(f"{parts} has more than {n} parts")
    return parts


def partition_weight(parts, n: int) -> tuple:
    """A partition as a weight: its parts padded with zeros to length n."""
    return tuple(list(parts) + [0] * (n - len(parts)))


def strict_partitions(max_size: int, n: int):
    """All strict partitions with at most n parts and |lam| <= max_size."""
    check_rank(n)
    max_size = _integer(max_size, "size")
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


class SkewShape(_Frozen):
    __slots__ = _fields = ("partition", "boxes")
    partition: Parts
    boxes: tuple  # (row, col) pairs, row-major order

    def __init__(self, partition, boxes):
        _set(self, "partition", partition)
        _set(self, "boxes", boxes)


class Tableau(_Frozen):
    __slots__ = _fields = ("shape", "entries")
    shape: SkewShape
    entries: tuple  # aligned with shape.boxes

    def __init__(self, shape, entries):
        _set(self, "shape", shape)
        _set(self, "entries", entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # node lookups compare tableaux of one shape object
        return self.entries == other.entries and (
            self.shape is other.shape or self.shape == other.shape)

    def __hash__(self):
        # equal tableaux have equal entries; the shape only breaks ties
        return hash(self.entries)

    def weight(self, n: int) -> tuple:
        return kernel.weight_of(self.entries, n)


def _check_kind(x, kind) -> None:
    """Raise TypeError unless x is a ``kind``: a SkewShape or a Tableau."""
    if not isinstance(x, kind):
        raise TypeError(f"{type(x).__name__} is not a {kind.__name__}")


def _check_tableau(t) -> None:
    """Raise TypeError unless t is a Tableau on a SkewShape.  Public entries
    call this once per call; ``Tableau.__init__``, which runs per node of a
    tableau crystal, checks nothing."""
    _check_kind(t, Tableau)
    _check_kind(t.shape, SkewShape)


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
    """Per box index: the indices of its left, up, right and down
    neighbors, -1 where there is none."""
    index = {b: k for k, b in enumerate(boxes)}
    return tuple(tuple(index.get(b, -1) for b in
                       ((r, c - 1), (r - 1, c), (r, c + 1), (r + 1, c)))
                 for r, c in boxes)


def is_semistandard(shape: SkewShape, entries) -> bool:
    """Rows weakly increase left to right, columns strictly top to bottom."""
    _check_kind(shape, SkewShape)
    return _semistandard(_neighbors(shape.boxes), entries)


def _semistandard(neighbors: tuple, entries) -> bool:
    """``is_semistandard`` on the ``_neighbors`` table of the shape."""
    for k, (left, up, _, _) in enumerate(neighbors):
        if left >= 0 and entries[left] > entries[k]:
            return False
        if up >= 0 and entries[up] >= entries[k]:
            return False
    return True


def _fillings(neighbors: tuple, n: int) -> list:
    """The entry tuples of every semistandard filling with entries 1..n,
    on the shape whose ``_neighbors`` table is given, depth-first in
    row-major filling sequence (so in lexicographic order of entries)."""
    m = len(neighbors)
    out = []
    entries = [0] * m

    def fill(k):
        if k == m:
            out.append(tuple(entries))
            return
        left, up, _, _ = neighbors[k]
        lo = 1
        if left >= 0 and entries[left] > lo:
            lo = entries[left]
        if up >= 0 and entries[up] + 1 > lo:
            lo = entries[up] + 1
        for v in range(lo, n + 1):
            entries[k] = v
            fill(k + 1)

    fill(0)
    return out


def enumerate_ssyt(shape: SkewShape, n: int) -> list:
    """All semistandard fillings as ``Tableau`` objects, in the order of
    ``_fillings``, the one enumerator: by row-major filling sequence."""
    _check_kind(shape, SkewShape)
    check_rank(n)
    return [Tableau(shape=shape, entries=entries)
            for entries in _fillings(_neighbors(shape.boxes), n)]


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
    _check_tableau(t)
    order = reading_order(t.shape.boxes, reading)
    return bytes(t.entries[k] for k in order)


class TableauOps(_Adapter):
    """Kashiwara operators on tableaux of one shape, via a reading."""

    kind = "tableau"

    def __init__(self, shape: SkewShape, n: int, reading: str = "row"):
        _check_kind(shape, SkewShape)
        check_rank(n)
        self.shape = shape
        self.n = n
        self.reading = reading
        self.order = reading_order(shape.boxes, reading)
        # reading position of each box, in box order
        self.positions = tuple(
            sorted(range(len(self.order)), key=self.order.__getitem__))
        self.neighbors = _neighbors(shape.boxes)

    def encode(self, t: Tableau) -> bytes:
        return bytes(map(t.entries.__getitem__, self.order))

    def decode(self, w: bytes) -> Tableau:
        return self.tableau(tuple(map(w.__getitem__, self.positions)))

    def tableau(self, entries: tuple) -> Tableau:
        """The tableau with these entries (in box order), checked to be
        semistandard."""
        if not _semistandard(self.neighbors, entries):
            raise StructureError(
                f"operator produced a non-semistandard filling {entries} "
                f"on shape {self.shape.partition}")
        return Tableau(shape=self.shape, entries=entries)

    def keeps_semistandard(self, entries, k: int, a: int) -> bool:
        """Whether a semistandard filling stays semistandard with its box k
        set to ``a``: only the box's four neighbors can break a row or a
        column, so this equals ``is_semistandard`` of the edited filling."""
        left, up, right, down = self.neighbors[k]
        if left >= 0 and entries[left] > a:
            return False
        if up >= 0 and entries[up] >= a:
            return False
        if right >= 0 and a > entries[right]:
            return False
        if down >= 0 and a >= entries[down]:
            return False
        return True

    def lift(self, w):
        """Decode an operator result; None (the crystal zero) stays None."""
        return None if w is None else self.decode(w)

    def weight(self, t: Tableau) -> tuple:
        return t.weight(self.n)

    def e(self, i, t):
        return self.lift(kernel.apply_e(self.encode(t), i))

    def f(self, i, t):
        return self.lift(kernel.apply_f(self.encode(t), i))

    def ebar1(self, t):
        if self.n < 2:
            return None
        return self.lift(kernel.apply_ebar1(self.encode(t)))

    def fbar1(self, t):
        if self.n < 2:
            return None
        return self.lift(kernel.apply_fbar1(self.encode(t)))

    def sort_key(self, t: Tableau):
        return t.entries

    def is_highest_weight(self, t: Tableau) -> bool:
        return kernel.is_q_highest(self.encode(t), self.n)


class _ReadingWordOps(WordOps):
    """Word operators on the reading words of one tableau shape.

    Words sort like the tableaux they read (weight, then entries), so a
    graph built on them has the tableau graph's node order.  The sort key
    of a word is its tableau's entries in box order; ``entries`` keeps it
    for ``_decoded``, so each node is permuted to box order once.
    """

    def __init__(self, ops: TableauOps):
        super().__init__(ops.n)
        self.positions = ops.positions
        self.entries = {}  # reading word -> entries in box order

    def sort_key(self, w):
        key = self.entries[w] = tuple(map(w.__getitem__, self.positions))
        return key


def _decoded(ops: TableauOps, words_ops: _ReadingWordOps,
             words: CrystalGraph) -> CrystalGraph:
    """A graph built through ``words_ops`` on reading words, as a tableau
    graph.

    Every node's entries were kept when the build sorted it; each is made
    a tableau, and so checked to be semistandard, once.  Every operator
    result is a node, so this covers all of them.
    """
    return CrystalGraph(n=words.n, kind=ops.kind,
                        nodes=tuple(map(ops.tableau,
                                        map(words_ops.entries.__getitem__,
                                            words.nodes))),
                        weights=words.weights, arrows=words.arrows)


def tableau_operator(direction: str, label, t: Tableau, n: int):
    """Apply one operator (direction "e"/"f", label 1..n-1 or "1bar") to a
    semistandard tableau with entries in 1..n."""
    _check_tableau(t)
    check_word(t.entries, n)
    if direction not in ("e", "f"):
        raise ValueError(f"unknown direction {direction!r}")
    if label not in all_labels(n):
        raise ValueError(f"label {label!r} is not one of {all_labels(n)}")
    if not is_semistandard(t.shape, t.entries):
        raise ValueError(f"entries {t.entries} are not a semistandard "
                         f"filling of {t.shape.partition}")
    ops = TableauOps(t.shape, n)
    if label == ODD:
        return ops.ebar1(t) if direction == "e" else ops.fbar1(t)
    return ops.e(label, t) if direction == "e" else ops.f(label, t)


def b_lambda(parts, n: int) -> Tableau:
    """The canonical highest tableau: anti-diagonal d filled with d.

    Checked to be semistandard, of weight lam, and annihilated by all
    raising operators; any violation raises, since it would contradict
    the structure this tableau is defined to carry.
    """
    shape = shape_from_partition(parts, n)
    parts = shape.partition
    # box (r, c) lies on anti-diagonal d = r + c - lam_1
    t = Tableau(shape=shape,
                entries=tuple(r + c - parts[0] for r, c in shape.boxes))
    if not is_semistandard(shape, t.entries):
        raise VerificationError(f"canonical tableau of {parts} not semistandard")
    if t.weight(n) != partition_weight(parts, n):
        raise VerificationError(f"canonical tableau of {parts} has wrong weight")
    if not kernel.is_q_highest(reading_word(t), n):
        raise VerificationError(
            f"canonical tableau of {parts} is not a highest weight vector")
    return t


def crystal_of_shape(parts, n: int) -> CrystalGraph:
    """Connected crystal of the highest weight lam, on staircase tableaux.

    This is the component of ``b_lambda`` inside the full filling set; see
    the module docstring for why the full set may be larger.  The graph is
    shared between callers and immutable: calls with equal (lam, n), lam
    given as any sequence of integers, return one graph while it is among
    the last 16 built.
    """
    parts = check_strict_partition(parts, n)
    return _crystal_of_shape(parts, operator.index(n))


@lru_cache(maxsize=16)
def _crystal_of_shape(parts: Parts, n: int) -> CrystalGraph:
    t = b_lambda(parts, n)
    ops = TableauOps(t.shape, n)
    words_ops = _ReadingWordOps(ops)
    return _decoded(ops, words_ops, closure(words_ops, ops.encode(t)))


def full_ssyt_graph(parts, n: int):
    """Crystal graph on every semistandard filling of the staircase."""
    shape = shape_from_partition(parts, n)
    ops = TableauOps(shape, n)
    words_ops = _ReadingWordOps(ops)
    fillings = [bytes(map(entries.__getitem__, ops.order))
                for entries in _fillings(ops.neighbors, n)]
    return _decoded(ops, words_ops, build_graph(words_ops, fillings))


def tableau_json(t: Tableau) -> dict:
    """JSON form: partition plus explicit cells."""
    _check_tableau(t)
    return {
        "shape": list(t.shape.partition),
        "cells": [
            {"row": r, "col": c, "entry": v}
            for (r, c), v in zip(t.shape.boxes, t.entries)
        ],
    }
