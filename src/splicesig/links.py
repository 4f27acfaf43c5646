"""Link structure as data: how the colors of a link link each other.

A signature evaluator's colors are held in one record, which each
combinator derives in bulk from its operands' records without going through
the colors one at a time.  A leaf holds Links, runs of alike colors; a
splice, or a merged color beside the others, holds Glued, two records side by
side whose cross block is the product of two rows.  Both answer peel(end),
the row of the first or the last color and the record of the others, which
is all a combinator reads, and at(i, j), total() and color_counts().  The
module is loaded where a combinator or a reader first needs it, so a
request that only evaluates a leaf does not compile it.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, groupby, repeat
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple, Union


# A row is a vector over colors: a tuple of segments (off, n, x, leaf, lo),
# each adding x times entries lo .. lo+n-1 of its leaf to entries off ..
# off+n-1, and every entry covered.  A leaf (ends, values) holds values[p]
# from entry ends[p-1] to ends[p]-1.  Rows are built from rows, so a vector
# the document states is held once, wherever it is used.
Row = Tuple[Tuple, ...]


def _mul(x: Optional[int], y: Optional[int]) -> Optional[int]:
    return None if x is None or y is None else x * y


def _add(x: Optional[int], y: Optional[int]) -> Optional[int]:
    return None if x is None or y is None else x + y


def row(runs: Iterable[Tuple[int, Optional[int]]]) -> Row:
    """The row of the runs (length, value): one segment over one leaf."""
    runs = [(sum(n for n, _ in alike), x)
            for x, alike in groupby((r for r in runs if r[0]), key=operator.itemgetter(1))]
    ends = tuple(accumulate(n for n, _ in runs))
    return ((0, ends[-1], 1, (ends, tuple(x for _, x in runs)), 0),) if runs else ()


def _length(row: Row) -> int:
    return max((off + n for off, n, *_ in row), default=0)


def _window(leaf, lo: int, n: int):
    """The runs (lengths, values) of leaf's entries lo .. lo+n-1, the lengths lazily."""
    ends, values = leaf
    i, j = bisect_right(ends, lo), bisect_left(ends, lo + n) + 1
    cuts = (lo,) + ends[i:j - 1] + (lo + n,)
    return map(operator.sub, cuts[1:], cuts), values[i:j]


def entry(row: Row, k: int) -> Optional[int]:
    total: Optional[int] = 0
    for off, n, x, (ends, values), lo in row:
        if off <= k < off + n:
            total = _add(total, _mul(x, values[bisect_right(ends, lo + k - off)]))
    return total


def known(row: Row) -> bool:
    return all(x is not None
               and None not in values[bisect_right(ends, lo):bisect_left(ends, lo + n) + 1]
               for _, n, x, (ends, values), lo in row)


def _sum(row: Row) -> Optional[int]:
    """The sum of row's entries, None where one is unknown."""
    if not known(row):
        return None
    return sum(x * sum(map(operator.mul, *_window(leaf, lo, n))) for _, n, x, leaf, lo in row)


def expand(row: Row) -> Tuple[Optional[int], ...]:
    """row a color at a time."""
    out: list = [0] * _length(row)
    tiled = sum(n for _, n, *_ in row) == len(out)  # no entry covered twice
    for off, n, x, leaf, lo in row:
        lengths, values = _window(leaf, lo, n)
        part = chain.from_iterable(map(repeat, [_mul(x, y) for y in values], lengths))
        out[off:off + n] = part if tiled else map(_add, out[off:off + n], part)
    return tuple(out)


def _cat(row: Row, more: Row) -> Row:
    k = _length(row)
    return row + tuple((off + k, n, x, leaf, lo) for off, n, x, leaf, lo in more)


def trim(row: Row, end: int) -> Row:
    """row less its first (end 0) or its last (end -1) entry."""
    k = 0 if end == 0 else _length(row) - 1
    out = []
    for off, n, x, leaf, lo in row:
        hit = off <= k < off + n
        if end == 0:
            off, lo = max(off - 1, 0), lo + hit
        if n - hit:
            out.append((off, n - hit, x, leaf, lo))
    return tuple(out)


class Links(NamedTuple):
    """Link structure in runs of alike colors: run r is sizes[r] consecutive
    colors, each of counts[r] components, and a color of run r links every
    other color of run s lk[r][s] times, None where unknown."""

    sizes: Tuple[int, ...]
    counts: Tuple[Optional[int], ...]
    lk: Tuple[Tuple[Optional[int], ...], ...]

    @property
    def arity(self) -> int:
        return sum(self.sizes)

    def peel(self, end: int) -> Tuple[Row, LinkData, Optional[int]]:
        """The first (end 0) or the last (end -1) color's row over the other
        colors, the others' link structure, and that color's count."""
        ends = tuple(accumulate(self.sizes))
        bounds = sorted({0, *ends, 1 if end == 0 else ends[-1] - 1})  # the color alone
        runs = [bisect_right(ends, a) for a in bounds[:-1]]
        keep = slice(1, None) if end == 0 else slice(None, -1)
        sizes, others = tuple(map(operator.sub, bounds[1:], bounds))[keep], runs[keep]
        color = runs[end]
        return (row(zip(sizes, (self.lk[color][s] for s in others))),
                Links(sizes, tuple(self.counts[s] for s in others),
                      tuple(tuple(self.lk[r][s] for s in others) for r in others)),
                self.counts[color])

    def at(self, i: int, j: int) -> Optional[int]:
        ends = tuple(accumulate(self.sizes))
        return self.lk[bisect_right(ends, i)][bisect_right(ends, j)]

    def total(self) -> Optional[int]:
        """The sum of lk over the pairs of colors, None where one is unknown."""
        sizes, lk = self.sizes, self.lk
        pairs = [(lk[r][s], sizes[r] * sizes[s] if r < s else sizes[r] * (sizes[r] - 1) // 2)
                 for r in range(len(sizes)) for s in range(r, len(sizes))]
        return None if any(x is None for x, n in pairs if n) else sum(x * n for x, n in pairs if n)

    def color_counts(self) -> Tuple[Optional[int], ...]:
        return tuple(chain.from_iterable(map(repeat, self.counts, self.sizes)))


class Glued(NamedTuple):
    """Link structures a and b side by side (the splice of two links, or a
    merged color beside the others): color i of a links color j of b
    u[i]*v[j] times, u and v rows.  It has Links' methods."""

    a: LinkData
    b: LinkData
    u: Row
    v: Row
    arity: int

    def peel(self, end: int) -> Tuple[Row, LinkData, Optional[int]]:
        near, far, u, v = (self.a, self.b, self.u, self.v) if end == 0 else (
            self.b, self.a, self.v, self.u)
        row, rest, count = near.peel(end)
        y = entry(u, 0 if end == 0 else near.arity - 1)
        cross = tuple((off, n, _mul(x, y), leaf, lo) for off, n, x, leaf, lo in v)
        if end == 0:
            return _cat(row, cross), glue(rest, far, trim(u, end), v), count
        return _cat(cross, row), glue(far, rest, v, trim(u, end)), count

    def at(self, i: int, j: int) -> Optional[int]:
        n = self.a.arity
        if (i < n) == (j < n):
            return self.a.at(i, j) if i < n else self.b.at(i - n, j - n)
        return _mul(entry(self.u, min(i, j)), entry(self.v, max(i, j) - n))

    def total(self) -> Optional[int]:
        parts = self.a.total(), self.b.total(), _sum(self.u), _sum(self.v)
        return None if None in parts else parts[0] + parts[1] + parts[2] * parts[3]

    def color_counts(self) -> Tuple[Optional[int], ...]:
        return self.a.color_counts() + self.b.color_counts()


LinkData = Union[Links, Glued]


def glue(a: LinkData, b: LinkData, u: Row, v: Row) -> LinkData:
    return b if not a.arity else a if not b.arity else Glued(a, b, u, v, a.arity + b.arity)


def given(lk: Optional[Sequence[Sequence[Optional[int]]]],
          counts: Tuple[Optional[int], ...]) -> Links:
    """The record of a linking matrix (None where it is unknown) and the
    counts of the colors: without lk, runs of alike counts."""
    runs = [(1, c) for c in counts] if lk else [(len([*g]), c) for c, g in groupby(counts)]
    return Links(tuple(n for n, _ in runs), tuple(c for _, c in runs),
                 tuple(map(tuple, lk)) if lk else ((None,) * len(runs),) * len(runs))
