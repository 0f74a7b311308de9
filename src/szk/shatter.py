"""Concrete finite abelian groups: membership, cosets, shatter functions.

Elements of ⊕ Z(m_i) are residue tuples enumerated in mixed radix, the
first component the most significant; subsets are bitmasks over the
enumeration.  Everything here is exact, and guarded by size caps.

- A p.p. formula defines ⊕ d_i Z(m_i).  On Z(m), tor(k) cuts out the
  multiples of m/gcd(k, m), and div(p,r,s) those of q/gcd(p^s, q) with
  q = gcd(p^r, m); a conjunction takes the lcm of its atoms' steps.  The
  members are listed digit by digit, never searched for.
- The cosets of H = ⊕ d_i Z(m_i) are r + H with 0 <= r_i < d_i.  No digit
  of r + h carries, so a coset's mask is H's mask shifted left by the
  index of r, and ascending r lists the cosets by their least elements.
- pi(n) refines the family's set indices point by point.  A point's column
  is the mask of the sets that contain it, and each point of a sample
  splits every cell c into c & col and c & ~col.  The non-empty cells
  after the last point are the sample's distinct traces.  A sample is not
  extended once its cells cannot beat the best count found so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, lcm, prod
from typing import List, Sequence, Tuple

from .core import PPFormula, SzmielewDescription, Tor

GROUP_CAP = 10 ** 6
FAMILY_BITS_CAP = 10 ** 8       # cosets times carrier bits: 12.5 MB of masks
SAMPLE_CAP = 4 * 10 ** 6        # samples times traces per sample: about 2 s
SUBSET_CAP = 6


@dataclass(frozen=True)
class FinAbGroup:
    orders: Tuple[int, ...]

    def __post_init__(self):
        if any(m < 2 for m in self.orders):
            raise ValueError("component orders must be >= 2")
        if self.size > GROUP_CAP:
            raise ValueError("group size %d exceeds cap %d" % (self.size, GROUP_CAP))

    @property
    def size(self) -> int:
        n = 1
        for m in self.orders:
            n *= m
        return n

    def element(self, idx: int) -> Tuple[int, ...]:
        out = []
        for m in reversed(self.orders):
            out.append(idx % m)
            idx //= m
        return tuple(reversed(out))

    def index_of(self, x: Sequence[int]) -> int:
        idx = 0
        for xi, m in zip(x, self.orders):
            idx = idx * m + (xi % m)
        return idx

    def add(self, a: int, b: int) -> int:
        xa, xb = self.element(a), self.element(b)
        return self.index_of(tuple(u + v for u, v in zip(xa, xb)))


def from_description(desc: SzmielewDescription) -> FinAbGroup:
    """Concrete carrier for a finite description (cyclic blocks only)."""
    if not desc.is_finite:
        raise ValueError("description is not a finite group")
    orders: List[int] = []
    for (p, n), m in desc.cyclic:
        orders.extend([p ** n] * m)
    return FinAbGroup(tuple(orders))


def _steps(g: FinAbGroup, formula: PPFormula) -> List[int]:
    """d_i with the formula's subgroup equal to the sum of the d_i Z(m_i)."""
    steps = []
    for m in g.orders:
        d = 1
        for atom in formula.atoms:
            if isinstance(atom, Tor):
                d = lcm(d, m // gcd(atom.m, m))
            else:
                # the powers are reduced first: gcd(a, m) = gcd(a mod m, m)
                q = gcd(pow(atom.p, atom.r, m), m)
                d = lcm(d, q // gcd(pow(atom.p, atom.s, q), q))
        steps.append(d)
    return steps


def _mixed_radix(orders: Sequence[int], digits: Sequence[range]) -> List[int]:
    """Indices of the tuples whose i-th residue runs over digits[i], ascending."""
    out = [0]
    for m, ds in zip(orders, digits):
        out = [i * m + x for i in out for x in ds]
    return out


def subgroup_members(g: FinAbGroup, formula: PPFormula) -> List[int]:
    """Element indices of the subgroup the formula defines, ascending."""
    return _mixed_radix(g.orders, [range(0, m, d)
                                   for m, d in zip(g.orders, _steps(g, formula))])


@dataclass(frozen=True)
class SetFamily:
    carrier_size: int
    sets: Tuple[int, ...]              # bitmasks over the carrier


def coset_family(g: FinAbGroup, formulas: Sequence[PPFormula]) -> SetFamily:
    """Every coset of each formula's subgroup, as a bitmask over g; refused
    by size before the masks of a subgroup are built."""
    sets: List[int] = []
    bits = 0
    for f in formulas:
        steps = _steps(g, f)
        bits += prod(steps) * g.size
        if bits > FAMILY_BITS_CAP:
            raise ValueError("coset family needs %d mask bits, cap is %d"
                             % (bits, FAMILY_BITS_CAP))
        # one binary literal: OR-ing in 1 << h member by member would take
        # time quadratic in |G|
        digits = bytearray(b"0") * g.size
        for h in subgroup_members(g, f):
            digits[h] = ord("1")
        subgroup = int(digits[::-1], 2)
        sets.extend(subgroup << r
                    for r in _mixed_radix(g.orders, [range(d) for d in steps]))
    return SetFamily(g.size, tuple(sets))


def _check_sample(s: SetFamily, n: int) -> int:
    """min(2^n, |sets|), the most traces an n-point sample can have; refused
    past SUBSET_CAP points, past the carrier, or past SAMPLE_CAP samples
    times traces."""
    if n > SUBSET_CAP:
        raise ValueError("sample size %d exceeds cap %d" % (n, SUBSET_CAP))
    if n > s.carrier_size:
        raise ValueError("sample larger than the carrier")
    samples = comb(s.carrier_size, n)
    most = min(2 ** n, len(s.sets))
    if samples * most > SAMPLE_CAP:
        raise ValueError("pi(%d) needs %d samples times %d traces, cap is %d"
                         % (n, samples, most, SAMPLE_CAP))
    return most


def shatter_function(s: SetFamily, n: int) -> int:
    """pi(n): the maximum number of distinct traces on an n-point sample;
    refused by its number of samples before any is taken."""
    most = _check_sample(s, n)
    if n == 0:
        return most
    columns = [0] * s.carrier_size
    for j, mask in enumerate(s.sets):
        digits = bin(mask)[:1:-1]        # digits[x] is bit x of the mask
        x = digits.find("1")
        while x >= 0:
            columns[x] |= 1 << j
            x = digits.find("1", x + 1)
    best = 0

    def refine(cells: List[int], start: int, depth: int) -> bool:
        # every sample that adds `depth` points from `start` on, in
        # itertools.combinations order; True once one has `most` traces.
        # A cell of k sets splits into at most min(k, 2^d) cells over d more
        # points, so a sample whose bound is no better than `best` stops.
        nonlocal best
        for x in range(start, s.carrier_size - depth + 1):
            col = columns[x]
            split = [part for c in cells for part in (c & col, c & ~col) if part]
            if depth == 1:
                if len(split) > best:
                    best = len(split)
                    if best == most:
                        return True
            elif (sum(min(c.bit_count(), 2 ** (depth - 1)) for c in split) > best
                  and refine(split, x + 1, depth - 1)):
                return True
        return False

    if s.sets:
        refine([(1 << len(s.sets)) - 1], 0, n)
    return best


def vc_dim(s: SetFamily) -> int:
    best = 0
    n = 1
    while n <= min(s.carrier_size, SUBSET_CAP):
        if shatter_function(s, n) == 2 ** n:
            best = n
            n += 1
        else:
            break
    return best


def shatter_rows(s: SetFamily, max_n: int) -> List[Tuple[int, int, int]]:
    """(n, pi(n), 2^n) rows for reporting; refused before the first row is
    computed when any row would be."""
    for n in range(max_n + 1):
        _check_sample(s, n)
    return [(n, shatter_function(s, n), 2 ** n) for n in range(max_n + 1)]
