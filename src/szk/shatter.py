"""Concrete finite abelian groups: membership, cosets, shatter functions.

Elements of ⊕ Z(m_i) are residue tuples enumerated in mixed radix; subsets
are bitmasks over the enumeration.  Everything here is exhaustive and
exact, guarded by size caps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import List, Sequence, Tuple

from .core import Div, PPFormula, SzmielewDescription, Tor, is_omega

GROUP_CAP = 10 ** 6
FAMILY_BITS_CAP = 10 ** 8       # cosets times carrier bits: 12.5 MB of masks
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
    if (desc.tf or desc.div or desc.q_mult != 0 or desc.cyclic_tail
            or desc.prime_tail is not None):
        raise ValueError("description is not a finite group")
    orders: List[int] = []
    for (p, n), m in desc.cyclic:
        if is_omega(m):
            raise ValueError("description is not a finite group")
        orders.extend([p ** n] * m)
    return FinAbGroup(tuple(orders))


def _component_allowed(order: int, formula: PPFormula) -> List[int]:
    """Residues of Z(order) satisfying every atom."""
    allowed = []
    for x in range(order):
        ok = True
        for atom in formula.atoms:
            if isinstance(atom, Tor):
                if (atom.m * x) % order != 0:
                    ok = False
                    break
            else:
                g = gcd(atom.p ** atom.r, order)
                if ((atom.p ** atom.s * x) % order) % g != 0:
                    ok = False
                    break
        if ok:
            allowed.append(x)
    return allowed


def subgroup_members(g: FinAbGroup, formula: PPFormula) -> List[int]:
    """Element indices of the subgroup the formula defines, ascending."""
    per_component = [_component_allowed(m, formula) for m in g.orders]
    out = []
    for combo in itertools.product(*per_component):
        out.append(g.index_of(combo))
    return sorted(out)


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
        members = subgroup_members(g, f)
        bits += g.size // len(members) * g.size
        if bits > FAMILY_BITS_CAP:
            raise ValueError("coset family needs %d mask bits, cap is %d"
                             % (bits, FAMILY_BITS_CAP))
        covered = set()
        for a in range(g.size):
            if a in covered:
                continue
            coset = [g.add(a, h) for h in members]
            covered.update(coset)
            mask = 0
            for x in coset:
                mask |= 1 << x
            sets.append(mask)
    return SetFamily(g.size, tuple(sets))


def shatter_function(s: SetFamily, n: int, subset_cap: int = SUBSET_CAP) -> int:
    """pi(n): the maximum number of distinct traces on an n-point sample."""
    if n > subset_cap:
        raise ValueError("sample size %d exceeds cap %d" % (n, subset_cap))
    if n == 0:
        return 1 if s.sets else 0
    if n > s.carrier_size:
        raise ValueError("sample larger than the carrier")
    best = 0
    for points in itertools.combinations(range(s.carrier_size), n):
        mask = 0
        for x in points:
            mask |= 1 << x
        traces = {c & mask for c in s.sets}
        best = max(best, len(traces))
        if best == 2 ** n:
            break
    return best


def vc_dim(s: SetFamily, subset_cap: int = SUBSET_CAP) -> int:
    best = 0
    n = 1
    while n <= min(s.carrier_size, subset_cap):
        if shatter_function(s, n, subset_cap) == 2 ** n:
            best = n
            n += 1
        else:
            break
    return best


def shatter_rows(s: SetFamily, max_n: int,
                 subset_cap: int = SUBSET_CAP) -> List[Tuple[int, int, int]]:
    """(n, pi(n), 2^n) rows for reporting."""
    return [(n, shatter_function(s, n, subset_cap), 2 ** n)
            for n in range(0, max_n + 1)]
