"""Exact domain types shared by all modules.

Multiplicities live in the naturals extended by the single infinite value
``OMEGA``; indices are kept as exact prime-power factorizations or the
symbol ``INFINITE``.  Everything here is an immutable value with no I/O.
"""

from __future__ import annotations

import itertools
import sys
from math import gcd
from typing import Callable, Collection, Dict, List, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Records

# writes a field past the record's own __setattr__, which refuses every write
_set = object.__setattr__

# The methods that each Record subclass gets, written out for its fields, so
# that each field is one attribute load, as in hand-written code.  __eq__
# takes a field as equal when it is the same object or compares equal, as
# tuple equality does; field by field, it builds no tuples, which is faster
# on slots, and it stops at the first field that differs
_METHODS = """\
def __init__(self, {args}):
{sets}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return {same}
    return NotImplemented
def __hash__(self):
    return hash(({own},))
"""

class _RecordType(type):
    """Makes the annotated names of a Record subclass its ``__slots__``, and
    writes its ``__init__``, ``__eq__`` and ``__hash__``.  A method that the
    class body defines is kept."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        has_default = [f in ns for f in fields]
        if has_default != sorted(has_default):
            raise TypeError("%s: a field without a default follows one with "
                            "a default" % name)
        defaults = tuple(ns.pop(f) for f in fields if f in ns)
        ns["__slots__"] = fields
        if fields:
            own = ", ".join("self." + f for f in fields)
            sets = ["    _set(self, %r, %s)" % (f, f) for f in fields]
            if "__post_init__" in ns:
                sets.append("    self.__post_init__()")
            same = " and ".join("(self.%s is other.%s or self.%s == other.%s)"
                                % (f, f, f, f) for f in fields)
            source = _METHODS.format(args=", ".join(fields), sets="\n".join(sets),
                                     same=same, own=own)
            methods: dict = {}
            exec(source, {"_set": _set}, methods)
            methods["__init__"].__defaults__ = defaults or None
            for key, fn in methods.items():
                fn.__qualname__ = "%s.%s" % (ns.get("__qualname__", name), key)
                ns.setdefault(key, fn)
        return super().__new__(mcls, name, bases, ns)


class Record(metaclass=_RecordType):
    """A frozen record: the base of every szk result type.

    A subclass lists its fields as annotated names, in order, and a name
    given a value in the class body has that default.  The fields are
    ``__slots__``; assigning or deleting one raises AttributeError.  Two
    records are equal when they are of the same class and their fields are
    equal, so a record never equals a tuple, and a record hashes as the tuple
    of its fields.  The repr is ``Cls(a=..., b=...)`` and a record pickles by
    its fields.  A ``__post_init__`` method runs at the end of ``__init__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)


class _Omega:
    """The countably infinite multiplicity.  A single shared instance."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "w"

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Omega)

    def __gt__(self, other):
        if isinstance(other, _Omega):
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (_Omega, int)):
            return True
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (_Omega, int)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __hash__(self):
        return hash("_Omega")

    def __reduce__(self):
        # unpickles as the one shared instance, which equality relies on
        return "OMEGA"


OMEGA = _Omega()
Mult = Union[int, _Omega]


class _Infinite:
    """Marker for an infinite cardinality, index, or exponent."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"

    def __hash__(self):
        return hash("_Infinite")

    def __reduce__(self):
        return "INFINITE"


INFINITE = _Infinite()


class PoolOverflowError(RuntimeError):
    """The candidate pool exceeds the configured cap (env SZK_MAX_POOL).

    Raised by the oracle; defined here so that catching it needs no oracle
    import."""


def is_omega(m: Mult) -> bool:
    return isinstance(m, _Omega)


def mult_add(a: Mult, b: Mult) -> Mult:
    if is_omega(a) or is_omega(b):
        return OMEGA
    return a + b


# Trial division decides every n below _TRIAL_MAX on its own; larger n go to
# Miller-Rabin, whose prime bases 2..41 are exact below 3.317e24 (bases
# 2..37 alone are fooled by 318665857834031151167461; Sorenson-Webster 2015),
# and composite cofactors are split by Pollard-Brent rho.
_TRIAL_DIV = 1 << 10
_TRIAL_MAX = _TRIAL_DIV ** 2
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MAX_N = 33 * 10 ** 23


def _check_size(n: int) -> None:
    if n >= _MAX_N:
        raise ValueError("cannot decide primality at or above 3.3e24")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    if n >= _TRIAL_MAX:
        _check_size(n)
        return _miller_rabin(n)
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _miller_rabin(n: int) -> bool:
    """Deterministic for odd n below 3.317e24."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n (Pollard rho, Brent's cycle
    search with gcds batched over 128 steps); deterministic in n."""
    for c in itertools.count(1):
        x = y = ys = 2
        r, q, g = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_factors(n: int) -> Dict[int, int]:
    """Factor a positive integer into {prime: exponent}, primes ascending."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > _TRIAL_DIV:
            # n has no factor below _TRIAL_DIV, so a factor of n below
            # _TRIAL_MAX is prime
            _check_size(n)
            stack = [n]
            while stack:
                n = stack.pop()
                if n < _TRIAL_MAX or _miller_rabin(n):
                    out[n] = out.get(n, 0) + 1
                else:
                    f = _rho_factor(n)
                    stack += [f, n // f]
            return dict(sorted(out.items()))
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def p_adic_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def power_product(factors: Collection[Tuple[int, int]]) -> int:
    """The product of p^e over the (p, e) pairs.  An integer too long to
    print (past ``sys.get_int_max_str_digits()``) raises the ValueError that
    printing it would, before it is built."""
    # the value is at least 2^bits, which passes 10^limit once
    # bits > limit * log2(10)
    bits = 0
    for p, e in factors:
        bits += e * (p.bit_length() - 1)
    limit = sys.get_int_max_str_digits()
    if limit and bits > 3.322 * limit:
        raise ValueError("Exceeds the limit (%d digits) for integer string "
                         "conversion; use sys.set_int_max_str_digits() to "
                         "increase the limit" % limit)
    out = 1
    for p, e in factors:
        out *= p ** e
    return out


# ---------------------------------------------------------------------------
# Index classes


class Index(Record):
    """An exact subgroup index: a factored finite natural, or infinite.

    ``factors`` is a sorted tuple of (prime, exponent) pairs; ``None`` means
    the index is infinite.  Multiplication is exact, with Infinite absorbing.
    """

    factors: Optional[Tuple[Tuple[int, int], ...]]

    @staticmethod
    def one() -> "Index":
        return Index(())

    @staticmethod
    def infinite() -> "Index":
        return Index(None)

    @staticmethod
    def from_factors(factors: Dict[int, int]) -> "Index":
        items = tuple(sorted((p, e) for p, e in factors.items() if e > 0))
        return Index(items)

    @staticmethod
    def prime_power(p: int, e: int) -> "Index":
        if e == 0:
            return Index.one()
        return Index(((p, e),))

    @staticmethod
    def of(n: int) -> "Index":
        return Index.from_factors(prime_factors(n))

    @property
    def is_infinite(self) -> bool:
        return self.factors is None

    @property
    def is_one(self) -> bool:
        return self.factors == ()

    def value(self) -> int:
        """The index as an integer; see power_product."""
        if self.factors is None:
            raise ValueError("infinite index has no integer value")
        return power_product(self.factors)

    def __mul__(self, other: "Index") -> "Index":
        if self.factors is None or other.factors is None:
            return Index.infinite()
        merged: Dict[int, int] = dict(self.factors)
        for p, e in other.factors:
            merged[p] = merged.get(p, 0) + e
        return Index.from_factors(merged)

    def __repr__(self) -> str:
        if self.factors is None:
            return "Infinite"
        if not self.factors:
            return "Finite(1)"
        return "Finite(%d)" % self.value()


# ---------------------------------------------------------------------------
# Group descriptions


class TailSpec(Record):
    """Unbounded p-length: multiplicity ``mult`` at every exponent > cutoff."""

    cutoff: int
    mult: Mult


class PrimeTailShape(Record):
    """A fixed per-prime shape applied to every prime not otherwise listed.

    ``cyclic_pattern`` maps exponent n to a multiplicity; ``tf_mult`` and
    ``div_mult`` are the torsion-free-local and divisible multiplicities.
    """

    cyclic_pattern: Tuple[Tuple[int, Mult], ...] = ()
    tf_mult: Mult = 0
    div_mult: Mult = 0

    @property
    def is_trivial(self) -> bool:
        return not self.cyclic_pattern and self.tf_mult == 0 and self.div_mult == 0

    def pattern_dict(self) -> Dict[int, Mult]:
        return dict(self.cyclic_pattern)


def _freeze_pattern(pattern: Dict[int, Mult]) -> Tuple[Tuple[int, Mult], ...]:
    return tuple(sorted((n, m) for n, m in pattern.items() if m != 0))


def make_prime_tail(cyclic_pattern: Optional[Dict[int, Mult]] = None,
                    tf_mult: Mult = 0, div_mult: Mult = 0) -> PrimeTailShape:
    return PrimeTailShape(_freeze_pattern(cyclic_pattern or {}), tf_mult, div_mult)


class SzmielewDescription(Record):
    """Symbolic abelian group given by its Szmielew data.

    cyclic maps (prime, exponent) to the multiplicity of Z(p^n); tf and div
    map a prime to the multiplicities of Z_(p) and Z(p^inf); q_mult is the
    multiplicity of Q.  cyclic_tail holds the unbounded-length primes and
    prime_tail, when present, a uniform shape for all unlisted primes.
    """

    cyclic: Tuple[Tuple[Tuple[int, int], Mult], ...] = ()
    tf: Tuple[Tuple[int, Mult], ...] = ()
    div: Tuple[Tuple[int, Mult], ...] = ()
    q_mult: Mult = 0
    cyclic_tail: Tuple[Tuple[int, TailSpec], ...] = ()
    prime_tail: Optional[PrimeTailShape] = None

    def cyclic_dict(self) -> Dict[Tuple[int, int], Mult]:
        return dict(self.cyclic)

    def tf_dict(self) -> Dict[int, Mult]:
        return dict(self.tf)

    def div_dict(self) -> Dict[int, Mult]:
        return dict(self.div)

    def tail_dict(self) -> Dict[int, TailSpec]:
        return dict(self.cyclic_tail)

    @property
    def is_trivial(self) -> bool:
        return (not self.cyclic and not self.tf and not self.div
                and self.q_mult == 0 and not self.cyclic_tail
                and self.prime_tail is None)

    @property
    def bounded_exponent(self) -> bool:
        """Cyclic blocks only: no Z_(p), Z(p^inf), Q, tail or all-primes shape."""
        return (not self.tf and not self.div and self.q_mult == 0
                and not self.cyclic_tail and self.prime_tail is None)

    @property
    def is_finite(self) -> bool:
        return self.bounded_exponent and not any(is_omega(m) for _pn, m in self.cyclic)

    def primes(self) -> List[int]:
        """All primes explicitly mentioned, ascending."""
        ps = {p for (p, _n) in self.cyclic_dict()}
        ps.update(self.tf_dict())
        ps.update(self.div_dict())
        ps.update(self.tail_dict())
        return sorted(ps)

    def max_exponent(self) -> int:
        """Largest cyclic exponent / tail cutoff / tail-shape exponent."""
        out = 0
        for (_p, n), _m in self.cyclic:
            out = max(out, n)
        for _p, spec in self.cyclic_tail:
            out = max(out, spec.cutoff)
        if self.prime_tail is not None:
            for n, _m in self.prime_tail.cyclic_pattern:
                out = max(out, n)
        return out


def make_description(cyclic: Optional[Dict[Tuple[int, int], Mult]] = None,
                     tf: Optional[Dict[int, Mult]] = None,
                     div: Optional[Dict[int, Mult]] = None,
                     q_mult: Mult = 0,
                     cyclic_tail: Optional[Dict[int, TailSpec]] = None,
                     prime_tail: Optional[PrimeTailShape] = None) -> SzmielewDescription:
    """Build a description in canonical form (zero entries dropped, sorted)."""
    cyc = tuple(sorted(((pn, m) for pn, m in (cyclic or {}).items() if m != 0),
                       key=lambda kv: kv[0]))
    tf_t = tuple(sorted((p, m) for p, m in (tf or {}).items() if m != 0))
    div_t = tuple(sorted((p, m) for p, m in (div or {}).items() if m != 0))
    tail_t = tuple(sorted((cyclic_tail or {}).items()))
    if prime_tail is not None and prime_tail.is_trivial:
        prime_tail = None
    return SzmielewDescription(cyc, tf_t, div_t, q_mult, tail_t, prime_tail)


SPLIT_CAP = 10 ** 4    # the explicit cyclic blocks raised tail cutoffs may add

# The descriptions whose strict form, derived sets, rank report and blocks
# the memos of normalize, rank and ppeval keep: one op asks several questions
# of one group, and a stream of groups reuses nothing across them
DESCRIPTION_MEMO = 4


def _raise_cutoffs(cyclic: Dict[Tuple[int, int], Mult],
                  raises: List[Tuple[int, TailSpec, int]]) -> None:
    """Add to cyclic, for each (p, spec, cut), spec.mult copies of Z(p^n) at
    every n in (spec.cutoff, cut]: the blocks of that tail below a cutoff
    raised to cut.  More than SPLIT_CAP of them in all is refused before any
    is added."""
    added = sum(cut - spec.cutoff for _p, spec, cut in raises)
    if added > SPLIT_CAP:
        raise ValueError("tail splits need %d cyclic blocks, cap is %d"
                         % (added, SPLIT_CAP))
    for p, spec, cut in raises:
        for n in range(spec.cutoff + 1, cut + 1):
            cyclic[(p, n)] = mult_add(cyclic.get((p, n), 0), spec.mult)


def direct_sum(*descs: SzmielewDescription) -> SzmielewDescription:
    """The direct sum of any number of descriptions, multiplicities added
    exactly, built once.

    All tails at a prime merge into one at the largest cutoff there, raised
    to the largest explicit exponent at that prime; each tail's blocks that
    fall below the merged cutoff become explicit cyclic entries, at most
    SPLIT_CAP of them (see _raise_cutoffs).
    """
    cyclic: Dict[Tuple[int, int], Mult] = {}
    tf: Dict[int, Mult] = {}
    div: Dict[int, Mult] = {}
    q_mult: Mult = 0
    tails: Dict[int, List[TailSpec]] = {}
    shapes: List[PrimeTailShape] = []
    for d in descs:
        for field, pairs in ((cyclic, d.cyclic), (tf, d.tf), (div, d.div)):
            for k, m in pairs:
                field[k] = mult_add(field.get(k, 0), m)
        q_mult = mult_add(q_mult, d.q_mult)
        for p, spec in d.cyclic_tail:
            tails.setdefault(p, []).append(spec)
        if d.prime_tail is not None:
            shapes.append(d.prime_tail)

    top: Dict[int, int] = {}
    for p, n in cyclic:
        top[p] = max(top.get(p, 0), n)
    merged: Dict[int, TailSpec] = {}
    raises: List[Tuple[int, TailSpec, int]] = []
    for p, specs in tails.items():
        cut = max([s.cutoff for s in specs] + [top.get(p, 0)])
        total: Mult = 0
        for spec in specs:
            raises.append((p, spec, cut))
            total = mult_add(total, spec.mult)
        merged[p] = TailSpec(cut, total)
    _raise_cutoffs(cyclic, raises)

    prime_tail = shapes[0] if shapes else None
    if len(shapes) > 1:
        pat: Dict[int, Mult] = {}
        tf_m: Mult = 0
        div_m: Mult = 0
        for shape in shapes:
            for n, m in shape.cyclic_pattern:
                pat[n] = mult_add(pat.get(n, 0), m)
            tf_m = mult_add(tf_m, shape.tf_mult)
            div_m = mult_add(div_m, shape.div_mult)
        prime_tail = make_prime_tail(pat, tf_m, div_m)
    return make_description(cyclic, tf, div, q_mult, merged, prime_tail)


# ---------------------------------------------------------------------------
# Positive-primitive formulas


class Tor(Record):
    """The atom ``m x = 0``."""

    m: int


class Div(Record):
    """The atom ``p^r | p^s x`` with 0 <= s < r."""

    p: int
    r: int
    s: int


Atom = Union[Tor, Div]


def atom_sort_key(a: Atom) -> Tuple:
    if isinstance(a, Tor):
        return (0, a.m, 0, 0)
    return (1, a.p, a.r, a.s)


class PPFormula(Record):
    """A conjunction of canonical atoms; the empty conjunction is the whole group."""

    atoms: Tuple[Atom, ...] = ()

    @staticmethod
    def top() -> "PPFormula":
        return PPFormula(())

    @staticmethod
    def of(*atoms: Atom) -> "PPFormula":
        return PPFormula(tuple(sorted(atoms, key=atom_sort_key)))

    @property
    def is_top(self) -> bool:
        return not self.atoms

    def conjoin(self, other: "PPFormula") -> "PPFormula":
        return PPFormula.of(*(self.atoms + other.atoms))

    def mentioned_primes(self) -> List[int]:
        ps = set()
        for a in self.atoms:
            if isinstance(a, Div):
                ps.add(a.p)
            else:
                ps.update(prime_factors(a.m) if a.m > 1 else {})
        return sorted(ps)


def tor(m: int) -> PPFormula:
    return PPFormula.of(Tor(m))


def div(p: int, r: int, s: int) -> PPFormula:
    return PPFormula.of(Div(p, r, s))


def check_atom(a: Atom) -> Optional[str]:
    """Return a violation message for a malformed atom, else None."""
    if isinstance(a, Tor):
        if a.m < 1:
            return "tor(%d): modulus must be >= 1" % a.m
        return None
    if not is_prime(a.p):
        return "div(%d,%d,%d): %d is not prime" % (a.p, a.r, a.s, a.p)
    if not (0 <= a.s < a.r):
        return "div(%d,%d,%d): requires 0 <= s < r" % (a.p, a.r, a.s)
    return None


# ---------------------------------------------------------------------------
# Description validation


def validate(desc: SzmielewDescription) -> List[str]:
    """Every violated invariant of a description; empty list means valid."""
    return _violations(desc, is_prime)


def _violations(desc: SzmielewDescription, prime: Callable[[int], bool]
                ) -> List[str]:
    """validate's list, with prime deciding whether each base is prime."""
    errs: List[str] = []
    for (p, n), m in desc.cyclic:
        if not prime(p):
            errs.append("cyclic base %d is not prime" % p)
        if n < 1:
            errs.append("cyclic exponent must be >= 1 (got %d at prime %d)" % (n, p))
        if not is_omega(m) and m < 0:
            errs.append("negative multiplicity at Z(%d^%d)" % (p, n))
    for p, m in desc.tf:
        if not prime(p):
            errs.append("tf base %d is not prime" % p)
        if not is_omega(m) and m < 0:
            errs.append("negative multiplicity at Z_(%d)" % p)
    for p, m in desc.div:
        if not prime(p):
            errs.append("div base %d is not prime" % p)
        if not is_omega(m) and m < 0:
            errs.append("negative multiplicity at Z(%d^inf)" % p)
    top: Dict[int, int] = {}     # the largest listed exponent per prime
    for (p, n), _m in desc.cyclic:
        top[p] = max(top.get(p, n), n)
    for p, spec in desc.cyclic_tail:
        if not prime(p):
            errs.append("tail base %d is not prime" % p)
        if spec.mult == 0:
            errs.append("tail(%d): multiplicity must be >= 1" % p)
        if not is_omega(spec.mult) and spec.mult < 0:
            errs.append("tail(%d): negative multiplicity" % p)
        if p in top and spec.cutoff < top[p]:
            errs.append("tail(%d): cutoff %d below listed exponent %d"
                        % (p, spec.cutoff, top[p]))
    if not is_omega(desc.q_mult) and desc.q_mult < 0:
        errs.append("negative Q multiplicity")
    if desc.prime_tail is not None:
        for n, m in desc.prime_tail.cyclic_pattern:
            if n < 1:
                errs.append("prime-tail exponent must be >= 1 (got %d)" % n)
    return errs
