"""Invariants, strict normal form, and elementary equivalence.

The strict form is the unique representative of an elementary equivalence
class; ``is_equivalent`` compares strict forms structurally.  Invariant
reports are a property-test cross-check, not the decision procedure.

``normalize`` and the derived sets of a strict form are kept for the last
``core.DESCRIPTION_MEMO`` descriptions, so an equal description gets the
same records back: they are shared, and read-only.
"""

from __future__ import annotations

import functools
from typing import Dict, FrozenSet, Optional, Tuple, Union

from .core import (DESCRIPTION_MEMO, INFINITE, OMEGA, Mult, Record,
                   SzmielewDescription, _Infinite, is_omega, make_description)

Value = Union[int, _Infinite]  # an exact cardinality p^k, or infinite


def _power(p: int, m: Mult) -> Value:
    return INFINITE if is_omega(m) else p ** m


class TailDefault(Record):
    """U(p,n) = value for every n >= cutoff (shifted Ulm indexing)."""

    cutoff: int
    value: Value


class PrimeTailDefaults(Record):
    """Invariant contributions shared by every unlisted prime P.

    u_pattern is keyed by the shifted Ulm index n and holds the multiplicity
    exponent: U(P,n) = P^mult.
    """

    u_pattern: Tuple[Tuple[int, Mult], ...]
    tf_mult: Mult
    div_mult: Mult
    quotient_infinite: bool
    torsion_infinite: bool


class InvariantReport(Record):
    U: Dict[Tuple[int, int], Value]            # finite support; default 1
    U_tail: Dict[int, TailDefault]             # unbounded-length primes
    D_lim: Dict[int, Value]                    # default 1
    Tf_lim: Dict[int, Value]                   # default 1
    bounded_exponent: bool
    finite_group: bool
    quotient_pA_infinite: Dict[int, bool]      # default False
    torsion_p_infinite: Dict[int, bool]        # default False
    defaults: Optional[PrimeTailDefaults]      # None without a prime_tail


def invariants(desc: SzmielewDescription) -> InvariantReport:
    """The Ulm-style invariant data of a description.

    Uses the shifted Ulm convention: U(p,n) counts Z(p^{n+1}) summands, so
    a cyclic block of exponent e contributes at index e-1.
    """
    cyc = desc.cyclic_dict()
    tf = desc.tf_dict()
    dv = desc.div_dict()
    tails = desc.tail_dict()

    U: Dict[Tuple[int, int], Value] = {}
    for (p, e), m in cyc.items():
        v = _power(p, m)
        if v != 1:
            U[(p, e - 1)] = v
    U_tail = {p: TailDefault(spec.cutoff, _power(p, spec.mult))
              for p, spec in tails.items()}

    D_lim: Dict[int, Value] = {}
    Tf_lim: Dict[int, Value] = {}
    quot: Dict[int, bool] = {}
    tors: Dict[int, bool] = {}
    omega_cyclic = {p for (p, _e), m in cyc.items() if is_omega(m)}
    for p in desc.primes():
        has_tail = p in tails
        some_alpha_inf = p in omega_cyclic
        beta = tf.get(p, 0)
        gamma = dv.get(p, 0)
        D_lim[p] = INFINITE if has_tail else _power(p, gamma)
        Tf_lim[p] = INFINITE if (has_tail or is_omega(beta)) else _power(p, beta)
        quot[p] = is_omega(beta) or some_alpha_inf or has_tail
        tors[p] = is_omega(gamma) or some_alpha_inf or has_tail
    D_lim = {p: v for p, v in D_lim.items() if v != 1}
    Tf_lim = {p: v for p, v in Tf_lim.items() if v != 1}
    quot = {p: b for p, b in quot.items() if b}
    tors = {p: b for p, b in tors.items() if b}

    defaults = None
    if desc.prime_tail is not None:
        shape = desc.prime_tail
        pattern = tuple(sorted((n - 1, m) for n, m in shape.cyclic_pattern))
        any_inf = any(is_omega(m) for _n, m in shape.cyclic_pattern)
        defaults = PrimeTailDefaults(
            pattern, shape.tf_mult, shape.div_mult,
            quotient_infinite=any_inf or is_omega(shape.tf_mult),
            torsion_infinite=any_inf or is_omega(shape.div_mult))

    return InvariantReport(U, U_tail, D_lim, Tf_lim,
                           bounded_exponent=desc.bounded_exponent,
                           finite_group=desc.is_finite,
                           quotient_pA_infinite=quot,
                           torsion_p_infinite=tors,
                           defaults=defaults)


@functools.lru_cache(maxsize=DESCRIPTION_MEMO)
def normalize(desc: SzmielewDescription) -> SzmielewDescription:
    """Reduce to the unique strict form.

    Three reductions: unbounded-length primes shed their Z_(p) and Z(p^inf)
    parts; the Q part vanishes whenever the rest has unbounded exponent or
    any torsion-free or divisible part survives; a surviving Q part is
    inflated to multiplicity omega.  Equal descriptions may share one
    returned strict form.
    """
    tails = desc.tail_dict()
    tf = {p: m for p, m in desc.tf_dict().items() if p not in tails}
    dv = {p: m for p, m in desc.div_dict().items() if p not in tails}

    shape = desc.prime_tail
    rest_unbounded = (bool(tf) or bool(dv) or bool(tails)
                      or (shape is not None and not shape.is_trivial))
    q = desc.q_mult
    if rest_unbounded:
        q = 0
    elif q != 0:
        q = OMEGA
    return make_description(desc.cyclic_dict(), tf, dv, q, tails, shape)


def is_equivalent(a: SzmielewDescription, b: SzmielewDescription) -> bool:
    return normalize(a) == normalize(b)


class DerivedSets(Record):
    """Prime sets read off the strict form, driving the rank equations."""

    tf_inf: FrozenSet[int]                       # beta_p = omega
    d_inf: FrozenSet[int]                        # gamma_p = omega
    u_inf_at: Dict[int, FrozenSet[int]]          # shifted n with alpha = omega
    u_inf: FrozenSet[int]                        # unbounded p-length
    tf_inf_infinite: bool                        # prime_tail tf_mult = omega
    d_inf_infinite: bool                         # prime_tail div_mult = omega
    u_inf_at_infinite: FrozenSet[int]            # tails of multiplicity omega
    u_pairs_infinite: bool                       # prime_tail pattern has omega


def derived_sets(desc: SzmielewDescription) -> DerivedSets:
    return _derived_sets(normalize(desc))


@functools.lru_cache(maxsize=DESCRIPTION_MEMO)
def _derived_sets(strict: SzmielewDescription) -> DerivedSets:
    """The derived sets of a description already in strict form; equal
    strict forms may share one record, whose u_inf_at is read-only."""
    tf_inf = frozenset(p for p, m in strict.tf if is_omega(m))
    d_inf = frozenset(p for p, m in strict.div if is_omega(m))
    u_inf_at: Dict[int, FrozenSet[int]] = {}
    for (p, e), m in strict.cyclic:
        if is_omega(m):
            u_inf_at[p] = u_inf_at.get(p, frozenset()) | {e - 1}
    u_inf = frozenset(p for p, _spec in strict.cyclic_tail)
    omega_tails = frozenset(p for p, spec in strict.cyclic_tail
                            if is_omega(spec.mult))
    shape = strict.prime_tail
    return DerivedSets(
        tf_inf, d_inf, u_inf_at, u_inf,
        tf_inf_infinite=shape is not None and is_omega(shape.tf_mult),
        d_inf_infinite=shape is not None and is_omega(shape.div_mult),
        u_inf_at_infinite=omega_tails,
        u_pairs_infinite=shape is not None
        and any(is_omega(m) for _n, m in shape.cyclic_pattern))


# ---------------------------------------------------------------------------
# JSON serialization (omega as "w", infinite values as "inf")


def mult_json(m: Mult):
    return "w" if is_omega(m) else m


def value_json(v: Value):
    return "inf" if isinstance(v, _Infinite) else v


def invariants_json(r: InvariantReport) -> dict:
    out = {
        "U": [{"p": p, "n": n, "value": value_json(v)}
              for (p, n), v in sorted(r.U.items())],
        "U_tail": [{"p": p, "cutoff": d.cutoff, "value": value_json(d.value)}
                   for p, d in sorted(r.U_tail.items())],
        "D_lim": [{"p": p, "value": value_json(v)} for p, v in sorted(r.D_lim.items())],
        "Tf_lim": [{"p": p, "value": value_json(v)} for p, v in sorted(r.Tf_lim.items())],
        "bounded_exponent": r.bounded_exponent,
        "finite_group": r.finite_group,
        "quotient_pA_infinite": sorted(r.quotient_pA_infinite),
        "torsion_p_infinite": sorted(r.torsion_p_infinite),
        "defaults": None,
    }
    if r.defaults is not None:
        d = r.defaults
        out["defaults"] = {
            "u_pattern": [{"n": n, "mult": mult_json(m)} for n, m in d.u_pattern],
            "tf_mult": mult_json(d.tf_mult),
            "div_mult": mult_json(d.div_mult),
            "quotient_infinite": d.quotient_infinite,
            "torsion_infinite": d.torsion_infinite,
        }
    return out


def derived_sets_json(d: DerivedSets) -> dict:
    return {
        "Tf_inf": sorted(d.tf_inf),
        "D_inf": sorted(d.d_inf),
        "U_inf_at": [{"p": p, "ns": sorted(ns)} for p, ns in sorted(d.u_inf_at.items())],
        "U_inf": sorted(d.u_inf),
        "Tf_inf_infinite": d.tf_inf_infinite,
        "D_inf_infinite": d.d_inf_infinite,
        "U_inf_at_infinite": sorted(d.u_inf_at_infinite),
        "U_pairs_infinite": d.u_pairs_infinite,
    }
