"""Closed-form dp-rank, classification predicates, vc-density, seed witnesses.

dp_rank, classify and vc_density read one witness-free RankReport.  Its value
is computed twice, once by the four-case dispatch and once by the epsilon
equation, and the two must agree; a disagreement is an internal error (CLI
exit code 2), never a user error.  Witnesses are built only by seed_witnesses
and by the report's witnesses property, which rank_json prints.

The report of a strict form is kept for the last core.DESCRIPTION_MEMO
strict forms, so dp_rank, classify and vc_density on equal descriptions share
one RankReport: it is read-only, and rank_json copies its dicts.
"""

from __future__ import annotations

import functools
import sys
from math import prod
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .core import (DESCRIPTION_MEMO, PPFormula, Record, SzmielewDescription,
                   div, tor)
from .normalize import (DerivedSets, _derived_sets, derived_sets_json,
                        normalize)


def _gap_subset(ns: Iterable[int]) -> List[int]:
    """A maximum subset with pairwise differences >= 2, ascending.

    Greedy ascending scan; optimal because taking the least available
    element never blocks more later choices than any alternative.
    """
    out: List[int] = []
    for n in sorted(set(ns)):
        if not out or n - out[-1] >= 2:
            out.append(n)
    return out


def gap_count(ns: Iterable[int]) -> int:
    """Size of a maximum subset with pairwise differences >= 2."""
    return len(_gap_subset(ns))


class WitnessFamily(Record):
    tag: str
    formulas: Tuple[PPFormula, ...]


class RankReport(Record):
    dp: Optional[int]                  # None means infinite
    strong: bool
    case_tag: Union[int, str]          # 1..4, "finite-group", or "infinite"
    derived: DerivedSets
    epsilons: Dict[str, int]
    partition: Dict[str, Tuple[int, ...]]

    @property
    def witnesses(self) -> Tuple[WitnessFamily, ...]:
        return _seed_witnesses(self.derived)


class Classification(Record):
    strong: bool
    finite_dp: bool
    dp_minimal: bool


def _is_torsion_free(strict: SzmielewDescription) -> bool:
    shape = strict.prime_tail
    return (not strict.cyclic and not strict.div and not strict.cyclic_tail
            and (shape is None or (not shape.cyclic_pattern and shape.div_mult == 0)))


def _finite_dp(ds: DerivedSets) -> bool:
    return not (ds.tf_inf_infinite or ds.d_inf_infinite or ds.u_pairs_infinite
                or ds.u_inf_at_infinite)


def _strong(ds: DerivedSets) -> bool:
    return not (ds.tf_inf_infinite or ds.u_pairs_infinite or ds.u_inf_at_infinite)


def _partition(strict: SzmielewDescription, ds: DerivedSets
               ) -> Dict[str, Tuple[int, ...]]:
    cyclic_primes = sorted({p for (p, _n), _m in strict.cyclic}
                           | set(ds.u_inf))
    p1 = tuple(sorted(ds.u_inf))
    p2 = tuple(p for p in cyclic_primes
               if p not in ds.u_inf and ds.u_inf_at.get(p))
    placed = set(p1) | set(p2)
    p3 = tuple(p for p in cyclic_primes if p not in placed)
    return {"P1": p1, "P2": p2, "P3": p3}


def _epsilons(strict: SzmielewDescription, ds: DerivedSets) -> Dict[str, int]:
    shape = strict.prime_tail
    has_tf = bool(strict.tf) or (shape is not None and shape.tf_mult != 0)
    has_div = bool(strict.div) or (shape is not None and shape.div_mult != 0)
    return {
        "U": 1 if ds.u_inf else 0,
        "Exp": 0 if strict.bounded_exponent else 1,
        "Tf": 1 if has_tf else 0,
        "D": 1 if has_div else 0,
    }


def _gap_sum(ds: DerivedSets) -> int:
    return sum(gap_count(ns) for ns in ds.u_inf_at.values())


def _epsilon_value(ds: DerivedSets, eps: Dict[str, int]) -> int:
    gaps = _gap_sum(ds)
    head = gaps + len(ds.u_inf)
    lone = (1 - max(eps["U"], eps["Tf"], eps["D"])) * eps["Exp"]
    tail_term = max(eps["Tf"], eps["D"]) * max(1 - eps["U"],
                                               len(ds.tf_inf), len(ds.d_inf))
    return head + lone + tail_term


def _case_value(strict: SzmielewDescription, ds: DerivedSets
                ) -> Tuple[Union[int, str], int]:
    gaps = _gap_sum(ds)
    if ds.u_inf:
        return 4, gaps + len(ds.u_inf) + max(len(ds.tf_inf), len(ds.d_inf))
    if _is_torsion_free(strict):
        return 1, max(1, len(ds.tf_inf))
    if strict.bounded_exponent:
        return 2, gaps
    return 3, gaps + max(1, len(ds.tf_inf), len(ds.d_inf))


def seed_witnesses(desc: SzmielewDescription) -> Tuple[WitnessFamily, ...]:
    """Constructive inp-families certifying the closed-form contributions.

    Each family is valid on its own (checked downstream by the oracle); the
    tag names what the family certifies, and its size equals that term.  A
    divisible-socles modulus too long to print raises ValueError unbuilt.
    """
    return _seed_witnesses(_derived_sets(normalize(desc)))


def _seed_witnesses(ds: DerivedSets) -> Tuple[WitnessFamily, ...]:
    out: List[WitnessFamily] = []
    if ds.tf_inf:
        fams = tuple(div(p, 1, 0) for p in sorted(ds.tf_inf))
        out.append(WitnessFamily("tf-quotients", fams))
    if ds.d_inf:
        primes = sorted(ds.d_inf)
        # each modulus is the product of the other primes, read off the
        # product of all of them.  The longest is measured before any is
        # built, as Index.value measures an index: past the digit limit it
        # could not be printed
        whole = prod(primes)
        limit = sys.get_int_max_str_digits()
        if limit and len(primes) > 1 and whole // primes[0] >= 10 ** limit:
            raise ValueError("divisible-socles witness family has moduli of "
                             "over %d digits, too long to print" % limit)
        fams = tuple(tor(whole // p if len(primes) > 1 else p) for p in primes)
        out.append(WitnessFamily("divisible-socles", fams))
    for p in sorted(ds.u_inf_at):
        exps = [n + 1 for n in _gap_subset(ds.u_inf_at[p])]
        if not exps:
            continue
        fams = tuple(div(p, e, e - i) for i, e in enumerate(exps, start=1))
        out.append(WitnessFamily("cyclic-gaps:%d" % p, fams))
    if ds.u_inf:
        fams = tuple(div(p, 1, 0) for p in sorted(ds.u_inf))
        out.append(WitnessFamily("unbounded-length", fams))
    for p in sorted(ds.u_inf_at_infinite):
        fams = tuple(div(p, 2 * n, n) for n in (1, 3, 7))
        out.append(WitnessFamily("non-strong-prefix:%d" % p, fams))
    return tuple(out)


def _value(strict: SzmielewDescription, ds: DerivedSets, eps: Dict[str, int]
           ) -> Tuple[Optional[int], Union[int, str]]:
    """The dp-rank (None for infinite) and its case tag; a finite value from
    the case equation must equal the epsilon equation's."""
    if strict.is_finite:
        return 0, "finite-group"
    if not _finite_dp(ds):
        return None, "infinite"
    case, value = _case_value(strict, ds)
    eps_value = _epsilon_value(ds, eps)
    if value != eps_value:
        raise AssertionError(
            "case equation %d gives %d but epsilon equation gives %d"
            % (case, value, eps_value))
    return value, case


@functools.lru_cache(maxsize=DESCRIPTION_MEMO)
def _rank_of(strict: SzmielewDescription) -> RankReport:
    """The rank report of a strict form; equal strict forms may share one."""
    ds = _derived_sets(strict)
    eps = _epsilons(strict, ds)
    dp, case = _value(strict, ds, eps)
    return RankReport(dp, _strong(ds), case, ds, eps, _partition(strict, ds))


def dp_rank(desc: SzmielewDescription) -> RankReport:
    return _rank_of(normalize(desc))


def classify(desc: SzmielewDescription) -> Classification:
    report = dp_rank(desc)
    ds, strong = report.derived, report.strong
    finite_dp = _finite_dp(ds)
    if finite_dp and not strong:
        raise AssertionError("finite dp-rank must imply strong")
    finitely_many_torsion = not (ds.d_inf_infinite or ds.u_pairs_infinite)
    if (strong and finitely_many_torsion) != finite_dp:
        raise AssertionError("strongness corollary violated")
    if finite_dp != (report.dp is not None):
        raise AssertionError("finite-dp predicate disagrees with dp_rank")
    return Classification(strong, finite_dp, report.dp == 1)


class VcReport(Record):
    values: Dict[int, Optional[int]]   # None means infinite


def vc_density(desc: SzmielewDescription, ms: Iterable[int]) -> VcReport:
    dp = dp_rank(desc).dp
    out: Dict[int, Optional[int]] = {}
    for m in ms:
        if m < 1:
            raise ValueError("vc-density argument must be >= 1")
        out[m] = None if dp is None else m * dp
    return VcReport(out)


# ---------------------------------------------------------------------------
# JSON


def witnesses_json(ws: Iterable[WitnessFamily]) -> list:
    from .dsl import render_formula
    return [{"tag": w.tag, "formulas": [render_formula(f) for f in w.formulas]}
            for w in ws]


def rank_json(r: RankReport) -> dict:
    return {
        "dp": "inf" if r.dp is None else r.dp,
        "strong": r.strong,
        "case": r.case_tag,
        "epsilons": dict(r.epsilons),
        "partition": {k: list(v) for k, v in r.partition.items()},
        "derived": derived_sets_json(r.derived),
        "witness": witnesses_json(r.witnesses),
    }


def classify_json(c: Classification) -> dict:
    return {"strong": c.strong, "finite_dp": c.finite_dp,
            "dp_minimal": c.dp_minimal}


def vc_json(v: VcReport) -> dict:
    return {"values": [{"m": m, "vc": "inf" if x is None else x}
                       for m, x in sorted(v.values.items())]}
