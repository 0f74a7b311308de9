"""Acceptance gate: twelve exact end-to-end checks, one line printed each.

Every check is exact (tolerance zero).  Each timed item fails at its budget
while it runs, so a pathological slowdown fails loudly instead of dragging.
"""

import itertools
import random

from szk import corpus
from szk.core import Tor, direct_sum
from szk.dsl import parse_formula, parse_group, render_formula
from szk.normalize import invariants, is_equivalent, normalize
from szk.oracle import breadth_search, verify_inp
from szk.ppeval import eval_formula, index_class, profile_stats
from szk.rank import classify, dp_rank, gap_count, vc_density
from szk.shatter import (coset_family, from_description, shatter_function,
                         subgroup_members, vc_dim)
from tests.conftest import within

PRIMES = (2, 3, 5, 7)


def _report(num, label, fn):
    try:
        fn()
    except BaseException:
        print("criterion %2d: FAIL  %s" % (num, label))
        raise
    print("criterion %2d: PASS  %s" % (num, label))


def test_criterion_01_torsion_free_equation():
    def check():
        for k in range(1, 5):
            text = " + ".join("Z_(%d)^w" % p for p in PRIMES[:k])
            desc = parse_group(text)
            assert dp_rank(desc).dp == k
            r = breadth_search(desc, 2, k + 1)
            assert r.depth == k
            got = {render_formula(f) for f in r.witness}
            assert got == {"div(%d,1,0)" % p for p in PRIMES[:k]}
    _report(1, "torsion-free sums have dp-rank k with local-quotient witnesses",
            check)


def test_criterion_02_divisible_torsion_equation():
    def check():
        for k in range(1, 5):
            text = " + ".join("Z(%d^inf)^w" % p for p in PRIMES[:k])
            desc = parse_group(text)
            assert dp_rank(desc).dp == k
            r = breadth_search(desc, 1, k + 1)
            assert r.depth == k
            moduli = set()
            for f in r.witness:
                assert len(f.atoms) == 1 and isinstance(f.atoms[0], Tor)
                moduli.add(f.atoms[0].m)
            expected = set()
            for p in PRIMES[:k]:
                m = 1
                for q in PRIMES[:k]:
                    if q != p:
                        m *= q
                expected.add(m if k > 1 else p)
            # each witness kills exactly the socles at the other primes
            assert moduli == expected
    _report(2, "divisible sums have dp-rank k with coprime torsion witnesses",
            check)


def test_criterion_03_finite_exponent():
    def check():
        big = parse_group("Z(2^1)^w + Z(8)^w")
        small = parse_group("Z(2^1)^w + Z(4)^w")
        assert dp_rank(big).dp == 2
        assert dp_rank(small).dp == 1
        r = breadth_search(big, 4, 4)
        assert r.depth == 2
        assert {render_formula(f) for f in r.witness} == {"tor(2)", "div(2,1,0)"}
        assert breadth_search(small, 4, 4).depth == 1
    _report(3, "bounded-exponent gap pattern separates dp 2 from dp 1", check)


def test_criterion_04_mixed_unbounded():
    def check():
        mixed = parse_group("tail(2) + Z(3^inf)^w")
        assert dp_rank(mixed).dp == 2
        assert dp_rank(parse_group("tail(2)")).dp == 1
        fat = parse_group("tail(2) + Z(2^inf)^w")
        assert normalize(fat) == normalize(parse_group("tail(2)"))
        assert is_equivalent(fat, parse_group("tail(2)"))
        assert breadth_search(mixed, 6, 4).depth == 2
        assert breadth_search(fat, 6, 4).depth == 1
    _report(4, "unbounded tails absorb their divisible part and rank correctly",
            check)


def test_criterion_05_epsilon_equation(finite_dp_corpus):
    def check():
        assert len(finite_dp_corpus) >= 200
        for desc in finite_dp_corpus:
            report = dp_rank(desc)
            assert report.dp is not None
            ds = report.derived
            eps = report.epsilons
            gaps = sum(gap_count(ns) for ns in ds.u_inf_at.values())
            head = gaps + len(ds.u_inf)
            lone = (1 - max(eps["U"], eps["Tf"], eps["D"])) * eps["Exp"]
            tail_term = max(eps["Tf"], eps["D"]) * max(
                1 - eps["U"], len(ds.tf_inf), len(ds.d_inf))
            assert report.dp == head + lone + tail_term
    _report(5, "epsilon display equals the case equation on 200 descriptions",
            check)


def test_criterion_06_oracle_differential(finite_dp_corpus):
    def check():
        for desc in finite_dp_corpus:
            report = dp_rank(desc)
            b0 = normalize(desc).max_exponent() + 2
            r = breadth_search(desc, b0, report.dp + 1)
            assert r.depth == report.dp
    with within(600):
        _report(6, "breadth oracle matches the closed form on the whole "
                "corpus", check)


def test_criterion_07_non_strong_detection():
    def check():
        desc = parse_group("tail(2,w)")
        assert classify(desc).strong is False
        r = breadth_search(desc, 14, 3)
        assert r.depth >= 3
        fam = [parse_formula(t)
               for t in ("div(2,2,1)", "div(2,6,3)", "div(2,14,7)")]
        assert verify_inp(desc, fam).valid
    _report(7, "omega-multiplicity tail is non-strong with growing depth",
            check)


def test_criterion_08_strongness_characterization(mixed_corpus):
    def check():
        fixtures = [parse_group(t) for t in (
            "forall_p{Z_(P)^w}", "forall_p{Z(P^inf)^w}",
            "forall_p{Z(P^1)^w}", "forall_p{Z(P^inf)}",
            "forall_p{Z_(P)} + tail(2,w)")]
        for desc in list(mixed_corpus) + fixtures:
            c = classify(desc)
            if c.finite_dp:
                assert c.strong
            inv = invariants(desc)
            finitely_many = inv.defaults is None or not inv.defaults.torsion_infinite
            assert c.finite_dp == (c.strong and finitely_many)
    _report(8, "finite dp-rank iff strong with finitely many infinite p-torsions",
            check)


def test_criterion_09_subadditivity():
    def check():
        rng = random.Random(20260823)
        for _ in range(100):
            a = corpus.random_description(rng)
            b = corpus.random_description(rng)
            da, db = dp_rank(a).dp, dp_rank(b).dp
            ds = dp_rank(direct_sum(a, b)).dp
            assert max(da, db) <= ds <= da + db
        pairs = [("Z(%d^inf)^w" % p, "Z(%d^inf)^w" % q)
                 for p, q in itertools.combinations(PRIMES, 2)]
        pairs += [("Z(2^1)^w", "Z(3^1)^w"), ("Z(5^1)^w", "Z(7^1)^w"),
                  ("tail(2)", "tail(3)"), ("tail(5)", "tail(7)")]
        assert len(pairs) == 10
        for ta, tb in pairs:
            a, b = parse_group(ta), parse_group(tb)
            assert dp_rank(direct_sum(a, b)).dp == dp_rank(a).dp + dp_rank(b).dp
    _report(9, "dp-rank is subadditive, with equality on coprime torsion pairs",
            check)


def test_criterion_10_vc_density_linearity(finite_dp_corpus):
    def check():
        for desc in finite_dp_corpus:
            dp = dp_rank(desc).dp
            values = vc_density(desc, range(1, 6)).values
            assert values == {m: m * dp for m in range(1, 6)}
    _report(10, "vc-density is m times dp-rank for m up to 5", check)


def test_criterion_11_ppeval_brute_force():
    def check():
        rng = random.Random(4242)
        for _ in range(50):
            desc = corpus.random_finite_description(rng)
            g = from_description(desc)
            formulas = [corpus.random_formula(rng, primes=(2, 3, 5), max_exp=3)
                        for _ in range(20)]
            members = {}
            for f in formulas:
                members[f] = subgroup_members(g, f)
                stats = profile_stats(eval_formula(desc, f))
                assert not stats.cardinality.is_infinite
                assert stats.cardinality.value() == len(members[f])
            for f1, f2 in itertools.combinations(formulas, 2):
                inter = len(set(members[f1]) & set(members[f2]))
                expected = len(members[f1]) // inter
                idx = index_class(eval_formula(desc, f1), eval_formula(desc, f2))
                assert not idx.is_infinite and idx.value() == expected
    with within(300):
        _report(11, "symbolic profiles and indices match concrete "
                "enumeration", check)


def test_criterion_12_shatter_identities():
    def check():
        for text, formula in [("Z(4)", "tor(2)"), ("Z(8) + Z(2^1)", "tor(2)"),
                              ("Z(4) + Z(4)", "div(2,2,1)")]:
            g = from_description(parse_group(text))
            h = parse_formula(formula)
            assert 1 < len(subgroup_members(g, h)) < g.size
            assert vc_dim(coset_family(g, [h])) == 1
        for text in ("Z(4) + Z(4)", "Z(8) + Z(2^1)"):
            g = from_description(parse_group(text))
            for formula in ("tor(1)", "tor(2)", "div(2,3,1)"):
                h = parse_formula(formula)
                index = g.size // len(subgroup_members(g, h))
                fam = coset_family(g, [h])
                for n in range(1, 5):
                    if index > n:
                        assert shatter_function(fam, n) == n + 1
    _report(12, "coset families shatter exactly as their index allows", check)
