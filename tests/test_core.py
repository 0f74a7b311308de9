"""Value types: multiplicities, factored indices, descriptions, formulas."""

import functools
import random
import sys
from typing import Dict, Optional

import pytest

from szk import corpus
from szk.core import (INFINITE, OMEGA, Div, Index, PPFormula, PrimeTailShape,
                      SzmielewDescription, TailSpec, Tor, check_atom,
                      direct_sum, div, is_omega, is_prime, make_description,
                      make_prime_tail, mult_add, p_adic_valuation,
                      prime_factors, tor, validate)


class TestOmega:
    def test_ordering(self):
        assert OMEGA > 10 ** 9
        assert OMEGA >= OMEGA
        assert not OMEGA < 5
        assert not OMEGA < OMEGA
        assert 5 < OMEGA
        assert not OMEGA <= 5

    def test_absorbing_addition(self):
        assert mult_add(OMEGA, 3) is OMEGA
        assert mult_add(3, OMEGA) is OMEGA
        assert mult_add(2, 3) == 5
        assert OMEGA + 7 is OMEGA
        assert 7 + OMEGA is OMEGA

    def test_identity_semantics(self):
        assert is_omega(OMEGA)
        assert not is_omega(10 ** 12)
        assert hash(OMEGA) == hash(OMEGA)


class TestArithmetic:
    def test_prime_predicate(self):
        primes = [n for n in range(60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                          47, 53, 59]

    def test_factorization_round_trip(self):
        for n in list(range(1, 200)) + [720720, 2 ** 10 * 3 ** 5]:
            fac = prime_factors(n)
            prod = 1
            for p, e in fac.items():
                assert is_prime(p) and e >= 1
                prod *= p ** e
            assert prod == n

    def test_factorization_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime_factors(0)

    def test_matches_trial_division(self):
        ns = list(range(1, 10 ** 5 + 1))
        rng = random.Random(40)
        ns += [rng.getrandbits(40) | 1 << 39 for _ in range(200)]
        for n in ns:
            assert is_prime(n) == trial_is_prime(n), n
            assert list(prime_factors(n).items()) == trial_factors(n), n

    def test_large_primes(self):
        m61 = 2 ** 61 - 1
        assert is_prime(m61)
        assert prime_factors(m61 * (2 ** 19 - 1)) == {2 ** 19 - 1: 1, m61: 1}
        p, q = 1099511627689, 1099511627791
        assert prime_factors(p * q * 2) == {2: 1, p: 1, q: 1}
        m31 = 2 ** 31 - 1
        assert prime_factors(3 * m31 ** 2) == {3: 1, m31: 2}

    def test_strong_pseudoprimes(self):
        # the least strong pseudoprimes to the prime bases up to 31 and to 37
        assert not is_prime(3825123056546413051)
        assert not is_prime(318665857834031151167461)
        assert prime_factors(318665857834031151167461) == {
            399165290221: 1, 798330580441: 1}

    def test_rejects_beyond_exact_range(self):
        n = 33 * 10 ** 23
        assert prime_factors(n - 1) == {n - 1: 1}  # the bound minus 1 is prime
        with pytest.raises(ValueError, match="3.3e24"):
            is_prime(n + 1)
        with pytest.raises(ValueError, match="3.3e24"):
            prime_factors((2 ** 61 - 1) ** 2)
        # the bound applies to what is left after trial division
        assert prime_factors(2 ** 100 * 3) == {2: 100, 3: 1}

    def test_valuation(self):
        assert p_adic_valuation(40, 2) == 3
        assert p_adic_valuation(40, 5) == 1
        assert p_adic_valuation(40, 3) == 0


class TestIndex:
    def test_construction(self):
        assert Index.of(1).is_one
        assert Index.of(12).factors == ((2, 2), (3, 1))
        assert Index.prime_power(5, 0) == Index.one()
        assert Index.infinite().is_infinite

    def test_multiplication_exact(self):
        assert (Index.of(12) * Index.of(10)).value() == 120
        assert (Index.one() * Index.of(7)).value() == 7

    def test_infinite_absorbs(self):
        assert (Index.infinite() * Index.of(2)).is_infinite
        assert (Index.of(2) * Index.infinite()).is_infinite

    def test_value_of_infinite_raises(self):
        with pytest.raises(ValueError):
            Index.infinite().value()

    def test_value_too_long_to_print(self):
        # refused by size; the CLI test covers an exponent too large to build
        with pytest.raises(ValueError, match="Exceeds the limit"):
            Index.prime_power(2, 10 ** 7).value()
        assert Index.prime_power(2, 14000).value() == 2 ** 14000
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            assert Index.prime_power(2, 10 ** 5).value() == 2 ** 10 ** 5
        finally:
            sys.set_int_max_str_digits(limit)

    def test_repr(self):
        assert repr(Index.of(8)) == "Finite(8)"
        assert repr(Index.infinite()) == "Infinite"


class TestMakeDescription:
    def test_drops_zero_entries_and_sorts(self):
        d = make_description(cyclic={(3, 1): 2, (2, 5): 0, (2, 1): 1},
                             tf={5: 0, 3: 1})
        assert d.cyclic == (((2, 1), 1), ((3, 1), 2))
        assert d.tf == ((3, 1),)

    def test_trivial_prime_tail_becomes_none(self):
        d = make_description(prime_tail=make_prime_tail({}, 0, 0))
        assert d.prime_tail is None
        assert d.is_trivial

    def test_primes_and_max_exponent(self):
        d = make_description(cyclic={(2, 3): 1}, div={5: OMEGA},
                             cyclic_tail={3: TailSpec(4, 1)})
        assert d.primes() == [2, 3, 5]
        assert d.max_exponent() == 4


class TestDirectSum:
    def test_multiplicities_add(self):
        a = make_description(cyclic={(2, 1): 1}, tf={3: 2})
        b = make_description(cyclic={(2, 1): OMEGA}, tf={3: 1}, q_mult=1)
        s = direct_sum(a, b)
        assert s.cyclic_dict()[(2, 1)] is OMEGA
        assert s.tf_dict()[3] == 3
        assert s.q_mult == 1

    def test_tail_merge_raises_cutoff(self):
        a = make_description(cyclic_tail={2: TailSpec(1, 1)})
        b = make_description(cyclic_tail={2: TailSpec(3, 1)})
        s = direct_sum(a, b)
        spec = s.tail_dict()[2]
        assert spec.cutoff == 3 and spec.mult == 2
        # the lower tail's covered stretch becomes explicit blocks
        assert s.cyclic_dict() == {(2, 2): 1, (2, 3): 1}

    def test_tail_cutoff_respects_cyclic_blocks(self):
        a = make_description(cyclic={(2, 4): 1})
        b = make_description(cyclic_tail={2: TailSpec(1, 1)})
        s = direct_sum(a, b)
        assert s.tail_dict()[2].cutoff == 4
        assert validate(s) == []

    def test_prime_tail_shapes_merge(self):
        a = make_description(prime_tail=make_prime_tail({1: 1}, tf_mult=1))
        b = make_description(prime_tail=make_prime_tail({1: 2}, div_mult=OMEGA))
        s = direct_sum(a, b)
        assert s.prime_tail.pattern_dict() == {1: 3}
        assert s.prime_tail.tf_mult == 1
        assert s.prime_tail.div_mult is OMEGA


class TestDirectSumMatchesPairwiseFold:
    """The n-ary sum against a left fold of the two-argument sum it replaced."""

    def test_seeded_sums(self):
        rng = random.Random(20261018)
        # a zero-multiplicity block above a tail at the same prime: the fold
        # drops it in its own summand, before it can raise the tail's cutoff
        specials = [make_description(cyclic={(2, 5): 0}),
                    make_description(cyclic_tail={2: TailSpec(1, 1)}),
                    make_description(cyclic={(2, 4): 1, (3, 2): OMEGA}),
                    make_description(cyclic_tail={2: TailSpec(3, OMEGA)}),
                    make_description(prime_tail=make_prime_tail({1: 1}, tf_mult=1))]
        sums = 0
        for _ in range(2500):
            descs = [rng.choice(specials) if rng.random() < 0.2
                     else corpus.random_description(rng, finite_dp_only=rng.random() < 0.5)
                     for _ in range(rng.randint(2, 5))]
            assert direct_sum(*descs) == functools.reduce(pairwise_sum, descs), descs
            sums += 1
        assert sums >= 2000

    def test_zero_term_beside_a_tail(self):
        zero, tail = make_description(cyclic={(2, 5): 0}), make_description(
            cyclic_tail={2: TailSpec(1, 1)})
        for descs in ([zero, tail], [tail, zero], [tail, zero, tail]):
            s = direct_sum(*descs)
            assert s == functools.reduce(pairwise_sum, descs)
            assert s.tail_dict()[2].cutoff == 1

    def test_one_and_no_summands(self):
        d = corpus.random_description(random.Random(3), finite_dp_only=False)
        assert direct_sum(d) == d
        assert direct_sum() == make_description()


class TestValidate:
    def test_valid_description(self):
        d = make_description(cyclic={(2, 3): OMEGA}, div={3: 1})
        assert validate(d) == []

    def test_rejects_composite_base(self):
        d = make_description(cyclic={(4, 1): 1})
        assert any("not prime" in e for e in validate(d))

    def test_rejects_cutoff_below_listed_exponent(self):
        d = make_description(cyclic={(2, 5): 1},
                             cyclic_tail={2: TailSpec(2, 1)})
        assert any("cutoff" in e for e in validate(d))

    def test_rejects_zero_exponent(self):
        d = make_description(cyclic={(2, 0): 1})
        assert any("exponent" in e for e in validate(d))


class TestValidateMatchesScan:
    """validate's table of the largest listed exponent per prime reports what
    the per-tail scan of every cyclic block reported, in text and order."""

    @staticmethod
    def invalid_description(rng):
        def base():
            return rng.choice([2, 3, 5, 7, 4, 6, 9, 1, 0, -3])

        def mult():
            return rng.choice([1, 2, OMEGA, 0, -1, -4])

        cyclic = {(base(), rng.randint(-2, 6)): mult()
                  for _ in range(rng.randint(0, 6))}
        tf = {base(): mult() for _ in range(rng.randint(0, 3))}
        dv = {base(): mult() for _ in range(rng.randint(0, 3))}
        tails = {base(): TailSpec(rng.randint(-1, 7), mult())
                 for _ in range(rng.randint(0, 4))}
        pattern = tuple((rng.randint(-1, 4), mult())
                        for _ in range(rng.randint(0, 3)))
        shape = rng.choice([None, PrimeTailShape(pattern, mult(), mult())])
        return SzmielewDescription(
            tuple(cyclic.items()), tuple(tf.items()), tuple(dv.items()),
            rng.choice([0, 1, OMEGA, -2]), tuple(tails.items()), shape)

    def test_matches_scan(self):
        rng = random.Random(31)
        invalid = cutoffs = 0
        for _ in range(3000):
            d = self.invalid_description(rng)
            errs = validate(d)
            assert errs == scan_validate(d), d
            invalid += bool(errs)
            cutoffs += any("below listed exponent" in e for e in errs)
        assert invalid > 2500 and cutoffs > 300


class TestFormulas:
    def test_atoms_sorted_canonically(self):
        f = PPFormula.of(Div(2, 3, 1), Tor(4), Tor(2))
        assert f.atoms == (Tor(2), Tor(4), Div(2, 3, 1))

    def test_top(self):
        assert PPFormula.top().is_top
        assert not tor(2).is_top

    def test_conjoin(self):
        f = tor(2).conjoin(div(3, 1, 0))
        assert f.atoms == (Tor(2), Div(3, 1, 0))

    def test_mentioned_primes(self):
        f = PPFormula.of(Tor(12), Div(5, 2, 0))
        assert f.mentioned_primes() == [2, 3, 5]
        assert tor(1).mentioned_primes() == []

    def test_check_atom(self):
        assert check_atom(Tor(0)) is not None
        assert check_atom(Div(4, 2, 1)) is not None
        assert check_atom(Div(2, 2, 2)) is not None
        assert check_atom(Div(2, 2, 1)) is None


def trial_is_prime(n):
    """The trial-division primality test that core.is_prime replaced."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def trial_factors(n):
    """The trial-division factorization that core.prime_factors replaced."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return list(out.items())


def pairwise_sum(a: SzmielewDescription, b: SzmielewDescription) -> SzmielewDescription:
    """The two-argument direct sum that the n-ary core.direct_sum replaced."""
    if a.prime_tail is not None and b.prime_tail is not None:
        pa, pb = a.prime_tail, b.prime_tail
        pat = pa.pattern_dict()
        for n, m in pb.pattern_dict().items():
            pat[n] = mult_add(pat.get(n, 0), m)
        prime_tail: Optional[PrimeTailShape] = make_prime_tail(
            pat, mult_add(pa.tf_mult, pb.tf_mult), mult_add(pa.div_mult, pb.div_mult))
    else:
        prime_tail = a.prime_tail or b.prime_tail

    cyclic = a.cyclic_dict()
    for pn, m in b.cyclic_dict().items():
        cyclic[pn] = mult_add(cyclic.get(pn, 0), m)
    tf = a.tf_dict()
    for p, m in b.tf_dict().items():
        tf[p] = mult_add(tf.get(p, 0), m)
    div = a.div_dict()
    for p, m in b.div_dict().items():
        div[p] = mult_add(div.get(p, 0), m)

    tails: Dict[int, TailSpec] = {}
    all_tail_primes = set(a.tail_dict()) | set(b.tail_dict())
    for p in all_tail_primes:
        sa = a.tail_dict().get(p)
        sb = b.tail_dict().get(p)
        max_exp = max([n for (q, n) in cyclic if q == p], default=0)
        cut = max([s.cutoff for s in (sa, sb) if s is not None] + [max_exp])
        total = 0
        for spec in (sa, sb):
            if spec is None:
                continue
            for n in range(spec.cutoff + 1, cut + 1):
                cyclic[(p, n)] = mult_add(cyclic.get((p, n), 0), spec.mult)
            total = mult_add(total, spec.mult)
        tails[p] = TailSpec(cut, total)

    return make_description(cyclic, tf, div, mult_add(a.q_mult, b.q_mult),
                            tails, prime_tail)


def scan_validate(desc: SzmielewDescription):
    """The validate that scanned every cyclic block for each tail."""
    errs = []
    for (p, n), m in desc.cyclic:
        if not is_prime(p):
            errs.append("cyclic base %d is not prime" % p)
        if n < 1:
            errs.append("cyclic exponent must be >= 1 (got %d at prime %d)" % (n, p))
        if not is_omega(m) and m < 0:
            errs.append("negative multiplicity at Z(%d^%d)" % (p, n))
    for p, m in desc.tf:
        if not is_prime(p):
            errs.append("tf base %d is not prime" % p)
        if not is_omega(m) and m < 0:
            errs.append("negative multiplicity at Z_(%d)" % p)
    for p, m in desc.div:
        if not is_prime(p):
            errs.append("div base %d is not prime" % p)
        if not is_omega(m) and m < 0:
            errs.append("negative multiplicity at Z(%d^inf)" % p)
    cyc = desc.cyclic_dict()
    for p, spec in desc.cyclic_tail:
        if not is_prime(p):
            errs.append("tail base %d is not prime" % p)
        if spec.mult == 0:
            errs.append("tail(%d): multiplicity must be >= 1" % p)
        if not is_omega(spec.mult) and spec.mult < 0:
            errs.append("tail(%d): negative multiplicity" % p)
        listed = [n for (q, n) in cyc if q == p]
        if listed and spec.cutoff < max(listed):
            errs.append("tail(%d): cutoff %d below listed exponent %d"
                        % (p, spec.cutoff, max(listed)))
    if not is_omega(desc.q_mult) and desc.q_mult < 0:
        errs.append("negative Q multiplicity")
    if desc.prime_tail is not None:
        for n, m in desc.prime_tail.cyclic_pattern:
            if n < 1:
                errs.append("prime-tail exponent must be >= 1 (got %d)" % n)
    return errs
