import random
from fractions import Fraction
from math import gcd, prod

import pytest

from orbdim.modcurve import (
    ETA_HAUPTMODUL_LEVELS,
    CuspClass,
    cusp_classes,
    cusp_function,
    dedekind_psi,
    divisor_order,
    divisors,
    euler_phi,
    factorize,
    find_cusp,
    genus_zero_levels,
    hauptmodul,
)
from orbdim.qseries import EtaQuotient, etaq_expand

F = Fraction


def test_genus_zero_levels_exact_set():
    levels = genus_zero_levels()
    assert levels == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25}
    assert 18 in levels
    assert 11 not in levels
    assert 1 in levels


def test_cusp_classes_small_levels():
    reps4 = {(c.a, c.c): c.width for c in cusp_classes(4)}
    assert reps4 == {(1, 4): 1, (1, 2): 1, (1, 1): 4}
    reps6 = {(c.a, c.c): c.width for c in cusp_classes(6)}
    assert reps6 == {(1, 6): 1, (1, 3): 2, (1, 2): 3, (1, 1): 6}
    reps1 = cusp_classes(1)
    assert len(reps1) == 1 and reps1[0].width == 1


def test_cusp_counts_and_width_sums_to_30():
    for n in range(1, 31):
        reps = cusp_classes(n)
        assert len(reps) == sum(euler_phi(gcd(c, n // c)) for c in divisors(n))
        assert sum(r.width for r in reps) == dedekind_psi(n)


def test_dedekind_psi_values():
    assert dedekind_psi(6) == 12
    assert dedekind_psi(2) == 3
    assert dedekind_psi(1) == 1
    # multiplicative sanity on a prime power
    assert dedekind_psi(16) == 16 + 8
    with pytest.raises(ValueError):
        dedekind_psi(0)


def test_factorize_against_trial_products():
    assert factorize(1) == {}
    assert factorize(720) == {2: 4, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}
    for n in range(1, 300):
        f = factorize(n)
        assert all(len(divisors(p)) == 2 for p in f)
        assert n == prod(p ** e for p, e in f.items())
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
    with pytest.raises(ValueError):
        factorize(0)


def test_cusp_representatives_coprime_and_reduced():
    for n in (12, 16, 18, 24, 25, 30):
        for rep in cusp_classes(n):
            assert gcd(rep.a, rep.c) == 1
            d = gcd(rep.c, n // rep.c)
            assert rep.width == (n // rep.c) // d
            assert 1 <= rep.a
            # minimality: no smaller positive representative of the same class
            for smaller in range(1, rep.a):
                assert not ((rep.a - smaller) % d == 0 and gcd(smaller, rep.c) == 1)


def test_hauptmodul_quotients():
    assert hauptmodul(2).exps == {1: 24, 2: -24}
    assert hauptmodul(6).exps == {1: 5, 2: -1, 3: 1, 6: -5}
    assert hauptmodul(8).exps == {1: 4, 2: -2, 4: 2, 8: -4}
    with pytest.raises(NotImplementedError) as err:
        hauptmodul(9)
    assert "Conway-Norton" in str(err.value)


def test_hauptmodul_leading_terms():
    for n in (2, 3, 5, 7, 13):
        s = etaq_expand(hauptmodul(n), 2)
        assert s.coefficient(-1) == 1
        assert s.coefficient(0) == F(-24, n - 1)
    for n, c0 in ((4, -8), (6, -5), (8, -4)):
        s = etaq_expand(hauptmodul(n), 2)
        assert s.coefficient(-1) == 1
        assert s.coefficient(0) == c0


def test_cusp_function_examples():
    f = cusp_function(4, find_cusp(4, 1, 2))
    assert f.quotient.exps == {1: 8, 2: -24, 4: 16}
    f = cusp_function(2, find_cusp(2, 1, 1))
    assert f.quotient.exps == {1: -24, 2: 24}
    f = cusp_function(8, find_cusp(8, 1, 4))
    assert f.quotient.exps == {2: 4, 4: -12, 8: 8}


def test_divisor_order_examples():
    n2 = find_cusp(2, 1, 1)
    f = cusp_function(2, n2).quotient
    assert divisor_order(f, n2) == F(-1, 2)
    f12 = cusp_function(4, find_cusp(4, 1, 2)).quotient
    assert divisor_order(f12, find_cusp(4, 1, 2)) == -1
    assert divisor_order(f12, find_cusp(4, 1, 1)) == 0
    assert divisor_order(f12, find_cusp(4, 1, 4)) == 1
    const = EtaQuotient(4, {})
    for cusp in cusp_classes(4):
        assert divisor_order(const, cusp) == 0


def full_contract(n):
    """Full divisor contract for every named cusp function of level n."""
    reps = cusp_classes(n)
    inf = find_cusp(n, 1, n)
    zero = find_cusp(n, 1, 1)
    for s in reps:
        f = cusp_function(n, s).quotient
        assert f.weight() == 0
        degree = sum(divisor_order(f, t) * t.width for t in reps)
        assert degree == 0
        for t in reps:
            o = divisor_order(f, t)
            if t == s:
                assert o == F(-1, s.width)
            elif s == inf and t == zero:
                assert o == F(1, n)
            elif s != inf and t == inf:
                assert o == 1
            else:
                assert o == 0


@pytest.mark.parametrize("n", ETA_HAUPTMODUL_LEVELS)
def test_full_divisor_contract(n):
    full_contract(n)


def test_ord_infinity_matches_expansion_leading_exponent():
    rng = random.Random(31)
    done = 0
    while done < 20:
        n = rng.choice([2, 3, 4, 5, 6, 7, 8, 12, 13])
        divs = divisors(n)
        exps = {d: rng.randint(-3, 3) for d in divs}
        # force weight zero
        total = sum(exps.values())
        exps[1] -= total
        f = EtaQuotient(n, exps)
        if not f.exps:
            continue
        inf = find_cusp(n, 1, n)
        s = etaq_expand(f, f.leading_exponent() + 2)
        assert divisor_order(f, inf) == s.leading_exponent()
        done += 1


def test_cusp_labels():
    assert find_cusp(6, 1, 3).label() == "1/3"
    assert CuspClass(1, 1, 6).label() == "1/1"


def test_t2_deeper_coefficients():
    # (eta(t)/eta(2t))^24 = q^-1 - 24 + 276 q - 2048 q^2 + 11202 q^3 - ...
    s = etaq_expand(hauptmodul(2), 5)
    assert [s.coefficient(k) for k in range(-1, 4)] == [1, -24, 276, -2048, 11202]
