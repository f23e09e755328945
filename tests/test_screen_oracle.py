"""Differential test of the integer branch-and-bound screener against the
plain recursive enumerator it replaced, kept here as the oracle, and of its
integer tables against the Fraction formulas they replaced."""

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest

from orbdim import orbifold
from orbdim.cases import load_cases
from orbdim.liealg import (
    AffineStructure,
    affine_conformal_weight,
    build_root_system,
    dominant_weights_of_level,
    dot,
    scale_vector,
)
from orbdim.orbifold import (
    _factor_setup,
    _level_table,
    _scaled,
    _scaled_buckets,
    _setups,
    safe_rho_cap,
    screen_problematic_modules,
)

from test_lie_oracle import _check_alcove_condition, _coweight_to_coroot_coords, _weyl_antidominant


def _pairing_norm_bound(rs, level, h):
    """max over dominant lambda of level <= k of -min mu(h): a corner of an LP."""
    h_minus, _ = _weyl_antidominant(rs, h)
    best = Fraction(0)
    for j in range(rs.rank):
        unit = tuple(int(i == j) for i in range(rs.rank))
        v = -rs.pair_weight_coweight(unit, h_minus)
        best = max(best, v / rs.comarks[j])
    return level * best


def _screen_oracle(structure, hs, floor=1, rho_cap=3):
    """Walks the full product of dominant weights with a Fraction add per node."""
    floor = Fraction(floor)
    comps = structure.components
    if len(hs) != len(comps):
        raise ValueError("one Cartan element per simple factor")
    for (kind, _), h in zip(comps, hs):
        if not _check_alcove_condition(build_root_system(kind), h):
            raise ValueError(f"{kind} component violates alpha(h) >= -1")
    factors = []
    hh = Fraction(0)
    bound = Fraction(0)
    for (kind, level), h in zip(comps, hs):
        rs = build_root_system(kind)
        h_minus, _ = _weyl_antidominant(rs, h)
        lams = dominant_weights_of_level(rs, level)
        data = [(lam, affine_conformal_weight(rs, level, lam),
                 rs.pair_weight_coweight(lam, h_minus)) for lam in lams]
        factors.append(data)
        hh += level * rs.coweight_form(h, h)
        bound += _pairing_norm_bound(rs, level, h)
    if Fraction(rho_cap) + 1 - bound + hh / 2 < floor:
        raise ValueError(
            f"rho cap {rho_cap} is not provably safe here (min-term bound {bound}, "
            f"<h,h>/2 = {hh / 2}); raise the cap")
    out = []

    def rec(idx, lam_acc, rho_acc, min_acc):
        if rho_acc > rho_cap:
            return
        if idx == len(factors):
            if rho_acc.denominator == 1 and rho_acc >= 2:
                twisted = rho_acc + min_acc + hh / 2
                if twisted < floor:
                    out.append((tuple(lam_acc), rho_acc, twisted))
            return
        for lam, rho, mn in factors[idx]:
            rec(idx + 1, lam_acc + [lam], rho_acc + rho, min_acc + mn)

    rec(0, [], Fraction(0), Fraction(0))
    out.sort(key=lambda rec: (rec[2], rec[0]))
    return out


SCREENS = [(case, i) for case in load_cases() for i in range(1, case.n)]


def _assert_same(got, want):
    assert got == want
    for lams, rho, tw in got:
        assert type(rho) is Fraction and type(tw) is Fraction
        assert all(type(x) is int for lam in lams for x in lam)


def test_all_32_screens_match_the_oracle():
    assert len(SCREENS) == 32
    nonempty = 0
    for case, i in SCREENS:
        reps = case.powers[i][0]
        want = _screen_oracle(case.source, reps, floor=1,
                              rho_cap=safe_rho_cap(case.source, reps, floor=1))
        _assert_same(screen_problematic_modules(case.source, reps, floor=1), want)
        nonempty += bool(want)
    assert nonempty >= 2       # the eleven- and seventeen-element lists at least


@pytest.mark.parametrize("floor", [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)])
def test_random_floors_match_the_oracle(floor):
    rng = random.Random(20170403 + int(2 * floor))
    picked = rng.sample(SCREENS, 6)
    # cases 11 and 15 at i = 1 carry the paper's lists; keep them in every draw
    picked += [(c, 1) for c in load_cases() if c.id in ("11", "15")]
    for case, i in picked:
        reps = case.powers[i][0]
        want = _screen_oracle(case.source, reps, floor=floor,
                              rho_cap=safe_rho_cap(case.source, reps, floor=floor))
        _assert_same(screen_problematic_modules(case.source, reps, floor=floor), want)


def test_larger_caps_and_fractional_caps_match_the_oracle():
    """The derived cap loses nothing: the oracle at larger caps finds the same."""
    case11 = next(c for c in load_cases() if c.id == "11")
    got = screen_problematic_modules(case11.source, case11.h, floor=1)
    for cap in (3, Fraction(7, 2), 5):
        _assert_same(got, _screen_oracle(case11.source, case11.h, floor=1, rho_cap=cap))


def test_unprovable_cap_raises():
    case15 = next(c for c in load_cases() if c.id == "15")
    assert safe_rho_cap(case15.source, case15.h) > 1
    with pytest.raises(ValueError, match="not provably safe"):
        _screen_oracle(case15.source, case15.h, floor=1, rho_cap=1)


def test_one_cartan_element_per_factor():
    case15 = next(c for c in load_cases() if c.id == "15")
    for hs in (case15.h[:1], case15.h + case15.h[:1]):
        for call in (safe_rho_cap, screen_problematic_modules):
            with pytest.raises(ValueError, match="one Cartan element per simple factor"):
                call(case15.source, hs)


def test_level_tables_match_affine_conformal_weight():
    factors = {factor for case in load_cases() for factor in case.source.components}
    assert len(factors) == 34
    for kind, level in sorted(factors):
        rs = build_root_system(kind)
        R, table = _level_table(kind, level)
        assert [lam for lam, _ in table] == dominant_weights_of_level(rs, level)
        for lam, r in table:
            assert type(r) is int
            assert Fraction(r, R) == affine_conformal_weight(rs, level, lam)


def test_factor_setups_match_the_fraction_formulas():
    """u = C^{-1} h^-, k <h,h> and the min-term bound of every factor of the 32
    screens' representatives, against the Fraction antidominant walk, the
    Fraction inverse Cartan matrix, coweight_form and the oracle's LP bound."""
    checked = 0
    for case, i in SCREENS:
        for (kind, level), h in zip(case.source.components, case.powers[i][0]):
            rs = build_root_system(kind)
            U, E, hh, bound, _, _ = _factor_setup(kind, level, *scale_vector(h))
            assert all(type(x) is int for x in U) and type(E) is int
            h_minus, _ = _weyl_antidominant(rs, h)
            assert tuple(Fraction(x, E) for x in U) == _coweight_to_coroot_coords(rs, h_minus)
            assert hh == level * rs.coweight_form(h, h)
            assert bound == _pairing_norm_bound(rs, level, h)
            checked += 1
    assert checked == sum((c.n - 1) * len(c.source.components) for c in load_cases())


def _permuted(structure, hs, perm):
    comps = structure.components
    return (AffineStructure(tuple(comps[p] for p in perm), structure.abelian_rank),
            tuple(hs[p] for p in perm))


def test_permuting_the_factors_permutes_every_tuple():
    """The walk order is chosen from bucket counts, so reversing the factors or
    shuffling them changes which factor is walked last; each output tuple must
    follow the new factor order and the set of records must stay the same."""
    rng = random.Random(20170419)
    for floor in (Fraction(1), Fraction(2)):
        for case, i in SCREENS:
            reps = case.powers[i][0]
            base = screen_problematic_modules(case.source, reps, floor=floor)
            n = len(reps)
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for perm in (list(range(n - 1, -1, -1)), shuffled):
                got = screen_problematic_modules(*_permuted(case.source, reps, perm), floor=floor)
                assert len(got) == len(base)
                assert set(got) == {(tuple(lams[p] for p in perm), rho, tw)
                                    for lams, rho, tw in base}


def test_no_factors_screens_nothing():
    empty = AffineStructure(())
    assert safe_rho_cap(empty, ()) == 3
    for floor in (1, 6):
        assert screen_problematic_modules(empty, (), floor=floor) == []


@pytest.mark.parametrize("factor, h, found_at_1", [
    ((("A", 4), 5), (Fraction(1, 5),) * 4, 3),
    ((("A", 2), 3), (Fraction(1, 3),) * 2, 0),
    ((("A", 2), 6), (Fraction(1, 3),) * 2, 2),
    ((("A", 1), 16), (Fraction(1, 2),), 0),
])
def test_one_factor_matches_the_oracle(factor, h, found_at_1):
    """With one factor only the residue-indexed last-factor walk runs."""
    structure = AffineStructure((factor,))
    for floor in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
        want = _screen_oracle(structure, (h,), floor=floor,
                              rho_cap=safe_rho_cap(structure, (h,), floor=floor))
        got = screen_problematic_modules(structure, (h,), floor=floor)
        _assert_same(got, want)
        if floor == 1:
            assert len(got) == found_at_1


# -- the bucket memo in _factor_setup --------------------------------------------

def _buckets_oracle(structure, hs):
    """(D, buckets) as screen_problematic_modules built them on every call
    before _factor_setup kept them, verbatim but for the 4-field unpacking."""
    comps = structure.components
    setups = [_factor_setup(kind, level, *scale_vector(h))[:4]
              for (kind, level), h in zip(comps, hs)]
    tables = [_level_table(kind, level) for kind, level in comps]
    D = lcm(*(R for R, _ in tables), *(E for _, E, _, _ in setups))
    buckets = []
    for (R, table), (U, E, _, _) in zip(tables, setups):
        scale = D // R
        u = [x * (D // E) for x in U]
        keyed: dict[tuple[int, int], list] = {}
        for lam, r in table:
            r *= scale
            keyed.setdefault((r, r + dot(lam, u)), []).append(lam)
        buckets.append(sorted(keyed.items()))
    return D, buckets


def test_memoized_buckets_scale_to_the_per_screen_buckets():
    """On all 32 screens: the same D, the same buckets in the same order, each
    with the same weights in the same order.  The buckets do not depend on
    the floor; test_floors_screen_the_same_on_memoized_buckets covers that."""
    for case, i in SCREENS:
        reps = case.powers[i][0]
        D, buckets = _scaled_buckets(_setups(case.source.components, _scaled(case.source, reps)))
        want_D, want = _buckets_oracle(case.source, reps)
        assert D == want_D
        assert [[(key, list(lams)) for key, lams in factor] for factor in buckets] == want


@pytest.mark.parametrize("floor", [Fraction(3, 2), Fraction(2), Fraction(6)])
def test_floors_screen_the_same_on_memoized_buckets(floor, monkeypatch):
    """Every one of the 32 screens, once on the memoized buckets and once with
    the buckets rebuilt by the oracle above, gives the same list.  The second
    pass searches with a memo of screens of its own, dropped afterwards, so it
    neither reads the first pass's rows nor leaves its own behind."""
    memoized = []
    for case, i in SCREENS:
        reps = case.powers[i][0]
        memoized.append(screen_problematic_modules(case.source, reps, floor=floor))
    current = []
    monkeypatch.setattr(orbifold, "_scaled_buckets", lambda setups: _buckets_oracle(*current))
    monkeypatch.setattr(orbifold, "_screen", lru_cache(maxsize=256)(orbifold._screen.__wrapped__))
    for (case, i), got in zip(SCREENS, memoized):
        current[:] = [case.source, case.powers[i][0]]
        _assert_same(got, screen_problematic_modules(*current, floor=floor))
    assert orbifold._screen.cache_info().misses == len(SCREENS)
    assert sum(map(len, memoized)) > 0


def test_factor_setups_are_frozen():
    """Every cached value is a tuple of ints, Fractions and tuples, so no
    caller can change an answer that a later screen reads."""
    def frozen(value):
        if isinstance(value, tuple):
            return all(frozen(x) for x in value)
        return type(value) in (int, str, Fraction)

    for case, i in SCREENS:
        for (kind, level), h in zip(case.source.components, case.powers[i][0]):
            key = (kind, level, *scale_vector(h))
            assert all(type(x) is int for x in key[2]) and type(key[3]) is int
            assert frozen(_factor_setup(*key))
    assert _factor_setup.cache_parameters()["maxsize"] is not None
