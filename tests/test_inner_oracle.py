"""Differential test of inner_from_coweight, which reads the fixed algebra off
the Kac coordinates of the alcove point, against the root-subsystem route it
replaced, kept here verbatim as the oracle, together with the per-root
fixed_dims_profile.  Two changes: the root Gram matrix comes from the
Fraction construction in test_lie_oracle, since RootSystem keeps none, and a
root counts as positive when its simple-root coordinates are all >= 0.  The
subsystem is classified by the dense classify_components that
test_zero_set_oracle keeps verbatim."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from orbdim import kacaut
from orbdim.cartan import Kind, classical_dimension, kind_name, untwisted_diagram
from orbdim.cases import fixed_dims_profile, load_cases
from orbdim.kacaut import _inner, coweight_to_kac_labels, inner_from_coweight
from orbdim.liealg import RootSystem, build_root_system, dot, scale_vector
from orbdim.modcurve import divisors
from orbdim.orbifold import DimProfile

from test_lie_oracle import KINDS as LIE_KINDS, fraction_matrices
from test_zero_set_oracle import _classify_components

KINDS = LIE_KINDS + [("A", 12), ("B", 10), ("C", 10), ("D", 10)]


# -- the oracle: the root-subsystem route -------------------------------------

def _inner_oracle(rs: RootSystem, h):
    """Order and fixed subalgebra of exp(-2 pi i h_0) on the algebra.

    Returns (order, (components, abelian_rank), fixed_dimension).  The order
    is the lcm of the denominators of alpha(h) over the roots; the fixed
    subalgebra is the Cartan plus the root spaces with integral alpha(h).
    """
    c, d = scale_vector(h)
    order = 1
    fixed_roots = []
    for root in rs.roots:
        den = d // gcd(dot(root, c), d)       # the denominator of alpha(h)
        order = lcm(order, den)
        if den == 1:
            fixed_roots.append(root)
    comps = _classify_root_subsystem(rs, fixed_roots)
    fixed_rank = sum(k[1] for k in comps)
    abelian = rs.rank - fixed_rank
    dim = rs.rank + len(fixed_roots)
    if dim != sum(classical_dimension(k) for k in comps) + abelian:
        raise ArithmeticError(f"fixed subalgebra of {tuple(h)} on {kind_name(rs.kind)} "
                              f"has dimension {dim}, not that of {comps} + C^{abelian}")
    return order, (tuple(comps), abelian), dim


def _classify_root_subsystem(rs: RootSystem, roots) -> list[Kind]:
    """Classify a closed root subsystem given by a list of ambient roots."""
    positive = [r for r in roots if min(r) >= 0]
    if not positive:
        return []
    pos_set = set(positive)
    simple = []
    for beta in positive:
        if not any(tuple(b - g for b, g in zip(beta, gamma)) in pos_set
                   for gamma in positive if gamma != beta):
            simple.append(beta)
    r = len(simple)
    # Cartan matrix of the subsystem
    norms = [rs.root_pair_sq(b) for b in simple]
    root_gram = fraction_matrices(rs.kind).root_gram
    gram = [[sum(Fraction(simple[i][a]) * root_gram[a][b] * simple[j][b]
                 for a in range(rs.rank) for b in range(rs.rank)) for j in range(r)]
            for i in range(r)]
    C = []
    for i in range(r):
        row = []
        for j in range(r):
            entry = 2 * gram[i][j] / norms[j]
            if entry.denominator != 1:
                raise ArithmeticError("root subsystem pairing must be integral")
            row.append(int(entry))
        C.append(row)
    return _classify_components(C, range(r))


def _fixed_dims_profile_oracle(case) -> DimProfile:
    """dim V_1^{sigma^d} for all d | n by root counting on d*h per factor:
    alpha(d h) is integral iff d (alpha, c) is divisible by den, h = c/den."""
    systems = [build_root_system(kind) for kind, _ in case.source.components]
    scaled = [scale_vector(h) for h in case.h]
    dims = {}
    for d in divisors(case.n):
        total = 0
        for rs, (c, den) in zip(systems, scaled):
            dc = [d * x for x in c]
            total += rs.rank + sum(1 for r in rs.roots if dot(r, dc) % den == 0)
        dims[d] = total
    return DimProfile(case.n, dims)


# -- the comparisons ------------------------------------------------------------

def _seeded_coweights(rs, rng, count=20):
    """Coweights with one denominator (large fixed algebras) and with mixed
    denominators 1..12 (large orders); numerators beyond [0, 1) so that the
    reduction mod the coweight lattice is exercised, a third of them zero."""
    for k in range(count):
        dens = ([rng.randint(1, 12)] * rs.rank if k % 2
                else [rng.randint(1, 12) for _ in range(rs.rank)])
        yield tuple(Fraction(rng.choice((0, 1, 1)) * rng.randint(-3 * q, 3 * q), q)
                    for q in dens)


def _check(rs, h):
    got = inner_from_coweight(rs, h)
    assert got == _inner_oracle(rs, h), (rs.kind, h)
    s = coweight_to_kac_labels(rs, h)
    assert min(s) >= 0 and gcd(*s) == 1, (rs.kind, h, s)
    assert dot(untwisted_diagram(rs.kind).labels, s) == got[0], (rs.kind, h, s)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_seeded_coweights_match_oracle(kind):
    rs = build_root_system(kind)
    rng = random.Random(f"inner-{kind}")
    for h in _seeded_coweights(rs, rng):
        _check(rs, h)


def test_case_coweights_and_their_multiples_match_oracle():
    """The 47 case factors' h, the coweights of every ihReps entry, and d*h
    for every d | n."""
    for case in load_cases():
        systems = [build_root_system(kind) for kind, _ in case.source.components]
        for reps in (case.h, *case.ih_reps.values()):
            for rs, h in zip(systems, reps):
                _check(rs, h)
        for d in divisors(case.n):
            for rs, h in zip(systems, case.h):
                _check(rs, tuple(d * x for x in h))


def test_fixed_dims_profiles_match_oracle():
    for case in load_cases():
        assert fixed_dims_profile(case) == _fixed_dims_profile_oracle(case), case.id


# -- the memo on (kind, c, d) ---------------------------------------------------

def _memo_inputs():
    """(rs, h) for every case's d*h, d | n, and for the seeded coweights."""
    for case in load_cases():
        systems = [build_root_system(kind) for kind, _ in case.source.components]
        for d in divisors(case.n):
            for rs, h in zip(systems, case.h):
                yield rs, tuple(d * x for x in h)
    for kind in KINDS:
        rs = build_root_system(kind)
        yield from ((rs, h) for h in _seeded_coweights(rs, random.Random(f"inner-{kind}")))


def _assert_frozen(answer):
    order, (comps, abelian), dim = answer
    assert type(answer) is tuple and type(answer[1]) is tuple and type(comps) is tuple
    assert all(type(k) is tuple for k in comps)
    assert all(type(x) is int for x in (order, abelian, dim))


def test_memoized_answers_equal_fresh_ones():
    inputs = list(_memo_inputs())
    memoized = [inner_from_coweight(rs, h) for rs, h in inputs]
    hits = _inner.cache_info().hits
    assert [inner_from_coweight(rs, h) for rs, h in inputs] == memoized
    assert _inner.cache_info().hits - hits == len(inputs)
    for (rs, h), want in zip(inputs, memoized):
        _inner.cache_clear()
        fresh = inner_from_coweight(rs, h)
        assert fresh == want, (rs.kind, h)
        _assert_frozen(fresh)
    assert _inner.cache_parameters()["maxsize"] is not None     # bounded


def _spellings(h):
    """h as Fractions, as strings with non-reduced entries (2/4) in a tuple
    and in a list, and as ints where it is integral."""
    yield tuple(Fraction(x) for x in h)
    doubled = [f"{2 * Fraction(x).numerator}/{2 * Fraction(x).denominator}" for x in h]
    yield tuple(doubled)
    yield doubled
    if all(Fraction(x).denominator == 1 for x in h):
        yield tuple(int(x) for x in h)


def test_equal_coweights_share_one_key():
    for case in load_cases():
        for d in divisors(case.n):
            for (kind, _), h in zip(case.source.components, case.h):
                rs = build_root_system(kind)
                dh = tuple(d * x for x in h)
                want = _inner_oracle(rs, dh)
                for spelled in _spellings(dh):
                    assert inner_from_coweight(rs, spelled) == want, (kind, spelled)
                    assert coweight_to_kac_labels(rs, spelled) == coweight_to_kac_labels(rs, dh)
                key = (kind, *scale_vector(dh))
                assert all(type(x) is int for x in key[1]) and type(key[2]) is int
    a2 = build_root_system(("A", 2))
    _inner.cache_clear()
    for spelled in ((1, 0), (Fraction(1), 0), ("2/2", "0"), (Fraction(3, 3), Fraction(0, 4))):
        assert inner_from_coweight(a2, spelled) == (1, ((("A", 2),), 0), 8)
    assert _inner.cache_info().currsize == 1


def test_failed_checks_name_the_coweight_as_spelled_and_are_not_cached(monkeypatch):
    """The texts name the coweight as c/d, (1, 0)/2 for both spellings of
    h, and a raise leaves no entry behind: once the fault is gone the right
    answer comes back."""
    a2 = build_root_system(("A", 2))
    h = ("1/2", Fraction(0, 3))
    _inner.cache_clear()
    monkeypatch.setattr(kacaut, "classical_dimension", lambda kind: 99)
    for spelled in (h, list(h)):
        with pytest.raises(ArithmeticError) as err:
            inner_from_coweight(a2, spelled)
        assert str(err.value) == ("fixed subalgebra of (1, 0)/2 on A2 has "
                                  "dimension 4, not that of (('A', 1),) + C^1")
    assert _inner.cache_info().currsize == 0
    monkeypatch.undo()
    assert inner_from_coweight(a2, h) == (2, ((("A", 1),), 1), 4)

    _inner.cache_clear()
    monkeypatch.setattr(kacaut, "alcove_walk", lambda kind, c, d: ([d, d], []))
    for call in (inner_from_coweight, coweight_to_kac_labels):
        with pytest.raises(ArithmeticError) as err:
            call(a2, list(h))
        assert str(err.value) == "Kac coordinates (-2, 2, 2) of (1, 0)/2 are not non-negative"
    assert _inner.cache_info().currsize == 0
    monkeypatch.undo()
    assert coweight_to_kac_labels(a2, h) == (1, 1, 0)


@pytest.mark.parametrize("broken, named, algebra", [
    (None, "(0, 0, 0, 0, 0)/1", "A5 has dimension 35, not that of (('A', 5),) + C^0"),
    (("E", 6), "(1, 0, 0, 0, 0, 1)/1", "E6 has dimension 78, not that of (('E', 6),) + C^0"),
], ids=["A5 at d=1", "E6 at d=2"])
def test_fixed_dims_profile_names_the_multiple_of_h_that_failed(monkeypatch, broken, named,
                                                                 algebra):
    """Step (d) reads the memo on d*h without building it, and a failed check
    names d*h as c/d, with the text inner_from_coweight gives for it: at
    d = 1 on A5 when every dimension is wrong, at d = 2 on E6, 2*h = (1, 0, 0,
    0, 0, 1), when only the dimension of E6 is."""
    case1 = load_cases()[0]
    _inner.cache_clear()
    monkeypatch.setattr(kacaut, "classical_dimension",
                        lambda kind: 99 if broken is None else classical_dimension(kind)
                        + (kind == broken))
    with pytest.raises(ArithmeticError) as err:
        fixed_dims_profile(case1)
    assert str(err.value) == f"fixed subalgebra of {named} on {algebra}"
    monkeypatch.undo()
    _inner.cache_clear()
    assert fixed_dims_profile(case1).dims == {1: 136, 2: 168}
