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

from orbdim.cartan import Kind, classical_dimension, kind_name, untwisted_diagram
from orbdim.cases import fixed_dims_profile, load_cases
from orbdim.kacaut import coweight_to_kac_labels, inner_from_coweight
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
