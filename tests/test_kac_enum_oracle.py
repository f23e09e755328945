"""Differential test of the orderly Kac-class enumeration against its oracle.

`_enumerate_classes_oracle` is the enumeration that `enumerate_classes`
replaced, kept uncached: it walks every composition of the
budget and canonicalises each one with a min over the diagram
automorphisms.  It gives each class as (diagram, s, order, fixed
components, abelian rank), its order and fixed algebra computed directly,
the latter by the dense oracle classifier of test_zero_set_oracle.  A
KacClass holds only its diagram and s and reads the other three from s,
so comparing the five facts of every class puts the per-zero-set cache of
fixed_from_s and the sparse classifier under test too.  Both must give the
same classes, order included, for every type of rank <= 8 at orders 1-10
and for the two inputs that dominate the case pipeline, (A11, 6) and
(A17, 4).
"""

from math import gcd

import pytest

from orbdim.cartan import Kind, admissible_twists, validate_kind
from orbdim.kacaut import _auto_orbit_reps, enumerate_classes, fixed_from_s

from test_zero_set_oracle import _classify_components

KINDS = ([("A", l) for l in range(1, 9)] + [("B", l) for l in range(2, 9)]
         + [("C", l) for l in range(2, 9)] + [("D", l) for l in range(4, 9)]
         + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
ORDERS = range(1, 11)
LARGE = [(("A", 11), 6), (("A", 17), 4)]


def _fixed_direct(diagram, s):
    """Fixed components and abelian rank straight from the zero set, uncached."""
    zero = [i for i in range(diagram.num_nodes) if s[i] == 0]
    return tuple(_classify_components(diagram.gcm, zero)), sum(1 for x in s if x) - 1


def _facts(classes):
    """(diagram, s, order, fixed components, abelian rank) of each class."""
    return [(c.diagram, c.s, c.order, c.fixed_components, c.fixed_abelian) for c in classes]


def _enumerate_classes_oracle(kind: Kind, order: int) -> list[tuple]:
    """All conjugacy classes of order-n automorphisms of the simple algebra,
    each as (diagram, s, order, fixed components, abelian rank)."""
    kind = validate_kind(kind)
    if order < 1:
        raise ValueError("the order must be a positive integer")
    out = []
    for k in admissible_twists(kind):
        if order % k:
            continue
        budget = order // k
        diagram, autos = _auto_orbit_reps(kind, k)
        labels = diagram.labels
        n = diagram.num_nodes
        seen = set()
        s = [0] * n

        def rec(i, left):
            if i == n:
                if left == 0 and gcd(*s) == 1:
                    canon = min(tuple(map(s.__getitem__, perm)) for perm in autos)
                    if canon not in seen:
                        seen.add(canon)
                        comps, ab = _fixed_direct(diagram, canon)
                        out.append((diagram, canon, order, comps, ab))
                return
            step = labels[i]
            for v in range(left // step + 1):
                s[i] = v
                rec(i + 1, left - v * step)
            s[i] = 0

        rec(0, budget)
    return out


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_enumeration_matches_oracle_every_order(kind):
    """Same classes in the same order, every admissible twist present."""
    for order in ORDERS:
        classes = enumerate_classes(kind, order)
        assert _facts(classes) == _enumerate_classes_oracle(kind, order), (kind, order)
        twists = {k for k in admissible_twists(validate_kind(kind)) if order % k == 0}
        assert {cls.twist for cls in classes} == twists, (kind, order)


@pytest.mark.parametrize("kind, order", LARGE)
def test_enumeration_matches_oracle_on_large_diagrams(kind, order):
    assert _facts(enumerate_classes(kind, order)) == _enumerate_classes_oracle(kind, order)


@pytest.mark.parametrize("kind, order", LARGE)
def test_memoised_fixed_algebra_matches_direct_classification(kind, order):
    """fixed_from_s, cached per zero set, answers every class as the uncached
    dense classifier does, whether the zero set is new or cached."""
    for cls in enumerate_classes(kind, order):
        direct = _fixed_direct(cls.diagram, cls.s)
        assert (cls.fixed_components, cls.fixed_abelian) == direct, cls.s
        assert fixed_from_s(cls.diagram, cls.s) == direct, cls.s


def test_twisted_pairs_are_covered():
    """Every A_n^(2), D_n^(2), E6^(2) and D4^(3) of rank <= 8 is in KINDS."""
    twisted = {(kind, k) for kind in KINDS for k in admissible_twists(validate_kind(kind))
               if k > 1}
    expected = ({(("A", l), 2) for l in range(2, 9)} | {(("D", l), 2) for l in range(4, 9)}
                | {(("E", 6), 2), (("D", 4), 3)})
    assert twisted == expected


@pytest.mark.parametrize("order", [0, -1])
def test_enumeration_rejects_orders_below_one(order):
    with pytest.raises(ValueError):
        enumerate_classes(("A", 2), order)
