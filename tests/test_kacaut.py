from fractions import Fraction

import pytest

from orbdim.cartan import (
    admissible_twists,
    diagram_automorphisms,
    twisted_diagram,
    untwisted_diagram,
    validate_kind,
)
from orbdim.kacaut import (
    CyclePart,
    SemisimpleAut,
    admits_fixed_subalgebra,
    coweight_to_kac_labels,
    enumerate_classes,
    fixed_from_s,
    fixed_subalgebra_semisimple,
    inner_from_coweight,
)
from orbdim.liealg import alcove_walk, coroot_order, dot, root_system, scale_vector, unwalk

from test_inner_oracle import _inner_oracle
from test_kac_enum_oracle import KINDS, ORDERS

F = Fraction


def fixed_sets(kind, order):
    return {(cls.fixed_components, cls.fixed_abelian) for cls in enumerate_classes(kind, order)}


def test_identity_class_unique_every_kind():
    kinds = ([("A", l) for l in range(1, 10)] + [("B", l) for l in range(2, 9)]
             + [("C", l) for l in range(2, 9)] + [("D", l) for l in range(4, 9)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
    for kind in kinds:
        classes = enumerate_classes(kind, 1)
        assert len(classes) == 1
        cls = classes[0]
        expected = ("B", 2) if kind == ("C", 2) else kind  # C2 canonicalises to B2
        assert cls.fixed_components == (expected,)
        assert cls.fixed_abelian == 0
        assert cls.twist == 1


def test_order_recomputation_and_gcd_invariants():
    for kind in (("A", 4), ("D", 4), ("E", 6), ("B", 3), ("G", 2)):
        for n in (1, 2, 3, 4, 5, 6, 8):
            for cls in enumerate_classes(kind, n):
                lab = cls.diagram.labels
                assert cls.twist * sum(a * si for a, si in zip(lab, cls.s)) == n
                from math import gcd
                assert gcd(*cls.s) == 1
                # fixed dimension consistency: rank of fixed + abelian = rank data
                fixed_rank = sum(k[1] for k in cls.fixed_components) + cls.fixed_abelian
                assert cls.fixed_dimension() >= fixed_rank


def test_involutions_of_classical_types():
    # A_{2l}: unique outer involution, fixed B_l
    assert fixed_sets(("A", 8), 2) >= {((("B", 4),), 0)}
    outer = [c for c in enumerate_classes(("A", 8), 2) if c.twist == 2]
    assert len(outer) == 1 and outer[0].fixed_components == (("B", 4),)
    # A_{2l-1}: outer involutions fix C_l and D_l
    outer11 = {c.fixed_components for c in enumerate_classes(("A", 11), 2) if c.twist == 2}
    assert outer11 == {(("C", 6),), (("D", 6),)}
    outer9 = {c.fixed_components for c in enumerate_classes(("A", 9), 2) if c.twist == 2}
    assert outer9 == {(("C", 5),), (("D", 5),)}
    # E_6 outer involutions fix F_4 and C_4
    outer_e6 = {c.fixed_components for c in enumerate_classes(("E", 6), 2) if c.twist == 2}
    assert outer_e6 == {(("F", 4),), (("C", 4),)}
    # E_8 involutions (all inner): D_8 and A_1 E_7
    inv_e8 = fixed_sets(("E", 8), 2)
    assert inv_e8 == {((("D", 8),), 0), ((("A", 1), ("E", 7)), 0)}
    # D_7 outer involutions: B_j x B_{6-j}
    outer_d7 = {c.fixed_components for c in enumerate_classes(("D", 7), 2) if c.twist == 2}
    assert outer_d7 == {(("B", 6),), (("A", 1), ("B", 5)), (("B", 2), ("B", 4)), (("B", 3), ("B", 3))}
    # E_7 inner involutions: A_7, A_1 D_6, E_6 + C
    inv_e7 = fixed_sets(("E", 7), 2)
    assert ((("A", 7),), 0) in inv_e7
    assert ((("A", 1), ("D", 6)), 0) in inv_e7
    assert ((("E", 6),), 1) in inv_e7


def test_d4_triality_classes():
    order3 = enumerate_classes(("D", 4), 3)
    outer3 = {c.fixed_components for c in order3 if c.twist == 3}
    assert (("G", 2),) in outer3
    assert (("A", 2),) in outer3
    # D_4 twist-2 involutions: B_3 and A_1 B_2
    outer2 = {c.fixed_components for c in enumerate_classes(("D", 4), 2) if c.twist == 2}
    assert outer2 == {(("B", 3),), (("A", 1), ("B", 2))}
    # order-8 outer class with purely abelian fixed points (rank 3)
    order8 = [c for c in enumerate_classes(("D", 4), 8)
              if c.twist == 2 and not c.fixed_components and c.fixed_abelian == 3]
    assert order8, "D4 must admit an order-8 outer class with fixed C^3"


def test_a5_all_nonzero_orders_exceed_8():
    # no twist-2 class of A_5 of order dividing 8 has purely abelian fixed points
    for n in (2, 4, 8):
        for cls in enumerate_classes(("A", 5), n):
            if not cls.fixed_components:
                assert cls.twist == 1 or cls.order not in (2, 4, 8) or cls.fixed_abelian != 3


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _orbit_count(autos, labels, m):
    """Orbits of label vectors s >= 0 with sum a_i s_i = m (Burnside's lemma).

    An automorphism fixes the vectors constant on its cycles, counted by a
    coin change over the cycle weights |c| * a_c.
    """
    total = 0
    for perm in autos:
        seen, coins = set(), []
        for start in range(len(perm)):
            cycle, i = 0, start
            while i not in seen:
                seen.add(i)
                cycle += 1
                i = perm[i]
            if cycle:
                coins.append(cycle * labels[start])
        ways = [1] + [0] * m
        for coin in coins:
            for x in range(coin, m + 1):
                ways[x] += ways[x - coin]
        total += ways[m]
    count, rest = divmod(total, len(autos))
    assert rest == 0
    return count


def _burnside_class_count(kind, order):
    """Kac classes of the given order, counted without enumerating them.

    Per twist k with budget b = order/k, the orbits of coprime label vectors
    are sum_{e | b} mu(e) O(b/e), O(m) counting all orbits of budget m.
    """
    kind = validate_kind(kind)
    count = 0
    for k in admissible_twists(kind):
        if order % k:
            continue
        diagram = untwisted_diagram(kind) if k == 1 else twisted_diagram(kind, k)
        autos = diagram_automorphisms(diagram)
        b = order // k
        count += sum(_mobius(e) * _orbit_count(autos, diagram.labels, b // e)
                     for e in range(1, b + 1) if b % e == 0)
    return count


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k[0]}{k[1]}")
def test_class_counts_match_burnside(kind):
    for order in ORDERS:
        assert len(enumerate_classes(kind, order)) == _burnside_class_count(kind, order)


@pytest.mark.parametrize("kind, order, count", [
    (("A", 12), 10, 24871), (("A", 11), 6, 548), (("D", 4), 8, 37), (("E", 6), 9, 111),
])
def test_class_counts_match_burnside_on_larger_inputs(kind, order, count):
    assert _burnside_class_count(kind, order) == count
    assert len(enumerate_classes(kind, order)) == count


def test_inner_from_coweight_cases():
    b8 = root_system("B8")
    order, (comps, ab), dim = inner_from_coweight(b8, [0] * 7 + [F(1, 2)])
    assert order == 2 and comps == (("D", 8),) and ab == 0 and dim == 120
    f4 = root_system("F4")
    order, (comps, ab), dim = inner_from_coweight(f4, (0, 0, 0, F(1, 2)))
    assert order == 2 and comps == (("B", 4),) and ab == 0 and dim == 36
    a4 = root_system("A4")
    order, (comps, ab), dim = inner_from_coweight(a4, (0, 0, 0, 0))
    assert order == 1 and comps == (("A", 4),) and dim == 24
    # E6 with (L1+L6)/2 fixes D5 + C
    e6 = root_system("E6")
    order, (comps, ab), dim = inner_from_coweight(e6, (F(1, 2), 0, 0, 0, 0, F(1, 2)))
    assert order == 2 and comps == (("D", 5),) and ab == 1 and dim == 46
    # G2 with L1/3 fixes A2
    g2 = root_system("G2")
    order, (comps, ab), dim = inner_from_coweight(g2, (F(1, 3), 0))
    assert order == 3 and comps == (("A", 2),) and ab == 0 and dim == 8


def test_a9_case12_fixed_subalgebra():
    a9 = root_system("A9")
    h = (F(1, 4), 0, F(3, 4), 0, 0, 0, 0, 0, 0)
    order, (comps, ab), dim = inner_from_coweight(a9, h)
    assert order == 4
    assert comps == (("A", 1), ("A", 7)) and ab == 1
    assert dim == 3 + 63 + 1


def test_module_order_bound():
    a4 = root_system("A4")
    assert coroot_order(a4.kind, (F(1, 5),) * 4) == 5
    c10 = root_system("C10")
    h = [0] * 10
    h[1] = F(1, 4)
    h[9] = F(1, 2)
    assert coroot_order(c10.kind, h) == 4
    # any coroot lattice element gives 1: alpha_1^vee has coweight coords (2, -1)
    a2 = root_system("A2")
    assert coroot_order(a2.kind, (2, -1)) == 1
    assert coroot_order(a2.kind, (1, 1)) == 1  # delta^vee = a1^vee + a2^vee


def test_kac_label_route_matches_subdiagram_route():
    cases = [
        ("B8", [0] * 7 + [F(1, 2)]),
        ("F4", (0, 0, 0, F(1, 2))),
        ("E6", (F(1, 2), 0, 0, 0, 0, F(1, 2))),
        ("G2", (F(1, 3), 0)),
        ("A9", (F(1, 4), 0, F(3, 4), 0, 0, 0, 0, 0, 0)),
        ("C10", (0, F(1, 4), 0, 0, 0, 0, 0, 0, 0, F(1, 2))),
        ("A4", (F(1, 5),) * 4),
    ]
    for name, h in cases:
        rs = root_system(name)
        order, (comps, ab), dim = _inner_oracle(rs, h)
        assert inner_from_coweight(rs, h) == (order, (comps, ab), dim)
        s = coweight_to_kac_labels(rs, h)
        diagram = untwisted_diagram(rs.kind)
        assert order == sum(a * si for a, si in zip(diagram.labels, s))
        assert fixed_from_s(diagram, s) == (comps, ab)


def test_alcove_point_contract():
    import random
    rng = random.Random(17)
    for name in ("A4", "B3", "C5", "D4", "G2", "F4"):
        rs = root_system(name)
        for _ in range(10):
            h = tuple(F(rng.randint(-8, 8), rng.choice([1, 2, 3, 4, 5])) for _ in range(rs.rank))
            c, d = scale_vector(h)
            tilde, word = alcove_walk(rs.kind, c, d)
            assert all(x >= 0 for x in tilde)
            assert dot(rs.marks, tilde) <= d
            back = [F(x, d) for x in unwalk(rs.kind, word, tilde)]
            assert rs.in_coroot_lattice(tuple(b - x for b, x in zip(back, h)))


def test_semisimple_composites():
    e8 = ("E", 8)
    id_e8 = enumerate_classes(e8, 1)[0]
    invol_d8 = next(c for c in enumerate_classes(e8, 2) if c.fixed_components == (("D", 8),))
    aut = SemisimpleAut((CyclePart((0, 1), id_e8), CyclePart((2,), invol_d8)))
    comps, ab, dim = fixed_subalgebra_semisimple(aut, [e8, e8, e8])
    assert comps == (("D", 8), ("E", 8)) and ab == 0 and dim == 368
    assert aut.order([e8, e8, e8]) == 2
    # A8^3: 2-cycle + outer involution
    a8 = ("A", 8)
    outer_b4 = next(c for c in enumerate_classes(a8, 2) if c.twist == 2)
    aut = SemisimpleAut((CyclePart((0, 1), enumerate_classes(a8, 1)[0]), CyclePart((2,), outer_b4)))
    comps, ab, dim = fixed_subalgebra_semisimple(aut, [a8, a8, a8])
    assert comps == (("A", 8), ("B", 4)) and ab == 0
    # a regular element of order 5 on one A4, the identity on the other
    a4 = ("A", 4)
    regular = next(c for c in enumerate_classes(a4, 5) if c.s == (1,) * 5)
    aut = SemisimpleAut((CyclePart((0,), regular), CyclePart((1,), enumerate_classes(a4, 1)[0])))
    comps, ab, dim = fixed_subalgebra_semisimple(aut, [a4, a4])
    assert comps == (("A", 4),) and ab == 4
    assert aut.order([a4, a4]) == 5
    with pytest.raises(ValueError):
        fixed_subalgebra_semisimple(SemisimpleAut((CyclePart((0, 1), id_e8),)), [e8, ("A", 8)])


def test_admits_fixed_subalgebra_key_cases():
    e8 = ("E", 8)
    found, witness = admits_fixed_subalgebra([e8] * 3, [("D", 8), ("E", 8)], 0, 2)
    assert found and witness
    # the 744-dimensional competitor D16 E8 must be rejected
    found, _ = admits_fixed_subalgebra([("D", 16), e8], [("D", 8), ("E", 8)], 0, 2)
    assert not found
    # identity witness
    found, _ = admits_fixed_subalgebra([("A", 2)], [("A", 2)], 0, 1)
    assert found
    # D4^6 with order 8 admits A3 + C^7
    found, _ = admits_fixed_subalgebra([("D", 4)] * 6, [("A", 3)], 7, 8)
    assert found
    # but A5^4 D4 does not
    found, _ = admits_fixed_subalgebra([("A", 5)] * 4 + [("D", 4)], [("A", 3)], 7, 8)
    assert not found


@pytest.mark.parametrize("n, abelian, message", [
    (0, 0, "the order must be a positive integer"),
    (-3, 0, "the order must be a positive integer"),
    (2, -1, "the abelian rank must be non-negative"),
    (2, 1.9, "the abelian rank 1.9 is not an integer"),
])
def test_admits_fixed_subalgebra_rejects_what_it_cannot_mean(n, abelian, message):
    with pytest.raises(ValueError, match=message):
        admits_fixed_subalgebra([("E", 8)] * 2, [("E", 8)], abelian, n)


def test_class_labels():
    cls = next(c for c in enumerate_classes(("E", 6), 2) if c.fixed_components == (("F", 4),))
    assert cls.label() == "E_6^(2); s=[1, 0, 0, 0, 0]; order=2; fixed=F4"


def test_affine_diagram_automorphism_counts():
    assert len(diagram_automorphisms(untwisted_diagram(("A", 4)))) == 10  # dihedral on 5-cycle
    assert len(diagram_automorphisms(untwisted_diagram(("D", 4)))) == 24  # S4 on the tips
    assert len(diagram_automorphisms(untwisted_diagram(("E", 6)))) == 6
    assert len(diagram_automorphisms(untwisted_diagram(("E", 8)))) == 1
    assert len(diagram_automorphisms(twisted_diagram(("A", 11), 2))) == 2
    assert len(diagram_automorphisms(twisted_diagram(("D", 7), 2))) == 2
    assert len(diagram_automorphisms(twisted_diagram(("A", 8), 2))) == 1


def test_fixed_subalgebra_reads_the_kinds_of_an_affine_structure():
    from orbdim.liealg import AffineStructure
    e8 = ("E", 8)
    structure = AffineStructure(((e8, 1), (e8, 1), (e8, 1)))
    id_cls = enumerate_classes(e8, 1)[0]
    invol = next(c for c in enumerate_classes(e8, 2) if c.fixed_components == (("D", 8),))
    aut = SemisimpleAut((CyclePart((0, 1), id_cls), CyclePart((2,), invol)))
    comps, ab, dim = fixed_subalgebra_semisimple(aut, structure.kinds())
    assert comps == (("D", 8), ("E", 8)) and dim == 368


def test_inner_class_fixed_dim_via_reconstructed_coweight():
    # rebuild h from the node coordinates of each inner class and count the
    # integrally-paired roots; must reproduce the class's fixed subalgebra
    for kind in (("A", 4), ("B", 3), ("C", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)):
        rs = root_system(kind)
        for n in (1, 2, 3, 4, 5, 6):
            for cls in enumerate_classes(kind, n):
                if cls.twist != 1:
                    continue
                h = tuple(F(si, n) for si in cls.s[1:])
                order, (comps, ab), dim = inner_from_coweight(rs, h)
                assert order == n
                assert comps == cls.fixed_components, (kind, n, cls.s)
                assert ab == cls.fixed_abelian
                assert dim == cls.fixed_dimension()
                assert dim == rs.rank + sum(
                    1 for r in rs.roots if rs.root_on_coweight(r, h).denominator == 1)
