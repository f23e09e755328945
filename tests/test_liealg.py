import random
from fractions import Fraction

import pytest

from orbdim import cartan, liealg
from orbdim.cartan import parse_kind
from orbdim.liealg import (
    AffineStructure,
    affine_conformal_weight,
    build_root_system,
    dominant_walk,
    dominant_weights_of_level,
    min_weight_pairing,
    orbit_tree,
    root_system,
    schellekens_constraint,
    scale_vector,
    weight_system,
    weyl_dimension,
    weyl_tables,
)

from test_lie_oracle import _coweight_to_coroot_coords

F = Fraction

ALL_KINDS = (
    [("A", l) for l in range(1, 17)]
    + [("B", l) for l in range(2, 17)]
    + [("C", l) for l in range(2, 17)]
    + [("D", l) for l in range(4, 17)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_parse_kind():
    assert parse_kind("A4") == ("A", 4)
    assert parse_kind("C10") == ("C", 10)
    assert parse_kind("e6") == ("E", 6)
    assert parse_kind("D3") == ("A", 3)
    for bad in ("E9", "F5", "G3", "B1", "X2", "A0", "A"):
        with pytest.raises(ValueError):
            parse_kind(bad)


@pytest.mark.parametrize("kind, typo", [
    (("E", 8), [2, 3, 4, 6, 5, 4, 3, 1]),
    (("A", 3), [1, 1, 0]),
    (("D", 6), [1, 1, 1, 1, 0, 1]),
], ids=["E8", "A3", "D6"])
def test_marks_that_are_a_long_root_but_not_theta_fail_the_build(monkeypatch, kind, typo):
    """Each typo is a long positive root, so only 2|Phi+| = rank h ties the
    marks table to the highest root: building the root system raises."""
    liealg.weyl_tables(kind)            # cached from the true marks
    real = cartan.marks
    monkeypatch.setattr(cartan, "marks", lambda k: list(typo) if k == kind else real(k))
    monkeypatch.setattr(liealg, "marks", cartan.marks)
    cartan.comarks.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=r"is not rank h"):
            liealg.RootSystem(kind)
    finally:
        cartan.comarks.cache_clear()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_root_system_global_invariants(kind):
    rs = build_root_system(kind)
    assert len(rs.roots) == rs.dim - rs.rank
    assert rs.coxeter == 1 + sum(rs.marks)
    assert rs.dual_coxeter == 1 + sum(rs.comarks)
    theta = tuple(rs.marks)
    assert rs.root_pair_sq(theta) == 2
    assert all(rs.root_pair_sq(r) <= 2 for r in rs.roots)
    # gram matrices are symmetric and consistent
    gw, gc = rs.gram_weights_scaled, rs.gram_coweights_scaled
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert gw[i][j] == gw[j][i]
            assert gc[i][j] == gc[j][i]


def test_e8_numbers():
    rs = root_system("E8")
    assert rs.dim == 248
    assert rs.dual_coxeter == 30


def test_a4_weight_gram_closed_form():
    rs = root_system("A4")
    for i in range(4):
        for j in range(4):
            assert F(rs.gram_weights_scaled[i][j], rs.gram_weights_den) == \
                F(min(i + 1, j + 1)) - F((i + 1) * (j + 1), 5)


def test_a1_basics():
    rs = root_system("A1")
    assert rs.roots == [(-1,), (1,)]
    assert rs.coxeter == 2 and rs.dual_coxeter == 2
    assert F(rs.gram_weights_scaled[0][0], rs.gram_weights_den) == F(1, 2)


def test_dominant_weights_counts():
    a1 = root_system("A1")
    assert dominant_weights_of_level(a1, 2) == [(0,), (1,), (2,)]
    a4 = root_system("A4")
    assert len(dominant_weights_of_level(a4, 5)) == 126
    e6 = root_system("E6")
    assert dominant_weights_of_level(e6, 0) == [(0,) * 6]


def test_weight_system_small():
    a4 = root_system("A4")
    ws = weight_system(a4, (1, 0, 0, 0))
    assert len(ws) == 5 and set(ws.values()) == {1}
    a1 = root_system("A1")
    ws = weight_system(a1, (2,))
    assert ws == {(2,): 1, (0,): 1, (-2,): 1}


def test_weight_system_cannot_be_changed_by_a_caller():
    # the cache hands the same mapping to every caller; it used to be the
    # cached dict itself, so a write showed up in every later call
    a2 = root_system("A2")
    ws = weight_system(a2, (1, 0))
    with pytest.raises(TypeError):
        ws[(9, 9)] = 5
    with pytest.raises(TypeError):
        del ws[(1, 0)]
    assert weight_system(a2, (1, 0)) == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}


@pytest.mark.parametrize("call, weight", [
    (weight_system, (F(3, 2), 0)),
    (weight_system, (1.9, 0)),
    (weyl_dimension, (F(3, 2), 0)),
], ids=["weight_system-3/2", "weight_system-1.9", "weyl_dimension-3/2"])
def test_non_integral_weights_raise(call, weight):
    # weight_system used to truncate these to an integral weight
    with pytest.raises(ValueError, match="not integral"):
        call(root_system("A2"), weight)


@pytest.mark.parametrize("weight", [(), (1,), (1, 0), [0, 0, 0, 2]], ids=repr)
@pytest.mark.parametrize("call", [weight_system, weyl_dimension,
                                  lambda rs, m: affine_conformal_weight(rs, 1, m)],
                         ids=["weight_system", "weyl_dimension", "affine_conformal_weight"])
def test_weights_of_the_wrong_length_raise(call, weight):
    # these used to give a weight system or dimension of some other weight
    with pytest.raises(ValueError, match=f"has {len(weight)} entries, not 3"):
        call(root_system("A3"), weight)


def test_weyl_orbit_accepts_integral_non_dominant_weights():
    # the orbit of an integral weight is the orbit tree of its dominant conjugate
    a2 = root_system("A2")
    rows = weyl_tables(a2.kind).rows

    def orbit(m):
        return set(orbit_tree(rows, tuple(dominant_walk(rows, m)[0])))
    assert orbit((1, -1)) == orbit((0, 1)) == {(0, 1), (1, -1), (-1, 0)}
    assert orbit((-1, 2)) == orbit((1, 1))
    assert weight_system(a2, (2.0, F(0))) == weight_system(a2, (2, 0))


def test_weight_system_adjoint_a4():
    a4 = root_system("A4")
    ws = weight_system(a4, (1, 0, 0, 1))
    assert sum(ws.values()) == 24
    assert ws[(0, 0, 0, 0)] == 4
    # nonzero weights of the adjoint are the roots, multiplicity one
    nonzero = {w for w in ws if any(w)}
    assert len(nonzero) == 20 and all(ws[w] == 1 for w in nonzero)


def test_weight_system_matches_weyl_dimension():
    rng = random.Random(5)
    kinds = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("A", 4)]
    for kind in kinds:
        rs = build_root_system(kind)
        for _ in range(10):
            m = tuple(rng.choice([0, 0, 1, 2]) for _ in range(rs.rank))
            ws = weight_system(rs, m)
            assert sum(ws.values()) == weyl_dimension(rs, m)


def test_weight_system_weyl_invariant():
    rs = root_system("B3")
    ws = weight_system(rs, (1, 0, 1))
    for i in range(3):
        reflected = {tuple(int(x) for x in rs.reflect_weight(w, i)): mult for w, mult in ws.items()}
        assert reflected == ws


def _antidominant(rs, h):
    """h_minus = s_{word[-1]} ... s_{word[0]} h with every entry <= 0: minus
    the dominant walk on -h, with the same word, as reflections are linear."""
    c, d = scale_vector(h)
    minus, word = dominant_walk(weyl_tables(rs.kind).cols, [-x for x in c])
    return tuple(F(-x, d) for x in minus), word


def test_weyl_antidominant():
    a4 = root_system("A4")
    h = (F(1, 5),) * 4
    h_minus, word = _antidominant(a4, h)
    assert all(c <= 0 for c in h_minus)
    assert h_minus == tuple(-x for x in h)  # -w0 is the diagram flip for A4
    # same multiset of root pairings
    before = sorted(a4.root_on_coweight(r, h) for r in a4.roots)
    after = sorted(a4.root_on_coweight(r, h_minus) for r in a4.roots)
    assert before == after
    # brute-force orbit minimum of the pairing with the defining weight
    assert min_weight_pairing(a4, (1, 0, 0, 0), h) == min(
        a4.pair_weight_coweight(w, h) for w in orbit_tree(weyl_tables(a4.kind).rows, (1, 0, 0, 0))
    )
    zero = (F(0),) * 4
    hm, word = _antidominant(a4, zero)
    assert hm == zero and word == []
    a1 = root_system("A1")
    hm, word = _antidominant(a1, (F(1),))
    assert hm == (F(-1),) and word == [0]


def test_pairing_duality_through_coroot_coordinates():
    # lambda(h) agrees with the plain dot product once h is written on the
    # simple coroots, and equals m^T C^{-1} c on fundamental coordinates
    rng = random.Random(11)
    for kind in (("A", 3), ("B", 3), ("C", 4), ("G", 2), ("F", 4)):
        rs = build_root_system(kind)
        for _ in range(5):
            m = tuple(rng.randint(0, 3) for _ in range(rs.rank))
            c = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rs.rank))
            u = _coweight_to_coroot_coords(rs, c)
            # lambda(alpha_j^vee) = m_j
            direct = sum(F(mi) * ui for mi, ui in zip(m, u))
            assert rs.pair_weight_coweight(m, c) == direct


def test_affine_conformal_weight_values():
    a1 = root_system("A1")
    assert affine_conformal_weight(a1, 2, (2,)) == F(1, 2)
    assert affine_conformal_weight(a1, 2, (0,)) == 0
    a4 = root_system("A4")
    # the case-(11) pair ([0,0,0,0],[0,2,2,0]) has total conformal weight 2
    assert affine_conformal_weight(a4, 5, (0, 2, 2, 0)) == 2
    with pytest.raises(ValueError):
        affine_conformal_weight(a1, 2, (3,))


def test_conformal_weight_zero_only_at_vacuum():
    for kind in (("A", 2), ("B", 3), ("G", 2)):
        rs = build_root_system(kind)
        for m in dominant_weights_of_level(rs, 2):
            w = affine_conformal_weight(rs, 2, m)
            assert (w == 0) == (not any(m))
            assert w >= 0


def test_schellekens_constraint():
    b8e82 = AffineStructure(((("B", 8), 1), (("E", 8), 2)))
    holds, ratio = schellekens_constraint(b8e82)
    assert holds and ratio == 15
    assert b8e82.dimension() == 384
    a45sq = AffineStructure(((("A", 4), 5), (("A", 4), 5)))
    holds, ratio = schellekens_constraint(a45sq)
    assert holds and ratio == 1
    assert a45sq.dimension() == 48
    holds, ratio = schellekens_constraint(AffineStructure(((("A", 1), 1),)))
    assert not holds


def test_affine_structure_labels():
    s = AffineStructure(((("A", 5), 1), (("C", 5), 1), (("E", 6), 2)))
    assert s.label() == "A5 C5 E6,2"
    assert s.dimension() == 35 + 55 + 78
    assert AffineStructure((), 24).label() == "C^24"
    assert AffineStructure(()).label() == "0"


def test_adjoint_zero_weight_multiplicity_is_rank():
    # the adjoint's zero weight space is the Cartan subalgebra
    adjoints = {
        ("A", 2): (1, 1), ("A", 3): (1, 0, 1), ("B", 3): (0, 1, 0),
        ("C", 3): (2, 0, 0), ("D", 4): (0, 1, 0, 0), ("G", 2): (0, 1),
        ("F", 4): (1, 0, 0, 0), ("E", 6): (0, 1, 0, 0, 0, 0),
    }
    for kind, highest in adjoints.items():
        rs = build_root_system(kind)
        theta = rs.root_to_weight_coords(tuple(rs.marks))
        assert tuple(theta) == highest, kind
        ws = weight_system(rs, highest)
        assert sum(ws.values()) == rs.dim
        assert ws[(0,) * rs.rank] == rs.rank
        nonzero = {w for w in ws if any(w)}
        assert len(nonzero) == len(rs.roots) and all(ws[w] == 1 for w in nonzero)


def test_known_multiplicities_b3_spinor_and_a2_products():
    b3 = root_system("B3")
    spinor = weight_system(b3, (0, 0, 1))
    assert sum(spinor.values()) == 8 and set(spinor.values()) == {1}
    a2 = root_system("A2")
    ws = weight_system(a2, (1, 1))
    assert sum(ws.values()) == 8 and ws[(0, 0)] == 2
    ws27 = weight_system(a2, (2, 2))
    assert sum(ws27.values()) == 27 and ws27[(0, 0)] == 3


def test_root_system_cache_concurrent_lookup():
    # the memo cache must be safe to hit from multiple threads
    import threading
    results = []

    def worker():
        rs = build_root_system(("E", 7))
        results.append(id(rs))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
