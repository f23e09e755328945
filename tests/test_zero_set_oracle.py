"""Differential tests of the admissibility options read off zero-set orbits.

The oracles are the code that the zero-set route replaced, kept verbatim:
`_cycle_options_oracle` enumerates every Kac class of every order r | n/p,
`_classify_components` and `_classify_one` scan the dense GCM, and
`_diagram_automorphisms` backtracks over node permutations.  The option key
sets of the full table must agree with the oracle's, and those of a table
bounded by a target's component rank and abelian rank with the oracle's
keys inside those bounds, on every (kind, n, bounds) that `verify_all` and
`regenerate_tables` ask for, on (A24, 6) and on seeded pairs with seeded
bounds.  The bounded table must be the full table less the options outside
the bounds, witnesses and order included, whether the support walk builds
it or a wider table is filtered.  The oracle takes as witness the first
class of least order, the walk the first support, so witnesses are not
compared with the oracle's; each must be a class of order dividing n/p that
fixes its option's algebra and is the least member of its orbit.  The 0/1
walk bounded by a size window must emit the unbounded walk's vectors inside
the window, in order.  Classification must agree on every proper zero set
of every affine diagram of rank <= 8 and on seeded zero sets of every
diagram of rank 9 to 24, and the automorphism groups on every diagram
there is.  Rank, det C and the number of short simple roots, which the
classifier reads a kind from, must tell the kinds apart, and every whole
affine diagram must be rejected for the reason that applies to it.
"""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import gcd

import pytest

from orbdim import cases, cli, kacaut, orbifold
from orbdim.cartan import (
    _VALID_RANKS,
    AffineDiagram,
    Kind,
    admissible_twists,
    cartan_determinant,
    diagram_automorphisms,
    root_norms,
    twisted_diagram,
    untwisted_diagram,
    validate_kind,
)
from orbdim.kacaut import (
    UnknownDiagramShape,
    _auto_orbit_reps,
    _cycle_options,
    _least_vectors,
    classify_components,
    enumerate_classes,
)
from orbdim.liealg import dot
from orbdim.modcurve import divisors

SEED = 20261018
SEEDED_PAIRS = 24
SEEDED_ZERO_SETS = 20           # per diagram of rank 9..24, beside the n - 1 node ones
FULL = float("inf")             # bounds that drop no option


# -- the oracles --------------------------------------------------------------

def _cycle_options_oracle(kind: Kind, n: int):
    """What a p-cycle of `kind` factors, with a residual class of order
    dividing n/p, can fix: each distinct (p, ((component, multiplicity), ...),
    abelian rank) once, with one witness class."""
    table = {}
    for p in divisors(n):
        for r in divisors(n // p):
            for cls in enumerate_classes(kind, r):
                comps = tuple(sorted(Counter(cls.fixed_components).items()))
                table.setdefault((p, comps, cls.fixed_abelian), cls)
    return tuple((p, comps, ab, cls) for (p, comps, ab), cls in table.items())


def _classify_components(gcm, nodes) -> list[Kind]:
    """Connected components of a sub-GCM, classified as finite simple kinds."""
    nodes = list(nodes)
    remaining = set(nodes)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in remaining - comp:
                if gcm[i][j] != 0:
                    comp.add(j)
                    frontier.append(j)
        remaining -= comp
        comps.append(sorted(comp))
    return sorted(_classify_one(gcm, comp) for comp in comps)


def _classify_one(gcm, comp) -> Kind:
    r = len(comp)
    if r == 1:
        return ("A", 1)
    neighbours = {i: [j for j in comp if j != i and gcm[i][j] != 0] for i in comp}
    degrees = sorted(len(v) for v in neighbours.values())
    edges = [(i, j) for i in comp for j in comp if i < j and gcm[i][j] != 0]
    multiplicities = {e: gcm[e[0]][e[1]] * gcm[e[1]][e[0]] for e in edges}
    n_double = sum(1 for m in multiplicities.values() if m == 2)
    n_triple = sum(1 for m in multiplicities.values() if m == 3)
    if any(m > 3 for m in multiplicities.values()) or n_triple + n_double > 1:
        raise UnknownDiagramShape(f"component {comp} is not of finite type")
    if n_triple:
        if r != 2:
            raise UnknownDiagramShape(f"triple bond in a rank-{r} component")
        return ("G", 2)
    if degrees[-1] > 3 or sum(1 for d in degrees if d == 3) > 1:
        raise UnknownDiagramShape(f"component {comp} has an invalid branch structure")
    branch = next((i for i in comp if len(neighbours[i]) == 3), None)
    if branch is not None:
        if n_double:
            raise UnknownDiagramShape("branch node together with a double bond")
        lengths = []
        for start in neighbours[branch]:
            length, prev, cur = 1, branch, start
            while True:
                nxt = [j for j in neighbours[cur] if j != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            lengths.append(length)
        lengths.sort()
        if lengths[0] == 1 and lengths[1] == 1:
            return ("D", r)
        if lengths == [1, 2, 2]:
            return ("E", 6)
        if lengths == [1, 2, 3]:
            return ("E", 7)
        if lengths == [1, 2, 4]:
            return ("E", 8)
        raise UnknownDiagramShape(f"branch lengths {lengths} are not of finite type")
    # path: order it end to end
    ends = [i for i in comp if len(neighbours[i]) == 1]
    path = [ends[0]]
    while len(path) < r:
        nxt = [j for j in neighbours[path[-1]] if j not in path]
        path.append(nxt[0])
    if not n_double:
        return ("A", r)
    if r == 2:
        return ("B", 2)
    u, v = next(e for e, m in multiplicities.items() if m == 2)
    pos = sorted((path.index(u), path.index(v)))
    if pos == [1, 2] and r == 4:
        return ("F", 4)
    if pos[0] == 0 or pos[1] == r - 1:
        if pos[1] == r - 1:
            end, inner = path[-1], path[-2]
        else:
            path.reverse()
            end, inner = path[-1], path[-2]
        if gcm[inner][end] == -2:
            return ("B", r)       # short end node
        return ("C", r)           # long end node
    raise UnknownDiagramShape(f"double bond at interior position {pos} of a path")


def _diagram_automorphisms(diagram: AffineDiagram) -> list[tuple[int, ...]]:
    """All node permutations preserving the GCM and the labels.

    The diagrams are tiny (at most 25 nodes, path- or cycle-like), so a
    straightforward backtracking search is plenty.
    """
    n = diagram.num_nodes
    G = diagram.gcm
    lab = diagram.labels
    rows = [tuple(sorted((G[i][j], G[j][i]) for j in range(n) if j != i and G[i][j]))
            for i in range(n)]

    perms = []

    def backtrack(mapping, used):
        i = len(mapping)
        if i == n:
            perms.append(tuple(mapping))
            return
        for t in range(n):
            if used[t] or lab[t] != lab[i] or rows[t] != rows[i]:
                continue
            ok = True
            for j in range(i):
                if G[i][j] != G[t][mapping[j]] or G[j][i] != G[mapping[j]][t]:
                    ok = False
                    break
            if ok:
                mapping.append(t)
                used[t] = True
                backtrack(mapping, used)
                mapping.pop()
                used[t] = False

    backtrack([], [False] * n)
    return perms


# -- inputs -------------------------------------------------------------------

def _diagrams(max_rank=24):
    """Every affine diagram, untwisted and twisted, of rank <= max_rank."""
    out = []
    for letter, ranks in _VALID_RANKS.items():
        for rank in ranks:
            kind = (letter, rank)
            if rank > max_rank or validate_kind(kind) != kind:
                continue                        # D3 is A3
            for k in admissible_twists(kind):
                out.append(untwisted_diagram(kind) if k == 1 else twisted_diagram(kind, k))
    return out


def _pipeline_pairs(monkeypatch):
    """The (kind, n, component rank, abelian rank) whose option tables one
    verify_all and one regenerate_tables read, in the order they are first
    asked for.  The admissibility and screen memos are emptied first, so
    every search runs and reads its tables."""
    kacaut._admits.cache_clear()
    orbifold._screen.cache_clear()
    pairs = []
    inner = kacaut._cycle_options

    def recorded(kind, n, comp_rank, abelian):
        if (kind, n, comp_rank, abelian) not in pairs:
            pairs.append((kind, n, comp_rank, abelian))
        return inner(kind, n, comp_rank, abelian)

    monkeypatch.setattr(kacaut, "_cycle_options", recorded)
    reports, _ = cases.verify_all(cases.load_cases(), cases.load_schellekens())
    cli.regenerate_tables()
    monkeypatch.undo()
    assert all(r.passed for r in reports)
    assert kacaut._admits.cache_info().misses == 43
    assert orbifold._screen.cache_info().hits == 2        # regen's two floor-1 screens
    return pairs


def _seeded_pairs():
    rng = random.Random(SEED)
    kinds = sorted({validate_kind(d.base) for d in _diagrams(8)})
    return [(rng.choice(kinds), rng.randint(1, 12)) for _ in range(SEEDED_PAIRS)]


def _seeded_bounds(kind, n):
    """Two (component rank, abelian rank) bounds for a seeded pair; they run
    past the rank of the kind, and some leave every twist an empty window."""
    rng = random.Random(f"{SEED}-{kind}-{n}")
    return [(rng.randint(0, kind[1] + 1), rng.randint(0, kind[1] + 1)) for _ in range(2)]


@lru_cache(maxsize=None)
def _oracle_autos(kind, k):
    return _diagram_automorphisms(untwisted_diagram(kind) if k == 1 else twisted_diagram(kind, k))


# -- checks -------------------------------------------------------------------

def _in_bounds(option, comp_rank, abelian):
    _, comps, ab, _ = option
    return ab <= abelian and sum(c[1] * m for c, m in comps) <= comp_rank


def _walked(kind, n, comp_rank, abelian):
    """The table as the support walk builds it, from an empty memo."""
    _cycle_options.cache_clear()
    return _cycle_options(kind, n, comp_rank, abelian)


def _check_options(kind, n):
    """Same option keys as the oracle, each once, and every witness a
    certificate of its option."""
    options = _walked(kind, n, FULL, FULL)
    keys = [(p, comps, ab) for p, comps, ab, _ in options]
    assert len(keys) == len(set(keys)), (kind, n)
    assert set(keys) == {(p, comps, ab) for p, comps, ab, _ in _cycle_options_oracle(kind, n)}, \
        (kind, n)
    for p, comps, ab, cls in options:
        d, s = cls.diagram, cls.s
        assert cls.base == validate_kind(kind) and (n // p) % cls.order == 0, (kind, n, p, s)
        assert cls.twist * dot(d.labels, s) == cls.order and gcd(*s) == 1, (kind, n, s)
        zero = [i for i, x in enumerate(s) if x == 0]
        fixed = tuple(_classify_components(d.gcm, zero))
        assert (fixed, len(s) - len(zero) - 1) == (cls.fixed_components, cls.fixed_abelian)
        assert tuple(sorted(Counter(fixed).items())) == comps and cls.fixed_abelian == ab
        assert s == min(tuple(s[i] for i in perm) for perm in _oracle_autos(cls.base, cls.twist))
    return options


def _check_bounded(kind, n, comp_rank, abelian):
    """The bounded table, walked from an empty memo, is the full table less
    what lies outside the bounds, and its keys are the oracle's inside
    them."""
    bounded = _walked(kind, n, comp_rank, abelian)
    full = _check_options(kind, n)
    assert bounded == tuple(o for o in full if _in_bounds(o, comp_rank, abelian)), \
        (kind, n, comp_rank, abelian)
    assert _cycle_options(kind, n, comp_rank, abelian) == bounded
    assert {o[:3] for o in bounded} == {o[:3] for o in _cycle_options_oracle(kind, n)
                                        if _in_bounds(o, comp_rank, abelian)}
    return bounded


def test_options_match_oracle_on_pipeline_pairs(monkeypatch):
    pairs = _pipeline_pairs(monkeypatch)
    # 38 (kind, n) pairs, three of them asked for two targets: A5, D4 and A9
    # at n = 2 for abelian ranks 1 and 0.  _admits clamps both ranks to the
    # kind's rank, so E6's two targets at n = 2, of component ranks 16 and
    # 12, share one key
    assert len(pairs) == 41 and len({(kind, n) for kind, n, _, _ in pairs}) == 38
    for kind, n, comp_rank, abelian in pairs:
        _check_bounded(kind, n, comp_rank, abelian)


def test_options_match_oracle_on_a24_order_6():
    assert len(_check_options(("A", 24), 6)) == 705
    assert _check_bounded(("A", 24), 6, 1, 0) == ()         # --fixed A1: no window
    assert len(_check_bounded(("A", 24), 6, 24, 5)) == 705  # --fixed A24+ab:5: all of it


@pytest.mark.parametrize("kind, n", _seeded_pairs(), ids=lambda v: str(v))
def test_options_match_oracle_on_seeded_pairs(kind, n):
    for comp_rank, abelian in _seeded_bounds(kind, n):
        _check_bounded(kind, n, comp_rank, abelian)


def test_seeded_bounds_include_empty_windows():
    """Some seeded bounds leave every twist of the kind an empty window."""
    def empty(kind, comp_rank, abelian):
        return all(kacaut._diagram(kind, k).num_nodes - comp_rank > abelian + 1
                   for k in admissible_twists(kind))
    assert any(empty(kind, r, a) for kind, n in _seeded_pairs() for r, a in _seeded_bounds(kind, n))


@pytest.mark.parametrize("diagram", _diagrams(8),
                         ids=lambda d: f"{d.base[0]}{d.base[1]}^{d.twist}")
def test_size_window_keeps_the_walk_within_it(diagram):
    """The 0/1 walk bounded by lo <= |x| <= hi emits exactly the least
    orbit members of such sizes within the budget, ascending, for every
    window; the oracle tests every 0/1 vector against every automorphism."""
    _, autos = _auto_orbit_reps(diagram.base, diagram.twist)
    oracle_autos = _oracle_autos(diagram.base, diagram.twist)
    nodes = diagram.num_nodes
    for budget in (0, 1, 4, sum(diagram.labels)):
        everything = [x for x in product((0, 1), repeat=nodes) if dot(diagram.labels, x) <= budget
                      and x == min(tuple(x[i] for i in perm) for perm in oracle_autos)]
        for lo in range(nodes + 2):
            for hi in range(nodes + 2):
                assert _least_vectors(diagram, autos, budget, (lo, hi)) == \
                    [x for x in everything if lo <= sum(x) <= hi], (budget, lo, hi)


def test_small_witnesses_are_enumerated_classes():
    """A witness is the very class enumerate_classes lists for its order."""
    for kind, n in ((("A", 5), 12), (("D", 4), 8), (("E", 6), 6), (("C", 4), 10)):
        for _, _, _, cls in _cycle_options(kind, n, FULL, FULL):
            assert cls in enumerate_classes(kind, cls.order), cls.label()


@pytest.mark.parametrize("diagram", _diagrams(8),
                         ids=lambda d: f"{d.base[0]}{d.base[1]}^{d.twist}")
def test_sparse_classification_matches_dense_on_every_zero_set(diagram):
    nodes = range(diagram.num_nodes)
    for size in range(diagram.num_nodes):
        for zero in combinations(nodes, size):
            assert classify_components(diagram, zero) == \
                _classify_components(diagram.gcm, zero), zero


def _large_zero_sets(diagram):
    """Every zero set that leaves out one node, whose one or two components
    are the largest there are, and seeded zero sets of every size."""
    rng = random.Random(f"{SEED}-{diagram.base}-{diagram.twist}")
    nodes = range(diagram.num_nodes)
    out = [tuple(j for j in nodes if j != i) for i in nodes]
    for _ in range(SEEDED_ZERO_SETS):
        out.append(tuple(sorted(rng.sample(nodes, rng.randrange(diagram.num_nodes)))))
    return out


@pytest.mark.parametrize("diagram", [d for d in _diagrams() if d.base[1] > 8],
                         ids=lambda d: f"{d.base[0]}{d.base[1]}^{d.twist}")
def test_sparse_classification_matches_dense_on_large_diagrams(diagram):
    """Seeded zero sets on every diagram of rank 9..24, whose components
    reach rank 24; a fresh copy of the diagram keeps no kinds from other
    tests."""
    fresh = AffineDiagram(diagram.base, diagram.twist, diagram.gcm, diagram.labels)
    for zero in _large_zero_sets(diagram):
        assert classify_components(fresh, zero) == _classify_components(diagram.gcm, zero), zero


def test_rank_det_and_short_roots_tell_the_kinds_apart():
    """(rank, det C, number of short simple roots) is injective on the
    kinds up to B2 = C2 and A3 = D3, and names each kind."""
    kinds_of = {}
    for letter, ranks in _VALID_RANKS.items():
        for rank in ranks:
            norms = root_norms((letter, rank))
            key = (rank, cartan_determinant((letter, rank)), sum(x < max(norms) for x in norms))
            kinds_of.setdefault(key, []).append((letter, rank))
    assert len(kinds_of) == 95
    assert sorted(k for k in kinds_of.values() if len(k) > 1) == [[("A", 3), ("D", 3)],
                                                                  [("B", 2), ("C", 2)]]
    for key, kinds in kinds_of.items():
        assert kacaut._kind_of(*key) == kinds[0], key


@pytest.mark.parametrize("key", [(2, 2, 2), (4, 6, 0), (5, 4, 1), (8, 1, 4), (25, 26, 0),
                                 (0, 1, 0)])
def test_no_kind_has_an_impossible_rank_det_and_short_count(key):
    """A triple that names no kind, whether det C, the short count or the
    rank is off, raises with the same text."""
    rank, det, short = key
    with pytest.raises(UnknownDiagramShape) as err:
        kacaut._kind_of(*key)
    assert str(err.value) == (f"no finite kind has rank {rank}, det C = {det} "
                              f"and {short} short simple roots")


def test_sparse_classification_rejects_what_is_not_finite():
    """A whole affine diagram is no finite kind.  A_l^(1), l >= 2, is a
    cycle; A_2l^(2) has two roots whose squared lengths are in ratio 4; every
    other one is a tree whose Cartan matrix has corank 1, so determinant 0."""
    for d in _diagrams():
        if sum(map(len, d.neighbours)) // 2 == d.num_nodes:
            reason = "it has a cycle"
        elif d.twist == 2 and d.base[0] == "A" and d.base[1] % 2 == 0:
            reason = "its root lengths are not in ratio 2 or 3"
        else:
            reason = "a subtree has determinant 0$"
        with pytest.raises(UnknownDiagramShape, match=reason):
            classify_components(d, range(d.num_nodes))


def test_automorphisms_match_backtracking_on_every_diagram():
    diagrams = _diagrams()
    assert len(diagrams) == 142        # 96 untwisted, 46 twisted
    for diagram in diagrams:
        assert diagram_automorphisms(diagram) == _diagram_automorphisms(diagram), \
            (diagram.base, diagram.twist)
