"""Kac's classification of finite-order automorphisms and its consequences.

A conjugacy class of order-n automorphisms of a simple algebra is a twist
k in {1,2,3} together with coprime non-negative node coordinates s on the
twisted affine diagram, and a KacClass holds these alone: n = k * sum_i a_i
s_i and the fixed subalgebra, read off the subdiagram of nodes with s_i = 0
plus an abelian part, are functions of s (Kac, Infinite-dimensional Lie
algebras, Thm 8.6 and 8.8).  Each component of that subdiagram is
classified by invariants, not by its shape: a tree with every subtree
determinant positive is of finite type, and its rank, det C and number of
short simple roots name the kind.  Classes are stored up to diagram
automorphisms of the affine diagram, which is conjugacy under the full
automorphism group of the algebra: each class is represented by the
lexicographically least s of its orbit, and enumerate_classes returns the
classes of each twist in ascending order of that s, an order callers may
rely on.

The admissibility scan needs only what a class fixes, and that depends on k
and the zero set Z = {i : s_i = 0} alone: the components of the subdiagram
on Z and an abelian part of rank |Z^c| - 1.  So _cycle_options walks the
supports S = Z^c up to diagram automorphisms, not the classes.  A support S
carries a class of order dividing r = k t iff t - sum_{i in S} a_i is a
non-negative combination of the marks {a_i : i in S}, a coin problem; a
label vector with gcd g > 1 is g times a class of order r/g with the same
support, so no gcd test is needed.  Classes and supports come from one
orderly walk, _least_vectors, which differs between the two only in the
values a node may take.

A scan only needs the options that can fit its target.  An option with
twist k and support S has abelian rank |S| - 1 and components of total rank
|Z| = nodes_k - |S|, one rank per node of a finite Dynkin diagram, so inside
a target of component rank R and abelian rank A it needs nodes_k - R <= |S|
<= A + 1.  Both bounds are conditions on the option itself, so the support
walk is cut to that window and drops only whole options that never fit;
see _cycle_options.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .cartan import (
    _VALID_RANKS,
    AffineDiagram,
    Kind,
    admissible_twists,
    cartan_determinant,
    classical_dimension,
    diagram_automorphisms,
    kind_name,
    root_norms,
    twisted_diagram,
    untwisted_diagram,
    validate_kind,
)
from .liealg import RootSystem, alcove_walk, build_root_system, dot, scale_coweight, weyl_tables
from .modcurve import divisors


class UnknownDiagramShape(ValueError):
    pass


def classify_components(diagram: AffineDiagram, nodes) -> list[Kind]:
    """Connected components of the subdiagram on nodes, classified as finite
    simple kinds.  The search reads the sparse table diagram.neighbours.
    Each component is a zero set of its own: its kind is classified once and
    kept in diagram.fixed_by_zero_set, as fixed_from_s keeps whole zero sets.

    A component is of finite type iff it is a tree with a positive definite
    symmetrised Cartan matrix (Kac, ch. 4).  The walk records each node's
    parent and squared length, a_uv |v|^2 = a_vu |u|^2 from |seed|^2 = 6,
    so lengths in ratio 2 or 3 stay integers; a remainder, or an edge back
    to an earlier node other than the parent, raises.  Subtree determinants
    then come from the leaves up, det T_v = 2 prod_c det T_c -
    sum_c a_vc a_cv det(T_c - c) prod_{c' != c} det T_c'.  In the reverse
    order of the walk each node follows its subtree, so every leading minor
    is a product of these, and by Sylvester's criterion all are positive iff
    the component is of finite type.  Rank, det C and the number of short
    roots then name the kind, see _kind_of.
    """
    neighbours, known = diagram.neighbours, diagram.fixed_by_zero_set
    left = set(nodes)
    kinds = []
    for seed in nodes:
        if seed not in left:
            continue
        left.discard(seed)
        comp, up, norm, at = [seed], [None], [6], {seed: 0}
        for i, u in enumerate(comp):
            for j, a in neighbours[u].items():
                if j in left:
                    left.discard(j)
                    length, rest = divmod(neighbours[j][u] * norm[i], a)
                    if rest:
                        raise UnknownDiagramShape(f"the component of node {seed} is not of finite "
                                                  "type: its root lengths are not in ratio 2 or 3")
                    at[j] = len(comp)
                    comp.append(j)
                    up.append(i)
                    norm.append(length)
                elif j in at and at[j] != up[i]:
                    raise UnknownDiagramShape(f"the component of node {seed} is not of finite "
                                              "type: it has a cycle")
        key = tuple(sorted(comp))
        kind = known.get(key)
        if kind is None:
            prod, cut = [1] * len(comp), [0] * len(comp)    # det(T_v - v), the sum above
            for v in range(len(comp) - 1, -1, -1):
                det = 2 * prod[v] - cut[v]
                if det <= 0:
                    raise UnknownDiagramShape(f"component {list(key)} is not of finite type: "
                                              f"a subtree has determinant {det}")
                p = up[v]
                if p is not None:
                    bond = neighbours[comp[p]][comp[v]] * neighbours[comp[v]][comp[p]]
                    cut[p] = cut[p] * det + bond * prod[v] * prod[p]
                    prod[p] *= det
            top = max(norm)
            kind = known[key] = (_kind_of(len(comp), det, sum(x < top for x in norm)),)
        kinds += kind
    return sorted(kinds)


@lru_cache(maxsize=None)
def _kind_of(rank: int, det: int, short: int) -> Kind:
    """The finite kind of the given rank with det C = det and `short` short
    simple roots.  These three tell the kinds of one rank apart, but for
    B2 = C2 and A3 = D3, which come out as B2 and A3."""
    for letter, ranks in _VALID_RANKS.items():
        if rank in ranks:
            kind = validate_kind((letter, rank))
            if cartan_determinant(kind) != det:
                continue                    # an int test spares the norms' Fractions
            norms = root_norms(kind)
            top = max(norms)
            if sum(x < top for x in norms) == short:
                return kind
    raise UnknownDiagramShape(f"no finite kind has rank {rank}, det C = {det} "
                              f"and {short} short simple roots")


@dataclass(frozen=True)
class KacClass:
    """One Aut-conjugacy class of finite-order automorphisms of a simple algebra:
    its diagram and least labels s.  Its order and fixed algebra are properties of s."""

    diagram: AffineDiagram
    s: tuple[int, ...]

    @property
    def base(self) -> Kind:
        return self.diagram.base

    @property
    def twist(self) -> int:
        return self.diagram.twist

    @property
    def order(self) -> int:
        return self.diagram.twist * dot(self.diagram.labels, self.s)

    @property
    def fixed_components(self) -> tuple[Kind, ...]:
        return fixed_from_s(self.diagram, self.s)[0]

    @property
    def fixed_abelian(self) -> int:
        return fixed_from_s(self.diagram, self.s)[1]

    def fixed_dimension(self) -> int:
        return sum(classical_dimension(k) for k in self.fixed_components) + self.fixed_abelian

    def label(self) -> str:
        fixed = fixed_label(*fixed_from_s(self.diagram, self.s))
        return (f"{self.base[0]}_{self.base[1]}^({self.twist}); "
                f"s={list(self.s)}; order={self.order}; fixed={fixed}")


def fixed_label(components, abelian: int) -> str:
    """A fixed algebra as text: its simple components, "-" when there is
    none, then C^abelian when the abelian part is not zero."""
    label = " ".join(kind_name(k) for k in components) or "-"
    return f"{label} C^{abelian}" if abelian else label


def _diagram(kind: Kind, k: int) -> AffineDiagram:
    return untwisted_diagram(kind) if k == 1 else twisted_diagram(kind, k)


@lru_cache(maxsize=None)
def _auto_orbit_reps(kind: Kind, k: int):
    d = _diagram(kind, k)
    return d, diagram_automorphisms(d)


def fixed_from_s(diagram: AffineDiagram, s) -> tuple[tuple[Kind, ...], int]:
    """(fixed components, abelian rank) of the class with Kac coordinates s.

    The components are those of the subdiagram on Z = {i : s_i = 0}, so they
    are classified once per diagram and zero set; the abelian rank is
    #{i : s_i != 0} - 1."""
    zero = tuple([i for i, x in enumerate(s) if not x])
    comps = diagram.fixed_by_zero_set.get(zero)
    if comps is None:
        comps = diagram.fixed_by_zero_set[zero] = tuple(classify_components(diagram, zero))
    return comps, len(s) - len(zero) - 1


def _least_vectors(diagram: AffineDiagram, autos, budget: int, sizes=None):
    """The least member of every orbit of label vectors, in ascending order.

    With sizes None the vectors are s >= 0 with sum_i a_i s_i = budget;
    with sizes = (lo, hi) they are the 0/1 vectors x with sum_i a_i x_i <=
    budget and lo <= |x| <= hi, |x| the number of ones.  The two differ
    only in the values each node may take.

    The search is an orderly generation (R. C. Read, "Every one a winner",
    Ann. Discrete Math. 2 (1978)).  It sets s[0], s[1], ... in turn, each in
    ascending order; without sizes the last coordinate is fixed by the
    budget.  For every non-identity diagram automorphism pi it carries j,
    with the invariant that the image t = s o pi (t[m] = s[pi[m]]) agrees
    with s on positions 0..j-1.  Position j can be compared once s[j] and
    s[pi[j]] are both set, that is at node w = max(j, pi[j]), so (pi, j)
    waits in the bucket of node w.  Once s[i] is set, node i takes each
    (pi, j) from its bucket and advances j while j <= i, pi[j] <= i and
    t[j] = s[j].  If t[j] and s[j] are then both known and t[j] < s[j],
    every completion has an image smaller than itself, so the branch is
    cut; if t[j] > s[j], no completion has t < s, and pi is dropped for the
    rest of the branch; otherwise (pi, j) moves to the bucket of its next
    wake node, or is dropped if s o pi = s.  These moves are undone before
    node i tries its next value, and automorphisms in later buckets are not
    touched, so a node costs only what its own bucket holds.  Once the
    budget is spent, or a 0/1 vector has hi ones, every later coordinate is
    0, so the whole tail is set at once and each waiting automorphism is
    compared on the complete vector.  A 0/1 branch whose ones so far plus
    its nodes left fall short of lo is cut.  A complete s that survives is
    no larger than any of its images, so it is the least member of its
    orbit; conversely every prefix of a least member survives, so each
    orbit is reached exactly once, and in ascending lexicographic order.
    The size bounds only cut branches with no completion in the window, so
    the 0/1 walk emits exactly the vectors of the walk without them whose
    size lies in the window, in the same order.
    """
    labels = diagram.labels
    last = diagram.num_nodes - 1
    if sizes:
        lo, hi = sizes
        if lo > min(hi, last + 1) or lo and not budget:
            return []
    identity = tuple(range(last + 1))
    s = [0] * (last + 1)
    buckets = [[] for _ in s]
    for perm in autos:
        if perm != identity:
            buckets[perm[0]].append((perm, 0))
    out = []

    def zero_tail(i):
        s[i:] = [0] * (last + 1 - i)
        for waiting in buckets[i:]:
            for perm, j in waiting:
                while j <= last and s[perm[j]] == s[j]:
                    j += 1
                if j <= last and s[perm[j]] < s[j]:
                    return
        out.append(tuple(s))

    def rec(i, left):
        if not left:
            zero_tail(i)
            return
        a = labels[i]
        if sizes:
            ones = sum(s[:i])
            values = (0,) if ones + last - i >= lo else ()
            # a one that spends the budget ends x, which then needs lo ones
            if a <= left and ones < hi and (a < left or ones >= lo - 1):
                values += (1,)
            if ones + 1 == hi:
                a = left                        # a one here ends x: spend it all
        elif i == last:
            v, r = divmod(left, a)
            values = () if r else (v,)
        else:
            values = range(left // a + 1)
        waiting = buckets[i]
        for v in values:
            s[i] = v
            moved = []
            for perm, j in waiting:
                while j <= i and perm[j] <= i and s[perm[j]] == s[j]:
                    j += 1
                if j > last:
                    continue                    # s o pi = s
                wake = perm[j] if perm[j] > j else j
                if wake > i:
                    buckets[wake].append((perm, j))
                    moved.append(wake)
                elif s[perm[j]] < s[j]:
                    break
            else:
                if i < last:
                    rec(i + 1, left - v * a)
                else:
                    out.append(tuple(s))
            for wake in moved:
                buckets[wake].pop()

    rec(0, budget)
    return out


@lru_cache(maxsize=None)
def enumerate_classes(kind: Kind, order: int) -> tuple[KacClass, ...]:
    """All conjugacy classes of order-n automorphisms of the simple algebra.

    The classes come twist by twist, in the order of admissible_twists.
    Each class is given by the lexicographically least label vector s of
    its orbit under the diagram automorphisms, and within a twist the
    classes come in ascending lexicographic order of s.  This order is part
    of the contract: `orbdim kac` prints it and callers index into it.
    The vectors come from the orderly walk _least_vectors, which keeps
    those with gcd(s) = 1.  No fixed algebra is classified here: a class
    reads its own from s when asked, once per zero set, see fixed_from_s.
    """
    kind = validate_kind(kind)
    if order < 1:
        raise ValueError("the order must be a positive integer")
    out = []
    for k in admissible_twists(kind):
        if order % k:
            continue
        diagram, autos = _auto_orbit_reps(kind, k)
        for s in _least_vectors(diagram, autos, order // k):
            if gcd(*s) == 1:
                out.append(KacClass(diagram, s))
    return tuple(out)


# -- inner automorphisms from coweights ----------------------------------

def inner_from_coweight(rs: RootSystem, h):
    """Order and fixed subalgebra of exp(-2 pi i h_0) on the algebra.

    Returns (order, (components, abelian_rank), fixed_dimension).  With
    h = c/d from scale_vector, gcd(c_1, ..., c_r, d) = 1.  The automorphism
    multiplies the root space of alpha by exp(-2 pi i alpha(h)), and
    alpha_i(h) = c_i/d.  Every root is an integral combination of simple
    roots, so m*alpha(h) is integral for all roots iff d divides m*c_i for
    all i, iff d divides m: the order is d.  The fixed subalgebra is read
    off the Kac coordinates by fixed_from_s on the untwisted affine diagram;
    its dimension is checked against rank + 2 #{alpha > 0 : (alpha, c) = 0
    mod d}.

    The answer depends on the kind and on (c, d) alone, so h is scaled once
    and the answer read from the memo _inner, an lru_cache on the int key
    (kind, c, d).  scale_vector reduces, so equal coweights spelled as ints,
    Fractions or strings share one entry; the value is a tuple of tuples, so
    no caller can change it.  A failed check raises afresh on every call, as
    lru_cache keeps no exception, and its text names h as c/d, whatever the
    caller's spelling.
    """
    return _inner(rs.kind, *scale_coweight(rs.kind, h))


@lru_cache(maxsize=1024)
def _inner(kind: Kind, c: tuple[int, ...], d: int):
    """inner_from_coweight at h = c/d, gcd(c, d) = 1."""
    comps, abelian = fixed_from_s(untwisted_diagram(kind), _kac_labels(kind, c, d))
    dim = kind[1] + 2 * sum(1 for root in build_root_system(kind).positive_roots
                            if dot(root, c) % d == 0)
    if dim != sum(classical_dimension(k) for k in comps) + abelian:
        raise ArithmeticError(f"fixed subalgebra of {c}/{d} on {kind_name(kind)} has "
                              f"dimension {dim}, not that of {comps} + C^{abelian}")
    return d, (comps, abelian), dim


def coweight_to_kac_labels(rs: RootSystem, h):
    """Kac coordinates of the inner automorphism exp(-2 pi i h_0).

    With h = c/d from scale_vector: the automorphism depends on h only modulo
    the coweight lattice, so c is reduced mod d first and the alcove walk
    does not grow with |h|.  The alcove point c~/d gives s_0 = d - theta(c~)
    and s_i = c~_i, so sum_i a_i s_i = d.  Every walk step applies an
    integral reflection to c and adds d times an integer vector, so
    gcd(c~, d) = gcd(c, d) = 1 and hence gcd(s) = 1.  h and h + lambda, lambda a coweight, give the same
    automorphism but may reach alcove points that differ by a diagram
    automorphism induced by P^vee/Q^vee, so s is fixed only up to those.
    """
    return _kac_labels(rs.kind, *scale_coweight(rs.kind, h))


def _kac_labels(kind: Kind, c, d: int) -> tuple[int, ...]:
    tilde, _ = alcove_walk(kind, [x % d for x in c], d)
    s = (d - dot(weyl_tables(kind).marks, tilde), *tilde)
    if any(x < 0 for x in s):
        raise ArithmeticError(f"Kac coordinates {s} of {c}/{d} are not non-negative")
    return s


# -- automorphisms of semisimple algebras --------------------------------

@dataclass(frozen=True)
class CyclePart:
    """A cyclic permutation of isomorphic factors with a residual class.

    indices are positions into the ambient factor list; the composite fixes
    a diagonal copy of the residual's fixed subalgebra and has order
    len(indices) * residual.order.
    """

    indices: tuple[int, ...]
    residual: KacClass


@dataclass(frozen=True)
class SemisimpleAut:
    parts: tuple

    def order(self, kinds) -> int:
        return lcm(*(len(part.indices) * part.residual.order for part in self.parts))


def fixed_subalgebra_semisimple(aut: SemisimpleAut, kinds):
    """Fixed subalgebra of a semisimple automorphism: (components, abelian, dim).

    kinds is the list of simple factors (an affine structure is accepted and
    reduced to its factors); every factor index must be covered exactly once
    across the parts.
    """
    if hasattr(kinds, "kinds"):
        kinds = kinds.kinds()
    kinds = [validate_kind(tuple(k)) for k in kinds]
    covered = []
    comps: list[Kind] = []
    abelian = 0
    for part in aut.parts:
        cycle_kinds = {kinds[i] for i in part.indices}
        if len(cycle_kinds) != 1:
            raise ValueError("cycles must permute isomorphic factors")
        if part.residual.base not in cycle_kinds:
            raise ValueError("residual class acts on the wrong kind")
        covered.extend(part.indices)
        comps.extend(part.residual.fixed_components)
        abelian += part.residual.fixed_abelian
    if sorted(covered) != list(range(len(kinds))):
        raise ValueError("automorphism parts must cover every factor exactly once")
    dim = sum(classical_dimension(k) for k in comps) + abelian
    return tuple(sorted(comps)), abelian, dim


def witness_fault(kinds, witness, target_components, target_abelian: int, n: int):
    """Why a witness of admits_fixed_subalgebra is no certificate, or None.

    The labels s of every class come first, as the class reads its order
    and fixed algebra from them: one entry >= 0 per node, gcd(s) = 1.  Each
    (kind, p, cls) then becomes a p-cycle, with residual class cls, of the
    next p factors of that kind in kinds, so the indices of one kind are
    used consecutively.  The SemisimpleAut so built must have order dividing
    n, and fixed_subalgebra_semisimple must give back the target."""
    for _, _, cls in witness:
        if len(cls.s) != cls.diagram.num_nodes or min(cls.s) < 0 or gcd(*cls.s) != 1:
            return (f"the labels s={list(cls.s)} on {cls.base[0]}_{cls.base[1]}^({cls.twist}) "
                    "are not coprime Kac coordinates")
    free: dict[Kind, list[int]] = {}
    for index, kind in enumerate(kinds):
        free.setdefault(validate_kind(tuple(kind)), []).append(index)
    parts = []
    for kind, p, cls in witness:
        left = free.get(kind, [])
        if len(left) < p:
            return f"the witness cycles more {kind_name(kind)} factors than there are"
        parts.append(CyclePart(tuple(left[:p]), cls))
        del left[:p]
    aut = SemisimpleAut(tuple(parts))
    try:
        comps, abelian, _ = fixed_subalgebra_semisimple(aut, kinds)
    except ValueError as err:
        return str(err)
    order = aut.order(kinds)
    if n % order:
        return f"the witness has order {order}, which does not divide {n}"
    target = tuple(sorted(validate_kind(tuple(k)) for k in target_components))
    if (comps, abelian) != (target, target_abelian):
        return f"the witness fixes {comps} + C^{abelian}, not {target} + C^{target_abelian}"
    return None


@lru_cache(maxsize=None)
def _supports(kind: Kind, k: int, budget: int, lo: int, hi: int):
    """(x, sum_i a_i x_i, {a_i : x_i = 1} ascending) for the least member x
    of every orbit of 0/1 vectors on the twist-k diagram with
    sum_i a_i x_i <= budget and 1 <= lo <= |x| <= hi."""
    diagram, autos = _auto_orbit_reps(kind, k)
    labels = diagram.labels
    return tuple((x, dot(labels, x), tuple(sorted({a for a, xi in zip(labels, x) if xi})))
                 for x in _least_vectors(diagram, autos, budget, (lo, hi)))


@lru_cache(maxsize=None)
def _coin_table(coins: tuple[int, ...], budget: int):
    """(last, least) for v, w = 0..budget: last[v] is a coin c with v - c a
    non-negative combination of the coins (0 for v = 0), or None when v is
    none; least[w] is the least t | budget with t - w such a combination, or
    None when there is none."""
    last = [0] + [None] * budget
    for v in range(1, budget + 1):
        last[v] = next((c for c in coins if c <= v and last[v - c] is not None), None)
    ts = divisors(budget)
    least = [next((t for t in ts if t >= w and last[t - w] is not None), None)
             for w in range(budget + 1)]
    return last, least


def _witness_labels(diagram, autos, x, extra, last):
    """x plus `extra` paid in the coins of `last`, as the least member of its
    orbit.  A 0/1 vector x from _supports is one already."""
    if not extra:
        return x
    s = list(x)
    while extra:
        c = last[extra]
        s[next(i for i, xi in enumerate(x) if xi and diagram.labels[i] == c)] += 1
        extra -= c
    return min(tuple(s[i] for i in perm) for perm in autos)


@lru_cache(maxsize=None)
def _cycle_options(kind: Kind, n: int, comp_rank: int, abelian: int):
    """What a p-cycle of `kind` factors, with a residual class of order
    dividing n/p, can fix inside a target whose components have total rank
    comp_rank and whose abelian part has rank `abelian`: each distinct
    (p, ((component, multiplicity), ...), abelian rank) once, with one
    witness class.

    By Kac (Infinite-dimensional Lie algebras, Thm 8.6 and 8.8) the fixed
    algebra of the class with twist k and labels s depends only on k and the
    zero set Z = {i : s_i = 0}: the components are those of the subdiagram
    on Z, and the abelian rank is |Z^c| - 1.  Diagram automorphisms permute
    the zero sets and keep the fixed algebra, so the options come from the
    supports S = Z^c up to automorphisms, see _supports.  A class with
    support S and order r = k t exists iff t - sum_{i in S} a_i is a
    non-negative combination of the marks {a_i : i in S}: a coin problem,
    answered by one table of size at most n.  An option for p needs r | n/p,
    that is t | n/(p k).  Labels s with gcd g > 1 need no test: s/g has the
    same support and is a class of order r/g, which also divides n/p.  The
    witness of each option comes from the first support found, with its
    least t, and is the least member of its orbit.  Its gcd is 1: were it
    g > 1, t/g would be a smaller valid t.

    Only supports that can fit the target are walked.  An option of twist k
    with support S has abelian rank |S| - 1, and its components have total
    rank |Z| = nodes_k - |S|, as each node of a finite Dynkin diagram is one
    rank.  Inside the target both are bounded, so nodes_k - comp_rank <=
    |S| <= abelian + 1; a twist whose window is empty builds nothing.  The
    two bounds read ab <= abelian and rank(comps) <= comp_rank, conditions
    on the option's key alone, so a key is kept with all its supports, and
    so with the same first witness, or dropped as a whole: the table is the
    full table, in the same order, less the options no target within the
    bounds can hold.  The full table is comp_rank = abelian = rank(kind);
    bounds above it change nothing, and _admits clamps them to it, so
    they share one entry of this memo.
    """
    table = {}
    for p in divisors(n):
        m = n // p
        for k in admissible_twists(kind):
            if m % k:
                continue
            nodes = _diagram(kind, k).num_nodes
            lo, hi = max(nodes - comp_rank, 1), min(abelian + 1, nodes)
            if lo > hi:
                continue
            diagram, autos = _auto_orbit_reps(kind, k)
            budget = m // k
            for x, weight, coins in _supports(kind, k, n // k, lo, hi):
                if weight > budget:
                    continue
                last, least = _coin_table(coins, budget)
                t = least[weight]
                if t is None:
                    continue
                comps, ab = fixed_from_s(diagram, x)
                if (p, comps, ab) not in table:
                    s = _witness_labels(diagram, autos, x, t - weight, last)
                    table[p, comps, ab] = KacClass(diagram, s)
    return tuple((p, tuple(sorted(Counter(comps).items())), ab, cls)
                 for (p, comps, ab), cls in table.items())


def admits_fixed_subalgebra(kinds, target_components, target_abelian: int, n: int):
    """Is some automorphism of order dividing n with the given fixed algebra possible?

    kinds: simple factors of the ambient algebra; the target is a multiset of
    kinds plus an abelian rank.  Returns (found, witness) where the witness
    lists (kind, cycle_length, KacClass) choices.  The search fills the
    groups of equal kinds in turn with cycles from _cycle_options, so it
    branches on distinct fixed algebras, never on two classes fixing the same.

    The answer depends on the multisets of kinds and target components, the
    abelian rank and n alone; the witness too, as the search reads the kinds
    only through their sorted groups.  So the search runs in _admits, an
    lru_cache on the sorted validated kinds and target, and permuted inputs
    share one entry.  The checks of n, the abelian rank and every kind run
    on every call, before the memo is read; lru_cache keeps no exception,
    so a bad call raises afresh every time.  The memo holds the witness as
    a tuple, and every call returns a fresh list of it.
    """
    if n < 1:
        raise ValueError("the order must be a positive integer")
    if type(target_abelian) is not int:
        raise ValueError(f"the abelian rank {target_abelian!r} is not an integer")
    if target_abelian < 0:
        raise ValueError("the abelian rank must be non-negative")
    found, witness = _admits(tuple(sorted(validate_kind(tuple(k)) for k in kinds)),
                             tuple(sorted(validate_kind(tuple(k)) for k in target_components)),
                             target_abelian, n)
    return (True, list(witness)) if found else (False, None)


@lru_cache(maxsize=1024)
def _admits(kinds, target, target_abelian: int, n: int):
    """admits_fixed_subalgebra on sorted validated kinds and target
    components, the witness as a tuple."""
    groups = sorted(Counter(kinds).items())
    left = Counter(target)
    comp_rank = sum(k[1] * m for k, m in left.items())
    witness = []

    def fits(option, length, ab_left):
        p, comps, ab, _ = option
        return p <= length and ab <= ab_left and all(left[k] >= m for k, m in comps)

    def enter(gi, ab_left):
        """Start group gi with the options that still fit, or check the end."""
        if gi == len(groups):
            return ab_left == 0 and not any(left.values())
        kind, count = groups[gi]
        bounds = min(comp_rank, kind[1]), min(target_abelian, kind[1])
        opts = [o for o in _cycle_options(kind, n, *bounds) if fits(o, count, ab_left)]
        return search(gi, opts, 0, count, ab_left)

    def search(gi, opts, start, length, ab_left):
        """Cover `length` more factors of group gi by cycles from opts[start:]."""
        if length == 0:
            return enter(gi + 1, ab_left)
        for oi in range(start, len(opts)):
            if not fits(opts[oi], length, ab_left):
                continue
            p, comps, ab, cls = opts[oi]
            left.subtract(dict(comps))
            witness.append((groups[gi][0], p, cls))
            if search(gi, opts, oi, length - p, ab_left - ab):
                return True
            witness.pop()
            left.update(dict(comps))
        return False

    found = enter(0, target_abelian)
    return (True, tuple(witness)) if found else (False, None)
