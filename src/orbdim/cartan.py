"""Cartan matrices, marks and affine (possibly twisted) Dynkin diagrams.

Conventions: simple roots are labelled as in Humphreys p.58 (Bourbaki
numbering); the Cartan matrix entry C[i][j] is <alpha_i, alpha_j^vee>
= 2(alpha_i, alpha_j)/(alpha_j, alpha_j); the invariant form is normalised
so long roots have squared length 2.  Affine diagrams carry the Kac labels
a_i, left null vectors of the extended matrix: sum_i a_i C[i][j] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

Kind = tuple[str, int]

_VALID_RANKS = {"A": range(1, 25), "B": range(2, 25), "C": range(2, 25),
                "D": range(3, 25), "E": range(6, 9), "F": range(4, 5), "G": range(2, 3)}


def parse_kind(text: str) -> Kind:
    """Parse 'A4', 'E6', 'C10' into a (letter, rank) pair."""
    text = text.strip()
    if not text or text[0].upper() not in "ABCDEFG":
        raise ValueError(f"cannot parse algebra kind {text!r}")
    letter = text[0].upper()
    try:
        rank = int(text[1:])
    except ValueError:
        raise ValueError(f"cannot parse algebra kind {text!r}") from None
    return validate_kind((letter, rank))


def validate_kind(kind: Kind) -> Kind:
    letter, rank = kind
    if not isinstance(rank, int):
        raise ValueError(f"the rank {rank!r} of {letter} is not an integer")
    if letter not in _VALID_RANKS or type(rank) is bool or rank not in _VALID_RANKS[letter]:
        raise ValueError(f"{letter}{rank} is not a simple Lie algebra kind in range")
    if letter == "D" and rank == 3:
        return ("A", 3)
    return (letter, rank)


def kind_name(kind: Kind) -> str:
    return f"{kind[0]}{kind[1]}"


def classical_dimension(kind: Kind) -> int:
    letter, l = kind
    if letter == "A":
        return l * (l + 2)
    if letter in ("B", "C"):
        return l * (2 * l + 1)
    if letter == "D":
        return l * (2 * l - 1)
    return {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}[kind]


def _chain_edges(l: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(l - 1)]


def cartan_matrix(kind: Kind) -> list[list[int]]:
    """C[i][j] = <alpha_i, alpha_j^vee> with Bourbaki node numbering (0-based)."""
    letter, l = validate_kind(kind)
    C = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def bond(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if letter == "A":
        for i, j in _chain_edges(l):
            bond(i, j)
    elif letter == "B":
        # alpha_l short: <alpha_{l-1}, alpha_l^vee> = -2
        for i, j in _chain_edges(l - 1):
            bond(i, j)
        bond(l - 2, l - 1, -2, -1)
    elif letter == "C":
        # alpha_l long: <alpha_l, alpha_{l-1}^vee> = -2
        for i, j in _chain_edges(l - 1):
            bond(i, j)
        bond(l - 2, l - 1, -1, -2)
    elif letter == "D":
        for i, j in _chain_edges(l - 1):
            bond(i, j)
        C[l - 2][l - 1] = C[l - 1][l - 2] = 0
        bond(l - 3, l - 1)
    elif letter == "E":
        # chain 1-3-4-5-...-l with node 2 attached to node 4 (1-based)
        chain = [0] + list(range(2, l))
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif letter == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)   # alpha_3, alpha_4 short
        bond(2, 3)
    elif letter == "G":
        bond(0, 1, -1, -3)   # alpha_1 short
    return C


def root_norms(kind: Kind) -> list[Fraction]:
    """Squared lengths (alpha_i, alpha_i) with long roots at 2."""
    letter, l = validate_kind(kind)
    if letter in ("A", "D", "E"):
        return [Fraction(2)] * l
    if letter == "B":
        return [Fraction(2)] * (l - 1) + [Fraction(1)]
    if letter == "C":
        return [Fraction(1)] * (l - 1) + [Fraction(2)]
    if letter == "F":
        return [Fraction(2), Fraction(2), Fraction(1), Fraction(1)]
    return [Fraction(2, 3), Fraction(2)]   # G2


def marks(kind: Kind) -> list[int]:
    """Coefficients of the highest root on the simple roots."""
    letter, l = validate_kind(kind)
    if letter == "A":
        return [1] * l
    if letter == "B":
        return [1] + [2] * (l - 1)
    if letter == "C":
        return [2] * (l - 1) + [1]
    if letter == "D":
        return [1] + [2] * (l - 3) + [1, 1]
    return {("E", 6): [1, 2, 2, 3, 2, 1],
            ("E", 7): [2, 2, 3, 4, 3, 2, 1],
            ("E", 8): [2, 3, 4, 6, 5, 4, 3, 2],
            ("F", 4): [2, 3, 4, 2],
            ("G", 2): [3, 2]}[(letter, l)]


@lru_cache(maxsize=None)
def comarks(kind: Kind) -> tuple[int, ...]:
    """Coefficients of theta^vee on the simple coroots: a_i (alpha_i,alpha_i)/2."""
    out = []
    for a, d in zip(marks(kind), root_norms(kind)):
        c = Fraction(a) * d / 2
        if c.denominator != 1:
            raise ArithmeticError(f"comark {c} of {kind_name(kind)} is not an integer")
        out.append(int(c))
    return tuple(out)


def dual_coxeter(kind: Kind) -> int:
    return 1 + sum(comarks(kind))


def coxeter(kind: Kind) -> int:
    return 1 + sum(marks(kind))


def cartan_determinant(kind: Kind) -> int:
    """det C: the order of P/Q and of P^vee/Q^vee (Humphreys, Introduction
    to Lie Algebras and Representation Theory, 13.1)."""
    letter, l = validate_kind(kind)
    return {"A": l + 1, "B": 2, "C": 2, "D": 4, "E": 9 - l}.get(letter, 1)


@dataclass(frozen=True)
class AffineDiagram:
    """An affine Dynkin diagram of type base^(twist) with its Kac labels.

    gcm is the full (l+1)x(l+1) generalised Cartan matrix over the nodes
    0..l (node 0 first); labels are the Kac labels a_i.  The order of the
    automorphism with coordinates s is twist * sum_i labels[i] s[i].
    fixed_by_zero_set memoises kacaut.fixed_from_s: the kinds of the
    subdiagram on each zero set classified so far.  It takes no part in
    equality or hashing, nor does the sparse table neighbours, built on
    first use.
    """

    base: Kind
    twist: int
    gcm: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]
    fixed_by_zero_set: dict = field(default_factory=dict, init=False, repr=False,
                                    compare=False)

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @cached_property
    def neighbours(self) -> tuple[dict[int, int], ...]:
        """neighbours[i] maps each node j != i joined to i to gcm[i][j]: the
        sparse table that classification and the automorphism search read."""
        return tuple({j: x for j, x in enumerate(row) if x and j != i}
                     for i, row in enumerate(self.gcm))

    def check_null(self):
        n = self.num_nodes
        for j in range(n):
            if sum(self.labels[i] * self.gcm[i][j] for i in range(n)):
                raise ArithmeticError(f"labels are not a null vector of {self.base}^{self.twist}")


def _freeze(M):
    return tuple(tuple(row) for row in M)


@lru_cache(maxsize=None)
def untwisted_diagram(kind: Kind) -> AffineDiagram:
    """X_l^(1): extend the finite diagram by the affine node alpha_0 = -theta."""
    kind = validate_kind(kind)
    l = kind[1]
    C = cartan_matrix(kind)
    a = marks(kind)
    av = comarks(kind)
    n = l + 1
    G = [[0] * n for _ in range(n)]
    for i in range(l):
        for j in range(l):
            G[i + 1][j + 1] = C[i][j]
    G[0][0] = 2
    for j in range(l):
        # <-theta, alpha_j^vee> and <alpha_j, -theta^vee>
        G[0][j + 1] = -sum(a[i] * C[i][j] for i in range(l))
        G[j + 1][0] = -sum(av[i] * C[j][i] for i in range(l))
    if kind == ("A", 1):
        G[0][1] = G[1][0] = -2
    diagram = AffineDiagram(kind, 1, _freeze(G), (1, *a))
    diagram.check_null()
    return diagram


def _chain_gcm(bonds):
    """GCM of a path given per-edge (c_ij, c_ji) for consecutive nodes."""
    n = len(bonds) + 1
    G = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, (cij, cji) in enumerate(bonds):
        G[i][i + 1] = cij
        G[i + 1][i] = cji
    return G


@lru_cache(maxsize=None)
def twisted_diagram(kind: Kind, twist: int) -> AffineDiagram:
    """The twisted affine diagram of the given base and twist (Kac Aff 2/Aff 3).

    Anchor facts encoded here: the unique order-2 outer class of A_{2l}
    fixes B_l; A_{2l-1} has order-2 outer classes fixing C_l and D_l;
    D_l order-2 outer classes fix B_j x B_{l-1-j} (B_1 = A_1, B_0 = 0);
    E_6 fixes F_4 or C_4; D_4 triality fixes G_2 or A_2.
    """
    kind = validate_kind(kind)
    letter, l = kind
    if twist == 2 and letter == "A" and l >= 2:
        if l % 2 == 0:
            m = l // 2          # A_{2m}^(2): path 0..m, labels (1,2,...,2)
            if m == 1:
                G = _chain_gcm([(-4, -1)])
            else:
                bonds = [(-2, -1)] + [(-1, -1)] * (m - 2) + [(-2, -1)]
                G = _chain_gcm(bonds)
            labels = (1,) + (2,) * m
            d = AffineDiagram(kind, 2, _freeze(G), labels)
        else:
            m = (l + 1) // 2    # A_{2m-1}^(2): fork {0,1} on 2, C-type end at m
            if m == 2:          # A_3^(2) = D_3^(2): fork degenerates to the path
                G = _chain_gcm([(-1, -2), (-2, -1)])
                d = AffineDiagram(kind, 2, _freeze(G), (1, 1, 1))
            else:
                n = m + 1
                G = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
                for i, j in [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, m - 1)]:
                    G[i][j] = G[j][i] = -1
                G[m - 1][m] = -1
                G[m][m - 1] = -2
                labels = (1, 1) + (2,) * (m - 2) + (1,)
                d = AffineDiagram(kind, 2, _freeze(G), labels)
    elif twist == 2 and letter == "D" and l >= 4:
        # D_l^(2): path on l-1+1 nodes, all labels 1, B-type at both ends
        n = l
        bonds = [(-1, -2)] + [(-1, -1)] * (n - 3) + [(-2, -1)]
        G = _chain_gcm(bonds)
        d = AffineDiagram(kind, 2, _freeze(G), (1,) * n)
    elif twist == 2 and kind == ("E", 6):
        G = _chain_gcm([(-1, -1), (-1, -1), (-1, -2), (-1, -1)])
        d = AffineDiagram(kind, 2, _freeze(G), (1, 2, 3, 2, 1))
    elif twist == 3 and kind == ("D", 4):
        G = _chain_gcm([(-1, -1), (-1, -3)])
        d = AffineDiagram(kind, 3, _freeze(G), (1, 2, 1))
    else:
        raise ValueError(f"{kind_name(kind)} admits no twist-{twist} diagram")
    d.check_null()
    return d


def admissible_twists(kind: Kind) -> list[int]:
    letter, l = validate_kind(kind)
    out = [1]
    if letter == "A" and l >= 2:
        out.append(2)
    elif letter == "D":
        out.append(2)
        if l == 4:
            out.append(3)
    elif (letter, l) == ("E", 6):
        out.append(2)
    return out


def diagram_automorphisms(diagram: AffineDiagram) -> list[tuple[int, ...]]:
    """All node permutations preserving the GCM and the labels, ascending.

    The diagram is connected, so a partial map is extended along edges:
    the nodes are mapped in breadth-first order from node 0, each to a
    neighbour of an earlier neighbour's image, with the same label and
    bonds.  A node t is a valid image of v when every earlier neighbour u
    of v goes to a neighbour of t by the same bond both ways, so each
    candidate costs only its degree.  A complete map then sends the
    finitely many edges injectively, hence onto, the edges, and so
    non-edges to non-edges.
    """
    adj = diagram.neighbours
    n = diagram.num_nodes
    sig = [(diagram.labels[i], sorted((x, adj[j][i]) for j, x in adj[i].items()))
           for i in range(n)]
    order = [0]
    for v in order:
        order += [j for j in adj[v] if j not in order]
    pos = {v: k for k, v in enumerate(order)}
    back = [[(u, x, adj[u][v]) for u, x in adj[v].items() if pos[u] < k]
            for k, v in enumerate(order)]
    image = [0] * n
    used = [False] * n
    perms = []

    def extend(k):
        if k == n:
            perms.append(tuple(image))
            return
        v, earlier = order[k], back[k]
        for t in adj[image[earlier[0][0]]] if k else range(n):
            if not used[t] and sig[t] == sig[v] and all(
                    adj[t].get(image[u]) == x and adj[image[u]][t] == y for u, x, y in earlier):
                image[v], used[t] = t, True
                extend(k + 1)
                used[t] = False

    extend(0)
    return sorted(perms)
