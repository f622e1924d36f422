"""Group-theoretic inputs: free nilpotent groups, central extensions and
actions on them.

Free nilpotent groups are carried by their rank and class only; their
lower central series data is realised through a Hall basis of basic
commutators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import index

from .linalg import (IntMatrix, RatMatrix, binomial, require_commuting, solve,
                     tensor_power_map)


@lru_cache(maxsize=None)
def witt_number(r: int, w: int) -> int:
    """Rank of the weight-w layer of the free Lie ring on r generators,
    from the necklace identity r^w = sum of d W(r, d) over the divisors
    d of w, solved for its last term.

    >>> [witt_number(2, w) for w in range(1, 5)]
    [2, 1, 2, 3]
    """
    if w < 1:
        raise ValueError("weight must be >= 1")
    return (r ** w - sum(d * witt_number(r, d) for d in range(1, w // 2 + 1)
                         if w % d == 0)) // w


@dataclass(frozen=True)
class FreeNilpotentSpec:
    """Free nilpotent group of the given rank and nilpotency class."""

    rank: int
    nil_class: int

    def __post_init__(self):
        object.__setattr__(self, "rank", index(self.rank))
        object.__setattr__(self, "nil_class", index(self.nil_class))
        if self.rank < 1 or self.nil_class < 1:
            raise ValueError("rank and class must be >= 1")

    @property
    def hirsch_length(self) -> int:
        return sum(witt_number(self.rank, w)
                   for w in range(1, self.nil_class + 1))


@dataclass(frozen=True)
class HallElement:
    """One basic commutator: weight, bracket tree and display text.

    The tree is a generator index for weight one, otherwise a pair of
    subtrees ``(left, right)`` standing for the commutator [left, right].
    """

    weight: int
    tree: object
    text: str


@dataclass(frozen=True)
class HallBasis:
    rank: int
    nil_class: int
    elements: tuple

    def by_weight(self, w: int):
        return [e for e in self.elements if e.weight == w]


def _render(tree) -> str:
    if isinstance(tree, int):
        return f"x{tree + 1}"
    return f"[{_render(tree[0])},{_render(tree[1])}]"


@lru_cache(maxsize=None)
def _hall_basis(r: int, c: int) -> HallBasis:
    # Classical basic commutators: [u, v] with pos(u) > pos(v), and when
    # u = [a, b] additionally pos(v) >= pos(b).  New elements of each
    # weight are appended in (pos(v), pos(u)) order, which fixes the
    # labelling across runs.
    elems = [HallElement(1, i, _render(i)) for i in range(r)]
    right_pos = [None] * r
    for w in range(2, c + 1):
        fresh = []
        for v_pos in range(len(elems)):
            for u_pos in range(v_pos + 1, len(elems)):
                u, v = elems[u_pos], elems[v_pos]
                if u.weight + v.weight != w:
                    continue
                if u.weight > 1 and right_pos[u_pos] > v_pos:
                    continue
                tree = (u.tree, v.tree)
                fresh.append((HallElement(w, tree, _render(tree)), v_pos))
        for elem, v_pos in fresh:
            elems.append(elem)
            right_pos.append(v_pos)
    return HallBasis(r, c, tuple(elems))


def hall_basis(spec: FreeNilpotentSpec) -> HallBasis:
    """Hall basis of basic commutators up to the class of ``spec``.

    Weight-w layers have exactly the Witt number of elements; weight one
    is the generator list itself.

    >>> [e.text for e in hall_basis(FreeNilpotentSpec(2, 2)).elements]
    ['x1', 'x2', '[x2,x1]']
    """
    return _hall_basis(spec.rank, spec.nil_class)


@dataclass(frozen=True)
class CentralExtension:
    """Central extension of a free abelian base of rank ``q_rank`` by a free
    abelian centre of rank ``a_rank``.

    The extension class is carried as the commutator pairing, an integer
    matrix from the exterior square of the base to the centre.  Sign
    convention: the basis vector e_i ^ e_j with i < j maps to the
    commutator of the lifts of the i-th and j-th base generators, in that
    order.

    >>> central_extension_of_class2(FreeNilpotentSpec(2, 2))
    CentralExtension(q_rank=2, a_rank=1, pairing=IntMatrix([[1]]))
    """

    q_rank: int
    a_rank: int
    pairing: IntMatrix

    def __post_init__(self):
        # index() refuses 1.5 or Fraction(1, 2), which int() would truncate
        for field in ("q_rank", "a_rank"):
            rank = index(getattr(self, field))
            if rank < 0:
                raise ValueError(f"{field} must be nonnegative, got {rank}")
            object.__setattr__(self, field, rank)
        if not isinstance(self.pairing, IntMatrix):
            raise ValueError("the pairing must be an integer matrix")
        want = (self.a_rank, binomial(self.q_rank, 2))
        if self.pairing.shape != want:
            raise ValueError(
                f"pairing must be {want[0]} x {want[1]}, got {self.pairing.shape}")


def central_extension_of_class2(spec: FreeNilpotentSpec) -> CentralExtension:
    """Central extension carried by a free nilpotent group of class <= 2.

    For class 2 the centre is the commutator subgroup, free abelian on the
    weight-two basic commutators, and the pairing is the identity in the
    e_i ^ e_j |-> [x_i, x_j] convention.  Class 1 degenerates to a trivial
    centre.
    """
    if spec.nil_class > 2:
        raise ValueError("only class <= 2 carries an explicit central extension")
    r = spec.rank
    if spec.nil_class == 1:
        return CentralExtension(r, 0, IntMatrix.zero(0, binomial(r, 2)))
    k = binomial(r, 2)
    return CentralExtension(r, k, IntMatrix.identity(k))


@dataclass(frozen=True)
class NilpotentAction:
    """Action of Z^n on the abelianisation of a free nilpotent group.

    Generators must be commuting automorphisms of the abelianisation
    lattice, i.e. integer matrices of determinant +-1 that pairwise
    commute.
    """

    target: FreeNilpotentSpec
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        r = self.target.rank
        for g in gens:
            if not isinstance(g, IntMatrix) or g.shape != (r, r):
                raise ValueError(f"generators must be {r} x {r} integer matrices")
            if g.det() not in (1, -1):
                raise ValueError("generators must have determinant +-1")
        require_commuting(gens, "generator matrices")


def _tensor_expansion(tree):
    """Expand a bracket tree in the tensor algebra: dict word -> int."""
    if isinstance(tree, int):
        return {(tree,): 1}
    left = _tensor_expansion(tree[0])
    right = _tensor_expansion(tree[1])
    out = {}
    for wl, cl in left.items():
        for wr, cr in right.items():
            out[wl + wr] = out.get(wl + wr, 0) + cl * cr
            out[wr + wl] = out.get(wr + wl, 0) - cl * cr
    return {w: c for w, c in out.items() if c != 0}


@lru_cache(maxsize=None)
def _layer_embedding(r: int, c: int, w: int) -> RatMatrix:
    """Hall elements of weight w expanded as columns in the word basis."""
    basis = _hall_basis(r, c).by_weight(w)
    words = list(product(range(r), repeat=w))
    word_pos = {word: i for i, word in enumerate(words)}
    cols = []
    for elem in basis:
        col = [0] * len(words)
        for word, coeff in _tensor_expansion(elem.tree).items():
            col[word_pos[word]] = coeff
        cols.append(col)
    return RatMatrix.from_cols(cols, len(words))


def induced_action_on_quotient(act: NilpotentAction, w: int):
    """Matrices of the action induced on the weight-w lower-central layer.

    The layer embeds in the w-th tensor power of the abelianisation, where
    the action is the Kronecker power; coordinates in the Hall basis come
    out integral because the free Lie ring is spanned over Z by the basic
    commutators.
    """
    spec = act.target
    if not 1 <= w <= spec.nil_class:
        raise ValueError(f"weight {w} outside 1..{spec.nil_class}")
    if w == 1:
        return list(act.generators)
    emb = _layer_embedding(spec.rank, spec.nil_class, w)
    out = []
    for g in act.generators:
        big = tensor_power_map(g, w)
        out.append(solve(emb, big * emb).to_int())
    return out
