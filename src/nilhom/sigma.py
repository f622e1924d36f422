"""Geometric invariants of modules over Laurent polynomial rings.

A valuation on Q = Z^n is a nonzero linear functional; its class on the
valuation sphere records a direction.  For a cyclic module A = QQ/I the
directions where A fails to be finitely generated over the nonnegative
monoid ring form a rational polyhedral set; for a principal ideal (f) it
is cut out by the classical criterion: the minimum of v over the support
of f is attained at two or more points.  Membership, m-tameness and the
finite-generation semidecisions below are all decided in exact rational
arithmetic.  ``least_failing_m`` decides a module's tameness with no
LP: 2 for the free module, read from the Newton polytope for a
principal one.  A union of cones is decided by one search over sets of
at most n + 1 distinct cones (conic Caratheodory), one non-strict LP
per set, which is also the polytope reading's oracle.  One builder,
``_cone_points``, states "a nonzero vector in each cone" for that
search and for ``Cone.has_nonzero_point``.  A Newton vertex is a
support point that some direction strictly separates from the rest,
one LP per point.  Cones are canonical from construction, with
primitive integer rows, so every LP is stated in integers.  The
witness search and the closure certificate share one fraction-free
sparse reduction, ``_sparse_reduce``, on integer vectors; only a
returned witness is divided by its lead.  It reads pivots through a
lookup: the witness search's order is invariant under translation, so
the first generator's shifts never reduce, and it serves each as a
pivot by translation, built only when a later row reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import gcd
from operator import index

from . import lp
from .linalg import IntMatrix, as_fraction, integral_row, matrix_rank


class LaurentPoly:
    """Laurent polynomial over Q in n variables, sparse support map.

    >>> f = LaurentPoly(1, {(0,): -2, (1,): 1})   # t - 2
    >>> (f * f).coeff((1,))
    Fraction(-4, 1)
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms):
        if nvars < 0:
            raise ValueError(f"nvars must be nonnegative, got {nvars}")
        clean = {}
        for e, c in dict(terms).items():
            e = tuple(map(index, e))
            if len(e) != nvars:
                raise ValueError("exponent arity mismatch")
            c = as_fraction(c)
            if c != 0:
                clean[e] = c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def monomial(cls, nvars, exponent, coeff=1):
        return cls(nvars, {tuple(exponent): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self):
        return tuple(sorted(self.terms))

    def coeff(self, e) -> Fraction:
        return self.terms.get(tuple(e), Fraction(0))

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentPoly(self.nvars, out)

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if self.nvars != other.nvars:
                raise ValueError("variable count mismatch")
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return LaurentPoly(self.nvars, out)
        return LaurentPoly(self.nvars,
                           {e: c * as_fraction(other) for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = [f"{c}*t^{list(e)}" for e, c in sorted(self.terms.items())]
        return "LaurentPoly(" + " + ".join(bits) + ")"


@dataclass(frozen=True)
class ValuationVector:
    """Nonzero rational direction, representing a valuation class."""

    v: tuple

    def __post_init__(self):
        vec = tuple(as_fraction(x) for x in self.v)
        if all(x == 0 for x in vec):
            raise ValueError("valuation vector must be nonzero")
        object.__setattr__(self, "v", vec)

    def pair(self, exponent) -> Fraction:
        return sum(a * b for a, b in zip(self.v, exponent))


def _primitive(row):
    """The primitive integer row on the ray of a rational row."""
    ints, _ = integral_row([x if isinstance(x, int) else as_fraction(x)
                            for x in row])
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


class Cone:
    """Rational polyhedral cone given by homogeneous constraints.

    ``ineqs`` rows demand <a, v> >= 0, ``eqs`` rows demand <a, v> = 0.
    Closed under positive scaling by construction; the origin is excluded
    by convention whenever cones are queried about valuation classes.
    The rows are stored canonically: primitive integer tuples, zero rows
    dropped, sorted without repeats, each ``eqs`` row the lesser of p and
    -p.  Equal cones given by rescaled or repeated rows are one key.

    >>> Cone(2, [[2, 0], [1, 0], [0, 0]], [["1/2", "-1/2"]]).key()
    (2, ((1, 0),), ((-1, 1),))
    """

    __slots__ = ("nvars", "ineqs", "eqs")

    def __init__(self, nvars, ineqs=(), eqs=()):
        ineqs, eqs = list(ineqs), list(eqs)
        for row in ineqs + eqs:
            if len(row) != nvars:
                raise ValueError("constraint arity mismatch")
        self.nvars = nvars
        self.ineqs = tuple(sorted({p for p in map(_primitive, ineqs) if any(p)}))
        self.eqs = tuple(sorted({min(p, tuple(-x for x in p))
                                 for p in map(_primitive, eqs) if any(p)}))

    def contains(self, v) -> bool:
        vec = v.v if isinstance(v, ValuationVector) else tuple(as_fraction(x) for x in v)
        return (all(sum(a * b for a, b in zip(row, vec)) >= 0 for row in self.ineqs)
                and all(sum(a * b for a, b in zip(row, vec)) == 0 for row in self.eqs))

    def lineality_dim(self) -> int:
        rows = self.ineqs + self.eqs
        return self.nvars - matrix_rank(IntMatrix(rows, len(rows), self.nvars))

    def positive_functional(self):
        """Row vector strictly positive on the cone minus the origin.

        Valid only for pointed cones: the sum of the inequality rows
        vanishes on a cone point only if the point is in the lineality
        space.
        """
        return tuple(map(sum, zip(*self.ineqs))) if self.ineqs else (0,) * self.nvars

    def has_nonzero_point(self) -> bool:
        return (self.lineality_dim() > 0
                or lp.feasible(_cone_points((self,)), self.nvars))

    def key(self):
        return (self.nvars, self.ineqs, self.eqs)

    def __eq__(self, other):
        return isinstance(other, Cone) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Cone(n={self.nvars}, {len(self.ineqs)} ineqs, {len(self.eqs)} eqs)"


class ConeUnion:
    """Finite union of rational cones on the valuation sphere, stored
    without repeats and sorted by ``Cone.key``."""

    __slots__ = ("nvars", "cones")

    def __init__(self, nvars, cones=()):
        if nvars < 0:
            raise ValueError(f"nvars must be nonnegative, got {nvars}")
        cones = set(cones)
        for c in cones:
            if c.nvars != nvars:
                raise ValueError("cone dimension mismatch")
        self.cones = tuple(sorted(cones, key=Cone.key))
        self.nvars = nvars

    def contains(self, v) -> bool:
        return any(c.contains(v) for c in self.cones)

    def __eq__(self, other):
        return (isinstance(other, ConeUnion) and self.nvars == other.nvars
                and self.cones == other.cones)

    def __repr__(self):
        return f"ConeUnion(n={self.nvars}, {len(self.cones)} cones)"


@dataclass(frozen=True)
class CyclicModuleSpec:
    """Cyclic module QQ/I over the Laurent ring in nvars variables."""

    nvars: int
    ideal: tuple

    def __post_init__(self):
        if self.nvars < 0:
            raise ValueError(f"nvars must be nonnegative, got {self.nvars}")
        gens = tuple(self.ideal)
        object.__setattr__(self, "ideal", gens)
        for g in gens:
            if not isinstance(g, LaurentPoly) or g.nvars != self.nvars:
                raise ValueError("ideal generators must match the variable count")
            if g.is_zero():
                raise ValueError("ideal generators must be nonzero")


def newton_polytope(f: LaurentPoly):
    """Vertices of the convex hull of the support, exact arithmetic.

    A support point p is a vertex exactly when some direction v strictly
    separates it from the others, and as the support is finite that is
    v.(q - p) - 1 >= 0 for every other support point q: one LP in the
    coordinates of v per point.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no Newton polytope")
    pts = f.support
    return [p for p in pts
            if lp.feasible([([a - b for a, b in zip(q, p)], -1, lp.GE)
                            for q in pts if q != p], f.nvars)]


def full_sphere(nvars: int) -> ConeUnion:
    """The whole valuation sphere as a single unconstrained cone."""
    return ConeUnion(nvars, (Cone(nvars),))


def sigma_complement_principal(f: LaurentPoly) -> ConeUnion:
    """Directions where QQ/(f) is not finitely generated downstream.

    One cone per pair of support points: the directions where the minimum
    of v over the support is attained at both points of the pair.  Cones
    that meet only the origin are dropped, so the union is empty exactly
    when every direction has a unique minimising support point.
    """
    if f.is_zero():
        raise ValueError("zero polynomial does not define a cyclic quotient")
    pts = list(f.support)
    n = f.nvars
    cones = []
    for a, b in combinations(pts, 2):
        eqs = [[x - y for x, y in zip(a, b)]]
        ineqs = [[x - y for x, y in zip(c, a)] for c in pts if c != a and c != b]
        cone = Cone(n, ineqs, eqs)
        if cone.has_nonzero_point():
            cones.append(cone)
    return ConeUnion(n, cones)


def _generator(spec: CyclicModuleSpec):
    """The ideal's one generator, or None for the free module."""
    if len(spec.ideal) > 1:
        raise ValueError("non-principal ideals admit only the witness semidecision")
    return spec.ideal[0] if spec.ideal else None


def sigma_complement(spec: CyclicModuleSpec) -> ConeUnion:
    """Exact polyhedral complement for free or principal cyclic modules.

    The free module (empty ideal) is nowhere finitely generated over a
    half-monoid ring, so its complement is the whole sphere.  Ideals with
    two or more generators have no exact polyhedral description here;
    only the witness semidecision applies to them.
    """
    f = _generator(spec)
    return full_sphere(spec.nvars) if f is None else sigma_complement_principal(f)


@dataclass(frozen=True)
class Witness:
    """Ideal element with a unique v-minimal support point.

    ``combination`` maps (generator index, monomial shift) to the
    coefficient it enters with, so poly can be reassembled and audited.
    """

    poly: LaurentPoly
    combination: tuple
    minimal_exponent: tuple


def _sparse_reduce(vec, combo, pivot, key=None):
    """Reduce an integer vector against pivots, fraction-free (Bareiss).

    ``vec`` maps monomials and ``combo`` tags to ints; ``pivot`` takes a
    lead, a least monomial under ``key``, and gives the (vector,
    combination) pair of the pivot with that lead, or None (``pivots.get``
    for a dict of pivots).  While vec's lead has a pivot, vec and combo
    become p vec - f pivot (p, f the two leads) over their one common
    content, so vec = sum combo * g stays exact.  Returns the reduced
    pair; an empty vec lies in the span of the pivots.
    """
    while vec:
        lead = min(vec, key=key)
        got = pivot(lead)
        if got is None:
            break
        pvec, pcombo = got
        p, f = pvec[lead], vec[lead]
        vec = {m: p * x for m, x in vec.items()}
        for m, x in pvec.items():
            vec[m] = vec.get(m, 0) - f * x
        combo = {t: p * x for t, x in combo.items()}
        for t, x in pcombo.items():
            combo[t] = combo.get(t, 0) - f * x
        vec = {m: x for m, x in vec.items() if x}
        combo = {t: x for t, x in combo.items() if x}
        g = gcd(*vec.values(), *combo.values())
        if g > 1:
            vec = {m: x // g for m, x in vec.items()}
            combo = {t: x // g for t, x in combo.items()}
    return vec, combo


def sigma_witness_search(spec: CyclicModuleSpec, v: ValuationVector,
                         degree_bound: int = 8):
    """Search for a finite-generation witness in the given direction.

    Runs through the generators shifted by monomials of sup norm at most
    ``degree_bound``, generator by generator and, within one, in shells
    of growing sup norm (lexicographic inside a shell).  Each row, scaled
    to integers, is reduced by ``_sparse_reduce`` against the pivots so
    far under the monomial order (v-value, lexicographic); a row that
    keeps a new leading monomial becomes a pivot and never changes again.
    Returns the first pivot, in row order, whose minimal v-value is
    attained at a single support point, divided by its lead coefficient,
    and stops there; the remaining shifts are never built.  Returns None
    when the bounded search is inconclusive, and raises ValueError past
    ``MAX_WITNESS_ROWS`` rows ((2 degree_bound + 1)^n per generator).

    The order is invariant under translation, so the shift s g_0 of the
    first generator has lead lead(g_0) + s, and no two of its shifts
    share a lead: none of its rows reduces, each is its own pivot, and
    each is a witness exactly when g_0 is.  So g_0 is decided once, at
    shift 0; otherwise its rows are counted against the limit without
    being built, and the shift of g_0 with a given lead is built only
    when a later generator's row reduces against it.
    """
    if len(v.v) != spec.nvars:
        raise ValueError("direction arity mismatch")
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    if not spec.ideal:
        return None
    n = spec.nvars
    # v scaled to integers orders monomials in integers
    weights, _ = integral_row(v.v)

    @cache  # each monomial's v-value is computed once per search
    def key(m):
        return sum(a * b for a, b in zip(weights, m)), m

    scaled = []
    for g in spec.ideal:
        ints, scale = integral_row(list(g.terms.values()))
        scaled.append((list(zip(g.terms, ints)), scale))

    def row(gi, sh):
        """Generator gi shifted by sh, in integers, and its combination."""
        terms, scale = scaled[gi]
        return ({tuple(e + s for e, s in zip(exp, sh)): c for exp, c in terms},
                {(gi, sh): scale})

    def witness(vec, combo, lead):
        """The pivot divided by its lead, if its v-minimum is unique."""
        lead_val = key(lead)[0]
        if all(key(m)[0] > lead_val for m in vec if m != lead):
            c = Fraction(1, vec[lead])
            combo = tuple(sorted((t, x * c) for t, x in combo.items()))
            return Witness(LaurentPoly(n, vec) * c, combo, lead)
        return None

    def admitted(rows):
        """The row count, refused past the limit."""
        if rows > MAX_WITNESS_ROWS:
            raise ValueError(f"the witness search at degree bound {degree_bound}"
                             f" passed its limit of {MAX_WITNESS_ROWS} rows")
        return rows

    first = row(0, (0,) * n)
    lead0 = min(first[0], key=key)
    found = witness(*first, lead0)
    if found is not None:
        return found
    rows = admitted((2 * degree_bound + 1) ** n)
    pivots = {}

    def pivot(lead):
        """The pivot with this lead: a later generator's, else the shift
        of g_0 that has it, built on first reading."""
        got = pivots.get(lead)
        if got is None:
            sh = tuple(a - b for a, b in zip(lead, lead0))
            if max(map(abs, sh), default=0) <= degree_bound:
                got = pivots[lead] = row(0, sh)
        return got

    for gi in range(1, len(spec.ideal)):
        for r in range(degree_bound + 1):
            for sh in product(range(-r, r + 1), repeat=n):
                if max(map(abs, sh), default=0) != r:
                    continue
                rows = admitted(rows + 1)
                vec, combo = _sparse_reduce(*row(gi, sh), pivot, key)
                if not vec:
                    continue
                lead = min(vec, key=key)
                pivots[lead] = (vec, combo)
                found = witness(vec, combo, lead)
                if found is not None:
                    return found
    return None


def _cone_points(cones):
    """Constraints on one vector per cone, placed side by side: for each
    cone its inequality rows, its equation rows and phi_c(v_c) - 1 >= 0
    (phi_c its positive functional, so v_c is nonzero when c is
    pointed)."""
    n = cones[0].nvars
    cons = []
    for slot, c in enumerate(cones):
        before, after = (0,) * (slot * n), (0,) * ((len(cones) - slot - 1) * n)
        cons += [(before + row + after, 0, lp.GE) for row in c.ineqs]
        cons += [(before + row + after, 0, lp.EQ) for row in c.eqs]
        cons.append((before + c.positive_functional() + after, -1, lp.GE))
    return cons


def _least_failing_m(sc: ConeUnion, m_max: int):
    """Least m <= m_max at which sc is not m-tame, or None.

    Not m-tame means: m nonzero vectors, each in some cone of the
    complement, summing to zero.  A cone containing a whole line fails
    at m = 2 (a line point against its opposite).  Otherwise every cone
    is pointed: nonzero vectors of one cone add up to a nonzero vector
    of it, so a failure depends only on the *set* of distinct cones
    used, and failures are upward closed in m (halve one vector).  By
    conic Caratheodory a minimal failing set has at most n + 1 cones,
    so the first k whose cone sets admit vectors summing to zero is the
    least failing m.  A cone that meets only the origin needs no
    filter: no set that holds it is feasible.
    """
    cones = sc.cones
    if not cones:
        return None
    if any(c.lineality_dim() > 0 for c in cones):
        return 2
    n = sc.nvars
    for k in range(2, min(m_max, n + 1, len(cones)) + 1):
        sums = [(((0,) * coord + (1,) + (0,) * (n - coord - 1)) * k, 0, lp.EQ)
                for coord in range(n)]
        for choice in combinations(cones, k):
            if lp.feasible(_cone_points(choice) + sums, n * k):
                return k
    return None


def _hull(pts):
    """Vertices of the convex hull of distinct integer points in the
    plane, counterclockwise, by an exact monotone chain; points inside
    an edge are dropped, and collinear points give the two ends."""
    def turns_left(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) > (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and not turns_left(out[-2], out[-1], p):
                out.pop()
            out.append(p)
        return out[:-1]

    pts = sorted(pts)
    return chain(pts) + chain(reversed(pts))


def least_failing_m(spec: CyclicModuleSpec):
    """Least m at which QQ/I is not m-tame, or None, with no LP: for I = 0
    the whole sphere fails at 2 (n >= 1), and I = (f) is read from the
    Newton polytope P of f; two or more generators are refused.

    The complement of ``sigma_complement_principal(f)`` is the set of
    nonzero v whose minimal face of P is not a vertex: the cones of
    codimension one in the normal fan of P, the tropical hypersurface of
    f (Bieri and Groves, J. reine angew. Math. 347, 1984).  It fails at
    m = 2 exactly when it holds some v and -v.
    - n <= 1, or f a monomial: every v has a unique minimising point
      (for n = 1 the sign of v picks an end), so the set is empty and
      the module is tame at every m: None.
    - Support differences of rank below n (n >= 2): a v orthogonal to
      them all is minimised on the whole support, as is -v: 2.
    - n = 2, P a polygon: the set is the union of the inward edge
      normals.  Two are opposite exactly when two edges are parallel,
      which gives 2.  Otherwise the normals, weighted by edge length,
      sum to zero, and by Caratheodory three of them with positive
      weights do (two would be opposite): 3.
    - n >= 3, P full-dimensional: 2.  Let S be the unit sphere, R_u the
      open region of S where vertex u is the unique minimiser, and N_u
      its closed normal cone, pointed since P is full-dimensional
      (N_u and -N_u meet in 0).  The set on S is G = S minus the union
      of the R_u, that is the union of their boundaries.  Each boundary
      is that of a convex (n-1)-cell, an (n-2)-sphere, connected as
      n >= 3; the boundaries of the regions of adjacent vertices meet
      in the normal cone of their edge, and the edge graph of P is
      connected, so G is connected.  If G missed -G, the connected set
      -G would lie in the disjoint open regions, so in one R_u, and G in
      -R_u, inside -N_u.  But G holds the boundary of R_u, which is
      inside N_u, and nonempty as R_u is neither empty nor S: a
      contradiction.
    So for n >= 3 every f with two or more terms gives 2, and no rank is
    needed: in the plane a collinear support has a hull of two vertices,
    whose two edges are opposite.  ``_least_failing_m(sigma_complement_principal(f),
    n + 2)`` is the LP search this replaces, kept as the oracle.
    """
    f = _generator(spec)
    if f is None:
        return 2 if spec.nvars else None
    pts = f.support
    if f.nvars <= 1 or len(pts) <= 1:
        return None
    if f.nvars >= 3:
        return 2
    hull = _hull(pts)
    edges = set()
    for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
        g = gcd(bx - ax, by - ay)
        edges.add(((bx - ax) // g, (by - ay) // g))
    return 2 if any((-x, -y) in edges for x, y in edges) else 3


def m_tame(sc: ConeUnion, m: int) -> bool:
    """Decide m-tameness against a polyhedral complement, exactly.

    m-tame means that no m nonzero vectors, each in some cone of the
    complement, sum to zero; see ``_least_failing_m`` for the search.
    """
    if m < 2:
        raise ValueError("tameness is defined for m >= 2")
    return _least_failing_m(sc, m) is None


def tame_requirement(c: int, n: int) -> int:
    """Tameness degree needed to bound the first n virtual Betti numbers.

    The code uses 2(c(n-1)+1), twice ``tensor_degree_bound(c, n)``.  The
    paper's abstract prints 2(c(n-1)-1), which is <= 0 for c = n = 1;
    the formula here is kept as it stands.

    >>> tame_requirement(2, 2)
    6
    """
    if c < 1 or n < 1:
        raise ValueError("need c >= 1 and n >= 1")
    return 2 * (c * (n - 1) + 1)


@dataclass(frozen=True)
class HypothesisReport:
    """Verdict of the tameness hypothesis behind the boundedness theorem."""

    requirement: int
    holds: bool
    fails_at_m: object
    guaranteed: object


def hypothesis_report(c: int, n: int, sc: ConeUnion) -> HypothesisReport:
    """Check 2(c(n-1)+1)-tameness of a complement and report coverage.

    When the hypothesis holds the virtual Betti numbers are guaranteed
    finite in degrees 0..n; otherwise the least failing tameness degree
    is reported (failures are upward closed).
    """
    req = tame_requirement(c, n)
    fails_at = _least_failing_m(sc, req)
    if fails_at is None:
        return HypothesisReport(req, True, None,
                                f"vb_j finite for 0 <= j <= {n}")
    return HypothesisReport(req, False, fails_at, None)


MAX_WITNESS_ROWS = 20_000  # rows a witness search may reduce
_MONOMIAL_BUDGET = 4000  # caps the candidate box; 4x it caps the translate box


def _closure_certifies(spec: CyclicModuleSpec, m: int, degree_bound: int) -> bool:
    """Bounded generating-set certification for the diagonal action.

    Candidate generators are the residue classes of the monomials in the
    box of radius d; certification demands that every single-variable
    shift of a candidate lies in the span of diagonal translates of the
    candidates plus ideal translates, all inside a bounded box, decided
    by ``_sparse_reduce``.  Success proves finite generation outright
    (the certified span is a submodule containing the cyclic generator);
    failure at every d within the budget proves nothing.
    """
    n, nm = spec.nvars, spec.nvars * m
    scaled = [list(zip(g.terms, integral_row(list(g.terms.values()))[0]))
              for g in spec.ideal]
    gens_embedded = [{(0,) * (k * n) + exp + (0,) * (nm - (k + 1) * n): c
                      for exp, c in terms}
                     for k in range(m) for terms in scaled]
    if not gens_embedded:
        return False
    for d in range(0, degree_bound + 1):
        u_bound = d + 1
        box = d + u_bound
        if (2 * d + 1) ** nm > _MONOMIAL_BUDGET \
                or (2 * box + 1) ** nm > 4 * _MONOMIAL_BUDGET:
            return False
        cand = list(product(range(-d, d + 1), repeat=nm))
        columns = [{tuple(x + y for x, y in zip(mu, u * m)): 1}
                   for u in product(range(-u_bound, u_bound + 1), repeat=n)
                   for mu in cand]
        for terms in gens_embedded:
            ranges = [range(-box - min(col), box - max(col) + 1) for col in zip(*terms)]
            for shift in product(*ranges):
                columns.append({tuple(x + s for x, s in zip(e, shift)): c
                                for e, c in terms.items()})
        pivots = {}
        for vec in columns:
            vec, _ = _sparse_reduce(vec, {}, pivots.get)
            if vec:
                pivots[min(vec)] = (vec, {})
        if all(not _sparse_reduce({mu[:var] + (mu[var] + step,) + mu[var + 1:]: 1},
                                  {}, pivots.get)[0]
               for mu in cand for var in range(nm) for step in (1, -1)):
            return True
    return False


def tensor_power_fg_check(spec: CyclicModuleSpec, m: int,
                          degree_bound: int = 8) -> str:
    """Semidecide finite generation of the m-th diagonal tensor power.

    Two independent routes: ``least_failing_m`` refutes finite generation
    when it fails (for free or principal ideals, where the complement is
    exact), and a bounded closure certification proves it.
    Everything else is an honest "unknown".
    """
    if m < 2:
        raise ValueError("tensor power check needs m >= 2")
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    least = least_failing_m(spec) if len(spec.ideal) <= 1 else None
    if least is not None and least <= m:
        return "no_witness"
    if _closure_certifies(spec, m, degree_bound):
        return "yes"
    return "unknown"
