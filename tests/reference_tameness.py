"""Reference m-tameness, strict-inequality LP, Newton vertices, witness
search and closure certificate for tests.

``m_tame`` enumerates every multiset of m cones and asks one exact LP
per multiset, stating "v is nonzero" as a strict inequality; ``feasible``
is the two-phase simplex over ``Fraction`` that supports those strict
inequalities (a slack t bounded by 1 is maximised in phase two);
``sigma_witness_search`` reduces every shifted generator, with the
monomials sorted up front by their ``Fraction`` v-value, before it tests
any pivot.  They are kept independent of :mod:`nilhom.lp`, of the subset
search and of the early-exit witness search in :mod:`nilhom.sigma`, so
tests can check those against them.  The only departures from a
verbatim copy: ``m_tame`` calls this module's ``feasible``,
``has_nonzero_point`` and ``canonical`` instead of the package's, and
``canonical``, the package's former ``Cone.canonical`` with its
``_primitive``, returns the key of the canonical cone rather than the
cone, so tests can check the rows ``Cone`` stores against it.
``newton_polytope`` is the package's former convex-combination test (a
support point is a vertex when it is no convex combination of the
others, one LP in the weights of the others), calling this module's
``feasible``; the package now asks for a separating direction instead.  The
witness search is verbatim and shares only the package's data classes.
``closure_certifies`` is the package's former ``Fraction`` body of
``sigma._closure_certifies``, verbatim but for its public name: sparse
Gauss-Jordan with every pivot divided by its lead coefficient.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, lcm

from nilhom.linalg import as_fraction
from nilhom.sigma import CyclicModuleSpec, LaurentPoly, ValuationVector, Witness

GE = ">="
GT = ">"
EQ = "=="

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i, tr in enumerate(tableau):
        if i != row and tr[col] != 0:
            f = tr[col]
            tableau[i] = [a - f * b for a, b in zip(tr, tableau[row])]
    basis[row] = col


def _maximise(tableau, basis, cost, banned):
    """Simplex loop: maximise cost over the tableau, Bland's rule.

    Returns the objective value, or None when unbounded.  Columns in
    ``banned`` never enter the basis.
    """
    m = len(tableau)
    ncols = len(tableau[0]) - 1
    while True:
        cb = [cost[basis[i]] for i in range(m)]
        entering = None
        for j in range(ncols):
            if j in banned or j in basis:
                continue
            reduced = cost[j] - sum(cb[i] * tableau[i][j] for i in range(m))
            if reduced > 0:
                entering = j
                break
        if entering is None:
            obj = sum(cb[i] * tableau[i][-1] for i in range(m))
            return obj
        leaving = None
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return None
        _pivot(tableau, basis, leaving, entering)


def feasible(constraints, nvars: int) -> bool:
    """Decide whether the constraint system has a rational solution."""
    ge_rows = []
    eq_rows = []
    strict = []
    for coeffs, const, rel in constraints:
        coeffs = [Fraction(c) for c in coeffs]
        const = Fraction(const)
        if len(coeffs) != nvars:
            raise ValueError("constraint arity mismatch")
        if all(c == 0 for c in coeffs):
            if rel == EQ and const != 0:
                return False
            if rel == GE and const < 0:
                return False
            if rel == GT and const <= 0:
                return False
            continue
        if rel == EQ:
            eq_rows.append((coeffs, const))
        elif rel == GE:
            ge_rows.append((coeffs, const, False))
        elif rel == GT:
            ge_rows.append((coeffs, const, True))
            strict.append(len(ge_rows) - 1)
        else:
            raise ValueError(f"unknown relation {rel!r}")

    # columns: split variables (2*nvars), then t, then one slack per
    # inequality row plus the t <= 1 bound row
    has_t = bool(strict)
    t_col = 2 * nvars
    nslack = len(ge_rows) + (1 if has_t else 0)
    base_cols = 2 * nvars + (1 if has_t else 0)
    total = base_cols + nslack

    rows = []

    def expand(coeffs):
        row = [_ZERO] * total
        for k, c in enumerate(coeffs):
            row[2 * k] = c
            row[2 * k + 1] = -c
        return row

    slack_at = base_cols
    for coeffs, const, is_strict in ge_rows:
        # coeffs . x + const - (t if strict) >= 0, rewritten with slack:
        # coeffs . x - t - s = -const
        row = expand(coeffs)
        if is_strict:
            row[t_col] = -_ONE
        row[slack_at] = -_ONE
        slack_at += 1
        rows.append((row, -const))
    for coeffs, const in eq_rows:
        rows.append((expand(coeffs), -const))
    if has_t:
        row = [_ZERO] * total
        row[t_col] = _ONE
        row[slack_at] = _ONE
        rows.append((row, _ONE))

    if not rows:
        return True

    # phase one: artificial basis, normalise right-hand sides to >= 0
    m = len(rows)
    tableau = []
    basis = []
    for i, (row, rhs) in enumerate(rows):
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        tableau.append(row + [_ZERO] * m + [rhs])
        basis.append(total + i)
    for i in range(m):
        tableau[i][total + i] = _ONE
    width = total + m
    phase1_cost = [_ZERO] * width
    for j in range(total, width):
        phase1_cost[j] = -_ONE
    obj = _maximise(tableau, basis, phase1_cost, banned=frozenset())
    if obj is None or obj < 0:
        return False
    if not has_t:
        return True
    # pivot lingering zero-valued artificials out, then drop their columns;
    # rows stuck on an artificial are structurally zero and redundant
    for i in range(m):
        if basis[i] >= total:
            entering = next((j for j in range(total) if tableau[i][j] != 0), None)
            if entering is not None:
                _pivot(tableau, basis, i, entering)
    keep = [i for i in range(m) if basis[i] < total]
    tableau = [tableau[i][:total] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    phase2_cost = [_ZERO] * total
    phase2_cost[t_col] = _ONE
    obj = _maximise(tableau, basis, phase2_cost, banned=frozenset())
    # t is bounded by 1, so the optimum exists; strictness needs t > 0
    return obj is not None and obj > 0


def _primitive(vec):
    fracs = [as_fraction(x) for x in vec]
    mult = lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (mult // f.denominator) for f in fracs]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def canonical(cone):
    """Key (nvars, ineqs, eqs) of a cone whose rows are ints or Fractions:
    primitive integer rows, zero rows dropped, sorted without repeats,
    each equation the lesser of p and -p."""
    ineqs = sorted({_primitive(r) for r in cone.ineqs if any(r)})
    eqs = set()
    for r in cone.eqs:
        if not any(r):
            continue
        p = _primitive(r)
        neg = tuple(-x for x in p)
        eqs.add(min(p, neg))
    return (cone.nvars, tuple(ineqs), tuple(sorted(eqs)))


def newton_polytope(f: LaurentPoly):
    """Vertices of the convex hull of the support, exact arithmetic.

    A support point is a vertex exactly when it is not a convex
    combination of the others, which is a rational feasibility problem.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no Newton polytope")
    pts = list(f.support)
    if len(pts) == 1:
        return [pts[0]]
    verts = []
    for idx, p in enumerate(pts):
        others = [q for i, q in enumerate(pts) if i != idx]
        k = len(others)
        cons = []
        for coord in range(f.nvars):
            cons.append(([q[coord] for q in others], -p[coord], EQ))
        cons.append(([1] * k, -1, EQ))
        for i in range(k):
            cons.append(([int(i == jj) for jj in range(k)], 0, GE))
        if not feasible(cons, k):
            verts.append(p)
    return verts


def has_nonzero_point(cone) -> bool:
    if cone.lineality_dim() > 0:
        return True
    phi = cone.positive_functional()
    cons = [(row, Fraction(0), GE) for row in cone.ineqs]
    cons += [(row, Fraction(0), EQ) for row in cone.eqs]
    cons.append((phi, Fraction(0), GT))
    return feasible(cons, cone.nvars)


def m_tame(sc, m: int) -> bool:
    """Decide m-tameness against a polyhedral complement, exactly.

    Not m-tame means: m nonzero vectors, each in some cone of the
    complement, summing to zero.  A cone containing a whole line defeats
    every m >= 2 at once (split a line point m-1 ways against its
    opposite).  Otherwise all cones are pointed and each carries a
    functional strictly positive away from the origin, so nonzeroness
    becomes one strict inequality per vector and the whole question one
    exact feasibility problem per multiset of cones.
    """
    if m < 2:
        raise ValueError("tameness is defined for m >= 2")
    uniq = {}
    for c in sc.cones:
        uniq[canonical(c)] = c
    cones = [c for _, c in sorted(uniq.items()) if has_nonzero_point(c)]
    if not cones:
        return True
    if any(c.lineality_dim() > 0 for c in cones):
        return False
    n = sc.nvars
    phis = [c.positive_functional() for c in cones]
    zero = Fraction(0)
    for choice in combinations_with_replacement(range(len(cones)), m):
        nv = n * m
        cons = []
        for slot, ci in enumerate(choice):
            off = slot * n
            for row in cones[ci].ineqs:
                cons.append((_embed(row, off, nv), zero, GE))
            for row in cones[ci].eqs:
                cons.append((_embed(row, off, nv), zero, EQ))
            cons.append((_embed(phis[ci], off, nv), zero, GT))
        for coord in range(n):
            row = [zero] * nv
            for slot in range(m):
                row[slot * n + coord] = Fraction(1)
            cons.append((tuple(row), zero, EQ))
        if feasible(cons, nv):
            return False
    return True


def _embed(row, offset, nvars):
    out = [Fraction(0)] * nvars
    for i, x in enumerate(row):
        out[offset + i] = Fraction(x)
    return tuple(out)


def sigma_witness_search(spec: CyclicModuleSpec, v: ValuationVector,
                         degree_bound: int = 8):
    """Search for a finite-generation witness in the given direction.

    Considers the span of the generators shifted by monomials with sup
    norm at most ``degree_bound``, row-reduces it against the monomial
    order (v-value, lexicographic), and returns any element whose minimal
    v-value is attained at a single support point.  Returns None when the
    bounded search is inconclusive.
    """
    if len(v.v) != spec.nvars:
        raise ValueError("direction arity mismatch")
    if not spec.ideal:
        return None
    n = spec.nvars
    shifts = sorted(product(range(-degree_bound, degree_bound + 1), repeat=n),
                    key=lambda s: (max((abs(x) for x in s), default=0), s))
    rows = []
    for gi, g in enumerate(spec.ideal):
        for sh in shifts:
            terms = {tuple(e + s for e, s in zip(exp, sh)): c
                     for exp, c in g.terms.items()}
            rows.append((terms, (gi, sh)))
    monomials = sorted({m for terms, _ in rows for m in terms},
                       key=lambda m: (v.pair(m), m))
    pos = {m: i for i, m in enumerate(monomials)}
    # sparse Gauss-Jordan on (coefficient dict, combination dict) pairs
    pivots = {}
    order = []
    for terms, tag in rows:
        vec = dict(terms)
        combo = {tag: Fraction(1)}
        while vec:
            lead = min(vec, key=lambda m: pos[m])
            if lead not in pivots:
                c = vec[lead]
                vec = {m: x / c for m, x in vec.items()}
                combo = {t: x / c for t, x in combo.items()}
                pivots[lead] = (vec, combo)
                order.append(lead)
                break
            pvec, pcombo = pivots[lead]
            f = vec[lead]
            for m, x in pvec.items():
                vec[m] = vec.get(m, Fraction(0)) - f * x
            for t, x in pcombo.items():
                combo[t] = combo.get(t, Fraction(0)) - f * x
            vec = {m: x for m, x in vec.items() if x != 0}
            combo = {t: x for t, x in combo.items() if x != 0}
    for lead in order:
        vec, combo = pivots[lead]
        lead_val = v.pair(lead)
        if all(v.pair(m) > lead_val for m in vec if m != lead):
            poly = LaurentPoly(n, vec)
            return Witness(poly, tuple(sorted(combo.items())), lead)
    return None


def closure_certifies(spec: CyclicModuleSpec, m: int, degree_bound: int,
                      monomial_budget: int = 4000) -> bool:
    """Bounded generating-set certification for the diagonal action.

    Candidate generators are the residue classes of the monomials in the
    box of radius d; certification demands that every single-variable
    shift of a candidate lies in the span of diagonal translates of the
    candidates plus ideal translates, all inside a bounded box.  Success
    proves finite generation outright (the certified span is a submodule
    containing the cyclic generator); failure at every d up to the budget
    proves nothing.
    """
    n, nm = spec.nvars, spec.nvars * m
    gens_embedded = []
    for k in range(m):
        for g in spec.ideal:
            terms = {}
            for exp, c in g.terms.items():
                e = [0] * nm
                e[k * n:(k + 1) * n] = list(exp)
                terms[tuple(e)] = c
            gens_embedded.append(terms)
    if not gens_embedded:
        return False
    for d in range(0, degree_bound + 1):
        u_bound = d + 1
        box = d + u_bound
        if (2 * d + 1) ** nm > monomial_budget \
                or (2 * box + 1) ** nm > 4 * monomial_budget:
            return False
        cand = list(product(range(-d, d + 1), repeat=nm))
        columns = []
        for u in product(range(-u_bound, u_bound + 1), repeat=n):
            for mu in cand:
                e = list(mu)
                for k in range(m):
                    for i in range(n):
                        e[k * n + i] += u[i]
                columns.append({tuple(e): Fraction(1)})
        for terms in gens_embedded:
            lo = [min(e[i] for e in terms) for i in range(nm)]
            hi = [max(e[i] for e in terms) for i in range(nm)]
            ranges = [range(-box - lo[i], box - hi[i] + 1) for i in range(nm)]
            for shift in product(*ranges):
                columns.append({tuple(x + s for x, s in zip(e, shift)): c
                                for e, c in terms.items()})
        pivots = {}

        def remainder(vec):
            """Remainder of vec against the pivots: empty when vec lies in
            their span, else led by a monomial that is not a pivot."""
            vec = dict(vec)
            while vec:
                lead = min(vec)
                if lead not in pivots:
                    break
                f = vec[lead]
                for mm, x in pivots[lead].items():
                    vec[mm] = vec.get(mm, Fraction(0)) - f * x
                vec = {mm: x for mm, x in vec.items() if x != 0}
            return vec

        for vec in columns:
            vec = remainder(vec)
            if vec:
                lead = min(vec)
                pivots[lead] = {mm: x / vec[lead] for mm, x in vec.items()}
        if all(not remainder({mu[:var] + (mu[var] + step,) + mu[var + 1:]: Fraction(1)})
               for mu in cand for var in range(nm) for step in (1, -1)):
            return True
    return False
