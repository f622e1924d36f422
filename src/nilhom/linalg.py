"""Exact linear algebra over the rationals and the integers.

Everything downstream (spectral differentials, Koszul complexes, cone
feasibility) reduces to the routines in this module, so it stays small
and exact.  ``RatMatrix`` and ``IntMatrix`` share one dense body and
differ only in how an entry is coerced: rational matrices hold
``fractions.Fraction`` entries, integer matrices hold Python ints and
raise on a ``Fraction`` or float rather than truncate it.  Both are
immutable after construction and safe to share between threads.
``SparseIntMatrix`` holds an integer matrix as the nonzero entries of
its rows, the form of the degree-2 differentials of spectral pages; it
turns into an ``IntMatrix`` for the dense routines.

Every dense rank, kernel, image, solve and determinant runs through one
fraction-free Gauss-Jordan routine on integer rows (``_eliminate``); the
Smith normal form eliminates on sparse rows and returns its factors alone.
Every matrix product runs through one loop on rows, ``row_products``,
which multiplies only nonzero entries; ``_product`` hands it the rows
and columns scaled to integers (an ``IntMatrix`` passes its own through,
as it does to elimination) and divides each entry back exactly once.
Operands of either type mix: integer with integer gives an integer
matrix (so integer powers stay integral), a rational operand a rational.
The same rule holds for the graded maps: the exterior power of an
integer matrix has its minors as entries and the Kronecker product of
integer matrices has products of integers, so ``exterior_power_map``,
``kron`` and ``tensor_power_map`` give an ``IntMatrix`` for integer
input, and a ``RatMatrix`` as soon as a factor is rational.  An action
of GL_r(Z) thus stays integral through every exterior and tensor power.

Graded bases are fixed once and for all and carry no object of their
own: an exterior basis is the strictly increasing index tuples in the
lexicographic order ``itertools.combinations`` emits, a tensor basis the
words of indices in lexicographic order (the first factor major).  Every
matrix of a graded map produced here is stated in these bases, which
keeps fixtures bit-reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod
from operator import index


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and strings like ``"2/3"`` to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


class _Matrix:
    """Immutable dense matrix over an exact ring, fixed by the subclass.

    A matrix with ``rows`` rows and ``cols`` columns represents a linear
    map on column vectors.  Degenerate shapes (zero rows or columns) are
    legal and show up constantly as empty spectral-sequence cells.  The
    subclass's ``_entry`` coerces every entry into its ring and raises
    when an entry lies outside it.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, rows=None, cols=None):
        grid = tuple([tuple(map(self._entry, row)) for row in entries])
        if rows is None:
            rows = len(grid)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError("entry grid does not match declared dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = grid

    @classmethod
    def identity(cls, n: int):
        return cls([[int(i == j) for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def zero(cls, rows: int, cols: int):
        return cls([[0] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def from_cols(cls, cols_list, nrows: int):
        """Assemble a matrix from an iterable of column vectors."""
        cols_list = [tuple(c) for c in cols_list]
        if any(len(c) != nrows for c in cols_list):
            raise ValueError("column length mismatch")
        return cls([[c[i] for c in cols_list] for i in range(nrows)],
                   nrows, len(cols_list))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def col(self, j: int):
        return tuple(self.entries[i][j] for i in range(self.rows))

    @property
    def terms(self):
        """Each row as its nonzero (column, entry) pairs, as in
        ``SparseIntMatrix.terms``."""
        return [[(j, x) for j, x in enumerate(row) if x] for row in self.entries]

    def transpose(self):
        return type(self)([[row[j] for row in self.entries]
                           for j in range(self.cols)], self.cols, self.rows)

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def __eq__(self, other):
        return (type(other) is type(self) and self.shape == other.shape
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        return _kind(self, other)([[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.entries, other.entries)],
                                  self.rows, self.cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)([[-x for x in row] for row in self.entries],
                          self.rows, self.cols)

    def __mul__(self, other):
        if isinstance(other, _Matrix):
            return _matmul(self, other)
        c = self._entry(other)
        return type(self)([[x * c for x in row] for row in self.entries],
                          self.rows, self.cols)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, k: int):
        if self.rows != self.cols or k < 0:
            raise ValueError("power needs a square matrix and k >= 0")
        out = self.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out


class RatMatrix(_Matrix):
    """Immutable dense matrix over the rationals (``Fraction`` entries).

    >>> m = RatMatrix([[1, 2], [3, "4/2"]])
    >>> (m * m).entries[0][1]
    Fraction(6, 1)
    """

    __slots__ = ()
    _entry = staticmethod(as_fraction)
    # each class owns its product and power, so they can be wrapped per class
    __mul__ = _Matrix.__mul__
    __pow__ = _Matrix.__pow__

    def to_int(self) -> "IntMatrix":
        if any(x.denominator != 1 for row in self.entries for x in row):
            raise ValueError("matrix has non-integer entries")
        return IntMatrix([[x.numerator for x in row] for row in self.entries],
                         self.rows, self.cols)

    def __repr__(self):
        return f"RatMatrix({[[str(x) for x in row] for row in self.entries]})"


class IntMatrix(_Matrix):
    """Immutable dense matrix over the integers (arbitrary precision).

    Entries must be integers: a ``Fraction``, float or string raises
    TypeError rather than being truncated.
    """

    __slots__ = ()
    _entry = staticmethod(index)
    __mul__ = _Matrix.__mul__
    __pow__ = _Matrix.__pow__

    def to_rat(self) -> RatMatrix:
        return RatMatrix(self.entries, self.rows, self.cols)

    def det(self) -> int:
        """Determinant by fraction-free elimination."""
        return int(det(self))

    def rank(self) -> int:
        """Rank by fraction-free elimination."""
        return matrix_rank(self)

    def __repr__(self):
        return f"IntMatrix({[list(row) for row in self.entries]})"


class SparseIntMatrix:
    """Integer matrix held as the nonzero entries of its rows.

    ``terms[i]`` lists the (column, entry) pairs of row i, each column at
    most once and in any order; every entry not listed is zero.
    ``smith_normal_form`` reads these rows; ``dense`` gives the ``IntMatrix``.

    >>> m = SparseIntMatrix([[(2, -1)], []], 2, 3)
    >>> m.dense().entries
    ((0, 0, -1), (0, 0, 0))
    """

    __slots__ = ("rows", "cols", "terms")

    def __init__(self, terms, rows: int, cols: int):
        if len(terms) != rows:
            raise ValueError("row terms do not match declared dimensions")
        self.rows = rows
        self.cols = cols
        self.terms = terms

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(x for row in self.terms for _, x in row)

    def dense(self) -> IntMatrix:
        grid = [[0] * self.cols for _ in self.terms]
        for out, row in zip(grid, self.terms):
            for j, x in row:
                out[j] = x
        return IntMatrix(grid, self.rows, self.cols)


def _kind(a, b):
    """Type of a sum or product: integer when both operands are."""
    return IntMatrix if isinstance(a, IntMatrix) and isinstance(b, IntMatrix) \
        else RatMatrix


def require_matrices(mats, what: str):
    """Raise TypeError ("<what> must be RatMatrix or IntMatrix, got
    <type>") unless every one of mats is a rational or integer matrix."""
    for g in mats:
        if not isinstance(g, (RatMatrix, IntMatrix)):
            raise TypeError(f"{what} must be RatMatrix or IntMatrix, "
                            f"got {type(g).__name__}")


def require_commuting(mats, what: str):
    """Raise ValueError ("<what> must pairwise commute") unless the
    matrices commute pairwise; pairs are tried in lexicographic order."""
    for a, b in combinations(mats, 2):
        if a * b != b * a:
            raise ValueError(f"{what} must pairwise commute")


def _integral_rows(entries):
    """Rows scaled to integers by the lcm of their denominators, and the
    list of scales.  Row scaling keeps the rank, the reduced row echelon
    form and the solutions; it multiplies a determinant by the scales."""
    rows, scales = [], []
    for row in entries:
        s = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (s // x.denominator) for x in row])
        scales.append(s)
    return rows, scales


def _scaled_rows(m):
    """``_integral_rows`` of a matrix: the rows of an ``IntMatrix`` are
    integral already and pass through, each with the scale 1.  The rows
    are the matrix's own tuples, in a new list that ``_eliminate`` may
    reorder and refill."""
    if isinstance(m, IntMatrix):
        return list(m.entries), [1] * m.rows
    return _integral_rows(m.entries)


def integral_row(row):
    """One row of ints or Fractions scaled to integers by the lcm of its
    denominators (``_integral_rows``), and that lcm.

    >>> integral_row([Fraction(1, 2), Fraction(-2, 3), 5])
    ([3, -4, 30], 6)
    """
    (row,), (s,) = _integral_rows([row])
    return row, s


def row_products(left, right, width):
    """The product of two matrices given by their rows, one row at a time,
    each a list of ``width`` entries: row i is the sum of x times row k of
    ``right`` over the (column, entry) pairs (k, x) of row i of ``left``.
    ``right`` gives each row as its nonzero pairs (``terms``); a zero x is
    skipped, so dense left rows pass as ``map(enumerate, rows)``."""
    for pairs in left:
        acc = [0] * width
        for k, x in pairs:
            if x:
                for j, y in right[k]:
                    acc[j] += x * y
        yield acc


def _product(a, b):
    """Entries of the product of two rational or integer matrices.

    Row i of ``a`` is scaled to integers by s_i and column j of ``b`` by
    t_j (``_scaled_rows``, so every scale of an ``IntMatrix`` is 1), so
    ``row_products`` multiplies only Python ints.  Entry (i, j) is
    divided back as x / (s_i t_j) and stays an int when that denominator
    is 1.
    """
    right, t = b.entries, [1] * b.cols
    if not isinstance(b, IntMatrix) and b.rows and b.cols:
        scaled, t = _integral_rows(zip(*b.entries))
        right = zip(*scaled)
    # row k of the scaled b as its nonzero (column, entry) pairs
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in right]
    unit = all(tj == 1 for tj in t)
    left, s = _scaled_rows(a)
    return [acc if unit and si == 1 else
            [x if si * tj == 1 else Fraction(x, si * tj) for x, tj in zip(acc, t)]
            for acc, si in zip(row_products(map(enumerate, left), nonzero, b.cols), s)]


def _matmul(a, b):
    """Product of two matrices, integer when both factors are."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product")
    return _kind(a, b)(_product(a, b), a.rows, b.cols)


def _eliminate(a):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows.

    Reduces ``a`` in place and returns ``(pivots, d, sign)``: the pivot
    columns, the last pivot d, and the parity of the row swaps.  Each
    step replaces every other row by (p*x - f*y) // prev, where p is the
    new pivot and prev the one before; the division is exact (the entries
    are minors of the input), also for rows above the pivot.  Afterwards
    the pivot rows are d times the reduced row echelon form, the rows
    below them are zero, and for a square matrix of full rank
    sign * d is the determinant.
    """
    pivots = []
    prev, sign = 1, 1
    nr = len(a)
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if a[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        for i, row in enumerate(a):
            if i == r:
                continue
            f = row[c]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                a[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
    return pivots, prev, sign


def rank_kernel_image(m: RatMatrix):
    """Exact rank, kernel basis and image basis of a rational matrix.

    Returns ``(rank, kernel_basis, image_basis)``.  Kernel vectors live in
    Q^cols, image vectors are the pivot columns of the original matrix, so
    rank + len(kernel_basis) == cols holds on the nose.
    """
    a, _ = _scaled_rows(m)
    pivots, d, _ = _eliminate(a)
    kernel = []
    for fc in sorted(set(range(m.cols)) - set(pivots)):
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = Fraction(-a[ri][fc], d)
        kernel.append(tuple(v))
    return len(pivots), kernel, [m.col(c) for c in pivots]


def matrix_rank(m) -> int:
    """Rank of a rational or integer matrix."""
    return len(_eliminate(_scaled_rows(m)[0])[0])


def kernel_matrix(m: RatMatrix) -> RatMatrix:
    """Kernel basis vectors assembled as the columns of a matrix."""
    _, kernel, _ = rank_kernel_image(m)
    return RatMatrix.from_cols(kernel, m.cols)


def image_matrix(m: RatMatrix) -> RatMatrix:
    _, _, image = rank_kernel_image(m)
    return RatMatrix.from_cols(image, m.rows)


def solve(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Solve A X = B exactly; free variables are set to zero.

    Raises ValueError when the system is inconsistent, which shows as a
    pivot in the columns of B.
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    nc, k = a.cols, b.cols
    work, _ = _integral_rows([ar + br for ar, br in zip(a.entries, b.entries)])
    pivots, d, _ = _eliminate(work)
    if pivots and pivots[-1] >= nc:
        raise ValueError("inconsistent linear system")
    x = [[Fraction(0)] * k for _ in range(nc)]
    for ri, pc in enumerate(pivots):
        x[pc] = [Fraction(y, d) for y in work[ri][nc:]]
    return RatMatrix(x, nc, k)


def det(m) -> Fraction:
    """Determinant of a square rational or integer matrix."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    a, scales = _scaled_rows(m)
    pivots, d, sign = _eliminate(a)
    if len(pivots) < m.rows:
        return Fraction(0)
    return Fraction(sign * d, prod(scales))


def kron(a: _Matrix, b: _Matrix) -> _Matrix:
    """Kronecker product with the first factor as the major index; an
    ``IntMatrix`` when both factors are, since products of integers are
    integers, and a ``RatMatrix`` otherwise."""
    entries = [[a.entries[ia][ja] * b.entries[ib][jb]
                for ja in range(a.cols) for jb in range(b.cols)]
               for ia in range(a.rows) for ib in range(b.rows)]
    return _kind(a, b)(entries, a.rows * b.rows, a.cols * b.cols)


def exterior_power_map(m: _Matrix, k: int) -> _Matrix:
    """Matrix of the k-th exterior power in the sorted-subset bases.

    The (I, J) entry is the k x k minor of ``m`` on rows I and columns J,
    so the result has binomial(rows, k) rows and binomial(cols, k)
    columns; when k exceeds a dimension the corresponding side is empty.
    Each k-minor is the Laplace expansion of the (k-1)-minors along its
    first row, in integers, on the rows of ``m`` scaled by ``_scaled_rows``.
    The minors of an integer matrix are integers, so an ``IntMatrix``
    gives an ``IntMatrix`` and a ``RatMatrix`` a ``RatMatrix``.
    Functorial: the exterior power of a product is the product of the
    exterior powers (Cauchy-Binet).

    >>> exterior_power_map(RatMatrix([[1, 2], [3, 4]]), 2).entries
    ((Fraction(-2, 1),),)
    >>> exterior_power_map(IntMatrix([[1, 2], [3, 4]]), 2)
    IntMatrix([[-2]])
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    a, scales = _scaled_rows(m)
    rows, cols, minors = [()], [()], {((), ()): 1}
    for size in range(1, k + 1):
        rows = list(combinations(range(m.rows), size))
        cols = list(combinations(range(m.cols), size))
        minors = {(I, J): sum((-1) ** t * a[I[0]][c] * minors[I[1:], J[:t] + J[t + 1:]]
                              for t, c in enumerate(J) if a[I[0]][c])
                  for I in rows for J in cols}
    out = []
    for I in rows:
        # every scale of an integer matrix is 1
        s = prod(scales[i] for i in I)
        out.append([minors[I, J] if s == 1 else Fraction(minors[I, J], s)
                    for J in cols])
    return type(m)(out, len(rows), len(cols))


def tensor_power_map(m: _Matrix, s: int) -> _Matrix:
    """Matrix of the s-th tensor (Kronecker) power in the word bases, of
    the type of ``m`` (``kron`` keeps integer factors integral).

    ``s = 0`` is the empty tensor, a 1 x 1 identity.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    out = type(m).identity(1)
    for _ in range(s):
        out = kron(out, m)
    return out


def smith_normal_form(m) -> tuple:
    """Invariant factors of an ``IntMatrix`` or a ``SparseIntMatrix``.

    The nonzero diagonal d1 | d2 | ... of the Smith normal form, each
    positive, so its length is the rank.  Sparse elimination on the
    nonzero entries of the rows (Dumas, Heckenbach, Saunders and Welker,
    2003): the pivot p is an entry of least absolute value, ties broken
    by the Markowitz cost (row nonzeros - 1)(column nonzeros - 1).  Its
    column is reduced modulo p by row operations, then its row by column
    operations, which touch no other row once the column is clear; if
    |p| > 1 still fails to divide an entry, that row is added to the
    pivot row.  A remainder left is below |p|, and the step is tried
    again; else |p| is recorded.  So a unit pivot is one Schur-complement
    step, and the factors come out in divisibility order.

    >>> smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    (2, 4)
    """
    rows = [r for r in ({k: x for k, x in row if x} for row in m.terms) if r]
    diag = []
    while rows:
        cols = Counter(k for r in rows for k in r)
        least, _, i, j = min((abs(x), (len(r) - 1) * (cols[k] - 1), i, k)
                             for i, r in enumerate(rows) for k, x in r.items())
        top = rows.pop(i)
        p = top[j]
        for r in rows:
            q = r.get(j, 0) // p
            if q:
                for k, y in top.items():
                    r[k] = r.get(k, 0) - q * y
                    if not r[k]:
                        del r[k]
        rows = [r for r in rows if r]
        if any(j in r for r in rows):
            rows.append(top)
            continue
        rest = {k: x % p for k, x in top.items() if x % p}
        if not rest and least > 1:
            bad = next((r for r in rows if any(x % p for x in r.values())), {})
            rest = {k: x % p for k, x in bad.items() if x % p}
        if rest:
            rows.append({j: p, **rest})
        else:
            diag.append(least)
    return tuple(diag)


def merge_invariant_factors(chain, factors):
    """Invariant factors of Z/d_1 + ... + Z/d_k + Z/f_1 + ... + Z/f_m.

    ``chain`` is a divisibility chain d_1 | ... | d_k of factors above 1;
    each f is inserted by replacing (d, f) with (lcm, gcd) from the top of
    the chain down, since Z/d + Z/f is Z/lcm(d, f) + Z/gcd(d, f).  The
    walk starts below the multiples of f, a suffix it leaves as it is,
    and stops at a d dividing f, below which it would only shift the
    chain up by one.  The result is a chain with the factors 1 dropped.

    >>> merge_invariant_factors((2,), (3,))
    (6,)
    >>> merge_invariant_factors((2, 4), (2,))
    (2, 2, 4)
    """
    out = list(chain)
    for f in factors:
        i = bisect_left(out, True, key=lambda d: d % f == 0)
        while i and f % out[i - 1]:
            i -= 1
            out[i], f = lcm(out[i], f), gcd(out[i], f)
        if f > 1:
            out.insert(i, f)
    return tuple(out)


def binomial(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)
