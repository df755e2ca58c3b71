"""Integer matrix reduction and finite-quotient searches for presentations.

Everything here runs on exact python ints; no floating point, no numpy.
``smith_normal_form`` returns unimodular transforms with a == u @ s @ v,
which is what lets ``generic_check`` turn a failed generation test into a
checkable certificate (a mod-p functional killing the whole row lattice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .freewords import GroupHom, Presentation, Word
from .permgroup import FiniteGroup, conjugacy_classes, generated_set


class IntMatrix:
    """An immutable integer matrix; ``entries`` is a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]], cols: int | None = None):
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        if entries:
            width = len(entries[0])
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} but rows have width {width}")
            cols = width
        elif cols is None:
            raise ValueError("cols is required for a matrix with no rows")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
        self.entries = entries
        self.rows = len(entries)
        self.cols = cols

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(tuple((0,) * cols for _ in range(rows)), cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        a, b = self.entries, other.entries
        out = [tuple(sum(a[i][k] * b[k][j] for k in range(self.cols))
                     for j in range(other.cols)) for i in range(self.rows)]
        return IntMatrix(out, other.cols)

    def det(self) -> int:
        """Exact determinant (fraction-free Bareiss elimination)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.cols == other.cols \
            and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.entries))!r}, cols={self.cols})"


@dataclass(frozen=True, eq=False)
class SmithForm:
    """Result of smith_normal_form: a == u @ s @ v, u and v unimodular.

    ``v_inv`` is v's inverse, tracked during the reduction; the witness
    construction in generic_check reads its columns.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    v_inv: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.s.entries[i][i] for i in range(min(self.s.rows, self.s.cols)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Diagonalize over the integers with unimodular row/column transforms.

    The pivot is always a smallest-|entry| nonzero of the working submatrix
    (row-major tie-break), which keeps the reduction deterministic.  The
    diagonal comes out nonnegative with each entry dividing the next.
    """
    m, n = a.rows, a.cols
    b = [list(row) for row in a.entries]
    u = [list(row) for row in IntMatrix.identity(m).entries]
    v = [list(row) for row in IntMatrix.identity(n).entries]
    vinv = [list(row) for row in IntMatrix.identity(n).entries]

    def row_addmul(i, src, c):  # b_i += c*b_src; u gets the inverse column op
        bi, bs = b[i], b[src]
        for j in range(n):
            bi[j] += c * bs[j]
        for r in range(m):
            u[r][src] -= c * u[r][i]

    def row_swap(i, j):
        b[i], b[j] = b[j], b[i]
        for r in range(m):
            u[r][i], u[r][j] = u[r][j], u[r][i]

    def row_negate(i):
        b[i] = [-x for x in b[i]]
        for r in range(m):
            u[r][i] = -u[r][i]

    def col_addmul(j, src, c):  # col_j += c*col_src; v gets the inverse row op
        for r in range(m):
            b[r][j] += c * b[r][src]
        vj, vs = v[j], v[src]
        for k in range(n):
            vs[k] -= c * vj[k]
        for r in range(n):
            vinv[r][j] += c * vinv[r][src]

    def col_swap(i, j):
        for r in range(m):
            b[r][i], b[r][j] = b[r][j], b[r][i]
        v[i], v[j] = v[j], v[i]
        for r in range(n):
            vinv[r][i], vinv[r][j] = vinv[r][j], vinv[r][i]

    limit = min(m, n)
    t = 0
    while t < limit:
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                x = b[i][j]
                if x and (piv is None or abs(x) < piv[0]):
                    piv = (abs(x), i, j)
        if piv is None:
            break
        if piv[1] != t:
            row_swap(t, piv[1])
        if piv[2] != t:
            col_swap(t, piv[2])
        while True:
            changed = False
            for i in range(m):
                if i == t or b[i][t] == 0:
                    continue
                q = b[i][t] // b[t][t]
                if q:
                    row_addmul(i, t, -q)
                if b[i][t]:  # remainder beats the pivot; promote it
                    row_swap(t, i)
                    changed = True
                    break
            if changed:
                continue
            for j in range(n):
                if j == t or b[t][j] == 0:
                    continue
                q = b[t][j] // b[t][t]
                if q:
                    col_addmul(j, t, -q)
                if b[t][j]:
                    col_swap(t, j)
                    changed = True
                    break
            if changed:
                continue
            p = b[t][t]
            bad = None
            for i in range(t + 1, m):
                if any(b[i][j] % p for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            row_addmul(t, bad, 1)  # drag the offending row in; the loop re-reduces
        t += 1
    for i in range(limit):
        if b[i][i] < 0:
            row_negate(i)
    return SmithForm(IntMatrix(u, m), IntMatrix(b, n), IntMatrix(v, n), IntMatrix(vinv, n))


def _least_prime_factor(d: int) -> int:
    d = abs(d)
    f = 2
    while f * f <= d:
        if d % f == 0:
            return f
        f += 1
    return d


@dataclass(frozen=True, eq=False)
class GenericityResult:
    """Outcome of generic_check, with a certificate either way.

    When ``generated`` is False, ``witness`` gives the coefficients of a
    surjection onto Z/witness_prime (generator k maps to witness[k-1]) that
    kills every relator and every supplied class word.
    """

    generated: bool
    factors: tuple[int, ...]  # one per generator: diagonal of the stacked form, 0-padded
    witness_prime: Optional[int]
    witness: Optional[tuple[int, ...]]
    smith: SmithForm
    stacked: IntMatrix


def generic_check(p: Presentation, classes: Sequence[Word]) -> GenericityResult:
    """Do the relators plus the given class words span the abelianization?

    Stacks the relators' exponent rows with the class words' exponent rows
    and reads the Smith diagonal: generation holds exactly when every
    generator's invariant factor is 1 (full column rank, no torsion gap).
    """
    n = p.generator_count
    rows = [r.exponent_vector(n) for r in p.relators]
    rows += [w.exponent_vector(n) for w in classes]
    stacked = IntMatrix(rows, cols=n)
    sf = smith_normal_form(stacked)
    factors = (sf.diagonal + (0,) * n)[:n]
    bad = next((i for i, d in enumerate(factors) if d != 1), None)
    if bad is None:
        return GenericityResult(True, factors, None, None, sf, stacked)
    d = factors[bad]
    prime = 2 if d == 0 else _least_prime_factor(d)
    witness = tuple(sf.v_inv.entries[j][bad] % prime for j in range(n))
    return GenericityResult(False, factors, prime, witness, sf, stacked)


def quotient_search(p: Presentation, target: FiniteGroup, *,
                    surjective_only: bool = False,
                    dedup_conjugacy: bool = False,
                    budget: int = 10 ** 8) -> list[GroupHom]:
    """All homomorphisms from the presented group to ``target``.

    Backtracks over generator images in canonical element order, checking
    each relator as soon as every generator it mentions has an image, so the
    full |target|^generators space is rarely walked.  ``budget`` bounds that
    worst case and the search refuses to start beyond it.  Results come in
    lexicographic order of their image tuples.

    With ``dedup_conjugacy`` only the lexicographically least hom of each
    conjugation orbit is kept, and the rest are pruned during the backtrack:
    a tuple t is least among its conjugates exactly when each t[k] is least
    in its orbit under conjugation by the joint centralizer of t[:k] (the
    whole target for k = 0).  So the first image runs over the class
    representatives, a later candidate is skipped as soon as an element of
    the running centralizer conjugates it lower, and the centralizer is
    narrowed to the elements commuting with each chosen image.
    """
    g = target
    n = p.generator_count
    if g.order ** n > budget:
        raise ValueError(
            f"{g.order}^{n} candidate image tuples exceed the budget of {budget}")
    by_max: list[list[Word]] = [[] for _ in range(n + 1)]
    for r in p.relators:
        mx = max((abs(l) for l in r.letters), default=0)
        by_max[mx].append(r)

    images = [g.identity] * n
    results: list[GroupHom] = []
    mul, inv = g.mul, g.inv

    def eval_partial(w: Word) -> int:
        acc = g.identity
        for l in w.letters:
            e = images[l - 1] if l > 0 else inv(images[-l - 1])
            acc = mul(acc, e)
        return acc

    def assign(k: int, cent: list[int]) -> None:
        # cent: the nontrivial elements centralizing images[:k] (dedup only)
        if k == n:
            if surjective_only and len(generated_set(g, images)) != g.order:
                return
            results.append(GroupHom(p, g, tuple(images)))
            return
        if dedup_conjugacy and k == 0:
            cands = [c.representative for c in conjugacy_classes(g)]
        else:
            cands = range(g.order)
        for cand in cands:
            images[k] = cand
            if not all(eval_partial(r) == g.identity for r in by_max[k + 1]):
                continue
            if dedup_conjugacy:
                if k and any(mul(mul(c, cand), inv(c)) < cand for c in cent):
                    continue
                assign(k + 1, [c for c in cent if mul(c, cand) == mul(cand, c)])
            else:
                assign(k + 1, cent)

    assign(0, [x for x in range(g.order) if x != g.identity])
    return results


def load_matrix_file(path) -> IntMatrix:
    """Read a matrix as lines of space-separated integers ('#' comments ok)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([int(tok) for tok in line.split()])
    if not rows:
        raise ValueError("matrix file has no rows")
    return IntMatrix(rows)
