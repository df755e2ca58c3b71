"""Integer matrix reduction and finite-quotient searches for presentations.

Everything here runs on exact python ints; no floating point, no numpy.
``smith_normal_form`` returns unimodular transforms with a == u @ s @ v,
which is what lets ``generic_check`` turn a failed generation test into a
checkable certificate (a mod-p functional killing the whole row lattice).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .freewords import GroupHom, Presentation, Word
from .permgroup import FiniteGroup, _conjugations, conjugacy_classes, generated_set

TRIAL_DIVISION_CAP = 2 ** 24  # _least_prime_factor trial-divides no further
# Miller–Rabin with the primes up to 41 as bases decides primality below this
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


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


def _is_prime(n: int) -> bool:
    """Miller–Rabin with the bases in MILLER_RABIN_BASES; exact for n below
    MILLER_RABIN_LIMIT (Sorenson and Webster, Math. Comp. 2017)."""
    if n < 2:
        return False
    for p in MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _least_prime_factor(d: int) -> int:
    """The least prime factor of |d| > 1.

    |d| itself when it is a prime below MILLER_RABIN_LIMIT; otherwise trial
    division up to TRIAL_DIVISION_CAP.  Raises ValueError when neither
    settles it: a composite whose factors all exceed the cap, or a |d| at or
    above the limit with no factor below the cap.
    """
    d = abs(d)
    if d < MILLER_RABIN_LIMIT and _is_prime(d):
        return d
    if d % 2 == 0:
        return 2
    f = 3
    while f * f <= d:
        if d % f == 0:
            return f
        if f > TRIAL_DIVISION_CAP:
            raise ValueError(f"cannot find the least prime factor of {d}: it has none "
                             f"below {TRIAL_DIVISION_CAP} and is not a prime below "
                             f"{MILLER_RABIN_LIMIT}")
        f += 2
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


def _search_plan(p: Presentation) -> list[tuple[int, list[Word]]]:
    """The order in which quotient_search picks generator images.

    One (generator, relators) pair per search position: the 1-based
    generator whose image that position chooses, and the relators checked
    there, those whose last generator in the order it is.  A generator is
    pinned at its position when it occurs exactly once in one of them.

    The order is built from the back.  Each position takes the
    highest-numbered generator left that occurs exactly once in a relator
    on the generators left; when none qualifies, the highest-numbered
    generator left.  Placing a generator assigns every relator on it not yet
    assigned to its position, and those relators stop counting.  So a
    generator that stops qualifying never qualifies again, the
    highest-numbered qualifying generator and the highest-numbered one left
    only fall, and one pass over the relator letters plus a falling pointer
    for each build the whole order.  It is used only when it pins more
    generators than the order x1, x2, ... does; otherwise the plan keeps
    that order, whose results need no relabelling.
    """
    n = p.generator_count
    counts = [Counter(map(abs, r.letters)) for r in p.relators]
    holders: list[list[int]] = [[] for _ in range(n + 1)]
    once = [0] * (n + 1)   # relators not yet assigned that meet the generator once
    numbered = [(x, []) for x in range(1, n + 1)]
    pinned_numbered = set()
    for i, c in enumerate(counts):
        for x, m in c.items():
            holders[x].append(i)
            once[x] += m == 1
        if c:
            last = max(c)
            numbered[last - 1][1].append(p.relators[i])
            if c[last] == 1:
                pinned_numbered.add(last)
    assigned = [False] * len(counts)
    left = [True] * (n + 1)
    plan = []
    pinned = 0
    forced = plain = n
    for _ in range(n):
        while forced and (not left[forced] or not once[forced]):
            forced -= 1
        while not left[plain]:
            plain -= 1
        x = forced or plain
        pinned += x == forced
        left[x] = False
        checks = []
        for i in holders[x]:
            if not assigned[i]:
                assigned[i] = True
                checks.append(p.relators[i])
                for y, m in counts[i].items():
                    once[y] -= m == 1
        plan.append((x, checks))
    if pinned <= len(pinned_numbered):
        return numbered
    plan.reverse()
    return plan


def quotient_search(p: Presentation, target: FiniteGroup, *,
                    surjective_only: bool = False,
                    dedup_conjugacy: bool = False,
                    budget: int = 10 ** 8) -> list[GroupHom]:
    """All homomorphisms from the presented group to ``target``.

    Backtracks over generator images, each in canonical element order,
    checking each relator as soon as every generator it mentions has an
    image, so the full |target|^generators space is rarely walked.
    ``budget`` bounds that worst case and the search refuses to start
    beyond it.  Results come in lexicographic order of their image tuples.

    The generators are chosen in the order of ``_search_plan``: from the
    back, a generator goes last when it occurs exactly once in a relator on
    the generators before it, and otherwise the numbering decides.  That
    order is used only when it pins more generators than x1, x2, ... does,
    so a presentation whose last generator is already pinned keeps the
    order x1, x2, ...

    Each node compiles its relators once: the letters on the images already
    chosen are multiplied out, leaving a few fixed elements between the
    occurrences of the new generator x, so a candidate costs about one
    product per occurrence.  A relator with one occurrence reads
    a x^(±1) b = 1 and forces x = (b a)^(∓1); the node then tries only that
    image, when it is among the candidates it would have tried anyway.

    With ``dedup_conjugacy`` only the lexicographically least hom of each
    conjugation orbit is kept, and the rest are pruned during the backtrack:
    a tuple t is least among its conjugates exactly when each t[k] is least
    in its orbit under conjugation by the joint centralizer of t[:k] (the
    whole target for k = 0).  So the first image runs over the class
    representatives, a later candidate is skipped as soon as an element of
    the running centralizer conjugates it lower, and the centralizer is
    narrowed to the elements commuting with each chosen image.

    The order changes only the walk, never the answer.  Every hom is found
    whatever the order, and is reported as its images of x1, x2, ...  Under
    ``dedup_conjugacy`` the walk keeps one hom per orbit, least in the
    search order; when the search order is not x1, x2, ..., the kept hom
    is replaced by the least conjugate of its images in the order x1, x2,
    ..., found by walking its orbit with the conjugation maps the class
    computation built.  The results are sorted at the end.
    """
    g = target
    n = p.generator_count
    if g.order ** n > budget:
        raise ValueError(
            f"{g.order}^{n} candidate image tuples exceed the budget of {budget}")
    plan = _search_plan(p)
    relabelled = [x for x, _ in plan] != list(range(1, n + 1))

    images = [g.identity] * n
    results: list[GroupHom] = []
    ident = g.identity
    mul, inv = g.mul, g.inv
    X, X_INV = -1, -2  # markers for the new image and its inverse

    def compile_relator(w: Word, new: int) -> tuple[bool, tuple[int, ...]]:
        # w with the images chosen so far multiplied out, rotated to start
        # at its first letter on the generator numbered new (a conjugate, so
        # it holds exactly when w does): (neg, factors) holds for x when
        # x^(-1 if neg else 1) times the factors is the identity, a factor
        # being an element or a marker
        letters = w.letters
        start = next(i for i, l in enumerate(letters) if abs(l) == new)
        letters = letters[start:] + letters[:start]
        factors: list[int] = []
        run = ident
        for l in letters[1:]:
            if abs(l) == new:
                if run != ident:
                    factors.append(run)
                    run = ident
                factors.append(X if l > 0 else X_INV)
            else:
                e = images[l - 1] if l > 0 else inv(images[-l - 1])
                run = e if run == ident else mul(run, e)
        if run != ident:
            factors.append(run)
        return letters[0] < 0, tuple(factors)

    def holds(checks, x: int, xi: int) -> bool:
        for neg, factors in checks:
            acc = xi if neg else x
            for f in factors:
                acc = mul(acc, f if f >= 0 else x if f == X else xi)
            if acc != ident:
                return False
        return True

    def least_conjugate(t: tuple[int, ...]) -> tuple[int, ...]:
        # the orbit of t under conjugation, closed under the generators'
        # conjugation maps: index lookups, no products
        conjugations = _conjugations(g)
        seen = {t}
        stack = [t]
        while stack:
            u = stack.pop()
            for conj in conjugations:
                v = tuple(map(conj.__getitem__, u))
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return min(seen)

    def finish() -> None:
        if surjective_only and len(generated_set(g, images)) != g.order:
            return
        t = tuple(images)
        if dedup_conjugacy and relabelled:
            t = least_conjugate(t)
        results.append(GroupHom(p, g, t))

    def level(k: int, cent: list[int]):
        # the frame choosing the image of generator plan[k][0]: its
        # candidates, the relator checks they must pass, whether those need
        # the inverse, and cent, the nontrivial elements centralizing the
        # images chosen so far (dedup only)
        if dedup_conjugacy and k == 0:
            cands = [c.representative for c in conjugacy_classes(g)]
        else:
            cands = range(g.order)
        checks = []
        forced = None
        new, relators = plan[k]
        for neg, factors in (compile_relator(r, new) for r in relators):
            if forced is None and all(f >= 0 for f in factors):
                # x^(±1) b = 1 has the one solution x = b^(∓1)
                b = factors[0] if factors else ident
                forced = b if neg else inv(b)
            else:
                checks.append((neg, factors))
        if forced is not None:
            cands = [forced] if forced in cands else []
        need_inv = any(neg or X_INV in factors for neg, factors in checks)
        return iter(cands), checks, need_inv, cent

    if n == 0:
        finish()
        return results
    # depth-first on an explicit stack, one frame per chosen image, so a
    # braid on any number of strands is searched without recursion
    stack = [level(0, [x for x in range(g.order) if x != g.identity])]
    while stack:
        k = len(stack) - 1
        cands, checks, need_inv, cent = stack[-1]
        x = plan[k][0] - 1
        for cand in cands:
            images[x] = cand
            if not holds(checks, cand, inv(cand) if need_inv else cand):
                continue
            if dedup_conjugacy and k and any(mul(mul(c, cand), inv(c)) < cand for c in cent):
                continue
            if k + 1 == n:
                finish()
                continue
            if dedup_conjugacy:
                stack.append(level(k + 1, [c for c in cent if mul(c, cand) == mul(cand, c)]))
            else:
                stack.append(level(k + 1, cent))
            break
        else:
            stack.pop()
    if relabelled:
        results.sort(key=lambda h: h.images)
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
