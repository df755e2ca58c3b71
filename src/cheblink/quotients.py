"""Integer matrix reduction and finite-quotient searches for presentations.

Everything here runs on exact python ints; no floating point, no numpy.
``smith_normal_form`` returns unimodular transforms with a == u @ s @ v,
which is what lets ``generic_check`` turn a failed generation test into a
checkable certificate (a mod-p functional killing the whole row lattice).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import eq
from typing import Iterable, Optional, Sequence

from .freewords import GroupHom, Presentation, Word
from .permgroup import TOKEN_SHOWN, FiniteGroup, conjugacy_classes, conjugates, generated_set

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
    def _of_rows(cls, rows: Iterable[Sequence[int]], cols: int) -> "IntMatrix":
        """A matrix from rows of ints of width ``cols`` that this module built
        itself, taken without the checks and the int() pass of __init__."""
        m = object.__new__(cls)
        m.entries = tuple(map(tuple, rows))
        m.rows = len(m.entries)
        m.cols = cols
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of_rows(((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)), n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of_rows(((0,) * cols for _ in range(rows)), cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # each row of the product adds up the rows of other that the row of
        # self weighs by a nonzero entry; a transform of a braid closure's
        # matrix holds about two of those a row
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for x, b_row in zip(row, other.entries):
                if x:
                    acc = [s + x * y for s, y in zip(acc, b_row)]
            out.append(acc)
        return IntMatrix._of_rows(out, other.cols)

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


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Diagonalize over the integers with unimodular row/column transforms.

    The pivot is always a smallest-|entry| nonzero of the working submatrix
    (row-major tie-break), which keeps the reduction deterministic.  The
    diagonal comes out nonnegative with each entry dividing the next.
    """
    m, n = a.rows, a.cols
    b = [list(row) for row in a.entries]

    def identity_rows(k):
        return [[0] * i + [1] + [0] * (k - 1 - i) for i in range(k)]

    u, v, vinv = identity_rows(m), identity_rows(n), identity_rows(n)

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
            if piv and piv[0] == 1:  # nothing beats |1|, and later ones lose the tie
                break
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
            if abs(p) == 1:  # a unit divides every entry
                break
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
    return SmithForm(IntMatrix._of_rows(u, m), IntMatrix._of_rows(b, n),
                     IntMatrix._of_rows(v, n), IntMatrix._of_rows(vinv, n))


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


def generic_check(p: Presentation, classes: Sequence[Word]) -> GenericityResult:
    """Do the relators plus the given class words span the abelianization?

    Stacks the relators' exponent rows with the class words' exponent rows
    and reads the Smith diagonal: generation holds exactly when every
    generator's invariant factor is 1 (full column rank, no torsion gap).
    """
    n = p.generator_count
    rows = [r.exponent_vector(n) for r in p.relators]
    rows += [w.exponent_vector(n) for w in classes]
    sf = smith_normal_form(IntMatrix(rows, cols=n))
    factors = (sf.diagonal + (0,) * n)[:n]
    bad = next((i for i, d in enumerate(factors) if d != 1), None)
    if bad is None:
        return GenericityResult(True, factors, None, None)
    d = factors[bad]
    prime = 2 if d == 0 else _least_prime_factor(d)
    witness = tuple(sf.v_inv.entries[j][bad] % prime for j in range(n))
    return GenericityResult(False, factors, prime, witness)


def _search_plan(p: Presentation) -> list[tuple[int, Optional[Word], list[Word]]]:
    """The order in which quotient_search picks generator images.

    One (generator, solved, relators) triple per search position: the
    1-based generator x whose image that position chooses, and the
    relators assigned there, those whose last generator in the order it is.
    solved is the one the position solves for x: the first in which x
    occurs exactly once, or else the first in which x occurs exactly twice,
    once inverted, or else None.  relators holds the others, in their
    order, which the position only checks.

    The order is built from the back.  Each position takes the
    highest-numbered generator left that occurs exactly once in a relator
    on the generators left; when none qualifies, the highest-numbered
    generator left.  Placing a generator assigns every relator on it not yet
    assigned to its position, and those relators stop counting.  So a
    generator that stops qualifying never qualifies again, the
    highest-numbered qualifying generator and the highest-numbered one left
    only fall, and one pass over the relator letters plus a falling pointer
    for each build the whole order.
    """
    n = p.generator_count
    counts = [Counter(map(abs, r.letters)) for r in p.relators]
    holders: list[list[int]] = [[] for _ in range(n + 1)]
    once = [0] * (n + 1)   # relators not yet assigned that meet the generator once
    for i, c in enumerate(counts):
        for x, m in c.items():
            holders[x].append(i)
            once[x] += m == 1
    assigned = [False] * len(counts)
    left = [True] * (n + 1)
    plan = []
    forced = plain = n
    for _ in range(n):
        while forced and (not left[forced] or not once[forced]):
            forced -= 1
        while not left[plain]:
            plain -= 1
        x = forced or plain
        left[x] = False
        mine = [i for i in holders[x] if not assigned[i]]
        for i in mine:
            assigned[i] = True
            for y, m in counts[i].items():
                once[y] -= m == 1
        # x once, or twice and once inverted; once ranks first, and min
        # keeps the first of equal rank
        solvable = [i for i in mine if counts[i][x] == 1 or (
            counts[i][x] == 2 and {x, -x} <= set(p.relators[i].letters))]
        solved = min(solvable, key=lambda i: counts[i][x], default=None)
        plan.append((x, None if solved is None else p.relators[solved],
                     [p.relators[i] for i in mine if i != solved]))
    plan.reverse()
    return plan


class _ProductRow:
    """c·y·c⁻¹ for every y by two products each: a conjugation row the
    target does not keep, read like one."""

    __slots__ = ("mul", "c", "ci")

    def __init__(self, mul, c: int, ci: int):
        self.mul, self.c, self.ci = mul, c, ci

    def __getitem__(self, y: int) -> int:
        return self.mul(self.mul(self.c, y), self.ci)


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
    the generators before it, and otherwise the numbering decides.

    A node compiles a relator by multiplying out the letters on the images
    already chosen, which leaves a few fixed elements between the
    occurrences of the new generator x, so a candidate costs about one
    product per occurrence.  The node solves the relator the plan names
    for it, when there is one, and compiles it at once.  When x occurs
    there once, it reads x^(±1)·b = 1 and forces x = b^(∓1).  When x occurs
    there twice, once inverted, it reads x⁻¹·a·x·b = 1 or x·a·x⁻¹·b = 1,
    so x solves u·x = x·v with (u, v) = (a, b⁻¹) or (b⁻¹, a): unless u and
    v are conjugate there is no solution, and otherwise the solutions are
    a coset of u's centralizer, read in one pass comparing u's
    ``left_row`` with v's ``right_row``.  The node tries the solutions
    that are among the candidates it would have tried anyway.  It only
    checks its other relators, among them every one in which x occurs
    three or more times.  Each is compiled by the first candidate that
    passes the relators before it, and kept for the node's later
    candidates, so a node whose candidates all fail the first relator
    compiles no other.

    With ``dedup_conjugacy`` only the lexicographically least hom of each
    conjugation orbit is kept, and the rest are pruned during the backtrack:
    a tuple t is least among its conjugates exactly when each t[k] is least
    in its orbit under conjugation by the joint centralizer of t[:k].  The
    node keeps the ``conjugation_row`` of each nontrivial element of that
    centralizer.  A candidate is skipped as soon as one of the rows maps it
    lower, and the next node keeps the rows that fix the chosen image.
    While the centralizer is the whole target (at the first position, and
    after central images only), the least members of the orbits are the
    class representatives, so those are the candidates, and the centralizer
    of the one chosen is read off the fixed points of its own row: no node
    builds a row for every element.

    The order changes only the walk, never the answer.  Every hom is found
    whatever the order, and is reported as its images of x1, x2, ...  Under
    ``dedup_conjugacy`` the walk keeps one hom per orbit, least in the
    search order; when the search order is not x1, x2, ..., the kept hom
    is replaced by the least conjugate of its images in the order x1, x2,
    ..., the least tuple in its ``conjugates`` orbit.  The results are
    sorted at the end.
    """
    g = target
    n = p.generator_count
    if g.order ** n > budget:
        raise ValueError(
            f"{g.order}^{n} candidate image tuples exceed the budget of {budget}")
    plan = _search_plan(p)
    relabelled = [x for x, _, _ in plan] != list(range(1, n + 1))

    images = [g.identity] * n
    results: list[GroupHom] = []
    ident = g.identity
    mul, inv = g.mul, g.inv
    conjugation_row, kept_conjugation_row = g.conjugation_row, g.kept_conjugation_row
    X, X_INV = -1, -2  # markers for the new image and its inverse
    if dedup_conjugacy:
        classes = conjugacy_classes(g)
        reps = [c.representative for c in classes]
        central = {c.representative for c in classes if len(c.members) == 1}
        centralizers: dict[int, list] = {}  # class representative -> its rows

    def split(w: Word, new: int) -> tuple[bool, tuple]:
        # w rotated to start at its first letter on the generator numbered
        # new (a conjugate, so it holds exactly when w does): whether that
        # letter is an inverse, and the letters after it as markers for the
        # new generator and tuples of the letters between them, empty runs
        # kept, so a relator meeting it once reads (b,) and twice (a, marker, b)
        letters = w.letters
        start = next(i for i, l in enumerate(letters) if abs(l) == new)
        letters = letters[start + 1:] + letters[:start]
        parts: list = []
        run: list[int] = []
        for l in letters:
            if abs(l) == new:
                parts += (tuple(run), X if l > 0 else X_INV)
                run = []
            else:
                run.append(l)
        parts.append(tuple(run))
        return w.letters[start] < 0, tuple(parts)

    def value(run: tuple[int, ...]) -> int:
        # the product of a run of letters on the images chosen so far
        acc = ident
        for l in run:
            e = images[l - 1] if l > 0 else inv(images[-l - 1])
            acc = e if acc == ident else mul(acc, e)
        return acc

    def compile_relator(parts: tuple) -> tuple[int, ...]:
        # split's parts with the images chosen so far multiplied out, each
        # factor an element or a marker: with neg from split, the relator
        # holds for x when x^(-1 if neg else 1) times the factors is the
        # identity
        factors: list[int] = []
        for part in parts:
            if isinstance(part, int):  # a marker
                factors.append(part)
            elif (run := value(part)) != ident:
                factors.append(run)
        return tuple(factors)

    def holds(checks: list, relators: list, x: int) -> bool:
        # checks[j] is relators[j] compiled, with whether it needs x's
        # inverse, or None until a candidate reaches it
        xi = None
        for j, check in enumerate(checks):
            if check is None:
                neg, parts = relators[j]
                factors = compile_relator(parts)
                check = checks[j] = (neg, factors, neg or X_INV in factors)
            neg, factors, needs_inv = check
            if needs_inv and xi is None:
                xi = inv(x)
            acc = xi if neg else x
            for f in factors:
                acc = mul(acc, f if f >= 0 else x if f == X else xi)
            if acc != ident:
                return False
        return True

    def centralizer_rows(r: int) -> Optional[list]:
        # the rows of the nontrivial elements commuting with the class
        # representative r, the fixed points of r's row; None when r is central
        if r in central:
            return None
        rows = centralizers.get(r)
        if rows is None:
            row = conjugation_row(r)
            rows = centralizers[r] = [kept_conjugation_row(c) or _ProductRow(mul, c, inv(c))
                                      for c in range(g.order) if row[c] == c and c != ident]
        return rows

    def finish() -> None:
        if surjective_only and len(generated_set(g, images)) != g.order:
            return
        t = tuple(images)
        if dedup_conjugacy and relabelled:
            t = min(conjugates(g, t))
        results.append(GroupHom._trusted(p, g, t))

    def level(k: int, cent: Optional[list]):
        # the frame choosing the image of generator plan[k][0]: its
        # candidates, the relators checked there and the checks compiled
        # from them so far, and cent, the conjugation rows of the nontrivial
        # elements centralizing the images chosen so far, None when that
        # centralizer is the whole target (dedup only)
        solved, relators = steps[k]
        cands = reps if dedup_conjugacy and cent is None else range(g.order)
        if solved is not None:
            neg, parts = solved
            if len(parts) == 1:
                # x^(±1)·b = 1 has the one solution x = b^(∓1)
                b = value(parts[0])
                forced = b if neg else inv(b)
                cands = [forced] if forced in cands else []
            else:
                # x^(-1)·a·x·b = 1 exactly when a·x = x·b^(-1), and
                # x·a·x^(-1)·b = 1 when b^(-1)·x = x·a: u·x = x·v, whose
                # solutions are a coset of u's centralizer when u and v are
                # conjugate, and none otherwise
                a, _, b = parts
                a, b_inv = value(a), inv(value(b))
                u, v = (a, b_inv) if neg else (b_inv, a)
                if g.class_of[u] != g.class_of[v]:
                    cands = []
                else:
                    coset = compress(range(g.order), map(eq, g.left_row(u), g.right_row(v)))
                    cands = [c for c in coset if c in cands]
        return iter(cands), [None] * len(relators), relators, cent

    if n == 0:
        finish()
        return results
    # the plan's relators, each split at its position's generator once
    steps = [(None if solved is None else split(solved, x), [split(w, x) for w in relators])
             for x, solved, relators in plan]
    # depth-first on an explicit stack, one frame per chosen image, so a
    # braid on any number of strands is searched without recursion
    stack = [level(0, None)]
    while stack:
        k = len(stack) - 1
        cands, checks, relators, cent = stack[-1]
        x = plan[k][0] - 1
        for cand in cands:
            images[x] = cand
            if checks and not holds(checks, relators, cand):
                continue
            if cent is not None:
                moved = [row[cand] for row in cent]
                if min(moved, default=cand) < cand:
                    continue
            if k + 1 == n:
                finish()
                continue
            if not dedup_conjugacy:
                nxt = None
            elif cent is None:
                nxt = centralizer_rows(cand)
            else:
                nxt = [row for row, y in zip(cent, moved) if y == cand]
            stack.append(level(k + 1, nxt))
            break
        else:
            stack.pop()
    if relabelled:
        results.sort(key=lambda h: h.images)
    return results


def load_matrix_file(path) -> IntMatrix:
    """Read a matrix as lines of space-separated integers ('#' comments ok);
    a bad token or a row narrower or wider than the first names the line,
    and text that does not decode, or holds no row, names the file."""
    rows, first = [], 0  # first: the line number of the first row
    with open(path, encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = []
        for tok in line.split():
            try:
                row.append(int(tok))
            except ValueError:
                shown = tok if len(tok) <= TOKEN_SHOWN else tok[:TOKEN_SHOWN] + "..."
                raise ValueError(f"{path}: line {lineno}: {shown!r} is not an integer") from None
        if not rows:
            first = lineno
        elif len(row) != len(rows[0]):
            raise ValueError(f"{path}: line {lineno}: {len(row)} entries, "
                             f"line {first} has {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: matrix file has no rows")
    return IntMatrix._of_rows(rows, len(rows[0]))
