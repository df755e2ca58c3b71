"""Finite permutation groups: closure, conjugacy classes, cycle types on the
cosets of a subgroup (read off its permutation character), and coset
actions, which label the vertices of covers.

Conventions, fixed once and used everywhere downstream:

* composition applies the right factor first: compose(a, b)(x) == a(b(x));
* group elements are kept sorted lexicographically by their image tuples,
  which puts the identity at index 0;
* the action on right cosets of a subgroup H sends Hx to H x z^{-1} (the
  inversion is what makes a *right* coset space carry a left action), and
  cosets are labeled breadth-first from H along the edges v -> v.g^{-1},
  generators taken in input order;
* a ``Permutation`` is its tuple of 0-based images, validated when built
  and equal to the plain tuple; cycle notation, 1-based, is for text.  A
  map the library computes on points or cosets (a coset-action image, which
  is also a loop's monodromy in a cover) is a plain image tuple, and
  ``cycles`` and ``cycle_type`` take either.
"""

from __future__ import annotations

import json
import re
import sys
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

GENERATION_CAP = 10080
# image slots one group holds, order times degree; `group classes` on a
# trivial group of degree 2^22 peaks at 530 MB, and one of degree 2^24 fails
# with MemoryError under a 1 GB address-space limit
IMAGE_SLOT_CAP = 1 << 22
# entries in all the right-multiplication rows one group keeps (about 16 MB
# of tuple slots); products on rows past it are formed one at a time
ROW_CACHE_CAP = 1 << 21
# single products an element serves as a right factor before ``mul`` builds
# its row: a row costs about |G|/3 single products, so an element used once
# or twice never pays for one
_PRODUCTS_BEFORE_ROW = 8
# joins the all_subgroups search may plan, times the group order; S5 plans
# 1.25e6 and A6 3.0e7
SUBGROUP_JOIN_BUDGET = 1 << 25
TOKEN_SHOWN = 40  # characters of the user's text or token quoted in an error

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def shorten(text: str) -> str:
    """``text`` cut to its first TOKEN_SHOWN characters, with "..." when cut."""
    return text if len(text) <= TOKEN_SHOWN else text[:TOKEN_SHOWN] + "..."


def parse_digits(text: str) -> int | None:
    """The value of ASCII decimal digits, or None for anything else: a sign,
    an underscore, other digits, or more digits than int() converts."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # past the integer string conversion limit
        return None


class Permutation(tuple):
    """A permutation of {0, ..., n-1}: the tuple of its images."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        return tuple.__new__(cls, images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple known to be a permutation, unchecked."""
        return tuple.__new__(cls, images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        """Build from 0-based cycles, e.g. [(0, 1, 2)] for the 1-based (1 2 3)."""
        return cls(_cycle_map(cycles, degree, 0))

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse 1-based cycle notation: "(1 2 3)(4 5)"; "()" is the identity.
        A bad point is named as written, with the text."""
        s = text.strip().replace(",", " ")
        if s in ("", "()"):
            return cls.identity(degree)
        if _CYCLE_RE.sub("", s).strip():
            raise ValueError(f"bad cycle notation: {shorten(text)!r}")
        cycles = []
        for part in _CYCLE_RE.findall(s):
            cyc = []
            for t in part.split():
                # no degree has TOKEN_SHOWN digits, and int() refuses a
                # point past its conversion limit
                if not (t.isascii() and t.removeprefix("-").isdigit()) or len(t) > TOKEN_SHOWN:
                    raise ValueError(f"bad cycle notation {shorten(text)!r}: point "
                                     f"{shorten(t)!r} is not an integer in 1..{degree}")
                cyc.append(int(t))
            cycles.append(cyc)
        try:
            images = _cycle_map(cycles, degree, 1)
        except ValueError as e:
            raise ValueError(f"bad cycle notation {shorten(text)!r}: {e}") from None
        return cls(images)

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, point: int) -> int:
        return self[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its least point."""
        return [c for c in cycles(self) if len(c) > 1]

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation.parse({self.cycle_string()!r}, {self.degree})"


def _cycle_map(cycles: Iterable[Sequence[int]], degree: int, base: int) -> list[int]:
    """The 0-based image list of cycles written on the points base..base+degree-1;
    a point outside them or met twice raises ValueError naming it as written."""
    images = list(range(degree))
    seen = set()
    for cyc in cycles:
        for p in cyc:
            if not base <= p < base + degree:
                raise ValueError(f"point {p} outside {base}..{base + degree - 1}")
            if p in seen:
                raise ValueError(f"point {p} repeated across cycles")
            seen.add(p)
        for a, b in zip(cyc, (*cyc[1:], *cyc[:1])):  # an empty cycle maps nothing
            images[a - base] = b - base
    return images


def compose(a: Permutation, b: Permutation) -> Permutation:
    """compose(a, b) applies b first: compose(a, b)(x) == a(b(x))."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return Permutation(map(a.__getitem__, b))


def cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Every cycle of an image tuple, fixed points included, each starting
    at its least point, in order of that point."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if not seen[start]:
            cyc = [start]
            seen[start] = True
            x = images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = images[x]
            out.append(tuple(cyc))
    return out


def cycle_type(images: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of an image tuple or a ``Permutation`` in decreasing
    order, fixed points included as 1s."""
    return tuple(sorted(map(len, cycles(images)), reverse=True))


def picker(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """seq -> the tuple of seq[i] for i in indices, in one call: an
    ``itemgetter``, except that a one-index itemgetter returns a bare item,
    so one index gets a function that returns a one-tuple."""
    if len(indices) == 1:
        i, = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


class FiniteGroup:
    """A permutation group closed under composition, with canonical labels.

    Elements are indexed 0..order-1 in lexicographic order of their image
    tuples (identity first), and ``index`` maps an element, or its plain
    image tuple, to its index.  ``word_for(i)`` returns a shortest word in the
    generators (1-based positive letters) evaluating to element i, recorded
    during the generating closure; the identity's word is empty.

    Products come from right-multiplication rows: ``right_row(j)[i] ==
    mul(i, j)``, the index of elements[i] ∘ elements[j].  ``mul`` forms the
    first few products on j's right from the two permutations, one at a time,
    and builds j's row from the image tuples only when j serves one more; a
    row is kept while the rows kept by this group hold at most
    ``ROW_CACHE_CAP`` entries in all.  Past that, every product on an
    uncached row is formed alone and nothing is kept, so memory stays
    bounded at every order.  Left rows, class rows and conjugation rows are
    kept under the same cap.
    """

    def __init__(self, degree, elements, generator_perms, words):
        self.degree = degree
        self.elements = tuple(elements)
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.generators = tuple(self.index[g] for g in generator_perms)
        self._words = tuple(tuple(w) for w in words)
        self.identity = self.index[Permutation.identity(degree)]
        self._rows: list[tuple[int, ...] | None] = [None] * len(self.elements)
        self._row_entries = 0
        self._single_products = [0] * len(self.elements)
        self._class_rows: list[Sequence[int] | None] = [None] * len(self.elements)
        self._conjugation_rows: list[tuple[int, ...] | None] = [None] * len(self.elements)
        self._left_rows: dict[int, tuple[int, ...]] = {}  # element -> its left row
        self._inv = None
        self._conjugations = None
        self._classes = None
        self._class_of = None
        self._power_classes = None
        self._class_types = {}  # permutation character -> class_types
        self._trace_plan = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def class_of(self) -> tuple[int, ...]:
        """The position of each element's class in ``conjugacy_classes``,
        which the first read computes."""
        if self._class_of is None:
            conjugacy_classes(self)
        return self._class_of

    def right_row(self, j: int) -> tuple[int, ...]:
        """The products of every element with j on its right, by index."""
        row = self._rows[j]
        if row is None:
            row = self._keep(self._rows, j, self._product_row(j))
        return row

    def left_row(self, a: int) -> tuple[int, ...]:
        """The products of a with every element on its right, by index:
        ``left_row(a)[c] == mul(a, c)``.  Counts |G| entries against
        ``ROW_CACHE_CAP`` and is kept while the kept rows fit, like a class
        row; past that it is built and dropped."""
        row = self._left_rows.get(a)
        if row is None:
            # a·c is the inverse of c⁻¹·a⁻¹, read off a⁻¹'s right row
            r = self.right_row(self.inv(a))
            inv = self._inv
            row = self._keep(self._left_rows, a, picker(picker(inv)(r))(inv))
        return row

    def _product_row(self, j: int) -> tuple[int, ...]:
        pick = picker(self.elements[j])
        return tuple(map(self.index.__getitem__, map(pick, self.elements)))

    def mul(self, i: int, j: int) -> int:
        row = self._rows[j]
        if row is None:
            served = self._single_products[j]
            if (served < _PRODUCTS_BEFORE_ROW
                    or self._row_entries + len(self._rows) > ROW_CACHE_CAP):
                self._single_products[j] = served + 1
                a = self.elements[i]
                return self.index[tuple(map(a.__getitem__, self.elements[j]))]
            row = self.right_row(j)
        return row[i]

    def class_row(self, j: int) -> Sequence[int]:
        """The class position of every element times j: ``class_row(j)[i]``
        is the class of mul(i, j), one byte an entry (a tuple above 256
        classes).

        j's word is its parent's and one more generator a, and i·p·a is
        conjugate to a·i·p, so j's class row is its parent's read through a's
        left-multiplication row: one pass per element down the word, from the
        identity, whose class row is the class of each element.  A class row
        counts |G| entries against ``ROW_CACHE_CAP`` and is kept while the
        kept rows and class rows fit.
        """
        chain = []
        while self._class_rows[j] is None and self._words[j]:
            chain.append(j)
            a = self.generators[self._words[j][-1] - 1]
            j = self.right_row(self.inv(a))[j]
        cr = self._class_rows[j]
        if cr is None:  # the identity's
            cr = self._keep(self._class_rows, j, self._class_bytes(self.class_of))
        for j in reversed(chain):
            left = self.left_row(self.generators[self._words[j][-1] - 1])
            cr = self._keep(self._class_rows, j, self._class_bytes(picker(left)(cr)))
        return cr

    def _class_bytes(self, classes: Sequence[int]) -> Sequence[int]:
        return bytes(classes) if len(self._classes) <= 256 else tuple(classes)

    def conjugation_row(self, c: int) -> tuple[int, ...]:
        """The index of c·y·c⁻¹ for every element y: ``conjugation_row(c)[y]
        == mul(mul(c, y), inv(c))``.  Counts |G| entries against
        ``ROW_CACHE_CAP`` and is kept while the kept rows fit, like a class
        row; past that it is built and dropped."""
        return self.kept_conjugation_row(c) or self._conjugation_map(c)

    def kept_conjugation_row(self, c: int) -> tuple[int, ...] | None:
        """c's conjugation row when the group keeps it, built now if it
        still fits under ``ROW_CACHE_CAP``; None, with nothing built, when
        it does not."""
        row = self._conjugation_rows[c]
        if row is None and self._row_entries + len(self._rows) <= ROW_CACHE_CAP:
            row = self._keep(self._conjugation_rows, c, self._conjugation_map(c))
        return row

    def _conjugation_map(self, c: int) -> tuple[int, ...]:
        # three picker passes over r = c⁻¹'s right row, which is not kept:
        # r[y] = y·c⁻¹, and the inverse of r[inv(r[y])] = c·y⁻¹·c⁻¹ is c·y·c⁻¹
        ci = self.inv(c)
        r = self._rows[ci] or self._product_row(ci)
        inv = self._inv
        return picker(picker(picker(r)(inv))(r))(inv)

    def _keep(self, cache: list, j: int, row: Sequence[int]) -> Sequence[int]:
        """Keep row as cache[j] when the kept rows still fit the cap."""
        if self._row_entries + len(row) <= ROW_CACHE_CAP:
            cache[j] = row
            self._row_entries += len(row)
        return row

    def inv(self, i: int) -> int:
        if self._inv is None:
            # the inverse image tuple lists the points in the order of their images
            pos, points = self.index, range(self.degree)
            self._inv = tuple(pos[tuple(sorted(points, key=t.__getitem__))] for t in self.elements)
        return self._inv[i]

    def word_for(self, i: int) -> tuple[int, ...]:
        return self._words[i]

    def __repr__(self) -> str:
        return f"<FiniteGroup of order {self.order} on {self.degree} points>"


def _check_slots(degree: int, elements: int = 1) -> None:
    if elements * degree > IMAGE_SLOT_CAP:
        raise ValueError(f"{elements} x {shorten(str(degree))} image slots (order times "
                         f"degree) exceed the cap of {IMAGE_SLOT_CAP}")


def generate_group(generators: Sequence[Permutation], *,
                   degree: int | None = None) -> FiniteGroup:
    """Close a generator list under composition (breadth-first).

    ``degree`` is required when the generator list is empty.  Raises
    ValueError if the closure grows past ``GENERATION_CAP``.
    """
    gens = list(generators)
    if degree is None:
        if not gens:
            raise ValueError("degree is required when there are no generators")
        degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError("generators act on different numbers of points")
    _check_slots(degree)
    # one picker per generator k: q = p ∘ k has images p[k(x)]
    picks = [picker(g) for g in gens]
    ident = tuple(range(degree))
    words: dict[tuple[int, ...], tuple[int, ...]] = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            w = words[p]
            for k, pick in enumerate(picks, start=1):
                q = pick(p)
                if q not in words:
                    if len(words) >= GENERATION_CAP:
                        raise ValueError(f"group closure exceeded cap of {GENERATION_CAP} elements")
                    _check_slots(degree, len(words) + 1)
                    words[q] = w + (k,)
                    nxt.append(q)
        frontier = nxt
    images = sorted(words)
    # products of permutations are permutations: no image tuple is re-validated
    return FiniteGroup(degree, map(Permutation._trusted, images), gens,
                       [words[t] for t in images])


def _conjugations(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """One index tuple per generator k, sending each element y to k^-1 y k:
    the conjugation map of k^-1, built on k's right row.

    Kept on the group, outside the row cache.
    """
    if g._conjugations is None:
        g._conjugations = tuple(g._conjugation_map(g.inv(k)) for k in g.generators)
    return g._conjugations


def conjugates(g: FiniteGroup, t: tuple | frozenset) -> set:
    """The orbit of t, a tuple or frozenset of element indices, under
    entrywise conjugation by g, walked with the generators' conjugation
    maps: index lookups, no products."""
    return set(_conjugation_tree(g, t))


def _conjugation_tree(g: FiniteGroup, t: tuple | frozenset) -> dict:
    """t's ``conjugates`` orbit as the tree its walk grows: t maps to None,
    and every other member v to (u, k) when it was first reached from the
    member u by the generator k, as v = k⁻¹·u·k entrywise.  Each member
    comes after the one it was reached from."""
    make = type(t)
    steps = tuple(zip(g.generators, _conjugations(g)))
    tree = {t: None}
    stack = [t]
    while stack:
        u = stack.pop()
        for k, conj in steps:
            v = make(map(conj.__getitem__, u))
            if v not in tree:
                tree[v] = (u, k)
                stack.append(v)
    return tree


def powers(g: FiniteGroup, i: int) -> list[int]:
    """i^0, i^1, ..., i^(ord - 1): the powers of element i up to its order."""
    out = [g.identity]
    x = i
    while x != g.identity:
        out.append(x)
        x = g.mul(x, i)
    return out


class ConjugacyClass(NamedTuple):
    representative: int  # least member under the canonical element order
    members: frozenset


def conjugacy_classes(g: FiniteGroup) -> tuple[ConjugacyClass, ...]:
    """All conjugacy classes, sorted by representative index."""
    if g._classes is None:
        unassigned = set(range(g.order))
        classes = []
        class_of = [0] * g.order
        while unassigned:
            start = min(unassigned)
            orbit = {x for x, in conjugates(g, (start,))}
            for x in orbit:
                class_of[x] = len(classes)
            classes.append(ConjugacyClass(start, frozenset(orbit)))
            unassigned -= orbit
        g._classes = tuple(classes)
        g._class_of = tuple(class_of)
    return g._classes


def class_index(g: FiniteGroup, i: int) -> int:
    """Position of element i's conjugacy class in conjugacy_classes(g)."""
    return g.class_of[i]


def permutation_character(g: FiniteGroup, h: "Subgroup") -> tuple[int, ...]:
    """Cosets of h fixed by each class in the action on g/h, in the order of
    conjugacy_classes(g).

    Read from how each class meets h, with no coset touched:
    fix(y) = |G| |y^G ∩ H| / (|y^G| |H|) (Serre, Linear representations of
    finite groups, §7.2).  The division is exact.
    """
    if h.group is not g:
        raise ValueError("subgroup belongs to a different group")
    classes, class_of = conjugacy_classes(g), g.class_of
    meets = [0] * len(classes)
    for m in h.members:
        meets[class_of[m]] += 1
    return tuple(g.order * k // (len(c.members) * len(h))
                 for c, k in zip(classes, meets))


def power_classes(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Per class, the classes of rep^0, rep^1, ..., rep^(ord - 1); kept on the group."""
    if g._power_classes is None:
        g._power_classes = tuple(tuple(class_index(g, y) for y in powers(g, c.representative))
                                 for c in conjugacy_classes(g))
    return g._power_classes


def class_types(g: FiniteGroup, h: "Subgroup") -> tuple[tuple[int, ...], ...]:
    """The cycle type of each class in the action on g/h, in the order of
    conjugacy_classes(g), by Artin's formula: no coset is touched.

    A class's type is read off the permutation character at its powers: a
    point is fixed by y^d exactly when its cycle length divides d, so the
    points on cycles of length exactly d follow by Möbius inversion of
    fix(y^d) over the divisors of d, for d dividing ord(y).  Kept on the
    group per character, which conjugate subgroups share.
    """
    fix = permutation_character(g, h)
    if fix not in g._class_types:
        types = []
        for power_class in power_classes(g):
            o = len(power_class)
            on = {}  # cycle length d -> points on cycles of that length
            for d in range(1, o + 1):
                if o % d == 0:
                    on[d] = fix[power_class[d % o]] - sum(n for e, n in on.items() if d % e == 0)
            types.append(tuple(d for d in reversed(on) for _ in range(on[d] // d)))
        g._class_types[fix] = tuple(types)
    return g._class_types[fix]


def generated_set(g: FiniteGroup, seed: Iterable[int]) -> frozenset:
    """Element indices of the subgroup generated by ``seed``.

    Closes {identity} under right multiplication by the seed elements that
    are not yet members when reached (the kept generators); in a finite
    group that closure is the generated subgroup.  Each (member, kept
    generator) product is formed once, so the cost is at most
    |<seed>| * (kept generators) calls to ``g.mul`` plus one membership test
    per seed element.  Every kept generator at least doubles the members,
    so at most log2 |<seed>| generators are kept.

    The closure stops early once it holds more than half of g: a subgroup
    with over |G|/2 elements is g itself (Lagrange), so every index is
    returned without forming the remaining products.
    """
    mul = g.mul
    half = g.order // 2
    members = {g.identity}
    gens: list[int] = []
    for s in seed:
        if s in members:
            continue
        gens.append(s)
        # the old members are closed under the earlier generators
        frontier = []
        for x in tuple(members):
            z = mul(x, s)
            if z not in members:
                members.add(z)
                frontier.append(z)
        while frontier:
            nxt = []
            for x in frontier:
                if len(members) > half:
                    return frozenset(range(g.order))
                for k in gens:
                    z = mul(x, k)
                    if z not in members:
                        members.add(z)
                        nxt.append(z)
            frontier = nxt
    return frozenset(members)


class ClassLink(NamedTuple):
    """How a subgroup H' from ``all_subgroups`` reaches the representative H
    of its conjugacy class: H' = c⁻¹·H·c for the ``conjugator`` c, and H's
    coset action, which keeps the trace the cover checks relabel for H'."""

    action: "CosetAction"
    conjugator: int


class Subgroup:
    """A validated subgroup, held as a frozenset of element indices.

    ``link`` is a ``ClassLink`` to its class representative's coset action
    when ``all_subgroups`` made it and it is not that representative or
    normal; None otherwise."""

    def __init__(self, group: FiniteGroup, members: Iterable[int]):
        members = frozenset(members)
        if group.identity not in members:
            raise ValueError("subgroup must contain the identity")
        # a finite set holding the identity is a subgroup exactly when it is
        # what it generates: at most |H| log2 |H| products, not |H|^2
        if generated_set(group, members) != members:
            raise ValueError("member set not closed under composition")
        self.group = group
        self.members = members
        self.link: ClassLink | None = None  # set by all_subgroups
        self._action = None

    @property
    def action(self) -> "CosetAction":
        """The group's action on this subgroup's right cosets, built on first
        use and kept, so every cover of one subgroup shares it."""
        if self._action is None:
            self._action = CosetAction(self.group, self)
        return self._action

    @classmethod
    def generated(cls, group: FiniteGroup, indices: Iterable[int]) -> "Subgroup":
        return cls(group, generated_set(group, indices))

    @classmethod
    def point_stabilizer(cls, group: FiniteGroup, point: int) -> "Subgroup":
        """Stabilizer of a 0-based point."""
        if not 0 <= point < group.degree:
            raise ValueError(f"point {point} outside 0..{group.degree - 1}")
        return cls(group, (i for i, p in enumerate(group.elements) if p(point) == point))

    @classmethod
    def whole(cls, group: FiniteGroup) -> "Subgroup":
        return cls(group, range(group.order))

    @classmethod
    def trivial(cls, group: FiniteGroup) -> "Subgroup":
        return cls(group, (group.identity,))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    @property
    def index(self) -> int:
        return self.group.order // len(self.members)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.group is self.group
                and other.members == self.members)

    def __hash__(self) -> int:
        return hash((id(self.group), self.members))

    def __repr__(self) -> str:
        return f"<Subgroup of order {len(self.members)} and index {self.index}>"


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of g, by closing the cyclic subgroups under join.

    Sorted by (order, sorted member indices).  The search runs in levels:
    each level joins the subgroups the last level found with every cyclic
    subgroup, closing each join by ``generated_set`` in at most |G| log2 |G|
    products.  Both sets are closed under conjugation, and <s^x, c> =
    <s, c^(x^-1)>^x, so only one representative per conjugacy class of the
    last level's subgroups is joined, and each new join brings in its whole
    conjugacy class (its orbit under conjugation by the generators).

    Before each level the search adds the joins a full level plans, the
    last level's subgroups times the cyclic subgroups, to the joins planned
    and raises ValueError once joins * |G| exceeds ``SUBGROUP_JOIN_BUDGET``;
    the representatives make fewer joins than that count.  S6, whose 362
    cyclic subgroups plan 9.4e7 for the first level alone, is refused before
    any join.

    The first subgroup found of each class is its representative H, and the
    orbit walk's tree gives a conjugator c for each other member
    H' = c⁻¹·H·c, one product each.
    H's coset action is built here, and H' gets a ``ClassLink`` to it:
    the cover checks walk H's cover once and relabel its trace for H'.
    """
    cyclics = {frozenset(powers(g, i)) for i in range(g.order)}
    # each subgroup -> (its class representative, its conjugator)
    links: dict[frozenset, tuple[frozenset, int]] = {}

    def add_class(t: frozenset, found: list[dict]) -> None:
        """Add t's conjugacy class to links and to found, unless t is known."""
        if t not in links:
            tree = _conjugation_tree(g, t)
            for s, reached in tree.items():
                # k⁻¹·(c⁻¹·t·c)·k is (c·k)⁻¹·t·(c·k)
                links[s] = (t, g.identity if reached is None
                            else g.mul(links[reached[0]][1], reached[1]))
            found.append(tree)

    frontier: list[dict] = []
    for c in cyclics:
        add_class(c, frontier)
    pairs = 0
    while frontier:
        pairs += sum(map(len, frontier)) * len(cyclics)
        if pairs * g.order > SUBGROUP_JOIN_BUDGET:
            raise ValueError(
                f"subgroup search in a group of order {g.order} plans {pairs} joins; "
                f"joins x order exceeds the budget of {SUBGROUP_JOIN_BUDGET}")
        found: list[dict] = []
        for cls in frontier:
            s = next(iter(cls))
            for c in cyclics:
                if not c <= s:
                    add_class(generated_set(g, s | c), found)
        frontier = found
    subs = {ms: Subgroup(g, ms) for ms in sorted(links, key=lambda ms: (len(ms), sorted(ms)))}
    for ms, h in subs.items():
        rep, c = links[ms]
        if rep != ms:
            h.link = ClassLink(subs[rep].action, c)
    return list(subs.values())


class CosetAction:
    """The action of a group on the right cosets of a subgroup.

    Coset 0 is H itself; ``reps[j]`` is the first element found in coset j by
    the breadth-first labeling walk, and ``coset_of[i]`` locates element i's
    coset.  ``image(z)`` is the image tuple of Hx -> H x z^{-1} on coset labels.

    The action also keeps the trace the cover checks make of every element's
    loop.  For a conjugate H' = c⁻¹·H·c, the map H'y -> H·c·y commutes with
    the action, so H''s trace is H's relabelled through it, once the
    generators' images are checked to correspond.
    """

    def __init__(self, group: FiniteGroup, subgroup: Subgroup):
        if subgroup.group is not group:
            raise ValueError("subgroup belongs to a different group")
        # right_row(k⁻¹) takes the coset H·r, as listed, to H·r·k⁻¹
        steps = [group.right_row(group.inv(k)) for k in group.generators]
        reps = [group.identity]
        cosets = [tuple(subgroup.members)]
        coset_of: list[int | None] = [None] * group.order
        for m in cosets[0]:
            coset_of[m] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for j in frontier:
                for step in steps:
                    t = step[reps[j]]
                    if coset_of[t] is None:
                        c = len(reps)
                        reps.append(t)
                        cosets.append(picker(cosets[j])(step))
                        for y in cosets[c]:
                            coset_of[y] = c
                        nxt.append(c)
            frontier = nxt
        if any(c is None for c in coset_of):
            raise ValueError("generators do not generate the group")
        self.group = group
        self.reps = tuple(reps)
        self.coset_of = tuple(coset_of)
        self._trace = None  # what both cover checks read; filled by covers

    @property
    def degree(self) -> int:
        return len(self.reps)

    def image(self, z: int) -> tuple[int, ...]:
        zi = self.group.inv(z)
        co = self.coset_of
        mul = self.group.mul
        return tuple(co[mul(r, zi)] for r in self.reps)


def parse_cycle_strings(data, kind: str, key: str) -> tuple[int, list[Permutation]]:
    """Read {"degree": n, key: ["(1 2 3)", ...]} as n and its permutations.

    Any other shape, such as a top-level list or entries that are not cycle
    strings, raises ValueError naming the ``kind`` of file.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a {kind} file holds a JSON object, not {type(data).__name__}")
    degree = data.get("degree")
    cycles = data.get(key)
    if type(degree) is not int:
        raise ValueError(f'{kind} "degree" must be an integer')
    if not isinstance(cycles, list) or not all(isinstance(s, str) for s in cycles):
        raise ValueError(f'{kind} "{key}" must be a list of cycle strings')
    if degree < 1:
        raise ValueError("degree must be at least 1")
    _check_slots(degree)
    return degree, [Permutation.parse(s, degree) for s in cycles]


def parse_group_data(data: dict) -> FiniteGroup:
    """Build a group from {"degree": n, "generators": ["(1 2 3)", ...]}."""
    degree, gens = parse_cycle_strings(data, "group", "generators")
    return generate_group(gens, degree=degree)


def load_json(path):
    """The JSON value in a file; text that does not decode or parse, nesting
    too deep to parse, or an integer past CPython's int digit limit, raises
    a one-line ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
        except ValueError as e:
            if isinstance(e, (json.JSONDecodeError, UnicodeDecodeError)):
                raise ValueError(f"{path}: {e}") from None
            # the only other ValueError json raises is int()'s digit limit
            raise ValueError(f"{path}: a JSON integer has more than "
                             f"{sys.get_int_max_str_digits()} digits") from None


def load_group_file(path) -> FiniteGroup:
    """Read a group file: {"degree": n, "generators": ["(1 2 3)", ...]}."""
    return parse_group_data(load_json(path))


def group_file_data(g: FiniteGroup) -> dict:
    return {
        "degree": g.degree,
        "generators": [g.elements[k].cycle_string() for k in g.generators],
    }
