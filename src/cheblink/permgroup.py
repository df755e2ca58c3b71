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
* a map the library computes on points or cosets (a coset-action image, a
  cover step, a loop's monodromy) is a 0-based tuple of images, and
  ``cycle_type`` takes one.  ``Permutation`` objects, which validate their
  images, are built only where cycle text is parsed or printed and for
  ``FiniteGroup.elements``.
"""

from __future__ import annotations

import json
import re
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

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

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A permutation of {0, ..., n-1} stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        """Build from 0-based cycles, e.g. [(0, 1, 2)] for the 1-based (1 2 3)."""
        images = list(range(degree))
        seen = set()
        for cyc in cycles:
            for p in cyc:
                if not 0 <= p < degree:
                    raise ValueError(f"point {p} outside 0..{degree - 1}")
                if p in seen:
                    raise ValueError(f"point {p} repeated across cycles")
                seen.add(p)
            for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                images[a] = b
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse 1-based cycle notation: "(1 2 3)(4 5)"; "()" is the identity."""
        s = text.strip().replace(",", " ")
        if s in ("", "()"):
            return cls.identity(degree)
        if _CYCLE_RE.sub("", s).strip():
            raise ValueError(f"bad cycle notation: {text!r}")
        cycles = []
        for part in _CYCLE_RE.findall(s):
            toks = part.split()
            if toks:
                cycles.append(tuple(int(t) - 1 for t in toks))
        return cls.from_cycles(cycles, degree)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            seen[start] = True
            if self.images[start] == start:
                continue
            cyc = [start]
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation.parse({self.cycle_string()!r}, {self.degree})"


def compose(a: Permutation, b: Permutation) -> Permutation:
    """compose(a, b) applies b first: compose(a, b)(x) == a(b(x))."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    ia = a.images
    return Permutation(ia[x] for x in b.images)


def cycle_type(images: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of an image tuple in decreasing order, fixed points
    included as 1s."""
    seen = [False] * len(images)
    lens = []
    for start in range(len(images)):
        if seen[start]:
            continue
        n = 0
        x = start
        while not seen[x]:
            seen[x] = True
            n += 1
            x = images[x]
        lens.append(n)
    return tuple(sorted(lens, reverse=True))


class FiniteGroup:
    """A permutation group closed under composition, with canonical labels.

    Elements are indexed 0..order-1 in lexicographic order of their image
    tuples (identity first).  ``word_for(i)`` returns a shortest word in the
    generators (1-based positive letters) evaluating to element i, recorded
    during the generating closure; the identity's word is empty.

    Products come from right-multiplication rows: ``right_row(j)[i] ==
    mul(i, j)``, the index of elements[i] ∘ elements[j].  ``mul`` forms the
    first few products on j's right from the two permutations, one at a time,
    and builds j's row from the image tuples only when j serves one more; a
    row is kept while the rows kept by this group hold at most
    ``ROW_CACHE_CAP`` entries in all.  Past that, every product on an
    uncached row is formed alone and nothing is kept, so memory stays
    bounded at every order.
    """

    def __init__(self, degree, elements, generator_perms, words):
        self.degree = degree
        self.elements = tuple(elements)
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.generators = tuple(self.index[g] for g in generator_perms)
        self._words = tuple(tuple(w) for w in words)
        self.identity = self.index[Permutation.identity(degree)]
        self._images = tuple(p.images for p in self.elements)
        self._position = {t: i for i, t in enumerate(self._images)}
        self._rows: list[tuple[int, ...] | None] = [None] * len(self.elements)
        self._row_entries = 0
        self._single_products = [0] * len(self.elements)
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

    def right_row(self, j: int) -> tuple[int, ...]:
        """The products of every element with j on its right, by index."""
        row = self._rows[j]
        if row is None:
            b = self._images[j]
            # a one-index itemgetter returns a bare item; degree 1 has only
            # the identity, so there the image tuple is its own product
            pick = itemgetter(*b) if len(b) > 1 else tuple
            row = tuple(map(self._position.__getitem__, map(pick, self._images)))
            if self._row_entries + len(row) <= ROW_CACHE_CAP:
                self._rows[j] = row
                self._row_entries += len(row)
        return row

    def mul(self, i: int, j: int) -> int:
        row = self._rows[j]
        if row is None:
            served = self._single_products[j]
            if (served < _PRODUCTS_BEFORE_ROW
                    or self._row_entries + len(self._rows) > ROW_CACHE_CAP):
                self._single_products[j] = served + 1
                a = self._images[i]
                return self._position[tuple(map(a.__getitem__, self._images[j]))]
            row = self.right_row(j)
        return row[i]

    def inv(self, i: int) -> int:
        if self._inv is None:
            # the inverse image tuple lists the points in the order of their images
            pos, points = self._position, range(self.degree)
            self._inv = tuple(pos[tuple(sorted(points, key=t.__getitem__))] for t in self._images)
        return self._inv[i]

    def word_for(self, i: int) -> tuple[int, ...]:
        return self._words[i]

    def __repr__(self) -> str:
        return f"<FiniteGroup of order {self.order} on {self.degree} points>"


def _check_slots(degree: int, elements: int = 1) -> None:
    if elements * degree > IMAGE_SLOT_CAP:
        raise ValueError(f"{elements} x {degree} image slots (order times degree) exceed "
                         f"the cap of {IMAGE_SLOT_CAP}")


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
    ident = Permutation.identity(degree)
    words: dict[Permutation, tuple[int, ...]] = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            w = words[p]
            for k, g in enumerate(gens):
                q = compose(p, g)
                if q not in words:
                    if len(words) >= GENERATION_CAP:
                        raise ValueError(f"group closure exceeded cap of {GENERATION_CAP} elements")
                    _check_slots(degree, len(words) + 1)
                    words[q] = w + (k + 1,)
                    nxt.append(q)
        frontier = nxt
    elements = sorted(words)
    return FiniteGroup(degree, elements, gens, [words[p] for p in elements])


def _conjugations(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """One index tuple per generator k, sending each element y to k^-1 y k.

    Built on the generators' rows only, and kept on the group.
    """
    if g._conjugations is None:
        maps = []
        for k in g.generators:
            row, inv = g.right_row(k), g.inv
            # (y^-1 k)^-1 k == k^-1 y k
            maps.append(tuple(row[inv(row[inv(y)])] for y in range(g.order)))
        g._conjugations = tuple(maps)
    return g._conjugations


def conjugates(g: FiniteGroup, t: tuple | frozenset) -> set:
    """The orbit of t, a tuple or frozenset of element indices, under
    entrywise conjugation by g, walked with the generators' conjugation
    maps: index lookups, no products."""
    make = type(t)
    conjugations = _conjugations(g)
    orbit = {t}
    stack = [t]
    while stack:
        u = stack.pop()
        for conj in conjugations:
            v = make(map(conj.__getitem__, u))
            if v not in orbit:
                orbit.add(v)
                stack.append(v)
    return orbit


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
        conjugations = _conjugations(g)
        while unassigned:
            start = min(unassigned)
            orbit = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for conj in conjugations:
                    y = conj[x]
                    if y not in orbit:
                        orbit.add(y)
                        stack.append(y)
            for x in orbit:
                class_of[x] = len(classes)
            classes.append(ConjugacyClass(start, frozenset(orbit)))
            unassigned -= orbit
        g._classes = tuple(classes)
        g._class_of = tuple(class_of)
    return g._classes


def class_index(g: FiniteGroup, i: int) -> int:
    """Position of element i's conjugacy class in conjugacy_classes(g)."""
    conjugacy_classes(g)
    return g._class_of[i]


def permutation_character(g: FiniteGroup, h: "Subgroup") -> tuple[int, ...]:
    """Cosets of h fixed by each class in the action on g/h, in the order of
    conjugacy_classes(g).

    Read from how each class meets h, with no coset touched:
    fix(y) = |G| |y^G ∩ H| / (|y^G| |H|) (Serre, Linear representations of
    finite groups, §7.2).  The division is exact.
    """
    if h.group is not g:
        raise ValueError("subgroup belongs to a different group")
    classes = conjugacy_classes(g)
    meets = [0] * len(classes)
    for m in h.members:
        meets[g._class_of[m]] += 1
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


class Subgroup:
    """A validated subgroup, held as a frozenset of element indices."""

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
    """
    cyclics = {frozenset(powers(g, i)) for i in range(g.order)}
    subs: set[frozenset] = set()

    def add_class(t: frozenset, found: list[set]) -> None:
        """Add t's conjugacy class to subs and to found, unless t is known."""
        if t not in subs:
            orbit = conjugates(g, t)
            subs.update(orbit)
            found.append(orbit)

    frontier: list[set] = []
    for c in cyclics:
        add_class(c, frontier)
    pairs = 0
    while frontier:
        pairs += sum(map(len, frontier)) * len(cyclics)
        if pairs * g.order > SUBGROUP_JOIN_BUDGET:
            raise ValueError(
                f"subgroup search in a group of order {g.order} plans {pairs} joins; "
                f"joins x order exceeds the budget of {SUBGROUP_JOIN_BUDGET}")
        found: list[set] = []
        for cls in frontier:
            s = next(iter(cls))
            for c in cyclics:
                if not c <= s:
                    add_class(generated_set(g, s | c), found)
        frontier = found
    return [Subgroup(g, ms) for ms in sorted(subs, key=lambda ms: (len(ms), sorted(ms)))]


class CosetAction:
    """The action of a group on the right cosets of a subgroup.

    Coset 0 is H itself; ``reps[j]`` is the first element found in coset j by
    the breadth-first labeling walk, and ``coset_of[i]`` locates element i's
    coset.  ``image(z)`` is the image tuple of Hx -> H x z^{-1} on coset labels.
    """

    def __init__(self, group: FiniteGroup, subgroup: Subgroup):
        if subgroup.group is not group:
            raise ValueError("subgroup belongs to a different group")
        reps = [group.identity]
        coset_of: list[int | None] = [None] * group.order
        for m in subgroup.members:
            coset_of[m] = 0
        frontier = [group.identity]
        while frontier:
            nxt = []
            for r in frontier:
                for k in group.generators:
                    t = group.mul(r, group.inv(k))
                    if coset_of[t] is None:
                        c = len(reps)
                        reps.append(t)
                        for m in subgroup.members:
                            coset_of[group.mul(m, t)] = c
                        nxt.append(t)
            frontier = nxt
        if any(c is None for c in coset_of):
            raise ValueError("generators do not generate the group")
        self.group = group
        self.subgroup = subgroup
        self.reps = tuple(reps)
        self.coset_of = tuple(coset_of)

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
    """The JSON value in a file; nesting too deep to parse raises ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def load_group_file(path) -> FiniteGroup:
    """Read a group file: {"degree": n, "generators": ["(1 2 3)", ...]}."""
    return parse_group_data(load_json(path))


def group_file_data(g: FiniteGroup) -> dict:
    return {
        "degree": g.degree,
        "generators": [g.elements[k].cycle_string() for k in g.generators],
    }
