"""Independent oracles the tests check library output against.

Everything here deliberately uses a different algorithm from the library:
orbit sets come from filtering raw edge tuples, invariant factors from
gcds of minors, matrix products from every term of every entry, subgroup
closures from products of all member pairs, subgroup lattices from joining
every pair of subgroup and cyclic subgroup,
conjugacy representatives of homs by trying every conjugator on each hom,
homs themselves by evaluating every relator on every image tuple,
canonical rotations by comparing per-letter key tuples, Wirtinger shapes
by cutting every rotation into its halves, conjugators by
composing permutations for every element of the group, a shift's
connectivity, period and holonomy from separate passes over its base graph,
a loop's lift by walking each vertex through every letter, a
permutation's orbits by following it from each point not yet reached, a coset
action's images from cosets held as sets of permutations, a braid
closure's relators by substituting each letter's automorphism into every
image, first letter first, closed-path totals by pushing every count
along every edge at every step, an element's powers by composing its
permutation with itself, and conjugation orbits by conjugating with the
permutation of every element, a group's closure by composing validated
permutations, realization witnesses by streaming every orbit, and printed
rows by reducing fractions.
Slow is fine; these only run on small inputs.
"""

import math
from fractions import Fraction
from typing import Optional
from itertools import combinations, product

from cheblink import (IntMatrix, Permutation, Presentation, Word, compose, conjugacy_classes,
                      generated_set, sft)


def brute_force_orbits(s, max_len):
    """All primitive orbits as (length, canonical edge tuple) pairs.

    Enumerates every edge tuple of each length, keeps the closed paths,
    drops the non-primitive ones, and canonicalizes by least rotation.
    """
    out = set()
    for n in range(1, max_len + 1):
        for seq in product(range(len(s.edges)), repeat=n):
            if any(s.edge_dst[seq[i]] != s.edge_src[seq[(i + 1) % n]]
                   for i in range(n)):
                continue
            if any(seq == seq[d:] + seq[:d] for d in range(1, n)):
                continue
            out.add((n, min(seq[i:] + seq[:i] for i in range(n))))
    return out


def product_by_every_term(a: IntMatrix, b: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """The entries of a @ b, each the sum of all its terms, zeros included."""
    return tuple(tuple(sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols))
                       for j in range(b.cols)) for i in range(a.rows))


def laplace_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    rest = rows[1:]
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rest]
        total += (-1) ** j * rows[0][j] * laplace_det(minor)
    return total


def minor_gcd_factors(m: IntMatrix) -> list[int]:
    """Invariant factors as d_k / d_{k-1}, d_k = gcd of all k x k minors."""
    entries = [list(r) for r in m.entries]
    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ri in combinations(range(m.rows), k):
            for ci in combinations(range(m.cols), k):
                sub = [[entries[i][j] for j in ci] for i in ri]
                g = math.gcd(g, laplace_det(sub))
        if g == 0:
            out.extend([0] * (min(m.rows, m.cols) + 1 - k))
            return out
        out.append(g // prev)
        prev = g
    return out


def closure_by_products(g, seed):
    """Element indices of the subgroup generated by ``seed``.

    Multiplies every new member by every member on both sides until nothing
    new appears: about 2 |H|^2 products for a subgroup H.
    """
    members = set(seed)
    members.add(g.identity)
    frontier = list(members)
    while frontier:
        nxt = []
        for x in frontier:
            for y in tuple(members):
                for z in (g.mul(x, y), g.mul(y, x)):
                    if z not in members:
                        members.add(z)
                        nxt.append(z)
        frontier = nxt
    return frozenset(members)


def powers_by_composition(g, i):
    """Indices of i^0, i^1, ... up to i's order, composing elements[i] with
    itself as permutations until the identity comes back."""
    p = g.elements[i]
    ident = Permutation.identity(g.degree)
    out = [ident]
    x = p
    while x != ident:
        out.append(x)
        x = x * p
    return [g.index[q] for q in out]


def conjugates_by_every_element(g, t):
    """{c t c^-1 : c in G} for a tuple or frozenset t of element indices,
    conjugating by the permutation of every element c."""
    make = type(t)
    orbit = set()
    for c in g.elements:
        ci = c.inverse()
        orbit.add(make(g.index[c * g.elements[x] * ci] for x in t))
    return orbit


def subgroups_by_all_joins(g):
    """Every subgroup's member set, sorted by (order, sorted members).

    Closes the cyclic subgroups under join in levels, joining every
    subgroup the last level found with every cyclic subgroup: no
    conjugation, so every pair is closed by ``generated_set``.
    """
    cyclics = {generated_set(g, [i]) for i in range(g.order)}
    subs = set(cyclics)
    frontier = set(cyclics)
    while frontier:
        frontier = {generated_set(g, s | c) for s in frontier for c in cyclics} - subs
        subs |= frontier
    return sorted(subs, key=lambda ms: (len(ms), sorted(ms)))


def least_conjugate_homs(g, homs):
    """The homs whose image tuple is least among all its conjugates.

    Conjugates each hom's images by every element of ``g`` and keeps the hom
    when none of the conjugate tuples is lexicographically smaller: up to
    2 |G| n products per hom on n generators.  Keeps the input order.
    """
    kept = []
    for hom in homs:
        t = hom.images
        for c in range(g.order):
            ci = g.inv(c)
            if tuple(g.mul(g.mul(c, x), ci) for x in t) < t:
                break
        else:
            kept.append(hom)
    return kept


def homs_by_brute_force(p, g, surjective_only):
    """Image tuples of every hom from the presented group to ``g``.

    Walks all |G|^n image tuples in lexicographic order and keeps those on
    which every relator composes to the identity, composing the elements'
    image tuples themselves (never through the group's products); with
    ``surjective_only``, also those whose images close up to all of ``g``.
    """
    perms = [e.images for e in g.elements]
    inverses = []
    for a in perms:
        b = [0] * len(a)
        for i, x in enumerate(a):
            b[x] = i
        inverses.append(tuple(b))
    ident = tuple(range(g.degree))

    def compose(a, b):  # a after b, as g.mul composes its factors
        return tuple(map(a.__getitem__, b))

    def value(t, w):
        acc = ident
        for l in w.letters:
            acc = compose(acc, perms[t[l - 1]] if l > 0 else inverses[t[-l - 1]])
        return acc

    sizes = {}  # closure size by image set, to spare repeated closures

    def closure_size(gens):
        if gens in sizes:
            return sizes[gens]
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for a in gens:
                    y = compose(x, a)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        sizes[gens] = len(seen)
        return len(seen)

    relators = sorted(p.relators, key=lambda r: len(r.letters))  # quickest to fail first
    out = []
    for t in product(range(g.order), repeat=p.generator_count):
        if all(value(t, r) == ident for r in relators) and not (
                surjective_only and closure_size(frozenset(perms[i] for i in t)) != g.order):
            out.append(t)
    return out


def rotation_by_tuple_keys(letters):
    """The least rotation of a cyclic word under x1 < x1^-1 < x2 < x2^-1 < ...

    Compares every rotation through one (generator, inverted) key per
    letter; the first least rotation wins.
    """
    if not letters:
        return letters
    rotations = [letters[i:] + letters[:i] for i in range(len(letters))]
    return min(rotations, key=lambda r: [(abs(l), l < 0) for l in r])


def wirtinger_pair_by_rotations(letters):
    """The letters (a, b) of the first rotation a·u·b·u⁻¹ of ``letters``
    with a and b on distinct generators, or None: cuts each rotation at its
    first letter and its middle letter and compares the two halves between
    them, about len^2 / 2 letters in all."""
    n = len(letters)
    if n % 2 or not n:
        return None
    for i in range(n):
        r = letters[i:] + letters[:i]
        a, u, b, rest = r[0], r[1:n // 2], r[n // 2], r[n // 2 + 1:]
        if abs(a) != abs(b) and rest == tuple(-l for l in reversed(u)):
            return a, b
    return None


def conjugator_by_full_scan(g, z, members):
    """The least element c of ``g`` with c z c^-1 in ``members``, else None.

    Tries every element in index order and forms c z c^-1 by composing the
    permutations themselves, not through the group's products.
    """
    zp = g.elements[z]
    for c, cp in enumerate(g.elements):
        if g.index[cp * zp * cp.inverse()] in members:
            return c
    return None


def realization_by_passes(s):
    """(strongly connected, base period, holonomy order) of a labeled shift.

    Three passes over the base graph: a forward and a backward DFS from
    state 0 for strong connectivity, a BFS whose levels give the period as
    the gcd of level[u] + 1 - level[v] over all edges (None unless strongly
    connected), and an undirected spanning tree whose non-tree edges give
    generators of the holonomy group, closed by ``closure_by_products``
    (order 0 when the graph is not even weakly connected).
    """
    g = s.hom.target
    n = s.state_count

    def reach(adj):
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return seen

    fwd_adj = [[] for _ in range(n)]
    bwd_adj = [[] for _ in range(n)]
    for a, b in zip(s.edge_src, s.edge_dst):
        fwd_adj[a].append(b)
        bwd_adj[b].append(a)
    connected = all(reach(fwd_adj)) and all(reach(bwd_adj))

    period: Optional[int] = None
    if connected:
        level = [-1] * n
        level[0] = 0
        queue = [0]
        while queue:
            nxt = []
            for u in queue:
                for v in fwd_adj[u]:
                    if level[v] < 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            queue = nxt
        period = 0
        for a, b in zip(s.edge_src, s.edge_dst):
            period = math.gcd(period, level[a] + 1 - level[b])

    elt = [None] * n
    elt[0] = g.identity
    adj = [[] for _ in range(n)]
    for ei in range(len(s.edges)):
        adj[s.edge_src[ei]].append((ei, True))
        adj[s.edge_dst[ei]].append((ei, False))
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            for ei, forward in adj[u]:
                w = s.edge_dst[ei] if forward else s.edge_src[ei]
                if elt[w] is None:
                    lab = s.edge_elem[ei]
                    elt[w] = g.mul(elt[u], lab) if forward else g.mul(elt[u], g.inv(lab))
                    nxt.append(w)
        queue = nxt
    if any(e is None for e in elt):
        return connected, period, 0
    gens = {g.mul(g.mul(elt[s.edge_src[ei]], s.edge_elem[ei]), g.inv(elt[s.edge_dst[ei]]))
            for ei in range(len(s.edges))}
    return connected, period, len(closure_by_products(g, gens))


def lift_by_vertex_walk(cover, letters):
    """The components of a loop's lift to ``cover``, and its decomposition type.

    Each letter's step map is the coset-action image of its generator's
    image, or of that image's inverse, so the loop's image is never formed.
    From each vertex not yet reached, walks one step map per letter, last
    letter first (the maps compose right to left), one full word at a time
    until the walk is back at its start; the vertices the walk stopped at
    form one component.  Returns ((vertex frozenset, degree), ...) in order
    of least vertex, and the degrees in decreasing order.
    """
    g, act, images = cover.hom.target, cover.subgroup.action, cover.hom.images
    walk = [act.image(images[l - 1] if l > 0 else g.inv(images[-l - 1]))
            for l in reversed(letters)]
    visited = [False] * act.degree
    comps = []
    for v0 in range(act.degree):
        if visited[v0]:
            continue
        visited[v0] = True
        fiber = [v0]
        u = v0
        while True:
            for step in walk:
                u = step[u]
            if u == v0:
                break
            visited[u] = True
            fiber.append(u)
        comps.append((frozenset(fiber), len(fiber)))
    return tuple(comps), tuple(sorted((d for _, d in comps), reverse=True))


def orbits(p):
    """The orbits of the image tuple p, each listed from its least point by
    following p, in order of that point."""
    seen = [False] * len(p)
    out = []
    for v in range(len(p)):
        if seen[v]:
            continue
        cyc = [v]
        seen[v] = True
        u = p[v]
        while u != v:
            seen[u] = True
            cyc.append(u)
            u = p[u]
        out.append(cyc)
    return out


def coset_image_by_sets(g, h, z):
    """The image tuple of z acting on the right cosets of h, Hx -> H x z^-1.

    Labels the cosets as the library does, breadth-first from H along
    x -> x k^-1 with the generators k in input order, but holds each coset
    as the set of its permutations and forms every product by composing
    permutations, never through the group's products.  Coset j goes to the
    coset that contains reps[j] z^-1.
    """
    members = [g.elements[m] for m in h.members]
    gens = [g.elements[k] for k in g.generators]
    reps = [Permutation.identity(g.degree)]
    cosets = [set(members)]
    frontier = list(reps)
    while frontier:
        nxt = []
        for r in frontier:
            for k in gens:
                t = r * k.inverse()
                if not any(t in c for c in cosets):
                    reps.append(t)
                    cosets.append({m * t for m in members})
                    nxt.append(t)
        frontier = nxt
    zi = g.elements[z].inverse()
    return tuple(next(j for j, c in enumerate(cosets) if r * zi in c) for r in reps)


def braid_presentation_by_substitution(b):
    """The closure's presentation, walking the braid forward.

    Each letter's automorphism is written out as n base words and
    substituted into all n current images, reducing as it goes: O(strands)
    words per letter, against the library's two images per letter walked
    from the end.
    """
    n = b.strands
    cur = [Word((j + 1,)) for j in range(n)]
    for letter in b.letters:
        i = abs(letter)
        base = [Word((j + 1,)) for j in range(n)]
        if letter > 0:
            base[i - 1] = Word((i, i + 1, -i))
            base[i] = Word((i,))
        else:
            base[i - 1] = Word((i + 1,))
            base[i] = Word((-(i + 1), i, i + 1))
        nxt = []
        for w in cur:
            out = []
            for l in w.letters:
                piece = base[l - 1].letters if l > 0 else base[-l - 1].inverse().letters
                for x in piece:
                    if out and out[-1] == -x:
                        out.pop()
                    else:
                        out.append(x)
            nxt.append(Word(tuple(out)))
        cur = nxt
    return Presentation(n, tuple(Word((-(j + 1),)) * cur[j] for j in range(n)))


def closed_path_totals_unpruned(s, max_n):
    """totals[n][class]: closed paths of length n, for every n <= max_n.

    The transfer DP with no skip: each of max_n steps per start state pushes
    every count along every lift edge, whether or not it can still close up.
    It reads the lift through ``sft._lift_moves`` when called, so a test that
    patches that function counts the lookups of both kernels.
    """
    g = s.hom.target
    moves = sft._lift_moves(s)
    classes = conjugacy_classes(g)
    class_of = g._class_of
    totals = [[0] * len(classes) for _ in range(max_n + 1)]
    for s0 in range(s.state_count):
        cur = [{} for _ in range(s.state_count)]
        cur[s0][g.identity] = 1
        for n, tot in enumerate(totals):
            if n:
                nxt = [{} for _ in range(s.state_count)]
                for st, dist in enumerate(cur):
                    for dst, row in moves[st]:
                        out = nxt[dst]
                        for el, c in dist.items():
                            y = row[el]
                            out[y] = out.get(y, 0) + c
                cur = nxt
            for el, c in cur[s0].items():
                tot[class_of[el]] += c
    return totals


def group_by_composition(generators, degree):
    """(sorted elements, their words) of the closure of ``generators``:
    breadth-first from the identity, each element composed with every
    generator as a validated ``Permutation``; a word records the generators
    (1-based) of the first path that reached its element."""
    ident = Permutation.identity(degree)
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for k, g in enumerate(generators, start=1):
                q = compose(p, g)
                if q not in words:
                    words[q] = words[p] + (k,)
                    nxt.append(q)
        frontier = nxt
    elements = sorted(words)
    return elements, [words[p] for p in elements]


def witnesses_by_enumeration(s, bound):
    """The first orbit of each class in the stream of every orbit of length
    <= bound, or None for a class that has none."""
    witnesses = [None] * len(conjugacy_classes(s.hom.target))
    for orbit in sft.enumerate_orbits(s, bound):
        if witnesses[orbit.frobenius_class] is None:
            witnesses[orbit.frobenius_class] = orbit
            if None not in witnesses:
                break
    return tuple(witnesses)


def decimal_by_fraction(x, places=6):
    """x to ``places`` decimals, ties away from zero, by Fraction arithmetic."""
    scaled = math.floor(abs(x) * 10 ** places + Fraction(1, 2))
    sign = "-" if x < 0 and scaled else ""
    whole, frac = divmod(scaled, 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}"


def render_row_by_fractions(row):
    """A rows line from a row's reduced fractions: the density printed, then
    the printed density parsed back and its deviation from the target
    reduced and printed."""
    dens = decimal_by_fraction(row.density)
    dev = abs(Fraction(dens) - row.target)
    return (f"{row.cutoff}\t{row.key}\t{row.count}\t{dens}\t{row.target}\t"
            f"{decimal_by_fraction(dev)}")
