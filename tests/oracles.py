"""Independent oracles the tests check library output against.

Everything here deliberately uses a different algorithm from the library:
orbit sets come from filtering raw edge tuples, invariant factors from
gcds of minors, subgroup closures from products of all member pairs and
conjugacy representatives of homs by trying every conjugator on each hom.
Slow is fine; these only run on small inputs.
"""

import math
from itertools import combinations, product

from cheblink import IntMatrix


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
