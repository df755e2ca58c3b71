"""Shared finite groups for the test suite.

Most are built straight from permutation generators.  The quaternion group
and the dicyclic group of order 12 are awkward to write down as small
permutations, so they come from left translations on an abstract element
list (the regular representation) — which also exercises group construction
from arbitrary permutations rather than hand-picked nice ones.
"""

from cheblink import FiniteGroup, Permutation, generate_group


def perm_group(degree: int, *gens: str) -> FiniteGroup:
    return generate_group([Permutation.parse(s, degree) for s in gens],
                          degree=degree)


def regular_representation(elements, mul):
    """Left-translation permutation for each element of an abstract group.

    Returns (perms, index) where perms[x] sends index[y] to index[mul(x, y)].
    Composition applies the right factor first, so x -> perms[x] is a
    homomorphism.
    """
    index = {x: i for i, x in enumerate(elements)}
    perms = {x: Permutation(index[mul(x, y)] for y in elements)
             for x in elements}
    return perms, index


def quaternion_group() -> FiniteGroup:
    """Order 8: +-1, +-i, +-j, +-k via the regular representation."""
    units = ["e", "i", "j", "k"]
    table = {
        ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"), ("k", "k"): (-1, "e"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }

    def mul(x, y):
        (sx, ax), (sy, ay) = x, y
        if ax == "e":
            return (sx * sy, ay)
        if ay == "e":
            return (sx * sy, ax)
        s, a = table[(ax, ay)]
        return (sx * sy * s, a)

    elements = [(s, a) for s in (1, -1) for a in units]
    perms, _ = regular_representation(elements, mul)
    return generate_group([perms[(1, "i")], perms[(1, "j")]])


def dicyclic12() -> FiniteGroup:
    """Order 12: <a, b | a^6, b^2 = a^3, b a b^-1 = a^-1>, regular rep."""

    def mul(x, y):
        (m, t), (n, u) = x, y
        if t == 0:
            return ((m + n) % 6, u)
        if u == 0:
            return ((m - n) % 6, 1)
        return ((m - n + 3) % 6, 0)

    elements = [(m, t) for t in (0, 1) for m in range(6)]
    perms, _ = regular_representation(elements, mul)
    return generate_group([perms[(1, 0)], perms[(0, 1)]])


def corpus() -> dict[str, FiniteGroup]:
    return {
        "trivial": perm_group(1),
        "c2": perm_group(2, "(1 2)"),
        "c3": perm_group(3, "(1 2 3)"),
        "c4": perm_group(4, "(1 2 3 4)"),
        "v4": perm_group(4, "(1 2)(3 4)", "(1 3)(2 4)"),
        "c5": perm_group(5, "(1 2 3 4 5)"),
        "c6": perm_group(6, "(1 2 3 4 5 6)"),
        "s3": perm_group(3, "(1 2 3)", "(1 2)"),
        "d4": perm_group(4, "(1 2 3 4)", "(1 3)"),
        "q8": quaternion_group(),
        "a4": perm_group(4, "(1 2 3)", "(1 2)(3 4)"),
        "d6": perm_group(6, "(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"),
        "dic12": dicyclic12(),
        "s4": perm_group(4, "(1 2 3 4)", "(1 2)"),
        "a5": perm_group(5, "(1 2 3 4 5)", "(1 2 3)"),
    }


def psl27() -> FiniteGroup:
    """PSL(2,7), order 168, as the automorphisms of the Fano plane; kept out
    of ``corpus()`` so that the per-element checks there stay small."""
    return perm_group(7, "(1 2 3 4 5 6 7)", "(3 5)(6 7)")


def s5() -> FiniteGroup:
    """S5, order 120, with 156 subgroups; kept out of ``corpus()`` like
    ``psl27``."""
    return perm_group(5, "(1 2 3 4 5)", "(1 2)")


def a6() -> FiniteGroup:
    """A6, order 360, with 501 subgroups in 22 conjugacy classes; kept out of
    ``corpus()`` like ``psl27``."""
    return perm_group(6, "(1 2 3 4 5)", "(4 5 6)")


EXPECTED_ORDERS = {
    "trivial": 1, "c2": 2, "c3": 3, "c4": 4, "v4": 4, "c5": 5, "c6": 6,
    "s3": 6, "d4": 8, "q8": 8, "a4": 12, "d6": 12, "dic12": 12, "s4": 24,
    "a5": 60,
}
