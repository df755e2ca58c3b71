"""Seeded input generation for the benchmark workloads.

Everything here is plain standard-library Python and never imports the
package under test, so the generated inputs do not depend on the code being
measured.  Each ``*_inputs(seed)`` returns JSON-serialisable data in the
package's own file formats (hom and shift dicts, braid strings); the same
seed always gives byte-identical data.

Permutations are 0-based image tuples; cycle strings are 1-based, as the
package's files expect.
"""

from __future__ import annotations

import random
from math import gcd

A5_DENSITY_POOL = 64          # generated shifts; more than one run consumes
A5_DENSITY_MAX_LEN = 11
FLAGSHIP_ORBITS = 25486       # primitive orbits of the full 3-shift up to length 11
A5_DENSITY_SPREAD = 0.02
TRANSFER_POOL = 8             # generated shifts, cycled through for the whole run
TRANSFER_STATES = 6
TRANSFER_OUT_DEGREE = 2
TRANSFER_MAX_N = 15
# group multiplications a transfer-long job makes; shifts outside are redrawn
TRANSFER_MULS = (395_000, 415_000)
A5_PAIR = ([1, 2, 3, 4, 5], [1, 2, 3])   # the bundled hom's images
S4_PAIR = ([1, 2, 3, 4], [1, 2])
S6_PAIR = ([1, 2, 3, 4, 5, 6], [1, 2, 3])
LABEL_LETTERS = 3
BRAID_POOL = 64
# closures of these 3-strand braids are knots with distinct quotient counts
BRAID_KNOTS = (
    (-1, 2, 1, -2, -2, -2),
    (1, 2, -1, 2, 2, 1),
    (2, 2, 1, 1, 2, 1),
    (-2, -2, -1, 2, -1, -2),
)


# ---------------------------------------------------------------- permutations

def compose(a, b):
    """Apply b first, then a (the package's convention)."""
    return tuple(a[x] for x in b)


def inverse(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def closure_order(gens, degree):
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def cycle_string(a):
    seen = [False] * len(a)
    parts = []
    for start in range(len(a)):
        if seen[start] or a[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(str(x + 1))
            x = a[x]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) or "()"


def conjugated_pair(rng, degree, pair):
    """A fixed generating pair (1-based cycle lists) conjugated by a random
    permutation: the same group, relabelled, with the same generator orders,
    so the seed changes the inputs without changing what they cost."""
    sigma = list(range(degree))
    rng.shuffle(sigma)
    images = []
    for cycle in pair:
        p = list(range(degree))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            p[sigma[a - 1]] = sigma[b - 1]
        images.append(tuple(p))
    return images


# ---------------------------------------------------------------- shifts

def word_perm(word, images):
    """Permutation of a word given as a letter list (+k / -k, 1-based)."""
    acc = tuple(range(len(images[0])))
    for l in word:
        acc = compose(acc, images[l - 1] if l > 0 else inverse(images[-l - 1]))
    return acc


def _word_text(word):
    return " ".join(f"x{l}" if l > 0 else f"x{-l}^-1" for l in word)


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _mobius(n):
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def path_traces(states, edges, max_len):
    """traces[n] = closed paths of length n (trace of the n-th adjacency
    power), for n = 0..max_len; ``edges`` is a list of (src, dst)."""
    a = [[0] * states for _ in range(states)]
    for s, d in edges:
        a[s][d] += 1
    traces = [states]
    power = [row[:] for row in a]
    for _ in range(max_len):
        traces.append(sum(power[i][i] for i in range(states)))
        power = _mat_mul(power, a)
    return traces


def primitive_orbit_counts(states, edges, max_len):
    """Primitive periodic orbits per length 0..max_len (index 0 unused), by
    Moebius inversion of the path traces."""
    traces = path_traces(states, edges, max_len)
    return [0] + [sum(_mobius(n // d) * traces[d] for d in range(1, n + 1) if n % d == 0) // n
                  for n in range(1, max_len + 1)]


def strongly_connected_aperiodic(states, edges):
    out = [[] for _ in range(states)]
    back = [[] for _ in range(states)]
    for s, d in edges:
        out[s].append(d)
        back[d].append(s)
    for adj in (out, back):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) < states:
            return False
    level = [-1] * states
    level[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            for v in out[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
        queue = nxt
    period = 0
    for s, d in edges:
        period = gcd(period, level[s] + 1 - level[d])
    return abs(period) == 1


def _odd(p):
    seen = [False] * len(p)
    swaps = 0
    for start in range(len(p)):
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            swaps += x != start
    return swaps % 2 == 1


def sign_cover_mixes(states, edges, labels, images):
    """When some label is an odd permutation, the cover that tracks the sign
    of the holonomy must itself be strongly connected and aperiodic, or paths
    of each length reach only half of the group and the DP does half the
    work.  Always true for labels in an alternating group."""
    odd = [_odd(word_perm(w, images)) for w in labels]
    if not any(odd):
        return True
    lifted = [(2 * s + p, 2 * d + (p ^ o)) for (s, d), o in zip(edges, odd) for p in (0, 1)]
    return strongly_connected_aperiodic(2 * states, lifted)


def holonomy_order(states, edges, labels, images):
    """Order of the group generated by the loop holonomies (spanning tree)."""
    degree = len(images[0])
    perms = [word_perm(w, images) for w in labels]
    elt = [None] * states
    elt[0] = tuple(range(degree))
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            for (s, d), p in zip(edges, perms):
                if s == u and elt[d] is None:
                    elt[d] = compose(elt[u], p)
                    nxt.append(d)
                elif d == u and elt[s] is None:
                    elt[s] = compose(elt[u], inverse(p))
                    nxt.append(s)
        queue = nxt
    gens = [compose(compose(elt[s], p), inverse(elt[d])) for (s, d), p in zip(edges, perms)]
    return closure_order(gens, degree)


def _random_labels(rng, count, images, max_letters):
    """``count`` random reduced words of 1..max_letters letters over x1, x2
    whose images are distinct and not the identity, so every edge moves the
    holonomy somewhere new and the DP's state count grows like the paths."""
    ident = tuple(range(len(images[0])))
    words, seen = [], {ident}
    while len(words) < count:
        word = []
        while len(word) < rng.randint(1, max_letters):
            letter = rng.choice((1, -1, 2, -2))
            if not word or word[-1] != -letter:
                word.append(letter)
        perm = word_perm(word, images)
        if perm not in seen:
            seen.add(perm)
            words.append(word)
    return words


def random_labeled_shift(rng, states, out_degree, images, order, alphabet=None):
    """Random strongly connected, aperiodic shift in which every state has
    ``out_degree`` outgoing edges, so the number of paths of length n is
    exactly states * out_degree**n whatever the wiring, and whose loop
    holonomies generate the whole target.  Edge labels are fresh random
    words, or the words of ``alphabet`` in random order.  Returns (edges, labels)."""
    while True:
        edges = sorted((s, rng.randrange(states)) for s in range(states) for _ in range(out_degree))
        if not strongly_connected_aperiodic(states, edges):
            continue
        labels = (rng.sample(alphabet, len(edges)) if alphabet
                  else _random_labels(rng, len(edges), images, LABEL_LETTERS))
        if (holonomy_order(states, edges, labels, images) == order
                and sign_cover_mixes(states, edges, labels, images)):
            return edges, labels


def transfer_muls(states, edges, labels, images, max_n):
    """Group multiplications ``exact_counts(s, n)`` makes for n = 1..max_n:
    one per (state, holonomy) pair reached after k < n steps, per outgoing
    edge of that state, from each start state."""
    elements = [tuple(range(len(images[0])))]
    index = {elements[0]: 0}
    for p in elements:
        for q in images:
            r = compose(p, q)
            if r not in index:
                index[r] = len(elements)
                elements.append(r)
    order = len(elements)
    out = [[] for _ in range(states)]
    for (s, d), w in zip(edges, labels):
        label = word_perm(w, images)
        out[s].append((d, [index[compose(el, label)] for el in elements]))
    total = 0
    for s0 in range(states):
        keys = {s0 * order}
        for k in range(max_n):
            total += (max_n - k) * sum(len(out[key // order]) for key in keys)
            keys = {d * order + right[key % order]
                    for key in keys for d, right in out[key // order]}
    return total


def shift_data(states, edges, labels):
    return {"states": states,
            "edges": [{"from": s, "to": d, "label": _word_text(w)}
                      for (s, d), w in zip(edges, labels)]}


def hom_data(images):
    return {"degree": len(images[0]), "images": [cycle_string(p) for p in images]}


def group_data(generators):
    return {"degree": len(generators[0]), "generators": [cycle_string(p) for p in generators]}


# ---------------------------------------------------------------- workloads

def a5_density_inputs(seed):
    """A hom onto A5 and out-regular shifts of degree 3 with 3 or 4 states.

    Their growth rate is 3, like the flagship's full 3-shift, so at the same
    cutoff they hold about as many orbits; shifts whose count strays more
    than A5_DENSITY_SPREAD from the flagship's are redrawn, which keeps the
    cost of a job nearly independent of the seed.
    """
    rng = random.Random(f"a5-density:{seed}")
    images = conjugated_pair(rng, 5, A5_PAIR)
    shifts = []
    while len(shifts) < A5_DENSITY_POOL:
        states = rng.choice((3, 4))
        edges, labels = random_labeled_shift(rng, states, 3, images, 60)
        orbits = sum(primitive_orbit_counts(states, edges, A5_DENSITY_MAX_LEN))
        if abs(orbits - FLAGSHIP_ORBITS) <= A5_DENSITY_SPREAD * FLAGSHIP_ORBITS:
            shifts.append({"sft": shift_data(states, edges, labels),
                           "max_len": A5_DENSITY_MAX_LEN, "orbits": orbits})
    return {"hom": hom_data(images), "shifts": shifts}


def transfer_long_inputs(seed):
    """A hom onto S6 and out-regular shifts of fixed size for the transfer DP.

    Every shift labels its edges with the same words in random order, so the
    group's product cache holds as many pairs, and takes as much memory,
    whatever the seed.  How many (state, holonomy) pairs the DP reaches
    depends on the wiring and the labels, and with them its cost, by up to a
    factor of 2.5; shifts whose multiplication count falls outside
    TRANSFER_MULS are redrawn, so every job costs about the same.
    """
    rng = random.Random(f"transfer-long:{seed}")
    images = conjugated_pair(rng, 6, S6_PAIR)
    lo, hi = TRANSFER_MULS
    edge_count = TRANSFER_STATES * TRANSFER_OUT_DEGREE
    alphabet = _random_labels(rng, edge_count, images, LABEL_LETTERS)
    shifts = []
    while len(shifts) < TRANSFER_POOL:
        edges, labels = random_labeled_shift(rng, TRANSFER_STATES, TRANSFER_OUT_DEGREE,
                                             images, 720, alphabet)
        muls = transfer_muls(TRANSFER_STATES, edges, labels, images, TRANSFER_MAX_N)
        if lo <= muls <= hi:
            shifts.append({"sft": shift_data(TRANSFER_STATES, edges, labels),
                           "max_n": TRANSFER_MAX_N, "muls": muls})
    return {"hom": hom_data(images), "shifts": shifts}


def subgroup_lattice_inputs(seed):
    """Random generating sets of A5 and S4."""
    rng = random.Random(f"subgroup-lattice:{seed}")
    return {"groups": [
        {"name": "A5", "subgroups": 59, "group": group_data(conjugated_pair(rng, 5, A5_PAIR))},
        {"name": "S4", "subgroups": 30, "group": group_data(conjugated_pair(rng, 4, S4_PAIR))},
    ]}


def braid_relators(letters):
    """Relators of the closure of a 3-strand braid given as a letter list,
    built the way the package documents it (x_j^-1 times the image of x_j
    under the braid, letters acting left to right), on plain lists."""
    def substitute(word, images):
        out = []
        for l in word:
            piece = images[l - 1] if l > 0 else [-x for x in reversed(images[-l - 1])]
            for x in piece:
                if out and out[-1] == -x:
                    out.pop()
                else:
                    out.append(x)
        return out

    cur = [[1], [2], [3]]
    for letter in letters:
        i = abs(letter)
        base = [[1], [2], [3]]
        if letter > 0:
            base[i - 1], base[i] = [i, i + 1, -i], [i]
        else:
            base[i - 1], base[i] = [i + 1], [-(i + 1), i, i + 1]
        cur = [substitute(w, base) for w in cur]
    return [substitute([-(j + 1)] + cur[j], [[1], [2], [3]]) for j in range(3)]


def _even_cost(letters):
    """Keep words whose quotient search costs the same for a given knot:
    every relator mentions x3, so the search walks the whole tuple space,
    and the first relator, which every tuple is checked against and which
    rejects most of them, has 8 letters (6 would make it a sixth cheaper)."""
    if any(letters[i] == -letters[(i + 1) % len(letters)] for i in range(len(letters))):
        return False
    relators = braid_relators(letters)
    return (all(r and max(abs(x) for x in r) == 3 for r in relators)
            and len(relators[0]) == 8)


def _rewrite(rng, letters):
    """One random move that keeps the closure's complement, hence its group:
    rotation (conjugation), swapping s1 and s2 (conjugation by the half
    twist), mirroring, reversal, or a braid relation s_a s_b s_a = s_b s_a s_b."""
    move = rng.randrange(5)
    if move == 0:
        r = rng.randrange(len(letters))
        return letters[r:] + letters[:r]
    if move == 1:
        return [(3 - abs(x)) * (1 if x > 0 else -1) for x in letters]
    if move == 2:
        return [-x for x in letters]
    if move == 3:
        return letters[::-1]
    spots = [i for i in range(len(letters) - 2)
             if letters[i] == letters[i + 2] and abs(letters[i]) != abs(letters[i + 1])
             and (letters[i] > 0) == (letters[i + 1] > 0)]
    if not spots:
        return letters
    i = rng.choice(spots)
    a, b = letters[i], letters[i + 1]
    return letters[:i] + [b, a, b] + letters[i + 3:]


def braid_text(letters):
    return "3:" + " ".join(f"s{l}" if l > 0 else f"s{-l}^-1" for l in letters)


def braid_quotients_inputs(seed):
    """Random generating sets for S4 and A5, and braid words drawn by
    random knot-preserving rewrites of the knots in BRAID_KNOTS, taken in
    turn, so each run sees the same mix of knots (and of quotient counts)."""
    rng = random.Random(f"braid-quotients:{seed}")
    targets = [{"name": "S4", "group": group_data(conjugated_pair(rng, 4, S4_PAIR))},
               {"name": "A5", "group": group_data(conjugated_pair(rng, 5, A5_PAIR))}]
    braids = []
    while len(braids) < BRAID_POOL:
        knot = len(braids) % len(BRAID_KNOTS)
        letters = list(BRAID_KNOTS[knot])
        while True:
            for _ in range(8):
                letters = _rewrite(rng, letters)
            if _even_cost(letters):
                break
        braids.append({"knot": knot, "braid": braid_text(letters)})
    return {"targets": targets, "braids": braids}


GENERATORS = {
    "a5-density": a5_density_inputs,
    "transfer-long": transfer_long_inputs,
    "subgroup-lattice": subgroup_lattice_inputs,
    "braid-quotients": braid_quotients_inputs,
}
