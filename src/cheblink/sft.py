"""Labeled shifts of finite type and density statistics of their orbits.

States are 0..state_count-1; each directed edge carries a label word that a
homomorphism sends into a finite permutation group.  A periodic orbit is a
cyclic edge path up to rotation; its holonomy is the product of edge labels
once around, well defined up to conjugacy, so each orbit has a Frobenius
conjugacy class.  The point of the module is to compare, at a finite length
cutoff, the empirical distribution of Frobenius classes over all primitive
orbits against the class sizes |C|/|G|.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib.resources import files
from itertools import accumulate, islice
from math import gcd
from operator import add, or_
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .freewords import GroupHom, Word, evaluate, parse_hom_data, parse_word
from .permgroup import (FiniteGroup, Subgroup, class_types, conjugacy_classes,
                        cycle_type, load_json, picker, power_classes, shorten)

DP_STATE_CAP = 65536  # the transfer DP and realization_check refuse above state_count * |G|
SKIP_CAP = 10 ** 6    # chebotarev_report refuses to enumerate more skipped orbits
LENGTH_CAP = 4096     # every count and orbit search refuses longer paths: a count's
                      # bits grow with the length, so the DP's memory grows as length^2


class SftEdge(NamedTuple):
    src: int
    dst: int
    label: Word


class Orbit(NamedTuple):
    """A primitive periodic orbit in canonical rotation.

    ``edges`` starts with the orbit's least edge index, at the rotation that
    is lexicographically least; ``holonomy`` is the element index of the
    label product along that rotation and ``frobenius_class`` its class
    position — rotation changes the holonomy only within its class.
    """

    length: int
    edges: tuple[int, ...]
    holonomy: int
    frobenius_class: int


class LabeledSFT:
    """An edge shift with group-labeled edges."""

    def __init__(self, state_count: int, edges: Sequence[SftEdge], hom: GroupHom):
        if state_count < 1:
            raise ValueError("need at least one state")
        if state_count > DP_STATE_CAP:
            # every count and check works on states x G, so nothing could run
            raise ValueError(f"{shorten(str(state_count))} states exceed the cap of {DP_STATE_CAP}")
        if not edges:
            raise ValueError("need at least one edge")
        for i, e in enumerate(edges):
            if not (0 <= e.src < state_count and 0 <= e.dst < state_count):
                raise ValueError(f"edge {i} ({shorten(str(e.src))} -> {shorten(str(e.dst))}) "
                                 f"leaves states 0..{state_count - 1}")
        self.state_count = state_count
        self.edges = tuple(edges)
        self.hom = hom
        self.edge_src = tuple(e.src for e in self.edges)
        self.edge_dst = tuple(e.dst for e in self.edges)
        self.edge_elem = tuple(evaluate(hom, e.label) for e in self.edges)
        out: list[list[int]] = [[] for _ in range(state_count)]
        into: list[list[int]] = [[] for _ in range(state_count)]
        for i, e in enumerate(self.edges):
            out[e.src].append(i)
            into[e.dst].append(e.src)
        self.out_edges = tuple(tuple(o) for o in out)
        self.predecessors = tuple(tuple(p) for p in into)  # sources of the edges into each state

    def __repr__(self) -> str:
        return (f"<LabeledSFT: {self.state_count} states, {len(self.edges)} edges, "
                f"group of order {self.hom.target.order}>")


def _cycles(s: LabeledSFT, length: int, e0: int,
            allowed: Sequence[Sequence[Optional[Sequence[int]]]],
            want: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (edges, holonomy) for each canonical primitive cycle of this
    length that starts with edge e0 and closes into a class of the bitmask
    ``want``, in lexicographic order of the edges.

    Such a cycle's canonical rotation is a Lyndon word over the edge
    indices, so the depth-first search keeps only prenecklaces
    (Fredricksen–Kessler–Maiorana): a prefix of period p passes over an
    edge below the one p steps back, keeps p on an equal edge and takes the
    new length as p on a larger one, and a closed path is kept exactly when
    p equals its length.  It passes over a state u with r steps left whose
    ``allowed[r][u]`` is None before forming any product, and keeps a prefix
    ending there with holonomy y only when ``allowed[r][u][y] & want``, on
    a ``_BackTable``'s levels: the stream's want every class, the witness
    search's the classes still missing.  Its explicit stack carries each
    prefix's label product and period, so no length is too deep for it,
    memory stays at O(length), and a closed path's product is formed only
    once it is kept.
    """
    elem, dst = s.edge_elem, s.edge_dst
    first = allowed[length - 1][dst[e0]]
    if first is None or not first[elem[e0]] & want:
        return
    if length == 1:
        yield (e0,), elem[e0]
        return
    mul, out_edges = s.hom.target.mul, s.out_edges
    # frame i tries the out-edges after the path seq[:i + 1], whose label
    # product is prefix[i]; p is seq's period, and each push saves the old p
    seq, prefix, period, p = [e0], [elem[e0]], [1], 1
    frames = [iter(out_edges[dst[e0]])]
    while frames:
        left = length - len(seq) - 1
        level = allowed[left]
        low = seq[-p]
        for ei in frames[-1]:
            if ei < low:
                continue
            here = level[dst[ei]]
            if here is None:
                continue
            if left:
                y = mul(prefix[-1], elem[ei])
                if here[y] & want:
                    seq.append(ei)
                    prefix.append(y)
                    period.append(p)
                    if ei > low:
                        p = len(seq)
                    frames.append(iter(out_edges[dst[ei]]))
                    break
                continue
            if ei > low:  # the period becomes the length
                y = mul(prefix[-1], elem[ei])
                if here[y] & want:
                    yield (*seq, ei), y
        else:
            frames.pop()
            seq.pop()
            prefix.pop()
            p = period.pop()


def enumerate_orbits(s: LabeledSFT, max_len: int) -> Iterator[Orbit]:
    """Stream primitive orbits of length <= max_len, shortest first, within
    a length in lexicographic order of the canonical edge sequence: the
    orbits are the Lyndon words over the edge indices that close a path.

    One ``_cycles`` search per (length, start edge), wanting every class, on
    the start state's exact-step reach levels, kept only while the stream
    runs: a ``_BackTable`` whose moves carry no row, holding the one row
    ``every`` at a state with a path of exactly k steps to the start, else
    None, and grown no further once a level repeats.  Raises ValueError at
    the first ``next()`` for max_len below 1 or above LENGTH_CAP.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if max_len > LENGTH_CAP:
        raise ValueError(f"max_len {shorten(str(max_len))} exceeds the length cap {LENGTH_CAP}")
    class_of = s.hom.target.class_of
    every = b"\xff" * s.hom.target.order  # nonzero at every holonomy; bytes cache their hash
    moves = [[(s.edge_dst[ei], None) for ei in out] for out in s.out_edges]
    reach = {st: _BackTable(moves, st, every) for st in set(s.edge_src)}  # start state's levels
    for length in range(1, max_len + 1):
        for e0, src0 in enumerate(s.edge_src):
            reach[src0].extend(length - 1)
            for edges, h in _cycles(s, length, e0, reach[src0].levels, -1):
                yield Orbit(length, edges, h, class_of[h])


def orbit_list(s: LabeledSFT, max_len: int) -> list[Orbit]:
    """All orbits of length <= max_len as a list, in stream order."""
    return list(enumerate_orbits(s, max_len))


def _lift_moves(s: LabeledSFT) -> list[list[tuple[int, tuple[int, ...]]]]:
    """moves[state]: (destination, label's right-multiplication row) per out-edge.

    These are the edges of the lift on states x G: an edge steps (state, x)
    to (destination, row[x]), by tuple lookup and no group multiplication.
    Raises ValueError when the lift has more than ``DP_STATE_CAP`` vertices.
    """
    g = s.hom.target
    if s.state_count * g.order > DP_STATE_CAP:
        raise ValueError(f"{s.state_count} states x group order {g.order} exceeds the "
                         f"DP cap {DP_STATE_CAP}")
    rows = {lab: g.right_row(lab) for lab in set(s.edge_elem)}
    return [[(s.edge_dst[ei], rows[s.edge_elem[ei]]) for ei in s.out_edges[st]]
            for st in range(s.state_count)]


def _dense_moves(s: LabeledSFT) -> list[list[tuple[int, Callable[[list], Sequence[int]]]]]:
    """moves[state]: (destination, translation) per out-edge, for dense counts.

    A translation takes a state's counts as one vector indexed by element and
    returns the vector the edge's label moves them to, moved[y] =
    vec[y·label⁻¹], by a ``picker`` over the label inverse's row.
    """
    g = s.hom.target
    picks = {lab: picker(g.right_row(g.inv(lab))) for lab in set(s.edge_elem)}
    return [[(s.edge_dst[ei], picks[s.edge_elem[ei]]) for ei in s.out_edges[st]]
            for st in range(s.state_count)]


def _back_distances(s: LabeledSFT, s0: int, max_n: int) -> list[int]:
    """back[state]: fewest steps from the state to s0, above max_n when
    there is no path of at most max_n steps; one breadth-first search over
    reversed edges."""
    back = [max_n + 1] * s.state_count
    back[s0] = 0
    queue = [s0]
    for v in queue:  # the loop visits what it appends: breadth first
        d = back[v] + 1
        if d > max_n:
            break
        for u in s.predecessors[v]:
            if back[u] > max_n:
                back[u] = d
                queue.append(u)
    return back


class _Transfer:
    """The transfer DP on one shift: the forward walk both counting routes
    share, with the lift's moves and the class readout built once."""

    def __init__(self, s: LabeledSFT):
        self.s = s
        self.g = g = s.hom.target
        self.moves = _lift_moves(s)
        self.classes = conjugacy_classes(g)
        self.class_of = g.class_of
        self.dense_moves = self.class_picks = None  # built at the first switch to dense counts

    def walk(self, s0: int, max_n: int) -> Iterator[tuple[int, list, bool]]:
        """Yield (n, counts, dense) after each step n = 0..max_n of the walk
        from (s0, identity).

        counts[state] is a dict from holonomy to path count, or, once
        ``dense``, a list of |G| counts, None where the state holds none.
        Once the dicts fill a quarter of states x G they turn into lists at
        the start of the next step, and each edge then moves a whole list
        with one translation (``_dense_moves``).  Step n skips every edge
        into a state whose ``_back_distances`` to s0 exceeds the max_n - n
        steps left: a count there reaches s0 only along a longer path.
        """
        s, g, moves = self.s, self.g, self.moves
        back = _back_distances(s, s0, max_n)
        cells = s.state_count * g.order
        cur: list = [{} for _ in range(s.state_count)]
        cur[s0][g.identity] = 1
        dense = turn = False
        yield 0, cur, dense
        for n in range(1, max_n + 1):
            if turn:
                dense, turn = True, False
                if self.dense_moves is None:
                    self.dense_moves = _dense_moves(s)
                    self.class_picks = [picker(sorted(c.members)) for c in self.classes]
                dense_moves = self.dense_moves
                vecs = [None] * s.state_count
                for st, dist in enumerate(cur):
                    if dist:
                        vec = vecs[st] = [0] * g.order
                        for el, c in dist.items():
                            vec[el] = c
                cur = vecs
            left = max_n - n
            if dense:
                nxt = [None] * s.state_count
                for st, vec in enumerate(cur):
                    if vec is None:
                        continue
                    for dst, pick in dense_moves[st]:
                        if back[dst] > left:
                            continue
                        acc, moved = nxt[dst], pick(vec)
                        nxt[dst] = moved if acc is None else list(map(add, acc, moved))
            else:
                nxt = [{} for _ in range(s.state_count)]
                for st, dist in enumerate(cur):
                    if not dist:
                        continue
                    for dst, row in moves[st]:
                        if back[dst] > left:
                            continue
                        out = nxt[dst]
                        get = out.get
                        for el, c in dist.items():
                            y = row[el]
                            out[y] = get(y, 0) + c
                turn = 4 * sum(map(len, nxt)) >= cells
            cur = nxt
            yield n, cur, dense

    def read(self, here, dense: bool, tot: list[int]) -> None:
        """Add the classes of one state's counts into tot."""
        if not here:
            return
        if dense:
            for ci, pick in enumerate(self.class_picks):
                tot[ci] += sum(pick(here))
        else:
            class_of = self.class_of
            for el, c in here.items():
                tot[class_of[el]] += c

    def meet(self, cur, table: Sequence[list], s0: int, tot: list[int]) -> None:
        """Add into tot the classes of the closed paths that pair a sparse
        forward count at (v, y) with the paths v -> s0 of label product x,
        which the walk from v holds at table[v][s0]: y·x, read pair by pair
        from the group's ``class_row(x)``."""
        class_row = self.g.class_row
        for here, counts in zip(cur, table):
            paths = counts[s0]
            if not (here and paths):
                continue
            for x, cb in paths.items():
                classes = class_row(x)
                for y, c in here.items():
                    tot[classes[y]] += c * cb


def _closed_path_totals(s: LabeledSFT, max_n: int) -> list[list[int]]:
    """totals[n][class]: closed paths of length n, for every n <= max_n.

    One forward walk of max_n steps per start state s0 (``_Transfer.walk``),
    its counts at s0 read out after every step.  Every length needs every
    step here, so this route never meets a table: ``exact_counts``, which
    wants one length, does.
    """
    tr = _Transfer(s)
    totals = [[0] * len(tr.classes) for _ in range(max_n + 1)]
    for s0 in range(s.state_count):
        for n, cur, dense in tr.walk(s0, max_n):
            tr.read(cur[s0], dense, totals[n])
    return totals


def exact_counts(s: LabeledSFT, n: int) -> tuple[int, ...]:
    """Count closed paths of length n per holonomy conjugacy class.

    Based paths: every start state counts, and rotations of a cycle are
    distinct paths.  Dynamic programming over (state, group element), so the
    cost is linear in n and no orbit is enumerated.  Raises ValueError for n
    below 0 or above LENGTH_CAP.

    The count meets in the middle, at b = n // 2.  Every start's walk (as in
    ``_closed_path_totals``) steps to b, and the walk from v then holds at
    s0 the b-step paths v -> s0: a closed path is a forward count at (v, y)
    of the walk from s0 after n - b steps times a count of paths v -> s0
    with label product x, in the class of y·x.  If any walk is dense at b,
    every start walks to the end.  Otherwise each start steps on to n - b
    and meets the paths into it, read where the walks hold them, while its
    counts are still sparse and the pairs to read number at most
    b·|E|·|G|/4, the lookups of b dense steps by the walk's quarter rule;
    else it too walks to the end.  When the largest out-degree to the power
    b is at most |E|, every start walks to the end and no table is made.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > LENGTH_CAP:
        raise ValueError(f"length {n} exceeds the length cap {LENGTH_CAP}")
    tr = _Transfer(s)
    tot = [0] * len(tr.classes)
    b = n // 2
    walks = [tr.walk(s0, n) for s0 in range(s.state_count)]
    at_b = [next(islice(walk, b, None)) for walk in walks]
    # no table when a walk is dense at b, or when d^b <= |E|, d the largest
    # out-degree: a walk holds at most d^b counts after b steps, and with no
    # more counts than edges a step costs about its pass over the edges,
    # which a meet does not spare
    plain = (max(map(len, s.out_edges)) ** b <= len(s.edges)
             or any(dense for _, _, dense in at_b))
    table = None if plain else [cur for _, cur, _ in at_b]
    budget = b * len(s.edges) * tr.g.order
    for s0, (walk, step) in enumerate(zip(walks, at_b)):
        if table is not None:
            for step in islice(walk, n - 2 * b):  # on to step n - b
                pass
            _, cur, dense = step
            if not dense and 4 * sum(len(here) * len(paths[s0])
                                     for here, paths in zip(cur, table)) <= budget:
                tr.meet(cur, table, s0, tot)
                continue
        for step in walk:
            pass
        _, cur, dense = step
        tr.read(cur[s0], dense, tot)
    return tuple(tot)


def primitive_counts(g: FiniteGroup,
                     totals: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Primitive orbits per (length, class) from closed-path totals.

    ``totals[n - 1]`` is exact_counts(s, n) for n = 1..len(totals).  An
    orbit of length d dividing n contributes d based closed paths of length
    n, labelled by its holonomy to the power n/d; peeling the proper
    divisors off and dividing by n leaves the primitive counts.  Raises
    ValueError when a count comes out fractional or negative, which no
    shift's totals do.
    """
    max_n = len(totals)
    power_class = power_classes(g)  # power_class[ci][m % ord]: class of ci's m-th power
    rest = [list(t) for t in totals]
    out = []
    for n in range(1, max_n + 1):
        row = []
        for ci, t in enumerate(rest[n - 1]):
            q, r = divmod(t, n)
            if r or q < 0:
                raise ValueError(f"totals do not invert at length {n}, class {ci}")
            row.append(q)
        out.append(tuple(row))
        for m in range(2, max_n // n + 1):
            multiple = rest[m * n - 1]
            for ci, c in enumerate(row):
                if c:
                    multiple[power_class[ci][m % len(power_class[ci])]] -= n * c
    return tuple(out)


class DensityRow(NamedTuple):
    cutoff: int
    key: str            # "class:<representative cycles>" or "type:(a,b,...)"
    count: int
    density: Fraction
    target: Fraction
    deviation: Fraction


@dataclass(frozen=True, eq=False)
class DensityReport:
    """Cumulative Frobenius-class counts per length cutoff.

    ``counts[cutoff - 1][class]`` counts the primitive orbits of length <=
    cutoff in each class, after the leading ``skip`` orbits are dropped.
    ``class_keys`` and ``class_sizes`` follow the class order; ``types``
    lists the cycle types of the classes on the cosets of the report's
    subgroup, or on the target's points, and ``type_of_class`` gives each
    class's position in it.  Rows, with their exact densities, are built
    only when ``rows_at`` asks for them.
    """

    group_order: int
    max_len: int
    skip: int
    counts: tuple[tuple[int, ...], ...]
    class_keys: tuple[str, ...]
    class_sizes: tuple[int, ...]
    types: tuple[tuple[int, ...], ...]
    type_of_class: tuple[int, ...]

    @property
    def total_counted(self) -> int:
        return sum(self.counts[-1])

    def tally(self, cutoff: int, *, types: bool = False) -> tuple[
            Sequence[str], Sequence[int], Sequence[int], int]:
        """The rows' keys, counts and class sizes at this cutoff, one per
        class or per type with ``types``, and the cutoff's total count: the
        integers every row is read from.  A type's count and size sum its
        classes'.  No rows outside 1..max_len."""
        if not 1 <= cutoff <= self.max_len:
            return (), (), (), 0
        per_class = self.counts[cutoff - 1]
        if not types:
            return self.class_keys, per_class, self.class_sizes, sum(per_class)
        keys = ["type:(" + ",".join(map(str, t)) + ")" for t in self.types]
        counts, sizes = [0] * len(self.types), [0] * len(self.types)
        for t, c, size in zip(self.type_of_class, per_class, self.class_sizes):
            counts[t] += c
            sizes[t] += size
        return keys, counts, sizes, sum(per_class)

    def rows_at(self, cutoff: int, *, types: bool = False) -> list[DensityRow]:
        """One row per class, or per type with ``types``, at this cutoff, with
        exact densities; none outside 1..max_len."""
        keys, counts, sizes, total = self.tally(cutoff, types=types)
        rows = []
        for key, c, size in zip(keys, counts, sizes):
            dens = Fraction(c, total) if total else Fraction(0)
            target = Fraction(size, self.group_order)
            rows.append(DensityRow(cutoff, key, c, dens, target, abs(dens - target)))
        return rows


def chebotarev_report(s: LabeledSFT, max_len: int, *, skip: int = 0,
                      subgroup: Optional[Subgroup] = None) -> DensityReport:
    """Cumulative class counts over orbits of length <= max_len.

    The hom must be surjective so the class-size targets |C|/|G| mean what
    they should.  ``max_len`` is at most LENGTH_CAP.  ``skip`` (at most
    SKIP_CAP) drops that many of the shortest orbits before anything is
    counted, at every cutoff; it must leave at least one orbit.  Counts come
    from the transfer DP and divisor peeling, so the cost is linear in
    max_len; only the skipped orbits are enumerated, to learn their classes.
    Types are the cycle types of the classes on the cosets of ``subgroup``
    (decomposition types in that cover), read off its permutation character
    by ``class_types``, or on the target's own points when it is None.  No
    row or density is built here: ``DensityReport.rows_at`` builds them.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if skip < 0:
        raise ValueError("skip must be nonnegative")
    if skip > SKIP_CAP:
        raise ValueError(f"skip {shorten(str(skip))} exceeds the skip cap {SKIP_CAP}: "
                         "skipped orbits are enumerated one by one")
    if max_len > LENGTH_CAP:
        raise ValueError(f"max_len {shorten(str(max_len))} exceeds the length cap {LENGTH_CAP}")
    g = s.hom.target
    classes = conjugacy_classes(g)
    # class_types refuses a subgroup of another group before anything is counted
    type_of_class = (class_types(g, subgroup) if subgroup is not None else
                     [cycle_type(g.elements[c.representative]) for c in classes])
    # the DP cap is checked first, so oversized inputs are refused before
    # the hom's image is closed in its target
    totals = _closed_path_totals(s, max_len)
    if not s.hom.is_surjective():
        raise ValueError("hom does not map onto its target group")
    types = sorted(set(type_of_class))

    counts = [list(row) for row in primitive_counts(g, totals[1:])]
    if skip:
        available = sum(map(sum, counts))
        if skip >= available:
            raise ValueError(f"skip {skip} leaves no orbit: there are {available} "
                             f"of length <= {max_len}")
        # the stream is shortest first, so it ends inside the length that
        # holds the skip-th orbit
        for o in islice(enumerate_orbits(s, max_len), skip):
            counts[o.length - 1][o.frobenius_class] -= 1
    return DensityReport(
        group_order=g.order,
        max_len=max_len,
        skip=skip,
        counts=tuple(accumulate(map(tuple, counts), lambda a, b: tuple(map(add, a, b)))),
        class_keys=tuple(f"class:{g.elements[c.representative].cycle_string()}"
                         for c in classes),
        class_sizes=tuple(len(c.members) for c in classes),
        types=tuple(types),
        type_of_class=tuple(map(types.index, type_of_class)),
    )


@dataclass(frozen=True, eq=False)
class RealizationReport:
    """Can this shift possibly equidistribute?  Whether the lift on
    states x G mixes, plus a search for an orbit in every conjugacy class,
    up to a length bound."""

    strongly_connected: bool        # the base shift
    period: Optional[int]           # the lift's; None when the base is not strongly connected
    holonomy_generates: bool
    holonomy_order: int             # holonomies of closed paths at state 0
    class_witnesses: tuple[Optional[Orbit], ...]
    bound: int

    @property
    def aperiodic(self) -> bool:
        return self.period == 1

    @property
    def missing_classes(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.class_witnesses) if w is None)

    @property
    def passed(self) -> bool:
        return (self.strongly_connected and self.aperiodic
                and self.holonomy_generates and not self.missing_classes)


def realization_check(s: LabeledSFT, bound: int) -> RealizationReport:
    """Check that the skew product mixes, and that every class of the
    target is hit by some orbit of length <= bound.

    The skew product mixes when the lift on states x G is strongly
    connected with period 1.  One breadth-first search of the lift from
    (state 0, identity) reads off the forward reach, the holonomy group (the
    elements reached over state 0) and the period (the gcd of
    level[u] + 1 - level[v] over the edges it scans); a backward search of
    the base completes strong connectivity.  Over a strongly connected base
    every lift component is a left translate of the searched one, so the
    lift is strongly connected exactly when the holonomy generates.

    Each class's witness is the first orbit of that class in
    ``enumerate_orbits(s, bound)``, found by ``_class_witnesses`` in the
    lift, on the same moves, without listing the orbits before it.

    Raises ValueError for a bound below 1 or above LENGTH_CAP, or a lift
    over the DP cap."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if bound > LENGTH_CAP:
        raise ValueError(f"bound {shorten(str(bound))} exceeds the length cap {LENGTH_CAP}")
    g = s.hom.target
    n, order = s.state_count, g.order
    moves = _lift_moves(s)
    level = [-1] * (n * order)
    level[g.identity] = 0
    queue = [(0, g.identity)]
    period = 0
    for u, x in queue:  # the loop visits what it appends: breadth first
        step = level[u * order + x] + 1
        for v, row in moves[u]:
            y = row[x]
            w = v * order + y
            if level[w] < 0:
                level[w] = step
                queue.append((v, y))
            else:
                period = gcd(period, step - level[w])
    holonomy_order = order - level[:order].count(-1)

    connected = max(_back_distances(s, 0, n - 1)) < n and len({u for u, _ in queue}) == n

    return RealizationReport(
        strongly_connected=connected,
        period=period if connected else None,
        holonomy_generates=holonomy_order == order,
        holonomy_order=holonomy_order,
        class_witnesses=_class_witnesses(s, bound, moves),
        bound=bound,
    )


class _BackTable:
    """levels[r][u]: None when no r-step path leads from state u to s0, else
    per holonomy x the bitmask of the classes such a path closes x into, or
    for the stream one shared row with every bit set.

    Level 0 is ``first`` at s0.  Level r at u is the OR, over u's out-edges
    u -> v in ``moves``, of level r - 1 at v moved by the label's
    right-multiplication row, or kept where the row is None; a cell ORed
    with itself stays as it is.  Each level computed is one tuple, kept in
    ``levels`` and as its key in ``seen``.  Once a level repeats an earlier
    one the rest repeat with them, and are appended as references.
    """

    def __init__(self, moves, s0: int, first: Sequence[int]):
        level = [None] * len(moves)
        level[s0] = first
        level = tuple(level)
        self.moves = moves
        self.levels = [level]
        self.seen = {level: 0}  # each level computed -> its index
        self.period = 0  # of the levels' cycle, once a level repeats

    def extend(self, r: int) -> int:
        """Make levels[0..r]; return the entries of the levels computed."""
        levels, added = self.levels, 0
        while len(levels) <= r:
            if self.period:
                levels.append(levels[-self.period])
                continue
            prev = levels[-1]
            level = [None] * len(prev)
            for u, out in enumerate(self.moves):
                for v, row in out:
                    if prev[v] is not None:
                        moved = prev[v] if row is None else picker(row)(prev[v])
                        acc = level[u]
                        level[u] = (moved if acc is None or acc is moved
                                    else tuple(map(or_, acc, moved)))
            level = tuple(level)
            first = self.seen.setdefault(level, len(levels))
            if first < len(levels):
                self.period = len(levels) - first
                continue
            levels.append(level)
            added += sum(map(len, filter(None, level)))
        return added


def _class_witnesses(s: LabeledSFT, bound: int, moves) -> tuple[Optional[Orbit], ...]:
    """The first orbit of ``enumerate_orbits(s, bound)`` in each class, or
    None, found by a search in the lift on its ``moves``, not by the stream.

    For each length from 1 and each start edge the stream's own search,
    ``_cycles``, runs on the start state's ``_BackTable`` wanting the
    classes still missing.  The first cycle it yields is the stream's first
    orbit of its class, as no cycle of another missing class comes before
    it; that bit is cleared and the search starts again at the same edge.
    At length 1 it yields the loops, on the tables' level 0 alone.  A class
    no closed path reaches is pruned at every start edge, at the cost of the
    tables alone: O(bound·|E|·|G|) each.  Raises ValueError once the cells
    of the levels the tables compute would pass DP_STATE_CAP × bound.
    """
    witnesses: list[Optional[Orbit]] = [None] * len(conjugacy_classes(s.hom.target))
    class_of = s.hom.target.class_of
    want = (1 << len(witnesses)) - 1
    tables: dict[int, _BackTable] = {}
    cells, cap = 0, DP_STATE_CAP * bound
    for length in range(1, bound + 1):
        for e0, s0 in enumerate(s.edge_src):
            if not want:
                return tuple(witnesses)
            back = tables.get(s0)
            if back is None:
                back = tables[s0] = _BackTable(moves, s0, tuple(1 << c for c in class_of))
            if len(back.levels) < length:
                cells += back.extend(length - 1)
                if cells > cap:
                    raise ValueError(f"the witness search's tables pass {cap} cells "
                                     f"(DP cap {DP_STATE_CAP} x bound {bound})")
            while want and (found := next(_cycles(s, length, e0, back.levels, want), None)):
                edges, h = found
                witnesses[class_of[h]] = Orbit(length, edges, h, class_of[h])
                want &= ~(1 << class_of[h])
    return tuple(witnesses)


def parse_sft_data(data: dict, hom: GroupHom) -> LabeledSFT:
    """Build a shift from {"states": n, "edges": [{"from": 0, "to": 1, "label": "x1"}, ...]}.

    Any other shape, such as a top-level list or edges that are not objects
    with integer ends and a word label, raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a shift file holds a JSON object, not {type(data).__name__}")
    states = data.get("states")
    edges = data.get("edges")
    if type(states) is not int:
        raise ValueError('shift "states" must be an integer')
    if not isinstance(edges, list) or not all(
            isinstance(e, dict) and type(e.get("from")) is int and type(e.get("to")) is int
            and isinstance(e.get("label"), str) for e in edges):
        raise ValueError('shift "edges" must be a list of objects with integer "from" '
                         'and "to" and a word "label"')
    edges = [SftEdge(e["from"], e["to"], parse_word(e["label"])) for e in edges]
    return LabeledSFT(states, edges, hom)


def load_sft_file(path, hom: GroupHom) -> LabeledSFT:
    """Read {"states": n, "edges": [{"from": 0, "to": 1, "label": "x1"}, ...]}."""
    return parse_sft_data(load_json(path), hom)


def bundled_a5(hom: Optional[GroupHom] = None) -> tuple[LabeledSFT, GroupHom]:
    """The packaged 3-symbol full shift labeled into A5 (see data/), or
    relabeled through ``hom`` when one is given."""
    data_dir = files("cheblink") / "data"
    if hom is None:
        hom = parse_hom_data(json.loads((data_dir / "a5_hom.json").read_text(encoding="utf-8")))
    shift = json.loads((data_dir / "a5_full_shift.json").read_text(encoding="utf-8"))
    s = parse_sft_data(shift, hom)
    return s, hom
