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
from itertools import islice
from math import gcd
from operator import add, itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .freewords import GroupHom, Word, evaluate, parse_hom_data, parse_word
from .permgroup import (FiniteGroup, Subgroup, class_index, class_types, conjugacy_classes,
                        cycle_type, load_json, power_classes)

DP_STATE_CAP = 65536  # the transfer DP and realization_check refuse above state_count * |G|
SKIP_CAP = 10 ** 6    # chebotarev_report refuses to enumerate more skipped orbits
LENGTH_CAP = 4096     # exact_counts and chebotarev_report refuse longer paths: a count's
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
            raise ValueError(f"{state_count} states exceed the cap of {DP_STATE_CAP}")
        if not edges:
            raise ValueError("need at least one edge")
        for e in edges:
            if not (0 <= e.src < state_count and 0 <= e.dst < state_count):
                raise ValueError(f"edge {e} leaves 0..{state_count - 1}")
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
        self._reach_cache: dict[int, list[list[bool]]] = {}

    def _reach(self, target: int, upto: int) -> list[list[bool]]:
        """reach[k][state]: is there a path of exactly k steps state -> target?"""
        tbl = self._reach_cache.get(target)
        if tbl is None:
            tbl = self._reach_cache[target] = [[st == target for st in range(self.state_count)]]
        while len(tbl) <= upto:
            prev = tbl[-1]
            tbl.append([any(prev[self.edge_dst[ei]] for ei in self.out_edges[st])
                        for st in range(self.state_count)])
        return tbl

    def __repr__(self) -> str:
        return (f"<LabeledSFT: {self.state_count} states, {len(self.edges)} edges, "
                f"group of order {self.hom.target.order}>")


def _canonical_primitive(seq: list[int]) -> bool:
    """Is this the unique canonical rotation of a primitive cycle?

    Rejects any rotation that is lexicographically smaller (a different
    representative) or equal (a proper power).  Only rotations starting with
    the least edge need checking, and the DFS guarantees seq[0] is least.
    """
    e0 = seq[0]
    for i in range(1, len(seq)):
        if seq[i] == e0 and seq[i:] + seq[:i] <= seq:
            return False
    return True


def enumerate_orbits(s: LabeledSFT, max_len: int) -> Iterator[Orbit]:
    """Stream primitive orbits of length <= max_len, shortest first, within
    a length in lexicographic order of the canonical edge sequence.

    A depth-first search per (length, start edge) keeps memory at O(length);
    branches are pruned by exact remaining-step reachability, and only edge
    indices >= the start edge are allowed, since the canonical rotation
    begins with the least edge on the orbit.  The search runs on an explicit
    stack that carries the label product of each prefix, so no length is
    too deep for it and an orbit's holonomy costs one multiplication.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    g = s.hom.target
    for length in range(1, max_len + 1):
        for e0 in range(len(s.edges)):
            src0 = s.edge_src[e0]
            if length == 1:
                if s.edge_dst[e0] == src0:
                    h = s.edge_elem[e0]
                    yield Orbit(1, (e0,), h, class_index(g, h))
                continue
            reach = s._reach(src0, length - 1)
            if not reach[length - 1][s.edge_dst[e0]]:
                continue
            # frame i tries the out-edges after the path seq[:i + 1], whose
            # label product is prefix[i]
            seq, prefix = [e0], [s.edge_elem[e0]]
            frames = [iter(s.out_edges[s.edge_dst[e0]])]
            while frames:
                remaining = length - len(seq) - 1
                for ei in frames[-1]:
                    nst = s.edge_dst[ei]
                    if ei < e0 or not reach[remaining][nst]:
                        continue
                    seq.append(ei)
                    if remaining:
                        prefix.append(g.mul(prefix[-1], s.edge_elem[ei]))
                        frames.append(iter(s.out_edges[nst]))
                        break
                    if _canonical_primitive(seq):
                        h = g.mul(prefix[-1], s.edge_elem[ei])
                        yield Orbit(length, tuple(seq), h, class_index(g, h))
                    seq.pop()
                else:
                    frames.pop()
                    seq.pop()
                    prefix.pop()


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
    vec[y·label⁻¹], in one ``itemgetter`` call over the label inverse's row.
    """
    g = s.hom.target
    picks = {}
    for lab in set(s.edge_elem):
        row = g.right_row(g.inv(lab))
        # a one-index itemgetter returns a bare item; order 1 has only the
        # identity, which moves nothing
        picks[lab] = itemgetter(*row) if len(row) > 1 else tuple
    return [[(s.edge_dst[ei], picks[s.edge_elem[ei]]) for ei in s.out_edges[st]]
            for st in range(s.state_count)]


def _closed_path_totals(s: LabeledSFT, max_n: int, *,
                        every_length: bool = True) -> list[list[int]]:
    """totals[n][class]: closed paths of length n, for every n <= max_n.

    With ``every_length`` false only totals[max_n] is read out, and every
    other row stays zero.

    One pass of max_n steps per start state s0 over per-state counts keyed
    by the holonomy so far, stepping along the lift's edges.  The counts
    start sparse, one dict per state (``_lift_moves``).  Once they fill a
    quarter of states x G, they turn into one list of |G| counts per state,
    None where a state holds none, and each edge moves a whole list with one
    translation (``_dense_moves``) for the rest of that start's steps.

    A step n skips every edge into a state that cannot get back to s0 in
    the max_n - n steps left; ``back``, the fewest steps to s0, comes from
    one breadth-first search over reversed edges.  The skip is exact: a
    count at (state, n) only reaches totals[j] along a path of j - n steps
    from that state to s0, so a skipped count reaches none.
    """
    g = s.hom.target
    moves = _lift_moves(s)
    classes = conjugacy_classes(g)
    class_of = g._class_of  # filled by conjugacy_classes
    dense_moves = class_picks = None  # built at the first switch to dense counts
    cells = s.state_count * g.order
    totals = [[0] * len(classes) for _ in range(max_n + 1)]
    first_read = 0 if every_length else max_n
    for s0 in range(s.state_count):
        back = [max_n + 1] * s.state_count  # above max_n: not within max_n steps
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
        cur: list = [{} for _ in range(s.state_count)]
        cur[s0][g.identity] = 1
        dense = False
        for n in range(max_n + 1):
            if n:
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
                    if 4 * sum(map(len, nxt)) >= cells:
                        dense = True
                        if dense_moves is None:
                            dense_moves = _dense_moves(s)
                            # a one-index itemgetter returns a bare item, so a
                            # one-member class reads a one-item slice instead
                            class_picks = [itemgetter(*m) if len(m) > 1
                                           else itemgetter(slice(m[0], m[0] + 1))
                                           for m in (sorted(c.members) for c in classes)]
                        for st, dist in enumerate(nxt):
                            vec = None
                            if dist:
                                vec = [0] * g.order
                                for el, c in dist.items():
                                    vec[el] = c
                            nxt[st] = vec
                cur = nxt
            here = cur[s0]
            if n < first_read or not here:
                continue
            tot = totals[n]
            if dense:
                for ci, pick in enumerate(class_picks):
                    tot[ci] += sum(pick(here))
            else:
                for el, c in here.items():
                    tot[class_of[el]] += c
    return totals


def exact_counts(s: LabeledSFT, n: int) -> tuple[int, ...]:
    """Count closed paths of length n per holonomy conjugacy class.

    Based paths: every start state counts, and rotations of a cycle are
    distinct paths.  Dynamic programming over (state, group element), so the
    cost is linear in n and no orbit is enumerated; the classes are read out
    at length n only.  Raises ValueError for n below 0 or above LENGTH_CAP.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > LENGTH_CAP:
        raise ValueError(f"length {n} exceeds the length cap {LENGTH_CAP}")
    return tuple(_closed_path_totals(s, n, every_length=False)[n])


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
    """Cumulative Frobenius-class statistics per length cutoff.

    ``class_rows``/``type_rows`` hold one row per (cutoff, class) and
    (cutoff, cycle type); types, listed in row order in ``types``, aggregate
    the classes of one cycle type on the cosets of the report's subgroup or
    on the target's points.  Densities are exact fractions over the orbits
    counted at that cutoff (after the leading ``skip`` orbits are dropped).
    """

    group_order: int
    max_len: int
    skip: int
    total_counted: int
    class_rows: tuple[DensityRow, ...]
    type_rows: tuple[DensityRow, ...]
    types: tuple[tuple[int, ...], ...]

    def rows_at(self, cutoff: int, *, types: bool = False) -> list[DensityRow]:
        rows = self.type_rows if types else self.class_rows
        return [r for r in rows if r.cutoff == cutoff]

    @property
    def final_class_rows(self) -> list[DensityRow]:
        return self.rows_at(self.max_len)

    @property
    def final_type_rows(self) -> list[DensityRow]:
        return self.rows_at(self.max_len, types=True)

    @property
    def max_type_deviation(self) -> Fraction:
        return max((r.deviation for r in self.final_type_rows), default=Fraction(0))


def chebotarev_report(s: LabeledSFT, max_len: int, *, skip: int = 0,
                      subgroup: Optional[Subgroup] = None) -> DensityReport:
    """Empirical class/type densities over orbits of length <= max_len.

    The hom must be surjective so the class-size targets |C|/|G| mean what
    they should.  ``max_len`` is at most LENGTH_CAP.  ``skip`` (at most
    SKIP_CAP) drops that many of the shortest orbits before anything is
    counted, at every cutoff; it must leave at least one orbit.  Counts come
    from the transfer DP and divisor peeling, so the cost is linear in
    max_len; only the skipped orbits are enumerated, to learn their classes.
    Types are the cycle types of the classes on the cosets of ``subgroup``
    (decomposition types in that cover), read off its permutation character
    by ``class_types``, or on the target's own points when it is None.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if skip < 0:
        raise ValueError("skip must be nonnegative")
    if skip > SKIP_CAP:
        raise ValueError(f"skip {skip} exceeds the skip cap {SKIP_CAP}: "
                         "skipped orbits are enumerated one by one")
    if max_len > LENGTH_CAP:
        raise ValueError(f"max_len {max_len} exceeds the length cap {LENGTH_CAP}")
    g = s.hom.target
    classes = conjugacy_classes(g)
    # class_types refuses a subgroup of another group before anything is counted
    type_of_class = (class_types(g, subgroup) if subgroup is not None else
                     [cycle_type(g.elements[c.representative].images) for c in classes])
    # the DP cap is checked first, so oversized inputs are refused before
    # the hom's image is closed in its target
    totals = _closed_path_totals(s, max_len)
    if not s.hom.is_surjective():
        raise ValueError("hom does not map onto its target group")
    class_target = [Fraction(len(c.members), g.order) for c in classes]
    class_key = [f"class:{g.elements[c.representative].cycle_string()}" for c in classes]
    type_list = sorted(set(type_of_class))
    type_target = {t: sum(class_target[i] for i, tc in enumerate(type_of_class) if tc == t)
                   for t in type_list}

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
    per_class = [0] * len(classes)
    class_rows: list[DensityRow] = []
    type_rows: list[DensityRow] = []
    for cutoff, row in enumerate(counts, start=1):
        per_class = [a + b for a, b in zip(per_class, row)]
        total = sum(per_class)
        for i in range(len(classes)):
            dens = Fraction(per_class[i], total) if total else Fraction(0)
            class_rows.append(DensityRow(cutoff, class_key[i], per_class[i], dens,
                                         class_target[i], abs(dens - class_target[i])))
        for t in type_list:
            cnt = sum(per_class[i] for i, tc in enumerate(type_of_class) if tc == t)
            dens = Fraction(cnt, total) if total else Fraction(0)
            key = "type:(" + ",".join(map(str, t)) + ")"
            type_rows.append(DensityRow(cutoff, key, cnt, dens,
                                        type_target[t], abs(dens - type_target[t])))
    return DensityReport(
        group_order=g.order,
        max_len=max_len,
        skip=skip,
        total_counted=sum(per_class),
        class_rows=tuple(class_rows),
        type_rows=tuple(type_rows),
        types=tuple(type_list),
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

    Raises ValueError for a bound below 1 or a lift over the DP cap."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
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

    bwd = {0}
    stack = [0]
    while stack:
        for a in s.predecessors[stack.pop()]:
            if a not in bwd:
                bwd.add(a)
                stack.append(a)
    connected = len(bwd) == n == len({u for u, _ in queue})

    classes = conjugacy_classes(g)
    witnesses: list[Optional[Orbit]] = [None] * len(classes)
    found = 0
    for orbit in enumerate_orbits(s, bound):
        if witnesses[orbit.frobenius_class] is None:
            witnesses[orbit.frobenius_class] = orbit
            found += 1
            if found == len(classes):
                break

    return RealizationReport(
        strongly_connected=connected,
        period=period if connected else None,
        holonomy_generates=holonomy_order == order,
        holonomy_order=holonomy_order,
        class_witnesses=tuple(witnesses),
        bound=bound,
    )


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
        hom = parse_hom_data(json.loads((data_dir / "a5_hom.json").read_text()))
    s = parse_sft_data(json.loads((data_dir / "a5_full_shift.json").read_text()), hom)
    return s, hom
