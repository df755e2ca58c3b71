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
from typing import Iterator, NamedTuple, Optional, Sequence

from .freewords import GroupHom, Word, evaluate, parse_hom_data, parse_word
from .permgroup import (CosetAction, FiniteGroup, class_index, conjugacy_classes,
                        cycle_type, generated_set)

DP_STATE_CAP = 65536  # the transfer DP refuses above state_count * |G| states
SKIP_CAP = 10 ** 6    # chebotarev_report refuses to enumerate more skipped orbits


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
        for i, e in enumerate(self.edges):
            out[e.src].append(i)
        self.out_edges = tuple(tuple(o) for o in out)
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


def _closed_path_totals(s: LabeledSFT, max_n: int,
                        cap: int = DP_STATE_CAP) -> list[list[int]]:
    """totals[n][class]: closed paths of length n, for every n <= max_n.

    One pass of max_n steps per start state over sparse per-state counts
    keyed by the holonomy so far.  Each edge steps through its label's
    right-multiplication row, built once per call, so a step costs list
    and dict lookups and no group multiplication.
    """
    g = s.hom.target
    if s.state_count * g.order > cap:
        raise ValueError(
            f"{s.state_count} states x group order {g.order} exceeds the DP cap {cap}")
    class_of = [class_index(g, x) for x in range(g.order)]
    rows = {lab: [g.mul(x, lab) for x in range(g.order)] for lab in set(s.edge_elem)}
    moves = [[(s.edge_dst[ei], rows[s.edge_elem[ei]]) for ei in s.out_edges[st]]
             for st in range(s.state_count)]
    totals = [[0] * len(conjugacy_classes(g)) for _ in range(max_n + 1)]
    for s0 in range(s.state_count):
        cur: list[dict[int, int]] = [{} for _ in range(s.state_count)]
        cur[s0][g.identity] = 1
        for n, tot in enumerate(totals):
            if n:
                nxt: list[dict[int, int]] = [{} for _ in range(s.state_count)]
                for st, dist in enumerate(cur):
                    if not dist:
                        continue
                    for dst, row in moves[st]:
                        out = nxt[dst]
                        get = out.get
                        for el, c in dist.items():
                            y = row[el]
                            out[y] = get(y, 0) + c
                cur = nxt
            for el, c in cur[s0].items():
                tot[class_of[el]] += c
    return totals


def exact_counts(s: LabeledSFT, n: int, *, cap: int = DP_STATE_CAP) -> tuple[int, ...]:
    """Count closed paths of length n per holonomy conjugacy class.

    Based paths: every start state counts, and rotations of a cycle are
    distinct paths.  Dynamic programming over (state, group element), so the
    cost is linear in n and no orbit is enumerated.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_closed_path_totals(s, n, cap)[n])


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
    classes = conjugacy_classes(g)
    max_n = len(totals)
    power_class = []    # power_class[ci][m]: class of the m-th power of class ci
    for c in classes:
        acc, pcs = g.identity, [class_index(g, g.identity)]
        for _ in range(max_n):
            acc = g.mul(acc, c.representative)
            pcs.append(class_index(g, acc))
        power_class.append(pcs)
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
                    multiple[power_class[ci][m]] -= n * c
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
    (cutoff, cycle type); types aggregate the classes whose representatives
    share a cycle type in the report's permutation action, listed in row
    order in ``types``.  Densities are exact fractions over the orbits
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
                      action: Optional[CosetAction] = None) -> DensityReport:
    """Empirical class/type densities over orbits of length <= max_len.

    The hom must be surjective so the class-size targets |C|/|G| mean what
    they should.  ``skip`` (at most SKIP_CAP) drops that many of the
    shortest orbits before anything is counted, at every cutoff; it must
    leave at least one orbit.  Counts come from the transfer DP and divisor
    peeling, so the cost is linear in max_len; only the skipped orbits are
    enumerated, to learn their classes.  Types are the cycle types of class
    representatives under ``action``, a coset action of the target on G/H
    (decomposition types in that cover), or under the target's own
    permutations when it is None.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if skip < 0:
        raise ValueError("skip must be nonnegative")
    if skip > SKIP_CAP:
        raise ValueError(f"skip {skip} exceeds the skip cap {SKIP_CAP}: "
                         "skipped orbits are enumerated one by one")
    g = s.hom.target
    if action is not None and action.group is not g:
        raise ValueError("the coset action is not on the hom's target group")
    # the DP cap is checked first, so oversized inputs are refused before
    # the hom's image is closed in its target
    totals = _closed_path_totals(s, max_len)
    if not s.hom.is_surjective():
        raise ValueError("hom does not map onto its target group")
    classes = conjugacy_classes(g)
    class_target = [Fraction(len(c.members), g.order) for c in classes]
    class_key = [f"class:{g.elements[c.representative].cycle_string()}" for c in classes]
    image = g.elements.__getitem__ if action is None else action.image
    type_of_class = [cycle_type(image(c.representative)) for c in classes]
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
    """Can this shift possibly equidistribute?  Structural checks plus a
    search for an orbit in every conjugacy class, up to a length bound."""

    strongly_connected: bool
    period: Optional[int]           # None when not strongly connected
    holonomy_generates: bool
    holonomy_order: int
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
    """Check strong connectivity, aperiodicity, holonomy-generation, and
    that every class of the target is hit by some orbit of length <= bound.

    Raises ValueError for a bound below 1."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    g = s.hom.target
    n = s.state_count

    fwd = [False] * n
    fwd[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for ei in s.out_edges[u]:
            v = s.edge_dst[ei]
            if not fwd[v]:
                fwd[v] = True
                stack.append(v)
    into: list[list[int]] = [[] for _ in range(n)]
    for ei in range(len(s.edges)):
        into[s.edge_dst[ei]].append(s.edge_src[ei])
    bwd = [False] * n
    bwd[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v in into[u]:
            if not bwd[v]:
                bwd[v] = True
                stack.append(v)
    connected = all(fwd) and all(bwd)

    period = None
    if connected:
        level = [-1] * n
        level[0] = 0
        queue = [0]
        while queue:
            nxt = []
            for u in queue:
                for ei in s.out_edges[u]:
                    v = s.edge_dst[ei]
                    if level[v] < 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            queue = nxt
        period = 0
        for ei in range(len(s.edges)):
            period = gcd(period, level[s.edge_src[ei]] + 1 - level[s.edge_dst[ei]])
        period = abs(period)

    # holonomy subgroup from a spanning tree of the underlying undirected graph
    elt: list[Optional[int]] = [None] * n
    elt[0] = g.identity
    adj: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
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
        holonomy_order = 0
        generates = False
    else:
        gens = set()
        for ei in range(len(s.edges)):
            gens.add(g.mul(g.mul(elt[s.edge_src[ei]], s.edge_elem[ei]),
                           g.inv(elt[s.edge_dst[ei]])))
        members = generated_set(g, gens)
        holonomy_order = len(members)
        generates = holonomy_order == g.order

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
        period=period,
        holonomy_generates=generates,
        holonomy_order=holonomy_order,
        class_witnesses=tuple(witnesses),
        bound=bound,
    )


def parse_sft_data(data: dict, hom: GroupHom) -> LabeledSFT:
    states = int(data["states"])
    edges = [SftEdge(int(e["from"]), int(e["to"]), parse_word(e["label"]))
             for e in data["edges"]]
    return LabeledSFT(states, edges, hom)


def load_sft_file(path, hom: GroupHom) -> LabeledSFT:
    """Read {"states": n, "edges": [{"from": 0, "to": 1, "label": "x1"}, ...]}."""
    with open(path) as fh:
        return parse_sft_data(json.load(fh), hom)


def bundled_a5(hom: Optional[GroupHom] = None) -> tuple[LabeledSFT, GroupHom]:
    """The packaged 3-symbol full shift labeled into A5 (see data/), or
    relabeled through ``hom`` when one is given."""
    data_dir = files("cheblink") / "data"
    if hom is None:
        hom = parse_hom_data(json.loads((data_dir / "a5_hom.json").read_text()))
    s = parse_sft_data(json.loads((data_dir / "a5_full_shift.json").read_text()), hom)
    return s, hom
