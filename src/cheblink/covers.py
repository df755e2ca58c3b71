"""Finite covers of a rose (one loop per generator) and loop decomposition.

A homomorphism from a presented group onto a finite permutation group, plus
a subgroup H of the target, determines a cover whose vertices are the right
cosets of H.  A loop (cyclic word) lifts to a disjoint union of closed
paths; the multiset of their lengths, divided by the loop length, is the
loop's decomposition type.  ``verify_artin`` checks that this always
equals the cycle type of the loop's image in the coset action, as Artin's
formula gives it from the permutation character, and
``verify_component_bijection`` checks that degree-1 components are exactly
the conjugates of the image that land in H.

Both checks read one trace per subgroup, kept on its coset action and made
by whichever check runs first: every element's loop is traced once, by one
walk of the group's word tree, and the trace keeps each element's cycle type
and fixed cosets, not its monodromy.  Both are read off the monodromy in one
pass over its cycles, which lists the fixed cosets as it meets them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .freewords import CyclicWord, GroupHom, Presentation, Word, cyclic_reduce, evaluate, format_letters
from .permgroup import (CosetAction, FiniteGroup, Subgroup, class_types, conjugacy_classes,
                        picker, powers)


@dataclass(frozen=True, eq=False)
class CoveringGraph:
    """A cover of the rose, realized on coset labels.

    Vertex 0 is the subgroup H itself (the basepoint fiber over the wedge
    point contains it); ``steps[k-1][v]`` moves vertex v along the monodromy
    of generator x_k (the coset map Hx -> H x g_k^{-1}), and ``steps_inv``
    is the inverse walk.
    """

    generator_count: int
    vertex_count: int
    steps: tuple[tuple[int, ...], ...]
    steps_inv: tuple[tuple[int, ...], ...]
    hom: GroupHom
    subgroup: Subgroup
    action: CosetAction


def build_cover(hom: GroupHom, h: Subgroup) -> CoveringGraph:
    """Covering graph of the rose determined by ``hom`` and the subgroup ``h``."""
    g = hom.target
    if h.group is not g:
        raise ValueError("subgroup belongs to a different group than the hom's target")
    act = h.action
    return CoveringGraph(
        generator_count=len(hom.images),
        vertex_count=act.degree,
        steps=tuple(act.image(x) for x in hom.images),
        steps_inv=tuple(act.image(g.inv(x)) for x in hom.images),
        hom=hom,
        subgroup=h,
        action=act,
    )


class Component(NamedTuple):
    vertices: frozenset
    degree: int


@dataclass(frozen=True)
class LiftResult:
    """Connected components of a lifted loop, ordered by least vertex."""

    components: tuple[Component, ...]
    decomposition_type: tuple[int, ...]


def _monodromy(cover: CoveringGraph, w: CyclicWord) -> tuple[int, ...]:
    """The loop's permutation m of the vertices (the lift from v ends at m[v]).

    The step maps compose right-to-left, like everything else in this
    package, so each letter from the last is applied by one ``picker``.
    """
    letters, k = w.letters, cover.generator_count
    if not letters:
        raise ValueError("the empty loop has no decomposition type")
    for l in letters:
        if abs(l) > k:
            raise ValueError(f"letter {l} outside x1..x{k}")
    m = None
    for l in reversed(letters):
        step = cover.steps[l - 1] if l > 0 else cover.steps_inv[-l - 1]
        m = step if m is None else picker(m)(step)
    return m


def decompose_loop(cover: CoveringGraph, w: CyclicWord | Word) -> LiftResult:
    """Lift the loop from every vertex and collect the closed components.

    A plain Word is cyclically reduced first, so everything is computed from
    the canonical rotation: the decomposition type is an invariant of the
    loop's conjugacy class, while the component vertex sets are the
    monodromy orbits of the canonical rotation specifically (a different
    rotation would permute the fiber by a conjugate).  The loop's monodromy
    on the vertices is composed once from the step maps, and the components
    are its cycles, each started at its least vertex; the type is their
    degrees in decreasing order.
    """
    if isinstance(w, Word):
        w = cyclic_reduce(w)
    m = _monodromy(cover, w)
    visited = [False] * cover.vertex_count
    comps = []
    for v0 in range(cover.vertex_count):
        fiber = []
        u = v0
        while not visited[u]:
            visited[u] = True
            fiber.append(u)
            u = m[u]
        if fiber:
            comps.append(Component(frozenset(fiber), len(fiber)))
    return LiftResult(tuple(comps), tuple(sorted((c.degree for c in comps), reverse=True)))


def _loop_word_for(g: FiniteGroup, z: int) -> Optional[CyclicWord]:
    """A nonempty cyclic word over g's generators evaluating to a conjugate of z.

    Uses the shortest word recorded during group generation (positive letters
    only, hence already cyclically reduced); the identity falls back to the
    first generator raised to its order.  None only for the trivial group.
    """
    letters = g.word_for(z)
    if not letters:
        if not g.generators:
            return None
        letters = (1,) * len(powers(g, g.generators[0]))
    return cyclic_reduce(Word(letters))


class _TracePlan(NamedTuple):
    """What verify_artin reuses across the subgroups of one group; built
    once and kept on the group, as ``conjugacy_classes`` keeps the classes."""

    # (z, len(word_for(z)), last letter - 1) for every z but the identity, in
    # lexicographic order of the words: recorded words are prefix-closed, so
    # this is a depth-first walk of their tree and each parent comes first
    walk: tuple[tuple[int, int, int], ...]
    height: int


def _trace_plan(g: FiniteGroup) -> _TracePlan:
    if g._trace_plan is None:
        # the identity's empty word sorts first and is left out
        tree = sorted((g.word_for(z), z) for z in range(g.order))[1:]
        g._trace_plan = _TracePlan(
            walk=tuple((z, len(w), w[-1] - 1) for w, z in tree),
            height=max((len(w) for w, _ in tree), default=0))
    return g._trace_plan


def _loop_monodromies(cover: CoveringGraph) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(z, monodromy of z's loop) for every element z of the cover's group.

    The identity's loop is composed by ``_monodromy``.  Every other loop is
    word_for(z), its parent's word with one more letter, so its monodromy is
    its parent's composed with one step map; the walk keeps one monodromy
    per depth on the current path.  The cover must be of the tautological
    hom, whose images are the group's generators.
    """
    g = cover.hom.target
    w = _loop_word_for(g, g.identity)
    # trivial group: the constant loop closes over the single vertex
    yield g.identity, tuple(range(cover.vertex_count)) if w is None else _monodromy(cover, w)
    plan = _trace_plan(g)
    # m composed with step k is m[step[v]] at each v
    picks = [picker(s) for s in cover.steps]
    path = [tuple(range(cover.vertex_count))] * (plan.height + 1)
    for z, depth, k in plan.walk:
        m = path[depth] = picks[k](path[depth - 1])
        yield z, m


def _cycle_walk(m: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(cycle type, fixed points) of the image tuple m, by one walk of its
    cycles: the type lists the cycle lengths in decreasing order, fixed
    points last as 1s, like ``cycle_type``.

    The walk runs over a list copy of m and overwrites each point it passes
    with -1, so a point is read once more at most; fixed points go to their
    own list, and only the lengths above 1 are sorted.
    """
    m = list(m)
    fixed = []
    lens = []
    for v, u in enumerate(m):
        if u == v:
            fixed.append(v)
        elif u >= 0:
            m[v] = -1
            n = 1
            while u != v:
                m[u], u = -1, m[u]
                n += 1
            lens.append(n)
    lens.sort(reverse=True)
    return tuple(lens) + (1,) * len(fixed), tuple(fixed)


class _CosetTrace(NamedTuple):
    """What both cover checks read for one subgroup H; kept on its coset
    action, so it is O(|G|) per subgroup: no monodromy is kept."""

    # per element, the cycle type of its loop's monodromy, one tuple object
    # per distinct type; taken by ``_cycle_walk`` in the same pass as
    # the fixed cosets
    types: tuple[tuple[int, ...], ...]
    # per element, the cosets its loop's monodromy fixes; by Burnside these
    # number |G| in all, since the action is transitive
    fixed: tuple[tuple[int, ...], ...]
    # the conjugacy classes that meet H
    meets: frozenset


def _coset_trace(h: Subgroup) -> _CosetTrace:
    """The trace of every element's loop through the cover of g/h, made on
    first use by one ``_loop_monodromies`` walk and kept on ``h.action``;
    each monodromy is passed over once, by ``_cycle_walk``."""
    act = h.action
    if act._trace is None:
        g = h.group
        types = [None] * g.order
        fixed = [None] * g.order
        interned = {}
        cover = build_cover(GroupHom(Presentation(len(g.generators), ()), g, g.generators), h)
        for z, m in _loop_monodromies(cover):
            t, fixed[z] = _cycle_walk(m)
            types[z] = interned.setdefault(t, t)
        conjugacy_classes(g)  # fills g._class_of
        act._trace = _CosetTrace(tuple(types), tuple(fixed),
                                 frozenset(g._class_of[m] for m in h.members))
    return act._trace


@dataclass(frozen=True)
class ArtinMismatch:
    element: int
    word: str
    expected: tuple[int, ...]
    traced: tuple[int, ...]


@dataclass(frozen=True)
class ArtinReport:
    group_order: int
    subgroup_order: int
    index: int
    checked: int
    mismatches: tuple[ArtinMismatch, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


ARTIN_WORK_BUDGET = 1 << 24  # bounds |G| [G:H] summed over the subgroups H checked


def verify_artin(g: FiniteGroup, h: Subgroup) -> ArtinReport:
    """Trace every element's loop through the cover of g/h and compare its
    decomposition type against the cycle type Artin's formula gives.

    The expected side is one cycle type per conjugacy class, derived from
    the permutation character of g/h (``class_types``).  The trace side is
    the subgroup's kept trace: its walk of the tree of recorded words makes
    each element's monodromy its parent's composed with one step map, and
    only the identity's loop x1^ord is composed letter by letter.
    ``CosetAction.image`` is called only for the step maps.
    """
    if h.group is not g:
        raise ValueError("subgroup belongs to a different group")
    traced_types = _coset_trace(h).types
    types = class_types(g, h)
    class_of = g._class_of  # filled by class_types
    mismatches = []
    for z, traced in enumerate(traced_types):
        expected = types[class_of[z]]
        if traced != expected:
            w = _loop_word_for(g, z)
            word_str = format_letters(w.letters) if w is not None else ""
            mismatches.append(ArtinMismatch(z, word_str, expected, traced))
    return ArtinReport(
        group_order=g.order,
        subgroup_order=len(h),
        index=h.index,
        checked=g.order,
        mismatches=tuple(mismatches),
    )


class ComponentCheck(NamedTuple):
    """Holonomy data for one degree-1 component of a lifted loop."""

    vertex: int
    holonomy: int        # rep_v * z * rep_v^{-1}
    in_subgroup: bool
    in_class: bool


class BijectionReport(NamedTuple):
    """Both directions of the degree-1 component criterion for one loop."""

    word: CyclicWord
    image: int
    decomposition_type: tuple[int, ...]
    degree_one_checks: tuple[ComponentCheck, ...]
    class_meets_subgroup: bool
    direction1_ok: bool  # each degree-1 component's holonomy is in H and conjugate to z
    direction2_ok: bool  # some conjugate of z in H  =>  a degree-1 component exists

    @property
    def passed(self) -> bool:
        return self.direction1_ok and self.direction2_ok


def verify_component_bijection(cover: CoveringGraph, w: CyclicWord | Word) -> BijectionReport:
    """Check that degree-1 components of the lift carry conjugates of the
    loop's image into the subgroup, and that such a conjugate forces one.

    The loop's monodromy is the coset-action image of the loop's image z,
    whatever the hom, so its fixed points (the degree-1 components) and its
    cycle type are read from the subgroup's kept trace at z.  The holonomies
    are group products, formed here, so the two directions still compare
    computations made independently.  Some conjugate of z lies in the
    subgroup exactly when z's class meets it, which the trace also keeps: no
    conjugator is searched for."""
    if isinstance(w, Word):
        w = cyclic_reduce(w)
    if not w.letters:
        raise ValueError("the empty loop has no decomposition type")
    g = cover.hom.target
    h = cover.subgroup
    z = evaluate(cover.hom, w)
    trace = _coset_trace(h)
    class_of = g._class_of  # filled by the trace
    ci = class_of[z]
    members, reps, mul, inv = h.members, cover.action.reps, g.mul, g.inv
    checks = []
    direction1 = True
    for v in trace.fixed[z]:
        r = reps[v]
        hol = mul(mul(r, z), inv(r))
        in_subgroup = hol in members
        in_class = class_of[hol] == ci
        direction1 = direction1 and in_subgroup and in_class
        checks.append(ComponentCheck(v, hol, in_subgroup, in_class))
    meets = ci in trace.meets
    return BijectionReport(w, z, trace.types[z], tuple(checks), meets,
                           direction1, not meets or bool(checks))
