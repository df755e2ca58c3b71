"""Finite covers of a rose (one loop per generator) and loop decomposition.

A homomorphism from a presented group onto a finite permutation group, plus
a subgroup H of the target, determines a cover whose vertices are the right
cosets of H.  A loop (cyclic word) lifts to a disjoint union of closed
paths; the multiset of their lengths, divided by the loop length, is the
loop's decomposition type.  ``verify_artin`` traces every element's loop
and checks that this always equals the cycle type of the loop's image in the
coset action, as Artin's formula gives it from the permutation character,
and ``verify_component_bijection`` checks that degree-1 components are
exactly the conjugates of the image that land in H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .freewords import CyclicWord, GroupHom, Presentation, Word, cyclic_reduce, evaluate, format_letters
from .permgroup import (CosetAction, FiniteGroup, Subgroup, class_index, class_types,
                        conjugacy_classes, cycle_type, picker, powers)


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
    act = CosetAction(g, h)
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
    are its cycles, each started at its least vertex.
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
    return LiftResult(tuple(comps), cycle_type(m))


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
    the permutation character of g/h (``class_types``).  The trace side
    walks the tree of recorded words once, so each element's monodromy is
    its parent's composed with one step map; only the identity's loop
    x1^ord is composed letter by letter.  ``CosetAction.image`` is called
    only for the step maps.
    """
    cover = build_cover(GroupHom(Presentation(len(g.generators), ()), g, g.generators), h)
    types = class_types(g, h)
    class_of = g._class_of  # filled by class_types
    mismatches = []
    for z, m in _loop_monodromies(cover):
        expected = types[class_of[z]]
        traced = cycle_type(m)
        if traced != expected:
            w = _loop_word_for(g, z)
            word_str = format_letters(w.letters) if w is not None else ""
            mismatches.append(ArtinMismatch(z, word_str, expected, traced))
    mismatches.sort(key=lambda m: m.element)
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

    Some conjugate of the image lies in the subgroup exactly when the
    image's class meets it, so that is read off the class: no conjugator is
    searched for."""
    if isinstance(w, Word):
        w = cyclic_reduce(w)
    g = cover.hom.target
    h = cover.subgroup
    act = cover.action
    z = evaluate(cover.hom, w)
    m = _monodromy(cover, w)
    cls = conjugacy_classes(g)[class_index(g, z)].members
    checks = []
    # the degree-1 components are the monodromy's fixed points
    for v in [v for v, u in enumerate(m) if u == v]:
        r = act.reps[v]
        hol = g.mul(g.mul(r, z), g.inv(r))
        checks.append(ComponentCheck(v, hol, hol in h.members, hol in cls))
    meets = not cls.isdisjoint(h.members)
    return BijectionReport(
        word=w,
        image=z,
        decomposition_type=cycle_type(m),
        degree_one_checks=tuple(checks),
        class_meets_subgroup=meets,
        direction1_ok=all(c.in_subgroup and c.in_class for c in checks),
        direction2_ok=not meets or bool(checks),
    )
