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

Over ``all_subgroups`` the word tree is walked once per conjugacy class of
subgroups.  A subgroup H' = c⁻¹·H·c linked to its class representative H
has the coset map φ(H'y) = H·c·y, which commutes with the action.  Once
φ∘image'(k) = image(k)∘φ is checked for each generator k, every monodromy
composed from those images is φ-conjugate to H's: H' shares H's cycle
types, and its fixed cosets are H's taken back through φ.  Should the check
fail, H''s own cover is walked.  The walks then pass over |G| [G:H]
summed over 9 subgroups of A5, 9,540 coset points instead of 61,140, and
over 22 of A6's 501, 538,560 instead of 12,688,560.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .freewords import CyclicWord, GroupHom, Word, cyclic_reduce, evaluate, format_letters
from .permgroup import (ClassLink, CosetAction, FiniteGroup, Subgroup, class_types, cycles,
                        picker, powers)


@dataclass(frozen=True, eq=False)
class CoveringGraph:
    """A cover of the rose, realized on coset labels: the hom and a
    subgroup H of its target.

    Vertex v is coset v of ``subgroup.action``, vertex 0 being H itself
    (the basepoint fiber over the wedge point contains it), and each loop
    moves the vertices by the coset-action image of the loop's image.
    """

    hom: GroupHom
    subgroup: Subgroup


def build_cover(hom: GroupHom, h: Subgroup) -> CoveringGraph:
    """Covering graph of the rose determined by ``hom`` and the subgroup
    ``h``; builds h's coset action, which every loop of the cover reads."""
    if h.group is not hom.target:
        raise ValueError("subgroup belongs to a different group than the hom's target")
    h.action  # built and kept on h
    return CoveringGraph(hom, h)


class Component(NamedTuple):
    vertices: frozenset
    degree: int


@dataclass(frozen=True)
class LiftResult:
    """Connected components of a lifted loop, ordered by least vertex."""

    components: tuple[Component, ...]
    decomposition_type: tuple[int, ...]


def _monodromy(cover: CoveringGraph, w: CyclicWord) -> tuple[int, ...]:
    """The loop's permutation m of the vertices (the lift from v ends at
    m[v]): the coset-action image of the loop's image, since the action is
    a homomorphism."""
    if not w.letters:
        raise ValueError("the empty loop has no decomposition type")
    return cover.subgroup.action.image(evaluate(cover.hom, w))


def decompose_loop(cover: CoveringGraph, w: CyclicWord | Word) -> LiftResult:
    """Lift the loop from every vertex and collect the closed components.

    A plain Word is cyclically reduced first, so everything is computed from
    the canonical rotation: the decomposition type is an invariant of the
    loop's conjugacy class, while the component vertex sets are the
    monodromy orbits of the canonical rotation specifically (a different
    rotation would permute the fiber by a conjugate).  The loop's monodromy
    is the coset-action image of its image, and the components are its
    ``cycles``, in order of least vertex; the type is their degrees in
    decreasing order.
    """
    if isinstance(w, Word):
        w = cyclic_reduce(w)
    comps = tuple(Component(frozenset(c), len(c)) for c in cycles(_monodromy(cover, w)))
    return LiftResult(comps, tuple(sorted((c.degree for c in comps), reverse=True)))


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


def _loop_monodromies(act: CosetAction) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(z, monodromy of z's loop) for every element z, on the cosets of act.

    z's loop is word_for(z), its parent's word with one more letter, so its
    monodromy is its parent's composed with that generator's coset-action
    image; the walk keeps one monodromy per depth on the current path, from
    the identity's, which moves no coset.
    """
    g = act.group
    plan = _trace_plan(g)
    # m composed with generator k's image is m[image[v]] at each v
    picks = [picker(act.image(k)) for k in g.generators]
    path = [tuple(range(act.degree))] * (plan.height + 1)
    yield g.identity, path[0]
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
    first use and kept on ``h.action``: relabelled from the trace of h's
    class representative when h has a ``link`` whose generator check
    passes, else walked."""
    act = h.action
    if act._trace is None:
        g = h.group
        meets = frozenset(map(g.class_of.__getitem__, h.members))
        act._trace = ((h.link and _relabelled_trace(act, h.link, meets))
                      or _walked_trace(act, meets))
    return act._trace


def _walked_trace(act: CosetAction, meets: frozenset) -> _CosetTrace:
    """The trace made by one ``_loop_monodromies`` walk; each monodromy is
    passed over once, by ``_cycle_walk``."""
    g = act.group
    types = [None] * g.order
    fixed = [None] * g.order
    interned = {}
    for z, m in _loop_monodromies(act):
        t, fixed[z] = _cycle_walk(m)
        types[z] = interned.setdefault(t, t)
    return _CosetTrace(tuple(types), tuple(fixed), meets)


def _relabelled_trace(act: CosetAction, link: ClassLink,
                      meets: frozenset) -> Optional[_CosetTrace]:
    """The trace on act's cosets of H' = c⁻¹·H·c, H's trace relabelled
    through φ(H'y) = H·c·y as the module docstring says; None when some
    generator k has φ∘image'(k) != image(k)∘φ.  meets is H''s, which is H's
    too: conjugate subgroups meet the same classes."""
    rep, c, mul = link.action, link.conjugator, act.group.mul
    phi = tuple(rep.coset_of[mul(c, r)] for r in act.reps)
    for k in act.group.generators:
        if (tuple(map(phi.__getitem__, act.image(k)))
                != tuple(map(rep.image(k).__getitem__, phi))):
            return None
    if rep._trace is None:
        rep._trace = _walked_trace(rep, meets)
    back = [0] * len(phi)
    for v, u in enumerate(phi):
        back[u] = v
    # many elements fix the same cosets, so each distinct set is relabelled once
    relabelled = {f: tuple(sorted(map(back.__getitem__, f))) for f in set(rep._trace.fixed)}
    return _CosetTrace(rep._trace.types, tuple(map(relabelled.__getitem__, rep._trace.fixed)),
                       meets)


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
    each element's monodromy its parent's composed with one generator's
    coset-action image, and ``CosetAction.image`` is called only for the
    generators.  A subgroup linked to its class representative takes the
    representative's trace, relabelled, once its generators' images pass
    the check.
    """
    if h.group is not g:
        raise ValueError("subgroup belongs to a different group")
    traced_types = _coset_trace(h).types
    types = class_types(g, h)
    class_of = g.class_of
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
    class_of = g.class_of
    ci = class_of[z]
    members, reps, mul, inv = h.members, h.action.reps, g.mul, g.inv
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
