import functools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cheblink import (CosetAction, GroupHom, Permutation, Presentation, Subgroup,
                      all_subgroups, build_cover, class_index, class_types, conjugacy_classes,
                      covers, cycle_type, cyclic_reduce, decompose_loop,
                      evaluate, generate_group, parse_word, reduce,
                      verify_artin, verify_component_bijection)
from cheblink.covers import (BijectionReport, Component, ComponentCheck,
                             LiftResult, _loop_monodromies,
                             _loop_word_for, _monodromy)

from corpus import corpus, psl27
from oracles import conjugator_by_full_scan, lift_by_vertex_walk

GROUPS = corpus()


def free_hom(g):
    """Tautological hom from the free group on g's generator list."""
    return GroupHom(Presentation(len(g.generators), ()), g, g.generators)


def a5_cover():
    g = GROUPS["a5"]
    return build_cover(free_hom(g), Subgroup.point_stabilizer(g, 4))


def test_build_cover_shape():
    cover = a5_cover()
    assert cover.vertex_count == 5
    assert cover.generator_count == 2
    for step in cover.steps + cover.steps_inv:
        assert sorted(step) == list(range(5))


def test_cover_checks_build_no_permutation(monkeypatch):
    # coset images, steps and monodromies are image tuples; a fresh group
    # has not yet cached its inverses
    g = generate_group([Permutation.parse("(1 2 3 4 5)", 5), Permutation.parse("(1 2 3)", 5)])
    h = Subgroup.point_stabilizer(g, 4)

    def refuse(self, images):
        raise AssertionError("a Permutation was built")

    monkeypatch.setattr(Permutation, "__init__", refuse)
    cover = build_cover(free_hom(g), h)
    assert all(type(step) is tuple for step in cover.steps + cover.steps_inv)
    assert all(type(cover.action.image(z)) is tuple for z in range(g.order))
    assert verify_artin(g, h).passed
    assert verify_component_bijection(cover, parse_word("x1 x2")).passed


def test_decompose_loop_pinned():
    cover = a5_cover()
    lift = decompose_loop(cover, parse_word("x1"))   # image is a 5-cycle
    assert lift.decomposition_type == (5,)
    assert len(lift.components) == 1
    lift = decompose_loop(cover, parse_word("x2"))   # image is a 3-cycle
    assert lift.decomposition_type == (3, 1, 1)
    assert sum(c.degree for c in lift.components) == 5


def test_decompose_rejects_trivial_loops():
    cover = a5_cover()
    with pytest.raises(ValueError):
        decompose_loop(cover, parse_word("x1 x1^-1"))
    with pytest.raises(ValueError):
        decompose_loop(cover, parse_word("x3"))


def test_loop_direction_regression():
    # the three images multiply to the identity in word order but to a
    # 3-cycle in reversed order; a trace that walked the letters forward
    # through the step maps would report (3,) here
    gens = [Permutation.parse(s, 4) for s in ["(3 4)", "(2 3)", "(2 3 4)"]]
    g = generate_group(gens)
    assert g.order == 6
    hom = GroupHom(Presentation(3, ()), g, tuple(g.index[p] for p in gens))
    cover = build_cover(hom, Subgroup.point_stabilizer(g, 1))
    assert cover.vertex_count == 3

    w = parse_word("x1 x2 x3")
    assert evaluate(hom, w) == g.identity
    assert decompose_loop(cover, w).decomposition_type == (1, 1, 1)
    assert decompose_loop(cover, parse_word("x3 x2 x1")).decomposition_type \
        == (3,)


def test_decomposition_matches_coset_cycles_on_random_words():
    from cheblink import cyclic_reduce

    rng = random.Random(31)
    for name in ("s4", "a5", "q8"):
        g = GROUPS[name]
        hom = free_hom(g)
        h = (Subgroup.point_stabilizer(g, 0) if name != "q8"
             else all_subgroups(g)[1])
        cover = build_cover(hom, h)
        act = CosetAction(g, h)
        alphabet = [1, -1, 2, -2]
        for _ in range(60):
            w = reduce(rng.choices(alphabet, k=rng.randrange(1, 12)))
            if not cyclic_reduce(w).letters:
                continue
            lift = decompose_loop(cover, w)
            # the type is an invariant of the conjugacy class of the image
            assert lift.decomposition_type == \
                cycle_type(act.image(evaluate(hom, w)))
            # the vertex sets are the monodromy orbits of the canonical form
            canon = act.image(evaluate(hom, cyclic_reduce(w)))
            assert {c.vertices for c in lift.components} == \
                {frozenset(cyc) for cyc in _orbits(canon)}


def _orbits(p):
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


def test_component_degrees_sum_to_index():
    g = GROUPS["s4"]
    hom = free_hom(g)
    for h in all_subgroups(g):
        cover = build_cover(hom, h)
        for z in range(1, g.order):
            w = _loop_word_for(g, z)
            lift = decompose_loop(cover, w)
            assert sum(c.degree for c in lift.components) == h.index


def test_identity_loop_splits_completely():
    g = GROUPS["s4"]
    cover = build_cover(free_hom(g), Subgroup.point_stabilizer(g, 0))
    w = _loop_word_for(g, g.identity)
    assert evaluate(cover.hom, w) == g.identity
    assert decompose_loop(cover, w).decomposition_type == (1, 1, 1, 1)


def test_loop_word_for_every_element():
    for name in ("s3", "d4", "q8", "a4", "dic12"):
        g = GROUPS[name]
        classes = {}
        for z in range(g.order):
            w = _loop_word_for(g, z)
            assert w is not None and len(w.letters) > 0
            got = evaluate(free_hom(g), w)
            # the loop word only needs to land in the conjugacy class
            assert class_index(g, got) == class_index(g, z)
            classes[z] = got
    assert _loop_word_for(GROUPS["trivial"], 0) is None


def test_verify_artin_small_groups():
    for name in ("trivial", "c6", "s3", "d4", "q8", "a4", "dic12", "s4"):
        g = GROUPS[name]
        for h in all_subgroups(g):
            report = verify_artin(g, h)
            assert report.checked == g.order
            assert report.passed, (name, len(h), report.mismatches[:3])


def test_verify_artin_a5_stabilizer():
    g = GROUPS["a5"]
    report = verify_artin(g, Subgroup.point_stabilizer(g, 4))
    assert report.passed
    assert report.index == 5
    assert report.checked == 60


@given(name=st.sampled_from(sorted(n for n, g in GROUPS.items() if g.order > 1)),
       sub=st.integers(0, 10 ** 6), z=st.integers(0, 10 ** 6))
@example(name="a5", sub=0, z=59)
@example(name="a5", sub=0, z=0)   # the identity's loop, composed on its own
@settings(max_examples=60)
def test_verify_artin_reports_one_wrong_trace(name, sub, z):
    # the expected types are taken once per conjugacy class: a trace made
    # wrong for one element's loop is reported for that element alone, with
    # the cycle type of the element's own coset-action image as expected
    g = GROUPS[name]
    subs = [h for h in subgroups_of(name) if h.index > 1]
    h = subs[sub % len(subs)]
    z %= g.order
    plain_monodromies = covers._loop_monodromies
    plain_image = CosetAction.image
    images = 0

    def swap_first_two(m):
        return (m[1], m[0]) + m[2:]

    def one_wrong_monodromy(cover):
        for y, m in plain_monodromies(cover):
            yield y, swap_first_two(m) if y == z else m

    def counting_image(self, y):
        nonlocal images
        images += 1
        return plain_image(self, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "_loop_monodromies", one_wrong_monodromy)
        mp.setattr(CosetAction, "image", counting_image)
        report = verify_artin(g, h)
    # the step maps and their inverses, and nothing for the expected side
    assert images <= 2 * len(g.generators)
    assert report.checked == g.order
    image = CosetAction(g, h).image(z)
    assert [(m.element, m.expected, m.traced) for m in report.mismatches] == \
        [(z, cycle_type(image), cycle_type(swap_first_two(image)))]
    assert report.mismatches[0].word == str(_loop_word_for(g, z))


@pytest.mark.parametrize("name", sorted(GROUPS) + ["psl27"])
def test_class_types_match_coset_cycle_types(name):
    # Artin's formula against the coset action, class by class
    g = psl27() if name == "psl27" else GROUPS[name]
    for h in all_subgroups(g):
        act = CosetAction(g, h)
        assert class_types(g, h) == \
            tuple(cycle_type(act.image(c.representative)) for c in conjugacy_classes(g)), len(h)


@pytest.mark.parametrize("name", sorted(GROUPS) + ["psl27"])
def test_loop_monodromies_are_coset_images(name):
    # the coset action is a homomorphism and each loop's word evaluates to
    # its element, so the one-pass trace gives every element's image itself
    g = psl27() if name == "psl27" else GROUPS[name]
    hom = free_hom(g)
    for h in all_subgroups(g):
        cover = build_cover(hom, h)
        traced = dict(_loop_monodromies(cover))
        assert len(traced) == g.order
        assert traced == {z: cover.action.image(z) for z in range(g.order)}, len(h)


@pytest.mark.parametrize("name", ["s4", "a5", "psl27"])
def test_verify_artin_work_bounded(name, monkeypatch):
    # one loop, the identity's, is composed letter by letter; every other
    # one costs a single step map composed onto its parent's monodromy
    g = psl27() if name == "psl27" else GROUPS[name]
    plain_monodromy, plain_itemgetter = covers._monodromy, covers.itemgetter
    monodromies = compositions = 0
    inside = False

    def counting_monodromy(cover, w):
        nonlocal monodromies, inside
        monodromies += 1
        inside = True
        try:
            return plain_monodromy(cover, w)
        finally:
            inside = False

    def counting_itemgetter(*items):
        get = plain_itemgetter(*items)

        def counted(m):
            nonlocal compositions
            compositions += not inside
            return get(m)
        return counted

    monkeypatch.setattr(covers, "_monodromy", counting_monodromy)
    monkeypatch.setattr(covers, "itemgetter", counting_itemgetter)
    for h in all_subgroups(g):
        monodromies = compositions = 0
        assert verify_artin(g, h).passed
        assert monodromies <= 1
        assert compositions <= g.order
        if h.index > 1:  # on one vertex the maps are not itemgetters
            assert compositions == g.order - 1


def test_component_bijection_pinned():
    cover = a5_cover()
    rep = verify_component_bijection(cover, parse_word("x2"))
    assert rep.passed
    assert rep.decomposition_type == (3, 1, 1)
    # two degree-one components: two cosets whose holonomy lies in h
    assert len(rep.degree_one_checks) == 2
    for check in rep.degree_one_checks:
        assert check.in_subgroup
    assert rep.class_meets_subgroup
    assert rep.conjugator is not None


def test_component_bijection_negative_direction():
    # a 5-cycle fixes no coset, and its class misses the stabilizer
    cover = a5_cover()
    rep = verify_component_bijection(cover, parse_word("x1"))
    assert rep.passed
    assert rep.degree_one_checks == ()
    assert not rep.class_meets_subgroup
    assert rep.conjugator is None


def test_component_bijection_exhaustive_s4():
    g = GROUPS["s4"]
    hom = free_hom(g)
    for h in all_subgroups(g):
        cover = build_cover(hom, h)
        for z in range(g.order):
            w = _loop_word_for(g, z)
            if w is None:
                continue
            rep = verify_component_bijection(cover, w)
            assert rep.passed, (len(h), z)


def test_bijection_report_matches_full_scan_oracle():
    # degree-1 components are the fixed points of the loop's coset-action
    # image; holonomies and images are composed from the permutations
    for name, g in GROUPS.items():
        hom = free_hom(g)
        for h in all_subgroups(g):
            cover = build_cover(hom, h)
            act = cover.action
            for z in range(g.order):
                w = _loop_word_for(g, z)
                if w is None:
                    continue
                image = Permutation.identity(g.degree)
                for l in w.letters:
                    image = image * g.elements[g.generators[l - 1]]
                y = g.index[image]
                perm = act.image(y)
                checks = []
                for v in range(act.degree):
                    if perm[v] == v:
                        r = g.elements[act.reps[v]]
                        hol = g.index[r * image * r.inverse()]
                        in_class = conjugator_by_full_scan(g, y, {hol}) is not None
                        checks.append(ComponentCheck(v, hol, hol in h.members, in_class))
                conjugator = conjugator_by_full_scan(g, y, h.members)
                rep = verify_component_bijection(cover, w)
                assert rep == BijectionReport(
                    word=w,
                    image=y,
                    decomposition_type=cycle_type(perm),
                    degree_one_checks=tuple(checks),
                    class_meets_subgroup=conjugator is not None,
                    conjugator=conjugator,
                    direction1_ok=all(c.in_subgroup and c.in_class for c in checks),
                    direction2_ok=conjugator is None or bool(checks),
                ), (name, len(h), z)


def test_component_bijection_work_bounded(monkeypatch):
    # a loop whose class misses H needs no conjugator search: scanning all
    # of A5 for one on each of the 2019 such loops made 290,918 products
    # here, and searching only when the class meets H makes 48,638
    g = GROUPS["a5"]
    hom = free_hom(g)
    covers = [build_cover(hom, h) for h in all_subgroups(g)]
    words = [_loop_word_for(g, z) for z in range(g.order)]
    calls = 0
    plain_mul = g.mul

    def counting_mul(i, j):
        nonlocal calls
        calls += 1
        return plain_mul(i, j)

    monkeypatch.setattr(g, "mul", counting_mul)
    reports = [verify_component_bijection(c, w) for c in covers for w in words]
    assert len(reports) == 59 * 60 and all(r.passed for r in reports)
    assert calls <= 60_000


@functools.cache
def subgroups_of(name):
    return all_subgroups(GROUPS[name])


@given(name=st.sampled_from(sorted(n for n, g in GROUPS.items() if g.generators)),
       sub=st.integers(0, 10 ** 6),
       words=st.lists(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1,
                               max_size=10), min_size=1, max_size=4))
@example(name="s3", sub=-1, words=[[1, 2, 1], [1]])   # one vertex (H = G)
@example(name="s4", sub=0, words=[[-2]])   # 24 vertices, a one-letter loop
@settings(max_examples=100)
def test_lift_matches_vertex_walk_oracle(name, sub, words):
    # random reduced words with inverse letters: the loop words that
    # verify_artin traces are positive, so steps_inv gets covered only here
    g = GROUPS[name]
    subs = subgroups_of(name)
    h = subs[sub % len(subs)]
    k = len(g.generators)

    def fold(l):  # onto x1..xk, keeping the sign
        x = (abs(l) - 1) % k + 1
        return x if l > 0 else -x

    loops = [cyclic_reduce(reduce(map(fold, w))) for w in words]
    loops = [w for w in loops if w.letters]
    assume(loops)
    cover = build_cover(free_hom(g), h)
    walked = [lift_by_vertex_walk(cover, w.letters) for w in loops]
    for w, (comps, dtype) in zip(loops, walked):
        assert decompose_loop(cover, w) == LiftResult(tuple(Component(*c) for c in comps), dtype)
        rep = verify_component_bijection(cover, w)
        assert rep.decomposition_type == dtype
        assert [c.vertex for c in rep.degree_one_checks] == \
            [min(vs) for vs, d in comps if d == 1]
    # verify_artin compares whatever monodromy it is handed for each
    # element, so hand it these loops' monodromies: a mismatch reports the
    # traced type, and a match means it equals the expected one
    def these_loops(cover):
        return ((z, _monodromy(cover, loops[z % len(loops)])) for z in range(g.order))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "_loop_monodromies", these_loops)
        report = verify_artin(g, h)
    assert report.checked == g.order
    expected = [cycle_type(cover.action.image(z)) for z in range(g.order)]
    traced = list(expected)
    for m in report.mismatches:
        assert m.expected == expected[m.element]
        traced[m.element] = m.traced
    assert traced == [walked[z % len(loops)][1] for z in range(g.order)]
