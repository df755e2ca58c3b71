import random
from collections import Counter
from fractions import Fraction

import pytest

from cheblink import (GroupHom, LabeledSFT, Presentation, SftEdge, Subgroup,
                      bundled_a5, chebotarev_report, class_index,
                      conjugacy_classes, coset_action, enumerate_orbits,
                      exact_counts, parse_hom_data, parse_sft_data, parse_word,
                      primitive_counts, realization_check, reduce)

from corpus import corpus
from oracles import brute_force_orbits

GROUPS = corpus()


def trivial_hom():
    return parse_hom_data({"degree": 1, "images": ["()"]})


def golden_mean():
    """Two states, no two consecutive visits to state 1; trivial labels."""
    hom = trivial_hom()
    w = parse_word("x1")
    edges = [SftEdge(0, 0, w), SftEdge(0, 1, w), SftEdge(1, 0, w)]
    return LabeledSFT(2, edges, hom)


def full_shift_z2():
    """One state, two loops labeling the nontrivial and trivial element."""
    hom = parse_hom_data({"degree": 2, "images": ["(1 2)"]})
    return LabeledSFT(1, [SftEdge(0, 0, parse_word("x1")),
                          SftEdge(0, 0, parse_word(""))], hom)


def two_state_s3():
    """Strongly connected aperiodic 2-state shift labeled into s3."""
    hom = parse_hom_data({"degree": 3, "images": ["(1 2 3)", "(1 2)"]})
    edges = [
        SftEdge(0, 0, parse_word("x1")),
        SftEdge(0, 1, parse_word("x2")),
        SftEdge(1, 0, parse_word("x1 x2")),
        SftEdge(1, 1, parse_word("x2^-1 x1")),
    ]
    return LabeledSFT(2, edges, hom)


def test_validation():
    hom = trivial_hom()
    w = parse_word("x1")
    with pytest.raises(ValueError):
        LabeledSFT(0, [SftEdge(0, 0, w)], hom)
    with pytest.raises(ValueError):
        LabeledSFT(1, [], hom)
    with pytest.raises(ValueError):
        LabeledSFT(1, [SftEdge(0, 1, w)], hom)
    with pytest.raises(ValueError):
        parse_sft_data({"states": 1, "edges": [{"from": 0, "to": 2,
                                                "label": "x1"}]}, hom)


def dp_counts(s, max_n):
    """The divisor inversion of exact_counts as a Counter over (length, class)."""
    rows = primitive_counts(s.hom.target,
                            [exact_counts(s, n) for n in range(1, max_n + 1)])
    return Counter({(n, ci): v for n, row in enumerate(rows, start=1)
                    for ci, v in enumerate(row) if v})


def enumerated_counts(s, max_len):
    return Counter((o.length, o.frobenius_class) for o in enumerate_orbits(s, max_len))


def test_golden_mean_orbit_counts_frozen():
    s = golden_mean()
    per_length = [0] * 9
    for o in enumerate_orbits(s, 8):
        per_length[o.length] += 1
    assert per_length[1:] == [1, 1, 1, 1, 2, 2, 4, 5]


def test_golden_mean_exact_counts_are_lucas():
    s = golden_mean()
    assert [exact_counts(s, n)[0] for n in range(1, 9)] == \
        [1, 3, 4, 7, 11, 18, 29, 47]


def test_full_shift_exact_counts():
    s = full_shift_z2()
    # closed 2-paths: ee, en, ne, nn -> classes (even, odd): en and ne odd
    assert exact_counts(s, 0) == (1, 0)  # the empty path at each state
    assert exact_counts(s, 1) == (1, 1)
    assert exact_counts(s, 2) == (2, 2)
    assert exact_counts(s, 3) == (4, 4)


def test_orbits_match_brute_force():
    for s in (golden_mean(), full_shift_z2(), two_state_s3()):
        got = {(o.length, o.edges) for o in enumerate_orbits(s, 6)}
        assert got == brute_force_orbits(s, 6)


def test_orbit_canonical_form_and_holonomy():
    s = two_state_s3()
    g = s.hom.target
    orbits = list(enumerate_orbits(s, 7))
    assert len(orbits) == len(set((o.length, o.edges) for o in orbits))
    for o in orbits:
        seq = o.edges
        n = o.length
        assert len(seq) == n
        # closed path
        for i in range(n):
            assert s.edge_dst[seq[i]] == s.edge_src[seq[(i + 1) % n]]
        # canonical: least among all rotations, hence also primitive
        for r in range(1, n):
            assert seq <= seq[r:] + seq[:r]
        # holonomy is the label product in path order
        acc = g.identity
        for ei in seq:
            acc = g.mul(acc, s.edge_elem[ei])
        assert o.holonomy == acc
        assert o.frobenius_class == class_index(g, acc)


def test_rotation_moves_holonomy_within_its_class():
    s = two_state_s3()
    g = s.hom.target
    for o in enumerate_orbits(s, 6):
        for r in range(1, o.length):
            rot = o.edges[r:] + o.edges[:r]
            acc = g.identity
            for ei in rot:
                acc = g.mul(acc, s.edge_elem[ei])
            assert class_index(g, acc) == o.frobenius_class


def test_conservation_identity():
    # basepointed closed n-paths per class == sum over orbits of length
    # d | n of d, attributed to the class of the holonomy power
    for s in (golden_mean(), full_shift_z2(), two_state_s3()):
        assert dp_counts(s, 8) == enumerated_counts(s, 8)


def test_exact_counts_cap():
    s = golden_mean()
    with pytest.raises(ValueError):
        exact_counts(s, 3, cap=1)


def test_primitive_counts_rejects_inconsistent_totals():
    g = trivial_hom().target
    assert primitive_counts(g, [(1,), (1,)]) == ((1,), (0,))
    with pytest.raises(ValueError):
        primitive_counts(g, [(0,), (1,)])  # one closed 2-path, half an orbit
    with pytest.raises(ValueError):
        primitive_counts(g, [(3,), (1,)])  # fewer 2-paths than fixed points


def test_chebotarev_report_golden_mean():
    s = golden_mean()
    rep = chebotarev_report(s, 8)
    assert rep.total_counted == 17  # 1+1+1+1+2+2+4+5
    assert [r.count for r in rep.class_rows] == [1, 2, 3, 4, 6, 8, 12, 17]
    final = rep.final_class_rows[0]
    assert final.density == 1 and final.target == 1 and final.deviation == 0


def test_chebotarev_report_densities_are_consistent():
    s = two_state_s3()
    g = s.hom.target
    # the coset action on the trivial subgroup is the regular action, whose
    # cycle types differ from the natural ones on 3 points
    for action, types in ((None, ((1, 1, 1), (2, 1), (3,))),
                          (coset_action(g, Subgroup.trivial(g)),
                           ((1,) * 6, (2, 2, 2), (3, 3)))):
        rep = chebotarev_report(s, 7, action=action)
        assert rep.types == types
        k = len(conjugacy_classes(g))
        for cutoff in range(1, 8):
            rows = rep.rows_at(cutoff)
            assert len(rows) == k
            total = sum(r.count for r in rows)
            assert sum(r.density for r in rows) == (1 if total else 0)
            for r in rows:
                if total:
                    assert r.density == Fraction(r.count, total)
                assert r.deviation == abs(r.density - r.target)
            type_rows = rep.rows_at(cutoff, types=True)
            assert [r.key for r in type_rows] == \
                ["type:(" + ",".join(map(str, t)) + ")" for t in types]
            assert sum(r.count for r in type_rows) == total
            assert sum(r.target for r in type_rows) == 1
        assert sum(r.count for r in rep.final_type_rows) == rep.total_counted


def test_chebotarev_rejects_action_on_another_group():
    s = two_state_s3()
    other = parse_hom_data({"degree": 3, "images": ["(1 2 3)", "(1 2)"]}).target
    with pytest.raises(ValueError, match="coset action"):
        chebotarev_report(s, 4, action=coset_action(other, Subgroup.trivial(other)))


def test_chebotarev_skip_drops_shortest():
    s = golden_mean()
    rep = chebotarev_report(s, 8, skip=3)
    assert rep.total_counted == 14
    # the skipped orbits stay skipped at every cutoff
    assert [r.count for r in rep.rows_at(3)] == [0]
    assert [r.count for r in rep.rows_at(4)] == [1]


def test_chebotarev_skip_matches_enumeration():
    # every cut, including those inside a length, against the stream order
    s = two_state_s3()
    k = len(conjugacy_classes(s.hom.target))
    orbits = list(enumerate_orbits(s, 6))
    assert any(a.length == b.length for a, b in zip(orbits, orbits[1:]))
    for skip in range(len(orbits)):
        rep = chebotarev_report(s, 6, skip=skip)
        assert rep.total_counted == len(orbits) - skip
        for cutoff in range(1, 7):
            kept = Counter(o.frobenius_class for o in orbits[skip:]
                           if o.length <= cutoff)
            assert [r.count for r in rep.rows_at(cutoff)] == \
                [kept[ci] for ci in range(k)], (skip, cutoff)


def test_chebotarev_skip_must_leave_an_orbit():
    s = golden_mean()
    for skip in (17, 18, 1000):  # 17 orbits of length <= 8
        with pytest.raises(ValueError, match="leaves no orbit"):
            chebotarev_report(s, 8, skip=skip)


def test_chebotarev_requires_surjective_hom():
    hom = parse_hom_data({"degree": 3, "images": ["(1 2 3)", "(1 2)"]})
    sub = GroupHom(hom.presentation, hom.target,
                   (hom.images[0], hom.images[0]))
    s = LabeledSFT(1, [SftEdge(0, 0, parse_word("x1")),
                       SftEdge(0, 0, parse_word("x2"))], sub)
    with pytest.raises(ValueError):
        chebotarev_report(s, 4)


def test_realization_check_bundled():
    s, _ = bundled_a5()
    rep = realization_check(s, 6)
    assert rep.passed
    assert rep.strongly_connected and rep.aperiodic
    assert rep.holonomy_order == 60 and rep.holonomy_generates
    assert [w.length for w in rep.class_witnesses] == [6, 1, 2, 1, 1]


def test_realization_check_rejects_bound_below_one():
    s, _ = bundled_a5()
    for bound in (0, -1):
        with pytest.raises(ValueError, match="^bound must be at least 1$"):
            realization_check(s, bound)


def test_realization_check_identity_labels():
    # every label trivial: holonomy group collapses, most classes unreachable
    hom = parse_hom_data({"degree": 3, "images": ["(1 2 3)", "(1 2)"]})
    s = LabeledSFT(1, [SftEdge(0, 0, parse_word("x1 x1^-1"))], hom)
    rep = realization_check(s, 5)
    assert not rep.passed
    assert rep.holonomy_order == 1
    assert not rep.holonomy_generates
    assert len(rep.missing_classes) == 2  # identity class is still hit


def test_realization_check_disconnected():
    hom = trivial_hom()
    w = parse_word("x1")
    s = LabeledSFT(2, [SftEdge(0, 0, w), SftEdge(0, 1, w),
                       SftEdge(1, 1, w)], hom)
    rep = realization_check(s, 4)
    assert not rep.strongly_connected
    assert not rep.passed


def test_realization_check_periodic():
    hom = trivial_hom()
    w = parse_word("x1")
    s = LabeledSFT(2, [SftEdge(0, 1, w), SftEdge(1, 0, w)], hom)
    rep = realization_check(s, 4)
    assert rep.strongly_connected
    assert rep.period == 2
    assert not rep.passed


def test_random_sfts_conservation_property():
    # random small shifts over random corpus groups: the DP counts, both as
    # the divisor inversion of exact_counts and as chebotarev_report rows,
    # must match orbit enumeration and the brute-force orbit set
    rng = random.Random(77)
    names = ["c2", "s3", "v4"]
    for trial in range(12):
        g = GROUPS[rng.choice(names)]
        hom = GroupHom(Presentation(2, ()), g,
                       (g.generators[0], g.generators[-1]))
        states = rng.randrange(1, 4)
        edges = []
        for st in range(states):
            fanout = rng.randrange(1, 3)
            for _ in range(fanout):
                dst = rng.randrange(states)
                letters = rng.choices([1, -1, 2, -2], k=rng.randrange(3))
                edges.append(SftEdge(st, dst, reduce(letters)))
        s = LabeledSFT(states, edges, hom)
        enumerated = enumerated_counts(s, 6)
        brute = Counter()
        for n, seq in brute_force_orbits(s, 6):
            acc = g.identity
            for ei in seq:
                acc = g.mul(acc, s.edge_elem[ei])
            brute[(n, class_index(g, acc))] += 1
        assert enumerated == brute, trial
        assert dp_counts(s, 6) == enumerated, trial
        rep = chebotarev_report(s, 6)
        k = len(conjugacy_classes(g))
        for cutoff in range(1, 7):
            assert [r.count for r in rep.rows_at(cutoff)] == [
                sum(enumerated[(n, ci)] for n in range(1, cutoff + 1))
                for ci in range(k)], (trial, cutoff)
