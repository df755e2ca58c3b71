import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheblink import (CosetAction, GroupHom, LabeledSFT, Presentation, SftEdge,
                      Subgroup, all_subgroups, bundled_a5, chebotarev_report, class_index,
                      conjugacy_classes, conjugates, cycle_type, enumerate_orbits,
                      exact_counts, parse_hom_data, parse_sft_data, parse_word,
                      permutation_character, primitive_counts, realization_check, reduce)
from cheblink import sft
from cheblink.sft import DP_STATE_CAP, LENGTH_CAP, DensityRow

from corpus import corpus, psl27
from oracles import brute_force_orbits, closed_path_totals_unpruned, realization_by_passes

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


def test_exact_counts_cap(monkeypatch):
    s = golden_mean()
    monkeypatch.setattr(sft, "DP_STATE_CAP", 1)
    with pytest.raises(ValueError):
        exact_counts(s, 3)


def test_length_cap():
    s = golden_mean()
    lucas = [2, 1]
    while len(lucas) <= LENGTH_CAP:
        lucas.append(lucas[-1] + lucas[-2])
    assert exact_counts(s, LENGTH_CAP) == (lucas[LENGTH_CAP],)
    with pytest.raises(ValueError, match="length cap"):
        exact_counts(s, LENGTH_CAP + 1)
    with pytest.raises(ValueError, match="length cap"):
        chebotarev_report(s, LENGTH_CAP + 1)


def test_state_cap():
    loop = [SftEdge(0, 0, parse_word("x1"))]
    assert LabeledSFT(DP_STATE_CAP, loop, trivial_hom()).state_count == DP_STATE_CAP
    with pytest.raises(ValueError, match="states exceed the cap"):
        LabeledSFT(DP_STATE_CAP + 1, loop, trivial_hom())


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
    for subgroup, types in ((None, ((1, 1, 1), (2, 1), (3,))),
                            (Subgroup.trivial(g),
                             ((1,) * 6, (2, 2, 2), (3, 3)))):
        rep = chebotarev_report(s, 7, subgroup=subgroup)
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
    with pytest.raises(ValueError, match="different group"):
        chebotarev_report(s, 4, subgroup=Subgroup.trivial(other))


def test_chebotarev_refuses_foreign_subgroup_before_counting(monkeypatch):
    def no_counting(*args, **kwargs):
        raise AssertionError("the transfer DP ran")

    s = two_state_s3()
    other = parse_hom_data({"degree": 3, "images": ["(1 2 3)", "(1 2)"]}).target
    monkeypatch.setattr(sft, "_closed_path_totals", no_counting)
    with pytest.raises(ValueError, match="different group"):
        chebotarev_report(s, 4, subgroup=Subgroup.whole(other))


def type_rows_by_coset_action(report, g, h):
    """The report's class rows aggregated by the cycle type of each class
    representative's coset-action image: the coset route, kept as the oracle
    for the character route the report takes."""
    act = CosetAction(g, h)
    type_of_class = [cycle_type(act.image(c.representative)) for c in conjugacy_classes(g)]
    types = sorted(set(type_of_class))
    rows = []
    for cutoff in range(1, report.max_len + 1):
        class_rows = report.rows_at(cutoff)
        total = sum(r.count for r in class_rows)
        for t in types:
            picked = [r for r, tc in zip(class_rows, type_of_class) if tc == t]
            count = sum(r.count for r in picked)
            target = sum(r.target for r in picked)
            density = Fraction(count, total) if total else Fraction(0)
            rows.append(DensityRow(cutoff, "type:(" + ",".join(map(str, t)) + ")", count,
                                   density, target, abs(density - target)))
    return tuple(rows)


def test_report_types_match_the_coset_route_on_every_a5_subgroup():
    s, hom = bundled_a5()
    g = hom.target
    subs = all_subgroups(g)
    assert len(subs) == 59
    for h in subs:
        rep = chebotarev_report(s, 11, subgroup=h)
        assert rep.type_rows == type_rows_by_coset_action(rep, g, h), sorted(h.members)


def gassmann_pairs(g):
    """Pairs of subgroup class representatives of g with equal permutation
    characters, in the order of all_subgroups."""
    reps, seen = [], set()
    for h in all_subgroups(g):
        if h.members not in seen:
            seen |= conjugates(g, h.members)
            reps.append(h)
    return reps, [(a, b) for i, a in enumerate(reps) for b in reps[i + 1:]
                  if permutation_character(g, a) == permutation_character(g, b)]


def test_gassmann_pairs_of_psl27_have_one_law():
    # non-conjugate subgroups with one permutation character give every
    # class one decomposition type, so their covers share the law at every
    # cutoff: the knot analogue of arithmetically equivalent number fields
    g = psl27()
    reps, pairs = gassmann_pairs(g)
    assert len(reps) == 15
    assert [(a.index, b.index) for a, b in pairs] == [(42, 42), (14, 14), (7, 7)]
    x = parse_word("x1"), parse_word("x2")
    s = LabeledSFT(1, [SftEdge(0, 0, x[0]), SftEdge(0, 0, x[1])],
                   GroupHom(Presentation(2, ()), g, g.generators))
    for a, b in pairs:
        assert b.members not in conjugates(g, a.members)
        coset_types = [[cycle_type(CosetAction(g, h).image(c.representative))
                        for c in conjugacy_classes(g)] for h in (a, b)]
        assert coset_types[0] == coset_types[1]
        assert chebotarev_report(s, 14, subgroup=a).type_rows == \
            chebotarev_report(s, 14, subgroup=b).type_rows


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


def s3_two_transposition_loops():
    """One state, loops labelled (1 2) and (1 3): every orbit of length n
    has sign (-1)^n, so the lift on states x S3 has period 2."""
    hom = parse_hom_data({"degree": 3, "images": ["(1 2)", "(1 3)"]})
    return LabeledSFT(1, [SftEdge(0, 0, parse_word("x1")),
                          SftEdge(0, 0, parse_word("x2"))], hom)


def test_realization_check_fails_a_lift_of_period_two():
    rep = realization_check(s3_two_transposition_loops(), 4)
    assert rep.strongly_connected
    assert rep.holonomy_order == 6 and rep.holonomy_generates
    assert not rep.missing_classes
    assert rep.period == 2
    assert not rep.passed


@st.composite
def small_shift_specs(draw):
    """(corpus group, state count, edges as (src, dst, letters))."""
    states = draw(st.integers(1, 3))
    node = st.integers(0, states - 1)
    letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=2)
    edges = draw(st.lists(st.tuples(node, node, letters), min_size=1, max_size=6))
    return draw(st.sampled_from(["c2", "s3", "v4"])), states, edges


def shift_from_spec(spec):
    name, states, edges = spec
    g = GROUPS[name]
    hom = GroupHom(Presentation(2, ()), g, (g.generators[0], g.generators[-1]))
    return LabeledSFT(states, [SftEdge(a, b, reduce(list(w))) for a, b, w in edges], hom)


@settings(max_examples=150)
@given(small_shift_specs())
@example(("s3", 1, [(0, 0, [2]), (0, 0, [2, 1])]))         # lift period 2
@example(("c2", 2, [(0, 1, []), (1, 0, [])]))              # base period 2
@example(("c2", 2, [(0, 1, [1]), (1, 0, []), (0, 0, [])]))  # aperiodic, generating
@example(("v4", 2, [(0, 0, [1]), (0, 1, []), (1, 1, [2])]))  # not strongly connected
@example(("s3", 2, [(0, 0, [1]), (1, 1, [2])]))            # not weakly connected
@example(("s3", 2, [(0, 0, [1]), (0, 1, [2]), (1, 0, [1, 2]), (1, 1, [-2, 1])]))
def test_realization_lift_search_matches_oracles(spec):
    # strong connectivity and holonomy against the separate base passes;
    # the lift period against the gcd of the lengths of closed lift paths,
    # which the DP counts as closed paths with identity holonomy
    s = shift_from_spec(spec)
    g = s.hom.target
    rep = realization_check(s, 1)
    connected, base_period, holonomy_order = realization_by_passes(s)
    assert rep.strongly_connected == connected
    if not connected:
        assert rep.period is None
        # loops at state 0 along the edges' direction generate a subgroup
        # of what loops along either direction generate
        assert holonomy_order % rep.holonomy_order == 0
        return
    assert rep.holonomy_order == holonomy_order
    assert rep.holonomy_generates == (holonomy_order == g.order)
    ident = class_index(g, g.identity)
    closed = [n for n in range(1, s.state_count * g.order + 1)
              if exact_counts(s, n)[ident]]
    assert rep.period == gcd(*closed)
    assert rep.period % base_period == 0


def one_way_shift():
    """0 -> 0, 0 -> 1, 1 -> 1, labeled into s3: no path from 1 gets back to 0."""
    hom = parse_hom_data({"degree": 3, "images": ["(1 2 3)", "(1 2)"]})
    edges = [SftEdge(0, 0, parse_word("x1")), SftEdge(0, 1, parse_word("x2")),
             SftEdge(1, 1, parse_word("x1 x2"))]
    return LabeledSFT(2, edges, hom)


@st.composite
def dp_shifts(draw):
    """Shifts of 1-5 states and 1-8 edges labeled into a corpus group.  Few
    edges on many states leave states with no out-edges, transient states
    and sink components."""
    name = draw(st.sampled_from(sorted(n for n, g in GROUPS.items() if g.generators)))
    states = draw(st.integers(1, 5))
    node = st.integers(0, states - 1)
    letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3)
    edges = draw(st.lists(st.tuples(node, node, letters), min_size=1, max_size=8))
    return shift_from_spec((name, states, edges))


@settings(max_examples=150)
@given(dp_shifts())
@example(bundled_a5()[0])
@example(golden_mean())
@example(one_way_shift())
def test_pruned_transfer_matches_unpruned_oracle(s):
    # the skip depends on max_n, so every max_n is its own run
    for max_n in range(11):
        assert sft._closed_path_totals(s, max_n) == closed_path_totals_unpruned(s, max_n), max_n


def chain_into_sink(core=False):
    """State 0 loops and feeds the one-way chain 1 -> 2 -> 3 -> 4 into the
    looping sink 4; labels in s3.  With ``core`` an edge 1 -> 0 joins states
    0 and 1 into a component whose counts fill a quarter of states x G, so
    the DP turns dense there while the chain still leads away."""
    hom = parse_hom_data({"degree": 3, "images": ["(1 2 3)", "(1 2)"]})
    x1, x2 = parse_word("x1"), parse_word("x2")
    edges = [SftEdge(0, 0, x1), SftEdge(0, 1, x2), SftEdge(1, 2, x1), SftEdge(2, 3, x2),
             SftEdge(3, 4, x1), SftEdge(4, 4, x2), SftEdge(4, 4, x1)]
    if core:
        edges.append(SftEdge(1, 0, x1))
    return LabeledSFT(5, edges, hom)


def count_transfer_work(monkeypatch):
    """Count the transfer DP's work at its two seams: one per row lookup of
    a sparse step (``_lift_moves``, which the unpruned oracle reads too) and
    |G| per vector a dense step moves (``_dense_moves``).  Returns the
    counter [sparse lookups, dense translations]."""
    work = [0, 0]

    class CountingRow(tuple):
        def __getitem__(self, i):
            work[0] += 1
            return tuple.__getitem__(self, i)

    def counted(pick, order):
        def moved(vec):
            work[1] += order
            return pick(vec)
        return moved

    lift_moves, dense_moves = sft._lift_moves, sft._dense_moves
    monkeypatch.setattr(sft, "_lift_moves", lambda s: [
        [(dst, CountingRow(row)) for dst, row in m] for m in lift_moves(s)])
    monkeypatch.setattr(sft, "_dense_moves", lambda s: [
        [(dst, counted(pick, s.hom.target.order)) for dst, pick in m] for m in dense_moves(s)])
    return work


def test_transfer_skips_counts_that_cannot_close(monkeypatch):
    # counts that flow down the chain never return to a start state, so the
    # DP should not push them, in the sparse phase or the dense one
    work = count_transfer_work(monkeypatch)
    for core in (False, True):
        s = chain_into_sink(core)
        work[:] = [0, 0]
        got = exact_counts(s, 12)
        pruned, dense = sum(work), work[1]
        work[:] = [0, 0]
        assert got == tuple(closed_path_totals_unpruned(s, 12)[12])
        assert (dense > 0) == core
        assert 0 < 2 * pruned <= work[0], core


def s6_shift():
    """Six states, two out-edges each, labels onto S6: over 16 steps its
    counts fill a quarter of states x G only for the last few."""
    hom = parse_hom_data({"degree": 6, "images": ["(1 2)", "(1 2 3 4 5 6)"]})
    edges = [(0, 1, "x1"), (0, 3, "x2"), (1, 2, "x2 x1"), (1, 4, "x2^-1"),
             (2, 0, "x1 x2 x2"), (2, 5, "x2"), (3, 4, "x2 x1 x2^-1"), (3, 0, "x2 x2"),
             (4, 5, "x1 x2^-1"), (4, 2, "x2^-1 x1"), (5, 0, "x2 x1 x2"), (5, 3, "x1 x2 x1")]
    return LabeledSFT(6, [SftEdge(a, b, parse_word(w)) for a, b, w in edges], hom)


def a5_four_states():
    """Four states, three out-edges each, labeled through the bundled A5 hom:
    its counts fill a quarter of states x G within a few steps."""
    hom = bundled_a5()[1]
    edges = [(0, 0, "x1"), (0, 1, "x2"), (0, 2, "x1 x2"), (1, 2, "x2^-1"), (1, 3, "x1"),
             (1, 0, "x2 x1"), (2, 3, "x1^-1"), (2, 0, "x2 x2"), (2, 1, "x1 x2^-1"),
             (3, 0, "x2"), (3, 1, "x1 x1"), (3, 3, "x2 x1^-1")]
    return LabeledSFT(4, [SftEdge(a, b, parse_word(w)) for a, b, w in edges], hom)


def abelian_shift():
    """Three states labeled into the cyclic group of order 6, where every
    class has one element."""
    return shift_from_spec(("c6", 3, [(0, 1, [1]), (0, 0, [2]), (1, 2, [1, 1]),
                                      (1, 0, []), (2, 0, [-1]), (2, 2, [2])]))


@pytest.mark.parametrize("make", [s6_shift, a5_four_states, golden_mean, abelian_shift])
def test_dense_transfer_matches_unpruned_oracle(make, monkeypatch):
    # long enough that the counts turn dense, through each of the readout's
    # cases: classes of many elements, of one, and the degree-1 trivial group
    work = count_transfer_work(monkeypatch)
    s = make()
    oracle = closed_path_totals_unpruned(s, 16)
    work[:] = [0, 0]
    got = sft._closed_path_totals(s, 16)
    assert work[1] > 0
    assert got == oracle
    assert all(type(c) is int for row in got for c in row)
    for n in range(17):
        assert exact_counts(s, n) == tuple(oracle[n]), n


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
