import copy
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheblink import (CosetAction, FiniteGroup, GroupHom, LabeledSFT, Presentation, SftEdge,
                      Subgroup, all_subgroups, bundled_a5, chebotarev_report, class_index,
                      conjugacy_classes, conjugates, cycle_type, enumerate_orbits,
                      exact_counts, parse_hom_data, parse_sft_data, parse_word,
                      permutation_character, primitive_counts, realization_check, reduce)
from cheblink import sft
from cheblink.cli import ExperimentConfig, run_a5_experiment
from cheblink.sft import DP_STATE_CAP, LENGTH_CAP, DensityRow

from corpus import corpus, psl27
from oracles import (brute_force_orbits, closed_path_totals_unpruned, realization_by_passes,
                     witnesses_by_enumeration)

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
    assert [r.count for c in range(1, 9) for r in rep.rows_at(c)] == [1, 2, 3, 4, 6, 8, 12, 17]
    final = rep.rows_at(8)[0]
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
        assert sum(r.count for r in rep.rows_at(7, types=True)) == rep.total_counted


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
        assert tuple(r for c in range(1, 12) for r in rep.rows_at(c, types=True)) == \
            type_rows_by_coset_action(rep, g, h), sorted(h.members)


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
        ra, rb = (chebotarev_report(s, 14, subgroup=h) for h in (a, b))
        assert all(ra.rows_at(c, types=True) == rb.rows_at(c, types=True) for c in range(1, 15))


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
@given(small_shift_specs(), st.integers(1, 6))
@example(("c2", 2, [(0, 0, []), (0, 1, []), (1, 0, [])]), 6)  # golden_mean's graph
@example(("c2", 1, [(0, 0, [1]), (0, 0, [])]), 6)             # full_shift_z2
@example(("s3", 2, [(0, 0, [1]), (0, 1, [2]), (1, 0, [1, 2]), (1, 1, [-2, 1])]), 6)  # two_state_s3
@example(("s3", 1, [(0, 0, [1]), (0, 0, [2]), (0, 0, [1, 2])]), 6)  # one state, three loops
@example(("s3", 4, [(0, 1, [1]), (1, 2, [2]), (2, 3, []), (3, 0, [1]), (1, 0, [2])]),
         8)  # a 4-cycle with a chord back: the reach levels repeat with period 2 by level 6
def test_orbits_match_brute_force(spec, max_len):
    # the stream, in its order, with each holonomy the product of its edge
    # labels: witnesses_by_enumeration reads the stream, so this keeps the
    # witness oracle anchored to a search that shares no code with it
    s = shift_from_spec(spec)
    g = s.hom.target
    orbits = list(enumerate_orbits(s, max_len))
    assert [(o.length, o.edges) for o in orbits] == sorted(brute_force_orbits(s, max_len))
    for o in orbits:
        acc = g.identity
        for ei in o.edges:
            acc = g.mul(acc, s.edge_elem[ei])
        assert o.holonomy == acc


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
    # the skip depends on max_n, so every max_n is its own run; exact_counts
    # reads the tables it meets off the walks of that length
    for max_n in range(11):
        oracle = closed_path_totals_unpruned(s, max_n)
        assert sft._closed_path_totals(s, max_n) == oracle, max_n
        assert exact_counts(s, max_n) == tuple(oracle[max_n]), max_n


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
    """Count the transfer DP's work at its seams: one per row lookup of a
    sparse step (``_lift_moves``, which the unpruned oracle reads too), |G|
    per vector a dense step moves (``_dense_moves``), and the meet's work:
    one per pair it reads (``FiniteGroup.class_row``) and one per entry of
    the paths into the start it reads off each walk (``_Transfer.meet``).
    Returns the counter [sparse lookups, dense translations, meet reads,
    table entries]."""
    work = [0, 0, 0, 0]

    def counting_row(at):
        class CountingRow(tuple):
            def __getitem__(self, i):
                work[at] += 1
                return tuple.__getitem__(self, i)
        return CountingRow

    def counted(pick, order, at):
        def moved(vec):
            work[at] += order
            return pick(vec)
        return moved

    def counted_meet(tr, cur, table, s0, tot):
        work[3] += sum(len(counts[s0]) for here, counts in zip(cur, table) if here)
        return meet(tr, cur, table, s0, tot)

    step_row, meet_row = counting_row(0), counting_row(2)
    lift_moves, dense_moves = sft._lift_moves, sft._dense_moves
    meet, class_row = sft._Transfer.meet, FiniteGroup.class_row
    monkeypatch.setattr(sft, "_lift_moves", lambda s: [
        [(dst, step_row(row)) for dst, row in m] for m in lift_moves(s)])
    monkeypatch.setattr(sft, "_dense_moves", lambda s: [
        [(dst, counted(pick, s.hom.target.order, 1)) for dst, pick in m]
        for m in dense_moves(s)])
    monkeypatch.setattr(sft._Transfer, "meet", counted_meet)
    monkeypatch.setattr(FiniteGroup, "class_row", lambda g, x: meet_row(class_row(g, x)))
    return work


def test_transfer_skips_counts_that_cannot_close(monkeypatch):
    # counts that flow down the chain never return to a start state, so the
    # DP should not push them, in the sparse phase or the dense one, on
    # either route
    work = count_transfer_work(monkeypatch)
    for core in (False, True):
        s = chain_into_sink(core)
        work[:] = [0, 0, 0, 0]
        got = exact_counts(s, 12)
        pruned, dense = sum(work), work[1]
        work[:] = [0, 0, 0, 0]
        every = sft._closed_path_totals(s, 12)
        every_pruned, every_dense = sum(work), work[1]
        work[:] = [0, 0, 0, 0]
        oracle = closed_path_totals_unpruned(s, 12)
        assert got == tuple(oracle[12]) and every == oracle
        assert (dense > 0) == core and (every_dense > 0) == core
        assert 0 < 2 * pruned <= work[0], core
        assert 0 < 2 * every_pruned <= work[0], core


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
    work[:] = [0, 0, 0, 0]
    got = sft._closed_path_totals(s, 16)
    assert work[1] > 0
    assert got == oracle
    assert all(type(c) is int for row in got for c in row)
    for n in range(17):
        assert exact_counts(s, n) == tuple(oracle[n]), n


def test_meet_does_less_work_than_the_every_length_pass(monkeypatch):
    # the meet, the table entries it reads off the walks included, must cost
    # less than walking every step
    work = count_transfer_work(monkeypatch)
    s = s6_shift()
    work[:] = [0, 0, 0, 0]
    every = sft._closed_path_totals(s, 15)
    every_work = sum(work)
    work[:] = [0, 0, 0, 0]
    assert exact_counts(s, 15) == tuple(every[15])
    assert work[2] > 0 and work[3] > 0
    assert sum(work) < every_work


def chain_with_core():
    return chain_into_sink(core=True)


def bundled_shift():
    return bundled_a5()[0]


ROUTE_SHIFTS = [s6_shift, a5_four_states, golden_mean, abelian_shift, chain_into_sink,
                chain_with_core, bundled_shift]


@pytest.mark.parametrize("make", ROUTE_SHIFTS)
def test_both_counting_routes_agree(make):
    # exact_counts meets in the middle, the every-length pass walks every
    # step: through the trivial group of degree 1 (golden_mean), classes of
    # one element (abelian_shift), chains that lead away, and both phases
    s = make()
    every = sft._closed_path_totals(s, 64)
    for n in range(65):
        got = exact_counts(s, n)
        assert got == tuple(every[n]), n
        assert all(type(c) is int for c in got), n


@pytest.mark.parametrize("make", ROUTE_SHIFTS)
def test_one_length_costs_no_more_than_every_length(make, monkeypatch):
    # a start meets only when its pairs cost no more than b dense steps, and
    # lists the table only then, so exact_counts does no more work than the
    # every-length pass to the same length
    work = count_transfer_work(monkeypatch)
    s = make()
    for n in range(25):
        work[:] = [0, 0, 0, 0]
        sft._closed_path_totals(s, n)
        every = sum(work)
        work[:] = [0, 0, 0, 0]
        exact_counts(s, n)
        assert sum(work) <= every, (n, work, every)


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


@pytest.mark.parametrize("make", [two_state_s3, golden_mean, one_way_shift, chain_into_sink,
                                  abelian_shift, a5_four_states])
def test_report_counts_are_running_sums_of_primitive_counts(make):
    # with a skip, the running sums lose the leading orbits of the stream
    s = make()
    g = s.hom.target
    prim = primitive_counts(g, [exact_counts(s, n) for n in range(1, 11)])
    available = sum(map(sum, prim))
    for skip in (0, 1, 5):
        if skip >= available:
            continue
        dropped = Counter((o.length, o.frobenius_class)
                          for o in islice(enumerate_orbits(s, 10), skip))
        rep = chebotarev_report(s, 10, skip=skip)
        assert len(rep.counts) == 10
        running = [0] * len(prim[0])
        for n, row in enumerate(prim, start=1):
            running = [r + c - dropped[(n, ci)] for ci, (r, c) in enumerate(zip(running, row))]
            assert rep.counts[n - 1] == tuple(running), (skip, n)
        assert all(type(c) is int for row in rep.counts for c in row)
        assert rep.total_counted == available - skip


def test_rows_at_outside_the_cutoffs_is_empty():
    # counts[cutoff - 1] at cutoff 0 would read the last cutoff's counts
    rep = chebotarev_report(golden_mean(), 8)
    for types in (False, True):
        assert len(rep.rows_at(8, types=types)) == 1
        for cutoff in (-1, 0, 9):
            assert rep.rows_at(cutoff, types=types) == [], (cutoff, types)


def count_built(monkeypatch, *names):
    """Count the calls of each named constructor of the sft module."""
    built = Counter()

    def counting(name, make):
        def build(*args):
            built[name] += 1
            return make(*args)
        return build

    for name in names:
        monkeypatch.setattr(sft, name, counting(name, getattr(sft, name)))
    return built


def test_chebotarev_report_builds_no_row_or_fraction(monkeypatch):
    # the report keeps integer counts; rows_at builds rows on request
    built = count_built(monkeypatch, "DensityRow", "Fraction")
    s, _ = bundled_a5()
    rep = chebotarev_report(s, LENGTH_CAP)
    assert not built
    assert len(rep.counts) == LENGTH_CAP
    rows = rep.rows_at(LENGTH_CAP, types=True)
    assert built["DensityRow"] == len(rows) == len(rep.types) == 4
    assert sum(r.count for r in rows) == rep.total_counted


def bundled_shift():
    return bundled_a5()[0]


def cyclic_label_shift():
    """One state, loops x1, x1 x1 and x1 x1 x1 into A5: every holonomy is a
    power of a 5-cycle, so the classes (2,2,1) and (3,1,1) have no orbit."""
    hom = bundled_a5()[1]
    return LabeledSFT(1, [SftEdge(0, 0, parse_word(w)) for w in ("x1", "x1 x1", "x1 x1 x1")],
                      hom)


@pytest.mark.parametrize("make", [bundled_shift, two_state_s3, golden_mean, full_shift_z2,
                                  one_way_shift, chain_into_sink, a5_four_states, abelian_shift,
                                  s6_shift, s3_two_transposition_loops, cyclic_label_shift])
def test_witnesses_match_the_enumeration_oracle(make):
    # each class's witness is the first orbit of that class in the stream; at
    # bound 8 the searches restart after each witness on longer cycles
    s = make()
    for bound in [*range(1, 7), *([8] if make in (a5_four_states, s6_shift) else [])]:
        assert realization_check(s, bound).class_witnesses == \
            witnesses_by_enumeration(s, bound), bound


@settings(max_examples=100)
@given(small_shift_specs(), st.integers(1, 6))
# the identity's first orbits come after the back tables' levels repeat
@example(("v4", 1, [(0, 0, [-2]), (0, 0, [-1])]), 6)
@example(("c6", 1, [(0, 0, [-1, -2]), (0, 0, [1])]), 6)
def test_witnesses_match_the_enumeration_oracle_on_random_shifts(spec, bound):
    s = shift_from_spec(spec)
    assert realization_check(s, bound).class_witnesses == witnesses_by_enumeration(s, bound)


def count_muls(monkeypatch, g):
    calls = Counter()
    mul = g.mul

    def counting(i, j):
        calls["mul"] += 1
        return mul(i, j)

    monkeypatch.setattr(g, "mul", counting)
    return calls


@pytest.mark.parametrize("bound", [14, 200])
def test_witness_search_work_bounded_on_cyclic_labels(bound, monkeypatch):
    # the missing classes are pruned at every start edge, so the search makes
    # the same two products at any bound, and its tables stop growing once
    # their levels repeat; streaming the orbits makes 206,673 products at
    # bound 12, about three times more per unit of bound
    s = cyclic_label_shift()
    g = s.hom.target
    calls = count_muls(monkeypatch, g)
    extend = sft._BackTable.extend

    def counting_extend(self, r):
        made = extend(self, r)
        calls["cells"] += made
        return made

    monkeypatch.setattr(sft._BackTable, "extend", counting_extend)
    rep = realization_check(s, bound)
    assert rep.missing_classes == (1, 2) and not rep.passed
    assert [w and w.edges for w in rep.class_witnesses] == [(1, 2), None, None, (0,), (1,)]
    assert calls["mul"] <= 10
    assert calls["cells"] <= 4 * len(s.edges) * g.order


def test_witness_search_keeps_one_table_per_start_state(monkeypatch):
    # the a5-density pool's shape (4 states, out-degree 3, A5) at bound 8:
    # one back table per start state, and one search per (length, start edge)
    # plus one more after each witness it finds there
    s = a5_four_states()
    tables, searches = [], []
    init, cycles = sft._BackTable.__init__, sft._cycles

    def counting_init(self, moves, s0, class_of):
        tables.append(s0)
        init(self, moves, s0, class_of)

    def counting_cycles(s, length, e0, allowed, want):
        searches.append((length, e0))
        return cycles(s, length, e0, allowed, want)

    monkeypatch.setattr(sft._BackTable, "__init__", counting_init)
    monkeypatch.setattr(sft, "_cycles", counting_cycles)
    rep = realization_check(s, 8)
    assert rep.passed
    assert len(tables) == len(set(tables)) <= s.state_count
    assert len(searches) <= len(set(searches)) + len(rep.class_witnesses)


def test_orbit_stream_work_pinned(monkeypatch):
    # one product per kept prefix step, and a closed path's product only
    # once it is canonical and primitive
    s, _ = bundled_a5()
    calls = count_muls(monkeypatch, s.hom.target)
    assert sum(1 for _ in enumerate_orbits(s, 8)) == 1318
    assert calls["mul"] <= 2689


def directed_cycle(n):
    """n states in one directed cycle, every edge labelled (1 2) in C2."""
    hom = parse_hom_data({"degree": 2, "images": ["(1 2)"]})
    w = parse_word("x1")
    return LabeledSFT(n, [SftEdge(i, (i + 1) % n, w) for i in range(n)], hom)


def test_orbit_stream_reach_levels_stop_growing():
    # each start state's reach levels repeat with period 40, so the stream
    # keeps 40 levels per start state and references past them: a stream
    # that grew a level of 40 entries per start state at every length would
    # hold 1,000 and peak at about 15 MiB
    s = directed_cycle(40)
    tracemalloc.start()
    try:
        orbits = list(enumerate_orbits(s, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(o.length, o.edges) for o in orbits] == [(40, tuple(range(40)))]
    assert peak < 5 * 2 ** 20


def test_orbit_stream_keeps_each_reach_level_once():
    # a level of 100 cells per start state at each of the 100 lengths before
    # the levels repeat: kept once, as the tuple that keys the table's seen
    # levels, the stream peaks at about 10.2 MiB, and at about 18.3 MiB when
    # each level is also kept as a list
    s = directed_cycle(100)
    tracemalloc.start()
    try:
        orbits = list(enumerate_orbits(s, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(o.length, o.edges) for o in orbits] == [(100, tuple(range(100)))]
    assert peak < 14 * 2 ** 20


@pytest.mark.parametrize("stream", [False, True], ids=["witness", "stream"])
def test_back_table_levels_are_the_keys_of_seen(stream):
    # the 4-cycle with a chord back from test_orbits_match_brute_force: its
    # levels repeat with period 2, the stream's from level 3 and the witness
    # search's, which carry class bitmasks per holonomy in S3, from level 19
    s = shift_from_spec(("s3", 4, [(0, 1, [1]), (1, 2, [2]), (2, 3, []), (3, 0, [1]),
                                   (1, 0, [2])]))
    g = s.hom.target
    if stream:
        moves = [[(s.edge_dst[ei], None) for ei in out] for out in s.out_edges]
        back = sft._BackTable(moves, 0, b"\xff" * g.order)
    else:
        back = sft._BackTable(sft._lift_moves(s), 0, tuple(1 << c for c in g.class_of))
    back.extend(24)
    assert back.period == 2 and len(back.seen) < len(back.levels) == 25
    assert all(type(level) is tuple for level in back.levels)
    assert sorted(back.seen.values()) == list(range(len(back.seen)))
    for level, r in back.seen.items():
        assert back.levels[r] is level
    for r in range(len(back.seen), 25):
        assert back.levels[r] is back.levels[r - 2]


def test_witness_search_work_pinned(monkeypatch):
    s, _ = bundled_a5()
    calls = count_muls(monkeypatch, s.hom.target)
    assert realization_check(s, 6).passed
    assert calls["mul"] <= 52


def test_realization_bound_over_the_length_cap_is_refused():
    s, _ = bundled_a5()
    with pytest.raises(ValueError, match=f"^bound {LENGTH_CAP + 1} exceeds the length cap"):
        realization_check(s, LENGTH_CAP + 1)


def test_orbit_stream_over_the_length_cap_is_refused():
    # refused at the first next(), before a reach level is grown
    s, _ = bundled_a5()
    with pytest.raises(ValueError, match=f"^max_len {LENGTH_CAP + 1} exceeds the length cap"):
        next(enumerate_orbits(s, LENGTH_CAP + 1))


@pytest.mark.parametrize("make", [bundled_shift, a5_four_states])
def test_no_call_leaves_state_on_the_shift(make):
    # the stream's reach levels, the DP's walks and the witness tables live
    # in the call; only the group keeps rows
    s = make()
    before = {name: copy.deepcopy(v) for name, v in vars(s).items() if name != "hom"}
    assert sum(1 for _ in enumerate_orbits(s, 6))
    exact_counts(s, 12)
    chebotarev_report(s, 8)
    realization_check(s, 6)
    assert {name: v for name, v in vars(s).items() if name != "hom"} == before


def test_witness_tables_over_the_cap_are_refused(monkeypatch):
    # 4 states x D6 is a lift of 48 vertices; at bound 6 the back tables of
    # its start states compute 732 cells, past 48 x 6
    g = GROUPS["d6"]
    hom = GroupHom(Presentation(2, ()), g, (g.generators[0], g.generators[-1]))
    e, x2 = parse_word(""), parse_word("x2")
    s = LabeledSFT(4, [SftEdge(1, 0, e), SftEdge(0, 3, e), SftEdge(2, 3, e), SftEdge(3, 1, x2),
                       SftEdge(1, 3, e), SftEdge(3, 2, x2), SftEdge(0, 0, e), SftEdge(3, 2, e)],
                   hom)
    assert realization_check(s, 6).class_witnesses == witnesses_by_enumeration(s, 6)
    monkeypatch.setattr(sft, "DP_STATE_CAP", 48)
    with pytest.raises(ValueError, match="tables pass 288 cells"):
        realization_check(s, 6)


@pytest.mark.parametrize("max_len, skip", [(11, 0), (8, 1), (40, 1000), (6, 195)])
def test_max_type_deviation_is_the_largest_row_deviation(max_len, skip):
    # A5Result.max_deviation is the one exact maximum: the largest type row's
    # deviation at the cutoff, redone here from the tally's integers; at
    # (6, 195) the skip leaves one orbit
    result = run_a5_experiment(ExperimentConfig(max_len=max_len, skip=skip))
    rep = result.report
    assert result.max_deviation == max(r.deviation for r in rep.rows_at(max_len, types=True))
    _, counts, sizes, total = rep.tally(max_len, types=True)
    assert result.max_deviation == max(abs(Fraction(c, total) - Fraction(size, rep.group_order))
                                       for c, size in zip(counts, sizes))
    # a 3-cycle has no orbit up to length 2: every density is 0
    w = parse_word("x1")
    ring = LabeledSFT(3, [SftEdge(0, 1, w), SftEdge(1, 2, w), SftEdge(2, 0, w)], trivial_hom())
    rep = chebotarev_report(ring, 2)
    assert rep.total_counted == 0
    assert max(r.deviation for r in rep.rows_at(2, types=True)) == 1
