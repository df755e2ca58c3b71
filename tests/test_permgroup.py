import functools
import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheblink import (ConjugacyClass, CosetAction, Permutation, Subgroup, all_subgroups,
                      class_index, compose, conjugacy_classes, conjugates,
                      cycle_type, generate_group, generated_set, group_file_data,
                      load_group_file, parse_group_data, permgroup, permutation_character,
                      power_classes, powers)
from cheblink.cli import main, parse_subgroup

from corpus import corpus, perm_group, psl27, EXPECTED_ORDERS
from oracles import (closure_by_products, conjugates_by_every_element, coset_image_by_sets,
                     powers_by_composition, subgroups_by_all_joins)

GROUPS = corpus()


def test_parse_roundtrip():
    p = Permutation.parse("(1 2 3)(4 5)", 6)
    assert p.cycle_string() == "(1 2 3)(4 5)"
    assert Permutation.parse("()", 3) == Permutation.identity(3)
    assert Permutation.parse(p.cycle_string(), 6) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Permutation.parse("(1 2) junk", 3)
    with pytest.raises(ValueError):
        Permutation.parse("(1 1 2)", 3)
    with pytest.raises(ValueError):
        Permutation.parse("(1 4)", 3)


def test_compose_applies_right_factor_first():
    a = Permutation.parse("(1 2)", 3)
    b = Permutation.parse("(2 3)", 3)
    assert compose(a, b) == Permutation.parse("(1 2 3)", 3)
    assert compose(b, a) == Permutation.parse("(1 3 2)", 3)


def test_cycle_type_sorted_with_fixed_points():
    assert cycle_type(Permutation.parse("(1 2)(3 4 5)", 6).images) == (3, 2, 1)
    assert cycle_type(Permutation.identity(4).images) == (1, 1, 1, 1)


def test_inverse_and_call():
    p = Permutation.parse("(1 2 3 4)", 4)
    assert p(0) == 1
    assert compose(p, p.inverse()).is_identity()


def test_corpus_orders():
    for name, g in GROUPS.items():
        assert g.order == EXPECTED_ORDERS[name], name


def test_identity_is_element_zero():
    for g in GROUPS.values():
        assert g.identity == 0
        assert g.elements[0].is_identity()


def test_mul_matches_composition():
    rng = random.Random(7)
    for g in GROUPS.values():
        for _ in range(30):
            i, j = rng.randrange(g.order), rng.randrange(g.order)
            assert g.elements[g.mul(i, j)] == compose(g.elements[i], g.elements[j])
            assert g.mul(i, g.inv(i)) == g.identity


def test_word_for_reconstructs_elements():
    for g in GROUPS.values():
        for i in range(g.order):
            acc = g.identity
            for letter in g.word_for(i):
                assert letter > 0
                acc = g.mul(acc, g.generators[letter - 1])
            assert acc == i


@pytest.mark.parametrize("name", EXPECTED_ORDERS)
def test_powers_match_composition(name):
    g = GROUPS[name]
    for i in range(g.order):
        assert powers(g, i) == powers_by_composition(g, i), i


@pytest.mark.parametrize("name", EXPECTED_ORDERS)
def test_power_classes_match_composed_powers(name):
    g = GROUPS[name]
    assert power_classes(g) == tuple(
        tuple(class_index(g, y) for y in powers_by_composition(g, c.representative))
        for c in conjugacy_classes(g))
    assert power_classes(g) is power_classes(g)


@pytest.mark.parametrize("name", EXPECTED_ORDERS)
def test_conjugates_match_conjugation_by_every_element(name):
    # tuples keep their order and may repeat an element; sets do neither
    g = GROUPS[name]
    rng = random.Random(name)
    samples = [tuple(rng.randrange(g.order) for _ in range(rng.randint(0, 3)))
               for _ in range(20)]
    samples += [frozenset(t) for t in samples]
    samples += [h.members for h in all_subgroups(g)]
    for t in samples:
        assert conjugates(g, t) == conjugates_by_every_element(g, t), t


def test_generation_cap(monkeypatch):
    monkeypatch.setattr(permgroup, "GENERATION_CAP", 100)
    with pytest.raises(ValueError):
        generate_group([Permutation.parse("(1 2 3 4 5 6 7)", 8),
                        Permutation.parse("(1 2)", 8)])


def test_image_slot_cap(monkeypatch):
    # A5 on 5 points holds 60 * 5 = 300 image slots
    gens = [Permutation.parse("(1 2 3 4 5)", 5), Permutation.parse("(1 2 3)", 5)]
    monkeypatch.setattr(permgroup, "IMAGE_SLOT_CAP", 300)
    assert generate_group(gens).order == 60
    monkeypatch.setattr(permgroup, "IMAGE_SLOT_CAP", 299)
    with pytest.raises(ValueError, match="60 x 5 image slots"):
        generate_group(gens)
    with pytest.raises(ValueError, match="image slots"):
        generate_group([], degree=300)


def test_huge_degree_refused_before_any_permutation(monkeypatch):
    def no_permutation(self, images):
        raise AssertionError("built a Permutation")

    monkeypatch.setattr(Permutation, "__init__", no_permutation)
    for data in ({"degree": 200000000, "generators": []},
                 {"degree": permgroup.IMAGE_SLOT_CAP + 1, "generators": ["(1 2)"]}):
        with pytest.raises(ValueError, match="image slots"):
            parse_group_data(data)


FROZEN_CLASS_SIZES = {
    "s3": (1, 3, 2),
    "d4": (1, 2, 2, 2, 1),
    "q8": (1, 2, 2, 2, 1),
    "a4": (1, 4, 4, 3),
    "d6": (1, 3, 3, 2, 2, 1),
    "dic12": (1, 2, 2, 1, 3, 3),
    "s4": (1, 6, 8, 3, 6),
    "a5": (1, 20, 15, 12, 12),
}


def test_conjugacy_class_sizes():
    for name, expected in FROZEN_CLASS_SIZES.items():
        g = GROUPS[name]
        classes = conjugacy_classes(g)
        assert tuple(len(c.members) for c in classes) == expected
        assert sum(len(c.members) for c in classes) == g.order
        for c in classes:
            assert g.order % len(c.members) == 0


def test_class_index_is_conjugation_invariant():
    rng = random.Random(11)
    for g in GROUPS.values():
        for _ in range(40):
            i, j = rng.randrange(g.order), rng.randrange(g.order)
            conj = g.mul(g.mul(j, i), g.inv(j))
            assert class_index(g, i) == class_index(g, conj)


def test_class_members_partition_the_group():
    for g in GROUPS.values():
        seen = set()
        for c in conjugacy_classes(g):
            assert g.elements[c.representative] == min(
                g.elements[m] for m in c.members)
            assert not (seen & set(c.members))
            seen |= set(c.members)
        assert seen == set(range(g.order))


def test_generated_set():
    g = GROUPS["s4"]
    assert len(generated_set(g, [])) == 1
    assert len(generated_set(g, g.generators)) == 24
    three_cycle = g.index[Permutation.parse("(1 2 3)", 4)]
    assert len(generated_set(g, [three_cycle])) == 3


def test_generated_set_matches_all_pairs_closure():
    rng = random.Random(41)
    for name, g in GROUPS.items():
        for _ in range(40):
            # drawing 0-3 times from 3 elements and the identity repeats some
            picks = rng.sample(range(g.order), min(3, g.order)) + [g.identity]
            seed = rng.choices(picks, k=rng.randrange(4))
            assert generated_set(g, seed) == closure_by_products(g, seed), (name, seed)


def test_generated_set_products_bounded_by_order_times_generators(monkeypatch):
    g = GROUPS["a5"]
    calls = 0
    plain_mul = g.mul

    def counting_mul(i, j):
        nonlocal calls
        calls += 1
        return plain_mul(i, j)

    monkeypatch.setattr(g, "mul", counting_mul)
    assert len(generated_set(g, g.generators)) == 60
    assert calls <= g.order * len(g.generators)


def test_generated_set_of_whole_group_seeds_matches_all_pairs_closure(monkeypatch):
    # seeds that generate all of g are where the closure stops at half of g
    rng = random.Random(43)
    for name, g in GROUPS.items():
        whole = frozenset(range(g.order))
        seeds = [list(g.generators), list(reversed(g.generators))]
        while len(seeds) < 12:
            seed = rng.sample(range(g.order), min(rng.randrange(1, 4), g.order))
            if closure_by_products(g, seed) == whole:
                seeds.append(seed)
        for seed in seeds:
            assert generated_set(g, seed) == whole, (name, seed)
    # A5 from a 5-cycle and a 3-cycle: closing all 60 members took 120 products
    g = GROUPS["a5"]
    calls = 0
    plain_mul = g.mul

    def counting_mul(i, j):
        nonlocal calls
        calls += 1
        return plain_mul(i, j)

    monkeypatch.setattr(g, "mul", counting_mul)
    assert generated_set(g, g.generators) == frozenset(range(60))
    assert calls < 60


def test_all_subgroups_match_joins_of_all_pairs_closures():
    for name, g in GROUPS.items():
        if g.order > 24:
            continue
        cyclics = {closure_by_products(g, [i]) for i in range(g.order)}
        subs = set(cyclics)
        frontier = set(cyclics)
        while frontier:
            frontier = {closure_by_products(g, s | c) for s in frontier
                        for c in cyclics} - subs
            subs |= frontier
        expected = sorted(subs, key=lambda ms: (len(ms), sorted(ms)))
        assert [h.members for h in all_subgroups(g)] == expected, name


FROZEN_SUBGROUP_COUNTS = {
    "trivial": 1, "c2": 2, "c3": 2, "c4": 3, "v4": 5, "c5": 2, "c6": 4,
    "s3": 6, "d4": 10, "q8": 6, "a4": 10, "d6": 16, "dic12": 8, "s4": 30,
}


def test_all_subgroups_counts():
    for name, expected in FROZEN_SUBGROUP_COUNTS.items():
        assert len(all_subgroups(GROUPS[name])) == expected, name


def test_all_subgroups_join_budget():
    s5 = perm_group(5, "(1 2 3 4 5)", "(1 2)")
    assert len(all_subgroups(s5)) == 156
    # 362 cyclic subgroups and 1455 subgroups: refused before any join
    s6 = perm_group(6, "(1 2 3 4 5 6)", "(1 2)")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        all_subgroups(s6)
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("group", [GROUPS["s4"], GROUPS["a5"],
                                   perm_group(5, "(1 2 3 4 5)", "(1 2)")],
                         ids=["s4", "a5", "s5"])
def test_all_subgroups_match_all_joins_oracle(group):
    assert [h.members for h in all_subgroups(group)] == subgroups_by_all_joins(group)


def test_all_subgroups_of_a6():
    assert len(all_subgroups(perm_group(6, "(1 2 3 4 5)", "(4 5 6)"))) == 501


def test_all_subgroups_joins_one_representative_per_class(monkeypatch):
    # A5 has 9 conjugacy classes of subgroups and 32 cyclic subgroups, so
    # the joins are at most 9 x 32, next to the 59 closure checks of
    # Subgroup.__init__; joining every subgroup of each level made 1641
    g = perm_group(5, "(1 2 3 4 5)", "(1 2 3)")
    calls = 0
    plain_generated_set = permgroup.generated_set

    def counting_generated_set(group, seed):
        nonlocal calls
        calls += 1
        return plain_generated_set(group, seed)

    monkeypatch.setattr(permgroup, "generated_set", counting_generated_set)
    assert len(all_subgroups(g)) == 59
    assert calls <= 9 * 32 + 59


def test_subgroups_satisfy_lagrange():
    for name in ("s3", "d4", "q8", "a4", "dic12", "s4"):
        g = GROUPS[name]
        for h in all_subgroups(g):
            assert g.order % len(h) == 0
            assert len(h) * h.index == g.order


def test_subgroup_rejects_non_closed_sets():
    g = GROUPS["s3"]
    with pytest.raises(ValueError):
        Subgroup(g, [g.identity, g.generators[0]])  # 3-cycle w/o its square


def test_point_stabilizer():
    a5 = GROUPS["a5"]
    h = Subgroup.point_stabilizer(a5, 4)
    assert len(h) == 12 and h.index == 5
    s4 = GROUPS["s4"]
    assert len(Subgroup.point_stabilizer(s4, 0)) == 6


def test_coset_action_pinned_images():
    g = GROUPS["a5"]
    h = Subgroup.point_stabilizer(g, 4)
    act = CosetAction(g, h)
    assert act.degree == 5
    five = g.index[Permutation.parse("(1 2 3 4 5)", 5)]
    assert cycle_type(act.image(five)) == (5,)
    double = g.index[Permutation.parse("(1 2)(3 4)", 5)]
    assert cycle_type(act.image(double)) == (2, 2, 1)


def test_coset_action_is_homomorphism():
    rng = random.Random(23)
    for name in ("s3", "d4", "a4", "s4"):
        g = GROUPS[name]
        for h in all_subgroups(g):
            act = CosetAction(g, h)
            for _ in range(20):
                i, j = rng.randrange(g.order), rng.randrange(g.order)
                a, b = act.image(i), act.image(j)
                assert act.image(g.mul(i, j)) == tuple(a[x] for x in b)


@functools.cache
def subgroups_of(name):
    return all_subgroups(GROUPS[name])


@given(name=st.sampled_from(sorted(GROUPS)), sub=st.integers(0, 10 ** 6),
       z=st.integers(0, 10 ** 6))
@example(name="a5", sub="stab:5", z=7)
@example(name="a5", sub="whole", z=7)
@example(name="a5", sub="trivial", z=7)
@settings(max_examples=150)
def test_coset_action_matches_coset_set_oracle(name, sub, z):
    # sub is a subgroup spec, or else an index into every subgroup of g
    g = GROUPS[name]
    subs = subgroups_of(name)
    h = parse_subgroup(g, sub) if isinstance(sub, str) else subs[sub % len(subs)]
    z %= g.order
    act = CosetAction(g, h)
    img = act.image(z)
    assert type(img) is tuple
    assert sorted(img) == list(range(act.degree))
    assert img == coset_image_by_sets(g, h, z)


@pytest.mark.parametrize("name", sorted(GROUPS) + ["psl27"])
def test_permutation_character_counts_fixed_cosets(name):
    # fix(y) from how y's class meets H against the fixed points of y's
    # coset-action image; the action is transitive, so by Burnside the
    # classes' fixed points, weighted by class size, add up to |G|
    g = psl27() if name == "psl27" else GROUPS[name]
    classes = conjugacy_classes(g)
    for h in all_subgroups(g):
        act = CosetAction(g, h)
        fix = permutation_character(g, h)
        assert fix == tuple(sum(v == x for v, x in enumerate(act.image(c.representative)))
                            for c in classes)
        assert fix[class_index(g, g.identity)] == h.index
        assert sum(len(c.members) * f for c, f in zip(classes, fix)) == g.order


def test_permutation_character_rejects_a_foreign_subgroup():
    with pytest.raises(ValueError):
        permutation_character(GROUPS["s4"], Subgroup.trivial(GROUPS["a4"]))


def test_coset_action_degenerate_subgroups():
    g = GROUPS["s4"]
    whole = CosetAction(g, Subgroup.whole(g))
    assert whole.degree == 1
    trivial = CosetAction(g, Subgroup.trivial(g))
    assert trivial.degree == g.order
    for i in range(1, g.order):
        img = trivial.image(i)
        assert all(img[v] != v for v in range(g.order))


def test_group_file_roundtrip(tmp_path):
    g = GROUPS["d4"]
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(group_file_data(g)))
    g2 = load_group_file(path)
    assert g2.order == g.order and g2.degree == g.degree
    assert g2.elements == g.elements


def test_parse_group_data_validates():
    with pytest.raises((ValueError, KeyError)):
        parse_group_data({"degree": 3})
    with pytest.raises(ValueError):
        parse_group_data({"degree": 3, "generators": ["(1 5)"]})


def fresh(g):
    """The same group with an empty row cache."""
    return generate_group([g.elements[k] for k in g.generators], degree=g.degree)


def cached_rows(g):
    return sum(row is not None for row in g._rows)


@pytest.mark.parametrize("name", ["s4", "a5"])
def test_mul_rows_cached_and_uncached_match_composition(monkeypatch, name):
    g = fresh(GROUPS[name])
    cap = 3 * g.order
    monkeypatch.setattr(permgroup, "ROW_CACHE_CAP", cap)
    for j in range(g.order):
        for i in range(g.order):
            assert g.elements[g.mul(i, j)] == compose(g.elements[i], g.elements[j])
        assert g._row_entries <= cap
        assert g.right_row(j) == tuple(g.mul(i, j) for i in range(g.order))
        # the first three rows are kept, every later product is formed alone
        assert (g._rows[j] is not None) == (j < 3)
    assert cached_rows(g) == 3 and g._row_entries == cap


@pytest.mark.parametrize("rows", [None, 2])
def test_mul_matches_composition_on_s6(monkeypatch, rows):
    g = perm_group(6, "(1 2 3 4 5 6)", "(1 2)")
    assert g.order == 720
    if rows is not None:
        monkeypatch.setattr(permgroup, "ROW_CACHE_CAP", rows * g.order)
    rng = random.Random(11)
    for _ in range(3000):
        i, j = rng.randrange(g.order), rng.randrange(g.order)
        assert g.elements[g.mul(i, j)] == compose(g.elements[i], g.elements[j])
        assert g._row_entries <= permgroup.ROW_CACHE_CAP
    if rows is not None:
        assert cached_rows(g) == rows


def test_mul_builds_a_row_only_after_single_products(monkeypatch):
    # the first 8 products with j on the right are formed alone, the 9th
    # builds j's row
    g = fresh(GROUPS["a5"])
    j = 7
    for i in range(8):
        assert g.elements[g.mul(i, j)] == compose(g.elements[i], g.elements[j])
    assert cached_rows(g) == 0
    k = g.mul(0, j)
    assert g._rows[j] is not None and cached_rows(g) == 1
    assert g.elements[k] == compose(g.elements[0], g.elements[j])
    # a full cache still forms every later product alone
    monkeypatch.setattr(permgroup, "ROW_CACHE_CAP", g.order)
    for i in range(g.order):
        assert g.elements[g.mul(i, 8)] == compose(g.elements[i], g.elements[8])
    assert cached_rows(g) == 1


def test_trivial_group_of_degree_one(tmp_path):
    g = perm_group(1)
    assert (g.order, g.degree) == (1, 1)
    assert g.mul(0, 0) == 0 and g.inv(0) == 0 and g.right_row(0) == (0,)
    assert conjugacy_classes(g) == (ConjugacyClass(0, frozenset({0})),)
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"degree": 1, "generators": []}))
    assert main(["group", "classes", str(path)]) == 0


def test_conjugacy_classes_build_only_generator_rows():
    g = perm_group(7, "(1 2 3 4 5 6 7)", "(1 2)")
    classes = conjugacy_classes(g)
    assert g.order == 5040 and len(classes) == 15
    assert sum(len(c.members) for c in classes) == g.order
    assert cached_rows(g) <= 2 * len(g.generators)
