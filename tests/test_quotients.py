import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheblink import (GroupHom, IntMatrix, Presentation, Word, abelianized_matrix,
                      braid_presentation, cycle_type, freewords, generic_check, parse_braid,
                      parse_word, permgroup, quotient_search, quotients, smith_normal_form)
from cheblink.quotients import (MILLER_RABIN_LIMIT, TRIAL_DIVISION_CAP,
                                _least_prime_factor, _search_plan, load_matrix_file)

from corpus import corpus, perm_group
from oracles import (homs_by_brute_force, laplace_det, least_conjugate_homs,
                     minor_gcd_factors, product_by_every_term)

GROUPS = corpus()


def test_intmatrix_basics():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix.identity(2)
    assert a @ b == a
    assert (b @ a).entries == ((1, 2), (3, 4))
    z = IntMatrix.zero(0, 3)
    assert (z @ IntMatrix.zero(3, 2)).entries == ()
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        a @ IntMatrix.identity(3)


def test_matmul_matches_every_term_product():
    # the product skips zero entries of the left factor; half the entries
    # of these are zero, and some shapes are empty
    rng = random.Random(7)
    for _ in range(300):
        r, k, c = (rng.randrange(0, 7) for _ in range(3))
        a = IntMatrix([[rng.choice((0, 0, 0, rng.randrange(-9, 10))) for _ in range(k)]
                       for _ in range(r)], k)
        b = IntMatrix([[rng.choice((0, rng.randrange(-9, 10))) for _ in range(c)]
                       for _ in range(k)], c)
        assert (a @ b).entries == product_by_every_term(a, b), (a, b)


def test_det():
    assert IntMatrix([[2, 4], [6, 8]]).det() == -8
    assert IntMatrix.identity(4).det() == 1
    assert IntMatrix([[1, 2], [2, 4]]).det() == 0
    assert IntMatrix([], cols=0).det() == 1


def test_det_matches_laplace_on_random():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert IntMatrix(rows).det() == laplace_det(rows)


SNF_PINNED = [
    ([[0, 0], [0, 0]], [0, 0]),
    ([[2, 0], [0, 3]], [1, 6]),
    ([[2, 4], [6, 8]], [2, 4]),
    ([[-1, 1], [1, -1]], [1, 0]),          # trefoil abelianization
    ([[2, 1, -3], [1, -1, 2]], [1, 1]),
    ([[4]], [4]),
    ([[-4]], [4]),
    ([[6, 4], [4, 8], [2, 2]], [2, 2]),
]


def test_smith_normal_form_pinned():
    for rows, factors in SNF_PINNED:
        a = IntMatrix(rows)
        sf = smith_normal_form(a)
        assert list(sf.diagonal) == factors, rows
        assert sf.u @ sf.s @ sf.v == a
        assert sf.u.det() in (1, -1)
        assert sf.v.det() in (1, -1)


def test_smith_normal_form_empty_shapes():
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        a = IntMatrix.zero(rows, cols)
        sf = smith_normal_form(a)
        assert sf.diagonal == ()
        assert sf.u @ sf.s @ sf.v == a


def test_smith_normal_form_on_a_wide_braid_closure():
    # the closure of s1 ... s299 is a knot, so its 300 x 300 abelianized
    # matrix reduces to 299 unit pivots and one 0
    a = abelianized_matrix(braid_presentation(
        parse_braid("300:" + " ".join(f"s{i}" for i in range(1, 300)))))
    sf = smith_normal_form(a)
    assert sf.diagonal == (1,) * 299 + (0,)
    assert sf.u @ sf.s @ sf.v == a


def _random_matrix(rng, max_dim=6, span=9):
    r = rng.randrange(1, max_dim + 1)
    c = rng.randrange(1, max_dim + 1)
    return IntMatrix(
        [[rng.randrange(-span, span + 1) for _ in range(c)] for _ in range(r)])


def test_smith_normal_form_random_properties():
    rng = random.Random(42)
    for _ in range(300):
        a = _random_matrix(rng)
        sf = smith_normal_form(a)
        assert sf.u @ sf.s @ sf.v == a
        assert sf.u.det() in (1, -1)
        assert sf.v.det() in (1, -1)
        assert sf.v @ sf.v_inv == IntMatrix.identity(a.cols)
        d = sf.diagonal
        assert all(x >= 0 for x in d)
        for i in range(len(d) - 1):
            if d[i + 1] != 0:
                assert d[i] != 0 and d[i + 1] % d[i] == 0
            # zeros only at the tail
            if d[i] == 0:
                assert d[i + 1] == 0


def test_smith_matches_minor_gcd_oracle():
    rng = random.Random(99)
    for _ in range(120):
        a = _random_matrix(rng, max_dim=5, span=7)
        sf = smith_normal_form(a)
        assert list(sf.diagonal) == minor_gcd_factors(a), a.entries


def test_generic_check_trefoil_frozen():
    p = braid_presentation(parse_braid("2:s1 s1 s1"))
    res = generic_check(p, [parse_word("x1")])
    assert res.generated
    assert list(res.factors) == [1, 1]
    assert res.witness is None

    res0 = generic_check(p, [])
    assert not res0.generated
    assert list(res0.factors) == [1, 0]
    assert res0.witness_prime == 2
    assert res0.witness == (1, 1)

    res2 = generic_check(p, [parse_word("x1 x2^-1")])
    assert not res2.generated
    assert res2.witness_prime == 2
    assert res2.witness == (1, 1)


def test_generic_check_witness_kills_rows():
    # the witness is a surjection onto Z/p that vanishes on every relator
    # and every class word, certifying non-generation
    cases = [
        ("2:s1 s1 s1", []),
        ("2:s1 s1 s1", ["x1 x2^-1"]),
        ("3:s1 s2^-1 s1 s2^-1", []),
        ("3:s1 s2 s1 s2 s1 s2", ["x1 x2^-1"]),
    ]
    for braid, class_texts in cases:
        p = braid_presentation(parse_braid(braid))
        classes = [parse_word(t) for t in class_texts]
        res = generic_check(p, classes)
        if res.generated:
            continue
        prime, phi = res.witness_prime, res.witness
        assert any(x % prime for x in phi)
        for w in list(p.relators) + classes:
            vec = w.exponent_vector(p.generator_count)
            assert sum(c * x for c, x in zip(vec, phi)) % prime == 0


def test_generic_check_full_shift_needs_all_generators():
    # free group, no relators: only the full generator set spans
    p = Presentation(2, ())
    assert not generic_check(p, [parse_word("x1")]).generated
    assert generic_check(p, [parse_word("x1"), parse_word("x2")]).generated


def test_quotient_search_frozen_counts():
    free2 = Presentation(2, ())
    s3 = GROUPS["s3"]
    assert len(quotient_search(free2, s3)) == 36
    assert len(quotient_search(free2, s3, surjective_only=True)) == 18

    trefoil = braid_presentation(parse_braid("2:s1 s1 s1"))
    c2 = GROUPS["c2"]
    assert len(quotient_search(trefoil, c2)) == 2
    assert len(quotient_search(trefoil, c2, surjective_only=True)) == 1


def test_quotient_search_with_no_generators():
    # the one hom sends nothing anywhere; its image is the trivial subgroup
    free0 = Presentation(0, ())
    c3, trivial = GROUPS["c3"], GROUPS["trivial"]
    for dedup in (False, True):
        assert [h.images for h in quotient_search(free0, c3, dedup_conjugacy=dedup)] == [()]
        assert quotient_search(free0, c3, surjective_only=True, dedup_conjugacy=dedup) == []
        for onto in (False, True):
            homs = quotient_search(free0, trivial, surjective_only=onto, dedup_conjugacy=dedup)
            assert [h.images for h in homs] == [()]


def test_quotient_search_results_are_homs():
    trefoil = braid_presentation(parse_braid("2:s1 s1 s1"))
    s3 = GROUPS["s3"]
    homs = quotient_search(trefoil, s3, surjective_only=True)
    assert homs  # the closure of this braid maps onto s3
    for hom in homs:
        assert hom.is_surjective()
        for r in trefoil.relators:
            from cheblink import evaluate
            assert evaluate(hom, r) == s3.identity
    # image tuples are pairwise distinct and sorted
    images = [h.images for h in homs]
    assert images == sorted(set(images))


def test_quotient_search_dedup_covers_everything():
    trefoil = braid_presentation(parse_braid("2:s1 s1 s1"))
    s3 = GROUPS["s3"]
    full = quotient_search(trefoil, s3, surjective_only=True)
    reps = quotient_search(trefoil, s3, surjective_only=True,
                           dedup_conjugacy=True)
    regenerated = set()
    for hom in reps:
        for c in range(s3.order):
            regenerated.add(tuple(
                s3.mul(s3.mul(c, i), s3.inv(c)) for i in hom.images))
    assert regenerated == {h.images for h in full}
    assert len(reps) < len(full)


def _random_braid(rng, strands):
    letters = [f"s{rng.randrange(1, strands)}{rng.choice(('', '^-1'))}"
               for _ in range(rng.randrange(1, 8))]
    return f"{strands}:" + " ".join(letters)


def test_quotient_search_dedup_matches_least_conjugate_oracle():
    # the pruned search keeps exactly the homs the post-hoc filter keeps from
    # the full search, image tuple by image tuple and in the same order
    rng = random.Random(23)
    braids = [_random_braid(rng, strands) for strands in (2, 3) for _ in range(8)]
    # A5 walks 60^3 image triples per 3-strand braid: a knot and one more
    a5_three_strand = ["3:s1^-1 s2 s1 s2^-1 s2^-1 s2^-1"] + \
        [b for b in braids if b.startswith("3:")][:1]
    pruned = 0
    for name, g in GROUPS.items():
        cases = braids if name != "a5" else \
            [b for b in braids if b.startswith("2:")] + a5_three_strand
        for text in cases:
            p = braid_presentation(parse_braid(text))
            for surjective in (False, True):
                full = quotient_search(p, g, surjective_only=surjective)
                reps = quotient_search(p, g, surjective_only=surjective,
                                       dedup_conjugacy=True)
                expected = least_conjugate_homs(g, full)
                assert [h.images for h in reps] == \
                    [h.images for h in expected], (name, text, surjective)
                pruned += len(full) - len(reps)
    assert pruned  # some orbits had more than one member


def counted_products(monkeypatch, g):
    """Count g.mul calls from here on, and each read of a conjugation row
    of g as one product too, so that products moved into rows still count;
    the count is in the returned list."""
    calls = [0]
    plain_mul = g.mul
    plain_row, plain_kept_row = g.conjugation_row, g.kept_conjugation_row

    class CountingRow(tuple):
        def __getitem__(self, y):
            calls[0] += 1
            return tuple.__getitem__(self, y)

    def counting_mul(i, j):
        calls[0] += 1
        return plain_mul(i, j)

    def counting_kept_row(c):
        row = plain_kept_row(c)
        return None if row is None else CountingRow(row)

    monkeypatch.setattr(g, "mul", counting_mul)
    monkeypatch.setattr(g, "conjugation_row", lambda c: CountingRow(plain_row(c)))
    monkeypatch.setattr(g, "kept_conjugation_row", counting_kept_row)
    return calls


def test_quotient_search_dedup_work_bounded(monkeypatch):
    # pruning during the search: the full search followed by a post-hoc
    # conjugator filter makes 45938 products here
    trefoil = braid_presentation(parse_braid("2:s1 s1 s1"))
    a5 = GROUPS["a5"]
    calls = counted_products(monkeypatch, a5)
    homs = quotient_search(trefoil, a5, surjective_only=True,
                           dedup_conjugacy=True)
    assert len(homs) == 2
    assert calls[0] <= 10 ** 4, calls


def test_quotient_search_forced_image_work_bounded(monkeypatch):
    # the relator x3^-1 x1 forces x3 = x1, so each pair (x1, x2) that passes
    # the first two relators tries one x3 instead of 60; the letter-by-letter
    # search made 43319 products here
    knot = braid_presentation(parse_braid("3:s1^-1 s2 s1 s2^-1 s2^-1 s2^-1"))
    a5 = GROUPS["a5"]
    calls = counted_products(monkeypatch, a5)
    homs = quotient_search(knot, a5, surjective_only=True, dedup_conjugacy=True)
    assert len(homs) == 2
    assert calls[0] <= 10 ** 4, calls


def test_search_plan_puts_a_pinned_generator_last():
    # r1 = x1^-1 x2 x3 x2 x3 x2^-1 x3^-1 x2^-1 meets x1 once; no relator
    # meets x2 or x3 once, so x1 goes last, pinned by r1, and x3 before it,
    # and r3, on x2 and x3 only, is checked there
    p = braid_presentation(parse_braid("3:s2 s1 s2^-1 s1^-1 s2 s2"))
    r1, r2, r3 = p.relators
    assert _search_plan(p) == [(2, None, []), (3, None, [r3]), (1, r1, [r2])]
    # the relator x3^-1 x1, the last of the three, pins x3: the order stays
    # x1, x2, x3
    knot = braid_presentation(parse_braid("3:s1^-1 s2 s1 s2^-1 s2^-1 s2^-1"))
    k1, k2, k3 = knot.relators
    assert _search_plan(knot) == [(1, None, []), (2, None, []), (3, k3, [k1, k2])]
    # a split link: from the back x2 is pinned, so it goes last, though it
    # is pinned in the order x1, x2, x3 as well
    split = braid_presentation(parse_braid("3:s1"))
    assert _search_plan(split) == [(1, None, []), (3, None, []),
                                   (2, split.relators[0], [split.relators[1]])]
    # no relator at all: the numbering decides
    assert _search_plan(Presentation(3, ())) == [(1, None, []), (2, None, []), (3, None, [])]
    # no relator meets a generator once; x3, last, occurs twice, once
    # inverted, in r1 = x1^-1 x3^-1 x2^-1 x1^-1 x2 x1 x2 x3, which is solved
    knot = braid_presentation(parse_braid("3:s1^-1 s2^-1 s2^-1 s1^-1 s2 s1^-1"))
    k1, k2, k3 = knot.relators
    assert _search_plan(knot) == [(1, None, []), (2, None, []), (3, k1, [k2, k3])]
    # x2, last, occurs twice, once inverted, in k1, but once in k2 after
    # it: the relator meeting it once is solved
    knot = braid_presentation(parse_braid("3:s1 s2 s1^-1 s2 s2 s1"))
    k1, k2, k3 = knot.relators
    assert _search_plan(knot) == [(1, None, []), (3, None, []), (2, k2, [k1, k3])]
    # x3 occurs three or more times in every relator: nothing is solved
    knot = braid_presentation(parse_braid("3:s1^-1 s2^-1 s2^-1 s1^-1 s1^-1 s2^-1"))
    assert _search_plan(knot) == [(1, None, []), (2, None, []), (3, None, list(knot.relators))]


def test_quotient_search_forcing_order_work_bounded(monkeypatch):
    # with x1 picked last and pinned by r1 (above), a pair (x2, x3) that
    # passes r3 tries one x1 instead of 60; in the order x1, x2, x3 nothing
    # is pinned and the search made 27459 products here
    p = braid_presentation(parse_braid("3:s2 s1 s2^-1 s1^-1 s2 s2"))
    a5 = GROUPS["a5"]
    calls = counted_products(monkeypatch, a5)
    homs = quotient_search(p, a5, surjective_only=True, dedup_conjugacy=True)
    assert len(homs) == 2
    assert calls[0] <= 27459 // 4, calls


def test_quotient_search_all_relators_last_work_bounded(monkeypatch):
    # all three relators of this benchmark knot sit at the last position,
    # where x2 is pinned; the search compiled every relator at each node and
    # conjugated by products, 4995 products here
    knot = braid_presentation(parse_braid("3:s1 s2 s1^-1 s2 s2 s1"))
    assert [len(relators) + (pin is not None) for _, pin, relators in _search_plan(knot)] == \
        [0, 0, 3]
    a5 = GROUPS["a5"]
    calls = counted_products(monkeypatch, a5)
    homs = quotient_search(knot, a5, surjective_only=True, dedup_conjugacy=True)
    assert len(homs) == 2
    assert calls[0] <= 1954, calls


def counted_rows(monkeypatch, g):
    """Count the left and right rows of g read from here on, built or kept,
    mul's own right rows included; the count is in the returned list."""
    rows = [0]
    plain_left, plain_right = g.left_row, g.right_row

    def counting(plain):
        def row(a):
            rows[0] += 1
            return plain(a)
        return row

    monkeypatch.setattr(g, "left_row", counting(plain_left))
    monkeypatch.setattr(g, "right_row", counting(plain_right))
    return rows


def test_quotient_search_conjugating_relator_work_bounded(monkeypatch):
    # nothing is pinned here, and x3, searched last, occurs in
    # r1 = x1^-1 x3^-1 x2^-1 x1^-1 x2 x1 x2 x3 exactly twice, once inverted:
    # r1 reads x3^-1·a·x3·b = 1, so a pair (x1, x2) tries only the x3 with
    # a·x3 = x3·b^-1, none unless a and b^-1 are conjugate.  Trying all 60
    # made 15729 products and row reads here (14696 by mul).  The solve
    # reads a's left row and b^-1's right row, a pass of 60 entries each, at
    # each node where they are conjugate: 46 rows, 96 with the rows mul
    # builds on a fresh group
    knot = braid_presentation(parse_braid("3:s1^-1 s2^-1 s2^-1 s1^-1 s2 s1^-1"))
    a5 = GROUPS["a5"]
    calls = counted_products(monkeypatch, a5)
    rows = counted_rows(monkeypatch, a5)
    homs = quotient_search(knot, a5, surjective_only=True, dedup_conjugacy=True)
    assert len(homs) == 2
    assert calls[0] <= 3000, calls
    assert rows[0] <= 2 * a5.order, rows


# one relator, in which no generator occurs once: the highest-numbered
# generator x is searched last, and where it occurs exactly twice, once
# inverted, its node solves u·x = x·v instead of trying every candidate.
# A search that swaps u and v still passes the first six on every corpus
# group of order at most 24, where a and b are powers of x1 alone; the
# last two need x2 to tell the two equations apart
CONJUGATING_RELATORS = [
    "x2^-1 x1 x2 x1^-1 x1^-1",   # BS(1, 2): x2 solved, with b = x1^-2
    "x1^-1 x2 x1 x2^-1 x2^-1",   # BS(1, 2) as usually written: x2 occurs three times
    "x2^-1 x1 x2 x1",            # the Klein bottle group: x2 solved, with b = x1
    "x1^-1 x2 x1 x2",            # ... as usually written: x2 occurs twice uninverted
    "x1^-1 x2^-1 x1 x2",         # Z^2: x2 solved as x2^-1·a·x2·b, a = x1, b = x1^-1
    "x2 x1 x1 x2^-1",            # b is empty, and a = x1^2 is the identity when x1^2 is
    "x3^-1 x1 x1 x3 x2 x2",      # x3^-1·a·x3 = b^-1 with a = x1^2, b = x2^2
    "x3 x1 x1 x3^-1 x2 x2",      # x3·a·x3^-1 = b^-1, the mirror equation
    "x3^-1 x1 x3 x2^-1 x1 x2",   # x3 solved, with b = x2^-1 x1 x2
    "x1 x3 x2 x2 x3^-1 x1^-1",   # a = x2^2 and b = x1^-1 x1, the identity
    "x3 x1 x1 x3^-1",            # b is empty, and x2 is a free generator
]


@pytest.mark.parametrize("relator", CONJUGATING_RELATORS)
def test_quotient_search_solving_a_conjugating_relator_matches_brute_force(relator):
    # every hom, and under dedup_conjugacy the least of each orbit, image
    # tuple by image tuple and in order, against walking all |G|^n tuples
    w = parse_word(relator)
    p = Presentation(max(map(abs, w.letters)), (w,))
    for name, g in GROUPS.items():
        if g.order > 24:
            continue
        for surjective in (False, True):
            expected = homs_by_brute_force(p, g, surjective)
            found = quotient_search(p, g, surjective_only=surjective)
            assert [h.images for h in found] == expected, (name, surjective)
            reps = quotient_search(p, g, surjective_only=surjective, dedup_conjugacy=True)
            least = least_conjugate_homs(g, [GroupHom(p, g, t) for t in expected])
            assert [h.images for h in reps] == [h.images for h in least], (name, surjective)


def test_quotient_search_dedup_past_the_row_cap(monkeypatch):
    # with room for two rows, most centralizer elements conjugate by
    # products instead of rows, and the kept homs stay the same
    monkeypatch.setattr(permgroup, "ROW_CACHE_CAP", 2 * 24)
    for text in ("2:s1 s1 s1", "3:s1 s2 s1^-1 s2 s2 s1", "3:s1 s1 s2 s2"):
        p = braid_presentation(parse_braid(text))
        s4 = perm_group(4, "(1 2 3 4)", "(1 2)")
        reps = quotient_search(p, s4, dedup_conjugacy=True)
        assert s4._row_entries <= 2 * 24
        expected = least_conjugate_homs(s4, quotient_search(p, s4))
        assert [h.images for h in reps] == [h.images for h in expected], text


# the trefoil's homs onto S7 up to conjugacy, as the search that conjugated
# by products found them, and the two of them that are surjective
TREFOIL_S7_HOMS = [
    (0, 0), (1, 1), (1, 2), (3, 3), (3, 11), (7, 7), (7, 25), (7, 314), (9, 9), (9, 10),
    (9, 320), (27, 27), (27, 123), (27, 419), (27, 1811), (33, 33), (33, 52), (33, 199),
    (127, 127), (127, 316), (127, 727), (129, 129), (129, 130), (129, 322), (129, 729),
    (129, 730), (147, 147), (147, 181), (147, 987), (153, 153), (153, 220), (153, 380),
    (153, 1108), (153, 1229), (747, 747), (753, 753), (753, 772), (753, 1915), (849, 849),
    (849, 850), (849, 1031), (873, 873), (873, 1339), (873, 1340)]
TREFOIL_S7_SURJECTIONS = [(753, 1915), (849, 1031)]


def test_quotient_search_onto_s7_up_to_conjugacy(monkeypatch):
    # 15 classes for the first image, then 5040 candidates for the second:
    # only the centralizer of each class representative gets rows, under
    # the cap, and the first image's centralizer is read off its own row.
    # Conjugating by products made 528920 products here
    s7 = perm_group(7, "(1 2 3 4 5 6 7)", "(1 2)")
    trefoil = braid_presentation(parse_braid("2:s1 s1 s1"))
    calls = counted_products(monkeypatch, s7)
    homs = quotient_search(trefoil, s7, dedup_conjugacy=True)
    assert calls[0] <= 433225, calls
    assert s7._row_entries <= permgroup.ROW_CACHE_CAP
    assert [h.images for h in homs] == TREFOIL_S7_HOMS
    assert [h.images for h in homs if h.is_surjective()] == TREFOIL_S7_SURJECTIONS
    surjections = quotient_search(trefoil, s7, surjective_only=True, dedup_conjugacy=True)
    assert [h.images for h in surjections] == TREFOIL_S7_SURJECTIONS


@st.composite
def small_braids(draw):
    strands = draw(st.sampled_from((2, 3)))
    letters = draw(st.lists(st.tuples(st.integers(1, strands - 1), st.booleans()),
                            min_size=1, max_size=6))
    return f"{strands}:" + " ".join(f"s{i}{'^-1' if neg else ''}" for i, neg in letters)


@settings(max_examples=10)
@given(small_braids())
@example("2:s1")              # x2 x1^-1 forces x2 through an x marker
@example("3:s1^-1 s2")        # x3^-1 x2 forces x3 through an x^-1 marker
@example("2:s1 s1 s1")        # x2 occurs three times in each relator: nothing forced
@example("3:s1 s1 s2 s2")     # x2 and x3 never forced
@example("3:s1")              # x2 pinned either way, searched last: relabelled results
@example("3:s1^-1 s2^-1 s2^-1 s1^-1 s2 s1^-1")  # x3 solved from x3^-1·a·x3·b
def test_quotient_search_matches_brute_force(text):
    # every hom, image tuple by image tuple and in order, against walking all
    # |G|^n tuples; A5 only on 2-strand braids (60^3 tuples take too long)
    p = braid_presentation(parse_braid(text))
    for name, g in GROUPS.items():
        if name == "a5" and p.generator_count > 2:
            continue
        for surjective in (False, True):
            expected = homs_by_brute_force(p, g, surjective)
            found = quotient_search(p, g, surjective_only=surjective)
            assert [h.images for h in found] == expected, (name, text, surjective)
            reps = quotient_search(p, g, surjective_only=surjective, dedup_conjugacy=True)
            least = least_conjugate_homs(g, [GroupHom(p, g, t) for t in expected])
            assert [h.images for h in reps] == [h.images for h in least], \
                (name, text, surjective)


SMALL_TARGETS = {name: g for name, g in GROUPS.items() if g.order <= 12}


@st.composite
def relabelled_braids(draw):
    """A braid of up to 8 letters on 2 or 3 strands, a small corpus
    target, and a relabelling of the closure's generators."""
    strands = draw(st.sampled_from((2, 3)))
    letters = draw(st.lists(st.tuples(st.integers(1, strands - 1), st.booleans()),
                            min_size=1, max_size=8))
    text = f"{strands}:" + " ".join(f"s{i}{'^-1' if neg else ''}" for i, neg in letters)
    target = draw(st.sampled_from(sorted(SMALL_TARGETS)))
    return text, target, draw(st.permutations(range(strands)))


def least_conjugate(g, t):
    return min(tuple(g.mul(g.mul(c, x), g.inv(c)) for x in t) for c in range(g.order))


@settings(max_examples=40)
@given(relabelled_braids())
# here x1, then x2, is searched last: the least conjugate in the search order
# is not the least in the order x1, x2, x3, and the walk finds the homs unsorted
@example(("3:s2^-1 s1^-1 s2 s1 s1 s2 s2", "a4", [0, 1, 2]))
@example(("3:s2 s1^-1 s2 s1 s2^-1", "s3", [0, 1, 2]))
@example(("3:s1^-1 s2 s1 s2^-1 s2^-1 s2^-1", "s3", [2, 1, 0]))  # pins x3, renamed x1
@example(("3:s1^-1 s2^-1 s2^-1 s1^-1 s2 s1^-1", "a4", [1, 0, 2]))  # x3 solved in both
def test_quotient_search_ignores_generator_labels(case):
    # x_k is renamed x_(perm[k-1]+1); the search on the renamed presentation,
    # read back through the renaming, gives the same list, and under
    # dedup_conjugacy the same orbits, each as its least member
    text, name, perm = case
    g = SMALL_TARGETS[name]
    p = braid_presentation(parse_braid(text))
    renamed = Presentation(p.generator_count, tuple(
        Word(tuple((perm[abs(l) - 1] + 1) * (1 if l > 0 else -1) for l in r.letters))
        for r in p.relators))
    for surjective in (False, True):
        for dedup in (False, True):
            found = quotient_search(p, g, surjective_only=surjective, dedup_conjugacy=dedup)
            back = [tuple(h.images[k] for k in perm) for h in
                    quotient_search(renamed, g, surjective_only=surjective,
                                    dedup_conjugacy=dedup)]
            if dedup:
                back = [least_conjugate(g, t) for t in back]
            assert [h.images for h in found] == sorted(back), (text, name, perm)


def test_quotient_search_onto_s7_builds_no_rows():
    # each candidate is a right factor twice in the search, too few to pay
    # for a row of 5040 entries; a row per candidate would fill all 416 rows
    # the cap allows
    s7 = perm_group(7, "(1 2 3 4 5 6 7)", "(1 2)")
    homs = quotient_search(Presentation(1, (parse_word("x1 x1"),)), s7)
    assert s7._row_entries == 0
    # the identity, 21 transpositions, 105 double and 105 triple transpositions
    assert len(homs) == 232
    assert all(s7.mul(h.images[0], h.images[0]) == s7.identity for h in homs)


def test_quotient_search_onto_s7_keeps_row_cache_bounded(monkeypatch):
    # without a cap the search keeps a product for every pair it forms;
    # a lowered cap keeps the test quick and still lets the cache fill.
    # x1^10 compiles to nine x markers, so every candidate is a right factor
    # nine times in the search itself, one more than a row needs
    cap = 64 * 5040
    monkeypatch.setattr(permgroup, "ROW_CACHE_CAP", cap)
    s7 = perm_group(7, "(1 2 3 4 5 6 7)", "(1 2)")
    homs = quotient_search(Presentation(1, (parse_word(" ".join(["x1"] * 10)),)), s7)
    # the elements of order 1, 2, 5 and 10
    assert len(homs) == 1 + 21 + 105 + 105 + 504 + 504
    assert {cycle_type(s7.elements[h.images[0]].images) for h in homs} == {
        (1,) * 7, (2, 1, 1, 1, 1, 1), (2, 2, 1, 1, 1), (2, 2, 2, 1), (5, 1, 1), (5, 2)}
    assert s7._row_entries <= cap
    # the results check no relator again, so every row kept is the search's
    assert s7._row_entries + s7.order > cap


def test_search_results_match_the_validating_constructor(monkeypatch):
    # the search builds its homs without evaluating their relators again:
    # each must be the hom the validating constructor builds from its images
    rng = random.Random(23)
    braids = [_random_braid(rng, strands) for strands in (2, 3) for _ in range(8)]
    braids.append("3:s1^-1 s2 s1 s2^-1 s2^-1 s2^-1")
    evaluated = [0]
    plain_evaluate = freewords.evaluate

    def counting_evaluate(hom, w):
        evaluated[0] += 1
        return plain_evaluate(hom, w)

    monkeypatch.setattr(freewords, "evaluate", counting_evaluate)
    for name, g in GROUPS.items():
        for text in braids:
            if name == "a5" and text.startswith("3:"):
                continue  # 60^3 image triples
            p = braid_presentation(parse_braid(text))
            for dedup in (False, True):
                evaluated[0] = 0
                homs = quotient_search(p, g, dedup_conjugacy=dedup)
                assert evaluated[0] == 0, (name, text)
                assert homs, (name, text)  # the trivial hom at least
                for hom in homs:
                    checked = GroupHom(p, g, hom.images)
                    assert (hom.presentation, hom.target, hom.images) == \
                        (checked.presentation, checked.target, checked.images)
                    assert type(hom.images) is tuple


def test_least_prime_factor_small_values():
    def naive(d):
        f = 2
        while f * f <= d:
            if d % f == 0:
                return f
            f += 1
        return d

    for d in range(2, 5000):
        assert _least_prime_factor(d) == naive(d)
        assert _least_prime_factor(-d) == naive(d)


def test_least_prime_factor_large_prime_is_quick():
    t0 = time.perf_counter()
    assert _least_prime_factor(2 ** 61 - 1) == 2 ** 61 - 1
    assert time.perf_counter() - t0 < 1


def test_least_prime_factor_finds_factor_below_cap():
    # the least prime of a 20-digit invariant factor met in practice
    assert 16686353 < TRIAL_DIVISION_CAP
    assert _least_prime_factor(16686353 * (2 ** 61 - 1)) == 16686353


def test_least_prime_factor_refuses_what_it_cannot_settle(monkeypatch):
    # a lowered cap keeps the trial division short; the CLI test of
    # `generic check` runs the real one
    monkeypatch.setattr(quotients, "TRIAL_DIVISION_CAP", 1000)
    with pytest.raises(ValueError, match=str(1009 * 1013)):
        _least_prime_factor(1009 * 1013)
    assert _least_prime_factor(1009 * 1013 * 997) == 997
    # a strong pseudoprime to every prime base up to 37; base 41 exposes it
    psi12 = 399165290221 * 798330580441
    with pytest.raises(ValueError, match=str(psi12)):
        _least_prime_factor(psi12)
    # a prime at or above the Miller-Rabin limit is refused as well
    big = 2 ** 127 - 1
    assert big >= MILLER_RABIN_LIMIT
    with pytest.raises(ValueError, match=str(big)):
        _least_prime_factor(big)


def test_quotient_search_budget():
    free3 = Presentation(3, ())
    with pytest.raises(ValueError):
        quotient_search(free3, GROUPS["s4"], budget=1000)


def test_load_matrix_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# comment\n1 2 3\n\n4 -5 6\n")
    m = load_matrix_file(path)
    assert m.entries == ((1, 2, 3), (4, -5, 6))
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3\n")
    with pytest.raises(ValueError):
        load_matrix_file(bad)
