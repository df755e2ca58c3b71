import random

import pytest

from cheblink import (IntMatrix, Presentation, braid_presentation,
                      generic_check, parse_braid, parse_word, quotient_search,
                      smith_normal_form)
from cheblink.quotients import load_matrix_file

from corpus import corpus
from oracles import laplace_det, least_conjugate_homs, minor_gcd_factors

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


def test_quotient_search_dedup_work_bounded(monkeypatch):
    # pruning during the search: the full search followed by a post-hoc
    # conjugator filter makes 45938 products here
    trefoil = braid_presentation(parse_braid("2:s1 s1 s1"))
    a5 = GROUPS["a5"]
    calls = 0
    plain_mul = a5.mul

    def counting_mul(i, j):
        nonlocal calls
        calls += 1
        return plain_mul(i, j)

    monkeypatch.setattr(a5, "mul", counting_mul)
    homs = quotient_search(trefoil, a5, surjective_only=True,
                           dedup_conjugacy=True)
    assert len(homs) == 2
    assert calls <= 10 ** 4, calls


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
