import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheblink import (GroupHom, Permutation, Presentation, Word,
                      abelianized_matrix, braid_presentation, compose,
                      cyclic_reduce, evaluate, generate_group, parse_braid,
                      parse_hom_data, parse_word, reduce)
from cheblink import freewords
from cheblink.freewords import (BRAID_STRAND_CAP, BraidWord, CyclicWord, _canonical_rotation,
                                format_letters)

from corpus import corpus
from oracles import braid_presentation_by_substitution, rotation_by_tuple_keys

GROUPS = corpus()


def test_word_rejects_unreduced_letters():
    with pytest.raises(ValueError):
        Word((1, -1))
    with pytest.raises(ValueError):
        Word((0,))


def test_parse_and_format_roundtrip():
    for text in ("x1", "x1 x2^-1 x1", "x2^-1 x2^-1 x3"):
        w = parse_word(text)
        assert format_letters(w.letters) == text
        assert parse_word(str(w)) == w
    assert parse_word("").letters == ()


def test_parse_word_rejects_garbage():
    for bad in ("x0", "y1", "x1^2", "x1x2", "x-1"):
        with pytest.raises(ValueError):
            parse_word(bad)


def test_letter_past_the_int_digit_limit_is_a_bad_token():
    # int() refuses more than 4300 digits with a message of its own; such a
    # letter is a bad token like any other, and the error quotes a prefix of
    # the token and of the text
    big = "9" * 5000
    with pytest.raises(ValueError) as e:
        parse_word(f"x1 x{big}^-1")
    assert str(e.value) == f"bad word token 'x{'9' * 39}...' in 'x1 x{'9' * 36}...'"
    with pytest.raises(ValueError) as e:
        parse_braid(f"3:s1 s{big}")
    assert str(e.value) == f"bad braid token 's{'9' * 39}...' in '3:s1 s{'9' * 34}...'"
    # digits int() converts are read as a letter, whatever their number
    assert parse_word("x" + "9" * 4000).letters == (int("9" * 4000),)
    with pytest.raises(ValueError) as e:
        parse_braid("3:s" + "9" * 4000)
    assert str(e.value) == f"bad braid letter {'9' * 40}...: need 1 <= |letter| < 3"


def test_bad_tokens_int_accepts_keep_their_messages():
    with pytest.raises(ValueError) as e:
        parse_word("x1 y2")
    assert str(e.value) == "bad word token 'y2' in 'x1 y2'"
    with pytest.raises(ValueError) as e:
        parse_braid("3:s1 x2")
    assert str(e.value) == "bad braid token 'x2' in '3:s1 x2'"
    with pytest.raises(ValueError) as e:
        parse_braid("3:s1 s2^-2")
    assert str(e.value) == "bad braid token 's2^-2' in '3:s1 s2^-2'"


def test_reduce_and_multiply():
    assert reduce([1, 2, -2, -1]).letters == ()
    assert reduce([1, 2, -2, 3]).letters == (1, 3)
    w = parse_word("x1 x2")
    assert (w * w.inverse()).letters == ()
    assert (w.inverse() * w).letters == ()


def test_multiply_matches_reduce_of_concatenation():
    rng = random.Random(5)
    alphabet = [1, -1, 2, -2, 3, -3]
    for _ in range(200):
        a = reduce(rng.choices(alphabet, k=rng.randrange(8)))
        b = reduce(rng.choices(alphabet, k=rng.randrange(8)))
        assert (a * b).letters == reduce(a.letters + b.letters).letters


def test_exponent_vector():
    assert parse_word("x1 x2^-1 x1 x3").exponent_vector(3) == [2, -1, 1]
    with pytest.raises(ValueError):
        parse_word("x4").exponent_vector(3)


def test_cyclic_reduce_trims_conjugation():
    w = parse_word("x1 x2 x1^-1")
    assert cyclic_reduce(w).letters == (2,)
    assert cyclic_reduce(parse_word("x1 x1^-1")).letters == ()


def test_cyclic_canonical_rotation_is_least():
    # letter order: x1 < x1^-1 < x2 < x2^-1 < ...
    rng = random.Random(9)
    alphabet = [1, -1, 2, -2]
    for _ in range(200):
        w = reduce(rng.choices(alphabet, k=rng.randrange(1, 10)))
        c = cyclic_reduce(w)
        n = len(c.letters)
        if n == 0:
            continue
        key = [(abs(l), l < 0) for l in c.letters]
        for r in range(1, n):
            rot = key[r:] + key[:r]
            assert key <= rot
        # every rotation of the original cyclic word canonicalizes the same
        ls = c.letters
        for r in range(n):
            assert cyclic_reduce(reduce(ls[r:] + ls[:r])).letters == ls


def test_canonical_rotation_matches_tuple_key_oracle():
    # ties between equal rotations of periodic words, and x_k against its
    # inverse, are where an int key per letter could go wrong
    for letters in [(), (3,), (-1,), (-1, 1), (2, -2, 2, -2), (-1, 2, 1, 2),
                    (-2, -1, 2, 1), (1, -1, 1, -1, 1, -1), (-3, 3, -2, 2)]:
        assert _canonical_rotation(letters) == rotation_by_tuple_keys(letters), letters
    rng = random.Random(17)
    for _ in range(500):
        block = tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(rng.randrange(1, 6)))
        letters = block * rng.choice((1, 1, 2, 3))
        assert _canonical_rotation(letters) == rotation_by_tuple_keys(letters), letters
        w = cyclic_reduce(reduce(letters))
        assert w.letters == rotation_by_tuple_keys(w.letters), letters
        for r in range(len(w)):
            assert cyclic_reduce(Word(w.letters[r:] + w.letters[:r])) == w


@pytest.mark.parametrize("shape", ["periodic", "conjugated"])
def test_cyclic_reduce_is_linear_in_key_comparisons(monkeypatch, shape):
    # 2^16 letters: a period-4 word, where every rotation ties with three
    # quarters of the others, and a 2^15-letter periodic core conjugated by
    # 2^14 letters that alternate between x3 and x4 and so never cancel.
    # Counts the key comparisons of both rotation searches, cyclic_reduce's
    # and CyclicWord's check; a quadratic search stops at the bound
    n = 1 << 16
    rng = random.Random(3)
    core = (2, 1, 2, -1) * (n // 4 if shape == "periodic" else n // 8)
    u = tuple(rng.choice((3, -3) if i % 2 else (4, -4)) for i in range(n // 4))
    letters = core if shape == "periodic" else u + core + tuple(-l for l in reversed(u))
    assert len(letters) == n
    bound = 12 * len(core)
    compared = 0

    class Key:
        """An int key that counts the comparisons made on it."""

        __slots__ = ("key",)

        def __init__(self, key):
            self.key = key

        def _count(self):
            nonlocal compared
            compared += 1
            assert compared <= bound, f"over {bound} key comparisons"

        def __eq__(self, other):
            self._count()
            return self.key == other.key

        def __ne__(self, other):
            self._count()
            return self.key != other.key

        def __lt__(self, other):
            self._count()
            return self.key < other.key

    least_rotation = freewords._least_rotation
    monkeypatch.setattr(freewords, "_least_rotation",
                        lambda keys: least_rotation([Key(k) for k in keys]))
    assert cyclic_reduce(Word(letters)).letters == core[1:] + core[:1]
    assert compared > 0


def test_cyclic_reduce_searches_the_least_rotation_once(monkeypatch):
    # the result is built unchecked: CyclicWord's own check would search
    # the rotation a second time
    calls = []
    least_rotation = freewords._least_rotation
    monkeypatch.setattr(freewords, "_least_rotation",
                        lambda keys: calls.append(len(keys)) or least_rotation(keys))
    assert cyclic_reduce(parse_word("x3 x2 x1^-1 x2 x1 x3^-1")).letters == (1, 2, -1, 2)
    assert calls == [4]


@settings(max_examples=200)
@given(st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=12))
def test_cyclic_reduce_matches_the_validating_constructor(letters):
    w = cyclic_reduce(reduce(letters))
    assert w == CyclicWord(w.letters)
    assert type(w) is CyclicWord and type(w.letters) is tuple


def test_cyclic_words_validate():
    with pytest.raises(ValueError):
        CyclicWord((2, 1))   # rotation (1, 2) is smaller
    with pytest.raises(ValueError):
        CyclicWord((1, 2, -1))  # not cyclically reduced


def test_parse_braid():
    b = parse_braid("3:s1 s2^-1 s1")
    assert b.strands == 3 and b.letters == (1, -2, 1)
    assert parse_braid(str(b)) == b
    assert parse_braid("2:").letters == ()
    for bad in ("s1 s2", "3:s3", "3:t1", "x:s1"):
        with pytest.raises(ValueError):
            parse_braid(bad)
    # ASCII digits only, and no more than int() converts
    for bad in ("\u0663:s1 s2", "0_3:s1 s2", "+3:s1 s2", "9" * 5000 + ":s1"):
        with pytest.raises(ValueError, match="bad strand count"):
            parse_braid(bad)


def test_braid_word_validates():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(0, ())
    assert BraidWord(BRAID_STRAND_CAP, (1,)).strands == BRAID_STRAND_CAP
    with pytest.raises(ValueError, match="strand cap"):
        BraidWord(BRAID_STRAND_CAP + 1, (1,))


def test_braid_relator_letter_cap(monkeypatch):
    # the images of the figure-eight braid 3:(s1 s2^-1)^k hold 931 letters
    # at 12 braid letters and 1509 at 13
    monkeypatch.setattr(freewords, "RELATOR_LETTER_CAP", 931)
    p = braid_presentation(parse_braid("3:" + " ".join(["s1 s2^-1"] * 6)))
    assert sum(map(len, p.relators)) == 932
    with pytest.raises(ValueError, match="after 13 of 14 braid letters"):
        braid_presentation(parse_braid("3:" + " ".join(["s1 s2^-1"] * 7)))


@st.composite
def braids(draw):
    strands = draw(st.integers(1, 6))
    if strands == 1:
        return "1:"
    letters = draw(st.lists(st.tuples(st.integers(1, strands - 1), st.booleans()),
                            max_size=14))
    return f"{strands}:" + " ".join(f"s{i}{'^-1' if neg else ''}" for i, neg in letters)


@settings(max_examples=200)
@given(braids())
@example("2:s1 s1 s1")
@example("3:")
@example("1:")
@example("3:" + " ".join(["s1 s2^-1"] * 6))   # the 12-letter figure-eight braid
def test_braid_presentation_matches_substitution_oracle(text):
    b = parse_braid(text)
    assert braid_presentation(b) == braid_presentation_by_substitution(b)


def test_braid_presentation_touches_two_images_per_letter(monkeypatch):
    # substituting into every image builds over 2 * strands words per letter,
    # 451058 here
    b = parse_braid("1024:" + " ".join(["s1 s3 s5 s7"] * 50))
    built = 0
    check = Word.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        check(self)

    monkeypatch.setattr(Word, "__post_init__", counting)
    p = braid_presentation(b)
    assert sum(map(len, p.relators)) == 800
    assert built <= 2 * (len(b.letters) + b.strands), built


def test_trefoil_presentation_frozen():
    p = braid_presentation(parse_braid("2:s1 s1 s1"))
    assert p.generator_count == 2
    assert [str(r) for r in p.relators] == [
        "x2 x1 x2 x1^-1 x2^-1 x1^-1",
        "x2^-1 x1 x2 x1 x2^-1 x1^-1",
    ]


def test_braid_relators_are_reduced():
    for text in ("2:s1 s1 s1", "3:s1 s2^-1 s1 s2^-1", "4:s1 s2 s3 s1",
                 "3:s1 s1 s2 s2"):
        p = braid_presentation(parse_braid(text))
        for r in p.relators:
            assert reduce(r.letters).letters == r.letters


def test_braid_abelianization_rows():
    # each relator abelianizes to (next strand) - (this strand): the
    # permutation of strands is a single cycle exactly for knots
    p = braid_presentation(parse_braid("2:s1 s1 s1"))
    m = abelianized_matrix(p)
    assert m.entries == ((-1, 1), (1, -1))


def test_identity_braid_closure_is_unlink():
    p = braid_presentation(parse_braid("3:"))
    assert p.generator_count == 3
    assert all(r.letters == () for r in p.relators)


def test_presentation_validates_relator_letters():
    with pytest.raises(ValueError):
        Presentation(1, (parse_word("x2"),))


def test_hom_requires_relators_to_die():
    p = braid_presentation(parse_braid("2:s1 s1 s1"))
    g = GROUPS["s3"]
    a = g.generators[1]  # a transposition
    with pytest.raises(ValueError):
        GroupHom(p, g, (a, g.identity))
    # both generators to the same transposition does satisfy the relators
    hom = GroupHom(p, g, (a, a))
    assert not hom.is_surjective()


def test_evaluate_multiplies_left_to_right():
    g = GROUPS["s3"]
    p = Presentation(2, ())
    hom = GroupHom(p, g, (g.generators[0], g.generators[1]))
    w = parse_word("x1 x2")
    expected = g.mul(g.generators[0], g.generators[1])
    assert evaluate(hom, w) == expected
    assert (compose(g.elements[g.generators[0]], g.elements[g.generators[1]])
            == g.elements[expected])
    assert evaluate(hom, parse_word("x1 x1^-1")) == g.identity
    with pytest.raises(ValueError):
        evaluate(hom, parse_word("x3"))


def test_evaluate_is_multiplicative_on_random_words():
    rng = random.Random(13)
    g = GROUPS["s4"]
    hom = GroupHom(Presentation(2, ()), g, (g.generators[0], g.generators[1]))
    alphabet = [1, -1, 2, -2]
    for _ in range(100):
        a = reduce(rng.choices(alphabet, k=rng.randrange(6)))
        b = reduce(rng.choices(alphabet, k=rng.randrange(6)))
        assert evaluate(hom, a * b) == g.mul(evaluate(hom, a), evaluate(hom, b))
        assert evaluate(hom, a.inverse()) == g.inv(evaluate(hom, a))


def test_evaluate_cyclic_word_uses_canonical_rotation():
    g = GROUPS["s4"]
    hom = GroupHom(Presentation(2, ()), g, (g.generators[0], g.generators[1]))
    c = cyclic_reduce(parse_word("x2 x1"))
    assert evaluate(hom, c) == evaluate(hom, parse_word("x1 x2"))


def test_parse_hom_data():
    hom = parse_hom_data({"degree": 5,
                          "images": ["(1 2 3 4 5)", "(1 2 3)"]})
    assert hom.target.order == 60
    assert hom.is_surjective()
    assert hom.presentation.relators == ()
    with pytest.raises((ValueError, KeyError)):
        parse_hom_data({"degree": 5})


def test_is_surjective_onto_s7():
    s7 = generate_group([Permutation.parse("(1 2 3 4 5 6 7)", 7),
                         Permutation.parse("(1 2)", 7)])
    assert s7.order == 5040

    def hom(*images):
        return GroupHom(Presentation(2, ()), s7,
                        tuple(s7.index[Permutation.parse(t, 7)] for t in images))

    assert hom("(1 2 3 4 5 6 7)", "(1 2)").is_surjective()
    # both images are even, so they generate only A7
    assert not hom("(1 2 3 4 5 6 7)", "(1 2 3)").is_surjective()
