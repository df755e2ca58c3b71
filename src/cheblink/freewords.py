"""Words in free groups, braid-closure presentations, and finite quotients.

A letter is a nonzero int: +k stands for the k-th generator x_k, -k for its
inverse (1-based).  Words are always stored freely reduced; raw letter
sequences exist only at parse boundaries.  Cyclic words are additionally
cyclically reduced and rotated to a canonical representative, minimal under
the letter order x1 < x1^-1 < x2 < x2^-1 < ...
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .permgroup import (FiniteGroup, generate_group, generated_set, load_json,
                        parse_cycle_strings, parse_digits, shorten)

_LETTER_TOKEN = re.compile(r"([a-z])([1-9][0-9]*)(\^-1)?")

# strands a braid may have; 1024:s1 s2 ... s1023 takes 0.26 s to present, and
# `braid presentation` on it 2.5-3.5 s (2 vCPUs, Python 3.11), most of that
# in the Smith form of its 1024 x 1024 abelianized matrix
BRAID_STRAND_CAP = 1 << 10
# letters in all of a braid closure's relators; relators of pseudo-Anosov
# braids grow exponentially, and the 24-letter figure-eight braid
# 3:(s1 s2^-1)^12 reaches 300100
RELATOR_LETTER_CAP = 1 << 20


def _check_letters(letters: tuple[int, ...]) -> None:
    for l in letters:
        if not isinstance(l, int) or l == 0:
            raise ValueError(f"bad letter {l!r}: letters are nonzero ints")


@dataclass(frozen=True)
class Word:
    """A freely reduced word; construct via reduce() when unsure."""

    letters: tuple[int, ...]

    def __post_init__(self):
        _check_letters(self.letters)
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"not freely reduced at {a}, {b}; use reduce()")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return reduce(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)))

    def exponent_vector(self, generator_count: int) -> list[int]:
        """Signed letter counts per generator (the abelianized word)."""
        v = [0] * generator_count
        for l in self.letters:
            if abs(l) > generator_count:
                raise ValueError(f"letter {shorten(str(l))} outside x1..x{generator_count}")
            v[abs(l) - 1] += 1 if l > 0 else -1
        return v

    def __str__(self) -> str:
        return format_letters(self.letters)


def reduce(letters: Iterable[int]) -> Word:
    """Freely reduce a letter sequence."""
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return Word(tuple(out))


def _least_rotation(keys: Sequence) -> int:
    """Where the least rotation of ``keys`` starts: Booth's algorithm
    (Inf. Process. Lett. 1980), a failure function over the doubled
    sequence, in O(len(keys)) comparisons."""
    doubled = list(keys) * 2
    fail = [-1] * len(doubled)
    k = 0  # start of the least rotation found so far
    for j in range(1, len(doubled)):
        key = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and key != doubled[k + i + 1]:
            if key < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if key != doubled[k + i + 1]:  # here i == -1
            if key < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _canonical_rotation(ls: tuple[int, ...]) -> tuple[int, ...]:
    # one int key per letter, 2k - 1 for x_k and 2k for x_k^-1, orders the
    # letters x1 < x1^-1 < x2 < ...; the least rotation of the keys wins
    if len(ls) < 2:
        return ls
    at = _least_rotation([2 * l - 1 if l > 0 else -2 * l for l in ls])
    return ls[at:] + ls[:at]


@dataclass(frozen=True)
class CyclicWord:
    """A cyclically reduced word in canonical rotation (see cyclic_reduce)."""

    letters: tuple[int, ...]

    def __post_init__(self):
        _check_letters(self.letters)
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError("not freely reduced")
        if len(self.letters) > 1 and self.letters[0] == -self.letters[-1]:
            raise ValueError("not cyclically reduced")
        if self.letters != _canonical_rotation(self.letters):
            raise ValueError("not in canonical rotation; use cyclic_reduce()")

    @classmethod
    def _trusted(cls, letters: tuple[int, ...]) -> "CyclicWord":
        """A cyclic word whose letters the caller has already reduced and
        rotated canonically, built without checking them again."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_letters(self.letters)


def cyclic_reduce(w: Word | CyclicWord) -> CyclicWord:
    """Strip conjugating prefixes (a w' a^-1 -> w') and rotate canonically."""
    ls = w.letters
    n, k = len(ls), 0
    while n - 2 * k >= 2 and ls[k] == -ls[n - 1 - k]:
        k += 1
    return CyclicWord._trusted(_canonical_rotation(ls[k:n - k]))


def _read_letters(body: str, name: str, kind: str, text: str) -> list[int]:
    """The letters of the whitespace-separated tokens "<name>k" and
    "<name>k^-1" (k >= 1) in ``body``, a part of ``text``; a token that is
    neither, or whose k has more digits than int() converts, is refused as a
    bad ``kind`` token, quoted with ``text``."""
    letters = []
    for tok in body.split():
        m = _LETTER_TOKEN.fullmatch(tok)
        k = parse_digits(m.group(2)) if m and m.group(1) == name else None
        if k is None:
            raise ValueError(f"bad {kind} token {shorten(tok)!r} in {shorten(text)!r}")
        letters.append(-k if m.group(3) else k)
    return letters


def parse_word(text: str) -> Word:
    """Parse "x1 x2^-1 x1" (whitespace-separated, ^-1 for inverses)."""
    return reduce(_read_letters(text, "x", "word", text))


def format_letters(letters: Sequence[int]) -> str:
    return " ".join(f"x{l}" if l > 0 else f"x{-l}^-1" for l in letters)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator count plus reduced relator words."""

    generator_count: int
    relators: tuple[Word, ...]

    def __post_init__(self):
        if self.generator_count < 0:
            raise ValueError("generator_count must be nonnegative")
        for r in self.relators:
            for l in r.letters:
                if abs(l) > self.generator_count:
                    raise ValueError(f"relator letter {l} outside x1..x{self.generator_count}")


@dataclass(frozen=True)
class BraidWord:
    """A braid on `strands` strands; letter +i / -i is s_i / s_i^-1, 1 <= i < strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        if self.strands > BRAID_STRAND_CAP:
            raise ValueError(f"a braid on {shorten(str(self.strands))} strands exceeds "
                             f"the strand cap of {BRAID_STRAND_CAP}")
        for l in self.letters:
            if not isinstance(l, int) or not 1 <= abs(l) < self.strands:
                raise ValueError(f"bad braid letter {shorten(str(l))}: "
                                 f"need 1 <= |letter| < {self.strands}")

    def __str__(self) -> str:
        body = " ".join(f"s{l}" if l > 0 else f"s{-l}^-1" for l in self.letters)
        return f"{self.strands}:{body}"


def parse_braid(text: str) -> BraidWord:
    """Parse "3:s1 s2^-1 s1" — strand count, colon, braid letters."""
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"bad braid {shorten(text)!r}: expected 'strands:letters'")
    strands = parse_digits(head.strip())
    if strands is None:
        raise ValueError(f"bad strand count in {shorten(text)!r}")
    return BraidWord(strands, tuple(_read_letters(body, "s", "braid", text)))


def braid_presentation(b: BraidWord) -> Presentation:
    """Presentation of the closure of a braid, one relator per strand.

    The generator x_j is the meridian of strand j at the top.  Each braid
    letter acts by the usual automorphism (s_i sends x_i to x_i x_{i+1}
    x_i^-1 and x_{i+1} to x_i, fixing the rest); letters act left to right,
    and the relators are x_j^-1 * (image of x_j under the whole braid).

    The letters are walked from last to first, composing on the right: if
    ``cur`` holds the images of the automorphism t of the letters after s_i,
    then t∘s_i sends x_i to t(x_i) t(x_{i+1}) t(x_i)^-1 and x_{i+1} to
    t(x_i), so a letter rewrites only the two images it moves.  That is the
    same automorphism as substituting letter by letter from the first, and
    free reduction is unique, so the relators are the same words.
    Raises ValueError once the images hold more than ``RELATOR_LETTER_CAP``
    letters in all; "after k of l" counts the letters walked from the end.
    """
    n = b.strands
    cur = [(j + 1,) for j in range(n)]
    total = n
    for done, letter in enumerate(reversed(b.letters), 1):
        i = abs(letter)
        a, c = cur[i - 1], cur[i]
        if letter > 0:
            w = reduce(a + c + tuple(-l for l in reversed(a))).letters
            cur[i - 1], cur[i] = w, a
            total += len(w) - len(c)
        else:
            w = reduce(tuple(-l for l in reversed(c)) + a + c).letters
            cur[i - 1], cur[i] = c, w
            total += len(w) - len(a)
        if total > RELATOR_LETTER_CAP:
            raise ValueError(f"braid relators exceed the cap of {RELATOR_LETTER_CAP} letters "
                             f"after {done} of {len(b.letters)} braid letters")
    relators = tuple(reduce((-(j + 1),) + cur[j]) for j in range(n))
    return Presentation(n, relators)


@dataclass(frozen=True, eq=False)
class GroupHom:
    """A homomorphism from a presented group to a finite permutation group.

    ``images[k-1]`` is the element index of the image of x_k.  Construction
    fails unless every relator evaluates to the identity.
    """

    presentation: Presentation
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.presentation.generator_count:
            raise ValueError(
                f"{self.presentation.generator_count} generators but {len(self.images)} images")
        for i in self.images:
            if not 0 <= i < self.target.order:
                raise ValueError(f"image index {i} outside the target group")
        for r in self.presentation.relators:
            if evaluate(self, r) != self.target.identity:
                raise ValueError(f"relator {r} does not map to the identity")

    @classmethod
    def _trusted(cls, presentation: Presentation, target: FiniteGroup,
                 images: tuple[int, ...]) -> "GroupHom":
        """A hom whose images the caller has already checked against every
        relator, built without evaluating them again."""
        hom = object.__new__(cls)
        object.__setattr__(hom, "presentation", presentation)
        object.__setattr__(hom, "target", target)
        object.__setattr__(hom, "images", images)
        return hom

    def is_surjective(self) -> bool:
        return len(generated_set(self.target, self.images)) == self.target.order


def evaluate(hom: GroupHom, w: Word | CyclicWord) -> int:
    """Element index of the image of a word under the homomorphism."""
    g = hom.target
    n = len(hom.images)
    acc = g.identity
    for l in w.letters:
        if abs(l) > n:
            raise ValueError(f"letter {shorten(str(l))} outside x1..x{n}")
        e = hom.images[l - 1] if l > 0 else g.inv(hom.images[-l - 1])
        acc = g.mul(acc, e)
    return acc


def abelianized_matrix(p: Presentation):
    """Exponent-sum matrix of the relators (one row per relator)."""
    from .quotients import IntMatrix

    return IntMatrix(
        [r.exponent_vector(p.generator_count) for r in p.relators],
        cols=p.generator_count)


def parse_hom_data(data: dict) -> GroupHom:
    """Build a hom from {"degree": n, "images": ["(1 2 3 4 5)", "(1 2 3)"]}.

    x_k maps to the k-th listed permutation; the target group is the one
    those permutations generate, so the hom is surjective by construction.
    Any other shape raises ValueError.
    """
    degree, imgs = parse_cycle_strings(data, "hom", "images")
    target = generate_group(imgs, degree=degree)
    pres = Presentation(len(imgs), ())
    return GroupHom(pres, target, tuple(target.index[p] for p in imgs))


def load_hom_file(path) -> GroupHom:
    return parse_hom_data(load_json(path))
