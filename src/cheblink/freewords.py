"""Words in free groups, braid-closure presentations, and finite quotients.

A letter is a nonzero int: +k stands for the k-th generator x_k, -k for its
inverse (1-based).  Words are always stored freely reduced; raw letter
sequences exist only at parse boundaries.  Cyclic words are additionally
cyclically reduced and rotated to a canonical representative, minimal under
the letter order x1 < x1^-1 < x2 < x2^-1 < ...
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .permgroup import FiniteGroup, Permutation, generate_group, generated_set

_WORD_TOKEN = re.compile(r"^x([1-9][0-9]*)(\^-1)?$")
_BRAID_TOKEN = re.compile(r"^s([1-9][0-9]*)(\^-1)?$")


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
                raise ValueError(f"letter {l} outside x1..x{generator_count}")
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


def _letter_key(l: int) -> tuple[int, bool]:
    return (abs(l), l < 0)


def _canonical_rotation(ls: tuple[int, ...]) -> tuple[int, ...]:
    if not ls:
        return ls
    best_key = None
    best = ls
    for i in range(len(ls)):
        rot = ls[i:] + ls[:i]
        key = tuple(_letter_key(x) for x in rot)
        if best_key is None or key < best_key:
            best_key = key
            best = rot
    return best


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

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_letters(self.letters)


def cyclic_reduce(w: Word | CyclicWord) -> CyclicWord:
    """Strip conjugating prefixes (a w' a^-1 -> w') and rotate canonically."""
    ls = w.letters
    while len(ls) >= 2 and ls[0] == -ls[-1]:
        ls = ls[1:-1]
    return CyclicWord(_canonical_rotation(ls))


def parse_word(text: str) -> Word:
    """Parse "x1 x2^-1 x1" (whitespace-separated, ^-1 for inverses)."""
    letters = []
    for tok in text.split():
        m = _WORD_TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r} in {text!r}")
        k = int(m.group(1))
        letters.append(-k if m.group(2) else k)
    return reduce(letters)


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
        for l in self.letters:
            if not isinstance(l, int) or not 1 <= abs(l) < self.strands:
                raise ValueError(f"bad braid letter {l}: need 1 <= |letter| < {self.strands}")

    def __str__(self) -> str:
        body = " ".join(f"s{l}" if l > 0 else f"s{-l}^-1" for l in self.letters)
        return f"{self.strands}:{body}"


def parse_braid(text: str) -> BraidWord:
    """Parse "3:s1 s2^-1 s1" — strand count, colon, braid letters."""
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"bad braid {text!r}: expected 'strands:letters'")
    try:
        strands = int(head.strip())
    except ValueError:
        raise ValueError(f"bad strand count in {text!r}") from None
    letters = []
    for tok in body.split():
        m = _BRAID_TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad braid token {tok!r} in {text!r}")
        k = int(m.group(1))
        letters.append(-k if m.group(2) else k)
    return BraidWord(strands, tuple(letters))


def _substitute(w: Word, images: list[Word]) -> Word:
    out: list[int] = []
    for l in w.letters:
        piece = images[l - 1].letters if l > 0 else images[-l - 1].inverse().letters
        for x in piece:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return Word(tuple(out))


def braid_presentation(b: BraidWord) -> Presentation:
    """Presentation of the closure of a braid, one relator per strand.

    The generator x_j is the meridian of strand j at the top.  Each braid
    letter acts by the usual automorphism (s_i sends x_i to x_i x_{i+1}
    x_i^-1 and x_{i+1} to x_i, fixing the rest); letters act left to right,
    and the relators are x_j^-1 * (image of x_j under the whole braid).
    """
    n = b.strands
    cur = [Word((j + 1,)) for j in range(n)]
    for letter in b.letters:
        i = abs(letter)
        base = [Word((j + 1,)) for j in range(n)]
        if letter > 0:
            base[i - 1] = Word((i, i + 1, -i))
            base[i] = Word((i,))
        else:
            base[i - 1] = Word((i + 1,))
            base[i] = Word((-(i + 1), i, i + 1))
        cur = [_substitute(w, base) for w in cur]
    relators = tuple(reduce((-(j + 1),) + cur[j].letters) for j in range(n))
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

    def is_surjective(self) -> bool:
        return len(generated_set(self.target, self.images)) == self.target.order


def evaluate(hom: GroupHom, w: Word | CyclicWord) -> int:
    """Element index of the image of a word under the homomorphism."""
    g = hom.target
    n = len(hom.images)
    acc = g.identity
    for l in w.letters:
        if abs(l) > n:
            raise ValueError(f"letter {l} outside x1..x{n}")
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
    """
    degree = int(data["degree"])
    imgs = [Permutation.parse(s, degree) for s in data["images"]]
    target = generate_group(imgs, degree=degree)
    pres = Presentation(len(imgs), ())
    return GroupHom(pres, target, tuple(target.index[p] for p in imgs))


def load_hom_file(path) -> GroupHom:
    with open(path) as fh:
        return parse_hom_data(json.load(fh))
