"""Synthetic derivation grammar for controlled evaluation.

Six suffix rules over pronounceable random bases. Three are purely
concatenative; the others involve context-dependent orthography
(e-deletion, consonant doubling) or a suffix choice conditioned on the
word-initial character, which is invisible to a decoder that only sees a
local window near the end of the word.
"""

from __future__ import annotations

import random

from .corpus import Triple

VOWELS = "aeiou"
CONSONANTS = "bcdfglmnprst"

CONCATENATIVE_TAGS = ("ADVERB", "PATIENT", "NOMINAL")
ALL_TAGS = CONCATENATIVE_TAGS + ("RESULT", "AGENT", "POTENTIAL")


def _drop_final_e(base):
    return base[:-1] if base.endswith("e") else base


def _ends_cvc(base):
    return (
        len(base) >= 3
        and base[-1] in CONSONANTS
        and base[-2] in VOWELS
        and base[-3] in CONSONANTS
    )


def derive(base, tag):
    """Apply the grammar rule for ``tag`` to ``base``."""
    if tag == "ADVERB":
        return base + "ly"
    if tag == "PATIENT":
        return base + "ee"
    if tag == "NOMINAL":
        return base + "ness"
    if tag == "RESULT":
        # suffix stratum chosen by the word-initial character
        if base[0] in VOWELS:
            return _drop_final_e(base) + "ation"
        return base + "ment"
    if tag == "AGENT":
        if base.endswith("e"):
            return base + "r"
        if _ends_cvc(base):
            return base + base[-1] + "er"
        return base + "er"
    if tag == "POTENTIAL":
        return _drop_final_e(base) + "able"
    raise ValueError(f"unknown tag: {tag!r}")


def random_base(rng, min_len=5, max_len=8):
    """Mostly CV-alternating base; may end in 'e' or a CVC cluster so the
    orthographic rules actually fire.

    The vowel/consonant pattern occasionally repeats a class instead of
    alternating, so the shape of the word's tail carries no information
    about the word-initial character (otherwise strict alternation plus
    the length would leak the initial class to purely local models).
    """
    length = rng.randint(min_len, max_len)
    vowel = rng.random() < 0.5
    chars = [rng.choice(VOWELS if vowel else CONSONANTS)]
    run = 1
    for _ in range(length - 1):
        if run >= 2 or rng.random() < 0.75:
            vowel = not vowel
            run = 1
        else:
            run += 1
        chars.append(rng.choice(VOWELS if vowel else CONSONANTS))
    base = "".join(chars)
    if base[-1] in CONSONANTS and rng.random() < 0.3:
        base += "e"
    return base


def generate(n, seed=0):
    """``n`` distinct triples, uniform over tags, deterministic given seed."""
    rng = random.Random(seed)
    triples = []
    seen = set()
    while len(triples) < n:
        base = random_base(rng)
        tag = ALL_TAGS[len(triples) % len(ALL_TAGS)]
        key = (base, tag)
        if key in seen:
            continue
        seen.add(key)
        triples.append(Triple(base, tag, derive(base, tag)))
    return triples
