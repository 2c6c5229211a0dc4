"""The exact layer's bytes, pinned over a seeded corpus of grammar texts.

About 2 000 texts are drawn here, from a seed, with the generator's
random() alone, whose sequence Python keeps across versions: small, 6-digit
and 50-digit ints and fractions, surds over radicands with square factors,
e and pi, whitespace and capitals, and refusals.  For each text the test
records parse_exact then render_exact, repr(to_real), and classify_tower's
record; each parsed number also meets fixed partners and one seeded partner
in classify_expq, classify_wq and classify_lnq_derivative.  A refusal is
recorded as its error class and text.  The sha256 of all of it is pinned,
so a change to the exact layer's representation shows here as any changed
byte of a text, a double, a verdict or an error.
"""

import hashlib
import random
import sys

from lambert_tsallis.classify import (classify_expq, classify_lnq_derivative,
                                      classify_tower, classify_wq)
from lambert_tsallis.errors import LambertTsallisError
from lambert_tsallis.exact import parse_exact, render_exact, to_real

SEED = 20200532
TEXTS = 2000
RADICANDS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 18, 20, 27, 45, 48, 50, 72, 98, 99, 200,
             1000, 1331, 4096, 9801, 10007]
REFUSALS = ["", "  ", "1/0", "-3/0+sqrt(2)", "1+2/0*sqrt(3)", "sqrt(-2)", "0*sqrt(-5)",
            "1+-sqrt(2)", "1--2*sqrt(3)", "+sqrt(2)", "2sqrt(3)", "sqrt(2)+1", "1.5",
            "e+1", "epi", "1/2/3", "sqrt()", "abc", "2*", "1+"]
Q_PARTNERS = ["1", "2", "-3", "3/2", "sqrt(2)", "1+sqrt(2)", "2-sqrt(3)"]
Z_PARTNERS = ["0", "1", "-1/4", "2/3", "sqrt(2)", "-1/2*sqrt(2)", "pi", "e"]


def corpus():
    rng = random.Random(SEED)

    def below(n):
        return int(rng.random() * n)

    def pick(seq):
        return seq[below(len(seq))]

    def natural():
        kind = below(4)
        if kind == 0:
            return str(below(21))
        if kind == 1:
            return str(below(10 ** 6))
        if kind == 2:  # 50 digits
            return str(1 + below(9)) + "".join(str(below(10)) for _ in range(49))
        return str(pick([1, 2, 3, 4, 6, 8, 9, 12, 16, 25, 36, 49, 64, 100]))

    def rational(signed=True):
        text = natural() if below(2) else f"{natural()}/{1 + int(natural())}"
        return (pick(["", "-", "+"]) if signed else "") + text

    def surd():
        b = "" if below(3) == 0 else f"{rational(signed=False)}*"
        term = f"{b}sqrt({pick(RADICANDS)})"
        if below(3) == 0:
            return pick(["", "-"]) + term
        return f"{rational()}{pick('+-')}{term}"

    def spaced(text):
        if below(8):
            return text
        text = text.upper() if below(2) else text
        return " ".join(text) if below(2) else f"\t{text} "

    texts = []
    for _ in range(TEXTS):
        kind = below(20)
        if kind < 7:
            text = rational()
        elif kind < 17:
            text = surd()
        elif kind < 18:
            text = pick(["e", "pi", "E", "Pi"])
        else:
            text = pick(REFUSALS)
        texts.append(spaced(text))
    return texts


def outcome(fn, *args):
    """fn's text or record, or the class and text of its refusal."""
    try:
        result = fn(*args)
    except LambertTsallisError as exc:
        return type(exc).__name__, str(exc)
    return result if isinstance(result, (str, float)) else result.to_record()


def lines():
    qs = [parse_exact(t) for t in Q_PARTNERS]
    zs = [parse_exact(t) for t in Z_PARTNERS]
    texts = corpus()
    parsed = []
    for text in texts:
        try:
            parsed.append(parse_exact(text))
        except LambertTsallisError as exc:
            yield repr((text, type(exc).__name__, str(exc)))
            continue
        x = parsed[-1]
        real = outcome(to_real, x)
        yield repr((text, render_exact(x), repr(real) if isinstance(real, float) else real,
                    outcome(classify_tower, x)))
    for i, x in enumerate(parsed):
        partner = parsed[(7 * i + 3) % len(parsed)]
        pairs = ([(q, x) for q in qs] + [(x, z) for z in zs] + [(x, partner)])
        for q, z in pairs:
            yield repr([outcome(fn, q, z) for fn in (classify_expq, classify_wq,
                                                     classify_lnq_derivative)])


DIGEST = "5e22ea75f88c0ef95fd51e6e0df8a29b763254a9d308821b34f274003d2bac81"


def test_exact_layer_bytes_are_pinned():
    assert hashlib.sha256("\n".join(lines()).encode()).hexdigest() == DIGEST


def test_exact_layer_bytes_without_the_fractions_module(monkeypatch):
    # the exact layer and the four classifiers compute on ints: with the
    # fractions module refused, parse, render, to_real and every verdict and
    # error are byte for byte the same
    monkeypatch.setitem(sys.modules, "fractions", None)
    assert hashlib.sha256("\n".join(lines()).encode()).hexdigest() == DIGEST
