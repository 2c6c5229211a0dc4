"""Exact faithfulness verdicts for wq next to the wall, decided with Python
ints only.

Where m = 2/(1-q) is a nonzero integer, exp_q(w) = b^(m/2) with the bracket
b = 1 + (1-q) w.  Every double is a dyadic rational, and so is b, so
f(w)^2 = w^2 b^m is a rational number: comparing it with z^2, and w's sign
with z's, gives the sign of f(w) - z exactly, with no float.  An answer w is
faithful when that sign is 0 at w or changes between w and one of its
neighbouring doubles, that is, when the root lies between them, and the
nearest double when the sign changes between the midpoints to them.  A
refusal is right only where the root's nearest double is the wall 1/(q-1)
itself, which is an exact double for every q of the family here.

The draws put the root's bracket b = 1 + (1-q) W log-uniform in
[2^-60, 2^-20]: within 2^-20 of the wall, where wq answers in closed form.
"""

from __future__ import annotations

import math
import random

import pytest

from lambert_tsallis import wq
from lambert_tsallis.errors import ConvergenceError

# q: (branch, answers that are the root's nearest double, draws whose
# nearest double is the wall), for 200 draws per q.  There, below b = 2^-53
# or so, the q > 1 walls refuse and the q < 1 walls answer their innermost
# double, which is faithful
FAMILY = {
    3.0: ("upper", 169, 31),
    2.0: ("upper", 160, 40),
    1.5: ("upper", 174, 26),
    1.25: ("upper", 166, 34),
    1.125: ("upper", 170, 30),
    0.0: ("lower", 162, 38),
    0.5: ("lower", 170, 30),
    0.75: ("lower", 170, 30),
    0.875: ("lower", 169, 31),
    -1.0: ("lower", 177, 23),
}
DRAWS = 200


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _side(q: float, z: float, w: tuple[int, int]) -> int:
    """The sign of f(w) - z for the dyadic w = n/d, d > 0.  At and past the
    wall it is the sign of f's limit there minus z: +inf for q > 1 and 0
    for q < 1, where z < 0 next to the wall."""
    qn, qd = q.as_integer_ratio()
    m, rest = divmod(2 * qd, qd - qn)
    assert rest == 0, q  # 2/(1-q) is an integer
    wn, wd = w
    bn, bd = qd * wd + (qd - qn) * wn, qd * wd  # b = 1 + (1-q) w, bd > 0
    if bn <= 0:
        return 1 if q > 1.0 else _sign(-z.as_integer_ratio()[0])
    zn, zd = z.as_integer_ratio()
    sw, sz = _sign(wn), _sign(zn)
    if sw != sz:  # f(w) has w's sign
        return _sign(sw - sz)
    # |f(w)| against |z|, as w^2 b^m against z^2
    if m >= 0:
        lhs, rhs = wn * wn * bn ** m * zd * zd, zn * zn * wd * wd * bd ** m
    else:
        lhs, rhs = wn * wn * bd ** -m * zd * zd, zn * zn * wd * wd * bn ** -m
    return _sign(lhs - rhs) * sw


def _faithful(q: float, z: float, w: float) -> bool:
    """The root lies between w and one of its neighbouring doubles."""
    here = _side(q, z, w.as_integer_ratio())
    if here == 0:
        return True
    return any(here * _side(q, z, math.nextafter(w, end).as_integer_ratio()) <= 0
               for end in (-math.inf, math.inf))


def _midpoint(a: float, b: float) -> tuple[int, int]:
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    return an * bd + bn * ad, 2 * ad * bd


def _nearest(q: float, z: float, w: float) -> bool:
    """The root lies within half an ulp of w: f - z takes opposite signs,
    or 0, at the midpoints to w's neighbouring doubles."""
    below, above = (_side(q, z, _midpoint(w, math.nextafter(w, end)))
                    for end in (-math.inf, math.inf))
    return below * above <= 0


def _nearest_is_the_wall(q: float, z: float) -> bool:
    """The root lies at least halfway from the innermost double to the
    exact-double wall, where f - z is positive on both branches here: it is
    at most 0 halfway."""
    wall = 1.0 / (q - 1.0)
    assert 1.0 + (1.0 - q) * wall == 0.0, q  # the wall is exact
    return _side(q, z, _midpoint(math.nextafter(wall, 0.0), wall)) <= 0


def _wall_draws(q: float) -> list[float]:
    """z whose root has b = 1 + (1-q) W log-uniform in [2^-60, 2^-20]."""
    rng = random.Random(f"exact-wall:{q!r}")
    wall, k = 1.0 / (q - 1.0), 1.0 / (1.0 - q)
    return [wall * (1.0 - b) * b ** k
            for b in (2.0 ** rng.uniform(-60.0, -20.0) for _ in range(DRAWS))]


@pytest.mark.parametrize("q", sorted(FAMILY))
def test_wall_answers_are_faithful_and_refusals_are_at_the_wall(q):
    branch, *pins = FAMILY[q]
    inner = math.nextafter(1.0 / (q - 1.0), 0.0)
    nearest = at_wall = 0
    for z in _wall_draws(q):
        try:
            w = wq(q, z, branch).w
        except ConvergenceError:
            assert q > 1.0 and _nearest_is_the_wall(q, z), (q, z)
            at_wall += 1
            continue
        assert _faithful(q, z, w), (q, z, w)
        if _nearest(q, z, w):
            nearest += 1
        else:  # the innermost double, next to a root nearer the wall
            assert q < 1.0 and w == inner and _nearest_is_the_wall(q, z), (q, z, w)
            at_wall += 1
    print(f"exact wall oracle: q = {q:g} {branch}: {nearest} answers, each the nearest "
          f"double; {at_wall} roots nearest the wall, "
          f"{'refused' if q > 1.0 else 'answered faithfully'}; of {DRAWS}")
    assert [nearest, at_wall] == pins


def test_the_oracle_tells_a_neighbour_from_the_root():
    # the verdicts themselves: at q = 2, f(w) = w/(1-w), so z = 3 has the
    # root 3/4, and every other double is unfaithful two doubles away
    assert _side(2.0, 3.0, (3, 4)) == 0 and _faithful(2.0, 3.0, 0.75)
    assert _faithful(2.0, 3.0, math.nextafter(0.75, 1.0))
    assert not _faithful(2.0, 3.0, math.nextafter(math.nextafter(0.75, 0.0), 0.0))
    # the q = 3 wall 1/2: z = 1e200 puts the root within 1e-400 of it
    assert _nearest_is_the_wall(3.0, 1e200)
    assert not _nearest_is_the_wall(3.0, 1e3)
