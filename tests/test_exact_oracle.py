"""Exact faithfulness verdicts for wq and exp_q, decided with Python ints
only.

Where m = 2/(1-q) is a nonzero integer, exp_q(w) = b^(m/2) with the bracket
b = 1 + (1-q) w.  Every double is a dyadic rational, and so is b, so
f(w)^2 = w^2 b^m is a rational number: comparing it with z^2, and w's sign
with z's, gives the sign of f(w) - z exactly, with no float.  An answer w is
faithful when that sign is 0 at w or changes between w and one of its
neighbouring doubles, that is, when the root lies between them, and the
nearest double when the sign changes between the midpoints to them.  A
refusal is right only where the root's nearest double is the wall 1/(q-1)
itself, which is an exact double for every q of the family here, or where
the root lies beyond +-DBL_MAX.

The wall draws put the root's bracket b = 1 + (1-q) W log-uniform in
[2^-60, 2^-20]: within 2^-20 of the wall, where wq answers in closed form.
The ledger draws put |z| log-uniform in [1e-300, 1e300], the middle and
both tails, and count unfaithful answers against pins.  exp_q's value
y = b^(m/2) is judged the same way, y^2 against b^m.
"""

from __future__ import annotations

import math
import random
import sys

import pytest

from lambert_tsallis import exp_q, wq
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


def _bracket(q: float, w: tuple[int, int]) -> tuple[int, int, int]:
    """m = 2/(1-q), and b = 1 + (1-q) w as bn/bd, bd > 0, for the dyadic
    w = n/d, d > 0."""
    qn, qd = q.as_integer_ratio()
    m, rest = divmod(2 * qd, qd - qn)
    assert rest == 0, q  # 2/(1-q) is an integer
    wn, wd = w
    return m, qd * wd + (qd - qn) * wn, qd * wd


def _side(q: float, z: float, w: tuple[int, int]) -> int:
    """The sign of f(w) - z for the dyadic w = n/d, d > 0.  At and past the
    wall it is the sign of f's limit there minus z: +inf for q > 1 and 0
    for q < 1, where z < 0 next to the wall."""
    wn, wd = w
    m, bn, bd = _bracket(q, w)
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


def _exp_side(q: float, x: float, y: tuple[int, int]) -> int:
    """The sign of y - exp_q(x) for the dyadic y = n/d, d > 0, where the
    bracket b = 1 + (1-q) x is positive: y^2 against b^m, y > 0."""
    yn, yd = y
    if yn <= 0:  # exp_q(x) > 0
        return -1
    m, bn, bd = _bracket(q, x.as_integer_ratio())
    assert bn > 0, (q, x)
    if m >= 0:
        return _sign(yn * yn * bd ** m - bn ** m * yd * yd)
    return _sign(yn * yn * bn ** -m - bd ** -m * yd * yd)


def _faithful(q: float, z: float, w: float, side=_side) -> bool:
    """The root of side(q, z, .) lies between w and one of its neighbouring
    doubles: wq's root by default, exp_q(z) with side=_exp_side."""
    here = side(q, z, w.as_integer_ratio())
    if here == 0:
        return True
    return any(here * side(q, z, math.nextafter(w, end).as_integer_ratio()) <= 0
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
    # beyond the doubles: at q = 3, f(-DBL_MAX) is about -9.5e153
    assert _beyond_the_doubles(3.0, -1e200) and not _beyond_the_doubles(3.0, -1e100)
    # exp_q's side: exp_2(1/2) = 1/(1 - 1/2) = 2
    assert _exp_side(2.0, 0.5, (2, 1)) == 0 and _faithful(2.0, 0.5, 2.0, side=_exp_side)
    assert _faithful(2.0, 0.5, math.nextafter(2.0, 0.0), side=_exp_side)
    assert not _faithful(2.0, 0.5, math.nextafter(math.nextafter(2.0, 3.0), 3.0),
                         side=_exp_side)


# Away from the wall: |z| log-uniform in [1e-300, 1e300], the middle and
# both tails, on the upper branch.  (q, sign of z): answers, unfaithful
# answers, refusals, of LEDGER_DRAWS.  Items 21b, 3c and 9 lower these pins
WQ_LEDGER = {
    (0.0, 1): (300, 158, 0),
    (0.5, 1): (300, 148, 0),
    (0.75, 1): (300, 140, 0),
    (-1.0, 1): (300, 143, 0),
    (3.0, 1): (134, 0, 166),
    (3.0, -1): (243, 91, 57),
    (1.5, 1): (171, 0, 129),
    (1.25, 1): (175, 0, 125),
    (2.0, 1): (156, 0, 144),
}
# q: values, unfaithful values, overflows to inf, of the LEDGER_DRAWS
# x = +-10^U(-300, 300) that have a positive bracket 1 + (1-q) x
EXPQ_LEDGER = {
    0.0: (217, 71, 0),
    0.5: (184, 38, 45),
    0.75: (181, 15, 56),
    -1.0: (229, 75, 0),
    3.0: (228, 75, 0),
    1.5: (207, 33, 0),
    1.25: (223, 23, 0),
    2.0: (223, 75, 0),
}
LEDGER_DRAWS = 300
DBL_MAX = sys.float_info.max


def _beyond_the_doubles(q: float, z: float) -> bool:
    """The upper branch's root lies below -DBL_MAX or above DBL_MAX."""
    return (_side(q, z, (-DBL_MAX).as_integer_ratio()) > 0
            or _side(q, z, DBL_MAX.as_integer_ratio()) < 0)


@pytest.mark.parametrize("q, sign", sorted(WQ_LEDGER))
def test_wq_ledger_over_the_middle_and_tails(q, sign):
    rng = random.Random(f"exact-ledger:wq:{q!r}:{sign}")
    answers = unfaithful = refusals = 0
    for _ in range(LEDGER_DRAWS):
        z = sign * 10.0 ** rng.uniform(-300.0, 300.0)
        try:
            w = wq(q, z, "upper").w
        except ConvergenceError:
            # right only where the root's nearest double is the exact-double
            # wall, or where no double is near the root
            assert ((q > 1.0 and z > 0.0 and _nearest_is_the_wall(q, z))
                    or _beyond_the_doubles(q, z)), (q, z)
            refusals += 1
            continue
        answers += 1
        unfaithful += not _faithful(q, z, w)
    print(f"exact ledger: wq q = {q:g} upper, z {'>' if sign > 0 else '<'} 0: "
          f"{answers} answers, {unfaithful} unfaithful, {refusals} refused; of {LEDGER_DRAWS}")
    assert (answers, unfaithful, refusals) == WQ_LEDGER[q, sign]


@pytest.mark.parametrize("q", sorted(EXPQ_LEDGER))
def test_exp_q_ledger_over_the_middle_and_tails(q):
    rng = random.Random(f"exact-ledger:exp_q:{q!r}")
    values = unfaithful = overflows = 0
    for _ in range(LEDGER_DRAWS):
        x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
        if _bracket(q, x.as_integer_ratio())[1] <= 0:  # no positive bracket
            continue
        y = exp_q(q, x)
        if y == math.inf:  # right only where exp_q(x) > DBL_MAX
            assert _exp_side(q, x, DBL_MAX.as_integer_ratio()) < 0, (q, x)
            overflows += 1
            continue
        values += 1
        unfaithful += not _faithful(q, x, y, side=_exp_side)
    print(f"exact ledger: exp_q q = {q:g}: {values} values, {unfaithful} unfaithful, "
          f"{overflows} overflows; of {LEDGER_DRAWS}")
    assert (values, unfaithful, overflows) == EXPQ_LEDGER[q]
