"""The SLH algebra's laws, each relating the operations to one another.

The formula tests of test_core.py restate each operation; a law needs no
second copy of a formula, so a wrong term shows as a broken law (Gough and
James, "The series product and its application to quantum feedforward and
feedback networks", IEEE TAC 54:2530, 2009).  The draws mix driven
operands, undriven ones that hold the shared zero coupling and user-built
undriven ones, from this file's own generator.

Where a law holds exactly, on S and L of a concatenation, it is asserted
so.  Every other difference is bounded by ``GAMMA`` times the sum of the two
sides' scales: each side's rounding error is at most ``GAMMA`` times the scale
of its terms, that is, the same composition evaluated on the magnitudes |S|,
|L|, |H| (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
2002, ch. 3).  A loop's terms are divided by |1 - S_kl|, and a denominator
that an earlier step rounded carries that step's error relative to
|1 - S_kl| (``_mag_feedback``).
"""

import numpy as np
import pytest

from slhnet import SingularLoopError, SlhModel, concat, feedback, series
from slhnet import core
from slhnet.verify import _random_stage

U = 2.0 ** -53  # unit roundoff of float64

DRAWS = 200


def gamma(k):
    # Higham's gamma_k = k u / (1 - k u), the bound of k roundings in a row
    return k * U / (1.0 - k * U)


# A complex operation rounds each real part at most 6 times in a row (numpy's
# complex division, by Smith's method, is the longest), and a k-term complex dot
# product is a chain of at most 2k operations.  The longest chain in these laws,
# the H term of series associativity at 6 ports, runs three such products, each
# fed by the one before: under 48 operations, so GAMMA = gamma(6 * 48).
GAMMA = gamma(6 * 48)


class Mag:
    """The magnitudes of a model's terms: |S|, |L| and |H|, elementwise."""

    def __init__(self, s, l, h):
        self.s, self.l, self.h = s, l, h

    @classmethod
    def of(cls, g):
        return cls(np.abs(g.scattering), np.abs(g.coupling), abs(g.hamiltonian))


def _mag_series(m2, m1):
    # the series product's terms on magnitudes, every sum taken with a plus sign
    s2l1 = m2.s @ m1.l
    return Mag(m2.s @ m1.s, s2l1 + m2.l, m1.h + m2.h + m2.l @ s2l1)


def _mag_concat(m1, m2):
    n1, n2 = len(m1.l), len(m2.l)
    s = np.zeros((n1 + n2, n1 + n2))
    s[:n1, :n1], s[n1:, n1:] = m1.s, m2.s
    return Mag(s, np.concatenate([m1.l, m2.l]), m1.h + m2.h)


def _mag_feedback(m, g, k, l):
    """The terms of closing output k onto input l of g, on magnitudes; ``m`` is
    the magnitude model that bounds g's rounding error.  Every term divided by
    d = 1 - S_kl is scaled by 1 + m.s[k, l] / |d| too, since an error
    GAMMA * m.s[k, l] in S_kl is that relative error in d."""
    ki, li = k - 1, l - 1
    keep_r = [i for i in range(len(m.l)) if i != ki]
    keep_c = [j for j in range(len(m.l)) if j != li]
    d = abs(1.0 - g.scattering[ki, li])
    gain = (1.0 + m.s[ki, li] / d) / d
    col = m.s[keep_r, li]
    s = m.s[np.ix_(keep_r, keep_c)] + gain * np.outer(col, m.s[ki, keep_c])
    return Mag(s, m.l[keep_r] + gain * col * m.l[ki], m.h + gain * (m.l @ m.s[:, li]) * m.l[ki])


def _parts(g):
    return g.scattering, g.coupling, np.asarray(g.hamiltonian)


def _parts_of(mag):
    return mag.s, mag.l, mag.h


def _assert_exact(got, want, signed_zeros=True):
    # S and L equal, bit for bit when signed_zeros, else with -0.0 == +0.0
    for i in (0, 1):
        a, b = _parts(got)[i], _parts(want)[i]
        assert a.shape == b.shape, "SLH"[i]
        assert a.tobytes() == b.tobytes() if signed_zeros else np.array_equal(a, b), "SLH"[i]


def _assert_within(got, want, mag, other=None, parts=(0, 1, 2)):
    # each part's difference, entry by entry, within GAMMA times the scale of the
    # terms of each side: ``mag`` for got and ``other`` (by default ``mag``) for want
    other = mag if other is None else other
    for i in parts:
        bound = GAMMA * (np.asarray(_parts_of(mag)[i]) + _parts_of(other)[i])
        diff = np.abs(_parts(got)[i] - _parts(want)[i])
        assert np.all(diff <= bound), ("SLH"[i], diff.max(), bound.max())


class Draws:
    """Models of a given width, from this file's own generator: a random passive
    stage series-composed with one to three more, then kept as it is (its
    coupling the shared zero), rebuilt through SlhModel with its own zero
    coupling and a random H, or given a random L and H."""

    KINDS = ("shared", "user", "driven")

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.kinds = dict.fromkeys(self.KINDS, 0)

    def model(self, n):
        rng = self.rng
        g = _random_stage(rng, n)
        for _ in range(int(rng.integers(1, 4))):
            g = series(_random_stage(rng, n), g)
        kind = self.KINDS[int(rng.integers(3))]
        self.kinds[kind] += 1
        if kind == "shared":
            assert g.coupling is core._no_coupling(n)
            return g
        if kind == "user":
            return SlhModel(g.scattering, np.zeros(n), rng.standard_normal())
        return SlhModel(g.scattering, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                        rng.standard_normal())

    def width(self, low=1, high=4):
        return int(self.rng.integers(low, high + 1))


@pytest.fixture
def draws(request):
    # one generator per law, seeded from its name, so a law's draws do not
    # depend on which other laws ran
    made = Draws([sum(map(ord, request.node.name)), 16])
    yield made
    # every kind of operand was drawn
    assert min(made.kinds.values()) > 0, made.kinds


def test_series_is_associative(draws):
    # (G3 <| G2) <| G1 = G3 <| (G2 <| G1)
    for _ in range(DRAWS):
        n = draws.width(1, 6)
        g1, g2, g3 = (draws.model(n) for _ in range(3))
        mag = _mag_series(_mag_series(Mag.of(g3), Mag.of(g2)), Mag.of(g1))
        _assert_within(series(series(g3, g2), g1), series(g3, series(g2, g1)), mag)


def test_concat_is_associative(draws):
    # (G1 [+] H1) [+] G2 = G1 [+] (H1 [+] G2): S and L bit for bit; H sums in
    # another order
    for _ in range(DRAWS):
        a, b, c = (draws.model(draws.width()) for _ in range(3))
        left, right = concat(concat(a, b), c), concat(a, concat(b, c))
        _assert_exact(left, right)
        mag = _mag_concat(_mag_concat(Mag.of(a), Mag.of(b)), Mag.of(c))
        _assert_within(left, right, mag, parts=(2,))


def test_series_and_concat_interchange(draws):
    # (G2 [+] H2) <| (G1 [+] H1) = (G2 <| G1) [+] (H2 <| H1)
    for _ in range(DRAWS):
        n, m = draws.width(), draws.width()
        g1, g2, h1, h2 = draws.model(n), draws.model(n), draws.model(m), draws.model(m)
        left = series(concat(g2, h2), concat(g1, h1))
        right = concat(series(g2, g1), series(h2, h1))
        mag = _mag_series(_mag_concat(Mag.of(g2), Mag.of(h2)),
                          _mag_concat(Mag.of(g1), Mag.of(h1)))
        _assert_within(left, right, mag)


def test_feedback_acts_inside_one_block_of_a_concatenation(draws):
    # [G [+] H]_{k->l} = [G]_{k->l} [+] H for k, l <= G's ports: S and L exactly,
    # but for the sign of a zero, since the loop adds an exact zero product to
    # each entry outside G and -0.0 + 0.0 is +0.0; H sums in another order
    closed = 0
    for _ in range(DRAWS):
        g, h = draws.model(draws.width(2, 4)), draws.model(draws.width())
        k, l = draws.width(1, g.ports), draws.width(1, g.ports)
        try:
            right = concat(feedback(g, k, l), h)
        except SingularLoopError:
            continue
        left = feedback(concat(g, h), k, l)
        _assert_exact(left, right, signed_zeros=False)
        mag = _mag_feedback(_mag_concat(Mag.of(g), Mag.of(h)), concat(g, h), k, l)
        _assert_within(left, right, mag, parts=(2,))
        closed += 1
    assert closed >= DRAWS // 2


def test_series_is_feedback_of_a_concatenation(draws):
    # G2 <| G1 = feedback(., 1, n + 1) applied n times to G1 [+] G2: each step
    # closes the next output of G1 onto the next input of G2, through a loop
    # whose S_kl is an exact zero
    for _ in range(DRAWS):
        n = draws.width()
        g1, g2 = draws.model(n), draws.model(n)
        g = concat(g1, g2)
        mag = _mag_concat(Mag.of(g1), Mag.of(g2))
        for _ in range(n):
            assert g.scattering[0, n] == 0.0
            mag, g = _mag_feedback(mag, g, 1, n + 1), feedback(g, 1, n + 1)
        _assert_within(g, series(g2, g1), mag, _mag_series(Mag.of(g2), Mag.of(g1)))


def test_loop_order_does_not_matter(draws):
    # [[G]_{1->2}]_{2->2} = [[G]_{3->3}]_{1->2} on a 3-port: both close its
    # output 1 onto input 2 and output 3 onto input 3
    closed = 0
    for _ in range(DRAWS):
        g = draws.model(3)
        try:
            a = feedback(g, 1, 2)
            left = feedback(a, 2, 2)
            b = feedback(g, 3, 3)
            right = feedback(b, 1, 2)
        except SingularLoopError:
            continue
        m = Mag.of(g)
        _assert_within(left, right, _mag_feedback(_mag_feedback(m, g, 1, 2), a, 2, 2),
                       _mag_feedback(_mag_feedback(m, g, 3, 3), b, 1, 2))
        closed += 1
    assert closed >= DRAWS // 2
