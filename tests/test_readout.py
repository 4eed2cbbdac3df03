import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slhnet import (
    FEEDBACK_SINGULAR_TOL,
    ArityError,
    DomainError,
    SelectorSpec,
    SingularLoopError,
    TransferCurve,
    build_feedback_selector,
    build_weighted_selector,
    canonical_phase,
    chain_feedback_selectors,
    eval_selector,
    feedback_selector_scattering,
    identity,
    principal_phase,
    series,
    sweep_transfer,
    weighted_output_phase,
    weighted_selector_scattering,
    weighted_small_mu_gain,
)
from slhnet.core import _feedback_masked
from slhnet.readout import _selector_loop

PI = math.pi
TWO_PI = 2.0 * PI


def test_principal_phase_range():
    assert principal_phase(-1.0 + 0.0j) == PI
    assert principal_phase(1.0 + 0.0j) == 0.0
    assert principal_phase(-1j) == pytest.approx(-PI / 2, abs=1e-15)


def test_closed_form_matches_built_loop():
    rng = np.random.default_rng(61)
    for _ in range(200):
        phi, mu = rng.uniform(0.05, TWO_PI - 0.05, size=2)
        built = build_feedback_selector(phi, mu)
        s = feedback_selector_scattering(phi, mu)
        assert built.ports == 1
        assert abs(built.scattering[0, 0] - s) < 1e-12
        assert abs(abs(s) - 1.0) < 1e-10


def test_closed_form_denominator_sign():
    # flipping the denominator's last sign breaks the phi = 0 passthrough,
    # so the two candidate forms are distinguishable at a single point
    phi, mu = 0.0, 0.7
    good = feedback_selector_scattering(phi, mu)
    assert abs(good - 1.0) < 1e-12
    num = 1.0 + cmath.exp(1j * phi) - 2.0 * cmath.exp(1j * (phi + mu))
    flipped = num / (2.0 - cmath.exp(1j * mu) + cmath.exp(1j * (phi + mu)))
    assert abs(flipped - 1.0) > 0.1


def test_numerator_is_reflected_denominator():
    # num = -e^{i(mu+phi)} conj(den), the algebraic reason |S| = 1
    rng = np.random.default_rng(67)
    for _ in range(100):
        phi, mu = rng.uniform(0.0, TWO_PI, size=2)
        num = 1.0 + cmath.exp(1j * phi) - 2.0 * cmath.exp(1j * (phi + mu))
        den = 2.0 - cmath.exp(1j * mu) - cmath.exp(1j * (phi + mu))
        assert abs(num + cmath.exp(1j * (mu + phi)) * den.conjugate()) < 1e-12


def test_feedback_selector_dichotomy():
    rng = np.random.default_rng(71)
    for mu in rng.uniform(0.01, TWO_PI - 0.01, size=100):
        assert abs(feedback_selector_scattering(0.0, mu) - 1.0) < 1e-12
        assert abs(feedback_selector_scattering(PI, mu) - cmath.exp(1j * mu)) < 1e-12


def test_feedback_selector_singular_point():
    with pytest.raises(SingularLoopError) as info:
        feedback_selector_scattering(0.0, 0.0)
    assert info.value.k == 1 and info.value.l == 1
    assert abs(info.value.s_kl - 1.0) < 1e-12
    with pytest.raises(SingularLoopError):
        build_feedback_selector(0.0, 0.0)
    with pytest.raises(SingularLoopError):
        feedback_selector_scattering(TWO_PI, TWO_PI)  # same point mod 2*pi
    with pytest.raises(SingularLoopError) as info:
        feedback_selector_scattering(np.float64(0), np.float64(0))
    assert str(info.value).startswith("feedback selector singular at phi=0.0, mu=0.0: ")
    # the singularity is removable: the limit is 1 from every direction, and
    # the chain substitutes it, also at (0, 7e-10), which the build refuses
    with pytest.raises(SingularLoopError):
        build_feedback_selector(0.0, 7e-10)
    assert chain_feedback_selectors([0.0], [0.0]) == 0.0
    assert chain_feedback_selectors([0.0, 7e-10], [0.0, 0.0]) == 0.0


def _refuses(call):
    try:
        call()
    except SingularLoopError:
        return True
    return False


# (closed form, generic feedback route) at phi = 0, where |1 - S_11| of the
# open loop is 2 sin(mu / 2): mu itself, far inside the 1e-3 margins below
LOOP_ROUTES = {
    "binary": (lambda mu: feedback_selector_scattering(0.0, mu),
               lambda mu: build_feedback_selector(0.0, mu)),
    "weighted": (lambda mu: weighted_selector_scattering(0.0, mu),
                 lambda mu: build_weighted_selector(0.0, mu)),
    "sweep": (lambda mu: sweep_transfer([0.0], [mu]),
              lambda mu: build_weighted_selector(0.0, mu)),
}


@pytest.mark.parametrize("route", sorted(LOOP_ROUTES))
def test_closed_forms_refuse_where_feedback_refuses(route):
    closed, generic = LOOP_ROUTES[route]
    for mu, inside in ((7e-10, True),
                       (FEEDBACK_SINGULAR_TOL * (1.0 - 1e-3), True),
                       (FEEDBACK_SINGULAR_TOL * (1.0 + 1e-3), False)):
        assert _refuses(lambda: generic(mu)) is inside
        assert _refuses(lambda: closed(mu)) is inside


def test_binary_refusal_band_equals_batched_feedback_mask():
    # a dense band around the singular point (0, 0): the closed form must
    # refuse exactly where the batched generic elimination masks the loop
    from slhnet.core import _feedback_masked
    from slhnet.readout import _selector_loop

    rng = np.random.default_rng(7)
    phi, mu = rng.uniform(-4e-9, 4e-9, size=(2, 10 ** 5))
    _, singular = _feedback_masked(_selector_loop(phi, mu), 1, 1)
    refused = np.array([_refuses(lambda: feedback_selector_scattering(p, m))
                        for p, m in zip(phi.tolist(), mu.tolist())])
    assert 0 < refused.sum() < refused.size
    assert np.array_equal(refused, singular)


def _weighted_band(rng, box):
    if box == "origin":
        return rng.uniform(-4e-9, 4e-9, size=(2, 10 ** 5))
    # near (pi, pi) the singular set is anisotropic: |1 - e^{i mu} cos phi|
    # is about (phi - pi)^2 / 2 along phi but |mu - pi| along mu
    phi = PI + rng.uniform(-1e-4, 1e-4, size=10 ** 5)
    return phi, PI + rng.uniform(-4e-9, 4e-9, size=10 ** 5)


@pytest.mark.parametrize("box, count", [("origin", 24883), ("pi", 9685)])
def test_weighted_refusal_band_equals_batched_feedback_mask(box, count):
    # dense bands around both singular points of the weighted readout: the
    # closed form, the batched generic elimination and sweep_transfer must
    # refuse exactly the same points
    from slhnet.core import _feedback_masked
    from slhnet.readout import _weighted_loop

    rng = np.random.default_rng(7)
    if box == "pi":
        _weighted_band(rng, "origin")  # the boxes are drawn in sequence
    phi, mu = _weighted_band(rng, box)
    _, singular = _feedback_masked(_weighted_loop(phi, mu), 1, 1)
    refused = np.array([_refuses(lambda: weighted_selector_scattering(p, m))
                        for p, m in zip(phi.tolist(), mu.tolist())])
    assert refused.sum() == count
    assert np.array_equal(refused, singular)
    swept = np.array([_refuses(lambda: sweep_transfer([p], [m]))
                      for p, m in zip(phi[:10 ** 4], mu[:10 ** 4])])
    assert np.array_equal(swept, singular[:10 ** 4])


def test_weighted_routes_agree_with_batched_generic_route_on_cli_grid():
    # the whole 4 x 401 grid of the CLI sweep and verify's sweep-columns,
    # against one batched generic feedback elimination
    from slhnet.readout import _interior_grid

    phis = np.array([PI / 3, PI / 2, 2 * PI / 3, PI])
    grid = _interior_grid(-PI, PI, 401)
    phi, mu = np.meshgrid(phis, grid, indexing="ij")
    generic = build_weighted_selector(phi, mu).scattering[..., 0, 0]
    closed = np.array([weighted_selector_scattering(p, m)
                       for p, m in zip(phi.ravel().tolist(), mu.ravel().tolist())])
    assert_allclose(closed, generic.ravel(), rtol=0, atol=1e-12)
    curve = sweep_transfer(phis, grid)
    assert np.array_equal(curve.samples[:, 0], mu.ravel())
    assert np.array_equal(curve.samples[:, 1], phi.ravel())
    # compare on the unit circle: immune to the branch cut at pi
    assert_allclose(np.exp(1j * curve.samples[:, 2]), generic.ravel(), rtol=0, atol=1e-12)


# (closed form, its generic route, finite arguments); each argument in turn
# is made non-finite, and both routes must refuse it
FINITE_ROUTES = {
    "feedback_selector_scattering": (feedback_selector_scattering,
                                     build_feedback_selector, (0.3, 0.7)),
    "weighted_selector_scattering": (weighted_selector_scattering,
                                     build_weighted_selector, (0.3, 0.7)),
    "weighted_output_phase": (weighted_output_phase, build_weighted_selector, (0.3, 0.7)),
    "weighted_small_mu_gain": (weighted_small_mu_gain,
                               lambda phi: build_weighted_selector(phi, 0.0), (0.3,)),
    # the second memory slot is not selected, and is refused all the same
    "eval_selector": (lambda a, b: eval_selector([a, b], [1, 0]),
                      lambda a, b: SelectorSpec.from_selector([1, 0], [a, b]), (0.7, 0.2)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(FINITE_ROUTES))
def test_closed_forms_refuse_non_finite_angles_as_generic_routes_do(name, bad):
    closed, generic, args = FINITE_ROUTES[name]
    closed(*args)
    generic(*args)
    for i in range(len(args)):
        bad_args = args[:i] + (bad,) + args[i + 1:]
        with pytest.raises(DomainError):
            generic(*bad_args)
        with pytest.raises(DomainError):
            closed(*bad_args)


# a bool, a string or a complex angle in either argument of a scalar route;
# eval_selector takes a list, in which numpy reads [True, 0.2] as numbers
@pytest.mark.parametrize("bad", [True, np.True_, "x", 1j],
                         ids=["bool", "numpy-bool", "str", "complex"])
@pytest.mark.parametrize("name", sorted(set(FINITE_ROUTES) - {"eval_selector"}))
def test_closed_forms_refuse_non_real_angles_as_generic_routes_do(name, bad):
    closed, generic, args = FINITE_ROUTES[name]
    for i in range(len(args)):
        bad_args = args[:i] + (bad,) + args[i + 1:]
        with pytest.raises(DomainError, match="must be real"):
            generic(*bad_args)
        with pytest.raises(DomainError, match="must be real"):
            closed(*bad_args)


def test_closed_forms_name_the_non_finite_angle():
    with pytest.raises(DomainError) as info:
        feedback_selector_scattering(math.nan, 0.5)
    assert str(info.value) == "phi must be finite, got nan"
    with pytest.raises(DomainError) as info:
        weighted_output_phase(0.5, -math.inf)
    assert str(info.value) == "mu must be finite, got -inf"


def test_chain_examples():
    got = chain_feedback_selectors([0.3, 0.7, 1.1], [0.0, PI, PI])
    assert got == pytest.approx(1.8, abs=1e-12)
    got = chain_feedback_selectors([2.0, 3.0], [PI, PI])
    assert got == pytest.approx(5.0, abs=1e-12)
    # matmul dust can push an all-zero readout to either side of 0, and the
    # canonical range folds the negative side to just under 2*pi
    got = chain_feedback_selectors([0.4, 2.2], [0.0, 0.0])
    assert min(got, TWO_PI - got) < 1e-12
    assert chain_feedback_selectors([], []) == 0.0


def test_chain_accepts_zero_memory_with_zero_control():
    # stage (phi, mu) = (0, 0) hits the removable point; the chain treats
    # it as the bypass it is instead of dying
    got = chain_feedback_selectors([0.0, 1.3], [0.0, PI])
    assert got == pytest.approx(1.3, abs=1e-12)


def test_chain_validation():
    with pytest.raises(ArityError):
        chain_feedback_selectors([0.3], [0.0, PI])
    with pytest.raises(ArityError):
        chain_feedback_selectors([0.3], [[0.0, PI]])
    with pytest.raises(ArityError):
        chain_feedback_selectors([0.3], [[[0.0]]])
    with pytest.raises(DomainError):
        chain_feedback_selectors([0.3], [0.5])
    with pytest.raises(DomainError, match="0.5"):
        chain_feedback_selectors([0.3, 0.4], [[0.0, PI], [0.5, 0.7]])
    # an array argument is named by its Python value, not numpy's repr
    with pytest.raises(DomainError) as info:
        chain_feedback_selectors(np.array([0.1, 0.2]), np.array([0, 0.5]))
    assert str(info.value) == "control phase must be exactly 0 or pi, got 0.5"


def _chain_reference(mu, phi):
    # one scalar build per stage, series-composed in order; a singular stage
    # is the bypass, S = 1
    model = identity(1)
    for m, p in zip(mu, phi):
        stage, singular = _feedback_masked(_selector_loop(p, m), 1, 1)
        model = series(identity(1) if singular else stage, model)
    return canonical_phase(principal_phase(model.scattering[0, 0]))


def test_chain_equals_per_stage_fold_bit_for_bit():
    rng = np.random.default_rng(89)
    for n in range(0, 9):
        mu = rng.uniform(0.0, TWO_PI, size=n)
        mu[: n // 3] = 0.0  # a zero memory under a zero control is the removable point
        bits = (np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1
        rows = chain_feedback_selectors(mu, bits * PI)
        assert rows.shape == (2 ** n,)
        for row, got in zip(bits, rows):
            want = _chain_reference(mu, row * PI)
            assert got == want
            assert chain_feedback_selectors(mu, row * PI) == want
    # a row phase just below 0 reduces to 0.0 in a batch as it does alone
    assert chain_feedback_selectors([-1e-300], [[PI], [0.0]]).tolist() == [0.0, 0.0]
    assert type(chain_feedback_selectors([-1e-300], [PI])) is float
    assert _chain_reference([-1e-300], [PI]) == 0.0


def _assert_same_model(got, want):
    assert np.array_equal(got.scattering, want.scattering)
    assert np.array_equal(got.coupling, want.coupling)
    assert got.hamiltonian == want.hamiltonian


def test_batched_feedback_selector_equals_per_point_builds():
    # the grid holds the removable point (0, 0) and the refused (0, 7e-10)
    # and (7e-10, 0); every other point builds alone and in one batch
    pts = np.append(TWO_PI * np.arange(12) / 12, 7e-10)
    phi, mu = np.meshgrid(pts, pts, indexing="ij")
    refused = [(i, j) for i, j in np.ndindex(phi.shape)
               if _refuses(lambda: build_feedback_selector(phi[i, j], mu[i, j]))]
    assert refused == [(0, 0), (0, 12), (12, 0)]
    keep = np.ones(phi.shape, dtype=bool)
    keep[tuple(np.transpose(refused))] = False
    batch = build_feedback_selector(phi[keep], mu[keep])
    for n, (p, m) in enumerate(zip(phi[keep], mu[keep])):
        _assert_same_model(batch.at(n), build_feedback_selector(p, m))
    with pytest.raises(SingularLoopError) as batched:
        build_feedback_selector(phi, mu)
    with pytest.raises(SingularLoopError) as single:
        build_feedback_selector(0.0, 0.0)
    assert (batched.value.k, batched.value.l, batched.value.s_kl, str(batched.value)) == (
        single.value.k, single.value.l, single.value.s_kl, str(single.value))
    # the chain puts S = 1 on both binary singular stages, which then read nothing
    rows = chain_feedback_selectors([0.0, 7e-10, 0.3], [[0.0, 0.0, PI], [0.0, 0.0, 0.0]])
    assert rows.tolist() == [chain_feedback_selectors([0.3], [PI]),
                             chain_feedback_selectors([0.3], [0.0])]
    # off the singular set the strict build agrees on a full grid too
    phi, mu = np.meshgrid(pts[:12] + PI / 12, pts[:12] + PI / 12, indexing="ij")
    batch = build_feedback_selector(phi, mu)
    for i, j in np.ndindex(phi.shape):
        _assert_same_model(batch.at((i, j)), build_feedback_selector(phi[i, j], mu[i, j]))


def test_closed_form_check_error_equals_per_point_loop():
    from slhnet.verify import _check_feedback_closed_form

    grid = 20
    pts = TWO_PI * (np.arange(grid) + 0.5) / grid
    worst = max(
        abs(feedback_selector_scattering(phi, mu)
            - build_feedback_selector(phi, mu).scattering[0, 0])
        for phi in pts for mu in pts
    )
    assert _check_feedback_closed_form(grid).error == worst


def test_chain_matches_staircase_eval():
    from slhnet import eval_selector

    rng = np.random.default_rng(73)
    for n in range(1, 6):
        for _ in range(10):
            mu = rng.uniform(0.01, TWO_PI - 0.01, size=n)
            bits = rng.integers(0, 2, size=n)
            got = chain_feedback_selectors(mu, bits * PI)
            want = eval_selector(mu, bits)
            diff = abs(got - want)
            assert min(diff, TWO_PI - diff) < 1e-9


def test_weighted_build_matches_closed_form():
    rng = np.random.default_rng(79)
    for _ in range(200):
        phi = rng.uniform(0.05, PI - 0.05)
        mu = rng.uniform(-PI + 0.05, PI - 0.05)
        built = build_weighted_selector(phi, mu)
        s = weighted_selector_scattering(phi, mu)
        assert abs(built.scattering[0, 0] - s) < 1e-12
        assert abs(abs(s) - 1.0) < 1e-10


def test_weighted_identity_and_collapse_lines():
    rng = np.random.default_rng(83)
    for mu in rng.uniform(-PI + 1e-6, PI, size=100):
        assert weighted_output_phase(PI / 2, mu) == pytest.approx(mu, abs=1e-12)
    for mu in rng.uniform(-PI + 0.01, PI - 0.01, size=100):
        assert weighted_output_phase(PI, mu) == pytest.approx(0.0, abs=1e-12)


def test_weighted_third_weight_example():
    # phi = 2*pi/3 reads mu at weight cot^2(pi/3) = 1/3 for small mu
    got = weighted_output_phase(2.0 * PI / 3.0, 0.01)
    assert abs(got - 0.01 / 3.0) < 1e-6


def test_weighted_singular_points():
    for phi, mu in ((0.0, 0.0), (PI, PI), (PI, -PI)):
        with pytest.raises(SingularLoopError) as info:
            weighted_selector_scattering(phi, mu)
        assert f"phi={phi!r}" in str(info.value)
        with pytest.raises(SingularLoopError):
            build_weighted_selector(phi, mu)
    with pytest.raises(SingularLoopError) as info:
        weighted_selector_scattering(np.float64(PI), np.float64(PI))
    assert f"at phi={PI!r}, mu={PI!r}: " in str(info.value)


def test_small_mu_gain():
    assert weighted_small_mu_gain(PI / 2) == pytest.approx(1.0, abs=1e-15)
    assert weighted_small_mu_gain(PI) == 0.0
    assert weighted_small_mu_gain(2.0 * PI / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    with pytest.raises(DomainError):
        weighted_small_mu_gain(0.0)
    with pytest.raises(DomainError):
        weighted_small_mu_gain(TWO_PI)
    with pytest.raises(DomainError) as info:
        weighted_small_mu_gain(np.float64(0))
    assert str(info.value) == "gain diverges at phi = 0 (mod 2*pi), got 0.0"
    with pytest.raises(DomainError) as info:
        weighted_small_mu_gain(np.array([1.0, 2.0]))
    assert str(info.value) == "phi must be a single angle, got shape (2,)"


def test_small_mu_gain_matches_finite_difference():
    eps = 1e-6
    for k in range(2, 11):
        phi = k * PI / 12.0
        fd = (weighted_output_phase(phi, eps) - weighted_output_phase(phi, -eps)) / (2 * eps)
        assert fd == pytest.approx(weighted_small_mu_gain(phi), rel=1e-4)


def test_gain_slope_near_half_pi_is_minus_two():
    # d/dphi cot^2(phi/2) = -cot(phi/2) csc^2(phi/2), which is -2 at pi/2
    for delta in (0.01, -0.01, 1e-4, -1e-4):
        gain = weighted_small_mu_gain(PI / 2 + delta)
        assert abs(gain - (1.0 - 2.0 * delta)) <= 3.0 * delta * delta


def test_sweep_transfer_layout_and_columns():
    mus = np.linspace(-3.0, 3.0, 101)
    curve = sweep_transfer([PI / 2, PI], mus)
    assert curve.samples.shape == (202, 3)
    # phi-major, mu ascending inside each block
    assert np.all(curve.samples[:101, 1] == PI / 2)
    assert np.all(curve.samples[101:, 1] == PI)
    assert np.all(np.diff(curve.samples[:101, 0]) > 0)
    half = curve.column(PI / 2)
    assert_allclose(half[:, 1], half[:, 0], atol=1e-12)
    assert_allclose(curve.column(PI)[:, 1], 0.0, atol=1e-12)


def test_transfer_curve_column_rejects_unswept_phi():
    curve = sweep_transfer([PI / 3], np.linspace(-3.0, 3.0, 7))
    assert curve.column(PI / 3).shape == (7, 2)
    near = PI / 3 * (1 + 2.0 ** -52)
    assert near != PI / 3
    with pytest.raises(DomainError):
        curve.column(near)
    with pytest.raises(DomainError) as info:
        curve.column(np.float64(0.5))
    assert str(info.value) == "no sweep column has phi = 0.5"


def test_sweep_transfer_is_deterministic():
    mus = np.linspace(-3.0, 3.0, 57)
    a = sweep_transfer([1.0, 2.0, 3.0], mus)
    b = sweep_transfer([1.0, 2.0, 3.0], mus)
    assert np.array_equal(a.samples, b.samples)


def test_sweep_transfer_peak_memory_per_point():
    # the (phi, mu, mu_out) samples take 24 B per point; the kernel's
    # row blocks and the sorted mu grid add a few more, not grid-sized arrays
    phis, mus = np.linspace(0.1, 3.0, 16), np.linspace(-3.0, 3.0, 20000)
    tracemalloc.start()
    try:
        sweep_transfer(phis, mus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (phis.size * mus.size) < 32.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", ["phi", "mu"])
def test_sweep_transfer_refuses_non_finite_angles_up_front(bad, slot):
    phis, mus = [0.5, 1.0], [-1.0, 0.0, 1.0]
    (phis if slot == "phi" else mus)[1] = bad
    (phis if slot == "phi" else mus).append(math.nan)  # only the first is named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            sweep_transfer(phis, mus)
    assert str(info.value) == f"sweep {slot} must be finite, got {bad!r}"


EXTREME_ANGLES = (1.7e308, -1.7e308, 5e-324, -5e-324, PI, -PI)


def test_sweep_transfer_samples_are_finite_at_extreme_finite_angles():
    # |e^{i mu} - cos phi| and |1 - e^{i mu} cos phi| are at most 2 for
    # every finite angle, so no sample can overflow: the sweep has no scan
    for phi in EXTREME_ANGLES:
        for mu in EXTREME_ANGLES:
            if _refuses(lambda: weighted_selector_scattering(phi, mu)):
                assert _refuses(lambda: sweep_transfer([phi], [mu]))
                continue
            out = sweep_transfer([phi], [mu]).samples
            assert np.all(np.isfinite(out)) and -PI < out[0, 2] <= PI
    # magnitudes log-uniform; phi at least 1, so that no point nears (0, 0)
    rng = np.random.default_rng(61)
    phis, mus = (np.append(rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(lo, 308, n),
                           [1.7e308, -1.7e308]) for n, lo in ((40, 0), (50, -323)))
    out = sweep_transfer(phis, mus).samples
    assert out.shape == (42 * 52, 3)
    assert np.all(np.isfinite(out)) and np.all(np.abs(out[:, 2]) <= PI)


def test_sweep_transfer_refuses_other_shapes():
    for phis, mus in (([[0.5, 1.0]], [0.0]), ([0.5], [[0.0]])):
        with pytest.raises(ArityError, match="must be 1-D"):
            sweep_transfer(phis, mus)


def test_sweep_transfer_rejects_singular_grid():
    with pytest.raises(SingularLoopError) as info:
        sweep_transfer([PI], [0.0, PI])
    msg = str(info.value)
    assert "singular set" in msg and "mu=" in msg


def test_transfer_curve_validation():
    with pytest.raises(ArityError):
        TransferCurve(np.zeros((4, 2)))
    with pytest.raises(DomainError) as info:
        TransferCurve(np.array([[0.0, 1.0, math.inf], [0.0, 1.0, math.nan]]))
    assert str(info.value) == "transfer curve sample must be finite, got inf"
    curve = TransferCurve(np.array([[0.1, 0.5, 0.2]]))
    with pytest.raises(ValueError):
        curve.samples[0, 0] = 9.0


def test_transfer_curve_leaves_callers_arrays_writeable():
    # the constructor freezes its own copy; sweep_transfer freezes only the
    # array it made
    a = np.zeros((2, 3))
    curve = TransferCurve(a)
    assert a.flags.writeable and not curve.samples.flags.writeable
    a[0, 0] = 1.0
    assert curve.samples[0, 0] == 0.0
    phis, mus = np.array([0.5, 1.0]), np.array([0.3, -0.2, 0.1])
    curve = sweep_transfer(phis, mus)
    assert phis.flags.writeable and mus.flags.writeable
    assert not curve.samples.flags.writeable
