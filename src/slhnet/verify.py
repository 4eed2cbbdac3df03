"""Self-checking battery behind ``slhnet verify``.

Every closed-form claim the package makes is re-derived here by a second,
independent route: staircase phases against brute-force chain products,
closed-form loop scattering against generic feedback elimination, matrix
reads against per-column chains, and the whole algebra against random
deep compositions that must stay unitary.  Each check reports its worst
measured error next to the tolerance it must beat, so a regression shows
up as a number, not just a boolean; a check with several criteria reports
the one nearest to failing, or failed furthest (``_result``).
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import readout as ro
from . import selector as sel
from .components import beamsplitter, coherent_drive
from .core import (ArityError, SingularLoopError, SlhModel, _check_integers, _model, _settle,
                   _unitarity_residual, concat, feedback, series)
from .selector import TWO_PI

__all__ = ["CheckResult", "random_passive_circuit", "run_all"]

DEFAULT_SEED = 2026


@dataclass(frozen=True)
class CheckResult:
    name: str
    error: float
    tolerance: float
    detail: str = ""
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance


def _result(name, detail, *criteria) -> CheckResult:
    """The one pass rule: each criterion is an ``(error, tolerance)`` pair, and the check
    reports the one with the largest error/tolerance ratio, the first on a tie.  A zero
    tolerance is ratio 0 at error 0 and inf otherwise, so a boolean criterion (0 or 1
    against 0) binds only when it fails, and a NaN error binds and fails."""
    def ratio(criterion):
        error, tolerance = map(float, criterion)
        r = error / tolerance if tolerance else (0.0 if error == 0.0 else math.inf)
        return math.inf if math.isnan(r) else r

    error, tolerance = max(criteria, key=ratio)
    return CheckResult(name, float(error), float(tolerance), detail)


def _uniform(rng, low, high) -> float:
    # rng.uniform(low, high) without its overhead: the same value and generator state
    return low + (high - low) * rng.random()


def _wrapped(a, b):
    # distance on the phase circle
    return np.abs(np.mod(np.asarray(a) - np.asarray(b) + math.pi, TWO_PI) - math.pi)


def _check_switch_dichotomy() -> CheckResult:
    ident = sel.mz(math.pi / 4, -math.pi / 4, 0.0).scattering
    swap = sel.mz(math.pi / 4, -math.pi / 4, math.pi).scattering
    return _result("switch-dichotomy", "mz(pi/4, -pi/4, {0, pi})",
                   (np.abs(ident - np.eye(2)).max(), 1e-14),
                   (np.abs(swap - np.array([[0.0, 1.0], [1.0, 0.0]])).max(), 1e-14))


def _check_driven_beamsplitter(rng) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        a1, a2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        driven = series(beamsplitter(math.pi / 4), coherent_drive([a1, a2]))
        expect = np.array([(a1 - a2), (a1 + a2)]) / math.sqrt(2)
        worst = max(worst, np.abs(driven.coupling - expect).max())
    return _result("driven-beamsplitter", "coupling of B(pi/4) after a drive, 100 draws",
                   (worst, 1e-12))


def _check_selector_exhaustive(rng, n_max: int) -> CheckResult:
    worst_phase = worst_amp = 0.0
    cases = 0
    for n in range(1, n_max + 1):
        bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int64)
        for _ in range(10):
            mu = rng.uniform(0.0, TWO_PI, size=n)
            amps = sel.selector_sweep_amplitudes(mu, bits)
            want = bits @ mu  # an independent route, so a plain @, then core's settle rule
            _settle()
            got = np.angle(amps[:, 0])
            worst_phase = max(worst_phase, _wrapped(got, want % TWO_PI).max())
            worst_amp = max(worst_amp, np.abs(amps[:, 1]).max())
            cases += bits.shape[0]
    return _result("selector-exhaustive",
                   f"{cases} staircases; phase err {worst_phase:.3e} (tol 1e-9), "
                   f"leak {worst_amp:.3e} (tol 1e-10)",
                   (worst_phase, 1e-9), (worst_amp, 1e-10))


def _scalar_matmul(a, b) -> np.ndarray:
    # per-element products with one rounding each, summed in order over k;
    # BLAS matmul may fuse multiply-adds, which breaks the (1/pi)*pi == 1.0
    # cancellation
    acc = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        acc = acc + a[:, k, None] * b[None, k, :]
    return acc


def _check_compilation_algebra() -> CheckResult:
    # two boolean criteria, each 1.0 at the first n where it fails
    inverse = round_trip = 0.0
    detail = "L.Gamma = I and exhaustive round trips exact, n <= 10"
    for n in range(1, 11):
        mats = sel.compilation_matrices(n)
        eye = np.eye(n)
        if not (np.array_equal(_scalar_matmul(mats.lower, mats.gamma), eye)
                and np.array_equal(_scalar_matmul(mats.gamma, mats.lower), eye)):
            inverse, detail = 1.0, f"L.Gamma != I exactly at n={n}"
            break
        bits = ((np.arange(2 ** n)[None, :] >> np.arange(n)[:, None]) & 1).astype(np.int64)
        control, _tails = sel.compile_selector_matrix(bits)
        # for each selector (a column of bits) the fast compile must equal
        # Gamma @ S lifted into [0, 2*pi), the scalar-wise L action must agree
        # with the integer-space recovery, and both must return the input
        via_gamma = mats.gamma @ bits
        _settle()
        via_l = _scalar_matmul(mats.lower, control)
        if not (np.array_equal(control, np.where(via_gamma < 0.0, via_gamma + TWO_PI, via_gamma))
                and np.array_equal(sel.recover_selector_matrix(control), bits)
                and np.array_equal(np.mod(via_l.astype(np.int64), 2), bits)):
            round_trip, detail = 1.0, f"compile round trip failed at n={n}"
            break
    return _result("compilation-algebra", detail, (inverse, 0.0), (round_trip, 0.0))


def _check_matrix_products(rng) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        n, m, k = (int(x) for x in rng.integers(1, 7, size=3))
        mem = rng.uniform(0.0, TWO_PI, size=(n, m))
        bits = rng.integers(0, 2, size=(n, k))
        spec = sel.MatrixProductSpec.from_selector_matrix(bits, mem)
        got = sel.eval_matrix_product(spec)
        # one staircase sweep per memory column over all k selectors; each
        # row equals its one-selector call bit for bit
        for i in range(m):
            amps = sel.selector_sweep_amplitudes(mem[:, i], bits.T)
            brute = np.angle(amps[:, 0]) % TWO_PI
            worst = max(worst, float(_wrapped(got[i], brute).max()))
    return _result("matrix-products", "50 random (n, m, k <= 6) instances", (worst, 1e-9))


def _check_feedback_closed_form(grid: int) -> CheckResult:
    # midpoint grid stays clear of the lone singular point (0, 0)
    pts = TWO_PI * (np.arange(grid) + 0.5) / grid
    # the generic route builds the whole grid as one batch; the closed form
    # stays a per-point scalar evaluation
    built = ro.build_feedback_selector(pts[:, None], pts[None, :]).scattering[..., 0, 0]
    worst = worst_mod = 0.0
    mus = pts.tolist()
    for phi, built_row in zip(mus, built):
        # one row's closed forms as an array; np.hypot is Python's abs(complex)
        # bit for bit, where np.abs of a complex array may differ in the last bit
        closed = np.array([ro.feedback_selector_scattering(phi, mu) for mu in mus])
        diff = closed - built_row
        worst = max(worst, np.hypot(diff.real, diff.imag).max())
        worst_mod = max(worst_mod, np.abs(np.hypot(closed.real, closed.imag) - 1.0).max())
    return _result("feedback-closed-form",
                   f"{grid}x{grid} grid; closed vs generic {worst:.3e} (tol 1e-12), "
                   f"|S|-1 {worst_mod:.3e} (tol 1e-10)",
                   (worst, 1e-12), (worst_mod, 1e-10))


def _check_feedback_dichotomy(rng) -> CheckResult:
    mus = rng.uniform(0.0, TWO_PI, size=1000)
    worst = 0.0
    for mu in mus.tolist():
        if abs(mu) < 1e-6:
            continue
        bypass = ro.feedback_selector_scattering(0.0, mu)
        through = ro.feedback_selector_scattering(math.pi, mu)
        worst = max(worst, abs(bypass - 1.0), abs(through - cmath.exp(1j * mu)))
    return _result("feedback-binary-dichotomy",
                   "S(0, mu) = 1 and S(pi, mu) = e^(i mu), 1000 draws", (worst, 1e-12))


def _check_weighted_lines(rng) -> CheckResult:
    mus = rng.uniform(-math.pi + 1e-6, math.pi, size=1000)
    worst_id = max(abs(ro.weighted_output_phase(math.pi / 2, mu) - mu) for mu in mus.tolist())
    # phi = pi is singular at mu = pi; keep the collapse draws off that point
    mus_flat = rng.uniform(-math.pi + 0.01, math.pi - 0.01, size=1000)
    worst_zero = max(abs(ro.weighted_output_phase(math.pi, mu)) for mu in mus_flat.tolist())
    return _result("weighted-identity-and-collapse",
                   "mu_out(pi/2, mu) = mu and mu_out(pi, mu) = 0, 1000 draws each",
                   (worst_id, 1e-12), (worst_zero, 1e-12))


def _check_weighted_tangent(rng) -> CheckResult:
    worst = 0.0
    kept = 0
    while kept < 2000:
        phi = _uniform(rng, 0.05, math.pi - 0.05)
        mu = _uniform(rng, -math.pi + 0.05, math.pi - 0.05)
        num = 4.0 * math.sin(phi) ** 2 * math.sin(mu)
        den = 2.0 * (3.0 + math.cos(2.0 * phi)) * math.cos(mu) - 8.0 * math.cos(phi)
        if abs(den) < 1e-2 or abs(1.0 - cmath.exp(1j * mu) * math.cos(phi)) < 1e-3:
            continue
        mu_out = ro.weighted_output_phase(phi, mu)
        if abs(math.cos(mu_out)) < 0.05:
            continue
        worst = max(worst, abs(math.tan(mu_out) - num / den))
        kept += 1
    return _result("weighted-tangent-form", "tan(mu_out) vs printed ratio, 2000 kept samples",
                   (worst, 1e-9))


def _check_small_mu_gain() -> CheckResult:
    worst = 0.0
    for k in range(2, 11):
        phi = k * math.pi / 12.0
        analytic = ro.weighted_small_mu_gain(phi)
        measured = (ro.weighted_output_phase(phi, 1e-5)
                    - ro.weighted_output_phase(phi, -1e-5)) / 2e-5
        scale = max(abs(analytic), 1e-30)
        worst = max(worst, abs(measured - analytic) / scale)
    return _result("small-mu-gain",
                   "finite difference vs cot^2(phi/2) on phi = k pi/12, k = 2..10", (worst, 1e-4))


def _check_gain_slope_at_half_pi() -> CheckResult:
    # d/dphi cot^2(phi/2) = -cot(phi/2) csc^2(phi/2) = -2 at phi = pi/2,
    # so the correct first-order model there is 1 - 2 (phi - pi/2)
    worst = 0.0
    for delta in (-0.01, 0.01):
        gain = ro.weighted_small_mu_gain(math.pi / 2 + delta)
        worst = max(worst, abs(gain - (1.0 - 2.0 * delta)))
    return _result("gain-slope-at-half-pi", "gain vs 1 - 2 (phi - pi/2) at |phi - pi/2| = 0.01",
                   (worst, 1e-3))


def _check_chain_equivalence(rng, n_max: int) -> CheckResult:
    worst = 0.0
    cases = 0
    for n in range(1, n_max + 1):
        mu = rng.uniform(0.0, TWO_PI, size=n)
        bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int64)
        chained = ro.chain_feedback_selectors(mu, bits * math.pi)
        direct = [sel.eval_selector(mu, row) for row in bits]
        worst = max(worst, float(_wrapped(chained, direct).max()))
        cases += len(direct)
    return _result("chain-equivalence",
                   f"{cases} feedback chains vs staircase dot products, n <= {n_max}",
                   (worst, 1e-9))


def _random_stage(rng, ports: int) -> SlhModel:
    # one block-diagonal model, drawn in the order a chain of concatenated
    # beamsplitters and phase shifters would draw it: per slot the 0.5 coin
    # (when two ports are left), then the angle.  Each angle is rng.random()
    # scaled as rng.uniform scales it, low + (high - low) * next_double, so
    # the values and the generator state match that chain bit for bit.
    # Entries are written one scalar at a time: a rotation's four as
    # beamsplitter builds them, a phase entry as phase_shift builds a float
    # angle's, cmath.exp(1j * phi), which rounds as np.exp does.
    s = np.zeros((ports, ports), dtype=np.complex128)
    i = 0
    while i < ports:
        if ports - i >= 2 and rng.random() < 0.5:
            theta = -math.pi + TWO_PI * rng.random()
            c, sn = math.cos(theta), math.sin(theta)
            s[i, i] = c
            s[i, i + 1] = -sn
            s[i + 1, i] = sn
            s[i + 1, i + 1] = c
            i += 2
        else:
            s[i, i] = cmath.exp(1j * (TWO_PI * rng.random()))
            i += 1
    return _model(s, None, 0.0)


def random_passive_circuit(rng, max_depth: int = 20) -> SlhModel:
    """A random series/concat/feedback composition of passive primitives.

    Port count is kept small so deep feedback stays cheap; singular loops
    are skipped rather than retried, so the draw count is deterministic
    for a given generator state.
    """
    ports = int(rng.integers(1, 4))  # model.ports, kept in step
    model = _random_stage(rng, ports)
    depth = int(rng.integers(1, max_depth + 1))
    for _ in range(depth):
        choice = rng.random()
        if choice < 0.45:
            model = series(_random_stage(rng, ports), model)
        elif choice < 0.75 and ports < 6:
            model = concat(model, _random_stage(rng, int(rng.integers(1, 3))))
            ports = model.ports
        elif ports >= 2:
            k = int(rng.integers(1, ports + 1))
            l = int(rng.integers(1, ports + 1))
            try:
                model = feedback(model, k, l)
                ports -= 1
            except SingularLoopError:
                pass
    return model


def _check_unitarity_closure(rng, compositions: int) -> CheckResult:
    # residuals of up to 64 matrices of one port count a call, each as it rounds alone
    worst, stacks = 0.0, {}
    for _ in range(compositions):
        s = random_passive_circuit(rng).scattering
        stack = stacks.setdefault(s.shape[-1], [])
        stack.append(s)
        if len(stack) == 64:
            worst = max(worst, float(_unitarity_residual(np.stack(stack)).max()))
            stack.clear()
    for stack in filter(None, stacks.values()):
        worst = max(worst, float(_unitarity_residual(np.stack(stack)).max()))
    return _result("unitarity-closure", f"{compositions} random compositions, depth <= 20",
                   (worst, 1e-10))


def _check_sweep_columns() -> CheckResult:
    grid = ro._interior_grid(-math.pi, math.pi, 401)
    phis = (math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi)
    curve = ro.sweep_transfer(phis, grid)
    half = curve.column(math.pi / 2)
    flat = curve.column(math.pi)
    rerun = float(not np.array_equal(curve.samples, ro.sweep_transfer(phis, grid).samples))
    return _result("sweep-columns",
                   "401-point sweep: pi/2 column = mu, pi column = 0, rerun bit-identical",
                   (np.abs(half[:, 1] - half[:, 0]).max(), 1e-12),
                   (np.abs(flat[:, 1]).max(), 1e-12), (rerun, 0.0))


def run_all(seed: int = DEFAULT_SEED, exhaustive_n: int = 8,
            compositions: int = 1000, grid: int = 100):
    """Run the whole battery and return a list of CheckResult, each with the
    wall time of its check.  The checks run in this fixed order, which fixes
    the draws each one takes from the shared generator.  Each size must be
    an integer of at least 1, so that no check passes on no case, and the seed
    an integer of at least 0, so that every run can be repeated."""
    for what, size in (("exhaustive_n", exhaustive_n), ("compositions", compositions),
                       ("grid", grid)):
        if _check_integers(what, size)[0] < 1:
            raise ArityError(f"{what} must be at least 1, got {size}")
    (seed,) = _check_integers("seed", seed)
    if seed < 0:
        raise ArityError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    checks = [
        lambda: _check_switch_dichotomy(),
        lambda: _check_driven_beamsplitter(rng),
        lambda: _check_selector_exhaustive(rng, exhaustive_n),
        lambda: _check_compilation_algebra(),
        lambda: _check_matrix_products(rng),
        lambda: _check_feedback_closed_form(grid),
        lambda: _check_feedback_dichotomy(rng),
        lambda: _check_weighted_lines(rng),
        lambda: _check_weighted_tangent(rng),
        lambda: _check_small_mu_gain(),
        lambda: _check_gain_slope_at_half_pi(),
        lambda: _check_chain_equivalence(rng, exhaustive_n),
        lambda: _check_unitarity_closure(rng, compositions),
        lambda: _check_sweep_columns(),
    ]
    results = []
    for check in checks:
        start = time.perf_counter()
        result = check()
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
