import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slhnet import kernels
from slhnet.core import (FEEDBACK_SINGULAR_TOL, ArityError, DomainError, SingularLoopError,
                         is_singular_loop)
from slhnet.readout import sweep_transfer
from slhnet.selector import (TWO_PI, SelectorSpec, canonical_phase, eval_selector,
                             staircase_arrays)


def _chain_reference(thetas, phases, ports):
    # independent fold, written matrix-by-matrix with no shared code
    s = np.eye(2, dtype=complex)
    for i, t in enumerate(thetas):
        s = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]) @ s
        if i < len(phases):
            p = np.eye(2, dtype=complex)
            p[ports[i] - 1, ports[i] - 1] = np.exp(1j * phases[i])
            s = p @ s
    return s


def _sequential_fold(thetas, phases, ports):
    # the plain cell-by-cell fold: one 2x2 product per cell, then the phase
    # on its row; the blocked kernel must equal it bit for bit up to BLOCK cells
    s = np.eye(2, dtype=np.complex128)
    for i in range(len(thetas)):
        c, sn = np.cos(thetas[i]), np.sin(thetas[i])
        s = np.array([[c, -sn], [sn, c]], dtype=np.complex128) @ s
        if i < len(phases):
            s[ports[i] - 1, :] *= np.exp(1j * phases[i])
    return s


def _unfused_product(z, f):
    # z * f with each real product rounded once, never a fused multiply-add
    out = np.empty(np.broadcast(z, f).shape, dtype=np.complex128)
    out.real = z.real * f.real - z.imag * f.imag
    out.imag = z.real * f.imag + z.imag * f.real
    return out


def _batch_reference(mu, controls, unfused=False) -> np.ndarray:
    # the strided row walk the two-rail kernel replaced.  As written, its
    # phase steps multiply a column in place, which numpy may fuse on a
    # column longer than one row; unfused=True writes them as the unfused
    # complex product instead
    mu = np.asarray(mu, dtype=np.float64)
    controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
    m, w = controls.shape
    n = w - 1
    amps = np.zeros((m, 2), dtype=np.complex128)
    amps[:, 0] = 1.0
    c45 = np.cos(np.pi / 4)

    def mix(a, sign):
        # B(+-pi/4) applied to every row at once
        left = c45 * a[:, 0] - sign * c45 * a[:, 1]
        right = sign * c45 * a[:, 0] + c45 * a[:, 1]
        return np.stack([left, right], axis=1)

    def phase(rail, factor):
        if unfused:
            amps[:, rail] = _unfused_product(amps[:, rail], factor)
        else:
            amps[:, rail] *= factor

    for i in range(n):
        amps = mix(amps, 1.0)
        phase(0, np.exp(1j * controls[:, i]))
        amps = mix(amps, -1.0)
        phase(1, np.exp(1j * mu[i]))
    amps = mix(amps, 1.0)
    phase(0, np.exp(1j * controls[:, n]))
    amps = mix(amps, -1.0)
    return amps


def _rows_one_at_a_time(mu, controls, rows):
    return np.concatenate([kernels.selector_batch_amplitudes(mu, controls[r:r + 1])
                           for r in rows])


def _all_rows_controls(n):
    # every n-bit selector's control schedule: pi where adjacent bits
    # differ, tail pi when the last bit is set
    rows = (np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1
    prev = np.concatenate([np.zeros((rows.shape[0], 1), dtype=rows.dtype), rows[:, :-1]], axis=1)
    return np.concatenate([(rows != prev) * math.pi, rows[:, -1:] * math.pi], axis=1)


def _random_chain(rng, length):
    thetas = rng.uniform(-math.pi, math.pi, size=length)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=length - 1)
    ports = rng.integers(1, 3, size=length - 1).astype(np.int8)
    return thetas, phases, ports


def test_chain_unitary_against_reference():
    rng = np.random.default_rng(19)
    for _ in range(30):
        thetas, phases, ports = _random_chain(rng, int(rng.integers(1, 12)))
        got = kernels.chain_unitary(thetas, phases, ports)
        assert_allclose(got, _chain_reference(thetas, phases, ports), atol=1e-13)


def test_chain_unitary_of_one_block_is_the_sequential_fold_bit_for_bit():
    rng = np.random.default_rng(29)
    assert kernels.BLOCK == 64
    for length in range(1, kernels.BLOCK + 1):
        for _ in range(3):
            chain = _random_chain(rng, length)
            assert np.array_equal(kernels.chain_unitary(*chain), _sequential_fold(*chain))
    assert np.array_equal(kernels.chain_unitary([], [], []), np.eye(2))


def test_chain_unitary_across_block_boundaries():
    rng = np.random.default_rng(31)
    for length in (63, 64, 65, 127, 128, 129, 4097):
        thetas, phases, ports = _random_chain(rng, length)
        got = kernels.chain_unitary(thetas, phases, ports)
        assert_allclose(got, _chain_reference(thetas, phases, ports), atol=1e-13)


@pytest.mark.parametrize("chain, error", [
    (([0.1, 0.2], [0.3], [0]), DomainError),  # port - 1 = -1 would index from the end
    (([0.1, 0.2], [0.3], [3]), DomainError),
    (([0.1, 0.2], [0.3], [1.5]), DomainError),
    (([0.1, 0.2], [0.3], [True]), DomainError),  # a bool is never port 1
    (([0.1, 0.2], [0.3], [np.True_]), DomainError),
    (([0.1, 0.2], [0.3], [1.0]), DomainError),  # nor is a float, whatever its value
    (([0.1, 0.2], [0.3], np.array([2.0])), DomainError),
    (([0.1, 0.2], [0.3], [None]), DomainError),  # named by value, not by numpy's item()
    (([0.1, 0.2], [0.3], []), ArityError),  # a phase with no port was dropped
    (([0.1, 0.2, 0.3], [0.3], [1]), ArityError),  # a cell with no phase was dropped
    (([0.1, 0.2, 0.3], [0.3], [1, 2]), ArityError),
    (([0.1], [0.3], [1]), ArityError),
    (([], [0.3], [1]), ArityError),
    (([[0.1, 0.2]], [0.3], [1]), ArityError),
])
def test_chain_unitary_refuses_malformed_chains(chain, error):
    with pytest.raises(error):
        kernels.chain_unitary(*chain)


def test_chain_unitary_reads_only_integer_ports():
    with pytest.raises(DomainError) as info:
        kernels.chain_unitary([0.1, 0.2], [0.3], [True])
    assert str(info.value) == "chain port must be 1 or 2, got True"
    # an empty port list has no port to refuse, whatever its dtype
    for empty in ([], np.array([], dtype=bool), np.array([], dtype=np.float64)):
        assert np.array_equal(kernels.chain_unitary([0.4], [], empty),
                              kernels.chain_unitary([0.4], [], []))
    thetas, phases, ports = _random_chain(np.random.default_rng(37), 70)  # int8 ports
    want = kernels.chain_unitary(thetas, phases, ports).tobytes()
    for dtype in (np.uint8, np.int64):
        assert kernels.chain_unitary(thetas, phases, ports.astype(dtype)).tobytes() == want


@pytest.mark.parametrize("n", [4096, 100_000])
def test_chain_unitary_long_staircase_contracts(n):
    rng = np.random.default_rng(n)
    mu = rng.uniform(0.0, TWO_PI, size=n)
    bits = rng.integers(0, 2, size=n)
    spec = SelectorSpec.from_selector(bits, mu)
    out = kernels.chain_unitary(*staircase_arrays(spec)) @ np.array([1.0, 0.0])
    diff = abs(canonical_phase(cmath.phase(out[0])) - eval_selector(mu, bits))
    assert min(diff, TWO_PI - diff) <= 1e-9
    assert abs(out[1]) <= 1e-10


def test_selector_batch_matches_chain_rows():
    rng = np.random.default_rng(23)
    for n in range(0, 5):
        mu = rng.uniform(0.0, 2.0 * math.pi, size=n)
        rows = []
        specs = []
        for _ in range(6):
            bits = rng.integers(0, 2, size=n)
            spec = SelectorSpec.from_selector(bits, mu)
            rows.append(list(spec.control_phases) + [spec.tail_phase])
            specs.append(spec)
        batch = kernels.selector_batch_amplitudes(mu, np.array(rows))
        for row, spec in zip(batch, specs):
            thetas, phases, ports = staircase_arrays(spec)
            s = kernels.chain_unitary(thetas, phases, ports)
            assert_allclose(row, s @ np.array([1.0, 0.0]), atol=1e-13)


def test_weighted_phase_grid_values():
    phis = np.array([0.3, 1.0, 2.5])
    mus = np.array([-2.0, 0.4, 3.0])
    got = kernels.weighted_phase_grid(phis, mus)
    for i, phi in enumerate(phis):
        for j, mu in enumerate(mus):
            z = (np.exp(1j * mu) - math.cos(phi)) / (1.0 - np.exp(1j * mu) * math.cos(phi))
            assert got[i, j] == pytest.approx(np.angle(z), abs=1e-15)


def test_selector_batch_equals_strided_reference_bit_for_bit():
    # n <= 8, row counts from one (the scalar-loop case) up, memory phases
    # uniform or on the quarter turns, where signed zeros show up.  One row
    # equals the strided walk as written; every batch equals the unfused
    # walk, and each of its rows its own one-row call, bit for bit
    rng, pick = np.random.default_rng(37), np.random.default_rng(38)
    quarter = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    for _ in range(9000):
        n = int(rng.integers(0, 9))
        m = int(rng.choice([1, 2, 3, 5, 17, 256]))
        mu = rng.uniform(0.0, TWO_PI, size=n) if rng.random() < 0.5 else rng.choice(quarter, n)
        controls = rng.integers(0, 2, size=(m, n + 1)) * math.pi
        got = kernels.selector_batch_amplitudes(mu, controls)
        want = _batch_reference(mu, controls, unfused=True)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if m == 1:
            assert got.tobytes() == _batch_reference(mu, controls).tobytes()
        else:
            r = int(pick.integers(0, m))
            assert _rows_one_at_a_time(mu, controls, [r]).tobytes() == got[r].tobytes()


def test_selector_batch_all_16_bit_rows_bit_for_bit():
    mu = np.random.default_rng(41).uniform(0.0, TWO_PI, size=16)
    controls = _all_rows_controls(16)
    want = _batch_reference(mu, controls, unfused=True).tobytes()
    assert kernels.selector_batch_amplitudes(mu, controls).tobytes() == want
    # the stage-major layout selector_sweep_amplitudes passes
    stage_major = np.ascontiguousarray(controls.T).T
    got = kernels.selector_batch_amplitudes(mu, stage_major)
    assert got.tobytes() == want
    # rows on both sides of the kernel's block boundaries, and a sample
    rows = np.concatenate([np.arange(kernels.ROW_BLOCK - 2, kernels.ROW_BLOCK + 2),
                           np.random.default_rng(43).choice(2 ** 16, size=60)])
    assert _rows_one_at_a_time(mu, controls, rows).tobytes() == got[rows].tobytes()
    for r in rows[:8]:
        one = controls[r:r + 1]
        assert got[r:r + 1].tobytes() == _batch_reference(mu, one).tobytes()


def _assert_batch_bit_for_bit(mu, controls, rng, samples=8):
    # the whole batch equals the unfused strided walk, and a sample of its
    # rows their one-row calls
    got = kernels.selector_batch_amplitudes(mu, controls)
    want = _batch_reference(mu, controls, unfused=True)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if len(controls):
        rows = rng.choice(len(controls), size=min(samples, len(controls)), replace=False)
        assert _rows_one_at_a_time(mu, controls, rows).tobytes() == got[rows].tobytes()


def _mixed_mu(rng, n):
    # uniform memory phases, some moved to the quarter turns for signed zeros
    mu = rng.uniform(0.0, TWO_PI, size=n)
    mu[rng.random(n) < 0.3] = rng.choice([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    return mu


@pytest.mark.parametrize("m", sorted({0, 1} | {2 ** d + k for d in (1, 3, 8) for k in (-1, 0, 1)}))
def test_selector_batch_at_the_prefix_table_edges(m):
    # m around the powers of two where the shared prefix table deepens by one stage
    rng = np.random.default_rng(1000 + m)
    for n in (3, 10):
        controls = rng.integers(0, 2, size=(m, n + 1)) * math.pi
        _assert_batch_bit_for_bit(_mixed_mu(rng, n), controls, rng)


@pytest.mark.parametrize("m", [kernels.ROW_BLOCK - 1, kernels.ROW_BLOCK + 1,
                               3 * kernels.ROW_BLOCK + 5])
def test_selector_batch_across_row_blocks_with_repeated_rows(m):
    # random rows drawn with replacement from a small pool, in no order:
    # duplicates land in different blocks and read the same table column
    rng = np.random.default_rng(m)
    n = 16
    pool = rng.integers(0, 2, size=(300, n + 1)) * math.pi
    controls = pool[rng.integers(0, len(pool), size=m)]
    _assert_batch_bit_for_bit(_mixed_mu(rng, n), controls, rng, samples=12)
    # and the stage-major layout selector_sweep_amplitudes passes
    stage_major = np.ascontiguousarray(controls.T).T
    _assert_batch_bit_for_bit(_mixed_mu(rng, n), stage_major, rng, samples=4)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_selector_batch_when_the_table_holds_every_stage(n):
    # depth = n + 1: every stage runs on the prefix table, none per row
    rng = np.random.default_rng(50 + n)
    controls = rng.integers(0, 2, size=(5000, n + 1)) * math.pi
    _assert_batch_bit_for_bit(_mixed_mu(rng, n), controls, rng)


def test_selector_batch_random_16_bit_rows_bit_for_bit():
    # random rows reach every prefix in no particular order, unlike the
    # enumerated selectors
    rng = np.random.default_rng(61)
    controls = rng.integers(0, 2, size=(2 ** 16, 17)) * math.pi
    _assert_batch_bit_for_bit(rng.uniform(0.0, TWO_PI, size=16), controls, rng, samples=40)


@pytest.mark.parametrize("stage_major", [False, True])
def test_selector_batch_allocates_nothing_row_sized_but_its_output(stage_major):
    # beyond the switch states and the output, the traced peak stays within
    # two blocks of four complex rails and 64 KiB: one block's rails, the
    # prefix table and block-sized index buffers, no row-sized temporary
    rng = np.random.default_rng(67)
    controls = rng.integers(0, 2, size=(2 ** 16, 17)) * math.pi
    if stage_major:
        controls = np.ascontiguousarray(controls.T).T
    mu = rng.uniform(0.0, TWO_PI, size=16)
    kernels.selector_batch_amplitudes(mu, controls[:3])
    tracemalloc.start()
    try:
        out = kernels.selector_batch_amplitudes(mu, controls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    on_bytes = controls.size * np.dtype(bool).itemsize
    bound = out.nbytes + on_bytes + 2 * (4 * kernels.ROW_BLOCK * 16) + 64 * 1024
    assert peak <= bound


@pytest.mark.parametrize("bad", [0.5, math.nan, np.nextafter(math.pi, 4.0)])
def test_selector_batch_refuses_non_binary_controls(bad):
    controls = np.zeros((3, 3))
    controls[1, 2] = bad
    with pytest.raises(DomainError, match="must be exactly 0 or pi"):
        kernels.selector_batch_amplitudes(np.zeros(2), controls)


@pytest.mark.parametrize("mu, controls", [
    ([0.1], [[0, 0, 0, 0]]),
    ([0.1, 0.2, 0.3], [[math.pi, math.pi]]),  # two memory phases would go unread
    ([[0.1]], [[0, 0]]),
    ([0.1], [[[0, 0]]]),
])
def test_selector_batch_refuses_controls_of_another_length(mu, controls):
    with pytest.raises(ArityError):
        kernels.selector_batch_amplitudes(mu, controls)


# (kernel entry, finite arguments, the angle argument made non-finite, its
# name in the refusal)
KERNEL_ANGLES = {
    "chain-thetas": (kernels.chain_unitary, ([0.1, 0.2, 0.3], [0.4, 0.5], [1, 2]), 0,
                     "chain mixing angle"),
    "chain-phases": (kernels.chain_unitary, ([0.1, 0.2, 0.3], [0.4, 0.5], [1, 2]), 1,
                     "chain phase"),
    "batch-mu": (kernels.selector_batch_amplitudes, ([0.3, 0.7], [[0.0, math.pi, math.pi]]),
                 0, "memory phase"),
    "grid-phis": (kernels.weighted_phase_grid, ([0.5, 1.0], [-1.0, 0.0, 1.0]), 0,
                  "sweep phi"),
    "grid-mus": (kernels.weighted_phase_grid, ([0.5, 1.0], [-1.0, 0.0, 1.0]), 1, "sweep mu"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(KERNEL_ANGLES))
def test_kernel_entries_refuse_non_finite_angles_before_computing(name, bad):
    entry, args, slot, what = KERNEL_ANGLES[name]
    entry(*args)
    # the first angle is bad and the last NaN: only the first is named
    angles = [bad] + args[slot][1:-1] + [math.nan]
    bad_args = args[:slot] + (angles,) + args[slot + 1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            entry(*bad_args)
    assert str(info.value) == f"{what} must be finite, got {bad!r}"


@pytest.mark.parametrize("phis, mus", [
    ([[0.1, 0.2]], [0.3]), (0.1, [0.3]), ([0.1], [[0.3, 0.4]]), ([0.1], 0.3),
], ids=["2d-phis", "0d-phis", "2d-mus", "0d-mus"])
@pytest.mark.parametrize("entry", [kernels.weighted_phase_grid, sweep_transfer],
                         ids=["grid", "sweep"])
def test_grid_entries_read_sweep_angles_alike(entry, phis, mus):
    # angles that are not 1-D are refused with one message on both entries,
    # and a non-finite angle is named first, phis before mus
    with pytest.raises(ArityError) as info:
        entry(phis, mus)
    assert str(info.value) == "phi list and mu grid must be 1-D"
    with pytest.raises(DomainError) as info:
        entry(np.full(np.shape(phis), math.inf), np.full(np.shape(mus), math.nan))
    assert str(info.value) == "sweep phi must be finite, got inf"


@pytest.mark.parametrize("phis, mus, message, s_kl", [
    ([1.0, 0.0], [-0.5, 0.0, 0.25],
     "sweep grid touches the singular set at phi=0.0, mu=0.0",
     1 + 0j),
    ([math.pi], [0.5, math.pi],
     "sweep grid touches the singular set at phi=3.141592653589793, "
     "mu=3.141592653589793",
     1 - 1.2246467991473532e-16j),
])
def test_weighted_phase_grid_refuses_singular_points(phis, mus, message, s_kl):
    # the error sweep_transfer raised from its own pre-check before the
    # kernel took the test over: same message, same ports, same S_kl
    for call in (kernels.weighted_phase_grid, sweep_transfer):
        with pytest.raises(SingularLoopError) as info:
            call(phis, mus)
        err = info.value
        assert str(err) == message
        assert (err.k, err.l) == (1, 1)
        assert err.s_kl == s_kl

def _full_scan_error(phis, mus):
    # the refusal as a full is_singular_loop scan of the grid finds it
    phis, mus = np.asarray(phis, dtype=np.float64), np.asarray(mus, dtype=np.float64)
    den = 1.0 - np.exp(1j * mus)[None, :] * np.cos(phis)[:, None]
    bad = np.argwhere(is_singular_loop(den))
    if not bad.size:
        return None
    i, j = bad[0]
    return (f"sweep grid touches the singular set at phi={float(phis[i])!r}, "
            f"mu={float(mus[j])!r}",
            np.exp(1j * mus[j]) * np.cos(phis[i]))


def _grid_error(call, phis, mus):
    try:
        call(phis, mus)
    except SingularLoopError as err:
        assert (err.k, err.l) == (1, 1)
        return str(err), err.s_kl
    return None


def test_weighted_phase_grid_refuses_the_first_singular_point_past_near_misses():
    # |Re d| <= tol but |Im d| ~ 1e-5 > tol at (pi, pi - 2e-5), (pi, pi - 3e-5)
    # and (0, -1e-5): near misses that the singular test passes, all before
    # the one singular point (0, 0) in C order
    phis = np.array([math.pi, 0.0])
    mus = np.array([math.pi - 2e-5, -1e-5, 0.0, math.pi - 3e-5])
    den = 1.0 - np.exp(1j * mus)[None, :] * np.cos(phis)[:, None]
    near = np.abs(den.real) <= FEEDBACK_SINGULAR_TOL
    singular = is_singular_loop(den)
    first = np.flatnonzero(singular)[0]
    assert np.flatnonzero(near & ~singular).tolist() == [0, 3, 5] and first == 6
    want = _full_scan_error(phis, mus)
    assert want[0].endswith("phi=0.0, mu=0.0")
    assert _grid_error(kernels.weighted_phase_grid, phis, mus) == want
    # sweep_transfer sorts the mus first: (0, -1e-5) still comes before (0, 0)
    assert _grid_error(sweep_transfer, phis, mus) == _full_scan_error(phis, np.sort(mus))


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_weighted_phase_grid_refuses_where_the_full_scan_does(seed):
    # grids around both singular points, offsets log-uniform in [1e-12, 1e-3]
    # on either side, some grids singular and some not
    rng = np.random.default_rng(seed)
    for _ in range(200):
        def near(centers, size):
            off = 10.0 ** rng.uniform(-12, -3, size) * rng.choice([-1.0, 1.0], size)
            return rng.choice(centers, size) + off * (rng.random(size) < 0.9)
        phis = near([0.0, math.pi], int(rng.integers(1, 5)))
        mus = near([0.0, math.pi, -math.pi], int(rng.integers(1, 30)))
        assert _grid_error(kernels.weighted_phase_grid, phis, mus) == _full_scan_error(phis, mus)


def _whole_grid_reference(phis, mus):
    # the unblocked kernel: the six operations on the whole grid at once
    phis, mus = np.asarray(phis, dtype=np.float64), np.asarray(mus, dtype=np.float64)
    e_mu = np.exp(1j * mus)[None, :]
    cos_phi = np.cos(phis)[:, None]
    den = e_mu * cos_phi
    np.subtract(1.0, den, out=den)
    np.conjugate(den, out=den)
    w = e_mu - cos_phi
    w *= den
    return np.angle(w)


def _sweep_reference(phis, mus):
    mus = np.sort(np.asarray(mus, dtype=np.float64))
    phis = np.asarray(phis, dtype=np.float64)
    out = _whole_grid_reference(phis, mus)
    out[out == -math.pi] = math.pi
    samples = np.empty((phis.size, mus.size, 3))
    samples[..., 0], samples[..., 1], samples[..., 2] = mus, phis[:, None], out
    return samples.reshape(-1, 3)


def _blocked_shapes():
    g = kernels.GRID_BLOCK
    # four rows per block: one row below, at and above one and two block edges
    shapes = [(p, g // 4) for p in (3, 4, 5, 7, 8, 9)]
    # block edges that split no row evenly, and one row longer than a block
    shapes += [(p, g // 3 + 1) for p in (1, 2, 3, 4)] + [(3, g + 1)]
    return shapes + [(1, 1), (0, 5), (4, 0), (0, 0)]


@pytest.mark.parametrize("rows, cols", _blocked_shapes())
def test_blocked_grid_equals_the_whole_grid_bit_for_bit(rows, cols):
    rng = np.random.default_rng(rows * 100003 + cols)
    phis = rng.uniform(-4.0, 4.0, rows)
    mus = rng.uniform(-4.0, 4.0, cols)
    got = kernels.weighted_phase_grid(phis, mus)
    want = _whole_grid_reference(phis, mus)
    assert got.shape == want.shape == (rows, cols) and np.array_equal(got, want)
    curve = sweep_transfer(phis, mus)
    assert curve.samples.shape == (rows * cols, 3)
    assert np.array_equal(curve.samples, _sweep_reference(phis, mus))


def test_blocked_grid_equals_the_whole_grid_on_random_shapes():
    # the quarter turns and pi/2 put exact zeros and -pi on the grid
    rng = np.random.default_rng(17)
    for _ in range(60):
        phis = rng.uniform(-4.0, 4.0, int(rng.integers(1, 40)))
        mus = rng.uniform(-4.0, 4.0, int(rng.integers(1, 3000)))
        if rng.random() < 0.5:
            phis[:: 2] = rng.choice([0.5 * math.pi, 1.5, 2.0 * math.pi / 3], phis[:: 2].size)
            mus[:: 3] = rng.choice([-math.pi, 0.5 * math.pi, 2.0], mus[:: 3].size)
        assert np.array_equal(kernels.weighted_phase_grid(phis, mus),
                              _whole_grid_reference(phis, mus))
        assert np.array_equal(sweep_transfer(phis, mus).samples, _sweep_reference(phis, mus))


@pytest.mark.parametrize("phis, first", [
    ([0.5, 0.3, 0.4, 0.0, math.pi, 0.2], "phi=0.0, mu=0.0"),
    ([0.5, 0.3, math.pi, 0.4, 0.0, 0.2], "phi=3.141592653589793, mu=3.141592653589793"),
])
def test_blocked_grid_names_the_first_singular_point(phis, first):
    # two rows per block: singular points in the second and the third block;
    # the refusal names the earlier one in C order
    cols = kernels.GRID_BLOCK // 2
    rng = np.random.default_rng(23)
    mus = np.sort(np.concatenate([rng.uniform(-3.0, 3.0, cols - 2), [0.0, math.pi]]))
    want = _full_scan_error(phis, mus)
    assert want[0].endswith(first)
    assert _grid_error(kernels.weighted_phase_grid, phis, mus) == want
    assert _grid_error(sweep_transfer, phis, mus) == want


def test_grid_refuses_rows_straddling_the_tolerance_among_safe_rows():
    # phi near sqrt(2e-9) = 4.47e-5 and near pi - 4.47e-5, where 1 - |cos phi|
    # crosses FEEDBACK_SINGULAR_TOL, with mu = 0 and mu = pi on the grid; each
    # such row shares its four-row block with rows far from the singular set,
    # so a block skips the singular test only if every one of its rows may
    cols = kernels.GRID_BLOCK // 4
    rng = np.random.default_rng(29)
    mus = np.concatenate([rng.uniform(-3.0, 3.0, cols - 4), [0.0, math.pi, 1e-6, -1e-6]])
    safe = [0.7, 2.0, 1.1, 0.4, 1.3, 0.9, 2.5]
    edge = math.sqrt(2.0 * FEEDBACK_SINGULAR_TOL)
    straddle = edge * (1.0 + np.linspace(-2e-6, 2e-6, 9))
    margins, refused = [], []
    for phi in np.concatenate([straddle, -straddle, math.pi - straddle]):
        margins.append(1.0 - abs(math.cos(phi)) > FEEDBACK_SINGULAR_TOL)
        for at in (0, 3, 5):
            phis = safe[:at] + [phi] + safe[at:]
            want = _full_scan_error(phis, mus)
            refused.append(want is not None)
            assert _grid_error(kernels.weighted_phase_grid, phis, mus) == want
            assert _grid_error(sweep_transfer, phis, mus) == _full_scan_error(phis, np.sort(mus))
    # the rows do straddle: some clear the tolerance, some do not, and both
    # outcomes of the scan occur
    assert any(margins) and not all(margins)
    assert any(refused) and not all(refused)
