import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slhnet import (
    ArityError,
    DomainError,
    CompilationMatrices,
    MatrixProductSpec,
    SelectorSpec,
    build_selector_chain,
    canonical_phase,
    compilation_matrices,
    compile_selector,
    compile_selector_matrix,
    eval_matrix_product,
    eval_selector,
    mz,
    mz_switch,
    recover_selector,
    recover_selector_matrix,
    selector_scattering,
    selector_sweep_amplitudes,
)
from slhnet import kernels
from slhnet.readout import chain_feedback_selectors
from slhnet.selector import TWO_PI, staircase_arrays

PI = math.pi


def all_bit_vectors(n):
    return (np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1


def test_canonical_phase():
    assert canonical_phase(0.0) == 0.0
    assert canonical_phase(TWO_PI) == 0.0
    assert canonical_phase(6.0) == 6.0
    assert canonical_phase(-0.5) == pytest.approx(TWO_PI - 0.5, abs=1e-15)
    assert canonical_phase(9.0) == pytest.approx(9.0 - TWO_PI, abs=1e-15)
    assert canonical_phase(-1e-300) == 0.0  # mod rounds up to 2*pi here
    assert type(canonical_phase(np.float64(3.0))) is float
    # an array keeps its shape, each entry reduced as on its own
    x = np.array([[-1e-300, TWO_PI, 0.5], [-0.5, 9.0, 7.0]])
    got = canonical_phase(x)
    assert got.shape == x.shape
    assert got.tolist() == [[canonical_phase(v) for v in row] for row in x]
    assert got[0, 0] == got[0, 1] == 0.0
    assert canonical_phase(np.zeros((0, 3))).shape == (0, 3)


def test_canonical_phase_refuses_non_finite_phases():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before np.mod can warn
        for bad in (math.nan, math.inf, -math.inf):
            for x in (bad, np.array([[0.5, bad], [bad, 1.0]])):
                with pytest.raises(DomainError) as info:
                    canonical_phase(x)
                assert str(info.value) == f"phase must be finite, got {bad!r}"


def test_mz_quarter_phase():
    s = mz(PI / 4, -PI / 4, PI / 2).scattering
    expect = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    assert_allclose(s, expect, atol=1e-15)


def test_mz_switch_dichotomy():
    assert_allclose(mz_switch(0.0).scattering, np.eye(2), atol=1e-15)
    assert_allclose(mz_switch(PI).scattering, [[0, 1], [1, 0]], atol=1e-15)
    with pytest.raises(DomainError):
        mz_switch(0.3)
    with pytest.raises(DomainError):
        mz_switch(PI + 1e-12)


def test_selector_spec_validation():
    spec = SelectorSpec((0.5, 1.2), (0.0, PI), PI)
    mu, control = np.array([0.5, 1.2]), np.array([0.0, PI])
    twin = SelectorSpec(mu, control, np.float64(PI))
    assert twin == spec and hash(twin) == hash(spec)  # fields compare by value
    assert mu.flags.writeable and control.flags.writeable
    with pytest.raises(ArityError):
        SelectorSpec((0.5,), (0.0, PI), PI)
    with pytest.raises(ArityError):
        SelectorSpec([[0.5]], [[0.0]], 0.0)
    with pytest.raises(DomainError):
        SelectorSpec((TWO_PI,), (0.0,), 0.0)  # memory must sit in [0, 2*pi)
    with pytest.raises(DomainError):
        SelectorSpec((0.5,), (0.1,), 0.0)  # control not exactly 0 or pi
    with pytest.raises(DomainError):
        SelectorSpec((0.5,), (PI,), 0.0)  # tail parity off
    with pytest.raises(DomainError):
        SelectorSpec((0.5, 1.2), (0.0, PI), 0.0)
    # from_selector leaves the shape checks to the constructor
    with pytest.raises(ArityError) as info:
        SelectorSpec.from_selector([1], 0.5)  # a scalar memory bank
    assert str(info.value) == "memory and control phases must be 1-D"
    with pytest.raises(ArityError) as info:
        SelectorSpec.from_selector([0, 1, 1], [0.1, 0.2])
    assert str(info.value) == "2 memory phases need 2 control phases, got 3"


@pytest.mark.parametrize("tail, message", [
    ([0.0], "tail phase must be a single angle, got shape (1,)"),
    (math.nan, "tail phase must be finite, got nan"),
    (-math.inf, "tail phase must be finite, got -inf"),
], ids=["array", "nan", "neg-inf"])
def test_selector_spec_reads_its_tail_as_one_angle(tail, message):
    with pytest.raises(DomainError) as info:
        SelectorSpec([0.1], [0.0], tail)
    assert str(info.value) == message
    assert type(SelectorSpec([0.1], [0.0], 0).tail_phase) is float


@pytest.mark.parametrize("build", [lambda tail: SelectorSpec([0.1], [0.0], tail),
                                   lambda tail: MatrixProductSpec([[0.1]], [[0.0]], [tail])],
                         ids=["vector", "matrix"])
def test_a_non_binary_tail_is_named_as_a_tail(build):
    with pytest.raises(DomainError) as info:
        build(0.5)
    assert str(info.value) == "tail phase must be exactly 0 or pi, got 0.5"


def test_staircase_layout():
    spec = SelectorSpec.from_selector([1, 0, 1], [0.3, 0.7, 1.1])
    thetas, phases, ports = staircase_arrays(spec)
    assert len(thetas) == 2 * (spec.n + 1)
    assert_allclose(thetas[0::2], PI / 4)
    assert_allclose(thetas[1::2], -PI / 4)
    assert len(phases) == 2 * spec.n + 1
    # controls ride the left path inside each switch, memories the right
    # path between switches, tail closes the last switch on the left
    assert list(ports) == [1, 2] * spec.n + [1]
    assert_allclose(phases[0::2][:-1], spec.control_phases)
    assert_allclose(phases[1::2], spec.memory_phases)
    assert phases[-1] == spec.tail_phase


def test_selector_reads_partial_sum_and_preserves_amplitude():
    # controls (0, pi, 0) with tail pi route mu_2 + mu_3 onto the through port
    mu = (0.4, 0.9, 2.2)
    spec = SelectorSpec(mu, (0.0, PI, 0.0), PI)
    s = selector_scattering(spec)
    alpha = 0.6 - 0.3j
    out = s @ np.array([alpha, 0.0])
    assert_allclose(out[0], alpha * np.exp(1j * (mu[1] + mu[2])), atol=1e-12)
    assert abs(out[1]) < 1e-12


def test_two_memory_example():
    spec = SelectorSpec.from_selector([1, 1], [0.5, 1.2])
    out = selector_scattering(spec) @ np.array([1.0, 0.0])
    assert cmath.phase(out[0]) == pytest.approx(1.7, abs=1e-12)
    assert abs(out[1]) < 1e-12


def test_empty_selector_is_one_switch_identity():
    spec = SelectorSpec.from_selector([], [])
    assert_allclose(selector_scattering(spec), np.eye(2), atol=1e-12)


def test_kernel_chain_matches_slh_fold():
    """The batched kernel and the generic series fold must agree exactly."""
    rng = np.random.default_rng(41)
    for n in range(0, 6):
        mu = rng.uniform(0.0, TWO_PI, size=n)
        for bits in all_bit_vectors(n):
            spec = SelectorSpec.from_selector(bits, mu)
            assert_allclose(
                selector_scattering(spec),
                build_selector_chain(spec).scattering,
                atol=1e-12,
            )


def test_chain_reference_does_not_read_the_kernel_layout(monkeypatch):
    """A fault in ``staircase_arrays`` moves the kernel route and not the series fold."""
    spec = SelectorSpec.from_selector([1, 0, 1], [0.3, 0.7, 1.1])
    kernel, fold = selector_scattering(spec), build_selector_chain(spec).scattering
    assert_allclose(kernel, fold, atol=1e-12)

    def rails_swapped(spec):
        thetas, phases, ports = staircase_arrays(spec)
        return thetas, phases, 3 - ports

    monkeypatch.setattr("slhnet.selector.staircase_arrays", rails_swapped)
    assert np.abs(selector_scattering(spec) - kernel).max() > 0.1
    assert build_selector_chain(spec).scattering.tobytes() == fold.tobytes()


def test_compilation_matrices_entries():
    m = compilation_matrices(3)
    assert isinstance(m, CompilationMatrices)
    assert_allclose(m.lower, np.tril(np.ones((3, 3))) / PI, atol=0)
    expect = PI * np.array([[1, 0, 0], [-1, 1, 0], [0, -1, 1]])
    assert_allclose(m.gamma, expect, atol=0)
    with pytest.raises(ArityError):
        compilation_matrices(-1)


@pytest.mark.parametrize("n", [True, 1.5, "x", np.True_, None],
                         ids=["bool", "float", "str", "numpy-bool", "none"])
def test_compilation_matrices_refuse_a_non_integer_length(n):
    with pytest.raises(ArityError) as info:
        compilation_matrices(n)
    assert str(info.value) == f"selector length must be an integer, got {n!r}"


@pytest.mark.parametrize("n", [10**30, 2**62])
def test_compilation_matrices_too_large_for_an_array_are_an_arity_error(n):
    # numpy refuses both shapes before allocating anything, as for identity
    with pytest.raises(ArityError) as info:
        compilation_matrices(n)
    assert str(info.value) == f"selector length {n} exceeds numpy's array size limit"


def test_compilation_matrices_read_any_integer_type():
    m = compilation_matrices(np.int64(3))
    assert np.array_equal(m.gamma, compilation_matrices(3).gamma)
    with pytest.raises(ArityError, match="selector length must be nonnegative, got -1"):
        compilation_matrices(np.int64(-1))


def test_compilation_matrices_freeze_their_own_copies():
    lower, gamma = np.eye(2), np.eye(2)
    m = CompilationMatrices(lower, gamma)
    assert lower.flags.writeable and gamma.flags.writeable
    assert not m.lower.flags.writeable and not m.gamma.flags.writeable
    lower[0, 0] = 5.0
    assert m.lower[0, 0] == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg-inf"])
@pytest.mark.parametrize("field", ["lower", "gamma"])
def test_compilation_matrices_refuse_non_finite_entries(field, bad):
    args = {"lower": [[1.0]], "gamma": [[1.0]], field: [[bad]]}
    with pytest.raises(DomainError) as info:
        CompilationMatrices(**args)
    assert str(info.value) == f"{field} must be finite, got {bad!r}"


def _scalar_matmul(a, b):
    # one rounding per scalar product; BLAS fuses the multiply-add and
    # never rounds (1/pi)*pi down to 1.0
    n, k, m = a.shape[0], a.shape[1], b.shape[1]
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def test_lower_and_gamma_are_exact_inverses():
    for n in range(1, 11):
        m = compilation_matrices(n)
        assert np.array_equal(_scalar_matmul(m.lower, m.gamma), np.eye(n))
        assert np.array_equal(_scalar_matmul(m.gamma, m.lower), np.eye(n))


def test_compile_examples():
    control, tail = compile_selector([0, 1, 1])
    assert np.array_equal(control, [0.0, PI, 0.0]) and tail == PI
    control, tail = compile_selector([1, 0, 1])
    assert np.array_equal(control, [PI, PI, PI]) and tail == PI
    control, tail = compile_selector([0, 0, 0, 0])
    assert np.array_equal(control, np.zeros(4)) and tail == 0.0
    with pytest.raises(DomainError):
        compile_selector([0, 2])
    with pytest.raises(ArityError):
        compile_selector([[0, 1]])


def test_selector_bits_accept_every_binary_dtype_and_name_the_input():
    want, _ = compile_selector([1, 0, 1])
    for bits in ([True, False, True], np.array([1, 0, 1], dtype=np.uint8),
                 np.array([1, 0, 1], dtype=np.int8), [1.0, 0.0, 1.0], [1 + 0j, 0j, 1 + 0j]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a complex input is tested, not cast
            assert np.array_equal(compile_selector(bits)[0], want)
    for bad in ([0, 2], [0, -1], np.array([0, 255], dtype=np.uint8), [0.0, 0.5], ["0", "1"],
                [1 + 1j, 0]):
        with pytest.raises(DomainError) as info:
            compile_selector(bad)
        assert str(info.value) == "selector entries must be 0 or 1"
        with pytest.raises(DomainError) as info:
            compile_selector_matrix([bad])
        assert str(info.value) == "selector matrix entries must be 0 or 1"
        with pytest.raises(DomainError) as info:
            selector_sweep_amplitudes(np.zeros(2), [bad])
        assert str(info.value) == "selector entries must be 0 or 1"


@pytest.mark.parametrize("dtype", [np.bool_, np.int8, np.int32, np.uint8, np.uint16, np.float32,
                                   np.float64, np.complex128], ids=lambda d: np.dtype(d).name)
def test_every_bit_dtype_reads_as_its_int64_bits_bit_for_bit(dtype):
    rng = np.random.default_rng(79)
    for _ in range(1000):
        n = int(rng.integers(0, 40))
        bits = rng.integers(0, 2, size=n)
        mu = rng.uniform(0.0, TWO_PI, size=n)
        typed = bits.astype(dtype)
        assert eval_selector(mu, typed) == eval_selector(mu, bits)
        control, tail = compile_selector(typed)
        want_control, want_tail = compile_selector(bits)
        assert control.tobytes() == want_control.tobytes() and tail == want_tail


def _gamma_route(s):
    # the dense reference: Gamma @ s with negative entries lifted by 2*pi
    s = np.asarray(s)
    raw = compilation_matrices(s.shape[0]).gamma @ s.astype(np.float64)
    return np.where(raw < 0.0, raw + TWO_PI, raw)


def test_compile_equals_gamma_route_exactly():
    rng = np.random.default_rng(61)
    for n in (0, 1, 2, 17, 300):
        s = rng.integers(0, 2, size=n)
        control, tail = compile_selector(s)
        assert np.array_equal(control, _gamma_route(s))
        assert tail == PI * (np.count_nonzero(_gamma_route(s)) % 2)
        mat = rng.integers(0, 2, size=(n, 5))
        phi, tails = compile_selector_matrix(mat)
        assert np.array_equal(phi, _gamma_route(mat))
        assert np.array_equal(tails, PI * (np.count_nonzero(_gamma_route(mat), axis=0) % 2))


def test_from_selector_never_builds_dense_gamma():
    # a dense 4096 x 4096 Gamma alone takes 128 MiB
    rng = np.random.default_rng(67)
    s = rng.integers(0, 2, size=4096)
    mu = rng.uniform(0.0, TWO_PI, size=4096)
    tracemalloc.start()
    try:
        spec = SelectorSpec.from_selector(s, mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.n == 4096
    assert peak < 1 << 20


def test_binary_phase_checks_name_the_first_bad_entry():
    ok = np.array([0.0, PI])
    for call in (
        lambda: SelectorSpec((0.1, 0.2, 0.3), (0.0, 0.5, 0.7), 0.0),
        lambda: MatrixProductSpec([[0.1], [0.2], [0.3]], [[0.0], [0.5], [0.7]], [0.0]),
        lambda: recover_selector([0.0, 0.5, 0.7]),
        lambda: recover_selector_matrix([[0.0, 0.0], [0.5, 0.7]]),
        lambda: chain_feedback_selectors([0.1, 0.2, 0.3], [0.0, 0.5, 0.7]),
        lambda: mz_switch(0.5),
    ):
        with pytest.raises(DomainError) as info:
            call()
        msg = str(info.value)
        assert "must be exactly 0 or pi" in msg and "0.5" in msg and "0.7" not in msg
    # numpy scalars are named by their Python value
    for bad, shown in ((1, "1"), (np.int64(1), "1"), (np.float64(0.5), "0.5")):
        with pytest.raises(DomainError) as info:
            mz_switch(bad)
        assert str(info.value) == f"switch control phase must be exactly 0 or pi, got {shown}"
    recover_selector(ok)
    with pytest.raises(DomainError, match="nan"):
        recover_selector([0.0, float("nan")])


def test_compile_recover_round_trip_is_exact():
    for n in range(0, 11):
        for bits in all_bit_vectors(n):
            control, tail = compile_selector(bits)
            for x in control:
                assert x == 0.0 or x == PI
            assert tail == PI * (bits[-1] if n else 0)  # telescoped schedule sum
            assert np.array_equal(recover_selector(control), bits)


def test_recover_selector_rejects_inexact_phases():
    with pytest.raises(DomainError):
        recover_selector([0.0, PI + 1e-9])
    with pytest.raises(ArityError):
        recover_selector(np.zeros((2, 2)))
    with pytest.raises(ArityError, match="control matrix must be 2-D"):
        recover_selector_matrix([0.0, PI])


def test_eval_selector_examples():
    assert eval_selector([0.3, 0.7, 1.1], [0, 1, 1]) == pytest.approx(1.8, abs=1e-12)
    assert eval_selector([0.3, 0.7, 1.1], [0, 0, 0]) == 0.0
    # 6.0 < 2*pi already, so no reduction happens here
    assert eval_selector([3.0, 3.0], [1, 1]) == pytest.approx(6.0, abs=1e-12)
    # 9.0 does reduce
    assert eval_selector([4.5, 4.5], [1, 1]) == pytest.approx(9.0 - TWO_PI, abs=1e-12)
    with pytest.raises(ArityError):
        eval_selector([0.3], [0, 1])
    for mu, bits in (([[0.1]], [[1]]), (0.1, 1), ([0.1], [[1]])):
        with pytest.raises(ArityError):
            eval_selector(mu, bits)
    with pytest.raises(DomainError) as info:
        eval_selector([0.3, math.nan, math.inf], [1, 0, 1])
    assert str(info.value) == "memory phase must be finite, got nan"


def test_eval_matches_built_chain():
    rng = np.random.default_rng(43)
    for n in range(1, 7):
        mu = rng.uniform(0.0, TWO_PI, size=n)
        for bits in all_bit_vectors(n):
            spec = SelectorSpec.from_selector(bits, mu)
            out = selector_scattering(spec) @ np.array([1.0, 0.0])
            want = eval_selector(mu, bits)
            got = canonical_phase(cmath.phase(out[0]))
            diff = abs(got - want)
            assert min(diff, TWO_PI - diff) < 1e-9
            assert abs(out[1]) < 1e-10


def test_selector_sweep_amplitudes():
    rng = np.random.default_rng(47)
    mu = rng.uniform(0.0, TWO_PI, size=4)
    selectors = all_bit_vectors(4)
    amps = selector_sweep_amplitudes(mu, selectors)
    assert amps.shape == (16, 2)
    for row, bits in zip(amps, selectors):
        # compare on the unit circle: immune to the branch cut at pi
        assert abs(row[0] / abs(row[0]) - np.exp(1j * eval_selector(mu, bits))) < 1e-9
    with pytest.raises(ArityError):
        selector_sweep_amplitudes(mu, all_bit_vectors(3))


def test_selector_sweep_amplitudes_refuses_other_shapes():
    for mu, selectors in ((np.zeros(2), np.zeros((2, 2, 2), dtype=int)),
                          (0.5, [[1]]),
                          (np.zeros((1, 1)), [[1]])):
        with pytest.raises(ArityError):
            selector_sweep_amplitudes(mu, selectors)


def test_selector_sweep_amplitudes_equals_per_row_compile():
    rng = np.random.default_rng(71)
    for n, m in ((1, 2), (5, 32), (16, 300)):
        mu = rng.uniform(0.0, TWO_PI, size=n)
        rows = rng.integers(0, 2, size=(m, n))
        controls = np.empty((m, n + 1))
        for r in range(m):
            controls[r, :-1], controls[r, -1] = compile_selector(rows[r])
        want = kernels.selector_batch_amplitudes(mu, controls)
        assert np.array_equal(selector_sweep_amplitudes(mu, rows), want)


@pytest.mark.parametrize("m", [1, 3, kernels.ROW_BLOCK - 1, kernels.ROW_BLOCK + 1, 2 ** 16])
@pytest.mark.parametrize("n", [0, 1, 5, 16])
def test_selector_sweep_equals_the_public_kernel_on_compiled_controls(n, m):
    # the sweep takes its switch states straight from the bits; the public
    # kernel reads the compiled schedule, one row per selector, tail last
    rng = np.random.default_rng(1000 * n + m)
    mu = rng.uniform(0.0, TWO_PI, size=n)
    bits = rng.integers(0, 2, size=(m, n))
    phi, tails = compile_selector_matrix(bits.T)
    want = kernels.selector_batch_amplitudes(mu, np.vstack([phi, tails]).T).tobytes()
    for selectors in (bits.astype(bool), bits.astype(np.uint8), bits, bits.astype(float)):
        assert selector_sweep_amplitudes(mu, selectors).tobytes() == want


def test_selector_sweep_holds_no_float_schedule():
    # 2**16 rows of 16 bits: beyond the output the traced peak stays within
    # three bool arrays of the switch states' size, two blocks of the
    # kernel's four complex rails and 64 KiB, short of one (m, n + 1)
    # float64 control schedule
    n, m = 16, 2 ** 16
    bits = all_bit_vectors(n)
    mu = np.random.default_rng(73).uniform(0.0, TWO_PI, size=n)
    selector_sweep_amplitudes(mu, bits[:3])
    tracemalloc.start()
    try:
        out = selector_sweep_amplitudes(mu, bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = out.nbytes + 3 * m * (n + 2) + 2 * (4 * kernels.ROW_BLOCK * 16) + 64 * 1024
    assert bound < out.nbytes + m * (n + 1) * np.dtype(np.float64).itemsize
    assert peak <= bound


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64], ids=["bool", "uint8", "int64"])
def test_selector_sweep_reads_bool_and_integer_bits_without_a_copy(dtype):
    # the bound of test_selector_sweep_holds_no_float_schedule, short of an
    # int64 copy of the bits, holds for every bool or integer dtype
    n, m = 16, 2 ** 16
    bits = all_bit_vectors(n).astype(dtype)
    mu = np.random.default_rng(83).uniform(0.0, TWO_PI, size=n)
    selector_sweep_amplitudes(mu, bits[:3])
    tracemalloc.start()
    try:
        out = selector_sweep_amplitudes(mu, bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = out.nbytes + 3 * m * (n + 2) + 2 * (4 * kernels.ROW_BLOCK * 16) + 64 * 1024
    assert bound < out.nbytes + m * n * np.dtype(np.int64).itemsize
    assert peak <= bound


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128],
                         ids=["float64", "float32", "complex128"])
def test_selector_sweep_reads_float_and_complex_bits_without_a_copy(dtype):
    # 0/1 bits of a float or complex dtype peak no higher than bool bits do
    n, m = 16, 2 ** 16
    mu = np.random.default_rng(89).uniform(0.0, TWO_PI, size=n)
    peaks = {}
    for kind in (np.bool_, dtype):
        bits = all_bit_vectors(n).astype(kind)
        selector_sweep_amplitudes(mu, bits[:3])
        tracemalloc.start()
        try:
            selector_sweep_amplitudes(mu, bits)
            peaks[kind] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[dtype] <= peaks[np.bool_] + 1024 < m * n * np.dtype(np.int64).itemsize


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.float32, np.complex128, np.bool_])
def test_strided_bits_read_as_their_contiguous_int64_bits_bit_for_bit(dtype):
    # a strided dot product sums in another order, so eval_selector reads a
    # column of a wider array, or a complex array's real part, contiguously
    rng = np.random.default_rng(97)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        bits = rng.integers(0, 2, size=n)
        mu = rng.uniform(0.0, TWO_PI, size=n)
        wide = np.zeros((n, 3), dtype=dtype)
        wide[:, 1] = bits
        want = eval_selector(mu, bits)
        assert eval_selector(mu, wide[:, 1]) == want
        assert eval_selector(mu[::-1], wide[::-1, 1]) == eval_selector(mu[::-1], bits[::-1])


def test_eval_selector_reads_memory_phases_by_value_not_layout():
    # strided, reversed and F-ordered views of mu return the bytes of its
    # contiguous copy: the dot product sums in one order whatever mu's strides
    rng = np.random.default_rng(141)
    moved = 0
    for _ in range(300):
        n = int(rng.integers(2, 40))
        bits = rng.integers(0, 2, size=n)
        mu = rng.uniform(0.0, TWO_PI, size=n)
        want = np.float64(eval_selector(mu.copy(), bits)).tobytes()
        wide = np.zeros(3 * n)
        wide[1::3] = mu
        fortran = np.asfortranarray(np.stack([mu, mu]))
        for view in (wide[1::3], mu[::-1].copy()[::-1], fortran[1], fortran[:, ::-1][0, ::-1]):
            assert np.array_equal(view, mu) and not view.flags.c_contiguous
            assert np.float64(eval_selector(view, bits)).tobytes() == want
        # the strided sum itself rounds otherwise on some draws, so the views do test the read
        moved += np.float64(bits @ wide[1::3]).tobytes() != np.float64(bits @ mu).tobytes()
    assert moved


@pytest.mark.parametrize("mu, ok", [
    (-0.1, False), (TWO_PI, False), (7.0, False),
    (-0.0, True), (np.nextafter(TWO_PI, 0.0), True), (0.0, True),
])
def test_every_staircase_route_refuses_the_same_memory_phases(mu, ok):
    # eval_selector, the per-row spec, the sweep and its kernel agree on [0, 2*pi)
    routes = (lambda: eval_selector([0.5, mu], [1, 1]),
              lambda: SelectorSpec.from_selector([1, 1], [0.5, mu]),
              lambda: selector_sweep_amplitudes([0.5, mu], [[1, 1]]),
              lambda: kernels.selector_batch_amplitudes([0.5, mu], [[0.0, 0.0, 0.0]]))
    for route in routes:
        if ok:
            route()
        else:
            with pytest.raises(DomainError) as info:
                route()
            assert str(info.value) == f"memory phase {mu!r} outside [0, 2*pi)"


def test_selector_sweep_amplitudes_refuses_memory_outside_range():
    for bad in (math.nan, math.inf, -math.inf, -0.1, TWO_PI, 7.0):
        for mu in ([bad], [0.5, bad]):
            bits = [1] * len(mu)
            with pytest.raises(DomainError) as exc:
                selector_sweep_amplitudes(mu, [bits])
            assert str(exc.value) == f"memory phase {bad!r} outside [0, 2*pi)"
            with pytest.raises(DomainError):  # the per-row route refuses too
                SelectorSpec.from_selector(bits, mu)


def test_compile_selector_matrix_example():
    phi, tails = compile_selector_matrix([[0, 1], [1, 1], [1, 0]])
    assert np.array_equal(phi, [[0.0, PI], [PI, 0.0], [0.0, PI]])
    assert np.array_equal(tails, [PI, 0.0])
    assert np.array_equal(recover_selector_matrix(phi), [[0, 1], [1, 1], [1, 0]])
    with pytest.raises(ArityError, match="selector matrix must be 2-D"):
        compile_selector_matrix([0, 1, 1])


def test_compile_selector_matrix_columns_match_vector_compile():
    rng = np.random.default_rng(53)
    s = rng.integers(0, 2, size=(6, 4))
    phi, tails = compile_selector_matrix(s)
    for j in range(4):
        control, tail = compile_selector(s[:, j])
        assert np.array_equal(phi[:, j], control)
        assert tails[j] == tail


def test_matrix_product_example():
    spec = MatrixProductSpec.from_selector_matrix(
        [[1, 0], [1, 1]], [[0.2, 0.4], [0.6, 0.8]]
    )
    assert_allclose(eval_matrix_product(spec), [[0.8, 0.6], [1.2, 0.8]], atol=1e-12)


def test_matrix_product_zero_selector():
    spec = MatrixProductSpec.from_selector_matrix(
        np.zeros((3, 2), dtype=int), np.full((3, 2), 1.0)
    )
    assert_allclose(eval_matrix_product(spec), np.zeros((2, 2)), atol=0)


def test_matrix_product_single_column_reduces_to_eval_selector():
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        mu = rng.uniform(0.0, TWO_PI, size=(n, 1))
        bits = rng.integers(0, 2, size=(n, 1))
        spec = MatrixProductSpec.from_selector_matrix(bits, mu)
        got = eval_matrix_product(spec)
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(
            eval_selector(mu[:, 0], bits[:, 0]), abs=1e-12
        )


def test_matrix_product_equals_inline_mod_bit_for_bit():
    rng = np.random.default_rng(67)
    for _ in range(30):
        n, m, k = (int(v) for v in rng.integers(0, 9, size=3))
        mem = rng.uniform(0.0, TWO_PI, size=(n, m))
        mem[rng.random((n, m)) < 0.2] = 0.0
        spec = MatrixProductSpec.from_selector_matrix(rng.integers(0, 2, size=(n, k)), mem)
        bits = recover_selector_matrix(spec.control_matrix)
        want = np.mod(spec.memory_matrix.T @ bits.astype(np.float64), TWO_PI)
        want[want >= TWO_PI] = 0.0
        got = eval_matrix_product(spec)
        assert got.shape == (m, k) and got.dtype == np.float64
        assert np.array_equal(got, want)


def test_matrix_product_spec_validation():
    # selector column (1, 0) compiles to the schedule (pi, pi), even parity
    phi, tails = compile_selector_matrix([[1], [0]])
    assert np.array_equal(phi, [[PI], [PI]]) and tails[0] == 0.0
    MatrixProductSpec([[0.1], [0.2]], phi, tails)
    with pytest.raises(DomainError):
        MatrixProductSpec([[0.1], [0.2]], phi, [PI])  # tail parity off
    with pytest.raises(DomainError):
        MatrixProductSpec(np.zeros((0, 2)), np.zeros((0, 1)), [PI])  # a lone swap
    # the spec freezes its own copies, never the caller's arrays
    mem, ctrl, tail = np.array([[0.1], [0.2]]), phi.copy(), tails.copy()
    for spec in (MatrixProductSpec(mem, ctrl, tail),
                 MatrixProductSpec.from_selector_matrix([[1], [0]], mem)):
        assert not any(a.flags.writeable for a in
                       (spec.memory_matrix, spec.control_matrix, spec.tail_phases))
        assert all(a.flags.writeable for a in (mem, ctrl, tail))
    with pytest.raises(DomainError):
        MatrixProductSpec([[7.0], [0.2]], phi, tails)  # memory out of range
    for bad in (math.nan, math.inf, -math.inf, TWO_PI):  # NaN compares False
        for memories in ([[bad]], [[0.5, bad]]):
            with pytest.raises(DomainError) as exc:
                MatrixProductSpec.from_selector_matrix([[1]], memories)
            assert str(exc.value) == f"memory phase {bad!r} outside [0, 2*pi)"
    with pytest.raises(ArityError):
        MatrixProductSpec([[0.1]], phi, tails)
    with pytest.raises(ArityError):
        MatrixProductSpec([[0.1], [0.2]], phi, [[PI]])
    with pytest.raises(ArityError, match="1 selector columns need 1 tails"):
        MatrixProductSpec([[0.1], [0.2]], phi, [0.0, 0.0])
