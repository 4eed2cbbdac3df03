import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slhnet import (
    FEEDBACK_SINGULAR_TOL,
    ArityError,
    CompilationMatrices,
    DomainError,
    MatrixProductSpec,
    SelectorSpec,
    SingularLoopError,
    SlhModel,
    TransferCurve,
    beamsplitter,
    build_weighted_selector,
    chain_feedback_selectors,
    check_unitary,
    coherent_drive,
    concat,
    eval_selector,
    feedback,
    feedback_selector_scattering,
    identity,
    kernels,
    mz_switch,
    output_amplitudes,
    phase_shift,
    recover_selector,
    recover_selector_matrix,
    selector_sweep_amplitudes,
    series,
    sweep_transfer,
    weighted_output_phase,
    weighted_selector_scattering,
)
from slhnet.core import _check_angle, _check_finite, _feedback_masked, is_singular_loop
from slhnet.verify import random_passive_circuit


def test_model_coerces_and_freezes():
    m = SlhModel([[1.0]], [0.0], 0.0)
    assert m.scattering.dtype == np.complex128
    assert m.ports == 1
    with pytest.raises(ValueError):
        m.scattering[0, 0] = 2.0
    with pytest.raises(ValueError):
        m.coupling[0] = 1.0


def test_model_shape_validation():
    with pytest.raises(ArityError):
        SlhModel(np.ones((2, 3)), np.zeros(2), 0.0)
    with pytest.raises(ArityError):
        SlhModel(np.eye(2), np.zeros(3), 0.0)
    with pytest.raises(ArityError, match="at least one port"):
        SlhModel(np.zeros((0, 0)), np.zeros(0), 0.0)


@pytest.mark.parametrize("values, shown", [
    (math.nan, "nan"),
    (np.float64(-math.inf), "-inf"),
    (np.array(math.inf), "inf"),
    ([0.5, math.inf, math.nan], "inf"),
    ([[0.1, math.nan], [-math.inf, 0.2]], "nan"),  # the first bad entry in C order
])
def test_check_finite_names_the_first_bad_entry_by_its_python_value(values, shown):
    with pytest.raises(DomainError) as info:
        _check_finite(values, "angle")
    assert str(info.value) == f"angle must be finite, got {shown}"


@pytest.mark.parametrize("values, dtype, message", [
    ("x", np.float64, "angle must be real, got 'x'"),
    ("1.5", np.float64, "angle must be real, got '1.5'"),
    (1j, np.float64, "angle must be real, got 1j"),
    (np.array([1.0, 2j]), np.float64, "angle must be real, got array([1.+0.j, 0.+2.j])"),
    (None, np.float64, "angle must be real, got None"),
    ([[1.0], [1.0, 2.0]], np.float64, "angle must be real, got [[1.0], [1.0, 2.0]]"),
    ((1, "x"), np.complex128, "angle must be real or complex, got (1, 'x')"),
])
def test_check_finite_refuses_what_numpy_cannot_read_as_numbers(values, dtype, message):
    with pytest.raises(DomainError) as info:
        _check_finite(values, "angle", dtype)
    assert str(info.value) == message


def test_check_finite_returns_the_array_it_checked():
    assert _check_finite(3, "angle").dtype == np.float64
    assert _check_finite([True, 2], "angle").tolist() == [1.0, 2.0]
    z = _check_finite([1, 2 - 1j], "amplitude", np.complex128)
    assert z.dtype == np.complex128 and z.tolist() == [1, 2 - 1j]
    # a non-finite imaginary part is named by its own value
    with pytest.raises(DomainError, match=r"amplitude must be finite, got -inf$"):
        _check_finite([1, complex(0, -math.inf)], "amplitude", np.complex128)


def test_check_finite_accepts_every_finite_value():
    for values in (0.0, 1.7e308, -5e-324, 3, [], np.zeros((2, 3)), np.arange(4)):
        _check_finite(values, "angle")


# every entry that reads caller numbers, each with the bad value in one argument;
# a whole list of it, since numpy reads [True, 2] as the integers [1, 2]
READERS = {
    "chain_unitary.thetas": lambda x: kernels.chain_unitary([x], [], []),
    "chain_unitary.phases": lambda x: kernels.chain_unitary([0.1, 0.2], [x], [1]),
    "selector_batch_amplitudes.mu": lambda x: kernels.selector_batch_amplitudes([x], [[0, 0]]),
    "selector_batch_amplitudes.controls":
        lambda x: kernels.selector_batch_amplitudes([0.1], [[x, x]]),
    "chain_feedback_selectors.mu": lambda x: chain_feedback_selectors([x], [0.0]),
    "chain_feedback_selectors.phi": lambda x: chain_feedback_selectors([0.1], [x]),
    "build_weighted_selector.phi": lambda x: build_weighted_selector(x, 0.1),
    "build_weighted_selector.mu": lambda x: build_weighted_selector(0.1, x),
    "TransferCurve": lambda x: TransferCurve([[x, x, x]]),
    "TransferCurve.column": lambda x: sweep_transfer([0.5], [0.1]).column(x),
    "sweep_transfer.phis": lambda x: sweep_transfer([x], [0.1]),
    "sweep_transfer.mu_grid": lambda x: sweep_transfer([0.5], [x]),
    "SelectorSpec.memory": lambda x: SelectorSpec([x], [0.0], 0.0),
    "SelectorSpec.control": lambda x: SelectorSpec([0.1], [x], 0.0),
    "SelectorSpec.tail": lambda x: SelectorSpec([0.1], [0.0], x),
    "selector_sweep_amplitudes": lambda x: selector_sweep_amplitudes([x], [[1]]),
    "recover_selector": lambda x: recover_selector([x]),
    "recover_selector_matrix": lambda x: recover_selector_matrix([[x]]),
    "eval_selector": lambda x: eval_selector([x], [1]),
    "MatrixProductSpec.memory": lambda x: MatrixProductSpec([[x]], [[0.0]], [0.0]),
    "MatrixProductSpec.control": lambda x: MatrixProductSpec([[0.1]], [[x]], [0.0]),
    "MatrixProductSpec.tails": lambda x: MatrixProductSpec([[0.1]], [[0.0]], [x]),
    "CompilationMatrices": lambda x: CompilationMatrices([[x]], [[1.0]]),
    "mz_switch": mz_switch,
    "output_amplitudes": lambda x: output_amplitudes(identity(1), [x]),
    "SlhModel.scattering": lambda x: SlhModel([[x]], [0]),
    "SlhModel.coupling": lambda x: SlhModel([[1]], [x]),
    "SlhModel.hamiltonian": lambda x: SlhModel(np.eye(1), [0], x),
    "check_unitary": lambda x: check_unitary([[x]], 1e-9),
    # the scalar closed forms read each angle through the same rule
    "feedback_selector_scattering.phi": lambda x: feedback_selector_scattering(x, 0.5),
    "feedback_selector_scattering.mu": lambda x: feedback_selector_scattering(0.5, x),
    "weighted_selector_scattering.phi": lambda x: weighted_selector_scattering(x, 0.5),
    "weighted_selector_scattering.mu": lambda x: weighted_selector_scattering(0.5, x),
    "weighted_output_phase.phi": lambda x: weighted_output_phase(x, 0.5),
    "weighted_output_phase.mu": lambda x: weighted_output_phase(0.5, x),
}


@pytest.mark.parametrize("value", ["x", True], ids=["str", "bool"])
@pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
def test_every_entry_refuses_a_string_or_bool_number(read, value):
    with pytest.raises(DomainError, match="must be real") as info:
        read(value)
    # a typed refusal, not numpy's or float()'s own ValueError or TypeError
    assert type(info.value) is DomainError


# inputs with two faults whose first reported fault is now the non-finite value
@pytest.mark.parametrize("call, message", [
    (lambda: kernels.chain_unitary([math.nan], [0.1], [1]),
     "chain mixing angle must be finite, got nan"),
    (lambda: kernels.chain_unitary([0.1, 0.2], [math.nan], [3]),
     "chain phase must be finite, got nan"),
    (lambda: kernels.selector_batch_amplitudes([math.nan], [[0, 0, 0]]),
     "memory phase must be finite, got nan"),
    (lambda: chain_feedback_selectors([math.nan], [0.0, 0.0]),
     "memory phase must be finite, got nan"),
    (lambda: chain_feedback_selectors([math.nan], [0.5]),
     "memory phase must be finite, got nan"),
    (lambda: TransferCurve([[math.nan, 0.0]]),
     "transfer curve sample must be finite, got nan"),
    (lambda: sweep_transfer([[math.nan]], [0.1]), "sweep phi must be finite, got nan"),
    (lambda: eval_selector([math.nan], [1, 0]), "memory phase must be finite, got nan"),
    (lambda: eval_selector([math.nan], [2]), "memory phase must be finite, got nan"),
    (lambda: output_amplitudes(identity(2), [math.nan]),
     "drive amplitude must be finite, got nan"),
], ids=["chain-arity", "chain-port", "batch-arity", "feedback-arity", "feedback-control",
        "curve-shape", "sweep-ndim", "eval-length", "eval-bits", "drive-length"])
def test_a_non_finite_angle_is_reported_before_a_second_fault(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_output_amplitudes_refuses_a_non_finite_drive():
    with pytest.raises(DomainError, match="drive amplitude must be finite, got nan"):
        output_amplitudes(identity(2), [math.nan, 0])
    with pytest.raises(DomainError, match="drive amplitude must be finite, got inf"):
        output_amplitudes(identity(2), [0, complex(1, math.inf)])


@pytest.mark.parametrize("value", [
    0.3, -0.0, np.float64(0.3), 3, np.array(0.3),
    math.nan, math.inf, -math.inf, np.nan, np.float64(np.inf),
], ids=["float", "neg-zero", "float64", "int", "0d-array",
        "nan", "inf", "neg-inf", "np-nan", "float64-inf"])
def test_check_angle_short_route_matches_the_array_route(value):
    # a 0-d array is never a float, so it always takes the array route
    try:
        want = _check_angle(np.array(value), "phi")
    except DomainError as refused:
        with pytest.raises(DomainError) as info:
            _check_angle(value, "phi")
        assert str(info.value) == str(refused)
    else:
        got = _check_angle(value, "phi")
        assert type(got) is type(want) is float
        assert repr(got) == repr(want)  # the same value, the sign of zero included


def test_model_hamiltonian_must_fit_the_batch_shape():
    with pytest.raises(ArityError, match="hamiltonian shape"):
        SlhModel(np.eye(1), [0], [1.0])
    with pytest.raises(ArityError, match="hamiltonian shape"):
        SlhModel(np.stack([np.eye(1)] * 3), np.zeros((3, 1)), [1.0, 2.0])
    # a hamiltonian that broadcasts is spread over the batch
    batch = SlhModel(np.stack([np.eye(1)] * 3), np.zeros((3, 1)), [1.0])
    assert batch.hamiltonian.tolist() == [1.0] * 3
    assert type(SlhModel(np.eye(1), [0], np.float32(2)).hamiltonian) is float


@pytest.mark.parametrize("index", [True, np.True_, (False,)], ids=["bool", "numpy-bool", "tuple"])
def test_batch_index_refuses_a_bool(index):
    batch = SlhModel(np.stack([np.eye(1)] * 2), np.zeros((2, 1)), [1.0, 2.0])
    with pytest.raises(ArityError, match="must not be a bool"):
        batch.at(index)
    assert batch.at(np.int64(1)).hamiltonian == 2.0


def test_array_value_types_compare_and_hash_by_identity():
    for make in (lambda: beamsplitter(0.3), lambda: sweep_transfer([0.5], [0.1]),
                 lambda: CompilationMatrices([[1.0]], [[1.0]]),
                 lambda: MatrixProductSpec([[0.1]], [[0.0]], [0.0])):
        a, b = make(), make()
        assert a == a and a != b and a in [b, a] and b not in [a]
        assert hash(a) == hash(a) and len({a, b}) == 2


def test_transfer_curve_column_keeps_its_unswept_message_for_nan():
    with pytest.raises(DomainError) as info:
        sweep_transfer([0.5], [0.1]).column(math.nan)
    assert str(info.value) == "no sweep column has phi = nan"


def test_identity_is_series_unit():
    g = beamsplitter(0.3)
    for composed in (series(identity(2), g), series(g, identity(2))):
        assert_allclose(composed.scattering, g.scattering, atol=1e-15)
        assert_allclose(composed.coupling, g.coupling, atol=1e-15)
    with pytest.raises(ArityError):
        identity(0)
    # any integer type gives the same model as a Python int
    assert np.array_equal(identity(np.int64(3)).scattering, identity(3).scattering)


@pytest.mark.parametrize("n", [1.5, True, "2", np.True_, None],
                         ids=["float", "bool", "str", "numpy-bool", "none"])
def test_identity_refuses_a_non_integer_port_count(n):
    with pytest.raises(ArityError) as info:
        identity(n)
    assert str(info.value) == f"identity port count must be an integer, got {n!r}"


def test_series_multiplies_scattering():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t1, t2 = rng.uniform(-math.pi, math.pi, size=2)
        g = series(beamsplitter(t2), beamsplitter(t1))
        assert_allclose(
            g.scattering,
            beamsplitter(t2).scattering @ beamsplitter(t1).scattering,
            atol=1e-15,
        )
    with pytest.raises(ArityError):
        series(identity(2), identity(3))


def test_series_hamiltonian_cross_term():
    # both stages driven: H picks up Im(L2^dag S2 L1)
    a, b = 0.7 + 0.2j, -0.1 + 0.9j
    g = series(coherent_drive([b]), coherent_drive([a]))
    assert_allclose(g.coupling, [a + b], atol=1e-15)
    assert_allclose(g.hamiltonian, (np.conj(b) * a).imag, atol=1e-15)


def test_concat_blocks():
    g = concat(phase_shift(0.4), beamsplitter(0.2))
    assert g.ports == 3
    assert_allclose(g.scattering[0, 0], np.exp(0.4j), atol=1e-15)
    assert_allclose(g.scattering[1:, 1:], beamsplitter(0.2).scattering, atol=1e-15)
    assert np.all(g.scattering[0, 1:] == 0) and np.all(g.scattering[1:, 0] == 0)
    d = concat(coherent_drive([1.0]), coherent_drive([2.0, 3.0]))
    assert_allclose(d.coupling, [1.0, 2.0, 3.0], atol=1e-15)


def test_feedback_of_any_beamsplitter_is_minus_one():
    # the (1,1) loop resums to c - (1 - c^2)/(1 - c) = -1 independent of theta
    for theta in (0.2, math.pi / 4, 1.1, -0.8):
        closed = feedback(beamsplitter(theta), 1, 1)
        assert closed.ports == 1
        assert_allclose(closed.scattering, [[-1.0]], atol=1e-12)


def test_feedback_through_swap_is_a_wire():
    swap = SlhModel(np.array([[0, 1], [1, 0]]), np.zeros(2), 0.0)
    closed = feedback(swap, 1, 1)
    assert_allclose(closed.scattering, [[1.0]], atol=1e-15)


def test_feedback_matches_direct_loop_solve():
    """Rank-one elimination vs solving the loop equation from scratch."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        coupling = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        model = SlhModel(q, coupling, 0.0)
        k = int(rng.integers(1, n + 1))
        l = int(rng.integers(1, n + 1))
        if abs(1.0 - q[k - 1, l - 1]) <= 1e-9:
            continue
        closed = feedback(model, k, l)

        # no external drive: out_i = L_i + S_il x with x = out_k solved directly
        ki, li = k - 1, l - 1
        x = coupling[ki] / (1.0 - q[ki, li])
        direct = coupling + q[:, li] * x
        keep = np.arange(n) != ki
        assert_allclose(closed.coupling, direct[keep], atol=1e-12)


def test_feedback_singular_loop_payload():
    with pytest.raises(SingularLoopError) as info:
        feedback(identity(2), 1, 1)
    assert info.value.k == 1 and info.value.l == 1
    assert info.value.s_kl == 1.0 + 0.0j
    assert str(info.value) == "singular feedback loop: output 1 -> input 1, S_kl = (1+0j)"
    s_kl = 1.0 - 5e-10j
    with pytest.raises(SingularLoopError) as info:
        feedback(SlhModel([[0.0, 0.3], [s_kl, 0.0]], [0.0, 0.0]), 2, 1)
    assert (info.value.k, info.value.l, info.value.s_kl) == (2, 1, s_kl)
    assert str(info.value) == f"singular feedback loop: output 2 -> input 1, S_kl = {s_kl}"
    with pytest.raises(ArityError):
        feedback(identity(2), 3, 1)
    with pytest.raises(ArityError):
        feedback(identity(1), 1, 1)


def test_feedback_refuses_non_integer_ports():
    g = beamsplitter(0.3)
    for model, k, l in ((identity(2), 1.5, 1), (g, 1.0, 1), (g, 1, "2"), (g, None, 1)):
        with pytest.raises(ArityError) as info:
            feedback(model, k, l)
        assert str(info.value) == f"feedback ports must be integers, got ({k!r}, {l!r})"
    # any integer type keeps working, and gives the same model as Python ints
    same = feedback(g, np.int64(1), np.int64(2))
    assert np.array_equal(same.scattering, feedback(g, 1, 2).scattering)


@pytest.mark.parametrize("k, l", [(True, True), (np.True_, 1), (1, np.False_)],
                         ids=["bool-pair", "numpy-bool-k", "numpy-bool-l"])
def test_feedback_refuses_bool_ports(k, l):
    # True is not port 1, for Python and numpy bools alike
    with pytest.raises(ArityError) as info:
        feedback(beamsplitter(0.3), k, l)
    assert str(info.value) == f"feedback ports must be integers, got ({k!r}, {l!r})"


def test_feedback_threshold_is_inclusive():
    tol = FEEDBACK_SINGULAR_TOL
    assert is_singular_loop(tol) and is_singular_loop(-1j * tol)
    assert not is_singular_loop(tol * (1.0 + 1e-12))
    assert np.array_equal(is_singular_loop(np.array([0.5 * tol, 2.0 * tol])), [True, False])
    for d, inside in ((tol * (1.0 - 1e-3), True), (tol * (1.0 + 1e-3), False)):
        # S_11 = 1 - d; only the loop entry matters to the refusal
        model = SlhModel([[1.0 - d, 0.0], [0.0, 1.0]], [0.0, 0.0])
        if inside:
            with pytest.raises(SingularLoopError):
                feedback(model, 1, 1)
        else:
            feedback(model, 1, 1)


def test_check_unitary():
    assert check_unitary(np.eye(3), 0.0)
    assert not check_unitary(np.eye(3) * 1.1, 1e-10)
    with pytest.raises(ArityError):
        check_unitary(np.ones((2, 3)), 1e-10)


def _stack(models):
    return SlhModel(np.stack([m.scattering for m in models]),
                    np.stack([m.coupling for m in models]),
                    np.array([m.hamiltonian for m in models]))


def _assert_same(got, want):
    # bit for bit, including the type of a scalar Hamiltonian
    assert np.array_equal(got.scattering, want.scattering)
    assert np.array_equal(got.coupling, want.coupling)
    assert np.array_equal(got.hamiltonian, want.hamiltonian)
    assert type(got.hamiltonian) is type(want.hamiltonian)


def _circuits_by_ports(seed, count=400):
    """random_passive_circuit outputs grouped by port count, each also
    driven by a random coherent drive so the coupling and H are nonzero."""
    rng = np.random.default_rng(seed)
    groups = {}
    for _ in range(count):
        g = random_passive_circuit(rng, max_depth=12)
        drive = rng.standard_normal(g.ports) + 1j * rng.standard_normal(g.ports)
        driven = series(g, coherent_drive(drive))
        driven = SlhModel(driven.scattering, driven.coupling, rng.standard_normal())
        groups.setdefault(g.ports, []).extend([g, driven])
    return groups


def test_batched_algebra_equals_elementwise_bit_for_bit():
    a_groups, b_groups = _circuits_by_ports(101), _circuits_by_ports(202)
    rng = np.random.default_rng(303)
    seen = set()
    for n in range(1, 7):
        size = min(len(a_groups.get(n, ())), len(b_groups.get(n, ())))
        if size < 2:
            continue
        seen.add(n)
        a, b = a_groups[n][:size], b_groups[n][:size]
        sa, sb = _stack(a), _stack(b)
        for op in (series, concat):
            got = op(sa, sb)
            for j in range(size):
                _assert_same(got.at(j), op(a[j], b[j]))
        # an unbatched operand broadcasts against the batch
        got = series(a[0], sb)
        for j in range(size):
            _assert_same(got.at(j), series(a[0], b[j]))
        if n >= 2:
            k, l = (int(x) for x in rng.integers(1, n + 1, size=2))
            keep = [g for g in a if not is_singular_loop(1.0 - g.scattering[k - 1, l - 1])]
            closed = feedback(_stack(keep), k, l)
            for j, g in enumerate(keep):
                _assert_same(closed.at(j), feedback(g, k, l))
    assert seen == set(range(1, 7))


def test_batched_singular_mask_agrees_with_scalar_raise():
    tol = FEEDBACK_SINGULAR_TOL
    ds = [tol * f * np.exp(1j * a)
          for f in (1.0 - 1e-3, 1.0 + 1e-3, 0.0, 0.5, 1e3)
          for a in (0.0, 1.0, -2.5)]
    models = [SlhModel([[1.0 - d, 0.2], [0.1, 1.0]], [0.3, 0.1j], 0.0) for d in ds]
    batch = _stack(models)
    _, singular = _feedback_masked(batch, 1, 1)
    for g, masked in zip(models, singular):
        try:
            feedback(g, 1, 1)
            raised = False
        except SingularLoopError:
            raised = True
        assert masked == raised
    assert singular.sum() == 9
    # the batched public call names the first singular element in C order
    with pytest.raises(SingularLoopError) as info:
        feedback(_stack(models[3:]), 1, 1)
    first = 3 + int(np.argmax(singular[3:]))
    assert info.value.s_kl == models[first].scattering[0, 0]
    with np.errstate(all="raise"):
        _feedback_masked(batch, 1, 1)


def _fancy_index_feedback(g, k, l):
    """Feedback elimination by per-part fancy indexing, kept here as an
    independent route to _feedback_masked's flat gather: the same
    arithmetic, in the same order, on parts indexed one at a time."""
    n, ki, li = g.ports, k - 1, l - 1
    s, c = g.scattering, g.coupling
    d = 1.0 - s[..., ki, li]
    singular = is_singular_loop(d)
    if singular.any():
        d = np.where(singular, 1.0, d)
    keep_r = np.array([i for i in range(n) if i != ki])
    keep_c = np.array([j for j in range(n) if j != li])
    col = s[..., keep_r, li]
    row = s[..., ki, keep_c]
    s_fb = (s[..., keep_r[:, None], keep_c]
            + col[..., :, None] * row[..., None, :] / d[..., None, None])
    l_fb = c[..., keep_r] + col * (c[..., ki] / d)[..., None]
    v = (c.conj()[..., None, :] @ s[..., :, li, None])[..., 0, 0]
    lk = c[..., ki]
    vlk = v.real * lk + v.imag * (1j * lk)
    h_fb = g.hamiltonian + (vlk / d).imag
    return s_fb, l_fb, h_fb, singular


def _assert_same_as_fancy_index(g, k, l):
    got, singular = _feedback_masked(g, k, l)
    s_fb, l_fb, h_fb, want_singular = _fancy_index_feedback(g, k, l)
    assert np.array_equal(singular, want_singular)
    assert np.array_equal(got.scattering, s_fb)
    assert np.array_equal(got.coupling, l_fb)
    assert np.array_equal(got.hamiltonian, h_fb)
    return singular


def test_feedback_gather_equals_fancy_indexing_bit_for_bit():
    groups = _circuits_by_ports(404, count=300)
    for n in range(2, 7):
        # the driven half of each group: L != 0 and H != 0
        driven = [g for g in groups[n] if not g.is_passive()][:6]
        assert len(driven) >= 2 and all(g.hamiltonian != 0.0 for g in driven)
        batch = _stack(driven)
        # axis 1 pairs each model with another, so at((slice(None), 0)) is a
        # strided view of the batch, not a contiguous array
        pairs = SlhModel(np.stack([batch.scattering, batch.scattering[::-1]], axis=1),
                         np.stack([batch.coupling, batch.coupling[::-1]], axis=1),
                         np.stack([batch.hamiltonian, batch.hamiltonian[::-1]], axis=1))
        view = pairs.at((slice(None), 0))
        assert not view.scattering.flags.c_contiguous
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                for g in driven:
                    _assert_same_as_fancy_index(g, k, l)
                for model in (batch, view):
                    assert not _assert_same_as_fancy_index(model, k, l).any()
                # every other element put inside the singular threshold
                s = batch.scattering.copy()
                turns = np.exp(1j * np.arange(0, len(s), 2))
                s[::2, k - 1, l - 1] = 1.0 - 0.5 * FEEDBACK_SINGULAR_TOL * turns
                masked = SlhModel(s, batch.coupling, batch.hamiltonian)
                singular = _assert_same_as_fancy_index(masked, k, l)
                assert np.array_equal(singular, np.arange(len(s)) % 2 == 0)


def test_algebra_results_are_readonly_complex128():
    g = series(beamsplitter(0.3), coherent_drive([0.5, 1j]))
    batch = _stack([g, beamsplitter(0.1)])
    for m in (g, concat(g, phase_shift(0.2)), feedback(g, 1, 2), identity(2),
              phase_shift(0.4), batch, series(batch, g), concat(phase_shift([0.1, 0.2]), g),
              feedback(batch, 2, 1), batch.at(1)):
        for a in (m.scattering, m.coupling):
            assert a.dtype == np.complex128 and not a.flags.writeable
        if m.scattering.ndim == 2:
            assert type(m.hamiltonian) is float
        else:
            h = m.hamiltonian
            assert h.dtype == np.float64 and h.shape == m.scattering.shape[:-2]
            assert not h.flags.writeable


def test_batched_model_shapes():
    m = SlhModel(np.stack([np.eye(2)] * 3), np.zeros((3, 2)))
    assert m.ports == 2 and m.hamiltonian.shape == (3,)
    assert np.array_equal(m.hamiltonian, np.zeros(3))
    with pytest.raises(ArityError):
        SlhModel(np.stack([np.eye(2)] * 3), np.zeros(2))
    with pytest.raises(ArityError):
        m.at((0, 1))
    assert phase_shift(np.zeros((4, 5))).scattering.shape == (4, 5, 1, 1)
    with pytest.raises(ValueError, match="got nan"):
        phase_shift([0.0, float("nan"), float("inf")])


def _close_one_at_a_time(g, outs, ins):
    # close output outs[j] onto input ins[j] (ports of g, 1-indexed) in
    # order, renumbering the ports each feedback leaves
    outs_left, ins_left = list(range(1, g.ports + 1)), list(range(1, g.ports + 1))
    for k, l in zip(outs, ins):
        g = feedback(g, outs_left.index(k) + 1, ins_left.index(l) + 1)
        outs_left.remove(k)
        ins_left.remove(l)
    return g


def _close_by_solve(g, outs, ins):
    """All loops at once, outputs K onto inputs L, as the Schur complement
    (Gough & James 2009):

        S_EE + S_EL (I - S_KL)^-1 S_KE,   L_E + S_EL (I - S_KL)^-1 L_K,
        H + Im(L^dag S_{.L} (I - S_KL)^-1 L_K)

    by one np.linalg.solve.  The H term: with the loops open, the fed-back
    outputs are b_K = S_KL a_L + S_KE a_E + L_K; closing them (a_L = b_K)
    gives a_L = (I - S_KL)^-1 (S_KE a_E + L_K), so the internal field
    carries the coherent part x = (I - S_KL)^-1 L_K.  Series-composing a
    drive x into inputs L adds Im(L^dag S_{.L} x) to H (the series product
    of Gough & James), which is the term above; for one loop it is
    Im(sum_j L_j^* S_jl L_k / (1 - S_kl)), the rule ``feedback`` applies.
    Returns (S, L, H, cond(I - S_KL), |L| |(I - S_KL)^-1 L_K|), the last
    the size of the product the H term rounds, or None where it refuses:
    is_singular_loop on a pivot of I - S_KL eliminated in loop order, which
    for one loop is 1 - S_kl itself."""
    s, c = g.scattering, g.coupling
    k, l = np.asarray(outs) - 1, np.asarray(ins) - 1
    e_out = np.setdiff1d(np.arange(g.ports), k)
    e_in = np.setdiff1d(np.arange(g.ports), l)
    a = np.eye(len(k)) - s[np.ix_(k, l)]
    u = a.copy()
    for j in range(len(k)):
        if is_singular_loop(u[j, j]):
            return None
        u[j + 1:, j:] -= np.outer(u[j + 1:, j] / u[j, j], u[j, j:])
    x = np.linalg.solve(a, np.column_stack([s[np.ix_(k, e_in)], c[k]]))
    gain = s[np.ix_(e_out, l)]
    h = g.hamiltonian + (c.conj() @ s[:, l] @ x[:, -1]).imag
    return (s[np.ix_(e_out, e_in)] + gain @ x[:, :-1], c[e_out] + gain @ x[:, -1], h,
            np.linalg.cond(a), np.linalg.norm(c) * np.linalg.norm(x[:, -1]))


def test_feedback_equals_one_schur_complement_solve():
    # driven random circuits, 1-3 loops closed one at a time in either order
    # and all at once
    rng = np.random.default_rng(47)
    loops = {1: 0, 2: 0, 3: 0}
    for _ in range(800):
        g = random_passive_circuit(rng)
        if g.ports < 2:
            continue
        g = series(g, coherent_drive(rng.standard_normal(g.ports)
                                     + 1j * rng.standard_normal(g.ports)))
        r = int(rng.integers(1, min(3, g.ports - 1) + 1))
        outs = [int(x) + 1 for x in rng.choice(g.ports, r, replace=False)]
        ins = [int(x) + 1 for x in rng.choice(g.ports, r, replace=False)]
        solved = _close_by_solve(g, outs, ins)
        try:
            routes = [_close_one_at_a_time(g, outs, ins),
                      _close_one_at_a_time(g, outs[::-1], ins[::-1])]
        except SingularLoopError:
            assert r > 1 or solved is None
            continue
        if solved is None:
            assert r > 1
            continue
        s, c, h, cond, h_size = solved
        # a solve's error grows with the condition number of I - S_KL
        tol = 1e-12 * cond
        # and H's with the size of the product it rounds, O(|L|^2 / |1 - S_kl|)
        # for one loop, where cond is 1
        h_tol = tol * max(1.0, h_size)
        if r == 1:
            # the H term of one loop, written out as feedback's rule
            k, l = outs[0] - 1, ins[0] - 1
            s_kl, lk = g.scattering[k, l], g.coupling[k]
            single = g.hamiltonian + (
                np.vdot(g.coupling, g.scattering[:, l]) * lk / (1.0 - s_kl)).imag
            assert abs(single - h) <= h_tol
        for closed in routes:
            assert_allclose(closed.scattering, s, rtol=0, atol=tol)
            assert_allclose(closed.coupling, c, rtol=0, atol=tol)
            assert abs(closed.hamiltonian - h) <= h_tol
        loops[r] += 1
    assert min(loops.values()) >= 50


def test_schur_complement_solve_refuses_where_a_single_feedback_does():
    # |1 - S_kl| on both sides of the threshold, at every angle
    rng = np.random.default_rng(53)
    tol = FEEDBACK_SINGULAR_TOL
    refused = 0
    for scale in (0.0, 0.5, 1.0 - 1e-3, 1.0, 1.0 + 1e-9, 1.0 + 1e-3, 2.0):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            k, l = (int(x) for x in rng.integers(1, n + 1, size=2))
            s[k - 1, l - 1] = 1.0 - scale * tol * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
            g = SlhModel(s, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            solved = _close_by_solve(g, [k], [l])
            try:
                closed = feedback(g, k, l)
            except SingularLoopError:
                assert solved is None
                refused += 1
                continue
            assert solved is not None
            # entries grow as 1/|1 - S_kl|; compare relative to the largest
            err = np.abs(closed.scattering - solved[0]).max()
            assert err <= 1e-13 * np.abs(solved[0]).max()
    assert 60 <= refused < 140
