import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slhnet import (
    FEEDBACK_SINGULAR_TOL,
    ArityError,
    CompilationMatrices,
    ComponentDecl,
    DomainError,
    MatrixProductSpec,
    Netlist,
    SelectorSpec,
    SingularLoopError,
    SlhModel,
    TransferCurve,
    beamsplitter,
    build_feedback_selector,
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
    parse_netlist,
    phase_shift,
    recover_selector,
    recover_selector_matrix,
    selector_sweep_amplitudes,
    series,
    sweep_transfer,
    weighted_output_phase,
    weighted_selector_scattering,
)
from slhnet import core
from slhnet import verify as verify_module
from slhnet.core import (_check_angle, _check_finite, _feedback_masked, _product,
                         _unitarity_residual, is_singular_loop)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg-inf"])
@pytest.mark.parametrize("field, imag", [
    ("scattering", False), ("scattering", True), ("coupling", False), ("coupling", True),
    ("hamiltonian", False),
], ids=["scattering-real", "scattering-imag", "coupling-real", "coupling-imag", "hamiltonian"])
def test_model_refuses_a_non_finite_field(field, imag, bad):
    # a model is finite by construction, so an undriven shortcut never turns
    # a NaN into zeros; each field is named with the bad part's own value
    fields = {"scattering": np.eye(2, dtype=complex), "coupling": np.zeros(2, dtype=complex),
              "hamiltonian": 0.0}
    if field == "hamiltonian":
        fields[field] = bad
    else:
        fields[field].flat[1] = complex(0.0, bad) if imag else bad
    with pytest.raises(DomainError) as info:
        SlhModel(**fields)
    assert str(info.value) == f"{field} must be finite, got {bad!r}"
    with pytest.raises(DomainError, match="hamiltonian must be finite"):
        SlhModel(np.stack([np.eye(2)] * 3), np.zeros((3, 2)), [0.0, bad, 1.0])


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
    "build_feedback_selector.phi": lambda x: build_feedback_selector(x, 0.1),
    "build_feedback_selector.mu": lambda x: build_feedback_selector(0.1, x),
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
    "check_unitary.tol": lambda x: check_unitary([[1]], x),
    "SlhModel.is_passive.tol": lambda x: identity(1).is_passive(x),
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


@pytest.mark.parametrize("index, shown", [
    (None, "an integer, got None"), (0.5, "an integer, got 0.5"), ("x", "an integer, got 'x'"),
    ((0, None), "integers, got (0, None)"), ((slice(None), 0.5), "an integer, got 0.5"),
], ids=["none", "float", "str", "tuple", "slice-and-float"])
def test_batch_index_refuses_a_non_integer(index, shown):
    batch = SlhModel(np.zeros((2, 3, 1, 1)), np.zeros((2, 3, 1)), np.arange(6.0).reshape(2, 3))
    with pytest.raises(ArityError) as info:
        batch.at(index)
    assert str(info.value) == f"batch index must be {shown}"
    # integers of any type, negative ones, tuples and slices still index the batch
    for ok, h in ((1, [3.0, 4.0, 5.0]), (np.int64(-1), [3.0, 4.0, 5.0]), ((0, 2), 2.0),
                  ((np.int64(1), -3), 3.0), ((slice(None), 0), [0.0, 3.0])):
        assert np.array_equal(batch.at(ok).hamiltonian, h)


@pytest.mark.parametrize("index, shown", [
    (5, "(5,)"), (-4, "(-4,)"), (10**30, f"({10**30},)"), ((0, 3), "(0, 3)"),
    ((slice(None), -4), "(slice(None, None, None), -4)"),
], ids=["past-the-end", "before-the-start", "does-not-fit-an-index", "second-axis", "slice-and-int"])
def test_batch_index_out_of_range_is_an_arity_error(index, shown):
    batch = SlhModel(np.zeros((2, 3, 1, 1)), np.zeros((2, 3, 1)))
    with pytest.raises(ArityError) as info:
        batch.at(index)
    assert str(info.value) == f"index {shown} out of range for batch shape (2, 3)"


def test_array_value_types_compare_and_hash_by_identity():
    for make in (lambda: beamsplitter(0.3), lambda: sweep_transfer([0.5], [0.1]),
                 lambda: CompilationMatrices([[1.0]], [[1.0]]),
                 lambda: MatrixProductSpec([[0.1]], [[0.0]], [0.0])):
        a, b = make(), make()
        assert a == a and a != b and a in [b, a] and b not in [a]
        assert hash(a) == hash(a) and len({a, b}) == 2


# each construction route: the builder, and a maker of fresh caller arguments
FREEZE_ROUTES = {
    "SlhModel": (SlhModel, lambda: (np.eye(2, dtype=complex), np.zeros(2, dtype=complex), 0.5)),
    "SlhModel-batched": (SlhModel, lambda: (np.stack([np.eye(2, dtype=complex)] * 3),
                                            np.zeros((3, 2), dtype=complex),
                                            np.array([0.1, 0.2, 0.3]))),
    "series": (series, lambda: (beamsplitter(0.3), coherent_drive([0.5, 1j]))),
    "phase_shift": (phase_shift, lambda: (0.1,)),
    "phase_shift-batched": (phase_shift, lambda: (np.array([0.1, 0.2]),)),
    "SelectorSpec": (SelectorSpec, lambda: (np.array([0.1, 0.2]), np.array([0.0, math.pi]),
                                            math.pi)),
    "CompilationMatrices": (CompilationMatrices, lambda: (np.eye(2), np.eye(2))),
    "MatrixProductSpec": (MatrixProductSpec, lambda: (np.array([[0.1]]), np.array([[math.pi]]),
                                                      np.array([math.pi]))),
    "TransferCurve": (TransferCurve, lambda: (np.array([[0.1, 0.5, 0.2]]),)),
    "sweep_transfer": (sweep_transfer, lambda: (np.array([0.5, 1.0]), np.array([0.2, 0.1]))),
    "Netlist": (Netlist, lambda: ([ComponentDecl("ph", "phase", 0.5)],)),
    "parse_netlist": (parse_netlist,
                      lambda: ("version: 1\ncomponents:\n  - {name: ph, kind: phase, phi: pi}\n",)),
}


@pytest.mark.parametrize("build, make_args", FREEZE_ROUTES.values(), ids=FREEZE_ROUTES.keys())
def test_every_value_type_is_frozen_with_read_only_arrays(build, make_args):
    args = make_args()
    value = build(*args)
    for field in dataclasses.fields(value):
        stored = getattr(value, field.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, stored)
        if isinstance(stored, np.ndarray):
            assert not stored.flags.writeable, field.name
    assert all(a.flags.writeable for a in args if isinstance(a, np.ndarray))
    if isinstance(value, SlhModel):
        h = value.hamiltonian
        assert type(h) is float if value.scattering.ndim == 2 else isinstance(h, np.ndarray)
    if isinstance(value, (SelectorSpec, Netlist)):
        other = build(*make_args())
        assert value == other and hash(value) == hash(other)


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


@pytest.mark.parametrize("n", [10**30, 2**62])
def test_identity_too_large_for_an_array_is_an_arity_error(n):
    # numpy refuses both shapes before allocating anything
    with pytest.raises(ArityError) as info:
        identity(n)
    assert str(info.value) == f"identity of {n} ports exceeds numpy's array size limit"


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


HOSTILE_DENOMINATORS = {"str": "x", "None": None, "object": object(), "str-array": np.array(["x"])}


@pytest.mark.parametrize("d", HOSTILE_DENOMINATORS.values(), ids=HOSTILE_DENOMINATORS.keys())
def test_singular_loop_rule_refuses_a_value_without_magnitude(d):
    with pytest.raises(DomainError) as info:
        is_singular_loop(d)
    assert str(info.value) == f"loop denominator must be a number, got {d!r}"


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
    with pytest.raises(ArityError) as info:
        check_unitary(np.ones((2, 3)), 1e-10)
    assert str(info.value) == "expected a square matrix, got shape (2, 3)"
    # no port, as SlhModel and identity(0) refuse, not numpy's empty-reduction error
    with pytest.raises(ArityError) as info:
        check_unitary(np.zeros((0, 0)), 0.0)
    assert str(info.value) == "expected at least one port, got shape (0, 0)"


def test_a_tolerance_is_read_by_the_finite_rule():
    for call in (lambda tol: check_unitary([[1]], tol), lambda tol: identity(2).is_passive(tol)):
        with pytest.raises(DomainError) as info:
            call(math.nan)
        assert str(info.value) == "tolerance must be finite, got nan"
        for tol in (np.float32(0.5), 0, -0.0, np.array(1e-9)):
            assert call(tol) is True
    assert identity(2).is_passive() is True


# the tolerance rows of READERS: a number that is no single tolerance >= 0 is refused too,
# where numpy would raise its own error, read one tolerance per port or answer False
@pytest.mark.parametrize("value, message", [
    ([0.1, 0.2], "tolerance must be a single number, got shape (2,)"),
    ([0.0, 0.0], "tolerance must be a single number, got shape (2,)"),
    (np.zeros((1, 1)), "tolerance must be a single number, got shape (1, 1)"),
    ([], "tolerance must be a single number, got shape (0,)"),
    (-1e-12, "tolerance must not be negative, got -1e-12"),
    (np.float64(-1), "tolerance must not be negative, got -1.0"),
    (-math.inf, "tolerance must be finite, got -inf"),
], ids=["pair", "zero-per-port", "matrix", "empty", "negative", "negative-float64", "neg-inf"])
@pytest.mark.parametrize("entry", ["check_unitary.tol", "SlhModel.is_passive.tol", "two-port"])
def test_a_tolerance_is_one_finite_number_at_least_zero(entry, value, message):
    read = (lambda x: identity(2).is_passive(x)) if entry == "two-port" else READERS[entry]
    with pytest.raises(DomainError) as info:
        read(value)
    assert type(info.value) is DomainError
    assert str(info.value) == message


def test_check_unitary_is_inclusive_at_the_residual():
    s = beamsplitter(0.3).scattering * (1 + 1e-9)
    resid = np.abs(s.conj().T @ s - np.eye(2)).max()
    assert resid > 0.0
    assert check_unitary(s, resid)
    assert not check_unitary(s, math.nextafter(resid, 0.0))
    assert check_unitary([[2]], 3) and not check_unitary([[2]], math.nextafter(3.0, 0.0))


def test_unitarity_residual_of_a_stack_equals_the_inline_residual_bit_for_bit():
    rng = np.random.default_rng(404)
    groups = {}
    for _ in range(300):
        g = random_passive_circuit(rng)
        groups.setdefault(g.ports, []).append(g.scattering)
    assert len(groups) >= 4
    for n, mats in groups.items():
        want = [np.abs(s.conj().T @ s - np.eye(n)).max() for s in mats]
        got = _unitarity_residual(np.stack(mats))
        assert got.shape == (len(mats),)
        assert np.array_equal(got, want), n
        # an unbatched matrix gives the same scalar
        assert [_unitarity_residual(s) for s in mats] == want


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
    _, singular, count = _feedback_masked(batch, 1, 1)
    assert count == singular.sum()
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
    got, singular, _ = _feedback_masked(g, k, l)
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


def test_feedback_equals_its_formula_on_every_family_bit_for_bit():
    # S_fb = block + col row / d, its three operations in that order, on driven and
    # undriven circuits, each alone and stacked into a batch
    groups = _circuits_by_ports(505, count=300)
    for n in range(2, 7):
        for driven in (False, True):
            family = [g for g in groups[n] if g.is_passive() != driven][:8]
            assert len(family) >= 2
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    keep = [g for g in family
                            if not is_singular_loop(1.0 - g.scattering[k - 1, l - 1])]
                    for model in keep + [_stack(keep)] * (len(keep) > 1):
                        got = feedback(model, k, l)
                        s_fb, l_fb, h_fb, _ = _fancy_index_feedback(model, k, l)
                        assert got.scattering.tobytes() == s_fb.tobytes()
                        assert np.array_equal(got.coupling, l_fb)
                        assert np.array_equal(got.hamiltonian, h_fb)


def _generic_series(g2, g1):
    """The series product with its L and H terms computed for every operand,
    as before undriven operands took a shortcut: the reference route."""
    s2 = g2.scattering
    s2l1 = s2 @ g1.coupling[..., None]
    l = s2l1[..., 0] + g2.coupling
    cross = (g2.coupling.conj()[..., None, :] @ s2l1)[..., 0, 0]
    h = g1.hamiltonian + g2.hamiltonian + cross.imag
    return core._model(s2 @ g1.scattering, l, h)


def _generic_feedback_masked(g, k, l):
    """Feedback elimination with its L and H terms computed for every operand,
    as before undriven operands took a shortcut: the reference route."""
    s_fb, l_fb, h_fb, singular = _fancy_index_feedback(g, k, l)
    return core._model(s_fb, l_fb, h_fb), singular


def _generic_feedback(g, k=1, l=1):
    model, singular = _generic_feedback_masked(g, k, l)
    if singular.any():
        first = np.unravel_index(np.argmax(singular), singular.shape)
        raise SingularLoopError(k, l, g.scattering[first + (k - 1, l - 1)])
    return model


def _assert_bitwise(got, want):
    # the same bits, signed zeros included, and the same type of a scalar Hamiltonian
    for a, b in ((got.scattering, want.scattering), (got.coupling, want.coupling),
                 (np.asarray(got.hamiltonian), np.asarray(want.hamiltonian))):
        assert a.shape == b.shape
        assert np.array_equal(*(np.ascontiguousarray(x).view(np.uint64) for x in (a, b)))
    assert type(got.hamiltonian) is type(want.hamiltonian)


def _shortcut_operands(seed, count=200):
    """The models of _circuits_by_ports, then each undriven one again with a
    random Hamiltonian, and with a -0.0 coupling and Hamiltonian put in
    through the public constructor."""
    rng = np.random.default_rng(seed + 1)
    groups = _circuits_by_ports(seed, count)
    for models in groups.values():
        for g in models[::2]:
            models.append(SlhModel(g.scattering, np.zeros(g.ports), rng.standard_normal()))
            models.append(SlhModel(g.scattering, np.full(g.ports, complex(-0.0, -0.0)), -0.0))
    return groups


def test_undriven_shortcuts_equal_the_generic_formulas_bit_for_bit():
    a_groups, b_groups = _shortcut_operands(505), _shortcut_operands(606)
    rng = np.random.default_rng(707)
    for n in range(1, 7):
        a, b = a_groups[n], b_groups[n]
        assert any(g.is_passive() for g in a) and not all(g.is_passive() for g in a)
        for g2, g1 in zip(a, b[::-1]):
            _assert_bitwise(series(g2, g1), _generic_series(g2, g1))
        for g in a if n >= 2 else ():
            k, l = (int(x) for x in rng.integers(1, n + 1, size=2))
            if not is_singular_loop(1.0 - g.scattering[k - 1, l - 1]):
                _assert_bitwise(feedback(g, k, l), _generic_feedback(g, k, l))
        size = min(len(a), len(b), 8)
        # the last undriven models: nonzero and -0.0 Hamiltonians in turn
        passive = [g for g in a if g.is_passive()][-size:]
        assert np.count_nonzero([g.hamiltonian for g in passive]) == size // 2
        for batch in (_stack(passive), _stack(a[:size])):
            _assert_bitwise(series(batch, b[0]), _generic_series(batch, b[0]))
            _assert_bitwise(series(b[1], batch), _generic_series(b[1], batch))
            if n < 2:
                continue
            # every other element put inside the singular threshold, so masked
            s = batch.scattering.copy()
            s[::2, 0, n - 1] = 1.0 - 0.5 * FEEDBACK_SINGULAR_TOL
            masked = SlhModel(s, batch.coupling, batch.hamiltonian)
            got, singular, count = _feedback_masked(masked, 1, n)
            want, want_singular = _generic_feedback_masked(masked, 1, n)
            _assert_bitwise(got, want)
            assert np.array_equal(singular, want_singular)
            assert count == singular.sum() == (len(s) + 1) // 2


def test_construction_stores_a_negative_zero_as_positive_zero():
    zero = complex(-0.0, -0.0)
    for g in (SlhModel(np.eye(2), [zero, complex(-0.0, 1.0)], -0.0),
              SlhModel(np.stack([np.eye(2)] * 3), np.full((3, 2), zero), [-0.0, 1.0, -0.0]),
              SlhModel(np.stack([np.eye(2)] * 3), np.full((3, 2), zero), -0.0),
              coherent_drive([zero, complex(-1.0, -0.0)])):
        for part in (g.coupling.real, g.coupling.imag, np.asarray(g.hamiltonian)):
            assert not (np.signbit(part) & (part == 0.0)).any()
    # every other value is kept as it is
    assert coherent_drive([zero, complex(-1.0, -0.0)]).coupling[1].real == -1.0
    assert SlhModel(np.eye(1), [0], -2.5).hamiltonian == -2.5


@pytest.mark.parametrize("seed", [2026, 39])
def test_random_circuits_equal_their_generic_replay_bit_for_bit(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    fast = [random_passive_circuit(rng) for _ in range(300)]
    monkeypatch.setattr(verify_module, "series", _generic_series)
    monkeypatch.setattr(verify_module, "feedback", _generic_feedback)
    rng = np.random.default_rng(seed)
    for g in fast:
        _assert_bitwise(g, random_passive_circuit(rng))


def test_a_driven_operand_takes_the_generic_route():
    # the driven-beamsplitter case: a passive splitter after a drive, and the drive after it
    a1, a2 = 0.3 - 1.1j, -0.7 + 0.2j
    bs, drive = beamsplitter(math.pi / 4), coherent_drive([a1, a2])
    for g2, g1 in ((bs, drive), (drive, bs)):
        driven = series(g2, g1)
        _assert_bitwise(driven, _generic_series(g2, g1))
        assert np.all(driven.coupling != 0.0)
    assert_allclose(series(bs, drive).coupling, np.array([a1 - a2, a1 + a2]) / math.sqrt(2),
                    rtol=0, atol=1e-15)
    closed = feedback(series(bs, drive), 1, 2)
    _assert_bitwise(closed, _generic_feedback(series(bs, drive), 1, 2))
    assert closed.coupling[0] != 0.0 and closed.hamiltonian != 0.0


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


def _shared_zero_operands(seed):
    """Models that hold the shared zero coupling, each with a user-built copy
    ``SlhModel(s, np.zeros(n), h)`` that holds its own: builders, random
    stages and random circuits of 1-6 ports."""
    rng = np.random.default_rng(seed)
    models = [identity(n) for n in range(1, 7)]
    models += [phase_shift(0.3), phase_shift(np.float64(-2.0)), beamsplitter(0.7)]
    models += [verify_module._random_stage(rng, n) for n in range(1, 7)]
    models += [random_passive_circuit(rng, 8) for _ in range(60)]
    for g in models:
        assert g.coupling is core._no_coupling(g.ports)
    copies = [SlhModel(g.scattering, np.zeros(g.ports), g.hamiltonian) for g in models]
    for u in copies:
        assert u.coupling is not core._no_coupling(u.ports)
    return models, copies


def test_shared_zero_builders_equal_user_built_models_bit_for_bit():
    for g, want in ((identity(3), SlhModel(np.eye(3), np.zeros(3))),
                    (phase_shift(0.3), SlhModel([[np.exp(0.3j)]], np.zeros(1))),
                    (beamsplitter(0.7), SlhModel([[math.cos(0.7), -math.sin(0.7)],
                                                  [math.sin(0.7), math.cos(0.7)]], np.zeros(2)))):
        _assert_bitwise(g, want)


def test_shared_zero_shortcuts_equal_user_built_operands_bit_for_bit():
    models, copies = _shared_zero_operands(811)
    rng = np.random.default_rng(812)
    by_ports = {}
    for g, u in zip(models, copies):
        by_ports.setdefault(g.ports, []).append((g, u))
    for n, pairs in by_ports.items():
        shared, user = zip(*pairs)
        for (g2, u2), (g1, u1) in zip(pairs, pairs[::-1]):
            want = series(u2, u1)
            for args in ((g2, g1), (g2, u1), (u2, g1)):
                _assert_bitwise(series(*args), want)
            assert series(g2, g1).coupling is core._no_coupling(n)
        for g, u in pairs if n >= 2 else ():
            k, l = (int(x) for x in rng.integers(1, n + 1, size=2))
            if not is_singular_loop(1.0 - g.scattering[k - 1, l - 1]):
                _assert_bitwise(feedback(g, k, l), feedback(u, k, l))
                assert feedback(g, k, l).coupling is core._no_coupling(n - 1)
        # a user-built batch, and each element read back from it by at(i)
        batch = _stack(user)
        for other in (shared[0], user[0]):
            for got, op in ((series(batch, other), lambda a: series(a, other)),
                            (series(other, batch), lambda a: series(other, a))):
                assert got.coupling is not core._no_coupling(n)
                for j, g in enumerate(shared):
                    _assert_bitwise(got.at(j), op(g))
                    _assert_bitwise(op(batch.at(j)), op(g))
        if n >= 2:
            closed = feedback(batch, 2, 1)
            for j, (g, u) in enumerate(pairs):
                _assert_bitwise(closed.at(j), feedback(g, 2, 1))
                _assert_bitwise(feedback(batch.at(j), 2, 1), feedback(u, 2, 1))
    for (g1, u1), (g2, u2) in zip(zip(models, copies), zip(models[::-1], copies[::-1])):
        want = concat(u1, u2)
        for args in ((g1, g2), (g1, u2), (u1, g2)):
            _assert_bitwise(concat(*args), want)
        assert concat(g1, g2).coupling is core._no_coupling(g1.ports + g2.ports)
    batched = phase_shift(np.array([0.1, 0.2]))
    for got in (concat(batched, beamsplitter(0.3)), concat(beamsplitter(0.3), batched)):
        assert got.coupling.shape == (2, 3)
        for j in range(2):
            assert got.at(j).coupling.tobytes() == np.zeros(3, dtype=complex).tobytes()


def test_shared_zero_is_read_only_and_held_by_no_driven_or_caller_array():
    # a port count no model has used yet, so no model's freeze has touched it
    for zero in (core._no_coupling(1009), core._no_coupling(3)):
        assert zero.ndim == 1 and zero.dtype == np.complex128 and zero.flags.c_contiguous
        assert not zero.flags.writeable and not np.any(zero)
        with pytest.raises(ValueError, match="read-only"):
            zero[0] = 1.0
    # np.array gives a writeable copy
    copy = np.array(identity(3).coupling)
    assert copy.flags.writeable and not np.shares_memory(copy, zero)
    drive = coherent_drive([0.5, 1j, 0.0])
    driven = [series(identity(3), drive), series(drive, identity(3)),
              feedback(concat(drive, identity(1)), 1, 4), concat(identity(1), drive)]
    for g in driven:
        assert np.any(g.coupling)
        assert all(g.coupling is not core._no_coupling(n) for n in range(1, 7))
    # an undriven user-built model keeps a copy of the caller's arrays
    s, l = np.eye(3, dtype=complex), np.zeros(3, dtype=complex)
    user = SlhModel(s, l)
    for result in (user, series(user, identity(3)), concat(user, identity(1)),
                   feedback(series(beamsplitter(0.3), beamsplitter(0.2)), 1, 1)):
        for caller in (s, l):
            assert not np.shares_memory(result.scattering, caller)
            assert not np.shares_memory(result.coupling, caller)
    l[0] = 1.0
    assert not np.any(user.coupling)


def test_shared_zero_cache_stays_bounded_and_evicted_vectors_still_compose():
    limit = core._no_coupling.cache_info().maxsize
    assert limit is not None
    early = identity(1)
    for n in range(1, limit + 20):
        series(identity(n), identity(n))
        assert core._no_coupling.cache_info().currsize <= limit
    # the vector an evicted entry held is no longer the shared one; the model's
    # mark still reads it as undriven, with the same bits
    assert early.coupling is not core._no_coupling(1)
    _assert_bitwise(series(early, phase_shift(0.2)),
                    series(SlhModel(np.eye(1), np.zeros(1)), phase_shift(0.2)))
    assert series(early, early).coupling is core._no_coupling(1)


def _assert_marked(g):
    # the one undriven rule: the mark the algebra reads is whether the coupling is all zero
    assert g._undriven is (not np.count_nonzero(g.coupling))


def test_every_model_is_marked_undriven_exactly_when_its_coupling_is_zero():
    models, copies = _shared_zero_operands(911)
    shortcut = [g for group in _shortcut_operands(912, 60).values() for g in group]
    assert any(g._undriven for g in shortcut) and not all(g._undriven for g in shortcut)
    drive = coherent_drive([0.5, 1j, 0.0])
    driven = [drive, series(identity(3), drive), series(drive, identity(3)),
              feedback(concat(drive, identity(1)), 1, 4), concat(identity(1), drive),
              concat(drive, SlhModel(np.eye(1), np.zeros(1)))]
    assert not any(g._undriven for g in driven)
    for group in (models, copies, shortcut, driven):
        for g in group:
            _assert_marked(g)
    # batched stacks, all undriven or mixed, their compositions and the
    # elements read back from them
    for n in range(1, 4):
        members = [g for g in shortcut if g.ports == n][:6]
        for batch in (_stack([g for g in members if g._undriven]), _stack(members),
                      phase_shift(np.full((2, 3), 0.5)) if n == 1 else identity(n)):
            results = [batch, series(batch, members[0]), series(members[1], batch),
                       concat(batch, members[0]), concat(identity(1), batch)]
            if n >= 2:
                results.append(feedback(batch, 1, n))
            for g in results:
                _assert_marked(g)
                for j in range(len(g.scattering) if g.scattering.ndim > 2 else 0):
                    _assert_marked(g.at(j))


def test_a_driven_series_that_cancels_is_undriven_and_composes_as_the_generic_route():
    for a, b in ((0.5, -2.0j), (0.3 - 1.1j, 1e-300 + 7.0j)):
        g = series(coherent_drive([-a, -b]), coherent_drive([a, b]))
        assert g._undriven and np.array_equal(g.coupling, np.zeros(2))
        assert g.coupling is not core._no_coupling(2)  # built by the driven route
        one = series(coherent_drive([-a]), coherent_drive([a]))
        assert one._undriven
        for other in (beamsplitter(0.4), coherent_drive([0.2j, -1.0]), g,
                      _stack([g, beamsplitter(0.1)])):
            _assert_bitwise(series(other, g), _generic_series(other, g))
            _assert_bitwise(series(g, other), _generic_series(g, other))
        _assert_bitwise(series(one, phase_shift(0.3)), _generic_series(one, phase_shift(0.3)))
        for k, l in ((1, 2), (2, 1)):
            _assert_bitwise(feedback(g, k, l), _generic_feedback(g, k, l))
            mixed = series(beamsplitter(0.3), g)
            _assert_bitwise(feedback(mixed, k, l), _generic_feedback(mixed, k, l))


def _generic_concat(g1, g2):
    """Concatenation with its coupling stacked for every operand, as before
    every undriven operand took a shortcut: the reference route."""
    n1, n2 = g1.ports, g2.ports
    batch = np.broadcast_shapes(g1.scattering.shape[:-2], g2.scattering.shape[:-2])
    s = np.zeros(batch + (n1 + n2, n1 + n2), dtype=np.complex128)
    s[..., :n1, :n1] = g1.scattering
    s[..., n1:, n1:] = g2.scattering
    l = np.empty(batch + (n1 + n2,), dtype=np.complex128)
    l[..., :n1] = g1.coupling
    l[..., n1:] = g2.coupling
    return core._model(s, l, g1.hamiltonian + g2.hamiltonian)


def test_concat_of_batched_and_user_built_undriven_operands_keeps_its_bytes():
    batched = phase_shift(np.array([[0.1], [0.2]]))
    user = SlhModel(beamsplitter(0.3).scattering, np.zeros(2), 0.5)
    wide = SlhModel(np.stack([np.eye(2)] * 3), np.zeros((3, 2)), [0.0, -1.5, 2.0])
    for g1, g2 in ((batched, user), (user, batched), (batched, wide), (wide, user),
                   (user, user)):
        got = concat(g1, g2)
        assert got._undriven
        _assert_bitwise(got, _generic_concat(g1, g2))


# (batch shape of the first operand, of the second, broadcast batch shape or None)
_BATCH_PAIRS = [((2,), (3,), None), ((2, 3), (2,), None), ((4, 1), (3, 4), None),
                ((), (3,), (3,)), ((3,), (), (3,)), ((2, 1), (3,), (2, 3)),
                ((1,), (4,), (4,)), ((2, 3), (2, 3), (2, 3))]


@pytest.mark.parametrize("a, b, want", _BATCH_PAIRS)
def test_batch_shapes_that_do_not_broadcast_are_an_arity_error(a, b, want):
    g1, g2 = phase_shift(np.full(a, 0.5)), phase_shift(np.full(b, 0.25))
    for op, sign in ((series, "<|"), (concat, "[+]")):
        if want is None:
            with pytest.raises(ArityError) as info:
                op(g1, g2)
            assert str(info.value) == f"{op.__name__} batch shapes {a} {sign} {b} do not broadcast"
        else:
            assert op(g1, g2).scattering.shape[:-2] == want
    for build in (build_feedback_selector, build_weighted_selector):
        if want is None:
            with pytest.raises(ArityError) as info:
                build(np.full(a, 0.5), np.full(b, 0.5))
            assert str(info.value) == f"phi shape {a} and mu shape {b} do not broadcast"
        else:
            assert build(np.full(a, 0.5), np.full(b, 0.5)).scattering.shape == want + (1, 1)


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


_SCHEDULE = np.array([[0.0, math.pi, 0.0, math.pi], [math.pi, math.pi, 0.0, 0.0],
                      [0.0, 0.0, 0.0, math.pi]])


@pytest.mark.parametrize("values", [
    0.0, math.pi, np.float64(math.pi), 0, [0.0, math.pi, math.pi], [],
    _SCHEDULE, np.asfortranarray(_SCHEDULE), _SCHEDULE[::-1, 1:], _SCHEDULE.reshape(3, 2, 2),
], ids=["0d-zero", "0d-pi", "0d-numpy", "0d-int", "1d", "1d-empty", "2d-C", "2d-F",
        "2d-strided", "3d"])
def test_check_binary_phases_returns_the_switch_states_it_checks(values):
    # the one reading of a 0/pi schedule: values == pi, in the shape and
    # memory layout of values
    on = core._check_binary_phases(values)
    want = np.asarray(values) == math.pi
    assert on.dtype == np.bool_ and on.shape == want.shape and np.array_equal(on, want)
    if np.ndim(values) == 2:
        assert on.flags.f_contiguous == np.asarray(values).flags.f_contiguous


def _first_in_memory_order(values, what="control phase"):
    # the refusal message naming the first entry, in memory order, that is
    # neither 0 nor pi
    flat = np.ravel(values, order="K")
    x = flat[(flat != 0.0) & (flat != math.pi)][0].item()
    return f"{what} must be exactly 0 or pi, got {x!r}"


def test_check_binary_phases_names_the_first_bad_entry_in_memory_order():
    for values, shown in ((0.5, "0.5"), (2, "2"), (np.float32(0.1), "0.10000000149011612"),
                          ([0.0, math.nan, 0.5], "nan")):
        with pytest.raises(DomainError) as info:
            core._check_binary_phases(values, "tail phase")
        assert str(info.value) == f"tail phase must be exactly 0 or pi, got {shown}"
    rng = np.random.default_rng(101)
    for _ in range(200):
        m, n = (int(k) for k in rng.integers(1, 6, size=2))
        controls = math.pi * rng.integers(0, 2, size=(m, n + 1))
        for _ in range(int(rng.integers(1, 4))):
            controls[rng.integers(m), rng.integers(n + 1)] = rng.choice([0.5, 3.0, math.nan])
        # the kernel's row-major and stage-major layouts, and a C-ordered schedule
        for layout in (controls, np.ascontiguousarray(controls.T).T):
            with pytest.raises(DomainError) as info:
                kernels.selector_batch_amplitudes(np.zeros(n), layout)
            assert str(info.value) == _first_in_memory_order(layout.T)
            with pytest.raises(DomainError) as info:
                core._check_binary_phases(layout)
            assert str(info.value) == _first_in_memory_order(layout)
        with pytest.raises(DomainError) as info:
            recover_selector_matrix(controls)
        assert str(info.value) == _first_in_memory_order(controls.ravel())


def test_product_is_the_matmul_operator_bit_for_bit():
    # the helper only adds a comparison after the product: every shape class of
    # the library's products, complex and real, gives the operator's bytes
    rng = np.random.default_rng(91)

    def draw(*shape, kind=complex):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if kind is complex else x

    pairs = [
        (draw(2, 2), draw(2, 2)),                       # unbatched
        (draw(6, 6), draw(6, 6)),
        (draw(64, 2, 2), draw(64, 2, 2)),               # batched
        (draw(5, 3, 6, 6), draw(3, 6, 6)),              # broadcast batch axes
        (draw(5, 1, 2, 2), draw(4, 2, 2)),
        (draw(6, 6), draw(6)),                          # matrix-vector
        (draw(4, 6, 6), draw(4, 6, 1)),
        (draw(4, 1, 6), draw(4, 6, 1)),                 # conjugated dot, as in series
        (draw(7, kind=float), draw(7, kind=float)),     # a selector's dot product
        (draw(9, 5, kind=float).T, draw(9, 3, kind=float)),  # a transposed memory matrix
        (draw(2, 2)[:, ::-1], draw(2, 2).T),            # strided operands
    ]
    for a, b in pairs:
        got, want = _product(a, b), a @ b
        assert type(got) is type(want) and np.asarray(got).dtype == np.asarray(want).dtype
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
