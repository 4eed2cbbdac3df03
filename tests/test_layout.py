"""Results depend on values, not on memory layout.

Every array argument of each entry below is passed, in turn, as a C-ordered
copy and as an F-ordered, strided, reversed and offset-sliced view, and each
call must return the bytes of the call on contiguous copies."""

import math

import numpy as np
import pytest

from slhnet import kernels
from slhnet.core import SlhModel, feedback, series
from slhnet.readout import chain_feedback_selectors, sweep_transfer
from slhnet.selector import (TWO_PI, MatrixProductSpec, compile_selector_matrix,
                             eval_matrix_product, selector_sweep_amplitudes)

DRAWS = 12


def _strided(a):
    # every second entry along each axis of an array twice the size
    wide = np.zeros(tuple(2 * k for k in a.shape), dtype=a.dtype)
    view = wide[(slice(None, None, 2),) * a.ndim]
    view[...] = a
    return view


def _reversed(a):
    # negative strides on every axis
    return np.flip(np.flip(a).copy())


def _offset(a):
    # a contiguous view that starts one entry into its buffer
    buf = np.zeros(a.size + 1, dtype=a.dtype)
    view = buf[1:].reshape(a.shape)
    view[...] = a
    return view


LAYOUTS = {
    "C": lambda a: np.array(a, order="C"),
    "F": np.asfortranarray,
    "strided": _strided,
    "reversed": _reversed,
    "offset": _offset,
}


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _binary(rng, *shape):
    return math.pi * rng.integers(0, 2, size=shape)


def _model_fields(model):
    return model.scattering, model.coupling, np.asarray(model.hamiltonian)


def _series(rng):
    n = int(rng.integers(2, 9))
    args = (_complex(rng, n, n), _complex(rng, n), _complex(rng, n, n), _complex(rng, n))
    return args, lambda s2, l2, s1, l1: _model_fields(series(SlhModel(s2, l2), SlhModel(s1, l1)))


def _feedback_of(rng, batch, driven):
    n = int(rng.integers(2, 9))
    k, l = (int(x) for x in rng.integers(1, n + 1, size=2))
    s = _complex(rng, *batch, n, n)
    c = _complex(rng, *batch, n) if driven else np.zeros(batch + (n,), dtype=complex)
    return (s, c), lambda s, c: _model_fields(feedback(SlhModel(s, c), k, l))


def _matrix_spec_args(rng):
    n, m, k = (int(x) for x in rng.integers(1, 17, size=3))
    control, tails = compile_selector_matrix(rng.integers(0, 2, size=(n, k)))
    return rng.uniform(0.0, TWO_PI, size=(n, m)), control, tails


def _spec_fields(spec):
    return spec.memory_matrix, spec.control_matrix, spec.tail_phases


def _chain(rng):
    cells = int(rng.integers(1, 140))
    return ((rng.uniform(-math.pi, math.pi, size=cells), rng.uniform(0.0, TWO_PI, size=cells - 1),
             rng.integers(1, 3, size=cells - 1)), kernels.chain_unitary)


def _selector_batch(rng):
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 40))
    return (rng.uniform(0.0, TWO_PI, size=n), _binary(rng, m, n + 1)), \
        kernels.selector_batch_amplitudes


def _sweep_rows(rng):
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 40))
    return (rng.uniform(0.0, TWO_PI, size=n), rng.integers(0, 2, size=(m, n))), \
        selector_sweep_amplitudes


def _feedback_chain(rng):
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 9))
    return (rng.uniform(0.1, TWO_PI - 0.1, size=n), _binary(rng, m, n)), chain_feedback_selectors


def _sweep(rng):
    p, q = int(rng.integers(1, 6)), int(rng.integers(1, 60))
    return ((rng.uniform(0.1, math.pi - 0.1, size=p), rng.uniform(-3.0, 3.0, size=q)),
            lambda phis, mus: sweep_transfer(phis, mus).samples)


# name: rng -> (array arguments, call of them returning an array or a tuple of arrays)
ENTRIES = {
    "series": _series,
    "feedback-undriven": lambda rng: _feedback_of(rng, (), False),
    "feedback-driven": lambda rng: _feedback_of(rng, (), True),
    "feedback-batched-undriven": lambda rng: _feedback_of(rng, (3,), False),
    "feedback-batched-driven": lambda rng: _feedback_of(rng, (3,), True),
    "selector_sweep_amplitudes": _sweep_rows,
    "MatrixProductSpec": lambda rng: (_matrix_spec_args(rng),
                                      lambda *a: _spec_fields(MatrixProductSpec(*a))),
    "eval_matrix_product": lambda rng: (_matrix_spec_args(rng),
                                        lambda *a: eval_matrix_product(MatrixProductSpec(*a))),
    "chain_feedback_selectors": _feedback_chain,
    "sweep_transfer": _sweep,
    "chain_unitary": _chain,
    "selector_batch_amplitudes": _selector_batch,
}


def _bytes(result):
    parts = result if isinstance(result, tuple) else (result,)
    return [(np.shape(x), np.asarray(x).dtype, np.asarray(x).tobytes()) for x in parts]


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_every_layout_of_an_argument_gives_the_bytes_of_its_contiguous_copy(entry):
    rng = np.random.default_rng(7)
    for _ in range(DRAWS):
        args, call = entry(rng)
        args = [np.array(a, order="C") for a in args]
        want = _bytes(call(*args))
        for i, arg in enumerate(args):
            for name, layout in LAYOUTS.items():
                view = layout(arg)
                assert np.array_equal(view, arg) and view.dtype == arg.dtype
                got = _bytes(call(*args[:i], view, *args[i + 1:]))
                assert got == want, f"argument {i} as a {name} view"


def test_the_views_have_the_layouts_they_are_named_for():
    a = np.arange(12.0).reshape(3, 4)
    assert LAYOUTS["C"](a).flags.c_contiguous
    assert LAYOUTS["F"](a).flags.f_contiguous and not LAYOUTS["F"](a).flags.c_contiguous
    strided = LAYOUTS["strided"](a)
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    assert all(s < 0 for s in LAYOUTS["reversed"](a).strides)
    offset = LAYOUTS["offset"](a)
    assert offset.flags.c_contiguous and offset.base is not None
    assert offset.__array_interface__["data"][0] != offset.base.__array_interface__["data"][0]
