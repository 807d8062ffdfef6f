"""The pencil value types: coefficient tuples as the value, the diagonals as read-only arrays."""

import copy
import pickle

import numpy as np
import pytest

from support import seeded_pencil


def _tuples(pencil):
    return pencil.J.c, pencil.J.d, pencil.H.a, pencil.H.b


def test_diagonals_are_read_only_arrays_of_the_tuples():
    pencil = seeded_pencil(1, 10)
    arrays = pencil._diagonals
    for x, values in zip(arrays, _tuples(pencil)):
        assert not x.flags.writeable
        assert x.tolist() == list(values)
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0
    assert [x.dtype for x in arrays] == [np.float64, np.float64, np.float64, np.complex128]


def test_diagonals_are_converted_once_per_pencil():
    pencil = seeded_pencil(1, 10)
    first = pencil._diagonals
    assert all(x is y for x, y in zip(pencil._diagonals, first))


def test_value_semantics_ignore_the_converted_diagonals():
    pencil, twin = seeded_pencil(1, 10), seeded_pencil(1, 10)
    before = repr(pencil), hash(pencil)
    pencil._diagonals
    assert pencil == twin
    assert (repr(pencil), hash(pencil)) == before == (repr(twin), hash(twin))


def test_head_converts_its_own_diagonals():
    pencil = seeded_pencil(1, 10)
    full, head = pencil._diagonals, pencil.head(4)
    for x, whole, values in zip(head._diagonals, full, _tuples(head)):
        assert not np.shares_memory(x, whole)
        assert x.tolist() == list(values) == whole[:len(x)].tolist()


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copy_converts_its_own_read_only_diagonals(duplicate):
    pencil = seeded_pencil(1, 10)
    pencil._diagonals
    twin = duplicate(pencil)
    assert twin == pencil and "_diagonals" not in vars(twin)
    for x, whole in zip(twin._diagonals, pencil._diagonals):
        assert not x.flags.writeable and not np.shares_memory(x, whole)
        assert np.array_equal(x, whole)
