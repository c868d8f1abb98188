"""The value types are frozen, slotted dataclasses: no per-instance
__dict__, and still picklable, comparable, hashable and immutable."""

import pickle
from dataclasses import FrozenInstanceError, fields

import pytest

from latrep.enumeration import find_representations
from latrep.genus import enumerate_genus
from latrep.localrep import represents_over_Zp
from latrep.matrices import GramMatrix, IntMatrix
from latrep.padic import Place
from latrep.reports import scan_family

I3 = GramMatrix.identity(3)


def values():
    return {
        "GramMatrix": GramMatrix([[2, 1], [1, 3]]),
        "IntMatrix": IntMatrix([[1, 2, 3], [4, 5, 6]]),
        "Place": Place.finite(5),
        "LocalRepCertificate": represents_over_Zp(
            I3, GramMatrix.diagonal([5]), 2, try_global=False),
        "Embedding": find_representations(I3, GramMatrix.diagonal([2]), 1,
                                          limit=1)[0],
        "GenusRecord": enumerate_genus(I3, 3),
        "ScanRow": scan_family(I3, "rank1:2", q=3, j=1, c=1,
                               neighbor_prime=3).rows[1],
    }


@pytest.mark.parametrize("name", list(values()))
def test_slotted_value_type(name):
    value = values()[name]
    assert type(value).__name__ == name
    assert not hasattr(value, "__dict__")
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and copy is not value
    assert hash(copy) == hash(value)
    assert values()[name] == value
    with pytest.raises(FrozenInstanceError):
        setattr(value, fields(value)[0].name, None)


def test_place_finite_is_the_constructor():
    for p in (2, 3, 5, 7, 101):
        assert Place.finite(p) == Place(p)
    with pytest.raises(ValueError):
        Place.finite(0)
    with pytest.raises(ValueError):
        Place.finite(4)
