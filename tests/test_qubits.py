"""The encoding table of simulation and the detection probabilities built from it.

Every expectation is written out here: one read from simulation.STATES
would agree with any table.
"""

import numpy as np
import pytest

from memqkd.simulation import _BASIS_OF_STATE, _BIT_OF_STATE, _P0, BASES, STATES

H, V, D, A = range(4)
Z, X = range(2)


def test_states_and_bases_in_array_code_order():
    assert STATES == (("H", 0, 0), ("V", 0, 1), ("D", 1, 0), ("A", 1, 1))
    assert BASES == ("Z", "X")


def test_basis_of_state():
    # H and V are measured deterministically in Z, D and A in X.
    assert _BASIS_OF_STATE.tolist() == [Z, Z, X, X]
    assert _BASIS_OF_STATE.dtype == np.int8


def test_bit_convention():
    # H and D encode bit 0, V and A bit 1.
    assert _BIT_OF_STATE.tolist() == [0, 1, 0, 1]
    assert _BIT_OF_STATE.dtype == np.int8


def test_detection_probability_table():
    # _P0[state, basis]: the bit-0 detector of Z is H's, that of X is D's.
    assert _P0.tolist() == [[1.0, 0.5], [0.0, 0.5], [0.5, 1.0], [0.5, 0.0]]
    assert _P0.dtype == np.float64


def test_matched_basis_is_deterministic():
    for state, basis, p0 in ((H, Z, 1.0), (V, Z, 0.0), (D, X, 1.0), (A, X, 0.0)):
        assert _P0[state, basis] == p0


def test_conjugate_basis_splits_evenly():
    for state, basis in ((H, X), (V, X), (D, Z), (A, Z)):
        assert _P0[state, basis] == 0.5


@pytest.mark.parametrize("state", [H, V, D, A], ids=list("HVDA"))
@pytest.mark.parametrize("basis", [Z, X], ids=list("ZX"))
def test_probabilities_sum_to_one(state, basis):
    # measure sends the rest of the retrieved mean to the bit-1 detector, so
    # the two are probabilities only while _P0 lies in [0, 1].
    p0 = _P0[state, basis]
    p1 = 1.0 - p0
    assert p0 >= 0.0 and p1 >= 0.0 and p0 + p1 == 1.0


def test_exchange_symmetry():
    # Swapping H<->V together with D<->A swaps the two detectors of each
    # basis: the bit-0 probability of a state is the bit-1 probability of
    # its partner.
    swap = [V, H, A, D]
    for state in (H, V, D, A):
        for basis in (Z, X):
            assert _P0[state, basis] == 1.0 - _P0[swap[state], basis]


def test_serialized_as_single_characters():
    letters = [letter for letter, _, _ in STATES]
    assert letters == ["H", "V", "D", "A"]
    assert all(len(letter) == 1 for letter in [*letters, *BASES])
