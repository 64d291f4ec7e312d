import pytest

from memqkd.qubits import (
    BASIS_MEMBERS,
    Basis,
    Polarization,
    basis_of,
    bit_of,
    detection_probability,
)

H, V, D, A = Polarization.H, Polarization.V, Polarization.D, Polarization.A


def test_basis_of():
    assert basis_of(H) is Basis.Z
    assert basis_of(V) is Basis.Z
    assert basis_of(D) is Basis.X
    assert basis_of(A) is Basis.X


def test_bit_convention():
    assert bit_of(H) == 0
    assert bit_of(V) == 1
    assert bit_of(D) == 0
    assert bit_of(A) == 1


def test_detection_probability_table():
    assert detection_probability(H, Basis.Z, H) == 1.0
    assert detection_probability(H, Basis.Z, V) == 0.0
    assert detection_probability(H, Basis.X, D) == 0.5
    assert detection_probability(A, Basis.X, A) == 1.0
    assert detection_probability(A, Basis.Z, V) == 0.5


def test_detector_must_belong_to_basis():
    with pytest.raises(ValueError):
        detection_probability(H, Basis.Z, D)
    with pytest.raises(ValueError):
        detection_probability(D, Basis.X, H)


@pytest.mark.parametrize("state", list(Polarization))
@pytest.mark.parametrize("basis", list(Basis))
def test_probabilities_sum_to_one(state, basis):
    d0, d1 = BASIS_MEMBERS[basis]
    total = detection_probability(state, basis, d0) + detection_probability(
        state, basis, d1
    )
    assert total == 1.0


def test_exchange_symmetry():
    # Swapping H<->V together with D<->A leaves the projection table unchanged.
    swap = {H: V, V: H, D: A, A: D}
    for state in Polarization:
        for basis in Basis:
            for det in BASIS_MEMBERS[basis]:
                assert detection_probability(state, basis, det) == detection_probability(
                    swap[state], basis, swap[det]
                )


def test_serialized_as_single_characters():
    assert [p.value for p in Polarization] == ["H", "V", "D", "A"]
    assert [b.value for b in Basis] == ["Z", "X"]
