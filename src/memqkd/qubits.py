"""Polarization alphabet, conjugate bases, and ideal projection statistics."""

from __future__ import annotations

from enum import Enum


class Polarization(Enum):
    """The four pulse polarizations; D and A are the balanced superpositions of H and V."""

    H = "H"
    V = "V"
    D = "D"
    A = "A"


class Basis(Enum):
    """Measurement bases: Z holds {H, V}, X holds {D, A}."""

    Z = "Z"
    X = "X"


#: Emission order used by the ordered source mode (one full cycle).
POLARIZATION_CYCLE = (Polarization.H, Polarization.V, Polarization.D, Polarization.A)

#: Basis order of the array codes: a basis code is its index here.
BASES = (Basis.Z, Basis.X)

#: Detector pair of each basis, in the order (bit-0 detector, bit-1 detector).
#: The one statement of basis membership and of the key-bit convention.
BASIS_MEMBERS = {
    Basis.Z: (Polarization.H, Polarization.V),
    Basis.X: (Polarization.D, Polarization.A),
}


def basis_of(p: Polarization) -> Basis:
    """Basis that measures ``p`` deterministically: the one whose detectors include it."""
    return next(b for b, members in BASIS_MEMBERS.items() if p in members)


def bit_of(p: Polarization) -> int:
    """Key bit encoded by ``p``: its detector's place in its basis (H,D -> 0 and V,A -> 1)."""
    return BASIS_MEMBERS[basis_of(p)].index(p)


def detection_probability(p: Polarization, b: Basis, d: Polarization) -> float:
    """Probability that a photon prepared in ``p`` fires detector ``d`` of basis ``b``.

    A matched basis projects deterministically onto the prepared state; the
    conjugate basis splits 50/50 for every member of the alphabet.
    """
    if basis_of(d) is not b:
        raise ValueError(f"detector {d.value} does not belong to basis {b.value}")
    if basis_of(p) is b:
        return 1.0 if d is p else 0.0
    return 0.5
