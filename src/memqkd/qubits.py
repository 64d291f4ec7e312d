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
BASIS_MEMBERS = {
    Basis.Z: (Polarization.H, Polarization.V),
    Basis.X: (Polarization.D, Polarization.A),
}

# Key-bit convention, fixed once for the whole package: H,D -> 0 and V,A -> 1.
_BIT = {Polarization.H: 0, Polarization.V: 1, Polarization.D: 0, Polarization.A: 1}


def basis_of(p: Polarization) -> Basis:
    """Basis that measures ``p`` deterministically."""
    return Basis.Z if p in (Polarization.H, Polarization.V) else Basis.X


def bit_of(p: Polarization) -> int:
    """Key bit encoded by ``p`` (H,D -> 0 and V,A -> 1)."""
    return _BIT[p]


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
