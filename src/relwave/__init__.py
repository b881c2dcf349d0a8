"""Relativistic single-particle wavepackets in 1+1 dimensions.

Constructs free wavepackets (closed-form uniform motion and initially
Gaussian) and wavepackets accelerated by a uniform electric field, and
measures their charge density, Gaussianity, momentum spectra, spreading,
and phase relative to the classical action.
"""

__version__ = "0.1.0"

from .kinematics import FreeMotion, FieldMotion, TrajectorySample
from .analysis import WaveSlice, DensitySlice, GaussFitResult, PhaseTrace

__all__ = [
    "FreeMotion",
    "FieldMotion",
    "TrajectorySample",
    "WaveSlice",
    "DensitySlice",
    "GaussFitResult",
    "PhaseTrace",
    "__version__",
]
