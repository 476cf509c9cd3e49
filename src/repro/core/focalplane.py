"""Focalplanes: the detector layout of an instrument.

The benchmark's "typical instrument configuration with a couple thousand
detectors" is a hexagonal focalplane of dual-polarization pixels; this
module builds such layouts with per-detector pointing offsets, polarization
angles, and noise parameters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..math import qa
from ..noise import AnalyticNoiseModel
from ..utils.constants import DEG2RAD

__all__ = ["Focalplane", "fake_hexagon_focalplane"]


@dataclass
class Focalplane:
    """Detector names, pointing offsets, and noise parameters.

    ``detector_quats[d]`` rotates the boresight frame onto detector ``d``'s
    line of sight and polarization orientation.
    """

    sample_rate: float
    detectors: List[str] = field(default_factory=list)
    detector_quats: Dict[str, np.ndarray] = field(default_factory=dict)
    psi_pol: Dict[str, float] = field(default_factory=dict)
    pol_leakage: Dict[str, float] = field(default_factory=dict)
    net: Dict[str, float] = field(default_factory=dict)
    fknee: Dict[str, float] = field(default_factory=dict)
    fmin: Dict[str, float] = field(default_factory=dict)
    alpha: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        missing = [d for d in self.detectors if d not in self.detector_quats]
        if missing:
            raise ValueError(f"detectors without quaternions: {missing}")

    @property
    def n_detectors(self) -> int:
        return len(self.detectors)

    def quat_array(self) -> np.ndarray:
        """Detector quaternions stacked as (n_det, 4), in detector order."""
        return np.array([self.detector_quats[d] for d in self.detectors])

    def epsilon_array(self) -> np.ndarray:
        """Polarization leakage per detector (0 = ideal)."""
        return np.array([self.pol_leakage.get(d, 0.0) for d in self.detectors])

    def noise_model(self, n_freq: int = 1024) -> AnalyticNoiseModel:
        """The analytic 1/f noise model for these detectors."""
        return AnalyticNoiseModel(
            rate=self.sample_rate,
            detector_names=tuple(self.detectors),
            net={d: self.net.get(d, 1.0) for d in self.detectors},
            fknee={d: self.fknee.get(d, 0.05) for d in self.detectors},
            fmin={d: self.fmin.get(d, 1.0e-5) for d in self.detectors},
            alpha={d: self.alpha.get(d, 1.0) for d in self.detectors},
            n_freq=n_freq,
        )

    def detector_weights(self) -> np.ndarray:
        """Inverse-variance detector weights, ordered like ``detectors``.

        Computed once per distinct set of noise parameters (the cache is
        keyed on their values, so a changed focalplane never reads stale
        weights); each call returns a fresh array.
        """
        dets = tuple(self.detectors)
        return _detector_weights(
            self.sample_rate,
            dets,
            tuple(self.net.get(d, 1.0) for d in dets),
            tuple(self.fknee.get(d, 0.05) for d in dets),
            tuple(self.fmin.get(d, 1.0e-5) for d in dets),
            tuple(self.alpha.get(d, 1.0) for d in dets),
        ).copy()


@functools.lru_cache(maxsize=64)
def _detector_weights(sample_rate, detectors, net, fknee, fmin, alpha) -> np.ndarray:
    """:meth:`Focalplane.detector_weights` for one set of parameter values."""
    nm = AnalyticNoiseModel(
        rate=sample_rate,
        detector_names=detectors,
        net=dict(zip(detectors, net)),
        fknee=dict(zip(detectors, fknee)),
        fmin=dict(zip(detectors, fmin)),
        alpha=dict(zip(detectors, alpha)),
        n_freq=64,
    )
    return np.array([nm.detector_weight(d) for d in detectors])


def _hex_positions(n_pixels: int, width_rad: float) -> np.ndarray:
    """Centers of a rough hexagonal spiral of ``n_pixels`` positions."""
    positions = [(0.0, 0.0)]
    ring = 1
    while len(positions) < n_pixels:
        # Walk the 6 sides of the hexagonal ring.
        corners = [
            (ring * np.cos(np.pi / 3 * k), ring * np.sin(np.pi / 3 * k))
            for k in range(6)
        ]
        for k in range(6):
            x0, y0 = corners[k]
            x1, y1 = corners[(k + 1) % 6]
            for step in range(ring):
                frac = step / ring
                positions.append((x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac))
                if len(positions) >= n_pixels:
                    break
            if len(positions) >= n_pixels:
                break
        ring += 1
    pos = np.array(positions[:n_pixels])
    if n_pixels > 1:
        scale = width_rad / (2.0 * np.max(np.abs(pos)))
        pos = pos * scale
    return pos


def fake_hexagon_focalplane(
    n_pixels: int = 7,
    sample_rate: float = 50.0,
    field_of_view_deg: float = 5.0,
    net: float = 1.0,
    fknee: float = 0.05,
    fmin: float = 1.0e-5,
    alpha: float = 1.0,
    pol_leakage: float = 0.0,
) -> Focalplane:
    """Build a hexagonal focalplane of dual-polarization pixels.

    Each pixel carries two detectors ("A" at the pixel polarization angle,
    "B" rotated 90 degrees), as in the satellite benchmark instrument; the
    total detector count is ``2 * n_pixels``.
    """
    if n_pixels < 1:
        raise ValueError("need at least one pixel")
    positions = _hex_positions(n_pixels, field_of_view_deg * DEG2RAD)

    detectors: List[str] = []
    quats: Dict[str, np.ndarray] = {}
    psis: Dict[str, float] = {}
    for p, (x, y) in enumerate(positions):
        r = float(np.hypot(x, y))
        phi = float(np.arctan2(y, x))
        # Alternate pixel polarization bases for better angle coverage.
        base_psi = (p % 2) * (np.pi / 4.0)
        for which, psi in (("A", base_psi), ("B", base_psi + np.pi / 2.0)):
            name = f"D{p:03d}{which}"
            detectors.append(name)
            quats[name] = qa.from_angles(r, phi, psi)
            psis[name] = psi

    return Focalplane(
        sample_rate=sample_rate,
        detectors=detectors,
        detector_quats=quats,
        psi_pol=psis,
        pol_leakage={d: pol_leakage for d in detectors},
        net={d: net for d in detectors},
        fknee={d: fknee for d in detectors},
        fmin={d: fmin for d in detectors},
        alpha={d: alpha for d in detectors},
    )
