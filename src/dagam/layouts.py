"""Built-in 62-channel 10-20 montage on a spherical head model.

Positions are generated, not digitized: the outer ring sits 18 degrees
above the head's reference plane, midline electrodes at their standard
fractions of the nasion-inion arc, and interior electrodes at equal
great-circle fractions between their ring endpoint and midline electrode.
Coordinates are in head units (head radius HEAD_RADIUS), the scale the
default adjacency calibration constant was chosen for: with sigma = 5 the
median off-diagonal edge weight lands near 0.3.

Axes: +x right ear, +y nose, +z vertex.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import ElectrodeLayout

# Head radius in head units; see module docstring.
HEAD_RADIUS = 3.4

# Channel order used by 62-channel ESI caps.
CHANNELS_62 = (
    "FP1", "FPZ", "FP2",
    "AF3", "AF4",
    "F7", "F5", "F3", "F1", "FZ", "F2", "F4", "F6", "F8",
    "FT7", "FC5", "FC3", "FC1", "FCZ", "FC2", "FC4", "FC6", "FT8",
    "T7", "C5", "C3", "C1", "CZ", "C2", "C4", "C6", "T8",
    "TP7", "CP5", "CP3", "CP1", "CPZ", "CP2", "CP4", "CP6", "TP8",
    "P7", "P5", "P3", "P1", "PZ", "P2", "P4", "P6", "P8",
    "PO7", "PO5", "PO3", "POZ", "PO4", "PO6", "PO8",
    "CB1", "O1", "OZ", "O2", "CB2",
)

# Symmetric left/right frontal and temporal pairs given negative
# "global connection" weights by default; apply_global_connections takes any pairs.
DEFAULT_GLOBAL_PAIRS = (
    ("FP1", "FP2"),
    ("F7", "F8"),
    ("F3", "F4"),
    ("FT7", "FT8"),
    ("T7", "T8"),
    ("TP7", "TP8"),
)

DEFAULT_GLOBAL_WEIGHT = -1.0

# Inclination of the outer electrode ring from the vertex.
_RING_INCLINATION = 72.0


def _unit(inclination_deg: float, azimuth_deg: float) -> np.ndarray:
    """Point on the unit sphere; azimuth from the nose axis, positive right."""
    theta = math.radians(inclination_deg)
    phi = math.radians(azimuth_deg)
    return np.array(
        [math.sin(theta) * math.sin(phi), math.sin(theta) * math.cos(phi), math.cos(theta)]
    )


def _slerp(p: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    omega = math.acos(float(np.clip(np.dot(p, q), -1.0, 1.0)))
    if omega < 1e-12:
        return p.copy()
    return (math.sin((1.0 - t) * omega) * p + math.sin(t * omega) * q) / math.sin(omega)


def _row(left_azimuth: float, midline: np.ndarray, names_left_to_mid: list[str]) -> dict:
    """Electrodes at equal arc fractions from the ring endpoint to the midline.

    ``names_left_to_mid`` runs outward-in and excludes the midline electrode;
    the right hemisphere mirrors by negating azimuth (x coordinate).
    """
    out: dict[str, np.ndarray] = {}
    endpoint = _unit(_RING_INCLINATION, left_azimuth)
    steps = len(names_left_to_mid) + 1
    for i, name in enumerate(names_left_to_mid):
        out[name] = _slerp(endpoint, midline, i / steps)
    return out


def _mirror(pos: np.ndarray) -> np.ndarray:
    flipped = pos.copy()
    flipped[0] = -flipped[0]
    return flipped


def build_62_channel_layout() -> ElectrodeLayout:
    pos: dict[str, np.ndarray] = {}

    # Outer ring and midline.
    ring = {
        "FP1": -18.0, "FPZ": 0.0, "FP2": 18.0,
        "F7": -54.0, "F8": 54.0,
        "FT7": -72.0, "FT8": 72.0,
        "T7": -90.0, "T8": 90.0,
        "TP7": -108.0, "TP8": 108.0,
        "P7": -126.0, "P8": 126.0,
        "PO7": -144.0, "PO8": 144.0,
        "O1": -162.0, "OZ": 180.0, "O2": 162.0,
    }
    for name, azimuth in ring.items():
        pos[name] = _unit(_RING_INCLINATION, azimuth)
    midline = {
        "FZ": _unit(36.0, 0.0),
        "FCZ": _unit(18.0, 0.0),
        "CZ": _unit(0.0, 0.0),
        "CPZ": _unit(18.0, 180.0),
        "PZ": _unit(36.0, 180.0),
        "POZ": _unit(54.0, 180.0),
    }
    pos.update(midline)

    # Interior rows, left hemisphere then mirrored.
    left_rows = [
        _row(-54.0, midline["FZ"], ["F7", "F5", "F3", "F1"]),
        _row(-72.0, midline["FCZ"], ["FT7", "FC5", "FC3", "FC1"]),
        _row(-90.0, midline["CZ"], ["T7", "C5", "C3", "C1"]),
        _row(-108.0, midline["CPZ"], ["TP7", "CP5", "CP3", "CP1"]),
        _row(-126.0, midline["PZ"], ["P7", "P5", "P3", "P1"]),
        _row(-144.0, midline["POZ"], ["PO7", "PO5", "PO3"]),
    ]
    for row in left_rows:
        pos.update(row)
    # AF3 halfway between a virtual AF7 ring point and a virtual AFZ.
    pos["AF3"] = _slerp(_unit(_RING_INCLINATION, -36.0), _unit(54.0, 0.0), 0.5)

    mirrors = {
        "F5": "F6", "F3": "F4", "F1": "F2",
        "FC5": "FC6", "FC3": "FC4", "FC1": "FC2",
        "C5": "C6", "C3": "C4", "C1": "C2",
        "CP5": "CP6", "CP3": "CP4", "CP1": "CP2",
        "P5": "P6", "P3": "P4", "P1": "P2",
        "PO5": "PO6", "PO3": "PO4",
        "AF3": "AF4",
    }
    for left, right in mirrors.items():
        pos[right] = _mirror(pos[left])

    # Cerebellar electrodes sit below and lateral to O1/O2.
    pos["CB1"] = _unit(84.0, -150.0)
    pos["CB2"] = _unit(84.0, 150.0)

    coords = np.stack([pos[name] for name in CHANNELS_62]) * HEAD_RADIUS
    return ElectrodeLayout(CHANNELS_62, coords)
