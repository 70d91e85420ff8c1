"""Binary PGM (P5) export for depth, intensity, and diagnostic maps.

Depth exports use 16-bit millimeters with 0 reserved for invalid pixels;
everything else is 8-bit. Both variants are readable by any netpbm viewer.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


def write_pgm(path: str | Path, image: np.ndarray, maxval: int) -> None:
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    arr = np.ascontiguousarray(image)
    if arr.ndim != 2:
        raise ValueError("PGM images are 2-D")
    dtype = np.uint8 if maxval == 255 else ">u2"
    arr = arr.astype(dtype)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def depth_to_pgm(path: str | Path, depth: np.ndarray, valid: np.ndarray) -> None:
    """16-bit depth in millimeters; invalid pixels written as 0."""
    mm = np.where(valid, np.clip(np.round(depth * 1000.0), 1, 65535), 0)
    write_pgm(path, mm.astype(np.uint16), 65535)


def gray_to_pgm(path: str | Path, image01: np.ndarray) -> None:
    """8-bit export of an image with values in [0, 1]."""
    q = np.clip(np.round(np.asarray(image01, dtype=float) * 255.0), 0, 255)
    write_pgm(path, q.astype(np.uint8), 255)


def labels_to_pgm(path: str | Path, labels: np.ndarray) -> None:
    """8-bit label map; label ids are spread over the gray range."""
    lab = np.asarray(labels)
    n = int(lab.max()) if lab.size else 0
    scaled = np.where(lab > 0, 40 + (lab * (215 // max(n, 1))) % 216, 0)
    write_pgm(path, scaled.astype(np.uint8), 255)
