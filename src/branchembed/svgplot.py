"""Minimal standalone SVG scatter plots for embedded coordinates."""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .embed import Embedding

# Fixed 10-color palette; labels map onto it modulo 10.
PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
)

_MARGIN = 0.05


def _frame(mins, maxs, size):
    """The viewport's origin and its scale factor for points whose
    per-axis minima and maxima are ``mins`` and ``maxs``."""
    center = (mins + maxs) / 2.0
    span = float((maxs - mins).max())
    if span == 0.0:
        span = 1.0
    side = span * (1.0 + 2.0 * _MARGIN)
    return center - side / 2.0, size / side


def render_svg_scatter(coords: Union[Embedding, np.ndarray],
                       labels: Optional[np.ndarray] = None,
                       size: int = 640,
                       point_radius: float = 3.0) -> str:
    """Render points as an SVG document string.

    The viewport is square and both axes share one scale factor (equal
    aspect), with a 5% margin around the data's bounding box.  With labels,
    point fills come from the fixed 10-color palette; without, every point
    uses the first palette color.  A NaN or infinite coordinate has no
    place in the box and raises ``ValueError``.  A cloud whose span
    overflows float64, or is so small that the scale factor would, is
    first multiplied by an exact power of two; this raises
    ``ValueError`` only if the points' largest magnitude is then beyond
    float64 too (over about 2**1022 times the span).
    """
    pts = coords.coords if isinstance(coords, Embedding) else (
        np.asarray(coords, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ValueError(f"expected (n, 2) coordinates, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("coordinates must be finite")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (pts.shape[0],):
            raise ValueError("labels must have one entry per point")

    mins = pts.min(axis=0)
    maxs = pts.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        origin, scale = _frame(mins, maxs, size)
        if not (np.isfinite(origin).all() and 0.0 < scale < math.inf):
            # The span overflows, or is so small that size / side does:
            # multiply the points by the exact power of two that brings
            # the span into [1, 2).  A power-of-two factor changes no
            # rounding in _frame or below, so this only places points
            # that had no place.
            span = float((maxs - mins).max())
            if span == math.inf:
                half = float((maxs / 2.0 - mins / 2.0).max())
                exponent = math.frexp(half)[1]
            else:
                exponent = math.frexp(span)[1] - 1
            pts = np.ldexp(pts, -exponent)
            origin, scale = _frame(pts.min(axis=0), pts.max(axis=0), size)
    if not np.isfinite(origin).all():
        # Largest magnitude over 2**1022 times the span.
        raise ValueError("coordinates span too many orders of magnitude")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    # One elementwise expression per axis: each position takes the same
    # IEEE operations, in the same order, as it would on its own.
    cx = ((pts[:, 0] - origin[0]) * scale).tolist()
    cy = (size - (pts[:, 1] - origin[1]) * scale).tolist()  # y grows upward
    colors = ([PALETTE[int(label) % 10] for label in labels.tolist()]
              if labels is not None else [PALETTE[0]] * len(cx))
    radius = f"{point_radius:g}"
    parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius}" '
              f'fill="{color}" fill-opacity="0.8"/>'
              for x, y, color in zip(cx, cy, colors)]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
