"""Procedural stand-in for the Comma2k19 driving-video dataset.

The paper feeds Comma2k19 highway video through OpenPilot's Supercombo model
and reads out the predicted relative distance to the lead vehicle.  Offline,
we generate the same *geometry* synthetically: a pinhole camera looking down
a highway renders a lead vehicle whose projected position and size follow
perspective projection from the ground-truth distance.  That geometry is what
makes the paper's central observation ("attacks hurt more at close range,
because the perturbable region is larger") reproducible.

Frames are (3, 64, 128) float32 in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .transforms import clip01

FRAME_H = 64
FRAME_W = 128

# Camera intrinsics/extrinsics for the synthetic pinhole camera.
FOCAL_PX = 150.0        # focal length in pixels
CAMERA_HEIGHT_M = 1.2   # camera height above the road
LEAD_WIDTH_M = 1.9      # physical lead-vehicle width
LEAD_HEIGHT_M = 1.5     # physical lead-vehicle height
HORIZON_ROW = 24        # image row of the horizon
MIN_DISTANCE = 3.0
MAX_DISTANCE = 90.0


@dataclass
class DrivingFrame:
    """One rendered frame with its ground truth."""

    image: np.ndarray                    # (3, H, W)
    distance: float                      # metres to lead vehicle (inf if none)
    lead_box: Optional[Tuple[int, int, int, int]]  # (x1, y1, x2, y2) or None

    @property
    def has_lead(self) -> bool:
        return self.lead_box is not None


def project_lead(distance: float, lateral_offset: float = 0.0
                 ) -> Tuple[int, int, int, int]:
    """Project a lead vehicle at ``distance`` metres into pixel coordinates.

    Returns an (x1, y1, x2, y2) box.  Standard pinhole model: apparent size
    scales as ``f / d`` and the vehicle's ground contact line approaches the
    horizon as ``d`` grows.
    """
    width_px = FOCAL_PX * LEAD_WIDTH_M / distance
    height_px = FOCAL_PX * LEAD_HEIGHT_M / distance
    bottom_row = HORIZON_ROW + FOCAL_PX * CAMERA_HEIGHT_M / distance
    center_col = FRAME_W / 2 + FOCAL_PX * lateral_offset / distance
    x1 = int(round(center_col - width_px / 2))
    x2 = int(round(center_col + width_px / 2))
    y2 = int(round(bottom_row))
    y1 = int(round(bottom_row - height_px))
    return x1, y1, x2, y2


def _road_layout() -> Tuple[np.ndarray, ...]:
    """Per-row blend weights and pixel masks of the empty road, built once.

    Returns the sky blend ``t`` per sky row, the shoulder and road shading
    factors per ground row, and ``(ground rows, W)`` masks of the road
    surface and of the dashed centre-lane marks.
    """
    sky_t = np.arange(HORIZON_ROW) / max(1, HORIZON_ROW - 1)
    depth = np.arange(FRAME_H - HORIZON_ROW) / (FRAME_H - HORIZON_ROW)
    half_width = 8 + depth * 55
    road = np.abs(np.arange(FRAME_W) - FRAME_W / 2) <= half_width[:, None]
    lanes = np.zeros_like(road)
    for k, row in enumerate(range(HORIZON_ROW, FRAME_H)):
        if (row // 3) % 2 == 0:
            for lane_offset in (-0.45, 0.45):
                col = int(FRAME_W / 2 + lane_offset * 2 * half_width[k])
                if 0 <= col < FRAME_W:
                    lanes[k, max(0, col - 1):col + 1] = True
    return (sky_t[:, None], (0.8 + 0.3 * depth)[:, None],
            (0.8 + 0.4 * depth)[:, None], road, lanes)


_SKY_T, _SHOULDER_SHADE, _ROAD_SHADE, _ROAD_MASK, _LANE_MASK = _road_layout()
_LANE_COLOR = np.array([0.85, 0.85, 0.8], dtype=np.float32)


def _render_road(rng: np.random.Generator) -> np.ndarray:
    """Sky gradient, shoulder, road surface and dashed lane marks (H, W, 3).

    Each row's colours are computed in float64 and rounded to float32
    once, from the precomputed layout.
    """
    sky_top = np.array([0.5, 0.65, 0.9]) + rng.normal(0, 0.03, 3)
    sky_bot = np.array([0.8, 0.85, 0.95]) + rng.normal(0, 0.03, 3)
    road = np.array([0.33, 0.33, 0.35]) + rng.normal(0, 0.02, 3)
    shoulder = np.array([0.45, 0.47, 0.4]) + rng.normal(0, 0.02, 3)
    image = np.empty((FRAME_H, FRAME_W, 3), dtype=np.float32)
    image[:HORIZON_ROW] = ((1 - _SKY_T) * sky_top
                           + _SKY_T * sky_bot).astype(np.float32)[:, None]
    ground = image[HORIZON_ROW:]
    ground[...] = (shoulder * _SHOULDER_SHADE).astype(np.float32)[:, None]
    np.copyto(ground, (road * _ROAD_SHADE).astype(np.float32)[:, None],
              where=_ROAD_MASK[:, :, None])
    ground[_LANE_MASK] = _LANE_COLOR
    return image


def _render_lead(image_hwc: np.ndarray, box: Tuple[int, int, int, int],
                 rng: np.random.Generator) -> None:
    x1, y1, x2, y2 = box
    x1c, y1c = max(0, x1), max(0, y1)
    x2c, y2c = min(FRAME_W, x2), min(FRAME_H, y2)
    if x2c <= x1c or y2c <= y1c:
        return
    body = np.array([0.15, 0.16, 0.2]) + rng.normal(0, 0.03, 3)
    image_hwc[y1c:y2c, x1c:x2c] = body
    height = y2c - y1c
    width = x2c - x1c
    # Windshield strip.
    ws_top = y1c + max(1, height // 6)
    ws_bot = y1c + max(1, height // 2)
    inset = max(1, width // 8)
    image_hwc[ws_top:ws_bot, x1c + inset:x2c - inset] = [0.55, 0.65, 0.75]
    # Brake lights at the lower corners.
    light_h = max(1, height // 6)
    light_w = max(1, width // 5)
    image_hwc[y2c - light_h:y2c, x1c:x1c + light_w] = [0.85, 0.1, 0.1]
    image_hwc[y2c - light_h:y2c, x2c - light_w:x2c] = [0.85, 0.1, 0.1]
    # Tire shadow.
    shadow_rows = min(FRAME_H, y2c + 1)
    image_hwc[y2c:shadow_rows, x1c:x2c] *= 0.5


def render_frame(distance: Optional[float], rng: np.random.Generator,
                 lateral_offset: float = 0.0) -> DrivingFrame:
    """Render one frame; ``distance=None`` renders an empty road."""
    image = _render_road(rng)
    box = None
    if distance is not None:
        box = project_lead(distance, lateral_offset)
        _render_lead(image, box, rng)
        x1, y1, x2, y2 = box
        box = (max(0, x1), max(0, y1), min(FRAME_W, x2), min(FRAME_H, y2))
    noise = rng.normal(0, 0.01, image.shape).astype(np.float32)
    image = clip01(image + noise)
    return DrivingFrame(image=image.transpose(2, 0, 1).copy(),
                        distance=float(distance) if distance is not None else float("inf"),
                        lead_box=box)


def car_following_trajectory(n_frames: int, rng: np.random.Generator,
                             initial_distance: Optional[float] = None,
                             dt: float = 0.05) -> np.ndarray:
    """Simulate a lead-vehicle distance trace with realistic dynamics.

    The relative speed follows an Ornstein–Uhlenbeck process plus slow
    sinusoidal drift, which produces traces that sweep through the paper's
    four evaluation ranges.
    """
    distance = initial_distance if initial_distance is not None else rng.uniform(8, 70)
    rel_speed = rng.normal(0.0, 1.0)
    trace = np.empty(n_frames, dtype=np.float64)
    phase = rng.uniform(0, 2 * np.pi)
    for i in range(n_frames):
        drift = 2.5 * np.sin(2 * np.pi * i * dt / 20.0 + phase)
        rel_speed += (-0.1 * rel_speed + drift * 0.05) * 1.0 + rng.normal(0, 0.3)
        rel_speed = float(np.clip(rel_speed, -8.0, 8.0))
        distance = float(np.clip(distance + rel_speed * dt, MIN_DISTANCE,
                                 MAX_DISTANCE))
        trace[i] = distance
    return trace


@dataclass
class DrivingVideo:
    """A sequence of frames with ground-truth distances (a comma2k19 clip)."""

    frames: List[DrivingFrame]

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, index: int) -> DrivingFrame:
        return self.frames[index]

    def images(self) -> np.ndarray:
        return np.stack([frame.image for frame in self.frames])

    def distances(self) -> np.ndarray:
        return np.array([frame.distance for frame in self.frames])


def generate_video(n_frames: int, seed: int = 0,
                   initial_distance: Optional[float] = None) -> DrivingVideo:
    rng = np.random.default_rng(seed)
    trace = car_following_trajectory(n_frames, rng, initial_distance)
    frames = [render_frame(float(d), rng) for d in trace]
    return DrivingVideo(frames=frames)


def generate_training_set(n_frames: int, seed: int = 0,
                          lead_fraction: float = 0.9
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """IID training frames: images (N,3,H,W) and distances (N,).

    Frames without a lead vehicle get distance ``MAX_DISTANCE`` so that the
    regressor has a well-defined target everywhere (OpenPilot similarly
    saturates its lead output when no lead is present).
    """
    rng = np.random.default_rng(seed)
    images = np.empty((n_frames, 3, FRAME_H, FRAME_W), dtype=np.float32)
    distances = np.empty(n_frames, dtype=np.float32)
    for i in range(n_frames):
        if rng.random() < lead_fraction:
            # Half the frames are inverse-distance-uniform (balanced pixel
            # size, dominated by close range), half uniform in metres (so the
            # long ranges the paper evaluates are properly covered).
            if rng.random() < 0.5:
                distance = 1.0 / rng.uniform(1.0 / MAX_DISTANCE,
                                             1.0 / MIN_DISTANCE)
            else:
                distance = rng.uniform(MIN_DISTANCE, MAX_DISTANCE)
            lateral = rng.normal(0, 0.4)
            frame = render_frame(distance, rng, lateral_offset=lateral)
        else:
            frame = render_frame(None, rng)
            distance = MAX_DISTANCE
        images[i] = frame.image
        distances[i] = distance
    return images, distances
