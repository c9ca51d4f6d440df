"""§VI timing — per-frame runtime of each defense.

The Discussion's operational argument: classical preprocessing costs ~20 ms
per frame while DiffPIR costs 1-2 s, which rules it out for the 20 Hz
perception loop.  We measure wall-clock per frame for every input defense on
driving-frame batches: the median over ``repeats`` timed batches.  The loop
purifies one frame per tick, so DiffPIR is also timed one frame per call:
that batch-1 row is the real 20 Hz test.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..configs import BIT_DEPTH_BITS, DIFFPIR_DRIVING, MEDIAN_BLUR_KERNEL
from ..defenses import (BitDepthReduction, DiffPIRDefense, MedianBlur,
                        Randomization)
from ..eval.harness import make_balanced_eval_frames
from ..eval.reporting import format_table
from ..models.zoo import get_diffusion

DIFFPIR_BATCH_1 = "Diffusion (DiffPIR), batch 1"


@dataclass
class OverheadRow:
    defense: str
    ms_per_frame: float
    realtime_at_20hz: bool  # fits in a 50 ms tick?


def run(n_frames: int = 16, repeats: int = 3) -> List[OverheadRow]:
    images, _, _ = make_balanced_eval_frames(max(1, n_frames // 4), seed=3)
    images = images[:n_frames]
    prior = get_diffusion("driving")
    defenses = {
        "Median Blurring": MedianBlur(MEDIAN_BLUR_KERNEL),
        "Bit Depth": BitDepthReduction(BIT_DEPTH_BITS),
        "Randomization": Randomization(seed=0),
        "Diffusion (DiffPIR)": DiffPIRDefense(prior, seed=0,
                                              **DIFFPIR_DRIVING),
        DIFFPIR_BATCH_1: DiffPIRDefense(prior, seed=0, **DIFFPIR_DRIVING),
    }
    rows: List[OverheadRow] = []
    for name, defense in defenses.items():
        batch = 1 if name == DIFFPIR_BATCH_1 else len(images)
        defense.purify(images[:2])  # warm-up
        seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            for first in range(0, len(images), batch):
                defense.purify(images[first:first + batch])
            seconds.append(time.perf_counter() - start)
        ms = statistics.median(seconds) / len(images) * 1000.0
        rows.append(OverheadRow(name, ms, ms <= 50.0))
    return rows


def render(rows: List[OverheadRow]) -> str:
    return format_table(
        ["Defense", "ms/frame", "fits 20 Hz tick"],
        [[r.defense, f"{r.ms_per_frame:.2f}", "yes" if r.realtime_at_20hz else "NO"]
         for r in rows],
        title="Defense runtime overhead (Discussion, SVI)")
