"""Weight fingerprints for cache keys.

Persisting weights is the checkpoint store's job (:mod:`repro.runtime.store`,
reached through :func:`repro.models.zoo.cached_model`); this module only
hashes a module's state so results derived from a model invalidate when its
weights change.
"""

from __future__ import annotations

import hashlib

import numpy as np


def state_fingerprint(module) -> str:
    """Stable short hash of a module's parameters and buffers.

    Used as a cache-key component so results derived from a model (e.g. its
    adversarial test sets) invalidate when the model's weights change.
    """
    digest = hashlib.sha256()
    state = module.state_dict()
    for name in sorted(state):
        digest.update(name.encode())
        array = np.ascontiguousarray(state[name])
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]
