"""The zoo's one load-or-train path: a checkpoint that no longer fits its
model is quarantined as ``stale`` and retrained from a fresh init, never
half-loaded and trained over."""

import os

import numpy as np
import pytest

from repro.models import zoo
from repro.runtime import store

pytestmark = pytest.mark.faults


@pytest.fixture(autouse=True)
def _clean_store_events():
    store.clear_fault_events()
    yield
    store.clear_fault_events()


def _driving_prior(monkeypatch, cache_dir):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    return zoo.get_diffusion("driving", epochs=1, n_images=4)


def test_stale_diffusion_prior_is_quarantined_and_retrained(monkeypatch,
                                                            tmp_path):
    prior = _driving_prior(monkeypatch, tmp_path / "fresh")
    fresh = prior.network.state_dict()
    (artifact,) = [name for name in os.listdir(tmp_path / "fresh")
                   if name.startswith("diffusion-")]

    # Every tensor perturbed by +1 and the last parameter of the wrong
    # shape: a loader that assigned while it checked would leave the
    # perturbed weights in place for training to start from.
    last = [name for name, _ in prior.network.named_parameters()][-1]
    stale = {key: value + 1 for key, value in fresh.items()}
    stale[last] = np.zeros(fresh[last].shape + (2,), dtype=np.float32)
    store.save_state(str(tmp_path / "stale" / artifact), stale)
    store.clear_fault_events()

    retrained = _driving_prior(monkeypatch, tmp_path / "stale")
    (event,) = store.fault_events()
    assert event.kind == "stale"
    assert os.path.exists(event.quarantined_to)
    state = retrained.network.state_dict()
    assert sorted(state) == sorted(fresh)
    for key in fresh:
        np.testing.assert_array_equal(state[key], fresh[key])
