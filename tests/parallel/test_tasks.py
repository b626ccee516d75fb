"""TaskSpec validation and cache-key semantics."""

import dataclasses

import numpy as np
import pytest

from repro.data import make_dataset
from repro.parallel import TaskSpec, task_key


def test_key_is_stable_across_calls(make_spec):
    spec = make_spec(seed=1)
    assert task_key(spec) == task_key(spec)
    assert task_key(spec) == task_key(make_spec(seed=1))


def test_key_ignores_display_name(make_spec):
    spec = make_spec()
    renamed = dataclasses.replace(spec, model="anything-else")
    assert task_key(spec) == task_key(renamed)


@pytest.mark.parametrize("field,value", [
    ("seed", 7),
    ("scale", 0.05),
    ("dataset", "openstack"),
    ("noise_params", (0.4,)),
    ("failpoint", "raise"),
])
def test_key_is_sensitive_to_content(make_spec, field, value):
    spec = make_spec()
    changed = dataclasses.replace(spec, **{field: value})
    assert task_key(spec) != task_key(changed)


def test_key_covers_every_hyperparameter(make_spec, tiny_config):
    spec = make_spec()
    bumped = dataclasses.replace(
        spec, config=dataclasses.replace(tiny_config, hidden_size=17))
    assert task_key(spec) != task_key(bumped)


def test_keys_match_caches_written_by_earlier_versions(make_spec):
    """Pinned key bytes: a change here silently invalidates every run
    cache users already hold."""
    from repro.experiments import ExperimentSettings

    clfd = TaskSpec(model="CLFD", estimator="clfd",
                    config=ExperimentSettings().clfd_config(),
                    dataset="cert", noise_kind="uniform", noise_params=(0.2,),
                    seed=0, scale=0.02, measure="test_metrics")
    rates = dataclasses.replace(clfd, measure="correction_rates")
    assert task_key(make_spec()) == "2e03399be0e1ab0d246935a26ed3f3a0"
    assert task_key(clfd) == "0fac3169978f7fbaee3171940bb93bb0"
    assert task_key(rates) == "a1e5fbc0cb3d9a1ffe07a0c5754f24d6"


def test_spec_validation(make_spec, tiny_config):
    with pytest.raises(ValueError, match="noise_kind"):
        TaskSpec(model="m", estimator="DeepLog", config=tiny_config,
                 dataset="cert", noise_kind="salt-and-pepper",
                 noise_params=(), seed=0, scale=0.02)
    with pytest.raises(ValueError, match="measure"):
        dataclasses.replace(make_spec(), measure="vibes")
    with pytest.raises(ValueError, match="CLFD"):
        dataclasses.replace(make_spec(), measure="correction_rates")


def test_noise_labels_match_runner():
    from repro.experiments import class_dependent_noise, uniform_noise

    uni = uniform_noise(0.45)
    cd = class_dependent_noise()
    base = dict(model="m", estimator="DeepLog", config=None, dataset="cert",
                seed=0, scale=0.02)
    uni_spec = TaskSpec(noise_kind=uni.kind, noise_params=uni.params, **base)
    cd_spec = TaskSpec(noise_kind=cd.kind, noise_params=cd.params, **base)
    assert uni_spec.noise_label == uni.label
    assert cd_spec.noise_label == cd.label


def test_apply_noise_matches_direct_application(make_spec):
    spec = make_spec(eta=0.3)
    train_a, _ = make_dataset("cert", np.random.default_rng(0), scale=0.02)
    train_b, _ = make_dataset("cert", np.random.default_rng(0), scale=0.02)
    spec.apply_noise(train_a, np.random.default_rng(1))
    from repro.data import apply_uniform_noise

    apply_uniform_noise(train_b, 0.3, np.random.default_rng(1))
    assert (train_a.noisy_labels() == train_b.noisy_labels()).all()
    assert (train_a.labels() != train_a.noisy_labels()).any()


def test_spec_pickles(make_spec):
    import pickle

    spec = make_spec(seed=3)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert task_key(clone) == task_key(spec)
