"""Tests for the generic configuration sweep runner."""

import math

import pytest

from repro.experiments import sweep_config_field, uniform_noise
from tests.experiments.test_runner import TinySettings


@pytest.fixture(scope="module")
def settings():
    return TinySettings()


def test_sweep_numeric_field(settings):
    results = sweep_config_field("q", [0.3, 0.7], settings=settings,
                                 noise=uniform_noise(0.2))
    assert set(results) == {"f1", "fpr", "auc_roc", "tpr", "tnr"}
    assert [cell.model for cell in results["f1"]] == ["q=0.3", "q=0.7"]
    assert {(cell.dataset, cell.noise) for cell in results["f1"]} == \
        {("cert", "eta=0.2")}
    for cell in results["f1"]:
        # NaN marks an undefined metric (the tiny model may make no
        # positive predictions); anything else must be a percentage.
        assert math.isnan(cell.mean) or 0 <= cell.mean <= 100
    for cell in results["tnr"]:
        assert 0 <= cell.mean <= 100


def test_sweep_categorical_field(settings):
    results = sweep_config_field("supcon_variant",
                                 ["weighted", "unweighted"],
                                 settings=settings,
                                 noise=uniform_noise(0.2))
    assert [cell.model for cell in results["f1"]] == [
        "supcon_variant=weighted", "supcon_variant=unweighted"]


def test_sweep_rejects_unknown_field(settings):
    with pytest.raises(AttributeError):
        sweep_config_field("bogus_field", [1], settings=settings)
