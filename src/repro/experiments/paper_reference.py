"""The paper's reported numbers, for shape comparison.

Values transcribed from Tables I-V of the paper (means only; std
elided).  :func:`lookup` flattens them into the paper column that
:func:`repro.analysis.tables.render_markdown` prints next to each
measured table — this reproduction targets the *shape* (who wins, how
performance decays with noise), not absolute parity, since the
substrate is a CPU NumPy simulator on synthetic sessions.
"""

from __future__ import annotations

from typing import Iterator

from ..data.noise import noise_label
from .settings import CLASS_DEPENDENT_RATES

__all__ = [
    "lookup",
    "TABLE1_F1",
    "TABLE1_CLFD",
    "TABLE2_F1",
    "TABLE3",
    "TABLE4_F1",
    "TABLE5_F1",
    "LATENCY_SECONDS",
]

# Table I, F1 means: {model: {dataset: {eta: f1}}} at the noise-sweep
# endpoints (η = 0.1 and η = 0.45).
TABLE1_F1: dict[str, dict[str, dict[float, float]]] = {
    "DivMix": {
        "cert": {0.1: 37.74, 0.45: 14.04},
        "umd-wikipedia": {0.1: 51.78, 0.45: 10.19},
        "openstack": {0.1: 42.87, 0.45: 6.63},
    },
    "ULC": {
        "cert": {0.1: 53.35, 0.45: 12.82},
        "umd-wikipedia": {0.1: 53.60, 0.45: 4.71},
        "openstack": {0.1: 41.12, 0.45: 7.13},
    },
    "Sel-CL": {
        "cert": {0.1: 73.96, 0.45: 43.33},
        "umd-wikipedia": {0.1: 70.93, 0.45: 23.53},
        "openstack": {0.1: 48.82, 0.45: 28.44},
    },
    "CTRR": {
        "cert": {0.1: 69.72, 0.45: 23.82},
        "umd-wikipedia": {0.1: 66.95, 0.45: 21.24},
        "openstack": {0.1: 31.48, 0.45: 20.85},
    },
    "Few-Shot": {
        "cert": {0.1: 37.29, 0.45: 21.57},
        "umd-wikipedia": {0.1: 43.82, 0.45: 36.27},
        "openstack": {0.1: 9.56, 0.45: 16.81},
    },
    "CLDet": {
        "cert": {0.1: 67.72, 0.45: 26.13},
        "umd-wikipedia": {0.1: 37.53, 0.45: 24.43},
        "openstack": {0.1: 56.07, 0.45: 28.37},
    },
    "DeepLog": {
        "cert": {0.1: 46.07, 0.45: 16.72},
        "umd-wikipedia": {0.1: 56.29, 0.45: 13.06},
        "openstack": {0.1: 45.52, 0.45: 10.74},
    },
    "LogBert": {
        "cert": {0.1: 51.13, 0.45: 22.47},
        "umd-wikipedia": {0.1: 66.58, 0.45: 33.67},
        "openstack": {0.1: 50.51, 0.45: 15.58},
    },
    "CLFD": {
        "cert": {0.1: 77.93, 0.45: 62.77},
        "umd-wikipedia": {0.1: 75.17, 0.45: 52.89},
        "openstack": {0.1: 64.54, 0.45: 48.89},
    },
}

# CLFD's full Table I rows: {dataset: {eta: (F1, FPR, AUC-ROC)}}.
TABLE1_CLFD: dict[str, dict[float, tuple[float, float, float]]] = {
    "cert": {
        0.1: (77.93, 1.32, 90.72),
        0.2: (75.51, 1.95, 88.48),
        0.3: (70.67, 2.13, 87.61),
        0.45: (62.77, 2.53, 85.76),
    },
    "umd-wikipedia": {
        0.1: (75.17, 5.83, 80.79),
        0.2: (57.01, 3.81, 69.63),
        0.3: (55.57, 5.30, 68.74),
        0.45: (52.89, 5.52, 67.22),
    },
    "openstack": {
        0.1: (64.54, 4.52, 88.96),
        0.2: (62.77, 5.62, 88.54),
        0.3: (59.72, 5.79, 86.78),
        0.45: (48.89, 5.46, 78.35),
    },
}

# Table II, F1 means under class-dependent noise (η₁₀=0.3, η₀₁=0.45).
TABLE2_F1: dict[str, dict[str, float]] = {
    "DivMix": {"cert": 17.22, "umd-wikipedia": 5.95, "openstack": 8.77},
    "ULC": {"cert": 21.33, "umd-wikipedia": 12.01, "openstack": 5.23},
    "Sel-CL": {"cert": 38.41, "umd-wikipedia": 18.19, "openstack": 35.36},
    "CTRR": {"cert": 23.35, "umd-wikipedia": 19.84, "openstack": 32.15},
    "Few-Shot": {"cert": 24.19, "umd-wikipedia": 40.95, "openstack": 19.96},
    "CLDet": {"cert": 27.43, "umd-wikipedia": 21.53, "openstack": 29.39},
    "DeepLog": {"cert": 25.86, "umd-wikipedia": 21.37, "openstack": 16.10},
    "LogBert": {"cert": 28.51, "umd-wikipedia": 38.87, "openstack": 21.85},
    "CLFD": {"cert": 60.77, "umd-wikipedia": 58.79, "openstack": 48.45},
}

# Table III: label corrector (TPR, TNR) per dataset and noise setting.
TABLE3: dict[str, dict[str, tuple[float, float]]] = {
    "cert": {"uniform": (70.25, 90.69), "class-dependent": (79.42, 87.47)},
    "umd-wikipedia": {"uniform": (71.73, 89.38),
                      "class-dependent": (79.61, 88.34)},
    "openstack": {"uniform": (72.62, 93.22),
                  "class-dependent": (80.52, 88.46)},
}

# Tables IV/V: ablation F1 means per dataset.
TABLE4_F1: dict[str, dict[str, float]] = {
    "CLFD": {"cert": 62.77, "umd-wikipedia": 52.89, "openstack": 48.89},
    "w/o LC": {"cert": 25.53, "umd-wikipedia": 23.29, "openstack": 38.35},
    "w/o mixup-GCE": {"cert": 53.44, "umd-wikipedia": 46.83,
                      "openstack": 41.53},
    "w/o GCE loss": {"cert": 7.35, "umd-wikipedia": 19.40, "openstack": 9.28},
    "w/o FD": {"cert": 42.78, "umd-wikipedia": 36.98, "openstack": 38.55},
    "w/o L_Sup": {"cert": 48.73, "umd-wikipedia": 44.31, "openstack": 45.01},
    "w/o classifier (FD)": {"cert": 46.65, "umd-wikipedia": 43.89,
                            "openstack": 41.13},
}

TABLE5_F1: dict[str, dict[str, float]] = {
    "CLFD": {"cert": 60.77, "umd-wikipedia": 58.79, "openstack": 48.45},
    "w/o LC": {"cert": 16.46, "umd-wikipedia": 32.69, "openstack": 36.16},
    "w/o mixup-GCE": {"cert": 46.46, "umd-wikipedia": 52.78,
                      "openstack": 44.74},
    "w/o GCE loss": {"cert": 15.21, "umd-wikipedia": 17.18,
                     "openstack": 10.48},
    "w/o FD": {"cert": 40.77, "umd-wikipedia": 47.87, "openstack": 39.73},
    "w/o L_Sup": {"cert": 44.69, "umd-wikipedia": 50.56, "openstack": 43.47},
    "w/o classifier (FD)": {"cert": 43.13, "umd-wikipedia": 48.12,
                            "openstack": 42.25},
}

# §IV-B3: CLFD training latency in seconds on the paper's V100 testbed.
LATENCY_SECONDS: dict[str, float] = {
    "cert": 30_816.0,
    "umd-wikipedia": 19_158.0,
    "openstack": 28_872.0,
}


_CLFD_COLUMNS = ("f1", "fpr", "auc_roc")  # TABLE1_CLFD tuple order
_TABLE3_COLUMNS = ("tpr", "tnr")           # TABLE3 tuple order


def _entries(metric: str) -> Iterator[tuple[tuple[str, str, str], float]]:
    """Every ((row, dataset, noise label), mean) the paper reports for
    ``metric``, table by table."""
    def uniform(eta):
        return noise_label("uniform", (eta,))

    class_dependent = noise_label("class-dependent", CLASS_DEPENDENT_RATES)
    if metric == "f1":
        for model, per_dataset in TABLE1_F1.items():
            for dataset, per_eta in per_dataset.items():
                for eta, value in per_eta.items():
                    yield (model, dataset, uniform(eta)), value
        for table, noise in ((TABLE2_F1, class_dependent),
                             (TABLE4_F1, uniform(0.45)),
                             (TABLE5_F1, class_dependent)):
            for row, per_dataset in table.items():
                for dataset, value in per_dataset.items():
                    yield (row, dataset, noise), value
    if metric in _CLFD_COLUMNS:
        column = _CLFD_COLUMNS.index(metric)
        for dataset, per_eta in TABLE1_CLFD.items():
            for eta, values in per_eta.items():
                yield ("CLFD", dataset, uniform(eta)), values[column]
    if metric in _TABLE3_COLUMNS:
        column = _TABLE3_COLUMNS.index(metric)
        noises = {"uniform": uniform(0.45),
                  "class-dependent": class_dependent}
        for dataset, per_kind in TABLE3.items():
            for kind, rates in per_kind.items():
                yield ("CLFD", dataset, noises[kind]), rates[column]


def lookup(metric: str) -> dict[tuple[str, str, str], float]:
    """The paper's mean of ``metric`` per (row, dataset, noise label).

    Rows are the table runners' row names (models, ablation variants)
    and noise labels are :func:`repro.data.noise.noise_label`'s, so the
    mapping indexes runner output directly.  A key two tables both
    report (CLFD's row of Tables I and IV, of Tables II and V) must
    agree, or this raises :class:`ValueError`.
    """
    table: dict[tuple[str, str, str], float] = {}
    for key, value in _entries(metric):
        if table.setdefault(key, value) != value:
            raise ValueError(f"paper tables disagree on {metric} at {key}: "
                             f"{table[key]} vs {value}")
    return table
