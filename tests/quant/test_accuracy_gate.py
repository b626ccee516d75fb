"""The quantization accuracy gate: AUC delta vs full precision.

Policy (DESIGN.md §13): a quantized archive may not move AUC-ROC on the
seeded benchmark split by more than 0.002 (0.2 in this repository's
percent convention) relative to the full-precision model it was derived
from.  This test IS the gate — a quantization change that degrades
accuracy beyond the budget fails CI here, not in production.
"""

import numpy as np

from repro.core import load_clfd
from repro.metrics import auc_roc

#: Maximum allowed |AUC(quantized) - AUC(full)| in percent (= 0.002
#: as a fraction) — the regression budget from the issue.
AUC_DELTA_BUDGET_PCT = 0.2


def _auc(model, test) -> float:
    _, scores = model.predict(test)
    return auc_roc(test.labels(), scores)


def test_int8_auc_delta_within_budget(quant_split, reference_model,
                                      int8_archive):
    _, test = quant_split
    full = _auc(reference_model, test)
    quantized = _auc(load_clfd(int8_archive), test)
    assert abs(quantized - full) <= AUC_DELTA_BUDGET_PCT, (
        f"int8 AUC {quantized:.4f} vs full {full:.4f}: delta "
        f"{abs(quantized - full):.4f} exceeds {AUC_DELTA_BUDGET_PCT} pct")


def test_float16_auc_delta_within_budget(quant_split, teacher_archive,
                                         reference_model):
    _, test = quant_split
    full = _auc(reference_model, test)
    f16 = _auc(load_clfd(teacher_archive, precision="float16"), test)
    assert abs(f16 - full) <= AUC_DELTA_BUDGET_PCT


def test_gate_would_catch_a_broken_quantizer(quant_split, int8_archive):
    """Sanity-check the gate has teeth: wrecking the quantized scales
    moves AUC far beyond the budget."""
    _, test = quant_split
    model = load_clfd(int8_archive)
    baseline = _auc(model, test)
    rng = np.random.default_rng(0)
    fc1 = model.classifier.fc1
    fc1.scales = (fc1.scales
                  * rng.uniform(-3.0, 3.0, size=fc1.scales.shape)
                  .astype(np.float32))
    fc1._dense = None
    broken = _auc(model, test)
    assert abs(broken - baseline) > AUC_DELTA_BUDGET_PCT
