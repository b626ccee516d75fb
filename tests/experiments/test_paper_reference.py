"""The paper column: `paper_reference.lookup` against runner output."""

import pytest

from repro.experiments import (
    ExperimentSettings,
    paper_reference,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.parallel import executor as executor_mod


def test_clfd_rows_agree_across_tables():
    f1 = paper_reference.lookup("f1")
    for dataset in ("cert", "umd-wikipedia", "openstack"):
        assert f1["CLFD", dataset, "eta=0.45"] == \
            paper_reference.TABLE4_F1["CLFD"][dataset]
        assert f1["CLFD", dataset, "eta10=0.3,eta01=0.45"] == \
            paper_reference.TABLE5_F1["CLFD"][dataset]
        assert f1["CLFD", dataset, "eta=0.2"] == \
            paper_reference.TABLE1_CLFD[dataset][0.2][0]


def test_disagreeing_tables_raise(monkeypatch):
    monkeypatch.setitem(paper_reference.TABLE4_F1, "CLFD",
                        {**paper_reference.TABLE4_F1["CLFD"], "cert": 1.0})
    with pytest.raises(ValueError, match="disagree"):
        paper_reference.lookup("f1")


def test_every_paper_setting_cell_has_an_entry(monkeypatch):
    """Each (row, dataset, noise) the runners produce at the paper's
    settings has a paper value: F1 everywhere, FPR/AUC-ROC for CLFD's
    Table I row at every η, TPR/TNR for Table III.  Table I baselines
    are transcribed at the η endpoints (the CLI's default --etas)."""
    monkeypatch.setattr(
        executor_mod, "execute_task",
        lambda spec, attempt=0, checkpoint_dir=None: {
            "metrics": {"f1": 1.0, "fpr": 1.0, "auc_roc": 1.0,
                        "tpr": 1.0, "tnr": 1.0},
            "seconds": 0.0})
    settings = ExperimentSettings()
    endpoints = ExperimentSettings(etas=(0.1, 0.45))
    tables = [
        (run_table1(endpoints), ("f1",)),
        (run_table1(settings, models=["CLFD"]), ("f1", "fpr", "auc_roc")),
        (run_table2(settings), ("f1",)),
        (run_table3(settings), ("tpr", "tnr")),
        (run_table4(settings), ("f1",)),
        (run_table5(settings), ("f1",)),
    ]
    for results, metrics in tables:
        for metric in metrics:
            paper = paper_reference.lookup(metric)
            missing = [(c.model, c.dataset, c.noise) for c in results[metric]
                       if (c.model, c.dataset, c.noise) not in paper]
            assert results[metric] and not missing, (metric, missing)
