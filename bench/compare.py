"""``python -m bench compare BASE.json NEW.json``.

Judges every (workload, end-to-end metric) pair the two ``run`` record
files share, round ``i`` of BASE paired with round ``i`` of NEW:

* **gain** — at least ten pairs, NEW wins at least nine tenths of them
  (ties count for neither), and the medians differ by more than BASE's
  interquartile range; void if the workload's failures rose;
* **regression** — NEW's median is worse than BASE's by more than the
  metric's bound, whatever the spread (``fail_ratio``: any NEW round
  above every BASE round);
* **unresolved** — no regression, but either side's spread exceeds the
  bound, so "unchanged" cannot be told apart at that bound — unless
  every NEW run beats every BASE run (**better**);
* **unchanged** — none of the above.
"""

from __future__ import annotations

import json

from .spec import RECORD_METRICS, RecordMetric
from .stats import quartiles

MIN_GAIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9


def judge(metric: RecordMetric, base: list[float],
          new: list[float]) -> dict:
    """Status of one (workload, metric) pair; see the module docstring."""
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if metric.better == "higher" else -1.0
    verdict = {"base": [bq1, bmed, bq3], "new": [nq1, nmed, nq3]}
    if metric.kind == "zero":
        worse = max(new) > max(base)
        verdict["status"] = "regression" if worse else "unchanged"
        return verdict

    scale = abs(bmed) if metric.kind == "rel" else 1.0
    if scale == 0.0:
        scale = 1.0
    worsening = sign * (bmed - nmed) / scale
    spread = max(bq3 - bq1, nq3 - nq1) / scale
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    verdict.update(worsening=worsening, spread=spread, wins=wins,
                   pairs=len(pairs))
    if (len(pairs) >= MIN_GAIN_PAIRS and wins >= GAIN_WIN_SHARE * len(pairs)
            and sign * (nmed - bmed) > bq3 - bq1):
        verdict["status"] = "gain"
    elif worsening > metric.bound:
        verdict["status"] = "regression"
    elif spread > metric.bound:
        beats_all = (min(new) > max(base) if sign > 0
                     else max(new) < min(base))
        verdict["status"] = "better" if beats_all else "unresolved"
    else:
        verdict["status"] = "unchanged"
    return verdict


def compare(base: dict, new: dict) -> list[dict]:
    """One row per (workload, metric) present in both run records."""
    rows = []
    for workload, b_entry in base["workloads"].items():
        n_entry = new["workloads"].get(workload)
        if n_entry is None:
            continue
        workload_rows = []
        for name, b_sum in b_entry["summary"].items():
            if name not in n_entry["summary"]:
                continue
            metric = RECORD_METRICS[name]
            row = judge(metric, b_sum["values"],
                        n_entry["summary"][name]["values"])
            row.update(workload=workload, metric=name, unit=metric.unit,
                       bound=metric.bound, kind=metric.kind)
            workload_rows.append(row)
        failures_rose = any(r["metric"] == "fail_ratio"
                            and r["status"] == "regression"
                            for r in workload_rows)
        for row in workload_rows:
            if failures_rose and row["status"] == "gain":
                row["status"] = "unchanged"
                row["note"] = "gain void: failures rose"
        rows.extend(workload_rows)
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':14s} {'metric':14s} {'unit':9s} "
             f"{'base q1/med/q3':>30s} {'new q1/med/q3':>30s} "
             f"{'bound':>8s}  status"]
    for r in rows:
        bound = (f"{r['bound']:.0%}" if r["kind"] == "rel"
                 else "any" if r["kind"] == "zero" else f"{r['bound']:g}")
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        lines.append(f"{r['workload']:14s} {r['metric']:14s} {r['unit']:9s} "
                     f"{fmt.format(*r['base']):>30s} "
                     f"{fmt.format(*r['new']):>30s} {bound:>8s}  "
                     f"{r['status']}"
                     + (f" ({r['wins']}/{r['pairs']} wins)"
                        if "wins" in r else "")
                     + (f" — {r['note']}" if "note" in r else ""))
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    lines.append(", ".join(f"{n} {status}" for status, n in
                           sorted(counts.items())))
    return "\n".join(lines)


def compare_files(base_path: str, new_path: str) -> tuple[str, bool]:
    """Report text, and whether any pair regressed."""
    with open(base_path) as fh:
        base = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    rows = compare(base, new)
    report = format_rows(rows)
    hosts = [(r["host"]["nproc"], r["host"]["blas"]) for r in (base, new)]
    if hosts[0] != hosts[1]:
        report += (f"\nwarning: records come from different hosts "
                   f"{hosts[0]} vs {hosts[1]}")
    return report, any(r["status"] == "regression" for r in rows)
