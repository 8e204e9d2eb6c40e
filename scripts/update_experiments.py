#!/usr/bin/env python
"""Insert measured Table II/III results into EXPERIMENTS.md.

Reads the JSON written by ``python -m repro.eval.run --table all --json
full_results.json`` (one row per circuit, each method's final cost,
improvement and CPU under ``row["solvers"][method]``) and replaces the block between the RESULTS markers
in EXPERIMENTS.md with rendered markdown tables plus the paper-vs-
measured shape analysis.

Usage: python scripts/update_experiments.py [results.json] [EXPERIMENTS.md]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.eval.paper_data import PAPER_TABLE2, PAPER_TABLE3

BEGIN = "<!-- RESULTS:BEGIN -->"
END = "<!-- RESULTS:END -->"
METHODS = ("qbp", "gfm", "gkl")


def render_measured_table(rows: list[dict], paper: dict, title: str) -> str:
    lines = [
        f"## {title}",
        "",
        "| circuit | start | QBP final | (-%) | cpu(s) | GFM final | (-%) | cpu(s) | GKL final | (-%) | cpu(s) | feasible |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        cells = "".join(
            "| {cost:.0f} | {improvement:.1f} | {cpu:.1f} ".format(
                **row["solvers"][method]
            )
            for method in METHODS
        )
        lines.append(
            f"| {row['name']} | {row['start_cost']:.0f} {cells}"
            f"| {'yes' if row['all_feasible'] else 'NO'} |"
        )
        p = paper[row["name"]]
        lines.append(
            "| *(paper)* | *{start}* | *{qc}* | *{qi}* | *{qt}* "
            "| *{gc}* | *{gi}* | *{gt}* | *{kc}* | *{ki}* | *{kt}* | *yes* |".format(
                start=p.start,
                qc=p.qbp.final, qi=p.qbp.improvement_percent, qt=p.qbp.cpu_seconds,
                gc=p.gfm.final, gi=p.gfm.improvement_percent, gt=p.gfm.cpu_seconds,
                kc=p.gkl.final, ki=p.gkl.improvement_percent, kt=p.gkl.cpu_seconds,
            )
        )
    return "\n".join(lines)


def shape_analysis(rows2: list[dict], rows3: list[dict]) -> str:
    def total(rows, method, kind):
        return sum(r["solvers"][method][kind] for r in rows)

    def mean(rows, method, kind):
        return total(rows, method, kind) / len(rows)

    def wins(rows):
        counts = dict.fromkeys(METHODS, 0)
        for r in rows:
            best = min(METHODS, key=lambda method: r["solvers"][method]["cost"])
            counts[best] += 1
        return counts

    lines = ["## Shape analysis (measured)", ""]
    for label, rows in (("Table II", rows2), ("Table III", rows3)):
        w = wins(rows)
        lines.append(
            f"* **{label}** mean improvements: "
            f"QBP {mean(rows, 'qbp', 'improvement'):.1f}%, "
            f"GFM {mean(rows, 'gfm', 'improvement'):.1f}%, "
            f"GKL {mean(rows, 'gkl', 'improvement'):.1f}%; "
            f"best-quality wins: QBP {w['qbp']}, GFM {w['gfm']}, GKL {w['gkl']}."
        )
        lines.append(
            f"  Mean CPU: QBP {mean(rows, 'qbp', 'cpu'):.1f}s, "
            f"GFM {mean(rows, 'gfm', 'cpu'):.1f}s, GKL {mean(rows, 'gkl', 'cpu'):.1f}s."
        )
    drop_qbp, drop_gfm, drop_gkl = (
        (total(rows2, method, "improvement") - total(rows3, method, "improvement"))
        / len(rows2)
        for method in METHODS
    )
    lines.append(
        f"* Improvement drop under timing (II → III): QBP {drop_qbp:.1f} points, "
        f"GFM {drop_gfm:.1f}, GKL {drop_gkl:.1f}."
    )
    feasible = all(r["all_feasible"] for r in rows2 + rows3)
    lines.append(
        f"* Every reported solution violation-free: {'yes' if feasible else 'NO'}."
    )
    return "\n".join(lines)


def main() -> int:
    results_path = Path(sys.argv[1] if len(sys.argv) > 1 else "full_results.json")
    doc_path = Path(sys.argv[2] if len(sys.argv) > 2 else "EXPERIMENTS.md")
    payload = json.loads(results_path.read_text())
    rows2, rows3 = payload["table2"], payload["table3"]

    block = "\n\n".join(
        [
            BEGIN,
            render_measured_table(
                rows2, PAPER_TABLE2, "Table II — without timing constraints (measured vs paper)"
            ),
            render_measured_table(
                rows3, PAPER_TABLE3, "Table III — with timing constraints (measured vs paper)"
            ),
            shape_analysis(rows2, rows3),
            END,
        ]
    )
    text = doc_path.read_text()
    before = text.split(BEGIN)[0]
    after = text.split(END)[1]
    doc_path.write_text(before + block + after)
    print(f"updated {doc_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
