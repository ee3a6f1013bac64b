"""The committed figures are pinned: RESULTS.txt is the scale-1.0 report.

A change that moves any printed number of Tables 2-3 or Figures 8-11
fails here until RESULTS.txt is regenerated on purpose with
``python examples/run_paper_experiments.py 1.0`` (or
``python -m repro report --scale 1.0 -o RESULTS.txt``) and the move is
explained in CHANGES.md.
"""

from pathlib import Path

from repro.experiments import ExperimentSuite, render_all

RESULTS = Path(__file__).resolve().parents[2] / "RESULTS.txt"


def test_results_txt_is_a_fresh_scale_one_report():
    fresh = render_all(ExperimentSuite(scale=1.0)) + "\n"
    assert fresh == RESULTS.read_text()
