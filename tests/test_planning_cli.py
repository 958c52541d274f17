"""The README's planning examples (``ad-mselect``, ``am-contour`` and
``invert``) run through ``cli.main`` against outputs recorded in
``tests/data``.  Headers and row labels must match exactly; each number
must agree within 1e-9 relative, so older NumPy and SciPy releases pass
too.  A deliberate change to a contour regenerates the recorded files."""

import json
import math
from pathlib import Path

import pytest

from dprep.cli import main

DATA = Path(__file__).parent / "data"

CONTOURS = {
    "readme_ad_mselect.csv": ["ad-mselect", "--gamma-grid=-500:1500:9", "--m-grid", "5:90:18",
                              "--sigma-o", "97", "--n0", "154442", "--N", "160364",
                              "--epsilon", "1", "--region", "500:inf"],
    "readme_am_contour.csv": ["am-contour", "--gamma", "1010", "--sigma", "790", "--corr", "0.95",
                              "--diff-grid", "0:1.5:7", "--ratio-grid", "0.8,1.0,1.25"],
}


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0)


@pytest.mark.parametrize("name", sorted(CONTOURS))
def test_readme_contour_matches_the_recorded_csv(tmp_path, capsys, name):
    out = tmp_path / name
    assert main([*CONTOURS[name], "--out", str(out)]) == 0
    got = out.read_text(encoding="utf-8").splitlines()
    want = (DATA / name).read_text(encoding="utf-8").splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        (got_label, *got_cells), (want_label, *want_cells) = (row.split(",") for row in
                                                               (got_row, want_row))
        assert got_label == want_label and len(got_cells) == len(want_cells)
        assert all(_close(float(g), float(w)) for g, w in zip(got_cells, want_cells))
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"out": str(out), "cells": (len(want) - 1) * (len(want[0].split(",")) - 1)}


def test_readme_invert_matches_the_recorded_output(capsys):
    assert main(["invert", "--nu-ci", "0.878,0.998", "--sigma-o", "177", "--n0", "160364",
                 "--n", "6414"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / "readme_invert.json").read_text(encoding="utf-8"))
    assert list(got) == list(want)
    for key in want:
        got_values, want_values = ([v] if isinstance(v, float) else v
                                   for v in (got[key], want[key]))
        assert len(got_values) == len(want_values), key
        assert all(map(_close, got_values, want_values)), key
