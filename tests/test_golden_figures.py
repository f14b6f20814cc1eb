"""Golden regression test for the Figure 7-9 and accuracy-sweep rows.

The fixture pins every row the figure drivers return on small
Monte-Carlo sizes -- weak scaling on every engine tier, Figure 8, the
Figure-9 grid and both one-dimensional sweeps, and the simulated
accuracy column -- value for value and in column order, so a change in
how the figures are executed cannot move a printed number.

Regenerate deliberately with ``python tests/golden/regenerate.py
figures`` after an intended semantics change.
"""

from __future__ import annotations

import json

import pytest

from golden_util import compute_figures_golden, load_figures_golden

GOLDEN = load_figures_golden()


@pytest.fixture(scope="module")
def computed():
    # A JSON round trip is exact for floats and turns tuples into lists,
    # exactly as the fixture was written.
    return json.loads(json.dumps(compute_figures_golden()))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_rows_match_fixture(computed, case):
    rows, want = computed[case], GOLDEN[case]
    assert len(rows) == len(want), case
    for i, (row, exp) in enumerate(zip(rows, want)):
        assert list(row.items()) == list(exp.items()), f"{case} row {i}"


def test_fixture_covers_every_case(computed):
    assert sorted(computed) == sorted(GOLDEN)
