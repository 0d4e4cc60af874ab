"""Render the two scatter figures from the bundled dataset into ./figures/.

figure1.svg shows the counted results; figure2.svg shows the counterfactual
where half the official margin (rounded up) has been reassigned to candidate
1 across the contested districts.

Run from the repository root:  python3 scripts/make_figures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mvaudit.data import half_margin  # noqa: E402
from mvaudit.fixtures import load_fixture  # noqa: E402
from mvaudit.scenario import build_reversal_scenario  # noqa: E402
from mvaudit.svgplot import render_scatter  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent.parent / "figures"


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    ds = load_fixture()
    (OUT_DIR / "figure1.svg").write_text(
        render_scatter(ds, title="Mail vs ballot vote shares - official results"),
        encoding="utf-8",
    )
    _, red = ds.split()
    votes = half_margin(ds.margin_official)
    modified = build_reversal_scenario(ds, red, votes).modified
    (OUT_DIR / "figure2.svg").write_text(
        render_scatter(modified, title="Mail vs ballot vote shares - modified results"),
        encoding="utf-8",
    )
    print(f"wrote {OUT_DIR}/figure1.svg and figure2.svg (moved {votes} votes)")


if __name__ == "__main__":
    main()
