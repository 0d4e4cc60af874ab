"""Render the two scatter figures from the bundled dataset into ./figures/.

figure1.svg shows the counted results; figure2.svg shows the counterfactual
where half the official margin (rounded up) has been reassigned to candidate
1 across the contested districts.  Both go through the CLI's ``plot`` command;
the number of votes to move is what ``scenario`` moves by default.

Run from the repository root:  python3 scripts/make_figures.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mvaudit.cli import main as cli_main  # noqa: E402
from mvaudit.fixtures import fixture_path  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent.parent / "figures"


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    fixture = str(fixture_path())
    summary = io.StringIO()
    with redirect_stdout(summary):
        code = cli_main(["scenario", fixture, "--json"])
    if code != 0:
        sys.stderr.write(summary.getvalue())
        return code
    votes = json.loads(summary.getvalue())["votes_moved_total"]
    for name, moved in (("figure1.svg", []), ("figure2.svg", ["--votes", str(votes)])):
        code = cli_main(["plot", fixture, *moved, "--out", str(OUT_DIR / name)])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
