"""Check that mvaudit reads and reports alike under several Python interpreters.

Each interpreter needs only the standard library: analyze, validate and
scenario never import numpy.  For every CSV file given, the commands

    analyze --json, analyze --include-dubious --level 0.99 --json,
    validate --json, scenario --json

run under each interpreter with src/ on the path, and their output must be
byte-identical to the first interpreter's.  Then each interpreter parses a
seeded corpus twice: as ``parse_dataset`` reads them, and with the csv.reader
path forced.  Both must give the same dataset, or a ParseError with the same
line and reason.  Half the corpus is texts built from ``CSV_CHARS`` of
tests/test_data.py, which rarely parse; the other half is seeded valid
datasets as csv.writer writes them, most changed lightly, so that most of
them parse with rows.  Some parsed dataset must have a row.
Each dataset parsed, and a seeded set of datasets whose ids and names often
need quoting, is written with ``serialize_dataset``: the text must parse to
the same dataset and, when no field holds CR (which csv.writer quotes only
from Python 3.13 on), equal this version's csv.writer output.

Run from the repository root:

    python3 scripts/check_python_versions.py python3.11 python3.10 python3.12 \\
        python3.13 -- src/mvaudit/fixtures/austria2016.csv precincts.csv
"""

from __future__ import annotations

import ast
import csv
import io
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = (
    ["analyze", "--json"],
    ["analyze", "--include-dubious", "--level", "0.99", "--json"],
    ["validate", "--json"],
    ["scenario", "--json"],
)
CORPUS_SIZE = 6000
# line breaks of str.splitlines that csv.reader reads as plain characters
SPLITLINES_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
TOKENS = ("0", "7", " 12 ", "", "d1", "green", "red", "dubious")
# characters that make csv.writer quote, and blanks; csv.reader reads NUL from Python 3.11 on
QUOTED_CHARS = ',"\r\n \ta' + ("\x00" if sys.version_info >= (3, 11) else "")


def csv_chars() -> str:
    """CSV_CHARS of tests/test_data.py, read without importing pytest."""
    tree = ast.parse((ROOT / "tests" / "test_data.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CSV_CHARS"]:
            return ast.literal_eval(node.value)
    raise LookupError("CSV_CHARS not found in tests/test_data.py")


def corpus(chars: str, size: int) -> list[str]:
    """Headers and rows of mostly seven fields; three in four texts avoid quote, CR and NUL."""
    from mvaudit.data import HEADER

    rng = random.Random(20160522)
    texts = []
    for _ in range(size):
        plain = rng.random() < 0.75
        alphabet = [c for c in chars if c not in ',\n' and not (plain and c in '"\r\x00')]
        alphabet += SPLITLINES_BREAKS
        lines = [",".join(HEADER)]
        for _ in range(rng.randrange(7)):
            width = rng.choice([7] * 8 + [6, 8, 13])
            fields = [
                rng.choice(TOKENS) if rng.random() < 0.6
                else "".join(rng.choices(alphabet, k=rng.randrange(4)))
                for _ in range(width)
            ]
            lines.append(",".join(fields) if rng.random() < 0.9 else "")
        texts.append("\n".join(lines) + rng.choice(["", "\n"]))
    return texts


def written_corpus(size: int, seed: int = 4242) -> list:
    """Datasets of up to six rows; ids and names are plain or mix in QUOTED_CHARS."""
    from mvaudit.data import STATUSES, ElectionDataset

    rng = random.Random(seed)

    def text(plain: str) -> str:
        mixed = "".join(rng.choices(QUOTED_CHARS, k=rng.randrange(5)))
        return (plain if rng.random() < 0.5 else plain + mixed).strip()

    datasets = []
    for _ in range(size):
        rows = []
        for i in range(rng.randrange(7)):
            total, mail = rng.randrange(1000), rng.randrange(300)
            counts = (total, rng.randrange(total + 1), mail, rng.randrange(mail + 1))
            rows.append((text(f"d{i}:"), text(f"Name {i}"), *counts, rng.choice(STATUSES)))
        datasets.append(ElectionDataset(*zip(*rows)) if rows else ElectionDataset(*[()] * 7))
    return datasets


def mutated_corpus(chars: str, size: int) -> list[str]:
    """Seeded valid datasets as csv.writer writes them, each left as it is or
    given one light change, which it may not survive."""
    from mvaudit.data import HEADER

    rng = random.Random(1605)
    alphabet = chars + SPLITLINES_BREAKS
    texts = []
    for ds in written_corpus(size, seed=1605):
        rows = [list(row) for row in zip(*(getattr(ds, column) for column in HEADER))]
        change = rng.randrange(8)
        if rows and change == 1:  # blanks around a count
            row = rng.choice(rows)
            column = rng.randrange(2, 6)
            row[column] = f" {row[column]} "
        elif rows and change == 2:  # one field replaced
            row = rng.choice(rows)
            row[rng.randrange(len(row))] = rng.choice(TOKENS)
        elif rows and change == 3:  # a row repeated
            rows.append(list(rng.choice(rows)))
        text = writer_text([HEADER, *rows])
        if change == 4:
            text = text.replace("\n", "\r\n")
        elif change == 5:
            text = text.rstrip("\n")
        elif change == 6:  # one character replaced
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(alphabet) + text[i + 1 :]
        texts.append(text)
    return texts


def writer_text(rows) -> str:
    """The rows as this version's csv.writer writes them, with LF line ends."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def check_corpus(size: int) -> int:
    """Parse the corpus with and without the split path and write back what parses;
    0 when both reads agree and every written text reads back as it should."""
    from mvaudit import data

    def outcome(text):
        try:
            return data.parse_dataset(text)
        except data.ParseError as exc:
            return exc.line, exc.reason

    def written_wrong(ds):
        text = data.serialize_dataset(ds)
        if outcome(text) != ds:
            return True
        if any("\r" in field for field in (*ds.district_id, *ds.name, *ds.status)):
            return False
        columns = (getattr(ds, column) for column in data.HEADER)
        return text != writer_text([data.HEADER, *zip(*columns)])

    chars = csv_chars()
    texts = corpus(chars, size // 2) + mutated_corpus(chars, size - size // 2)
    split = [outcome(text) for text in texts]
    split_read = sum(data._split_fields(text) is not None for text in texts)
    parsed = [ds for ds in split if isinstance(ds, data.ElectionDataset)]
    with_rows = sum(len(ds) > 0 for ds in parsed)
    parsed += written_corpus(size // 10)
    wrong = [ds for ds in parsed if written_wrong(ds)]
    data._split_fields = lambda text: None
    differ = [text for text, got in zip(texts, split) if outcome(text) != got]
    print(f"{sys.version.split()[0]}: {len(texts)} texts, {split_read} read by splitting, "
          f"{with_rows} parsed with rows, {len(differ)} read differently by csv.reader; "
          f"{len(parsed)} datasets written, {len(wrong)} written wrongly")
    for text in differ[:5]:
        print(f"  {text!r}")
    for ds in wrong[:5]:
        print(f"  {ds!r}")
    return 1 if differ or wrong or not with_rows else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--corpus"]:
        return check_corpus(int(argv[1]))
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    pythons, files = argv[:split], argv[split + 1 :]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failed = 0
    for path in files:
        for command in COMMANDS:
            argv_ = [command[0], path, *command[1:]]
            outputs = [
                subprocess.run([py, "-m", "mvaudit.cli", *argv_], env=env, capture_output=True,
                               check=True).stdout
                for py in pythons
            ]
            differ = [py for py, out in zip(pythons, outputs) if out != outputs[0]]
            failed += bool(differ)
            print(f"{' '.join(argv_)}: {len(outputs[0])} bytes, "
                  f"{'differs under ' + ', '.join(differ) if differ else 'identical'}")
    for py in pythons:
        failed += subprocess.run([py, __file__, "--corpus", str(CORPUS_SIZE)], env=env).returncode
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
