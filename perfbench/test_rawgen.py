"""The raw generator's table is what ``trenchrank ingest`` builds from its CSVs."""

import collections
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import rawgen  # noqa: E402
from trenchrank import cli  # noqa: E402


def test_ingest_reproduces_generated_table(tmp_path, capsys):
    info = rawgen.generate(tmp_path, seed=11, n_games=2, plays_per_game=60)
    paths = info["paths"]
    out = tmp_path / "ingested.csv"
    argv = ["ingest"] + [
        arg for name in ("tracking", "events", "engagements", "schedule")
        for arg in (f"--{name}", paths[name])
    ] + ["--out", str(out)]
    assert cli.main(argv) == 0

    expected = rawgen.read_rows(paths["expected"])
    assert rawgen.read_rows(out) == expected

    # the world exercises every labeled case it claims to
    for case in ("sequential_pairs", "touching_pairs", "missed_horizon", "tie_frames"):
        assert info[case] > 0, case
    assert info["engagements"] > info["interactions"]  # non-dropback plays dropped
    severities = collections.Counter(row[8] for row in expected)
    assert set(severities) == {"loss", "win", "hit", "sack"}
    assert {row[6] for row in expected} == {"0", "1"}
