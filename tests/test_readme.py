"""The README's code runs as written."""

import re
from pathlib import Path

import pytest

from tabdistill import cli

from helpers import (
    dataset_from_arrays,
    noisy_nonlinear_dataset,
    readme_quick_start,
    write_dataset_csv,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start(tmp_path, monkeypatch, capsys):
    code = readme_quick_start()
    ds = noisy_nonlinear_dataset(600, seed=5)
    features = dict(zip((c.name for c in ds.schema.feature_columns), ds.feature_arrays))
    write_dataset_csv(dataset_from_arrays(features, ds.labels, label_column="clicked"),
                      tmp_path / "train.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["ensemble", "final"]
    for line in printed:
        assert 0.5 < float(line.split()[1]) <= 1.0


# the first word each exit code's description starts with, in both texts
EXIT_WORDS = {"EXIT_OK": ("ok", "success"), "EXIT_USAGE": ("usage",),
              "EXIT_DATA": ("data",), "EXIT_TRAINING": ("training",),
              "EXIT_VERIFICATION": ("verification",)}


@pytest.mark.parametrize("text", [
    pytest.param(README.read_text(encoding="utf-8"), id="readme"),
    pytest.param(cli.__doc__, id="cli-docstring"),
])
def test_exit_codes_match_the_cli_constants(text):
    sentence = re.search(r"Exit codes:(.*?)\.", " ".join(text.split())).group(1)
    listed = {int(code): words.split()[0]
              for code, words in re.findall(r"(\d+) ([a-z ]+)", sentence)}
    constants = {name: getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}
    assert set(constants) == set(EXIT_WORDS)
    assert sorted(listed) == sorted(constants.values())
    for name, code in constants.items():
        assert listed[code] in EXIT_WORDS[name], (name, code, sentence)
