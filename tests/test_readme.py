"""The README's code runs as written."""

import re
from pathlib import Path

from helpers import dataset_from_arrays, noisy_nonlinear_dataset, write_dataset_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
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
