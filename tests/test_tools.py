"""The claim script ``tools/pairs.py``, without running any benchmark."""

import runpy
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_pairs_needs_two_pairs_before_any_run(pairs, tmp_path, capsys):
    script = runpy.run_path(str(PAIRS))

    def run_once(*_):
        raise AssertionError("a benchmark run was started")

    script["main"].__globals__["run_once"] = run_once
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        script["main"]([str(tmp_path), str(tmp_path), "--workload", "scan-mixed",
                        "--pairs", pairs, "--seed", "1", "--out", str(out)])
    assert exit_.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not out.exists()
