"""scripts/kernel_times.py: one JSON line of per-row kernel times and the
per-problem time of one estimator call, per checkout."""

import importlib.util
import json
from pathlib import Path

from jspec.linmaps import _PEAK_FLOATS

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "scripts" / "kernel_times.py"
_SPEC = importlib.util.spec_from_file_location("kernel_times", _PATH)
kernel_times = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(kernel_times)


def test_one_algebra_both_sides(capsys):
    assert kernel_times.main(["--parent", str(_ROOT), "--change", str(_ROOT), "--reps", "1",
                              "--algebras", "rn:2,spin:3"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["reps"] == 1 and list(result["algebras"]) == ["rn:2,spin:3"]
    assert result["unit"]["estimate"] == "us per problem" and result["unit"]["decomp"] == "us per row"
    entry = result["algebras"]["rn:2,spin:3"]
    assert entry["rows"] == _PEAK_FLOATS // 5  # one _peak_stack block of a dim-5 algebra
    for side in ("parent", "change"):
        assert set(entry[side]) == {"decomp", "rebuild", "peak.p1", "peak.p4/3", "peak.pinf", "estimate"}
        assert all(v > 0.0 for v in entry[side].values())

    assert kernel_times.main(["--change", str(_ROOT), "--reps", "1", "--algebras", "rn:2"]) == 0
    entry = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["algebras"]["rn:2"]
    assert set(entry) == {"rows", "change"}  # --parent is optional
