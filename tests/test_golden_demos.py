"""Golden demo output: every demo under `demos/` must keep printing its bytes.

`golden_demos.json` maps each Python demo to its stdout.  Each demo runs
in its own interpreter with warnings as errors, as a reader would run it.

Regenerate (only when a demo's output is meant to change) with

    PYTHONPATH=src python tests/test_golden_demos.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_demos.json")
DEMOS = Path(__file__).resolve().parents[1] / "demos"
NAMES = ("groupoids_up_to_morita", "invert_an_arrow", "parity_survives")


def demo_output(name: str) -> str:
    proc = subprocess.run([sys.executable, "-W", "error", str(DEMOS / f"{name}.py")],
                          capture_output=True, text=True, check=True)
    return proc.stdout


@pytest.mark.parametrize("name", NAMES)
def test_demo_prints_the_golden_output(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(NAMES)
    assert demo_output(name) == golden[name]


if __name__ == "__main__":
    entries = {name: demo_output(name) for name in NAMES}
    GOLDEN.write_text(json.dumps(entries, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    sys.stdout.write(f"wrote {len(entries)} demo outputs to {GOLDEN}\n")
