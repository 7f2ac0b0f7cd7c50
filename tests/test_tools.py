import subprocess
import sys

from conftest import ROOT


def test_ab_of_a_checkout_against_itself_reports_identical_outputs():
    # an A/A run: the checkout's library loaded a second time under another
    # package name gives the same bits on every evaluate and price
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), "--shape", "2", "2",
         "linear", "--calls", "4", "--no-gc"],
        capture_output=True, text=True, check=True, timeout=120).stdout.splitlines()
    assert out[0].endswith("seed 1 gc off")
    assert [line.split(":")[0] for line in out[1:]] == ["evaluate", "price"]
    assert " of 12 outputs" in out[1] and " of 4 outputs" in out[2]   # 3 evaluates a price
    assert all(line.endswith("outputs identical") for line in out[1:])
