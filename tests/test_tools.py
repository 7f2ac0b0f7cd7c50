import subprocess
import sys

from conftest import ROOT


def test_ab_of_a_checkout_against_itself_reports_identical_outputs():
    # an A/A run: the checkout's library loaded a second time under another
    # package name gives the same bits on every evaluate, price and set-up
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), "--shape", "2", "2",
         "linear", "--calls", "4", "--no-gc"],
        capture_output=True, text=True, check=True, timeout=120).stdout.splitlines()
    assert out[0].endswith("seed 1 gc off")
    assert [line.split(":")[0] for line in out[1:]] == ["evaluate", "price", "setup"]
    # 3 evaluates, a price and a set-up per round
    assert " of 12 outputs" in out[1] and " of 4 outputs" in out[2] and " of 4 outputs" in out[3]
    assert all(line.endswith("outputs identical") for line in out[1:])


def test_ab_of_several_workloads_prints_a_block_per_workload():
    # one command sizes a change on every workload named: a header naming
    # the workload, then its evaluate, price and set-up lines, in the order
    # given
    names = ["wide-fan", "deep-binary", "polyhedral-report"]
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), "--workload", *names,
         "--calls", "2", "--no-gc"],
        capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    assert len(out) == 4 * len(names)
    for name, (head, evaluate, price, setup) in zip(names, zip(*[iter(out)] * 4)):
        assert f" workload {name} shape Shape(" in head and head.endswith("seed 1 gc off")
        assert evaluate.startswith("evaluate:") and " of 6 outputs identical" in evaluate
        assert price.startswith("price:") and price.endswith(" of 2 outputs identical")
        assert setup.startswith("setup:") and setup.endswith(" of 2 outputs identical")


def test_same_answers_is_deterministic_and_covers_every_stream():
    # one digest per workload's plain and interleaved streams, then the
    # reports; a second run in a new process prints the same lines
    def run():
        return subprocess.run(
            [sys.executable, str(ROOT / "tools" / "same_answers.py"), "--seeds", "1",
             "--payoffs", "2"],
            capture_output=True, text=True, check=True, timeout=120).stdout.splitlines()

    first = run()
    names = [line.rsplit(" ", 1)[0] for line in first]
    assert names == [f"{name} seed 1{kind}" for name in
                     ("deep-binary", "polyhedral-report", "wide-fan")
                     for kind in ("", " interleaved")] + ["reports"]
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in first)   # SHA-256 hex
    assert run() == first


def test_ab_reports_of_a_checkout_against_itself_are_identical():
    # one report per fixture, the golden tree and the generated scenario,
    # each the same bytes from the library loaded under another name
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), "--reports", "--calls", "1"],
        capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    assert out[0].endswith("reports of 7 inputs seed 1 gc on")
    assert [line.split(":")[0] for line in out[1:]] == [
        "fix_a.json", "fix_b.json", "fix_c_linear.json", "fix_c_restricted.json",
        "fix_refine.json", "polyhedral_tree.json", "polyhedral-report-1.json"]
    assert all(line.endswith(" of 1 outputs identical") for line in out[1:])
