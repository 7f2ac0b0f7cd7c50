"""SHA-256 digests of the library's answers, to check two checkouts bit for bit.

    python3 tools/same_answers.py [--seeds 1 2 3] [--payoffs 40]

Run it in each checkout and compare the lines. Per benchmark workload and
seed, a digest covers the first ``--payoffs`` outputs of the benchmark's
evaluate stream (values) and price stream (values, densities, penalties),
and on polyhedral-report the ``sandwich report`` bytes of the generated
scenario. A second digest, ``interleaved``, covers as many evaluates and
prices taken in turn on a fresh set-up, the order in which the timed
benchmark mixes them, so the basis tables are live while it prices. The
last covers the report bytes of every fixture and
``tests/golden/polyhedral_tree.json``. ``bench/run.py`` is used as it is.
"""

import argparse
import hashlib
import importlib.util
import os
import pathlib
import sys

# one BLAS thread and the report seed, as in the benchmark; before numpy loads
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                  SANDWICH_SEED="0")
ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
run = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def reports(bench, inputs) -> bytes:
    """The text and JSON bytes of one ``sandwich report`` per input."""
    return repr(bench._report_round("same-answers", inputs)[1]).encode()


def digest(bench, payoffs: int, interleaved: bool = False) -> str:
    """The evaluate stream's first ``payoffs`` outputs, then the price
    stream's; or, ``interleaved``, one evaluate and one price in turn."""
    out, ext, T = hashlib.sha256(), bench.setup(), bench.T
    evals, prices = bench.stream("evaluate"), bench.stream("price")

    def evaluate():
        out.update(ext.evaluate(0, T, ext.space.rv(next(evals), T)).values.tobytes())

    def price():
        res = run.sx.price(ext, 0, T, ext.space.rv(next(prices), T))
        for part in (res.value.values, res.density.values, res.penalty.by_block):
            out.update(part.tobytes())

    for op in ([evaluate, price] * payoffs if interleaved else
               [evaluate] * payoffs + [price] * payoffs):
        op()
    if bench.wl.scenario_report and not interleaved:
        out.update(reports(bench, [bench.scenario_path]))
    return out.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--payoffs", type=int, default=40)
    args = parser.parse_args()
    run.OUT.mkdir(exist_ok=True)
    for name in sorted(run.WORKLOADS):
        for seed in args.seeds:
            bench = run.Bench(name, seed)
            print(f"{name} seed {seed} {digest(bench, args.payoffs)}")
            print(f"{name} seed {seed} interleaved {digest(bench, args.payoffs, True)}")
    inputs = [*sorted(run.FIXTURES.glob("*.json")), ROOT / "tests/golden/polyhedral_tree.json"]
    print(f"reports {hashlib.sha256(reports(bench, inputs)).hexdigest()}")
