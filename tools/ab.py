"""In-process A/B timing of this checkout's library against another checkout's.

    python3 tools/ab.py BASE [--workload deep-binary | --shape 2 6 linear]
                        [--calls 200] [--no-gc]

BASE is the root of the other checkout. Its ``src/sandwichext`` is loaded
under a second package name, and ``bench/treegen.py`` builds the same system
(seed ``SEED``) in both packages, of a ``bench/run.py`` workload's shape or
of ``--shape``. Each round takes ``EVALS`` evaluates and then one price of
the (0, T) pair on fresh seeded payoffs. Every call runs on both extensions,
the base first on the even calls of its kind and this checkout first on the
odd ones, timed by ``time.perf_counter``; ``--no-gc`` turns the garbage
collector off while it runs. Per kind of call the tool prints the mean and
the median of the per-call ratios (this checkout over the base), how many
calls this checkout won, and whether every output (values; densities and
penalties of prices) was bit-identical. One BLAS thread, as in the
benchmark.
"""

import argparse
import gc
import importlib.util
import os
import pathlib
import statistics
import sys
import time

# one BLAS thread, as in the benchmark; before numpy loads
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
bench = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)   # imports this checkout's library as ``bench.sx``
np, treegen = bench.np, bench.treegen
SEED = 1     # of the system and of the payoffs
EVALS = 3    # evaluates per price


def load_as(root: pathlib.Path, name: str):
    """The package under ``root/src/sandwichext``, imported as ``name``."""
    where = root / "src" / "sandwichext"
    spec = importlib.util.spec_from_file_location(
        name, where / "__init__.py", submodule_search_locations=[str(where)])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def calls(shape, rounds: int):
    """(kind, payoff) per call: ``EVALS`` evaluates, then one price, per round."""
    rng = np.random.default_rng([SEED, 2])
    for _ in range(rounds):
        for kind in ["evaluate"] * EVALS + ["price"]:
            yield kind, rng.normal(0.0, 1.0, shape.n_atoms)


def call(sx, ext, kind: str, x: np.ndarray, T: int) -> tuple[float, bytes]:
    """Seconds of one call of ``kind`` on ``ext`` and its output's bytes."""
    X = ext.space.rv(x, T)
    start = time.perf_counter()
    if kind == "evaluate":
        parts = [ext.evaluate(0, T, X).values]
    else:
        res = sx.price(ext, 0, T, X)
        parts = [res.value.values, res.density.values, res.penalty.by_block]
    seconds = time.perf_counter() - start
    return seconds, b"".join(part.tobytes() for part in parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=pathlib.Path, help="root of the other checkout")
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--workload", choices=sorted(bench.WORKLOADS), default="deep-binary")
    which.add_argument("--shape", nargs=3, metavar=("B", "T", "BOUNDS"))
    parser.add_argument("--calls", type=int, default=200, help="prices; rounds of calls")
    parser.add_argument("--no-gc", action="store_true")
    args = parser.parse_args(argv)
    shape = (bench.WORKLOADS[args.workload].shape if args.shape is None else
             treegen.Shape(int(args.shape[0]), int(args.shape[1]), args.shape[2]))
    T = shape.T
    spec, _, _ = treegen.accepted_system(bench.sx, shape, SEED)
    packages = [load_as(args.base.resolve(), "sandwichext_base"), bench.sx]
    exts = [sx.extend_system(treegen.build_system(sx, spec)) for sx in packages]
    seconds = {"evaluate": [], "price": []}
    identical = {"evaluate": True, "price": True}
    gc.collect()
    if args.no_gc:
        gc.disable()
    for kind, x in calls(shape, args.calls):
        # the order flips per kind: flipped per call, every price would run in one order
        order = [0, 1] if len(seconds[kind]) % 2 == 0 else [1, 0]
        out = {side: call(packages[side], exts[side], kind, x, T) for side in order}
        seconds[kind].append(out[1][0] / out[0][0])
        identical[kind] &= out[0][1] == out[1][1]
    gc.enable()
    print(f"base {args.base} shape {shape} seed {SEED} gc {'off' if args.no_gc else 'on'}")
    for kind, ratios in seconds.items():
        won = sum(r < 1.0 for r in ratios)
        print(f"{kind}: mean ratio {statistics.fmean(ratios):.3f} median "
              f"{statistics.median(ratios):.3f} won {won} of {len(ratios)} "
              f"outputs {'identical' if identical[kind] else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
