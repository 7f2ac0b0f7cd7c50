"""In-process A/B timing of this checkout's library against another checkout's.

    python3 tools/ab.py BASE [--workload deep-binary [wide-fan ...] | --shape 2 6 linear]
                        [--calls 200] [--no-gc]
    python3 tools/ab.py BASE --reports [--calls 20] [--no-gc]

BASE is the root of the other checkout. Its ``src/sandwichext`` is loaded
under a second package name, and ``bench/treegen.py`` builds the same system
(seed ``SEED``) in both packages, of a ``bench/run.py`` workload's shape or
of ``--shape``. ``--workload`` takes one or more names; each workload is
timed in turn and gets a header line and a block of lines of its own. Each
round takes ``EVALS`` evaluates and then one price of the (0, T) pair on
fresh seeded payoffs, and then one set-up: the operation ``bench/run.py``'s
``setup_s`` times, the generated arrays (or, for a workload that reports on
its scenario, that scenario file) to a new extended system. Every call runs
in both packages, the base first on the even calls of its kind and this
checkout first on the odd ones, timed by ``time.perf_counter``; ``--no-gc``
turns the garbage collector off while it runs. Per kind of call the tool
prints the mean and the median of the per-call ratios (this checkout over
the base), how many calls this checkout won, and whether every output
(values; densities and penalties of prices; for set-ups, the values of one
untimed evaluate on the new system) was bit-identical. One BLAS thread, as
in the benchmark.

With ``--reports`` the calls are in-process ``sandwich report`` runs
(``SANDWICH_SEED`` 0, as in the benchmark), ``--calls`` rounds of one per
input: every fixture, ``tests/golden/polyhedral_tree.json`` and the
polyhedral-report workload's generated scenario at seed ``SEED``. The order
alternates per round as above, and the lines are per input, the outputs
being the exit status and the text and JSON report bytes.
"""

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import pathlib
import statistics
import sys
import tempfile
import time

# one BLAS thread and the report seed, as in the benchmark; before numpy loads
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                  SANDWICH_SEED="0")
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
    importlib.import_module(f"{name}.cli")
    return module


def calls(shape, rounds: int):
    """(kind, payoff) per call: ``EVALS`` evaluates, then one price, then one
    set-up with payoff None, per round."""
    rng = np.random.default_rng([SEED, 2])
    for _ in range(rounds):
        for kind in ["evaluate"] * EVALS + ["price"]:
            yield kind, rng.normal(0.0, 1.0, shape.n_atoms)
        yield "setup", None


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


def setup(sx, source, T: int) -> tuple[float, bytes]:
    """Seconds of one set-up from ``source``, a scenario file or a treegen
    spec, and the values of one evaluate on the system it built, as bytes."""
    start = time.perf_counter()
    if isinstance(source, pathlib.Path):
        ext = sx.extend_system(sx.load_scenario(source).system)
    else:
        ext = sx.extend_system(treegen.build_system(sx, source))
    seconds = time.perf_counter() - start
    x = np.random.default_rng([SEED, 3]).normal(0.0, 1.0, ext.space.n_atoms)
    return seconds, ext.evaluate(0, T, ext.space.rv(x, T)).values.tobytes()


def report(sx, path: pathlib.Path, out_file: pathlib.Path) -> tuple[float, bytes]:
    """Seconds of one in-process ``sandwich report`` on ``path`` and its exit
    status, text report and JSON report, as bytes."""
    text = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        rc = sx.cli.main(["report", "--input", str(path), "--output", str(out_file)])
    seconds = time.perf_counter() - start
    return seconds, f"{rc}\n{text.getvalue()}".encode() + out_file.read_bytes()


def timed(packages, runs, run) -> dict:
    """Per key of ``runs``, a sequence of (key, argument) pairs, the ratios of
    ``run(package, argument)``'s seconds, this checkout over the base, and
    whether every output was identical; the base runs first on the even runs
    of a key."""
    seconds, identical = {}, {}
    for key, arg in runs:
        ratios = seconds.setdefault(key, [])
        order = [0, 1] if len(ratios) % 2 == 0 else [1, 0]
        out = {side: run(packages[side], arg) for side in order}
        ratios.append(out[1][0] / out[0][0])
        identical[key] = identical.get(key, True) and out[0][1] == out[1][1]
    return {key: (ratios, identical[key]) for key, ratios in seconds.items()}


def sections(args, packages, tmp: pathlib.Path):
    """(header, runs, run) per block of lines: one per workload or for
    ``--shape``, or one for ``--reports``."""
    bench.OUT = tmp         # where a workload writes its scenario
    if args.reports:
        inputs = [*sorted(bench.FIXTURES.glob("*.json")),
                  ROOT / "tests" / "golden" / "polyhedral_tree.json",
                  bench.Bench("polyhedral-report", SEED).scenario_path]
        yield (f"reports of {len(inputs)} inputs",
               [(path.name, path) for _ in range(args.calls or 20) for path in inputs],
               lambda sx, path: report(sx, path, tmp / "report.json"))
        return
    if args.shape:
        shape = treegen.Shape(int(args.shape[0]), int(args.shape[1]), args.shape[2])
        spec, _, _ = treegen.accepted_system(bench.sx, shape, SEED)
        systems = [("", shape, spec, spec)]
    else:
        systems = []
        for name in args.workload:
            case = bench.Bench(name, SEED)      # the benchmark's system and set-up
            source = case.scenario_path if case.wl.scenario_report else case.spec
            systems.append((f"workload {name} ", case.wl.shape, case.spec, source))
    for label, shape, spec, source in systems:
        exts = {sx: sx.extend_system(treegen.build_system(sx, spec)) for sx in packages}

        def run(sx, kind_x, exts=exts, T=shape.T, source=source):
            kind, x = kind_x
            return setup(sx, source, T) if kind == "setup" else call(sx, exts[sx], kind, x, T)

        yield (f"{label}shape {shape}",
               [(kind, (kind, x)) for kind, x in calls(shape, args.calls or 200)], run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=pathlib.Path, help="root of the other checkout")
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--workload", nargs="+", choices=sorted(bench.WORKLOADS),
                       default=["deep-binary"])
    which.add_argument("--shape", nargs=3, metavar=("B", "T", "BOUNDS"))
    which.add_argument("--reports", action="store_true", help="time sandwich report instead")
    parser.add_argument("--calls", type=int, help="prices, or report rounds; rounds of calls "
                        "(default 200, or 20 with --reports)")
    parser.add_argument("--no-gc", action="store_true")
    args = parser.parse_args(argv)
    packages = [load_as(args.base.resolve(), "sandwichext_base"), bench.sx]
    with tempfile.TemporaryDirectory() as tmp:
        for head, runs, run in sections(args, packages, pathlib.Path(tmp)):
            gc.collect()
            if args.no_gc:
                gc.disable()
            results = timed(packages, runs, run)
            gc.enable()
            print(f"base {args.base} {head} seed {SEED} gc {'off' if args.no_gc else 'on'}")
            for key, (ratios, identical) in results.items():
                won = sum(r < 1.0 for r in ratios)
                print(f"{key}: mean ratio {statistics.fmean(ratios):.3f} median "
                      f"{statistics.median(ratios):.3f} won {won} of {len(ratios)} "
                      f"outputs {'identical' if identical else 'DIFFER'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
