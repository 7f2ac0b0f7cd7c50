"""End-to-end benchmark of sandwichext on seeded b-ary trees.

    python3 bench/run.py --workload deep-binary --seed 1 --seconds 24 --trace 0

Run from the repository root; the library is imported from ``src/``. Inputs
are generated from ``--seed`` by ``treegen``; the same seed gives the same
inputs. One process and one caller drive the library in a closed loop, with
BLAS pinned to one thread.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
three), report time (median of several rounds), and a price stream and an
evaluate stream that share ``--seconds`` between them, interleaved with the
report rounds. Latencies are kept in seconds and in ``ref`` units (see
``RefClock``). Every answer is then checked (price identity, evaluate
against price, cash additivity, identical and passing reports) and a
magnitude sweep prices a fixed set of payoffs scaled by 1e3 to 1e12; the
sweep's outcomes are reported on their own and stay out of the latencies and
of ``failed``.

``--trace 1`` runs a fixed list of operations (one set-up, one report round,
the first prices and evaluates of the same streams) twice, first untraced
and then with the spans of ``spans.Tracer``, and prints the per-layer
metrics. The list is fixed so that its counts repeat exactly; it does not
depend on ``--seconds``. The tracing overhead is the traced pass's wall time
minus the untraced pass's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit and sample count.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # one BLAS thread; this must precede the first numpy import
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import pathlib
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
OUT = ROOT / ".bench_out"

WARMUP_EVALS = 3
CASH_SAMPLE = 5
SWEEP_BASES = 2
SWEEP_SCALES = (1e3, 1e6, 1e9, 1e12)
CHECK_RTOL = 1e-7       # answers are compared within CHECK_RTOL * max(1, max|X|)
P90_MIN_SAMPLES = 100
REF_EVERY_S = 0.1
REF_WINDOW = 3
SETUPS = 3              # set-ups in a timed run, one in each of the first rounds


def _import_library():
    if not (SRC / "sandwichext" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library source under {SRC}")
    if not FIXTURES.is_dir():
        raise SystemExit(f"bench: no fixtures directory at {FIXTURES}")
    sys.path.insert(0, str(SRC))
    import sandwichext
    here = pathlib.Path(sandwichext.__file__).resolve().parent
    if here != (SRC / "sandwichext").resolve():
        raise SystemExit(f"bench: imported sandwichext from {here}, not {SRC}")
    import sandwichext.cli  # noqa: F401  (traced and called as sx.cli.main)
    return sandwichext


sx = _import_library()
import numpy as np  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import spans  # noqa: E402
import treegen  # noqa: E402
from treegen import Shape  # noqa: E402


@dataclass(frozen=True)
class Workload:
    shape: Shape
    repeat_frac: float      # share of evaluate payoffs that repeat an earlier one
    eval_share: float       # share of --seconds given to the evaluate stream
    trace_evals: int        # evaluates in the traced run (and the RSS mark)
    trace_prices: int       # prices in the traced run
    scenario_report: bool   # report the generated scenario besides the fixtures
    rounds: int             # report rounds in a timed run


WORKLOADS = {
    "deep-binary": Workload(
        Shape(2, 6, "linear"), repeat_frac=0.25, eval_share=0.5,
        trace_evals=120, trace_prices=8, scenario_report=False, rounds=6),
    "wide-fan": Workload(
        Shape(12, 2, "linear"), repeat_frac=0.0, eval_share=0.35,
        trace_evals=60, trace_prices=3, scenario_report=False, rounds=6),
    "polyhedral-report": Workload(
        Shape(2, 3, "polyhedral", long_unit=True), repeat_frac=0.0,
        eval_share=0.5, trace_evals=400, trace_prices=20, scenario_report=True,
        rounds=3),
}


def scenario_tasks(T: int) -> list:
    return [
        {"command": "validate"},
        {"command": "extend"},
        {"command": "price", "from": 0, "to": T, "payoff": "target"},
        {"command": "check", "suite": "sandwich"},
        {"command": "check", "suite": "representation"},
        {"command": "check", "suite": "cocycle"},
        {"command": "check", "suite": "refine", "coarse_grid": [0, T]},
    ]


END_TO_END = ("setup_s", "evaluate_ref_p50", "price_ref_p50", "report_ref",
              "peak_rss_mb")
EXTRA_LAYER = ("trace.overhead_s", "trace.overhead_frac", "sweep.attempted",
               "sweep.failed", "ops_failed_frac", "treegen.rejected")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference() -> int:
    """A fixed computation that uses none of the library: interpreter loops
    and small numpy calls, the same mix the library's own work is made of.
    It takes about 2 ms on one 2.1 GHz Xeon vCPU."""
    acc = 0
    v = _REF_VECTOR
    for _ in range(90):
        v = np.sqrt(v * v + 1.0) - 0.5
        np.linalg.solve(np.outer(v[:6], v[:6]) + np.eye(6), v[:6])
    for i in range(4500):
        acc += i * i % 7
    return acc


_REF_VECTOR = np.linspace(0.0, 1.0, 64)


class RefClock:
    """Times operations in seconds and in ``ref`` units: multiples of the
    time the reference computation takes at the same moment.

    On a shared machine the speed of the whole process drifts by +-20% over
    tens of seconds, for the library's work and the reference computation
    alike, so the ratio of the two stays put while each drifts. The reference
    runs between operations at least every REF_EVERY_S and right after any
    operation that took longer; an operation's ``ref`` value divides its
    time by the median of the last REF_WINDOW reference times.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._last = -math.inf

    def _probe(self) -> None:
        t0 = time.perf_counter()
        _reference()
        self._last = time.perf_counter()
        self.probes.append(self._last - t0)

    def before(self) -> None:
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self._probe()

    def after(self, seconds: float) -> float:
        """The ``ref`` value of an operation that just took ``seconds``."""
        if seconds >= REF_EVERY_S:
            self._probe()
        return seconds / statistics.median(self.probes[-REF_WINDOW:])

    def run(self, timed_op, *args):
        """(result, (seconds, ref)) of ``timed_op(*args)``, which returns
        (result, seconds); (result, None) if it failed."""
        self.before()
        out, seconds = timed_op(*args)
        if seconds is None:
            return out, None
        return out, (seconds, self.after(seconds))


class PayoffStream:
    """Level-T payoffs from one seeded generator; a later payoff repeats an
    earlier one with probability ``repeat_frac``."""

    def __init__(self, seed: int, stream: int, n_atoms: int,
                 repeat_frac: float = 0.0):
        self.rng = np.random.default_rng([seed, stream])
        self.n_atoms = n_atoms
        self.repeat_frac = repeat_frac
        self.seen: list[np.ndarray] = []

    def __next__(self) -> np.ndarray:
        if self.seen and self.rng.random() < self.repeat_frac:
            return self.seen[int(self.rng.integers(0, len(self.seen)))]
        x = self.rng.normal(0.0, 1.0, self.n_atoms)
        if self.repeat_frac:
            self.seen.append(x)
        return x


def _tol(X: np.ndarray) -> float:
    return CHECK_RTOL * max(1.0, float(np.abs(X).max()))


def _price_ok(space, X: np.ndarray, result) -> bool:
    """value = E[f X | F_0] - penalty, recomputed from the returned parts."""
    expected = float(space.probs @ (result.density.values * X)) \
        - float(result.penalty.by_block[0])
    return abs(float(result.value.values[0]) - expected) <= _tol(X)


class Bench:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.wl = WORKLOADS[name]
        self.T = self.wl.shape.T
        self.n = self.wl.shape.n_atoms
        self.scenario_path = OUT / f"{name}-{seed}.json"
        self.report_inputs = sorted(FIXTURES.glob("*.json"))
        if self.wl.scenario_report:
            self.report_inputs.insert(0, self.scenario_path)
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.first_report = None
        self.spec, _, self.rejected = treegen.accepted_system(
            sx, self.wl.shape, seed,
            usable=self._scenario_reports if self.wl.scenario_report else None)

    # -- inputs --------------------------------------------------------------

    def stream(self, which: str) -> PayoffStream:
        index = {"warmup": 1, "evaluate": 2, "price": 3, "sweep": 4,
                 "target": 5}[which]
        rep = self.wl.repeat_frac if which == "evaluate" else 0.0
        return PayoffStream(self.seed, index, self.n, rep)

    def _scenario_reports(self, spec) -> bool:
        """Write the scenario for ``spec``; usable if its report passes."""
        doc = treegen.scenario_doc(spec, f"{self.name}-{self.seed}",
                                   scenario_tasks(self.T),
                                   {"target": next(self.stream("target"))})
        self.scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        return self._report_round("accept", [self.scenario_path])[0]

    # -- operations ----------------------------------------------------------

    def setup(self):
        """Arrays (or the scenario file) to a ready ExtendedSystem."""
        if self.wl.scenario_report:
            return sx.extend_system(sx.load_scenario(self.scenario_path).system)
        return sx.extend_system(treegen.build_system(sx, self.spec))

    def _report_round(self, tag: str, inputs, clock=None):
        """One in-process ``sandwich report`` per input.

        Returns (all passed, outputs, (seconds, ref)); outputs hold each
        input's text report and JSON report bytes. With a ``clock``, each
        report is normalized on its own and ref is their sum, else None.
        """
        raw = []
        seconds = ref = 0.0
        for path in inputs:
            out_file = OUT / f"{tag}-{path.stem}.json"
            text, err = io.StringIO(), io.StringIO()
            if clock is not None:
                clock.before()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
                rc = sx.cli.main(["report", "--input", str(path),
                                  "--output", str(out_file)])
            dt = time.perf_counter() - t0
            seconds += dt
            if clock is not None:
                ref += clock.after(dt)
            raw.append((path, out_file, rc, text, err))
        ok = True
        outputs = []
        for path, out_file, rc, text, err in raw:
            if rc != 0:
                ok = False
                print(f"bench: report on {path.name} exited {rc}: "
                      f"{err.getvalue().strip()}", file=sys.stderr)
            body = out_file.read_bytes() if out_file.exists() else b""
            outputs.append((text.getvalue(), body))
            out_file.unlink(missing_ok=True)
        return ok, outputs, (seconds, ref if clock is not None else None)

    def report(self, tag: str, clock=None):
        """A checked report round: every report passes and matches the first
        round byte for byte. Returns (passed, (seconds, ref) or None)."""
        self.attempted += 1
        try:
            ok, outputs, times = self._report_round(tag, self.report_inputs,
                                                    clock)
        except Exception as err:
            self._fail(err)
            return False, None
        if self.first_report is None:
            self.first_report = outputs
        if not ok or outputs != self.first_report:
            self._fail("report differs or failed")
            return False, None
        return True, times

    def _fail(self, err) -> None:
        self.failed += 1
        name = err if isinstance(err, str) else type(err).__name__
        self.errors[name] += 1
        if not isinstance(err, str):
            print(f"bench: {name}: {err}", file=sys.stderr)

    def timed_op(self, fn, *args):
        """(result, seconds) of one operation; (None, None) if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as err:
            self._fail(err)
            return None, None
        return out, time.perf_counter() - t0

    # -- untraced run --------------------------------------------------------

    def timed(self, seconds: float) -> dict:
        """Rounds of: a set-up (in the first SETUPS rounds), one report
        round, then the price and evaluate streams for an equal share of
        ``seconds``. Spreading every metric over the whole run averages the
        machine's speed over it."""
        clock = RefClock()
        lat = {"setup": [], "report": [], "price": [], "evaluate": []}
        priced, evaluated = [], []
        streams = {"price": self.stream("price"),
                   "evaluate": self.stream("evaluate")}
        busy = {"price": 0.0, "evaluate": 0.0}
        share = self.wl.eval_share
        ext = rss = None
        for k in range(self.wl.rounds):
            if k < SETUPS:
                built, t = clock.run(self.timed_op, self.setup)
                if t is not None:
                    lat["setup"].append(t)
            if ext is None:
                if built is None:
                    raise SystemExit("bench: set-up failed")
                ext = built
                self._warm_up(ext)
            ok, t = self.report(f"round{k}", clock)
            if ok:
                lat["report"].append(t)
            deadline = time.perf_counter() + seconds / self.wl.rounds
            while time.perf_counter() < deadline or not (lat["price"]
                                                         and lat["evaluate"]):
                # the stream furthest below its share of the time goes next
                kind = ("evaluate" if busy["evaluate"] * (1.0 - share)
                        <= busy["price"] * share else "price")
                X = next(streams[kind])
                x = ext.space.rv(X, self.T)
                if kind == "price":
                    fn, args = sx.price, (ext, 0, self.T, x)
                else:
                    fn, args = ext.evaluate, (0, self.T, x)
                t0 = time.perf_counter()
                res, t = clock.run(self.timed_op, fn, *args)
                busy[kind] += time.perf_counter() - t0
                if t is None:
                    continue
                lat[kind].append(t)
                if kind == "price":
                    priced.append((X, res))
                elif len(evaluated) < CASH_SAMPLE:
                    evaluated.append((X, res))
                if kind == "evaluate" and len(lat[kind]) == self.wl.trace_evals:
                    rss = _rss_mb()
        rss = rss if rss is not None else _rss_mb()

        self._check(ext, priced, evaluated)
        sweep = self.sweep(ext)

        def stat(kind, q, scale, unit_index):
            xs = [t[unit_index] for t in lat[kind]]
            return float(np.percentile(xs, q)) * scale

        n = {k: len(v) for k, v in lat.items()}
        metrics = {
            "setup_s": (stat("setup", 50, 1.0, 0), "s", n["setup"]),
            "evaluate_ref_p50": (stat("evaluate", 50, 1.0, 1), "ref", n["evaluate"]),
            "price_ref_p50": (stat("price", 50, 1.0, 1), "ref", n["price"]),
            "report_ref": (stat("report", 50, 1.0, 1), "ref", n["report"]),
            "peak_rss_mb": (rss, "MB", 1),
        }
        shown = dict(metrics)
        shown.update({
            "evaluate_ref_p90": (stat("evaluate", 90, 1.0, 1), "ref",
                                 n["evaluate"]),
            "evaluate_ms_p50": (stat("evaluate", 50, 1e3, 0), "ms", n["evaluate"]),
            "evaluate_ms_p90": (stat("evaluate", 90, 1e3, 0), "ms", n["evaluate"]),
            "price_ms_p50": (stat("price", 50, 1e3, 0), "ms", n["price"]),
            "report_s": (stat("report", 50, 1.0, 0), "s", n["report"]),
            "reference_ms": (statistics.median(clock.probes) * 1e3, "ms",
                             len(clock.probes)),
        })
        if n["price"] >= P90_MIN_SAMPLES:
            shown["price_ms_p90"] = (stat("price", 90, 1e3, 0), "ms", n["price"])
            shown["price_ref_p90"] = (stat("price", 90, 1.0, 1), "ref", n["price"])
        shown.update(self._failure_metrics(sweep))
        self._print(shown, sweep)
        return {k: v[:2] for k, v in metrics.items()}

    def _warm_up(self, ext) -> None:
        warm = self.stream("warmup")
        for _ in range(WARMUP_EVALS):
            ext.evaluate(0, self.T, ext.space.rv(next(warm), self.T))
        sx.price(ext, 0, self.T, ext.space.rv(next(warm), self.T))

    def _check(self, ext, priced, evaluated) -> None:
        """Output checks; an operation with a wrong answer counts as failed."""
        space = ext.space
        for X, res in priced:
            try:
                v = ext.evaluate(0, self.T, space.rv(X, self.T))
                good = _price_ok(space, X, res) and abs(
                    float(v.values[0]) - float(res.value.values[0])) <= _tol(X)
            except Exception as err:
                self._fail(err)
                continue
            if not good:
                self._fail("wrong price")
        shifts = np.random.default_rng([self.seed, 6]).uniform(
            -2.0, 2.0, len(evaluated))
        for (X, res), c in zip(evaluated, shifts):
            try:
                v = ext.evaluate(0, self.T, space.rv(X + c, self.T))
            except Exception as err:
                self._fail(err)
                continue
            if np.abs(v.values - (res.values + c)).max() > _tol(X + c):
                self._fail("cash additivity")

    def sweep(self, ext) -> Counter:
        """Price a fixed set of payoffs at each scale; tally the outcomes."""
        space = ext.space
        stream = self.stream("sweep")
        tally = Counter()
        for _ in range(SWEEP_BASES):
            base = next(stream)
            for scale in SWEEP_SCALES:
                X = base * scale
                try:
                    res = sx.price(ext, 0, self.T, space.rv(X, self.T))
                except Exception as err:
                    tally[type(err).__name__] += 1
                    continue
                tally["ok" if _price_ok(space, X, res) else "wrong price"] += 1
        return tally

    def _failure_metrics(self, sweep: Counter) -> dict:
        n_sweep = sum(sweep.values())
        sweep_failed = n_sweep - sweep["ok"]
        frac = (self.failed + sweep_failed) / (self.attempted + n_sweep)
        return {
            "ops_failed_frac": (frac, "ratio", self.attempted + n_sweep),
            "sweep.attempted": (n_sweep, "count", n_sweep),
            "sweep.failed": (sweep_failed, "count", n_sweep),
            "treegen.rejected": (self.rejected, "count", 1),
        }

    def _print(self, metrics: dict, sweep: Counter) -> None:
        print(f"workload {self.name}  seed {self.seed}  atoms {self.n}  "
              f"attempted {self.attempted}  failed {self.failed}")
        for name, (value, unit, samples) in metrics.items():
            print(f"  {name:<40} {value:>14.6g} {unit:<6} n={samples}")
        if self.errors:
            print("  failures by class: " + ", ".join(
                f"{k} {v}" for k, v in sorted(self.errors.items())))
        print("  sweep outcomes by class: " + ", ".join(
            f"{k} {v}" for k, v in sorted(sweep.items())))

    # -- traced run ----------------------------------------------------------

    def fixed_pass(self, tracer, tag: str):
        """One set-up, one report round, then the first prices and evaluates.
        Returns (wall seconds, the extended system)."""
        op = tracer.op if tracer is not None else lambda _: contextlib.nullcontext()
        t0 = time.perf_counter()
        with op("setup"):
            ext, _ = self.timed_op(self.setup)
        if ext is None:
            raise SystemExit("bench: set-up failed")
        space = ext.space
        with op("report"):
            self.report(tag)
        stream = self.stream("price")
        for _ in range(self.wl.trace_prices):
            X = next(stream)
            with op("price"):
                res, dt = self.timed_op(sx.price, ext, 0, self.T,
                                        space.rv(X, self.T))
            if dt is not None and not _price_ok(space, X, res):
                self._fail("wrong price")
        stream = self.stream("evaluate")
        for _ in range(self.wl.trace_evals):
            X = next(stream)
            with op("evaluate"):
                self.timed_op(ext.evaluate, 0, self.T, space.rv(X, self.T))
        return time.perf_counter() - t0, ext

    def traced(self) -> dict:
        plain_s, ext = self.fixed_pass(None, "plain")
        sweep = self.sweep(ext)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_s, _ = self.fixed_pass(tracer, "traced")
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{self.name}-{self.seed}.json")
        metrics = {k: (v, u, 1) for k, (v, u) in tracer.layer_metrics().items()}
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s", 1)
        metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s,
                                          "ratio", 1)
        metrics.update(self._failure_metrics(sweep))
        self._print(metrics, sweep)
        return {k: v[:2] for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ["SANDWICH_SEED"] = "0"
    OUT.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed)
    metrics = bench.traced() if args.trace else bench.timed(args.seconds)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
