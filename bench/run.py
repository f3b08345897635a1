"""Benchmark: time cfmcheck's user-facing checks on fixed workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, one process each

One process runs one workload: a fixed list of operations, repeated in
whole rounds until the rounds have taken --seconds (by default the
run_seconds of BENCHMARK.json).  An operation is one check of
one generated spec: `cfmcheck dni --format json FILE` or `cfmcheck type
FILE` through cfmcheck.cli.main with stdout captured, or
sbndc_interleaving(parse_spec(text)) through the library.  Every output
is checked against the verdicts and sizes its spec fixes (see
README.md).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics, or with
--trace 1 the per-layer metrics of bench/tracing.py.
"""

import argparse
import ast
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import specs  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

# The workloads: which specs, and which checks run on each.
SIZES = {
    "corpus": {"bands": specs.BANDS},
    "rings": {"plain": (50, 100, 200), "branching": (8, 12, 16)},
    "copies": {"dni": (1, 2, 3, 4, 5, 6), "sbndc": (1, 2, 3)},
}
WORKLOADS = tuple(SIZES)

END_TO_END = (
    ("dni_s", "s"), ("type_s", "s"), ("sbndc_s", "s"), ("dni_p50_ms", "ms"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


def generate(workload, seed, sizes):
    """The workload's specs and the checks each one gets, in run order."""
    if workload == "corpus":
        instances = specs.corpus(seed, sizes["bands"])
        return [(inst, ("dni", "type", "sbndc")) for inst in instances]
    if workload == "rings":
        instances = specs.rings(seed, sizes["plain"], sizes["branching"])
        return [(inst, ("dni", "type", "sbndc")) for inst in instances]
    ks = sorted(set(sizes["dni"]) | set(sizes["sbndc"]))
    plan = []
    for inst in specs.copies(seed, ks):
        kinds = ("dni", "type") if inst["k"] in sizes["dni"] else ()
        if inst["k"] in sizes["sbndc"]:
            kinds += ("sbndc",)
        plan.append((inst, kinds))
    return plan


def import_program():
    """Import cfmcheck from this checkout's src/."""
    if not (SRC / "cfmcheck" / "__init__.py").is_file():
        raise SystemExit(f"error: no cfmcheck sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("cfmcheck")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: cfmcheck imported from {package.__file__}")
    for name in ("cli", "syntax", "security"):
        importlib.import_module(f"cfmcheck.{name}")


def prepare(workload, seed, sizes):
    """The set-up that setup_s times: import the program, generate the
    specs and parse each once."""
    import_program()
    plan = generate(workload, seed, sizes)
    parse_spec = sys.modules["cfmcheck.syntax"].parse_spec
    for inst, _ in plan:
        parse_spec(inst["text"])
    return plan


def digest(plan):
    return hashlib.sha256(b"\0".join(
        inst["text"].encode() for inst, _ in plan)).hexdigest()


def write_specs(plan, directory):
    """Write each spec to its file and check that it reads back as written."""
    directory.mkdir(parents=True, exist_ok=True)
    for inst, _ in plan:
        path = directory / f"{inst['name']}.cfm"
        data = inst["text"].encode()
        path.write_bytes(data)
        if path.read_bytes() != data:
            raise SystemExit(f"error: {path} does not read back as written")
        inst["path"] = str(path)


def clock():
    """CLOCK_MONOTONIC, which reads the same in every process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_setup(workload, seed, sizes, started):
    """One cold set-up in a process of its own, timed from `started`, the
    clock() reading its parent took just before starting this process."""
    plan = prepare(workload, seed, sizes)
    seconds = clock() - started
    print(json.dumps({"setup_s": seconds, "digest": digest(plan)}))


def time_setup(workload, seed, sizes, plan):
    """One cold set-up in a fresh process, timed from its start to the end
    of prepare().  It must generate the same specs, byte for byte, as this
    process did."""
    started = clock()
    completed = subprocess.run(
        [sys.executable, __file__, "--workload", workload,
         "--seed", str(seed), "--sizes", repr(sizes),
         "--probe-setup", repr(started)],
        capture_output=True, text=True, timeout=120, check=False)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit("error: a set-up process failed")
    probe = json.loads(completed.stdout.splitlines()[-1])
    if probe["digest"] != digest(plan):
        raise SystemExit("error: one seed generated different specs")
    return probe["setup_s"]


def run_operation(kind, inst):
    """Run one check; returns (seconds, exit code or None, output)."""
    if kind == "sbndc":
        security = sys.modules["cfmcheck.security"]
        syntax = sys.modules["cfmcheck.syntax"]
        start = time.perf_counter()
        verdict = security.sbndc_interleaving(syntax.parse_spec(inst["text"]))
        return time.perf_counter() - start, None, verdict
    argv = (["dni", "--format", "json", inst["path"]] if kind == "dni"
            else ["type", inst["path"]])
    cli = sys.modules["cfmcheck.cli"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return time.perf_counter() - start, code, out.getvalue()


class Failure(Exception):
    """An operation answered, but not as its spec requires."""


def check(kind, inst, code, output, facts):
    """Check one operation's output; facts carries what the spec's dni
    operation reported, for the checks that relate two operations."""
    expected = inst["expected"]
    if kind == "dni":
        if code == 2:
            raise RuntimeError("dni exited with 2")
        verdicts = {v["method"]: v for v in json.loads(output)}
        methods = ("definitional", "structural", "compositional", "rooted")
        if sorted(verdicts) != sorted(methods):
            raise Failure(f"dni reported {sorted(verdicts)}")
        secure = {m: verdicts[m]["secure"] for m in methods}
        if code != (0 if all(secure.values()) else 1):
            raise Failure(f"dni exit code {code} for verdicts {secure}")
        markings = verdicts["definitional"]["stats"]["markings"]
        facts.update(secure=secure, markings=markings)
        if expected is None:
            if len({secure[m] for m in methods[:3]}) != 1:
                raise Failure(f"the DNI procedures disagree: {secure}")
        else:
            if set(secure.values()) != {expected["secure"]}:
                raise Failure(f"verdicts {secure}, expected "
                              f"{expected['secure']}")
            if markings != expected["markings"]:
                raise Failure(f"{markings} markings, expected "
                              f"{expected['markings']}")
    elif kind == "type":
        if code == 2:
            raise RuntimeError("type exited with 2")
        first = output.split("\n", 1)[0]
        if not first.startswith(("typed:", "untyped:")):
            raise Failure(f"type printed {first!r}")
        typed = first.startswith("typed:")
        if code != (0 if typed else 1):
            raise Failure(f"type exit code {code} for typed={typed}")
        wanted = (facts["secure"]["rooted"] if expected is None
                  else expected["secure"])
        if typed != wanted:
            raise Failure(f"typed={typed}, rooted-secure={wanted}")
    else:
        states = output.stats["states"]
        if expected is None:
            if states != inst["states"]:
                raise Failure(f"{states} LTS states, expected "
                              f"{inst['states']}")
            if states < facts["markings"] or (
                    inst["single"] and states != facts["markings"]):
                raise Failure(f"{states} LTS states against "
                              f"{facts['markings']} markings")
        else:
            if output.secure != expected["secure"]:
                raise Failure(f"sbndc secure={output.secure}, expected "
                              f"{expected['secure']}")
            if states != expected["states"]:
                raise Failure(f"{states} LTS states, expected "
                              f"{expected['states']}")


class Tally:
    """Operations attempted and failed; wrong answers also clear `correct`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = 0

    def fail(self, kind, inst, error):
        self.failed += 1
        if isinstance(error, Failure):
            self.correct = False
        if self.reported < 10:
            self.reported += 1
            print(f"FAILED {kind} {inst['name']}: "
                  f"{type(error).__name__}: {error}", file=sys.stderr)


def run_round(plan, tally, samples, tracer=None):
    for index, (inst, kinds) in enumerate(plan):
        facts = {}
        for kind in kinds:
            tally.attempted += 1
            try:
                seconds, code, output = run_operation(kind, inst)
                check(kind, inst, code, output, facts)
            except Exception as error:  # noqa: BLE001 - a failed operation
                tally.fail(kind, inst, error)
            else:
                samples.setdefault((index, kind), []).append(seconds)
            finally:
                if tracer is not None:
                    tracer.end_operation()


def summarize(samples):
    """Per-operation medians over the rounds, folded by check."""
    medians = {key: statistics.median(v) for key, v in samples.items()}
    summed = {kind: sum(m for (_, k), m in medians.items() if k == kind)
              for kind in ("dni", "type", "sbndc")}
    dni = [m for (_, k), m in medians.items() if k == "dni"]
    return {"dni_s": summed["dni"], "type_s": summed["type"],
            "sbndc_s": summed["sbndc"],
            "dni_p50_ms": 1000 * statistics.median(dni) if dni else 0.0}


def run_workload(workload, seed, seconds, trace, sizes=None, plan_hook=None):
    """Set up, then run whole rounds for `seconds`; returns the result."""
    sizes = SIZES[workload] if sizes is None else sizes
    plan = prepare(workload, seed, sizes)
    write_specs(plan, OUT / workload)
    if plan_hook is not None:
        plan_hook(plan)

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    tally = Tally()
    samples, layer_rounds, spans, setups = {}, [], [], []
    rounds, measured = 0, 0.0
    while rounds == 0 or measured < seconds:
        # one cold set-up before each round, so that its samples spread
        # over the run as the operations' do; `seconds` counts rounds only
        setups.append(time_setup(workload, seed, sizes, plan))
        gc.collect()
        started = time.perf_counter()
        run_round(plan, tally, samples, tracer)
        measured += time.perf_counter() - started
        rounds += 1
        if tracer is not None:
            metrics, spans = tracer.round_metrics()
            layer_rounds.append(metrics)

    timings = summarize(samples)
    if trace:
        metrics = {name: {"value": statistics.median_low(
                              r.get(name, 0) for r in layer_rounds),
                          "unit": unit}
                   for name, unit in LAYER_METRICS}
        write_spans(workload, seed, spans)
    else:
        timings["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        timings["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": timings[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics,
            "rounds": rounds, "timings": timings}


def write_spans(workload, seed, spans):
    """The last traced round: [name, start, end, parent] per span, times
    in seconds from the round's first span."""
    if not spans:
        return
    origin = spans[0][1]
    path = OUT / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps(
        [[name, round(start - origin, 7), round(end - origin, 7), parent]
         for name, start, end, parent, _ in spans]), encoding="utf-8")


def report(workload, result, trace):
    print(f"{workload}: {result['rounds']} rounds, "
          f"{result['attempted']} operations attempted, "
          f"{result['failed']} failed, correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    if trace:
        t = result["timings"]
        print(f"  traced timings: dni_s={t['dni_s']:.4f} "
              f"type_s={t['type_s']:.4f} sbndc_s={t['sbndc_s']:.4f}")


def run_all(args):
    """Every workload in a process of its own, one after the other."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        completed = subprocess.run(argv, capture_output=True, text=True,
                                   check=False)
        sys.stdout.write(completed.stdout.rpartition("\n{")[0] + "\n")
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            raise SystemExit(f"error: {workload} exited with "
                             f"{completed.returncode}")
        results[workload] = json.loads(completed.stdout.splitlines()[-1])
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; BENCHMARK.json's run_seconds "
                             "by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup is not None:
        sizes = (SIZES[args.workload] if args.sizes is None
                 else ast.literal_eval(args.sizes))
        probe_setup(args.workload, args.seed, sizes, args.probe_setup)
        return 0
    if args.seconds is None:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, result, args.trace)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
