"""Self-test of the benchmark at tiny sizes, with every check on.

    python3 bench/selftest.py

Runs in about 5 s.  It confirms that one seed gives byte-identical
specs and another seed different ones, that every workload passes its
checks untraced and traced with every metric present, that a wrong
verdict or a wrong closed form is caught (the verdicts of a ring, the
markings and LTS states of copies, the LTS states of a corpus system),
and that the benchmark refuses to run without the program's sources
beside it.
"""

import contextlib
import io
import shutil
import subprocess
import sys

import run
import specs
from tracing import LAYER_METRICS

TINY = {
    "corpus": {"bands": {1: 3, 2: 3, 3: 3, 4: 3, 5: 2, 6: 2, 7: 1, 8: 1}},
    "rings": {"plain": (6, 10), "branching": (5, 7)},
    "copies": {"dni": (1, 2, 3), "sbndc": (1, 2)},
}


def texts(workload, seed):
    return [inst["text"] for inst, _ in
            run.generate(workload, seed, TINY[workload])]


def check_inputs():
    for workload in run.WORKLOADS:
        assert texts(workload, 7) == texts(workload, 7), workload
        assert texts(workload, 7) != texts(workload, 8), workload
        names = [inst["name"] for inst, _ in
                 run.generate(workload, 7, TINY[workload])]
        assert len(set(names)) == len(names), workload
    bands = {}
    for inst in specs.corpus(3, TINY["corpus"]["bands"]):
        band = inst["states"].bit_length()
        bands[band] = bands.get(band, 0) + 1
    assert bands == TINY["corpus"]["bands"], bands


def operations(workload):
    return sum(len(kinds) for _, kinds in
               run.generate(workload, 1, TINY[workload]))


def check_runs():
    for workload in run.WORKLOADS:
        for trace, names in ((0, [n for n, _ in run.END_TO_END]),
                             (1, [n for n, _ in LAYER_METRICS])):
            result = run.run_workload(workload, 5, 0, trace, TINY[workload])
            assert result["correct"] and result["failed"] == 0, \
                (workload, trace, result)
            assert result["attempted"] == operations(workload), result
            assert list(result["metrics"]) == names, (workload, trace)
            for name in ("dni_s", "type_s", "sbndc_s"):
                assert result["timings"][name] > 0, (workload, name)


def check_checks():
    def flip_verdict(plan):
        inst, _ = plan[0]
        inst["expected"] = dict(inst["expected"],
                                secure=not inst["expected"]["secure"])

    def miscount(plan):
        plan[0][0]["states"] += 1

    def wrong_closed_forms(plan):
        inst, kinds = plan[0]
        assert kinds == ("dni", "type", "sbndc"), kinds
        inst["expected"] = dict(inst["expected"],
                                markings=inst["expected"]["markings"] + 1,
                                states=inst["expected"]["states"] + 1)

    for workload, hook, failures in (("rings", flip_verdict, 3),
                                     ("corpus", miscount, 1),
                                     ("copies", wrong_closed_forms, 2)):
        messages = io.StringIO()
        with contextlib.redirect_stderr(messages):
            result = run.run_workload(workload, 5, 0, 0, TINY[workload], hook)
        assert not result["correct"] and result["failed"] == failures, result
        assert messages.getvalue().count("FAILED") == failures, messages


def check_refuses_without_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    for path in run.BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench" / path.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "copies",
         "--seconds", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    shutil.rmtree(bare)
    assert completed.returncode != 0, completed
    assert '"metrics"' not in completed.stdout, completed.stdout


def main():
    check_inputs()
    check_runs()
    check_checks()
    check_refuses_without_program()
    print("bench self-test: ok")


if __name__ == "__main__":
    main()
