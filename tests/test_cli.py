"""Command line behaviour: exit codes, output formats, error handling."""

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cfmcheck import cli, security, typesystem
from cfmcheck.cli import _json_text, _parser, build_parser, main
from cfmcheck.net import (
    StateLimitError, build_lts, build_net, components, reach_graph,
)
from cfmcheck.syntax import parse_spec, show
from support import random_spec, term_lts

SECURE = "high h\nC := h.l.C + l.C\nmain := C\n"
INSECURE = "high h\nC := h.B\nB := l.B\nmain := C | B\n"


def copies_path(tmp_path, high_body, k=12):
    # by default twelve copies of a ten-constant ring: far more than 1000
    # markings
    bodies = [f"a.C{(i + 1) % 10}" for i in range(10)]
    bodies[8] = high_body
    defs = "\n".join(f"C{i} := {body}" for i, body in enumerate(bodies))
    path = tmp_path / "copies.cfm"
    path.write_text(f"high h\n{defs}\nmain := {' | '.join(['C0'] * k)}\n")
    return str(path)


@pytest.fixture
def secure_path(tmp_path):
    path = tmp_path / "secure.cfm"
    path.write_text(SECURE)
    return str(path)


@pytest.fixture
def insecure_path(tmp_path):
    path = tmp_path / "insecure.cfm"
    path.write_text(INSECURE)
    return str(path)


class TestNetCommand:
    def test_text(self, secure_path, capsys):
        assert main(["net", secure_path]) == 0
        out = capsys.readouterr().out
        assert "places (2):" in out
        assert "l.C" in out
        assert "[1 token]" in out
        assert "C --h--> l.C" in out

    def test_json(self, secure_path, capsys):
        assert main(["net", "--format", "json", secure_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["places"] == ["C", "l.C"]
        assert data["initial"] == [{"place": 0, "count": 1}]

    def test_dot(self, secure_path, capsys):
        assert main(["net", "--format", "dot", secure_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert out.rstrip().endswith("}")


class TestLtsAndReach:
    def test_lts_text(self, insecure_path, capsys):
        assert main(["lts", insecure_path]) == 0
        out = capsys.readouterr().out
        assert "[initial]" in out
        assert "--h-->" in out

    def test_lts_json(self, insecure_path, capsys):
        assert main(["lts", "--format", "json", insecure_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["roots"] == [0]
        assert {"from": 0, "label": "h", "to": 1} in data["edges"] or any(
            e["label"] == "h" for e in data["edges"])

    def test_reach_text(self, insecure_path, capsys):
        assert main(["reach", insecure_path]) == 0
        out = capsys.readouterr().out
        assert "reachable markings (2):" in out
        assert "2*B" in out

    def test_reach_json(self, insecure_path, capsys):
        assert main(["reach", "--format", "json", insecure_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [["B", 2]] in data["markings"]

    def test_reach_limit(self, tmp_path, capsys):
        path = tmp_path / "wide.cfm"
        path.write_text("main := " + " | ".join(["a.b.c.0"] * 12) + "\n")
        assert main(["reach", "--max-states", "40", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        INSECURE,
        "high h\nA := a.A + h.B\nB := b.0 + tau.A\nmain := A | B | 0 | A\n",
        "main := a.b.0 | (c.0 + d.0 | (0 + 0 | tau.a.0))\n",
        "X := a.X\nY := h.X + b.Y\nhigh h\nmain := (X | Y) | X\n",
    ])
    def test_lts_output_matches_term_exploration(self, tmp_path, capsys,
                                                 monkeypatch, text):
        path = tmp_path / "spec.cfm"
        path.write_text(text)
        formats = (["lts"], ["lts", "--format", "json"],
                   ["lts", "--format", "dot"])
        printed = []
        for explore in (build_lts, term_lts):
            monkeypatch.setattr(cli, "build_lts", explore)
            for argv in formats:
                assert main(argv + [str(path)]) == 0
                printed.append(capsys.readouterr().out)
        assert printed[:3] == printed[3:]

    @pytest.mark.parametrize("command,explore", [
        ("lts", lambda spec: build_lts(spec, limit=40)),
        ("reach", lambda spec: reach_graph(build_net(spec), lambda t: False,
                                           limit=40)),
    ])
    def test_cap_names_states_and_progress(self, tmp_path, capsys, command,
                                           explore):
        text = "main := " + " | ".join(["a.b.c.0"] * 12) + "\n"
        path = tmp_path / "wide.cfm"
        path.write_text(text)
        with pytest.raises(StateLimitError) as capped:
            explore(parse_spec(text))
        assert 0 < capped.value.explored < 40
        assert main([command, "--max-states", "40", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: state space exceeds the cap of 40 states "
            f"({capped.value.explored} fully explored)\n")


class TestEquivCommand:
    def test_equivalent(self, secure_path, capsys):
        code = main(["equiv", secure_path, "--left", "tau.l.0",
                     "--right", "l.0"])
        assert code == 0
        assert "are equivalent" in capsys.readouterr().out

    def test_rooted_flag_tightens(self, secure_path, capsys):
        code = main(["equiv", secure_path, "--left", "tau.l.0",
                     "--right", "l.0", "--rooted"])
        assert code == 1
        out = capsys.readouterr().out
        assert "not equivalent" in out

    def test_detail_on_difference(self, secure_path, capsys):
        code = main(["equiv", secure_path, "--left", "l.0",
                     "--right", "l.l.0"])
        assert code == 1
        data = capsys.readouterr().out
        assert "not equivalent" in data

    def test_json(self, secure_path, capsys):
        code = main(["equiv", "--format", "json", secure_path,
                     "--left", "C | l.0", "--right", "l.0 | C"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["equivalent"] is True
        assert data["rooted"] is False

    def test_spec_constants_usable(self, insecure_path, capsys):
        code = main(["equiv", insecure_path, "--left", "C | B",
                     "--right", "B | C"])
        assert code == 0


class TestDniCommand:
    def test_secure_exit(self, secure_path, capsys):
        assert main(["dni", secure_path]) == 0
        out = capsys.readouterr().out
        for method in ("definitional", "structural", "compositional", "rooted"):
            assert f"{method}: secure" in out

    def test_insecure_exit(self, insecure_path, capsys):
        assert main(["dni", insecure_path]) == 1
        out = capsys.readouterr().out
        assert "definitional: insecure" in out
        assert "--h-->" in out

    def test_single_method(self, insecure_path, capsys):
        assert main(["dni", "--method", "struct", insecure_path]) == 1
        data = capsys.readouterr().out
        assert data.count("insecure") == 1

    def test_sbndc_disagrees_here(self, insecure_path, capsys):
        assert main(["dni", "--sbndc", insecure_path]) == 1
        out = capsys.readouterr().out
        assert "sbndc: secure" in out

    def test_json(self, insecure_path, capsys):
        assert main(["dni", "--format", "json", insecure_path]) == 1
        data = json.loads(capsys.readouterr().out)
        assert [v["method"] for v in data] == [
            "definitional", "structural", "compositional", "rooted"]
        assert all(v["secure"] is False for v in data)
        assert data[0]["witnesses"]

    def test_single_method_stats(self, insecure_path, capsys):
        assert main(["dni", "--method", "struct", "--format", "json",
                     insecure_path]) == 1
        [verdict] = json.loads(capsys.readouterr().out)
        assert verdict["method"] == "structural"
        assert "seconds" in verdict["stats"]

    def test_cap_keeps_insecure_verdicts(self, tmp_path, capsys):
        path = copies_path(tmp_path, "h.C9")
        assert main(["dni", "--max-states", "1000", path]) == 1
        out = capsys.readouterr().out
        assert "definitional: inconclusive  (cap=1000, " in out
        for method in ("structural", "compositional", "rooted"):
            assert f"{method}: insecure" in out
        assert main(["dni", "--format", "json", "--max-states", "1000",
                     path]) == 1
        verdicts = json.loads(capsys.readouterr().out)
        stats = next(v["stats"] for v in verdicts
                     if v["method"] == "definitional")
        assert stats["cap"] == 1000 and 0 < stats["explored"] <= 1000
        assert f"explored={stats['explored']}, " in out

    def test_cap_keeps_single_method_verdict(self, tmp_path, capsys):
        path = copies_path(tmp_path, "h.C9")
        assert main(["dni", "--method", "struct", "--sbndc",
                     "--max-states", "1000", path]) == 1
        out = capsys.readouterr().out
        assert "structural: insecure" in out
        assert "sbndc: inconclusive" in out

    def test_cap_on_secure_spec(self, tmp_path, capsys):
        path = copies_path(tmp_path, "h.C9 + a.C9")
        assert main(["dni", "--max-states", "1000", path]) == 2
        captured = capsys.readouterr()
        assert "definitional: inconclusive" in captured.out
        for method in ("structural", "compositional", "rooted"):
            assert f"{method}: secure" in captured.out
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_deterministic(self, insecure_path, capsys):
        def strip(verdicts):
            return [{k: v for k, v in verdict.items() if k != "stats"}
                    for verdict in verdicts]

        main(["dni", "--format", "json", insecure_path])
        first = json.loads(capsys.readouterr().out)
        main(["dni", "--format", "json", insecure_path])
        second = json.loads(capsys.readouterr().out)
        assert strip(first) == strip(second)


class TestTypeCommand:
    def test_typed(self, secure_path, capsys):
        assert main(["type", secure_path]) == 0
        assert "typed" in capsys.readouterr().out

    def test_untyped(self, tmp_path, capsys):
        path = tmp_path / "untyped.cfm"
        path.write_text("high h\nmain := h.0\n")
        assert main(["type", str(path)]) == 1
        assert "untyp" in capsys.readouterr().out

    def test_json_derivation(self, secure_path, capsys):
        assert main(["type", "--format", "json", secure_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["typed"] is True
        assert data["derivation"]["rule"]


# JSON values as cfmcheck prints them, and the corners of json's escaping
# and number formats: lone surrogates, huge ints, -0.0, nan and infinities
_json_strings = st.text(st.characters(exclude_categories=())
                        | st.characters(categories=["Cs"])
                        | st.sampled_from('"\\\x00\x1f\x7f'))
_json_scalars = (
    st.none() | st.booleans() | _json_strings
    | st.integers() | st.integers(min_value=-10 ** 80, max_value=10 ** 80)
    | st.floats()
    | st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf]))
_json_values = st.recursive(
    _json_scalars,
    lambda children: (st.lists(children)
                      | st.lists(children).map(tuple)
                      | st.dictionaries(_json_strings, children)),
    max_leaves=40)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(_json_values)
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{1}, [1, {"a": {2}}], {"a": object()}])
    def test_unserializable_raises_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json_text(value)


def _spec_text(spec):
    lines = [f"high {', '.join(sorted(spec.high_names))}"] * bool(
        spec.high_names)
    lines += [f"{name} := {show(body)}" for name, body in spec.defs.items()]
    return "\n".join(lines + [f"main := {show(spec.main)}"]) + "\n"


class TestJsonOutput:
    """Every --format json output is what json.dumps prints with an
    indent of 2, checked against json itself: any drift in whitespace,
    escaping or number format shows."""

    def assert_json_outputs(self, path, equiv_terms, capsys):
        argvs = [["net"], ["lts", "--max-states", "20000"],
                 ["reach", "--max-states", "20000"],
                 ["equiv", "--left", equiv_terms[0],
                  "--right", equiv_terms[1]],
                 ["type"], ["dni", "--sbndc"]]
        for argv in argvs:
            code = main(argv[:1] + ["--format", "json", path] + argv[1:])
            out = capsys.readouterr().out
            assert code in (0, 1), argv
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv

    def test_random_specs(self, tmp_path, capsys):
        rng = random.Random(20)
        path = tmp_path / "spec.cfm"
        for _ in range(200):
            spec = random_spec(rng)
            path.write_text(_spec_text(spec))
            part = components(spec.main)
            right = show(part[0]) if part else "0"
            self.assert_json_outputs(str(path), (show(spec.main), right),
                                     capsys)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_insecure_ring_copies(self, tmp_path, capsys, k):
        path = copies_path(tmp_path, "h.C9", k)
        self.assert_json_outputs(path, ("C0 | C8", "C8 | C0"), capsys)
        main(["dni", "--format", "json", "--method", "def", path])
        [verdict] = json.loads(capsys.readouterr().out)
        # one witness per placing of the other k - 1 tokens on 10 places
        assert len(verdict["witnesses"]) == math.comb(k + 8, k - 1)


class TestErrors:
    def test_undefined_constant_named_alike_under_any_hash_seed(
            self, tmp_path):
        path = tmp_path / "undefined.cfm"
        path.write_text("main := Bee | Cat | Dog | Eel\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        errors = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(
                           None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run(
                [sys.executable, "-m", "cfmcheck.cli", "dni", str(path)],
                capture_output=True, text=True, env=env)
            assert done.returncode == 2
            errors.add(done.stderr)
        assert errors == {"error: undefined process constant Bee\n"}

    def test_missing_file(self, capsys):
        assert main(["net", "/nonexistent/spec.cfm"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.cfm"
        path.write_text("main := a.\n")
        assert main(["net", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: 1:" in err

    def test_bad_method(self, secure_path, capsys):
        assert main(["dni", "--method", "bogus", secure_path]) == 2

    def test_cap_must_be_positive(self, secure_path, capsys):
        assert main(["reach", "--max-states", "0", secure_path]) == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dni", "lts", "reach"])
    def test_cap_must_be_an_integer(self, command, secure_path, capsys):
        assert main([command, "--max-states", "abc", secure_path]) == 2
        err = capsys.readouterr().err
        assert err.endswith(
            "error: argument --max-states: abc is not a positive integer\n")
        assert "_positive" not in err

    def test_cap_only_where_explored(self, secure_path, capsys):
        assert main(["type", "--max-states", "5", secure_path]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_deep_prefix_chain(self, tmp_path, capsys):
        # the parser keeps each open parenthesis on its own stack, so
        # a.(a.(….0)) parses and checks at any depth
        depth = 10_000
        path = tmp_path / "deep.cfm"
        path.write_text("main := " + "a.(" * depth + "0" + ")" * depth + "\n")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            code = main(["dni", str(path)])
        finally:
            sys.setrecursionlimit(limit)
        out, err = capsys.readouterr()
        assert code == 0 and not err
        assert out.count(": secure") == 4

    @pytest.fixture
    def chain_path(self, tmp_path):
        path = tmp_path / "chain.cfm"
        path.write_text("high h\nmain := " + "a." * 5000 + "0\n")
        return str(path)

    def test_chain_checks_under_default_recursion_limit(self, chain_path,
                                                       capsys):
        # parsing, validation and compilation walk a.a.….0 in loops, and
        # each place is named by a rendering built once
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            started = time.perf_counter()
            code = main(["dni", chain_path])
            elapsed = time.perf_counter() - started
        finally:
            sys.setrecursionlimit(limit)
        out, err = capsys.readouterr()
        assert code == 0 and not err
        assert out.count(": secure") == 4
        assert elapsed < 5.0

    def test_wide_parallel_compiles(self, tmp_path, capsys):
        # main's |-skeleton is decomposed in a loop
        path = tmp_path / "wide.cfm"
        path.write_text("main := " + " | ".join(["a.0"] * 10_000) + "\n")
        assert main(["net", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "  a.0  [10000 tokens]\n" in out and not err

    @pytest.mark.parametrize("leaf, secure", [("a.0", True),
                                              ("h.0 + a.0", False)])
    def test_wide_parallel_checks_under_default_recursion_limit(
            self, tmp_path, capsys, leaf, secure):
        path = tmp_path / "wide.cfm"
        path.write_text("high h\nmain := " + " | ".join([leaf] * 2000) + "\n")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            code = main(["dni", "--format", "json", str(path)])
        finally:
            sys.setrecursionlimit(limit)
        out, err = capsys.readouterr()
        assert code == (0 if secure else 1) and not err
        verdicts = json.loads(out)
        assert [v["method"] for v in verdicts] == list(security.DNI_METHODS)
        assert {v["secure"] for v in verdicts} == {secure}
        # the run of | is one node, so typing takes one par step
        sys.setrecursionlimit(1000)
        try:
            code = main(["type", "--format", "json", str(path)])
        finally:
            sys.setrecursionlimit(limit)
        out, err = capsys.readouterr()
        assert code == (0 if secure else 1) and not err
        judgment = json.loads(out)
        assert judgment["typed"] is secure
        if secure:
            root = judgment["derivation"]
            assert root["rule"] == "par"
            assert [c["rule"] for c in root["children"]] == \
                ["prefix-low"] * 2000

    def test_chain_typing_is_too_deep(self, chain_path, capsys):
        # typing still recurses over the term
        assert main(["type", chain_path]) == 2
        assert capsys.readouterr().err == \
            "error: the input is nested too deeply for the checker\n"

    def test_long_ring_typing(self, tmp_path, capsys):
        n = 250
        bodies = [f"l.C{(i + 1) % n}" for i in range(n)]
        bodies[n // 2] = f"h.{bodies[n // 2]} + {bodies[n // 2]}"
        defs = "\n".join(f"C{i} := {body}" for i, body in enumerate(bodies))
        path = tmp_path / "ring.cfm"
        path.write_text(f"high h\n{defs}\nmain := C0\n")
        assert main(["type", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "cfmcheck" in capsys.readouterr().out

    def test_non_utf8_spec(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfm"
        for prefix, offset in ((b"", 10), (b"\xef\xbb\xbf", 13)):
            path.write_bytes(prefix + b"main := a.\xff0\n")
            for command in ("dni", "type"):
                assert main([command, str(path)]) == 2
                err = capsys.readouterr().err
                assert err == (f"error: {path}: not UTF-8 text "
                               f"(invalid start byte at byte {offset})\n")

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "spec.cfm"
        for command in ("dni", "type"):
            seen = []
            for prefix in (b"", b"\xef\xbb\xbf"):
                path.write_bytes(prefix + INSECURE.encode())
                code = main([command, str(path)])
                out, err = capsys.readouterr()
                out = re.sub(r"((?:seconds|_s)\W+)[\d.e+-]+", r"\1", out)
                seen.append((code, out, err))
            assert seen[0] == seen[1]


class TestFaultsExitTwo:
    """Exit 1 means insecure or untyped, so a fault must never give it."""

    PROCEDURES = {
        "dni": (security, "check_all"),
        "type": (typesystem, "type_check"),
        "lts": (cli, "build_lts"),
        "reach": (cli, "reach_graph"),
    }

    @pytest.mark.parametrize("command", sorted(PROCEDURES))
    @pytest.mark.parametrize("error", [MemoryError, ValueError,
                                       AssertionError])
    def test_injected_error(self, command, error, insecure_path, capsys,
                            monkeypatch):
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(*self.PROCEDURES[command], fail)
        assert main([command, insecure_path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        if error is MemoryError:
            assert err == "error: out of memory\n"
        else:
            first, rest = err.split("\n", 1)
            assert first == f"error: internal error: {error.__name__}: injected"
            assert rest.startswith("Traceback (most recent call last):")
            assert rest.endswith(f"{error.__name__}: injected\n")

    def test_interrupt_is_not_caught(self, insecure_path, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(security, "check_all", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["dni", insecure_path])


class TestClosedStdout:
    def test_reader_closing_early_is_quiet(self, tmp_path):
        # four copies of a ten-constant ring: 10 000 states, far more
        # output than a pipe holds
        bodies = "".join(f"C{i} := a.C{(i + 1) % 10}\n" for i in range(10))
        path = tmp_path / "copies.cfm"
        path.write_text(bodies + "main := C0 | C0 | C0 | C0\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        with subprocess.Popen(
                [sys.executable, "-m", "cfmcheck.cli", "lts", str(path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env) as proc:
            try:
                assert proc.stdout.readline() == b"states (10000):\n"
                proc.stdout.close()
                code = proc.wait(timeout=60)
                err = proc.stderr.read()
            finally:
                proc.kill()
        assert (code, err) == (2, b"")


class TestRepeatedCalls:
    def test_parser_reuse_leaks_nothing(self, tmp_path, secure_path,
                                        insecure_path, capsys):
        calls = [
            (["dni", "--method", "struct", "--sbndc", "--max-states", "1000",
              copies_path(tmp_path, "h.C9")], 1),
            (["dni", "--format", "json", insecure_path], 1),
            (["type", "--max-states", "5", secure_path], 2),
            (["--help"], 0),
            (["type", secure_path], 0),
        ]

        def run(argv):
            code = main(argv)
            out, err = capsys.readouterr()
            # timings are the only part of the output that may vary
            out = re.sub(r"((?:seconds|_s)\W+)[\d.e+-]+", r"\1", out)
            return code, out, err

        first = []
        for argv, code in calls:
            _parser.cache_clear()
            first.append(run(argv))
            assert first[-1][0] == code
        _parser.cache_clear()
        assert [run(argv) for argv, _ in calls] == first
        assert _parser.cache_info().misses == 1

    def test_changing_a_built_parser_leaves_main_alone(self, secure_path,
                                                       capsys):
        assert main(["type", secure_path]) == 0
        build_parser().add_argument("--extra", required=True)
        assert main(["type", secure_path]) == 0


class TestConsoleScript:
    def test_installed_entry_point(self, secure_path):
        exe = shutil.which("cfmcheck")
        if exe is None:
            pytest.skip("console script not installed")
        done = subprocess.run([exe, "dni", secure_path],
                              capture_output=True, text=True)
        assert done.returncode == 0
        assert "rooted: secure" in done.stdout
