"""Command line front end.

Exit codes: 0 when the requested property holds (secure, typed,
equivalent) or the requested artifact was produced, 1 when the property
fails, 2 on usage, parse or resource errors, including input nested too
deeply for the checker, memory running out and a file that is not UTF-8
text, and, silently, a reader that closes stdout early.  Any other
exception is a fault of the checker: it prints `error: internal error:
TYPE: message` and its traceback on stderr and exits 2 too, never 1.
`dni` exits 1 when any verdict is insecure, else 2 when a capped check
left its verdict inconclusive.
"""

import argparse
import functools
import os
import sys
from json.encoder import INFINITY, encode_basestring_ascii

from . import equiv, security, typesystem
from .net import (
    StateLimitError, build_lts, build_net, dec, lts_to_dot, marking_counts,
    net_to_dot, net_to_json, reach_graph, show_marking,
)
from .syntax import Par, SpecError, parse_spec, parse_term, show

# --method choices and the check_all methods each one runs
_METHODS = {
    "def": ("definitional",),
    "struct": ("structural",),
    "comp": ("compositional",),
    "rooted": ("rooted",),
    "all": security.DNI_METHODS,
}


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmcheck",
        description="Compile CFM terms to finite-state-machine nets and "
                    "check distributed non-interference.")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, run, about, formats=("text", "json"), capped=False):
        sub = commands.add_parser(name, help=about)
        sub.set_defaults(run=run)
        sub.add_argument("path", help="specification file")
        sub.add_argument("--format", dest="fmt", choices=formats,
                         default="text")
        if capped:
            sub.add_argument("--max-states", type=_positive, default=10 ** 6,
                             help="cap on explored states or markings")
        return sub

    command("net", run_net, "compile the specification to its net",
            formats=("text", "json", "dot"))
    command("lts", run_lts, "explore the transition system of main",
            formats=("text", "json", "dot"), capped=True)
    command("reach", run_reach, "enumerate the reachable markings",
            capped=True)

    equiv_cmd = command(
        "equiv", run_equiv,
        "compare two terms up to branching team equivalence")
    equiv_cmd.add_argument("--left", required=True, help="first term")
    equiv_cmd.add_argument("--right", required=True, help="second term")
    equiv_cmd.add_argument("--rooted", action="store_true",
                           help="use the rooted variant")

    dni_cmd = command("dni", run_dni, "verify distributed non-interference",
                      capped=True)
    dni_cmd.add_argument("--method", choices=_METHODS, default="all")
    dni_cmd.add_argument("--sbndc", action="store_true",
                         help="also run the interleaving check")

    command("type", run_type, "type the specification for rooted security")
    return parser


# Building the argparse tree costs more than checking a small spec, so
# repeated `main` calls in one process share one; parsing leaves it
# unchanged.  `build_parser` itself still returns a fresh parser.
_parser = functools.cache(build_parser)


def _load(args):
    # plain UTF-8, so that error.start counts from the file's first byte
    with open(args.path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as error:
            raise SpecError(f"{args.path}: not UTF-8 text ({error.reason} "
                            f"at byte {error.start})") from None
    return parse_spec(text.removeprefix("\ufeff"))


def _json_text(value) -> str:
    """What json.dumps(value) prints with an indent of 2, byte for byte,
    for dicts with str keys, lists, tuples, strings, ints, floats,
    booleans and None; TypeError on anything else.

    json's pure-Python indenting encoder passes every chunk up through one
    generator per level of nesting.  Here each separator and indent is
    glued onto the value after it, so every scalar and every closing
    bracket is one appended string, strings are escaped in C, and the
    walk recurses once per level, as json does.
    """
    parts = []
    _write_json(value, "", "\n", parts)
    return "".join(parts)


def _scalar_json(value) -> str:
    """A scalar as json writes it, tested in json's order."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == INFINITY:
            return "Infinity"
        if value == -INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


# the writers of the scalar types, by exact type, for the loops below
_SCALAR_JSON = {str: encode_basestring_ascii, int: int.__repr__,
                float: _scalar_json, bool: _scalar_json,
                type(None): _scalar_json}


def _write_json(value, prefix, newline, parts):
    """Append value, led by prefix, at the level whose line breaks are
    newline: a line feed and that level's indent.  The loops write the
    scalars in a container themselves and call this for containers."""
    if isinstance(value, dict):
        if not value:
            parts.append(prefix + "{}")
            return
        inner = newline + "  "
        lead = prefix + "{" + inner
        for key, item in value.items():
            # a key that is not a str raises TypeError here
            lead += encode_basestring_ascii(key) + ": "
            write = _SCALAR_JSON.get(type(item))
            if write is None:
                _write_json(item, lead, inner, parts)
            else:
                parts.append(lead + write(item))
            lead = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append(prefix + "[]")
            return
        inner = newline + "  "
        lead = prefix + "[" + inner
        for item in value:
            write = _SCALAR_JSON.get(type(item))
            if write is None:
                _write_json(item, lead, inner, parts)
            else:
                parts.append(lead + write(item))
            lead = "," + inner
        parts.append(newline + "]")
    else:
        parts.append(prefix + _scalar_json(value))


def run_net(args) -> int:
    spec = _load(args)
    net = build_net(spec)
    if args.fmt == "json":
        print(_json_text(net_to_json(net)))
    elif args.fmt == "dot":
        print(net_to_dot(net), end="")
    else:
        print(f"places ({len(net.names)}):")
        initial = dict(marking_counts(net.initial))
        for i, name in enumerate(net.names):
            tokens = initial.get(i, 0)
            mark = f"  [{tokens} token{'s' * (tokens > 1)}]" if tokens else ""
            print(f"  {name}{mark}")
        print(f"transitions ({len(net.transitions)}):")
        for t in net.transitions:
            target = "(empty)" if t.post is None else net.names[t.post]
            print(f"  {net.names[t.pre]} --{t.label}--> {target}")
    return 0


def run_lts(args) -> int:
    spec = _load(args)
    lts = build_lts(spec, limit=args.max_states)
    if args.fmt == "json":
        print(_json_text({
            "states": lts.names,
            "edges": [{"from": src, "label": str(a), "to": dst}
                      for src, a, dst in lts.edges],
            "roots": lts.roots,
        }))
    elif args.fmt == "dot":
        print(lts_to_dot(lts), end="")
    else:
        print(f"states ({len(lts.states)}):")
        for i, name in enumerate(lts.names):
            mark = "  [initial]" if i in lts.roots else ""
            print(f"  {name}{mark}")
        print(f"steps ({len(lts.edges)}):")
        for src, action, dst in lts.edges:
            print(f"  {lts.names[src]} --{action}--> {lts.names[dst]}")
    return 0


def run_reach(args) -> int:
    spec = _load(args)
    net = build_net(spec)
    # the markings alone: keep no edge
    name = net.names.__getitem__
    markings = [tuple(map(name, key)) for key in
                reach_graph(net, lambda t: False, args.max_states)[0]]
    if args.fmt == "json":
        print(_json_text({"markings": list(map(marking_counts, markings))}))
    else:
        print(f"reachable markings ({len(markings)}):")
        for key in markings:
            print(f"  {show_marking(key)}")
    return 0


def run_equiv(args) -> int:
    spec = _load(args)
    left = parse_term(args.left, spec)
    right = parse_term(args.right, spec)
    union = build_net(spec, Par(left, right))
    part = equiv.branching_bisim(union)
    if args.rooted:
        part = equiv.rooted_partition(union, part)
    k1, k2 = (tuple(map(union.index.__getitem__, dec(t)))
              for t in (left, right))
    equal = equiv.markings_equiv(part, k1, k2)

    detail = ""
    if not equal:
        if len(k1) == 1 and len(k2) == 1:
            detail = equiv.explain_difference(union, part, k1[0], k2[0])
        elif len(k1) != len(k2):
            detail = (f"the terms split into {len(k1)} and {len(k2)} "
                      "sequential components")
        else:
            detail = "no pairing of their components is classwise equal"

    kind = "rooted branching team" if args.rooted else "branching team"
    if args.fmt == "json":
        print(_json_text({
            "left": show(left), "right": show(right), "rooted": args.rooted,
            "equivalent": equal, "detail": detail,
        }))
    else:
        verdict = "equivalent" if equal else "not equivalent"
        print(f"{show(left)} and {show(right)} are {verdict} ({kind})")
        if detail:
            print(f"  {detail}")
    return 0 if equal else 1


def _witness_json(w: security.Witness) -> dict:
    pre, label, post = w.transition
    return {
        "transition": {"pre": pre, "label": label, "post": post},
        "context": None if w.context is None else marking_counts(w.context),
        "reason": w.reason,
    }


def run_dni(args) -> int:
    spec = _load(args)
    methods = _METHODS[args.method] + ("sbndc",) * args.sbndc
    verdicts = security.check_all(spec, args.max_states, methods)

    if args.fmt == "json":
        print(_json_text([{
            "method": v.method,
            "secure": v.secure,
            "witnesses": [_witness_json(w) for w in v.witnesses],
            "stats": v.stats,
        } for v in verdicts]))
    else:
        for v in verdicts:
            state = {True: "secure", False: "insecure",
                     None: "inconclusive"}[v.secure]
            stats = ", ".join(f"{k}={v.stats[k]}" for k in sorted(v.stats))
            print(f"{v.method}: {state}" + (f"  ({stats})" if stats else ""))
            for w in v.witnesses:
                print(f"  {w}")
    if any(v.secure is False for v in verdicts):
        return 1
    capped = [v.method for v in verdicts if v.secure is None]
    if capped:
        print(f"error: {', '.join(capped)} exceeded the cap of "
              f"{args.max_states} states", file=sys.stderr)
        return 2
    return 0


def _derivation_json(d: typesystem.Derivation) -> dict:
    return {
        "rule": d.rule,
        "term": show(d.term),
        "scanning": sorted(d.scanned),
        "children": [_derivation_json(c) for c in d.children],
    }


def _judgment_json(j: typesystem.TypingJudgment) -> dict:
    return {
        "term": show(j.term),
        "typed": j.typed,
        "reason": j.reason,
        "failing": None if j.failing is None else show(j.failing),
        "derivation": None if j.derivation is None
        else _derivation_json(j.derivation),
    }


def run_type(args) -> int:
    spec = _load(args)
    judgment = typesystem.type_check(spec)
    if args.fmt == "json":
        print(_json_text(_judgment_json(judgment)))
    else:
        sys.stdout.write("\n".join(typesystem.judgment_lines(judgment)) + "\n")
    return 0 if judgment.typed else 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as stop:
        return 0 if stop.code in (0, None) else 2
    try:
        status = args.run(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader went away: say nothing, and send what stdout still
        # buffers to devnull so that its flush at exit cannot fail
        with open(os.devnull, "w") as sink:
            os.dup2(sink.fileno(), sys.stdout.fileno())
        return 2
    except (SpecError, StateLimitError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the input is nested too deeply for the checker",
              file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception as error:  # noqa: BLE001 - a fault, not a verdict
        print(f"error: internal error: {type(error).__name__}: {error}",
              file=sys.stderr)
        import traceback  # only a fault needs it: keep it off start-up
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
