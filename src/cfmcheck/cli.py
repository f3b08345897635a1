"""Command line front end.

Exit codes: 0 when the requested property holds (secure, typed,
equivalent) or the requested artifact was produced, 1 when the property
fails, 2 on usage, parse or resource errors, including input nested too
deeply for the checker.  `dni` exits 1 when any verdict is insecure,
else 2 when a capped check left its verdict inconclusive.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from . import equiv, security, typesystem
from .net import (
    StateLimitError, build_lts, build_net, dec, lts_to_dot, net_to_dot,
    net_to_json, reach,
)
from .syntax import Par, SpecError, parse_spec, parse_term, show


@dataclass
class RunConfig:
    command: str
    path: str
    fmt: str = "text"
    max_states: int = 10 ** 6
    method: str = "all"
    sbndc: bool = False
    left: str = ""
    right: str = ""
    rooted: bool = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmcheck",
        description="Compile CFM terms to finite-state-machine nets and "
                    "check distributed non-interference.")
    commands = parser.add_subparsers(dest="command", required=True)

    def with_common(sub, formats=("text", "json")):
        sub.add_argument("path", help="specification file")
        sub.add_argument("--format", dest="fmt", choices=formats,
                         default="text")
        sub.add_argument("--max-states", type=int, default=10 ** 6,
                         help="cap on explored states or markings")

    with_common(commands.add_parser(
        "net", help="compile the specification to its net"),
        formats=("text", "json", "dot"))
    with_common(commands.add_parser(
        "lts", help="explore the transition system of main"),
        formats=("text", "json", "dot"))
    with_common(commands.add_parser(
        "reach", help="enumerate the reachable markings"))

    equiv_cmd = commands.add_parser(
        "equiv", help="compare two terms up to branching team equivalence")
    with_common(equiv_cmd)
    equiv_cmd.add_argument("--left", required=True, help="first term")
    equiv_cmd.add_argument("--right", required=True, help="second term")
    equiv_cmd.add_argument("--rooted", action="store_true",
                           help="use the rooted variant")

    dni_cmd = commands.add_parser(
        "dni", help="verify distributed non-interference")
    with_common(dni_cmd)
    dni_cmd.add_argument("--method",
                         choices=("def", "struct", "comp", "rooted", "all"),
                         default="all")
    dni_cmd.add_argument("--sbndc", action="store_true",
                         help="also run the interleaving check")

    with_common(commands.add_parser(
        "type", help="type the specification for rooted security"))

    return parser


def parse_args(argv=None) -> RunConfig:
    namespace = build_parser().parse_args(argv)
    return RunConfig(**vars(namespace))


def _load(config: RunConfig):
    with open(config.path, encoding="utf-8") as handle:
        return parse_spec(handle.read())


def _marking_json(m):
    return [[place, count] for place, count in m.items()]


def run_net(config: RunConfig) -> int:
    spec = _load(config)
    net = build_net(spec)
    if config.fmt == "json":
        print(json.dumps(net_to_json(net), indent=2))
    elif config.fmt == "dot":
        print(net_to_dot(net), end="")
    else:
        print(f"places ({len(net.names)}):")
        for i, name in enumerate(net.names):
            tokens = net.initial.count(i)
            mark = f"  [{tokens} token{'s' * (tokens > 1)}]" if tokens else ""
            print(f"  {name}{mark}")
        print(f"transitions ({len(net.transitions)}):")
        for t in net.transitions:
            target = "(empty)" if t.post is None else net.names[t.post]
            print(f"  {net.names[t.pre]} --{t.label}--> {target}")
    return 0


def run_lts(config: RunConfig) -> int:
    spec = _load(config)
    lts = build_lts(spec, limit=config.max_states)
    if config.fmt == "json":
        print(json.dumps({
            "states": list(lts.names),
            "edges": [{"from": src, "label": str(a), "to": dst}
                      for src, a, dst in lts.edges],
            "roots": list(lts.roots),
        }, indent=2))
    elif config.fmt == "dot":
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


def run_reach(config: RunConfig) -> int:
    spec = _load(config)
    net = build_net(spec)
    markings = [net.name_marking(m)
                for m in reach(net, limit=config.max_states)]
    if config.fmt == "json":
        print(json.dumps({"markings": [_marking_json(m) for m in markings]},
                         indent=2))
    else:
        print(f"reachable markings ({len(markings)}):")
        for m in markings:
            print(f"  {m}")
    return 0


def run_equiv(config: RunConfig) -> int:
    spec = _load(config)
    left = parse_term(config.left, spec)
    right = parse_term(config.right, spec)
    union = build_net(spec, Par(left, right))
    part = equiv.branching_bisim(union)
    if config.rooted:
        part = equiv.rooted_partition(union, part)
    m1, m2 = dec(left), dec(right)
    equal = equiv.markings_equiv(union, part, union.intern_marking(m1),
                                 union.intern_marking(m2))

    detail = ""
    if not equal:
        if m1.size == 1 and m2.size == 1:
            detail = equiv.explain_difference(
                union, part,
                union.index[m1.dom()[0]], union.index[m2.dom()[0]])
        elif m1.size != m2.size:
            detail = (f"the terms split into {m1.size} and {m2.size} "
                      "sequential components")
        else:
            detail = "no pairing of their components is classwise equal"

    kind = "rooted branching team" if config.rooted else "branching team"
    if config.fmt == "json":
        print(json.dumps({
            "left": show(left), "right": show(right), "rooted": config.rooted,
            "equivalent": equal, "detail": detail,
        }, indent=2))
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
        "context": None if w.context is None else _marking_json(w.context),
        "reason": w.reason,
    }


def run_dni(config: RunConfig) -> int:
    spec = _load(config)
    chosen = {
        "def": lambda: [security.dni_definitional(spec, config.max_states)],
        "struct": lambda: [security.dni_structural(spec)],
        "comp": lambda: [security.dni_compositional(spec)],
        "rooted": lambda: [security.rooted_dni(spec)],
        "all": lambda: security.check_all(spec, config.max_states,
                                          sbndc=config.sbndc),
    }[config.method]
    verdicts = chosen()
    if config.method != "all" and config.sbndc:
        verdicts.append(security.sbndc_interleaving(spec, config.max_states))

    if config.fmt == "json":
        print(json.dumps([{
            "method": v.method,
            "secure": v.secure,
            "witnesses": [_witness_json(w) for w in v.witnesses],
            "stats": v.stats,
        } for v in verdicts], indent=2))
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
              f"{config.max_states} states", file=sys.stderr)
        return 2
    return 0


def _derivation_json(d: typesystem.Derivation) -> dict:
    return {
        "rule": d.rule,
        "term": show(d.term),
        "scanning": sorted(d.scanned),
        "children": [_derivation_json(c) for c in d.children],
    }


def run_type(config: RunConfig) -> int:
    spec = _load(config)
    judgment = typesystem.type_check(spec)
    if config.fmt == "json":
        print(json.dumps({
            "term": show(judgment.term),
            "typed": judgment.typed,
            "reason": judgment.reason,
            "failing": None if judgment.failing is None
            else show(judgment.failing),
            "derivation": None if judgment.derivation is None
            else _derivation_json(judgment.derivation),
        }, indent=2))
    else:
        for line in typesystem.judgment_lines(judgment):
            print(line)
    return 0 if judgment.typed else 1


def run(config: RunConfig) -> int:
    handler = {
        "net": run_net,
        "lts": run_lts,
        "reach": run_reach,
        "equiv": run_equiv,
        "dni": run_dni,
        "type": run_type,
    }[config.command]
    return handler(config)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as stop:
        return 0 if stop.code in (0, None) else 2
    try:
        return run(config)
    except (SpecError, StateLimitError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the input is nested too deeply for the checker",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
