"""Criteria 3, 4 and 8, the marking graph against the definition of
firing, build_lts against the LTS explored on whole terms, SBNDC from
main's leaves against SBNDC on the whole product (support.product_sbndc),
the rendering of every body and main re-parsing to the same term,
type_check against the typing as it was (support.naive_type_check),
and each side condition that typing decides, and the pair of A's and
B's bodies, against its definition (support.syntactic_equational), on
every spec of the small scope (support.small_specs) and of the choices
that make typing decide side conditions (support.choice_specs) at
bound 3.  Random draws rarely hit every combination of the small
corner cases; the enumeration misses none up to its bound.

Run as a script for a larger bound, 4 by default:

    PYTHONPATH=src python tests/test_small_scope.py [BOUND]

It prints the number of specs and of disagreements per check, and exits
1 when any check disagrees.
"""

import itertools
import sys
import time

from cfmcheck.net import build_lts, build_net, reach_graph
from cfmcheck.security import check_all, sbndc_interleaving
from cfmcheck.syntax import normalize_sum, parse_term, show
from cfmcheck.typesystem import decide_equational, type_check
from support import (
    choice_specs, fired_reach_graph, lts_summary, marking_graph_matches_lts,
    naive_type_check, product_sbndc, sbndc_outcome, small_specs,
    syntactic_equational, term_lts, type_outputs,
)

LIMIT = 10 ** 4
CHECKS = ("criterion 3", "criterion 4", "criterion 8", "firing", "lts",
          "sbndc", "show", "typing", "side condition")


def disagreements(spec) -> list:
    """The checks that spec fails, by name."""
    failed = []
    definitional, structural, compositional, rooted = check_all(spec, LIMIT)
    if not definitional.secure == structural.secure == compositional.secure:
        failed.append("criterion 3")
    judgment = type_check(spec)
    if judgment.typed != rooted.secure:
        failed.append("criterion 4")
    asked = []
    if type_outputs(judgment) != type_outputs(naive_type_check(spec, asked)):
        failed.append("typing")
    # below five nodes no body of small_specs keeps two live summands,
    # so typing asks nothing there: the two bodies stand in for a branch
    # and a remainder
    p, q = (normalize_sum(spec.defs[name]) for name in "AB")
    asked.append((p, q, decide_equational(p, q, spec)))
    if any(verdict != syntactic_equational(p, q, spec)
           for p, q, verdict in asked):
        failed.append("side condition")
    if not marking_graph_matches_lts(spec, LIMIT):
        failed.append("criterion 8")
    net = build_net(spec)
    if fired_reach_graph(net, LIMIT) != reach_graph(net, lambda t: True,
                                                    LIMIT)[:2]:
        failed.append("firing")
    if lts_summary(build_lts, spec, LIMIT) != lts_summary(term_lts, spec,
                                                          LIMIT):
        failed.append("lts")
    if (sbndc_outcome(sbndc_interleaving, spec, LIMIT)
            != sbndc_outcome(product_sbndc, spec, LIMIT)):
        failed.append("sbndc")
    if any(parse_term(show(t), spec) != t
           for t in (*spec.defs.values(), spec.main)):
        failed.append("show")
    return failed


def describe(spec) -> str:
    return "; ".join(f"{name} := {show(body)}" for name, body in
                     (*spec.defs.items(), ("main", spec.main)))


def test_bound_3():
    specs = list(small_specs(3))
    assert len(specs) == 3629
    failed = {describe(spec): found for spec in specs
              if (found := disagreements(spec))}
    assert not failed


def test_choices_bound_3():
    specs = list(choice_specs(3))
    assert len(specs) == 1416
    failed = {describe(spec): found for spec in specs
              if (found := disagreements(spec))}
    assert not failed


def test_choices_decide_side_conditions():
    # typing singles out a high branch, and its side condition holds on
    # some choices and fails on others
    asked = []
    for spec in choice_specs(3):
        naive_type_check(spec, asked)
    assert {verdict for _, _, verdict in asked} == {True, False}


if __name__ == "__main__":
    bound = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    started = time.perf_counter()
    counts = dict.fromkeys(CHECKS, 0)
    total = 0
    for spec in itertools.chain(small_specs(bound), choice_specs(bound)):
        total += 1
        for check in disagreements(spec):
            counts[check] += 1
            print(f"{check}: {describe(spec)}")
    print(f"bound {bound}: {total} specs in "
          f"{time.perf_counter() - started:.1f}s; disagreements: "
          + ", ".join(f"{check} {n}" for check, n in counts.items()))
    sys.exit(1 if any(counts.values()) else 0)
