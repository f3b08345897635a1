"""Distributed non-interference checks.

A term is secure when no high transition changes the low observable
state: for every reachable marking, firing a high transition must lead
to a marking that is branching team equivalent to the source once all
high actions are restricted away.  Three procedures decide this, from
the literal definition to a per-transition structural check to a
per-component decomposition, and they must agree.
"""

import time
from dataclasses import dataclass, field
from functools import cached_property

from .equiv import (
    Partition, branching_bisim, rooted_partition, strong_partition,
)
from .net import (
    LeafTable, Net, StateLimitError, build_net, components, reach_graph,
    restrict_net, show_marking,
)
from .syntax import Spec, show


@dataclass(frozen=True)
class Witness:
    """One insecure high step.

    transition names the offending high transition by place names;
    context gives the rest of the marking it fired in, as a key of place
    names, when the check explored markings at all.
    """

    transition: tuple
    context: tuple | None
    reason: str

    def __str__(self):
        where = (f" in context {show_marking(self.context)}"
                 if self.context else "")
        pre, label, post = self.transition
        target = post if post is not None else "(empty)"
        return f"{pre} --{label}--> {target}{where}: {self.reason}"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a security check; secure holds iff witnesses is empty,
    and is None when the check hit its state cap before deciding."""

    method: str
    secure: bool | None
    witnesses: tuple = ()
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.secure is not None and self.secure != (not self.witnesses):
            raise ValueError("a verdict is secure exactly when no witness exists")

    @classmethod
    def decide(cls, method, witnesses, **stats):
        witnesses = tuple(witnesses)
        return cls(method, not witnesses, witnesses, dict(stats))


class _Analysis:
    """What the definitional, structural and rooted checks of one spec
    share: its net, the net with high actions restricted away, and the
    branching and rooted partitions of the restricted net.  Each is
    built on first use and at most once.

    stats counts places, transitions, classes and, once split,
    rooted_classes, and times each phase run: build_s, restrict_s,
    refine_s and rooted_s.
    """

    def __init__(self, spec: Spec):
        self.spec = spec
        self.stats = {}
        self._unreported = set()

    def _phase(self, name, build, *args):
        started = time.perf_counter()
        result = build(*args)
        self.stats[name] = round(time.perf_counter() - started, 6)
        self._unreported.add(name)
        return result

    @cached_property
    def net(self) -> Net:
        net = self._phase("build_s", build_net, self.spec)
        self.stats.update(places=len(net.names),
                          transitions=len(net.transitions))
        return net

    @cached_property
    def restricted(self) -> Net:
        """The net without high transitions, under the same place indexes."""
        return self._phase("restrict_s", restrict_net, self.net)

    @cached_property
    def partition(self) -> Partition:
        part = self._phase("refine_s", branching_bisim, self.restricted)
        self.stats["classes"] = len(part)
        return part

    @cached_property
    def rooted(self) -> Partition:
        part = self._phase("rooted_s", rooted_partition, self.restricted,
                           self.partition)
        self.stats["rooted_classes"] = len(part)
        return part

    def report(self) -> dict:
        """The counts so far, and the seconds of the phases run since the
        last report only, so that no two verdicts count a phase twice."""
        stats = {key: value for key, value in self.stats.items()
                 if not key.endswith("_s") or key in self._unreported}
        self._unreported.clear()
        return stats


def _named_transition(net: Net, t):
    return (net.names[t.pre], str(t.label),
            None if t.post is None else net.names[t.post])


def dni_definitional(spec: Spec, limit: int = 10 ** 6,
                     analysis: _Analysis = None) -> Verdict:
    """Enumerate every reachable marking and try every high step from it.

    Exact but exponential: the marking count explodes with parallel
    width.  Firing t changes the class multiset of a marking by t.pre's
    class out and t.post's in, so each high transition offends in every
    marking or in none: exactly when its token vanishes or changes
    class.  The exploration keeps the edges of offending transitions
    only, each a witness in its source marking.  Raises StateLimitError
    beyond the configured cap, after the analysis holds the net and its
    partition.
    """
    analysis = analysis or _Analysis(spec)
    net, part = analysis.net, analysis.partition
    # each offending transition by place names
    offending = {t: _named_transition(net, t) for t in net.transitions
                 if t.label.is_high
                 and (t.post is None or not part.same_class(t.pre, t.post))}
    started = time.perf_counter()
    keys, edges, steps = reach_graph(net, offending.__contains__, limit)
    reached = time.perf_counter()

    name = net.names.__getitem__
    witnesses = []
    for source, t, _ in edges:
        # the source marking by place name, less the token t consumes
        key = keys[source]
        i = key.index(t.pre)
        context = tuple(map(name, key[:i] + key[i + 1:]))
        witnesses.append(Witness(
            offending[t], context,
            "the marking after this high step is observably different"))
    scanned = time.perf_counter()
    return Verdict.decide("definitional", witnesses, markings=len(keys),
                          steps=steps,
                          explore_s=round(reached - started, 6),
                          scan_s=round(scanned - reached, 6),
                          **analysis.report())


def dni_structural(spec: Spec, rooted: bool = False,
                   analysis: _Analysis = None) -> Verdict:
    """Check each high transition once, against the restricted equivalence.

    The net is reduced, every place can carry a token, and team
    equivalence respects addition and subtraction of equivalent tokens,
    so one check of input place against output place per high
    transition settles every reachable context at once.  No marking
    enumeration happens here; the work is polynomial in the net.
    """
    method = "rooted" if rooted else "structural"
    analysis = analysis or _Analysis(spec)
    net = analysis.net
    part = analysis.rooted if rooted else analysis.partition

    witnesses = []
    for t in net.transitions:
        if not t.label.is_high:
            continue
        if t.post is None:
            witnesses.append(Witness(
                _named_transition(net, t), None,
                "this high step consumes its token, which is observable"))
            continue
        if not part.same_class(t.pre, t.post):
            witnesses.append(Witness(
                _named_transition(net, t), None,
                "input and output place differ once high actions are hidden"))
    return Verdict.decide(method, witnesses, **analysis.report())


def dni_compositional(spec: Spec) -> Verdict:
    """Check each distinct parallel component of main on its own.

    Security is compositional over parallel composition: the whole term
    is secure exactly when every sequential component is, so shared
    components are checked once.
    """
    witnesses = []
    checked = 0
    for component in components(spec.main):
        checked += 1
        verdict = dni_structural(spec.with_main(component))
        for w in verdict.witnesses:
            witnesses.append(Witness(
                w.transition, w.context,
                f"component {show(component)}: {w.reason}"))
    return Verdict.decide("compositional", witnesses, components=checked)


def rooted_dni(spec: Spec, analysis: _Analysis = None) -> Verdict:
    """The rooted strengthening: initial moves count even before any
    silent step, so a high transition must keep its place's immediate
    observable offer."""
    return dni_structural(spec, rooted=True, analysis=analysis)


def _crossing_high(count: int, edges) -> list:
    """The high edges, of a transition system of count states, whose two
    ends are not strongly bisimilar once all high edges are pruned."""
    class_of = strong_partition(count, [e for e in edges
                                        if not e[1].is_high])
    return [(source, action, target) for source, action, target in edges
            if action.is_high and class_of[source] != class_of[target]]


def sbndc_interleaving(spec: Spec, limit: int = 10 ** 6) -> Verdict:
    """The interleaving cousin: on the transition system of main, every
    high step must connect strongly bisimilar states after all high
    edges are pruned.  Blind to the distribution of the state across
    parallel components.

    The leaves of main are checked first, on their place table.  | never
    synchronises, so strong bisimilarity is a congruence for it: when
    every high edge of the table joins two bisimilar places, tuples
    bisimilar leaf by leaf relate the whole system, which is secure, and
    its size is counted without exploring it (LeafTable.product_size).
    Otherwise a one-leaf main has its witnesses in the table, which is
    its system, and any other main is explored as the product of its
    leaves up to limit states, since an insecure leaf can still make a
    secure product.  explore_s and refine_s sum the seconds of the
    tables or products built and of their strong partitions.
    """
    started = time.perf_counter()
    table = LeafTable(spec, limit)
    tabled = time.perf_counter()
    crossing = _crossing_high(len(table.names), table.edges)
    refined = time.perf_counter()
    if not crossing:
        states, steps = table.product_size()
        return Verdict.decide(
            "sbndc", (), states=states, steps=steps,
            explore_s=round(tabled - started + time.perf_counter() - refined,
                            6),
            refine_s=round(refined - tabled, 6))

    states, edges = table.product(limit)
    explored = time.perf_counter()
    if len(table.start) > 1:
        crossing = _crossing_high(len(states), edges)
    name = table.name
    witnesses = [Witness(
        (name(states[source]), str(action), name(states[target])), None,
        "the states before and after this high step are "
        "distinguishable through low actions")
        for source, action, target in crossing]
    return Verdict.decide(
        "sbndc", witnesses, states=len(states), steps=len(edges),
        explore_s=round(tabled - started + explored - refined, 6),
        refine_s=round(refined - tabled + time.perf_counter() - explored, 6))


# the procedures by method name; each is looked up when it runs, so a
# wrapper installed on the module-level name sees the call.  Compositional
# builds one net per component, its own route to the verdict.
_PROCEDURES = {
    "definitional": lambda spec, limit, analysis:
        dni_definitional(spec, limit, analysis),
    "structural": lambda spec, limit, analysis:
        dni_structural(spec, analysis=analysis),
    "compositional": lambda spec, limit, analysis: dni_compositional(spec),
    "rooted": lambda spec, limit, analysis: rooted_dni(spec, analysis),
    "sbndc": lambda spec, limit, analysis: sbndc_interleaving(spec, limit),
}

DNI_METHODS = ("definitional", "structural", "compositional", "rooted")


def check_all(spec: Spec, limit: int = 10 ** 6, methods=DNI_METHODS) -> list:
    """Run the named procedures in order and return their verdicts, timed.
    Definitional, structural and rooted share one analysis of the spec.
    A procedure that hits the cap gives an inconclusive verdict; the
    others still run.
    """
    analysis = _Analysis(spec)
    verdicts = []
    for method in methods:
        started = time.perf_counter()
        try:
            verdict = _PROCEDURES[method](spec, limit, analysis)
        except StateLimitError as error:
            # the phases a capped check ran are inside its seconds; their
            # counts reach the verdicts that read the analysis after it
            analysis.report()
            verdict = Verdict(method, None, stats={
                "cap": error.limit, "explored": error.explored})
        verdict.stats["seconds"] = round(time.perf_counter() - started, 6)
        verdicts.append(verdict)
    return verdicts
