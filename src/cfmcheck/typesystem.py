"""A syntax-directed typing discipline that entails rooted security.

The rules walk the term structure: low and silent prefixes are always
fine, a high prefix must lead either to a stuck place or to more high
behaviour, and a choice containing a high branch must offer the same
restricted behaviour with and without that branch, which is decided
semantically.  Choices are searched modulo their reordering laws, so a
term is accepted whenever some rearrangement of its choices is.
"""

from dataclasses import dataclass, replace

from .equiv import markings_equiv
from .net import dec, lts_step
from .security import _Analysis
from .syntax import (
    NIL, Const, Nil, Par, Prefix, Spec, Sum, Term, normalize_sum, show,
)


@dataclass(frozen=True)
class Derivation:
    """One applied rule; term is the (possibly rearranged) term it typed."""

    rule: str
    term: Term
    scanned: frozenset
    children: tuple = ()


@dataclass(frozen=True)
class TypingJudgment:
    term: Term
    scanned: frozenset
    typed: bool
    derivation: Derivation | None = None
    reason: str = ""
    failing: Term | None = None


def is_deadlock_place(t: Term, spec: Spec) -> bool:
    """True when t keeps its token but can never move.

    0 does not qualify: it decomposes to the empty marking instead of
    occupying a place.  Anything else sequential is one place, stuck
    exactly when t has no move.  A parallel term raises ValueError, as
    lts_step does.
    """
    return not isinstance(t, Nil) and not lts_step(t, spec)


def decide_equational(p: Term, q: Term, spec: Spec) -> bool:
    """Decide provable equality of the restrictions of p and q.

    The axioms are sound and complete for rooted team equivalence, so
    instead of rewriting, this compares the decompositions of p and q by
    the rooted classes of the net of p | q less its high transitions.
    """
    analysis = _Analysis(spec.with_main(Par(p, q)))
    index = analysis.net.index
    k1, k2 = (tuple(map(index.__getitem__, dec(t))) for t in (p, q))
    return markings_equiv(analysis.rooted, k1, k2)


def type_check(spec: Spec, term: Term = None) -> TypingJudgment:
    """Type main (or the given term) against the security discipline.

    Every choice is first normalized modulo commutativity,
    associativity, idempotence and dropped 0 summands; a choice with
    high branches is then searched over all ways of singling one out.
    Results are memoized on the normalized rendering plus the set of
    constants already under scan, normal forms on the rendering, and
    side conditions on the pair of renderings.
    """
    target = spec.main if term is None else term
    return _Typing(spec).check(target, frozenset())


class _Typing:
    """The memos of one type_check call and the rules that fill them."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self.memo, self.normal, self.equal = {}, {}, {}

    def check(self, t, scanned) -> TypingJudgment:
        shown = show(t)
        canon = self.normal.get(shown)
        if canon is None:
            canon = self.normal[shown] = normalize_sum(t)
        key = (show(canon), scanned)
        memo = self.memo
        if key not in memo:
            # a derivation may not take itself as a premise, so a
            # reentrant query reads as untypable while in progress
            memo[key] = TypingJudgment(canon, scanned, False, None,
                                       "circular typing dependency", canon)
            memo[key] = self.judge(canon, scanned)
        found = memo[key]
        if shown != key[0]:
            found = replace(found, term=t)
        return found

    def equivalent(self, p, q) -> bool:
        key = (show(p), show(q))
        if key not in self.equal:
            self.equal[key] = decide_equational(p, q, self.spec)
        return self.equal[key]

    def judge(self, t, scanned) -> TypingJudgment:
        check, spec = self.check, self.spec
        match t:
            case Nil():
                return _typed(t, scanned, "nil")
            case Par(operands):
                children = [check(u, scanned) for u in operands]
                return _combine(t, scanned, "par", children)
            case Const(name):
                if name in scanned:
                    return _typed(t, scanned, "const-scanned")
                child = check(spec.body_of(name), scanned | {name})
                return _combine(t, scanned, "const-def", [child])
            case Prefix(action, body):
                if not action.is_high:
                    child = check(body, scanned)
                    return _combine(t, scanned, "prefix-low", [child])
                if is_deadlock_place(body, spec):
                    return _typed(t, scanned, "prefix-high-stuck")
                starts = {a for a, _ in lts_step(body, spec)}
                if starts and all(a.is_high for a in starts):
                    child = check(body, scanned)
                    return _combine(t, scanned, "prefix-high-high", [child])
                return _untyped(
                    t, scanned, t,
                    "a high prefix must lead to a stuck place or to "
                    "exclusively high behaviour")
            case Sum():
                return self.judge_choice(t, scanned)
        raise TypeError(f"not a term: {t!r}")

    def judge_choice(self, t, scanned) -> TypingJudgment:
        check = self.check
        parts = t.operands
        high_at = [i for i, part in enumerate(parts)
                   if isinstance(part, Prefix) and part.action.is_high]
        if not high_at:
            children = [check(part, scanned) for part in parts]
            return _combine(t, scanned, "choice-low", children)

        failures = []
        for i in high_at:
            picked = parts[i]
            if picked.body == NIL:
                failures.append(f"{show(picked)} guards 0, which vanishes")
                continue
            rest = parts[:i] + parts[i + 1:]
            remainder = rest[0] if len(rest) == 1 else Sum(*rest)
            branch = check(picked.body, scanned)
            if not branch.typed:
                failures.append(f"{show(picked.body)} is not typable")
                continue
            kept = check(remainder, scanned)
            if not kept.typed:
                failures.append(f"{show(remainder)} is not typable")
                continue
            if not self.equivalent(picked.body, remainder):
                failures.append(
                    f"{show(picked.body)} and {show(remainder)} differ "
                    "once high actions are hidden")
                continue
            node = Derivation("choice-high", Sum(picked, remainder),
                              scanned,
                              (branch.derivation, kept.derivation))
            return TypingJudgment(t, scanned, True, node)
        detail = "; ".join(dict.fromkeys(failures)) or "no high branch to single out"
        return _untyped(t, scanned, t,
                        f"no arrangement of this choice is typable: {detail}")


def _typed(t, scanned, rule, children=()) -> TypingJudgment:
    return TypingJudgment(t, scanned, True,
                          Derivation(rule, t, scanned, tuple(children)))


def _combine(t, scanned, rule, children) -> TypingJudgment:
    for child in children:
        if not child.typed:
            return TypingJudgment(t, scanned, False, None,
                                  child.reason, child.failing)
    node = Derivation(rule, t, scanned,
                      tuple(child.derivation for child in children))
    return TypingJudgment(t, scanned, True, node)


def _untyped(t, scanned, failing, reason) -> TypingJudgment:
    return TypingJudgment(t, scanned, False, None, reason, failing)


def derivation_lines(d: Derivation, depth: int = 0) -> list:
    """Render a derivation as an indented rule-per-line listing."""
    suffixes = {frozenset(): ""}
    lines = []
    stack = [(d, depth)]
    while stack:
        node, level = stack.pop()
        scanned = node.scanned
        suffix = suffixes.get(scanned)
        if suffix is None:
            suffix = suffixes[scanned] = \
                f"  [scanning {', '.join(sorted(scanned))}]"
        lines.append(f"{'  ' * level}{node.rule}: {show(node.term)}{suffix}")
        stack += ((child, level + 1) for child in reversed(node.children))
    return lines


def judgment_lines(j: TypingJudgment) -> list:
    if j.typed:
        return [f"typed: {show(j.term)}"] + derivation_lines(j.derivation, 1)
    lines = [f"untyped: {show(j.term)}", f"  reason: {j.reason}"]
    if j.failing is not None:
        lines.append(f"  failing subterm: {show(j.failing)}")
    return lines
