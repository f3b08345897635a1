"""A syntax-directed typing discipline that entails rooted security.

The rules walk the term structure: low and silent prefixes are always
fine, a high prefix must lead either to a stuck place or to more high
behaviour, and a choice containing a high branch must offer the same
restricted behaviour with and without that branch, which is decided
semantically.  Choices are searched modulo their reordering laws, so a
term is accepted whenever some rearrangement of its choices is.
"""

from dataclasses import dataclass

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


def type_check(spec: Spec) -> TypingJudgment:
    """Type main against the security discipline.

    main and each constant body are normalized once, modulo
    commutativity, associativity, idempotence and dropped 0 summands,
    and the subterms of a normal form are normal forms, so the rules
    meet normal forms only.  A choice with high branches is searched
    over all ways of singling one out.  Results are memoized on the
    rendering plus the set of constants already under scan, and side
    conditions on the pair of renderings.
    """
    found = _Typing(spec).check(normalize_sum(spec.main), frozenset())
    if isinstance(found, Derivation):
        return TypingJudgment(spec.main, True, found)
    reason, failing = found
    return TypingJudgment(spec.main, False, None, reason, failing)


class _Typing:
    """The memos of one type_check call and the rules that fill them.

    A rule gives a Derivation or a (reason, failing subterm) pair, and
    stops at its first failing premise.  No query re-enters itself: each
    premise unfolds a constant not yet under scan or is a smaller normal
    form.
    """

    def __init__(self, spec: Spec):
        self.spec = spec
        self.memo, self.bodies, self.equal = {}, {}, {}

    def body(self, name) -> Term:
        if name not in self.bodies:
            self.bodies[name] = normalize_sum(self.spec.body_of(name))
        return self.bodies[name]

    def equivalent(self, p, q) -> bool:
        key = (show(p), show(q))
        if key not in self.equal:
            self.equal[key] = decide_equational(p, q, self.spec)
        return self.equal[key]

    def derive(self, rule, t, scanned, premises=()):
        """Apply rule to t once each premise, a (term, scanned) pair, is
        typed; else fail as the first untyped premise does."""
        children = []
        for u, under in premises:
            found = self.check(u, under)
            if not isinstance(found, Derivation):
                return found
            children.append(found)
        return Derivation(rule, t, scanned, tuple(children))

    def check(self, t, scanned):
        # the rules live here, not in a helper, so that a prefix costs
        # two frames per level, check and derive
        key = (show(t), scanned)
        memo = self.memo
        if key in memo:
            return memo[key]
        derive, spec = self.derive, self.spec
        match t:
            case Nil():
                found = derive("nil", t, scanned)
            case Par(operands):
                found = derive("par", t, scanned,
                               [(u, scanned) for u in operands])
            case Const(name) if name in scanned:
                found = derive("const-scanned", t, scanned)
            case Const(name):
                found = derive("const-def", t, scanned,
                               [(self.body(name), scanned | {name})])
            case Prefix(action, body) if not action.is_high:
                found = derive("prefix-low", t, scanned, [(body, scanned)])
            case Prefix(_, body) if is_deadlock_place(body, spec):
                found = derive("prefix-high-stuck", t, scanned)
            case Prefix(_, body) if _only_high(lts_step(body, spec)):
                found = derive("prefix-high-high", t, scanned,
                               [(body, scanned)])
            case Prefix():
                found = ("a high prefix must lead to a stuck place or to "
                         "exclusively high behaviour", t)
            case Sum():
                found = self.check_choice(t, scanned)
            case _:
                raise TypeError(f"not a term: {t!r}")
        memo[key] = found
        return found

    def check_choice(self, t, scanned):
        parts = t.operands
        high_at = [i for i, part in enumerate(parts)
                   if isinstance(part, Prefix) and part.action.is_high]
        if not high_at:
            return self.derive("choice-low", t, scanned,
                               [(part, scanned) for part in parts])

        failures = []
        for i in high_at:
            picked = parts[i]
            if picked.body == NIL:
                failures.append(f"{show(picked)} guards 0, which vanishes")
                continue
            # the rest of a normal form's summands is a normal form
            rest = parts[:i] + parts[i + 1:]
            remainder = rest[0] if len(rest) == 1 else Sum(*rest)
            branch = self.check(picked.body, scanned)
            if not isinstance(branch, Derivation):
                failures.append(f"{show(picked.body)} is not typable")
                continue
            kept = self.check(remainder, scanned)
            if not isinstance(kept, Derivation):
                failures.append(f"{show(remainder)} is not typable")
                continue
            if not self.equivalent(picked.body, remainder):
                failures.append(
                    f"{show(picked.body)} and {show(remainder)} differ "
                    "once high actions are hidden")
                continue
            return Derivation("choice-high", Sum(picked, remainder), scanned,
                              (branch, kept))
        detail = "; ".join(dict.fromkeys(failures)) or "no high branch to single out"
        return f"no arrangement of this choice is typable: {detail}", t


def _only_high(moves) -> bool:
    return bool(moves) and all(action.is_high for action, _ in moves)


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
