"""The definition of firing on collections.Counter multisets, literal
branching-bisimulation oracles, the definitional check as it was before
its edge filter, SBNDC on the whole interleaving product, the term
transition system explored on whole terms, the character scanner and
the parser it fed, the recursive term walks the package replaced
(parsing, rendering, categories, constant names and derivation
listings), the typing as it was before it judged normal
forms only, typing's side condition by its definition, randomized nets,
terms, specifications and axiom instances, and every spec of a small
scope and of its choices, for the tests.

The oracles use only public engine names, so they check the refinement
engine and the marking exploration independently.  Generators draw from a caller-supplied
random.Random, reproducible from a seed; axiom instances meet each
law's side conditions by construction or by bounded resampling.
"""

import string
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace

from cfmcheck.cli import _json_text, _judgment_json
from cfmcheck.equiv import (
    Partition, branching_bisim, strong_partition, terms_equiv,
)
from cfmcheck.net import (
    Lts, Net, StateLimitError, Transition, build_lts, build_net, dec,
    lts_step, reach_graph, restrict_net,
)
from cfmcheck.security import Verdict, Witness
from cfmcheck.syntax import (
    GUARDED, KEYWORDS, NIL, PARALLEL, SEQUENTIAL, TAU, TAU_NAME,
    CategoryError, Const, Nil, Par, ParseError, Prefix, Spec, SpecError, Sum,
    Term, category, const_names, high, low, normalize_sum, restrict_syntactic,
    show, validate_spec,
)
from cfmcheck.typesystem import (
    Derivation, TypingJudgment, decide_equational, is_deadlock_place,
    judgment_lines,
)


# ---------------------------------------------------------------------------
# syntactic helpers

def make_spec(high_names=(), defs=None, main=NIL) -> Spec:
    """Assemble and validate a Spec from already-built terms."""
    spec = Spec(frozenset(high_names), dict(defs or {}), main)
    validate_spec(spec)
    return spec


def reachable_consts(t: Term, spec: Spec) -> set:
    """Constants reachable from t through definition bodies, transitively."""
    seen = set()
    frontier = set(const_names(t))
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier |= const_names(spec.body_of(name))
    return seen


def sort(t: Term, spec: Spec) -> frozenset:
    """All actions occurring in t or in the bodies of its reachable constants."""
    acts = set()

    def walk(u):
        match u:
            case Nil() | Const(_):
                pass
            case Prefix(action, body):
                acts.add(action)
                walk(body)
            case Sum(operands) | Par(operands):
                for v in operands:
                    walk(v)

    walk(t)
    for name in reachable_consts(t, spec):
        walk(spec.body_of(name))
    return frozenset(acts)


def rename_consts(t: Term, mapping: dict) -> Term:
    """Substitute constants by name; mapping values are replacement terms."""
    match t:
        case Nil():
            return t
        case Const(name):
            return mapping.get(name, t)
        case Prefix(action, body):
            return Prefix(action, rename_consts(body, mapping))
        case Sum(operands) | Par(operands):
            return type(t)(*(rename_consts(u, mapping) for u in operands))
    raise TypeError(f"not a term: {t!r}")


def is_observationally_guarded(name: str, spec: Spec) -> bool:
    """True unless the constant can silently reach itself again.

    The witnessing cycle is a nonempty sequence of tau transitions from
    the constant back to the constant itself as a syntactic term.
    """
    start = Const(name)
    seen = set()
    frontier = [start]
    while frontier:
        term = frontier.pop()
        for action, successor in lts_step(term, spec):
            if not action.is_tau:
                continue
            if successor == start:
                return False
            key = show(successor)
            if key not in seen:
                seen.add(key)
                frontier.append(successor)
    return True


# ---------------------------------------------------------------------------
# the scanner and parser the package replaced, as oracles for the lexer
# and the parser

_IDENT_START = set(string.ascii_letters)
_IDENT_REST = set(string.ascii_letters + string.digits + "_'")


class _Scanner:
    """Token stream over one source line, read one character at a time."""

    def __init__(self, text, line):
        self.text = text
        self.line = line
        self.pos = 0

    def error(self, message, column=None):
        raise ParseError(message, self.line, self.pos + 1 if column is None else column)

    def skip_space(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def take(self, expected):
        self.skip_space()
        if not self.text.startswith(expected, self.pos):
            got = self.text[self.pos:self.pos + 1] or "end of line"
            self.error(f"expected {expected!r}, found {got!r}")
        self.pos += len(expected)

    def try_take(self, expected):
        self.skip_space()
        if self.text.startswith(expected, self.pos):
            self.pos += len(expected)
            return True
        return False

    def ident(self):
        self.skip_space()
        start = self.pos
        if start >= len(self.text) or self.text[start] not in _IDENT_START:
            got = self.text[start:start + 1] or "end of line"
            self.error(f"expected a name, found {got!r}")
        end = start + 1
        while end < len(self.text) and self.text[end] in _IDENT_REST:
            end += 1
        self.pos = end
        return self.text[start:end]

    def at_end(self):
        self.skip_space()
        return self.pos >= len(self.text)


def naive_parse_term(scanner, high_names) -> Term:
    """par := sum ('|' sum)* ; sum := prefix ('+' prefix)* ;
    prefix := (action '.')* atom ; atom := '0' | CONST | '(' par ')'.

    The recursive-descent parser that syntax._parse_term replaced; it
    builds every run from two operands at a time."""
    term = _naive_parse_sum(scanner, high_names)
    while scanner.try_take("|"):
        term = Par(term, _naive_parse_sum(scanner, high_names))
    return term


def _naive_parse_sum(scanner, high_names) -> Term:
    term = _naive_parse_prefix(scanner, high_names)
    while scanner.try_take("+"):
        term = Sum(term, _naive_parse_prefix(scanner, high_names))
    return term


def _naive_parse_prefix(scanner, high_names) -> Term:
    """Read a.b.c.atom in a loop, then build the prefixes inside-out."""
    actions = []
    while True:
        if scanner.try_take("0"):
            term = NIL
            break
        if scanner.try_take("("):
            term = naive_parse_term(scanner, high_names)
            scanner.take(")")
            break
        column = scanner.pos + 1
        name = scanner.ident()
        if name[0].isupper():
            term = Const(name)
            break
        # a lowercase name here must be an action prefix
        actions.append(_naive_action_of(scanner, high_names, name, column))
        scanner.take(".")
    for action in reversed(actions):
        term = Prefix(action, term)
    return term


def _naive_action_of(scanner, high_names, name, column):
    if name == TAU_NAME:
        return TAU
    if name in KEYWORDS:
        scanner.error(f"{name} is a reserved word", column)
    if not name[0].islower():
        scanner.error(f"action names are lowercase, found {name!r}", column)
    return high(name) if name in high_names else low(name)


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def naive_parse_spec(text: str) -> Spec:
    """parse_spec as it was: each line scanned one character at a time,
    comments stripped and lines classified in each of two passes."""
    lines = text.splitlines()

    high_names = set()
    for number, raw in enumerate(lines, start=1):
        body = _strip_comment(raw).strip()
        if not body.startswith("high") or body[4:5] not in ("", " ", "\t"):
            continue
        scanner = _Scanner(_strip_comment(raw), number)
        scanner.take("high")
        while True:
            scanner.skip_space()
            column = scanner.pos + 1
            name = scanner.ident()
            if name == TAU_NAME:
                scanner.error("tau cannot be declared high", column)
            if not name[0].islower():
                scanner.error(f"high declares action names, found {name!r}", column)
            high_names.add(name)
            if not scanner.try_take(","):
                break
        if not scanner.at_end():
            scanner.error("unexpected trailing input")

    defs = {}
    main = None
    for number, raw in enumerate(lines, start=1):
        body = _strip_comment(raw).strip()
        if not body or (body.startswith("high") and body[4:5] in ("", " ", "\t")):
            continue
        scanner = _Scanner(_strip_comment(raw), number)
        scanner.skip_space()
        column = scanner.pos + 1
        name = scanner.ident()
        scanner.take(":=")
        term = naive_parse_term(scanner, high_names)
        if not scanner.at_end():
            scanner.error("unexpected trailing input")
        if name == "main":
            if main is not None:
                raise ParseError("main is defined twice", number, column)
            main = term
        elif name[0].isupper():
            if name in defs:
                raise ParseError(f"constant {name} is defined twice", number, column)
            defs[name] = term
        else:
            raise ParseError(
                f"definitions bind constants or main, found {name!r}", number, column)

    if main is None:
        raise ParseError("specification has no main term", len(lines) + 1, 1)

    spec = Spec(frozenset(high_names), defs, main)
    validate_spec(spec)
    return spec


def naive_parse_text(text: str, spec: Spec) -> Term:
    """parse_term as it was, on the character scanner."""
    scanner = _Scanner(text, 1)
    term = naive_parse_term(scanner, spec.high_names)
    if not scanner.at_end():
        scanner.error("unexpected trailing input")
    for name in const_names(term):
        if name not in spec.defs:
            raise SpecError(f"undefined process constant {name}")
    category(term)
    return term


def parse_outcome(parse, *args):
    """What parse(*args) gives: the term, the high names, definitions
    and main of the Spec, or the type and text of the SpecError raised."""
    try:
        found = parse(*args)
    except SpecError as error:
        return type(error), str(error)
    if isinstance(found, Spec):
        return sorted(found.high_names), list(found.defs.items()), found.main
    return found


def spec_text(spec: Spec) -> str:
    """spec written out: its high declaration, each definition, then main."""
    lines = [f"high {', '.join(sorted(spec.high_names))}"] if spec.high_names else []
    lines += [f"{name} := {show(body)}" for name, body in spec.defs.items()]
    return "\n".join([*lines, f"main := {show(spec.main)}"]) + "\n"


# ---------------------------------------------------------------------------
# the recursive term walks, as oracles for the terms' cached renderings
# and the package's iterative walks

def naive_show(t: Term) -> str:
    """The canonical rendering, recomputed over the whole term: a run
    folds its operands pairwise by the binary rule, which parenthesizes
    a right operand of the run's own kind."""
    match t:
        case Nil():
            return "0"
        case Const(name):
            return name
        case Prefix(action, body):
            inner = naive_show(body)
            if isinstance(body, (Sum, Par)):
                inner = f"({inner})"
            return f"{action}.{inner}"
        case Sum(operands) | Par(operands):
            joint = " + " if isinstance(t, Sum) else " | "
            text = naive_show(operands[0])
            for right in operands[1:]:
                rhs = naive_show(right)
                if type(right) is type(t):
                    rhs = f"({rhs})"
                text = f"{text}{joint}{rhs}"
            return text
    raise TypeError(f"not a term: {t!r}")


def naive_category(t: Term) -> str:
    """The category of t, raising on the first violation found depth first."""
    match t:
        case Nil():
            return GUARDED
        case Const(_):
            return SEQUENTIAL
        case Prefix(_, body):
            if naive_category(body) == PARALLEL:
                raise CategoryError(
                    f"parallel composition under an action prefix: {show(t)}")
            return GUARDED
        case Sum(operands):
            for side in operands:
                kind = naive_category(side)
                if kind == SEQUENTIAL:
                    raise CategoryError(
                        f"constant {show(side)} used directly as a summand in {show(t)}")
                if kind == PARALLEL:
                    raise CategoryError(
                        f"parallel composition used as a summand in {show(t)}")
            return GUARDED
        case Par(operands):
            for u in operands:
                naive_category(u)
            return PARALLEL
    raise TypeError(f"not a term: {t!r}")


def naive_const_names(t: Term) -> set:
    match t:
        case Nil():
            return set()
        case Const(name):
            return {name}
        case Prefix(_, body):
            return naive_const_names(body)
        case Sum(operands) | Par(operands):
            return set().union(*map(naive_const_names, operands))
    raise TypeError(f"not a term: {t!r}")


def naive_derivation_lines(d, depth: int = 0) -> list:
    """A derivation listing, one rule per line, recursing into premises."""
    scanned = f"  [scanning {', '.join(sorted(d.scanned))}]" if d.scanned else ""
    lines = [f"{'  ' * depth}{d.rule}: {naive_show(d.term)}{scanned}"]
    for child in d.children:
        lines.extend(naive_derivation_lines(child, depth + 1))
    return lines


def subterms(t: Term) -> list:
    """Every subterm of t, t included, in preorder."""
    found, stack = [], [t]
    while stack:
        u = stack.pop()
        found.append(u)
        if isinstance(u, Prefix):
            stack.append(u.body)
        elif isinstance(u, (Sum, Par)):
            stack += reversed(u.operands)
    return found


# ---------------------------------------------------------------------------
# typing as it was: every subterm normalized again, judgments throughout,
# and the side condition by its definition

@dataclass(frozen=True)
class _NaiveJudgment:
    term: Term
    scanned: frozenset
    typed: bool
    derivation: Derivation | None = None
    reason: str = ""
    failing: Term | None = None


def naive_type_check(spec: Spec, asked=None) -> TypingJudgment:
    """type_check as it was before the typing judged normal forms only.

    Each query normalizes its term again, memoized on the rendering; a
    query in progress reads as untypable; every premise is judged before
    the first failing one is reported.  Each side condition decided is
    appended to the list asked, when one is given, as (p, q, verdict).
    """
    found = _NaiveTyping(spec, asked).check(spec.main, frozenset())
    return TypingJudgment(found.term, found.typed, found.derivation,
                          found.reason, found.failing)


class _NaiveTyping:
    def __init__(self, spec: Spec, asked):
        self.spec, self.asked = spec, asked
        self.memo, self.normal, self.equal = {}, {}, {}

    def check(self, t, scanned) -> _NaiveJudgment:
        shown = show(t)
        canon = self.normal.get(shown)
        if canon is None:
            canon = self.normal[shown] = normalize_sum(t)
        key = (show(canon), scanned)
        memo = self.memo
        if key not in memo:
            memo[key] = _NaiveJudgment(canon, scanned, False, None,
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
            if self.asked is not None:
                self.asked.append((p, q, self.equal[key]))
        return self.equal[key]

    def judge(self, t, scanned) -> _NaiveJudgment:
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

    def judge_choice(self, t, scanned) -> _NaiveJudgment:
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
            return _NaiveJudgment(t, scanned, True, node)
        detail = "; ".join(dict.fromkeys(failures)) or "no high branch to single out"
        return _untyped(t, scanned, t,
                        f"no arrangement of this choice is typable: {detail}")


def _typed(t, scanned, rule, children=()) -> _NaiveJudgment:
    return _NaiveJudgment(t, scanned, True,
                          Derivation(rule, t, scanned, tuple(children)))


def _combine(t, scanned, rule, children) -> _NaiveJudgment:
    for child in children:
        if not child.typed:
            return _NaiveJudgment(t, scanned, False, None,
                                  child.reason, child.failing)
    node = Derivation(rule, t, scanned,
                      tuple(child.derivation for child in children))
    return _NaiveJudgment(t, scanned, True, node)


def _untyped(t, scanned, failing, reason) -> _NaiveJudgment:
    return _NaiveJudgment(t, scanned, False, None, reason, failing)


def type_outputs(judgment: TypingJudgment) -> tuple:
    """What cfmcheck type prints for judgment: its text lines and its
    JSON text."""
    return judgment_lines(judgment), _json_text(_judgment_json(judgment))


def syntactic_equational(p, q, spec):
    """The side condition by its definition: restrict p | q syntactically
    in one call, so both sides share their primed constants, and compare
    the two sides up to rooted team equivalence."""
    # 0 opens the run, so that p and q stay one operand each
    restricted, extended = restrict_syntactic(Par(NIL, p, q), spec)
    _, left, right = restricted.operands
    return terms_equiv(left, right, extended, rooted=True)


# ---------------------------------------------------------------------------
# firing and the oracles, independent of the refinement engine

class NotEnabledError(ValueError):
    """Firing was attempted for a transition without its input token."""


def key_of(m: Counter) -> tuple:
    """The marking key of a multiset of places."""
    return tuple(sorted(m.elements()))


def class_of(part: Partition, place: int) -> int:
    return part.places_key([place])[0]


def fire(net: Net, m: Counter, t: Transition) -> Counter:
    """Fire t at the multiset of places m: consume the input token,
    produce the output token."""
    if m[t.pre] < 1:
        raise NotEnabledError(f"{net.names[t.pre]} holds no token")
    return m - Counter([t.pre]) + Counter([] if t.post is None else [t.post])


def fired_reach_graph(net: Net, limit: int) -> tuple:
    """The marking graph by the definition of firing: fire() at every
    reached multiset, in breadth-first order, each interned by its key.
    Returns (keys, edges) as reach_graph does with every edge kept, and
    raises StateLimitError as it does."""
    keys, markings, edges = [net.initial], [Counter(net.initial)], []
    index = {net.initial: 0}
    for cursor, m in enumerate(markings):
        for place in sorted(m):
            for t in net.out(place):
                after = fire(net, m, t)
                key = key_of(after)
                if key not in index:
                    if len(keys) >= limit:
                        raise StateLimitError(limit, cursor)
                    index[key] = len(keys)
                    keys.append(key)
                    markings.append(after)
                edges.append((cursor, t, index[key]))
    return keys, edges


def silent_closure(net: Net, place: int) -> frozenset:
    """Everything reachable from place through tau transitions.

    The result contains places and possibly None, the empty marking,
    and always contains the starting place itself.
    """
    seen = {place}
    frontier = [place]
    while frontier:
        p = frontier.pop()
        for t in net.out(p):
            if t.label.is_tau and t.post not in seen:
                seen.add(t.post)
                if t.post is not None:
                    frontier.append(t.post)
    return frozenset(seen)


def _closures(net: Net) -> list:
    """Per place, the places it reaches through silent moves."""
    return [tuple(p for p in silent_closure(net, place) if p is not None)
            for place in range(len(net.names))]


def _transfers(net: Net, closures, related, a: int, b: int) -> bool:
    """Does b answer every move of a, as branching bisimulation demands?

    A silent move may be dropped against a silently reached relative of
    both endpoints, and any move may be matched after silent preparation,
    with targets related or both empty.  related(x, y) is the candidate
    relation.
    """
    for t in net.out(a):
        m1 = t.post
        if t.label.is_tau and m1 is not None and any(
                related(a, u) and related(m1, u) for u in closures[b]):
            continue
        if not any(t2.label == t.label
                   and (t2.post is None if m1 is None
                        else t2.post is not None and related(m1, t2.post))
                   for u in closures[b] if related(a, u)
                   for t2 in net.out(u)):
            return False
    return True


def naive_branching_fixpoint(net: Net, max_places: int = 200) -> Partition:
    """Oracle engine: shrink the all-pairs relation until it transfers.

    A pair of places survives while each side answers every move of the
    other (see _transfers).  Quadratic in places.
    """
    n = len(net.names)
    if n > max_places:
        raise ValueError(f"oracle is capped at {max_places} places, net has {n}")

    closures = _closures(net)
    related = [set(range(n)) for _ in range(n)]

    def relates(x, y):
        return y in related[x]

    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in sorted(related[a]):
                if b <= a:
                    continue
                if not (_transfers(net, closures, relates, a, b)
                        and _transfers(net, closures, relates, b, a)):
                    related[a].discard(b)
                    related[b].discard(a)
                    changed = True

    # the fixpoint is an equivalence; grouping identical rows recovers it
    class_of = [0] * (n + 1)
    rows = {}
    for place in range(n):
        row = frozenset(related[place])
        assert all(frozenset(related[b]) == row for b in row), \
            "fixpoint relation is not transitive"
        class_of[place] = rows.setdefault(row, len(rows))
    class_of[n] = len(rows)
    return Partition(net, class_of)


def is_branching_bisimulation(net: Net, part: Partition) -> bool:
    """Check the transfer property for every pair the partition relates."""
    n = len(net.names)
    closures = _closures(net)
    for members in part.classes:
        places = sorted(e for e in members if e < n)
        if len(members) != len(places):  # the empty-marking class
            if places:
                return False
            continue
        for i, a in enumerate(places):
            for b in places[i + 1:]:
                if not (_transfers(net, closures, part.same_class, a, b)
                        and _transfers(net, closures, part.same_class, b, a)):
                    return False
    return True


# ---------------------------------------------------------------------------
# the definitional check over every edge, as it was before flat keys

def pair_key_reach_graph(net: Net, limit: int) -> tuple:
    """The marking graph fired on sorted (place, count) keys, every edge
    kept: (keys, edges) in breadth-first order.  Firing drops one
    count of t.pre and bisects t.post's count in.  Reaching more than
    limit markings raises StateLimitError with the number of markings
    fully expanded by then."""
    def firings(key):
        for k, (place, count) in enumerate(key):
            if count > 1:
                rest = key[:k] + ((place, count - 1),) + key[k + 1:]
            else:
                rest = key[:k] + key[k + 1:]
            for t in net.out(place):
                post = t.post
                if post is None:
                    yield t, rest
                    continue
                j = bisect_left(rest, (post,))
                if j < len(rest) and rest[j][0] == post:
                    yield t, rest[:j] + ((post, rest[j][1] + 1),) + rest[j + 1:]
                else:
                    yield t, rest[:j] + ((post, 1),) + rest[j:]

    keys = [tuple(sorted(Counter(net.initial).items()))]
    index = {keys[0]: 0}
    edges = []
    for cursor, key in enumerate(keys):
        for t, after in firings(key):
            if after not in index:
                if len(keys) >= limit:
                    raise StateLimitError(limit, cursor)
                index[after] = len(keys)
                keys.append(after)
            edges.append((cursor, t, index[after]))
    return keys, edges


def all_edges_definitional(spec: Spec, limit: int = 10 ** 6) -> Verdict:
    """The definitional check over every marking as a (place, count)
    key and every edge: each high edge whose endpoints differ in their
    multisets of restricted branching classes is a witness, its context
    the source marking less the consumed token.  Stats: markings and
    steps."""
    net = build_net(spec)
    part = branching_bisim(restrict_net(net))
    markings, edges = pair_key_reach_graph(net, limit)
    names = net.names

    def classes(pairs):
        return sorted(class_of(part, p) for p, c in pairs for _ in range(c))

    witnesses = []
    for source, t, target in edges:
        if (t.label.is_high
                and classes(markings[source]) != classes(markings[target])):
            context = tuple(names[p] for p, c in markings[source]
                            for _ in range(c - (p == t.pre)))
            witnesses.append(Witness(
                (names[t.pre], str(t.label),
                 None if t.post is None else names[t.post]), context,
                "the marking after this high step is observably different"))
    return Verdict.decide("definitional", witnesses, markings=len(markings),
                          steps=len(edges))


def product_sbndc(spec: Spec, limit: int = 10 ** 6) -> Verdict:
    """SBNDC as it was before the leaves were checked first: on the whole
    transition system of main from build_lts, every high edge whose two
    ends are not strongly bisimilar once high edges are pruned is a
    witness.  Stats: states and steps, the states and edges of that
    system.  Raises StateLimitError past limit states."""
    lts = build_lts(spec, limit=limit)
    low_edges = [e for e in lts.edges if not e[1].is_high]
    class_of = strong_partition(len(lts.states), low_edges)
    witnesses = []
    for source, action, target in lts.edges:
        if action.is_high and class_of[source] != class_of[target]:
            witnesses.append(Witness(
                (lts.names[source], str(action), lts.names[target]), None,
                "the states before and after this high step are "
                "distinguishable through low actions"))
    return Verdict.decide("sbndc", witnesses, states=len(lts.states),
                          steps=len(lts.edges))


def sbndc_outcome(check, spec: Spec, limit: int = 10 ** 6) -> tuple:
    """What the SBNDC check and its product oracle must agree on: the
    verdict, the witnesses, states and steps, or ("capped", explored)
    when the check hits its cap."""
    try:
        v = check(spec, limit)
    except StateLimitError as error:
        return "capped", error.explored
    return v.secure, v.witnesses, v.stats["states"], v.stats["steps"]


def marking_graph_matches_lts(spec: Spec, limit: int) -> bool:
    """Are the marking graph of spec's net and the transition system of
    main, explored on whole terms, strongly bisimilar, each term state to
    the marking of its decomposition?  Raises StateLimitError past limit
    markings or states."""
    net = build_net(spec)
    keys, marking_edges, _ = reach_graph(net, lambda t: True, limit)
    lts = term_lts(spec, limit=limit)
    offset = len(lts.states)
    edges = list(lts.edges)
    edges.extend((offset + a, t.label, offset + b)
                 for a, t, b in marking_edges)
    cls = strong_partition(offset + len(keys), edges)
    marking = {key: offset + i for i, key in enumerate(keys)}
    return all(cls[i] == cls[marking[tuple(map(net.index.__getitem__,
                                                 dec(term)))]]
               for i, term in enumerate(lts.states))


# ---------------------------------------------------------------------------
# the term transition system, explored on whole terms

def term_moves(t: Term, spec: Spec) -> list:
    """The distinct moves of t as (action, rendering, successor): choice
    offers both summands, a constant moves like its body, and parallel
    composition interleaves, left operand first.  A move is kept once
    per action and rendering of its successor."""
    seen = set()
    result = []

    def walk(u, wrap):
        match u:
            case Prefix(action, body):
                successor = wrap(body)
                key = show(successor)
                if (action, key) not in seen:
                    seen.add((action, key))
                    result.append((action, key, successor))
            case Sum(operands):
                for v in operands:
                    walk(v, wrap)
            case Const(name):
                walk(spec.body_of(name), wrap)
            case Par(operands):
                for i, v in enumerate(operands):
                    walk(v, lambda w, i=i: wrap(
                        Par(*operands[:i], w, *operands[i + 1:])))

    walk(t, lambda v: v)
    return result


def term_lts(spec: Spec, limit: int = 10 ** 6) -> Lts:
    """The transition system of main explored on whole terms, each state
    interned by its rendering, breadth-first from main, state 0.
    Reaching more than limit states raises StateLimitError with the
    number of states fully expanded by then."""
    names, states, edges = [show(spec.main)], [spec.main], []
    index = {names[0]: 0}
    for cursor, term in enumerate(states):
        for action, key, successor in term_moves(term, spec):
            if key not in index:
                if len(names) >= limit:
                    raise StateLimitError(limit, cursor)
                index[key] = len(names)
                names.append(key)
                states.append(successor)
            edges.append((cursor, action, index[key]))
    return Lts(tuple(states), tuple(names), tuple(edges), (0,))


def lts_summary(explore, spec: Spec, limit: int) -> tuple:
    """What build_lts and term_lts must agree on: the names, edges, roots
    and number of states of explore(spec, limit), or ("capped",
    explored) when the exploration hits its cap."""
    try:
        lts = explore(spec, limit)
    except StateLimitError as error:
        return "capped", error.explored
    return lts.names, lts.edges, lts.roots, len(lts.states)


# ---------------------------------------------------------------------------
# random nets, terms and specifications

LOW_NAMES = ("a", "b", "c")
HIGH_NAMES = ("h", "k")
VAR = "X"  # placeholder constant used in open terms


def random_net(rng, max_places: int = 50, max_transitions: int = 120,
               tau_density: float = 0.3, vanish: float = 0.15,
               alphabet=("a", "b", "c", "d")) -> Net:
    """A net with random wiring; token flow may die out or cycle."""
    places = rng.randint(1, max_places)
    names = [f"s{i}" for i in range(places)]
    transitions = set()
    for _ in range(rng.randint(0, max_transitions)):
        pre = rng.choice(names)
        label = TAU if rng.random() < tau_density else low(rng.choice(alphabet))
        post = None if rng.random() < vanish else rng.choice(names)
        transitions.add((pre, label, post))
    tokens = rng.randint(1, min(3, places))
    return Net(names, transitions, rng.sample(names, tokens))


def random_marking(rng, net: Net, max_tokens: int = 6) -> tuple:
    """The key of a random marking over the interned places of net."""
    if not net.names:
        return ()
    count = rng.randint(0, max_tokens)
    return tuple(sorted(rng.randrange(len(net.names)) for _ in range(count)))


def _action(rng, p_tau, p_high):
    roll = rng.random()
    if roll < p_tau:
        return TAU
    if roll < p_tau + p_high:
        return high(rng.choice(HIGH_NAMES))
    return low(rng.choice(LOW_NAMES))


def random_guarded(rng, depth: int, consts=(), p_tau: float = 0.2,
                   p_high: float = 0.25, p_const: float = 0.3) -> Term:
    """A random term of the guarded category."""
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return NIL
    if roll < 0.7:
        action = _action(rng, p_tau, p_high)
        if consts and rng.random() < p_const:
            return Prefix(action, Const(rng.choice(list(consts))))
        return Prefix(action, random_guarded(rng, depth - 1, consts,
                                             p_tau, p_high, p_const))
    return Sum(random_guarded(rng, depth - 1, consts, p_tau, p_high, p_const),
               random_guarded(rng, depth - 1, consts, p_tau, p_high, p_const))


def random_sequential(rng, depth: int, consts=(), **weights) -> Term:
    """A random sequential term: either a constant or a guarded term."""
    if consts and rng.random() < 0.35:
        return Const(rng.choice(list(consts)))
    return random_guarded(rng, depth, consts, **weights)


def bracketed(rng, parts, kind=Par) -> Term:
    """The terms parts composed by kind (| or +) in order, under a random
    bracketing such as p | (q | r) or (p | q) | (r | s)."""
    if len(parts) == 1:
        return parts[0]
    k = rng.randint(1, len(parts) - 1)
    return kind(bracketed(rng, parts[:k], kind),
                bracketed(rng, parts[k:], kind))


def random_spec(rng, max_consts: int = 6, max_depth: int = 5,
                max_par: int = 4, **weights) -> Spec:
    """A random full specification over a small mixed alphabet."""
    names = [f"P{i}" for i in range(rng.randint(0, max_consts))]
    defs = {name: random_guarded(rng, rng.randint(1, max_depth), names,
                                 **weights)
            for name in names}
    width = rng.randint(1, max_par)
    parts = [random_sequential(rng, rng.randint(1, max_depth), names,
                               **weights)
             for _ in range(width)]
    main = Par(*parts) if width > 1 else parts[0]
    return make_spec(HIGH_NAMES, defs, main)


def random_unchecked(rng, depth: int, consts=("P0", "P1")) -> Term:
    """A random term of any shape, category violations included: | under
    a prefix or in a choice, a constant as a summand."""
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return NIL if rng.random() < 0.6 else Const(rng.choice(consts))
    if roll < 0.5:
        return Prefix(_action(rng, 0.2, 0.25),
                      random_unchecked(rng, depth - 1, consts))
    kind = Sum if roll < 0.8 else Par
    return kind(random_unchecked(rng, depth - 1, consts),
                random_unchecked(rng, depth - 1, consts))


def random_parallel(rng, depth: int = 3, max_width: int = 3) -> Term:
    """A random parallel term without constants."""
    parts = [random_guarded(rng, depth)
             for _ in range(rng.randint(1, max_width))]
    return Par(*parts) if len(parts) > 1 else parts[0]


# ---------------------------------------------------------------------------
# every spec of a small scope

def guarded_terms(max_nodes: int, actions, consts) -> list:
    """Every guarded term of at most max_nodes nodes over actions and
    the constants named consts, 0 and each constant counting as one
    node, smallest first."""
    by_size = [[], [NIL]]
    for size in range(2, max_nodes + 1):
        bodies = by_size[size - 1] + (
            [Const(name) for name in consts] if size == 2 else [])
        terms = [Prefix(action, body) for action in actions for body in bodies]
        terms += [Sum(left, right) for k in range(1, size - 1)
                  for left in by_size[k] for right in by_size[size - 1 - k]]
        by_size.append(terms)
    return [t for terms in by_size for t in terms]


def small_specs(max_nodes: int = 3):
    """Every spec of the small scope: high h, constants A and B whose
    bodies are guarded terms over a, h and tau of at most max_nodes
    nodes, and main A, A | B or A | A.  Of two A | B specs that swapping
    the names A and B turns into each other, only the first is made."""
    a, b = Const("A"), Const("B")
    bodies = guarded_terms(max_nodes, (low("a"), high("h"), TAU), "AB")
    position = {body: i for i, body in enumerate(bodies)}
    swapped = [position[rename_consts(body, {"A": b, "B": a})]
               for body in bodies]
    for main in (a, Par(a, b), Par(a, a)):
        for i, body_a in enumerate(bodies):
            for j, body_b in enumerate(bodies):
                if main == Par(a, b) and (swapped[j], swapped[i]) < (i, j):
                    continue
                yield make_spec(["h"], {"A": body_a, "B": body_b}, main)


def choice_specs(max_nodes: int = 3):
    """Specs whose typing singles out a high branch of a choice: main A,
    the body of A a choice of a high-prefixed term and another prefixed
    term, each a guarded term over a, h and tau of at most max_nodes
    nodes, and the body of B a guarded term of at most two nodes without
    constants.  A choice of two high terms is made in one order only."""
    actions = (low("a"), high("h"), TAU)
    prefixed = [t for t in guarded_terms(max_nodes, actions, "AB")
                if isinstance(t, Prefix)]
    highs = [t for t in prefixed if t.action.is_high]
    others = [t for t in prefixed if not t.action.is_high]
    for i, p in enumerate(highs):
        for q in highs[i + 1:] + others:
            for body_b in guarded_terms(2, actions, ""):
                yield make_spec(["h"], {"A": Sum(p, q), "B": body_b},
                                Const("A"))


# ---------------------------------------------------------------------------
# axiom instances

def _closed(rng, depth=3):
    return random_guarded(rng, depth, consts=())


def _nonzero(rng, depth=3):
    for _ in range(20):
        t = _closed(rng, depth)
        if t != NIL:
            return t
    return Prefix(low("a"), NIL)


def _open_guarded(rng, depth: int, p_var: float = 0.5) -> Term:
    """A guarded term that may mention the placeholder X under prefixes."""
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return NIL
    if roll < 0.7:
        action = _action(rng, 0.25, 0.2)
        if rng.random() < p_var:
            return Prefix(action, Const(VAR))
        return Prefix(action, _open_guarded(rng, depth - 1, p_var))
    return Sum(_open_guarded(rng, depth - 1, p_var),
               _open_guarded(rng, depth - 1, p_var))


def _plug(template: Term, name: str) -> Term:
    return rename_consts(template, {VAR: Const(name)})


def _recursive_pair(body_c: Term, body_d: Term) -> tuple:
    """Two constants tying the same open bodies back to themselves."""
    defs = {"C": _plug(body_c, "C"), "D": _plug(body_d, "D")}
    spec = make_spec(HIGH_NAMES, defs, NIL)
    return Const("C"), Const("D"), spec


def _simple(lhs: Term, rhs: Term) -> tuple:
    return lhs, rhs, make_spec(HIGH_NAMES, {}, NIL)


def _tau_unguarded(rng) -> Term:
    """An open guarded term whose placeholder sits under silent prefixes only."""
    choices = [
        Prefix(TAU, Const(VAR)),
        Prefix(TAU, Prefix(TAU, Const(VAR))),
        Sum(Prefix(TAU, Const(VAR)), _closed(rng, 2)),
        Prefix(TAU, Sum(Prefix(TAU, Const(VAR)), _closed(rng, 2))),
    ]
    return rng.choice(choices)


def axiom_instance(rng, name: str) -> tuple:
    """One random (lhs, rhs, spec) instance of the named law."""
    if name == "A1":
        x, y, z = _closed(rng), _closed(rng), _closed(rng)
        return _simple(Sum(x, Sum(y, z)), Sum(Sum(x, y), z))
    if name == "A2":
        x, y = _closed(rng), _closed(rng)
        return _simple(Sum(x, y), Sum(y, x))
    if name == "A3":
        x = _nonzero(rng)
        return _simple(Sum(x, NIL), x)
    if name == "A4":
        x = _nonzero(rng)
        return _simple(Sum(x, x), x)
    if name == "B":
        mu = _action(rng, 0.25, 0.25)
        x, y = _closed(rng), _closed(rng)
        return _simple(Prefix(mu, Sum(Prefix(TAU, Sum(x, y)), x)),
                       Prefix(mu, Sum(x, y)))
    if name == "R1":
        spec = make_spec(HIGH_NAMES, {"C": NIL}, NIL)
        return Const("C"), Sum(NIL, NIL), spec
    if name == "R2":
        body = _nonzero(rng)
        spec = make_spec(HIGH_NAMES, {"C": body}, NIL)
        return Const("C"), body, spec
    if name == "R3":
        # the body may not let the constant silently reach itself
        for _ in range(50):
            template = _open_guarded(rng, 3)
            if VAR not in const_names(template):
                continue
            lhs, rhs, spec = _recursive_pair(template, template)
            if is_observationally_guarded("C", spec):
                return lhs, rhs, spec
        return _recursive_pair(Prefix(low("a"), Const(VAR)),
                               Prefix(low("a"), Const(VAR)))
    if name == "U1":
        p = _open_guarded(rng, 2)
        return _recursive_pair(
            Sum(Prefix(TAU, Const(VAR)), p),
            Sum(Prefix(TAU, Sum(p, NIL)), p))
    if name == "U2":
        p, r = _open_guarded(rng, 2), _open_guarded(rng, 2)
        return _recursive_pair(
            Sum(Prefix(TAU, Sum(Prefix(TAU, Const(VAR)), p)), r),
            Sum(Prefix(TAU, Sum(p, r)), r))
    if name == "U3":
        q = _tau_unguarded(rng)
        p, r = _open_guarded(rng, 2), _open_guarded(rng, 2)
        return _recursive_pair(
            Sum(Prefix(TAU, Sum(Prefix(TAU, q), p)), r),
            Sum(Prefix(TAU, Sum(q, p)), r))
    if name == "U4":
        p, q, r = _open_guarded(rng, 2), _open_guarded(rng, 2), _open_guarded(rng, 2)
        inner = Prefix(TAU, Const(VAR))
        return _recursive_pair(
            Sum(Sum(Prefix(TAU, Sum(inner, p)), Prefix(TAU, Sum(inner, q))), r),
            Sum(Prefix(TAU, Sum(Sum(inner, p), q)), r))
    if name == "P1":
        x, y, z = (random_parallel(rng) for _ in range(3))
        return _simple(Par(x, Par(y, z)), Par(Par(x, y), z))
    if name == "P2":
        x, y = random_parallel(rng), random_parallel(rng)
        return _simple(Par(x, y), Par(y, x))
    if name == "P3":
        x = random_parallel(rng)
        return _simple(Par(x, NIL), x)
    raise ValueError(f"unknown axiom {name!r}")


AXIOM_NAMES = ("A1", "A2", "A3", "A4", "B", "R1", "R2", "R3",
               "U1", "U2", "U3", "U4", "P1", "P2", "P3")
