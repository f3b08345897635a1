"""CFM process terms: abstract syntax, parsing, and syntactic functions.

A CFM term is built from three nested categories:

  guarded     s ::= 0 | mu.q | s + s
  sequential  q ::= s | C
  parallel    p ::= q | p | p

Constant bodies must be guarded; the main term may live in any category.
Actions are partitioned into low and high names plus the silent action tau.
"""

import string
from dataclasses import dataclass, replace
from operator import itemgetter


class SpecError(Exception):
    """A specification is syntactically well formed but semantically broken."""


class ParseError(SpecError):
    """A lexical or grammatical error, with 1-based source coordinates."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class CategoryError(SpecError):
    """A term violates the guarded/sequential/parallel category discipline."""


# ---------------------------------------------------------------------------
# actions

TAU_NAME = "tau"


class Action(tuple):
    """A visible action name tagged with its security level, or tau.

    An action is the pair (level, name), so actions hash, compare and
    order as tuples do, without Python code per call.
    """

    __slots__ = ()

    def __new__(cls, level: str, name: str = ""):
        if level not in ("low", "high", "tau"):
            raise ValueError(f"unknown action level {level!r}")
        if (level == "tau") != (name == ""):
            raise ValueError("tau carries no name, visible actions need one")
        return tuple.__new__(cls, (level, name))

    level = property(itemgetter(0))
    name = property(itemgetter(1))

    def __getnewargs__(self):
        # copy and pickle rebuild an action through __new__(level, name)
        return tuple(self)

    @property
    def is_tau(self):
        return self.level == "tau"

    @property
    def is_high(self):
        return self.level == "high"

    def __repr__(self):
        return f"Action(level={self.level!r}, name={self.name!r})"

    def __str__(self):
        return self.name if self.name else TAU_NAME


TAU = Action("tau")


def low(name: str) -> Action:
    return Action("low", name)


def high(name: str) -> Action:
    return Action("high", name)


# ---------------------------------------------------------------------------
# terms

class Term:
    """Base class of the immutable term variants."""

    __slots__ = ()

    def __str__(self):
        return show(self)


@dataclass(frozen=True, slots=True)
class Nil(Term):
    pass


@dataclass(frozen=True, slots=True)
class Prefix(Term):
    action: Action
    body: Term


@dataclass(frozen=True, slots=True)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Const(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Par(Term):
    left: Term
    right: Term


NIL = Nil()


def show(t: Term) -> str:
    """Render t canonically; the result re-parses to an equal term.

    Prefixing binds tightest, then +, then |; + and | associate to the
    left, so parentheses appear only around right-nested operands and
    around composite prefix bodies.  This rendering doubles as the
    stable identity of net places, so it must stay injective on terms.
    """
    match t:
        case Nil():
            return "0"
        case Const(name):
            return name
        case Prefix(action, body):
            inner = show(body)
            if isinstance(body, (Sum, Par)):
                inner = f"({inner})"
            return f"{action}.{inner}"
        case Sum(left, right):
            lhs = show(left)
            rhs = show(right)
            if isinstance(right, Sum):
                rhs = f"({rhs})"
            return f"{lhs} + {rhs}"
        case Par(left, right):
            lhs = show(left)
            rhs = show(right)
            if isinstance(right, Par):
                rhs = f"({rhs})"
            return f"{lhs} | {rhs}"
    raise TypeError(f"not a term: {t!r}")


GUARDED = "guarded"
SEQUENTIAL = "sequential"
PARALLEL = "parallel"


def category(t: Term) -> str:
    """Classify t as guarded, sequential or parallel; raise on violations.

    The checks mirror the grammar: parallel composition may not occur
    under a prefix or inside a choice, and a constant may not be used
    directly as a summand.
    """
    match t:
        case Nil():
            return GUARDED
        case Const(_):
            return SEQUENTIAL
        case Prefix(_, body):
            if category(body) == PARALLEL:
                raise CategoryError(
                    f"parallel composition under an action prefix: {show(t)}")
            return GUARDED
        case Sum(left, right):
            for side in (left, right):
                kind = category(side)
                if kind == SEQUENTIAL:
                    raise CategoryError(
                        f"constant {show(side)} used directly as a summand in {show(t)}")
                if kind == PARALLEL:
                    raise CategoryError(
                        f"parallel composition used as a summand in {show(t)}")
            return GUARDED
        case Par(left, right):
            category(left)
            category(right)
            return PARALLEL
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# specifications

@dataclass(frozen=True, eq=False, slots=True)
class Spec:
    """A parsed specification: high alphabet, constant definitions, main term.

    Treated as immutable everywhere; derived specs are built with
    dataclasses.replace.  restricted_names memoizes the constant
    renaming performed by restrict_syntactic so repeated restrictions
    reuse the same primed constants.
    """

    high_names: frozenset
    defs: dict
    main: Term
    restricted_names: dict

    def body_of(self, name: str) -> Term:
        try:
            return self.defs[name]
        except KeyError:
            raise SpecError(f"undefined process constant {name}") from None

    def with_main(self, term: Term) -> "Spec":
        return replace(self, main=term)


def validate_spec(spec: Spec) -> None:
    """Check category discipline and definedness for every term in spec."""
    for name, body in spec.defs.items():
        if category(body) != GUARDED:
            raise CategoryError(
                f"body of {name} must be a guarded term, got {show(body)}")
    category(spec.main)
    for term in [spec.main, *spec.defs.values()]:
        for name in const_names(term):
            if name not in spec.defs:
                raise SpecError(f"undefined process constant {name}")


def const_names(t: Term) -> set:
    """Names of the constants occurring syntactically in t (no unfolding)."""
    match t:
        case Nil():
            return set()
        case Const(name):
            return {name}
        case Prefix(_, body):
            return const_names(body)
        case Sum(left, right) | Par(left, right):
            return const_names(left) | const_names(right)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# restriction at the syntax level

def restrict_syntactic(t: Term, spec: Spec) -> tuple:
    """Rewrite t so that every high prefix becomes the stuck choice 0 + 0.

    High prefixes h.p turn into 0 + 0, which deadlocks without
    vanishing, low and silent prefixes are kept, and each constant C is
    replaced by a primed companion C' defined by the restricted body.
    Returns the rewritten term together with a Spec extended with the
    companion definitions; the renaming is memoized in the Spec so
    later calls reuse it.
    """
    defs = dict(spec.defs)
    memo = dict(spec.restricted_names)

    def fresh_name(name):
        candidate = name + "'"
        while candidate in defs:
            candidate += "'"
        return candidate

    def walk(u):
        match u:
            case Nil():
                return u
            case Prefix(action, body):
                if action.is_high:
                    return Sum(NIL, NIL)
                return Prefix(action, walk(body))
            case Sum(left, right):
                return Sum(walk(left), walk(right))
            case Par(left, right):
                return Par(walk(left), walk(right))
            case Const(name):
                if name not in memo:
                    primed = fresh_name(name)
                    memo[name] = primed
                    defs[primed] = NIL  # reserve the name before recursing
                    defs[primed] = walk(spec.body_of(name))
                return Const(memo[name])
        raise TypeError(f"not a term: {u!r}")

    restricted = walk(t)
    extended = Spec(spec.high_names, defs, spec.main, memo)
    return restricted, extended


# ---------------------------------------------------------------------------
# sums modulo associativity, commutativity, idempotence and unit

def summands(t: Term) -> list:
    """Flatten nested choice into the list of its summands, left to right."""
    match t:
        case Sum(left, right):
            return summands(left) + summands(right)
        case _:
            return [t]


def sum_of(parts) -> Term:
    """Rebuild a left-nested choice from a summand list; [] means 0 + 0."""
    parts = list(parts)
    if not parts:
        return Sum(NIL, NIL)
    term = parts[0]
    for part in parts[1:]:
        term = Sum(term, part)
    return term


def normalize_sum(t: Term) -> Term:
    """Canonical representative of t modulo choice laws, applied recursively.

    Summands are flattened, sorted by their rendering, stripped of
    duplicates, and stripped of 0 summands whenever a non-0 summand
    remains.  A choice consisting of 0s only collapses to 0 + 0, which
    is not identified with 0: the former is a stuck place, the latter
    the empty marking.  Two terms are equal modulo the choice laws
    exactly when their normal forms are equal.
    """
    match t:
        case Nil() | Const(_):
            return t
        case Prefix(action, body):
            return Prefix(action, normalize_sum(body))
        case Par(left, right):
            return Par(normalize_sum(left), normalize_sum(right))
        case Sum(_, _):
            parts = [normalize_sum(u) for u in summands(t)]
            live = sorted({show(u): u for u in parts if u != NIL}.items())
            if not live:
                return Sum(NIL, NIL)
            if len(live) == 1:
                return live[0][1]
            return sum_of(u for _, u in live)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# concrete syntax

KEYWORDS = {"high", "main", TAU_NAME}

_IDENT_START = set(string.ascii_letters)
_IDENT_REST = set(string.ascii_letters + string.digits + "_'")


class _Scanner:
    """Token stream over one source line."""

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


def _parse_term(scanner: _Scanner, high_names, known_consts) -> Term:
    """par := sum ('|' sum)* ; sum := prefix ('+' prefix)* ;
    prefix := (action '.')* atom ; atom := '0' | CONST | '(' par ')'."""

    def action_of(name, column):
        if name == TAU_NAME:
            return TAU
        if name in KEYWORDS:
            scanner.error(f"{name} is a reserved word", column)
        if not name[0].islower():
            scanner.error(f"action names are lowercase, found {name!r}", column)
        return high(name) if name in high_names else low(name)

    def parse_atom():
        if scanner.try_take("0"):
            return NIL
        if scanner.try_take("("):
            inner = parse_par()
            scanner.take(")")
            return inner
        column = scanner.pos + 1
        name = scanner.ident()
        if name[0].isupper():
            known_consts.add(name)
            return Const(name)
        # a lowercase name here must be an action prefix
        act = action_of(name, column)
        scanner.take(".")
        return Prefix(act, parse_prefix())

    def parse_prefix():
        return parse_atom()

    def parse_sum():
        term = parse_prefix()
        while scanner.try_take("+"):
            term = Sum(term, parse_prefix())
        return term

    def parse_par():
        term = parse_sum()
        while scanner.try_take("|"):
            term = Par(term, parse_sum())
        return term

    return parse_par()


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_spec(text: str) -> Spec:
    """Parse a whole specification.

    The concrete format is line based: `high a, b` declares high action
    names (several lines union), `Name := term` defines a constant, and
    `main := term` gives the term under study.  Comments run from # to
    the end of the line.  Constants are capitalized, actions lowercase,
    and `tau` is the silent action.
    """
    lines = text.splitlines()

    high_names = set()
    for number, raw in enumerate(lines, start=1):
        body = _strip_comment(raw).strip()
        if not body.startswith("high") or body[4:5] not in ("", " ", "\t"):
            continue
        scanner = _Scanner(_strip_comment(raw), number)
        scanner.take("high")
        while True:
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
    known_consts = set()
    for number, raw in enumerate(lines, start=1):
        body = _strip_comment(raw).strip()
        if not body or (body.startswith("high") and body[4:5] in ("", " ", "\t")):
            continue
        scanner = _Scanner(_strip_comment(raw), number)
        column = scanner.pos + 1
        name = scanner.ident()
        scanner.take(":=")
        term = _parse_term(scanner, high_names, known_consts)
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

    spec = Spec(frozenset(high_names), defs, main, {})
    validate_spec(spec)
    return spec


def parse_term(text: str, spec: Spec) -> Term:
    """Parse a single term in the environment of an existing Spec."""
    scanner = _Scanner(text, 1)
    known = set()
    term = _parse_term(scanner, spec.high_names, known)
    if not scanner.at_end():
        scanner.error("unexpected trailing input")
    for name in known:
        if name not in spec.defs:
            raise SpecError(f"undefined process constant {name}")
    category(term)
    return term
