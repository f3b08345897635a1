"""CFM process terms: abstract syntax, parsing, and syntactic functions.

A CFM term is built from three nested categories:

  guarded     s ::= 0 | mu.q | s + s
  sequential  q ::= s | C
  parallel    p ::= q | p | p

Constant bodies must be guarded; the main term may live in any category.
Actions are partitioned into low and high names plus the silent action tau.
"""

import re
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

class Term(tuple):
    """Base class of the immutable term variants.

    A term is the tuple of its fields followed by its rendering, which
    the constructor builds once from the children's renderings.  show
    is then a field read, and terms hash and compare as tuples do,
    without Python code per call; the rendering keeps variants with the
    same fields apart (a + b against a | b).  A variant's __match_args__
    names its fields, for match patterns and, as properties unless the
    variant defines them, for attribute access.
    """

    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls):
        for i, field in enumerate(cls.__match_args__):
            if not hasattr(cls, field):
                setattr(cls, field, property(itemgetter(i)))

    def __getnewargs__(self):
        # copy and pickle rebuild a term through __new__(*fields)
        return self[:-1]

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __str__(self):
        return self[-1]


def show(t: Term) -> str:
    """Render t canonically; the result re-parses to an equal term.

    Prefixing binds tightest, then +, then |; a run of + or | is one
    node, so parentheses appear only around a later operand of the
    run's own kind and around composite prefix bodies.  This rendering
    doubles as the stable identity of net places, so it must stay
    injective on terms (up to the levels of actions).  Terms carry it,
    so this is O(1).
    """
    if isinstance(t, Term):
        return t[-1]
    raise TypeError(f"not a term: {t!r}")


class Nil(Term):
    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, ("0",))


class Prefix(Term):
    __slots__ = ()
    __match_args__ = ("action", "body")

    def __new__(cls, action: Action, body: Term):
        inner = show(body)
        if isinstance(body, (Sum, Par)):
            inner = f"({inner})"
        return tuple.__new__(cls, (action, body,
                                   f"{action[1] or TAU_NAME}.{inner}"))


class _Run(Term):
    """A run of one associative operator over two or more operands,
    laid out as (op1, ..., opn, rendering).

    A first operand of the run's own kind is spliced in, so Sum(Sum(a,
    b), c) == Sum(a, b, c), as (a + b) + c and a + b + c parse alike; a
    later one stays one operand in parentheses, so a + (b + c) stays a
    distinct term.  The rendering is one join over the operands.
    """

    __slots__ = ()
    __match_args__ = ("operands",)
    operands = property(itemgetter(slice(None, -1)))

    def __new__(cls, first, *rest):
        if not rest:
            raise TypeError(f"{cls.__name__} takes two or more operands")
        if type(first) is cls:
            operands, texts = first[:-1], [first[-1]]
        else:
            operands, texts = (first,), [show(first)]
        for u in rest:
            texts.append(f"({u[-1]})" if type(u) is cls else show(u))
        return tuple.__new__(cls, (*operands, *rest, cls.joint.join(texts)))


class Sum(_Run):
    __slots__ = ()
    joint = " + "


class Const(Term):
    __slots__ = ()
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        return tuple.__new__(cls, (name, name))


class Par(_Run):
    __slots__ = ()
    joint = " | "


NIL = Nil()

GUARDED = "guarded"
SEQUENTIAL = "sequential"
PARALLEL = "parallel"


def category(t: Term) -> str:
    """Classify t as guarded, sequential or parallel; raise on violations.

    The checks mirror the grammar: parallel composition may not occur
    under a prefix or inside a choice, and a constant may not be used
    directly as a summand.  The category of a term is fixed by its
    outermost operator; the walk checks each operand against its
    operator once the operand's own subterms have passed, left to
    right, so the first violation is reported.
    """
    # (term, its operator or None, whether its operands are checked)
    stack = [(t, None, False)]
    while stack:
        u, outer, checked = stack.pop()
        if not checked and isinstance(u, (Prefix, Sum, Par)):
            stack.append((u, outer, True))
            if isinstance(u, Prefix):
                stack.append((u[1], u, False))
            else:
                stack += [(v, u, False) for v in u[-2::-1]]
            continue
        kind = _CATEGORY.get(type(u))
        if kind is None:
            raise TypeError(f"not a term: {u!r}")
        if isinstance(outer, Prefix):
            if kind == PARALLEL:
                raise CategoryError(
                    f"parallel composition under an action prefix: {show(outer)}")
        elif isinstance(outer, Sum):
            if kind == SEQUENTIAL:
                raise CategoryError(
                    f"constant {show(u)} used directly as a summand in {show(outer)}")
            if kind == PARALLEL:
                raise CategoryError(
                    f"parallel composition used as a summand in {show(outer)}")
    return _CATEGORY[type(t)]


_CATEGORY = {Nil: GUARDED, Const: SEQUENTIAL, Prefix: GUARDED, Sum: GUARDED,
             Par: PARALLEL}


# ---------------------------------------------------------------------------
# specifications

@dataclass(frozen=True, eq=False, slots=True)
class Spec:
    """A parsed specification: high alphabet, constant definitions, main term.

    Treated as immutable everywhere; derived specs are built with
    dataclasses.replace.
    """

    high_names: frozenset
    defs: dict
    main: Term

    def body_of(self, name: str) -> Term:
        try:
            return self.defs[name]
        except KeyError:
            raise SpecError(f"undefined process constant {name}") from None

    def with_main(self, term: Term) -> "Spec":
        return replace(self, main=term)


def validate_spec(spec: Spec) -> None:
    """Check category discipline and definedness for every term in spec,
    naming the first undefined constant of main, then of each body."""
    for name, body in spec.defs.items():
        if category(body) != GUARDED:
            raise CategoryError(
                f"body of {name} must be a guarded term, got {show(body)}")
    category(spec.main)
    for term in [spec.main, *spec.defs.values()]:
        for name in const_names(term):
            if name not in spec.defs:
                raise SpecError(f"undefined process constant {name}")


def const_names(t: Term):
    """Names of the constants occurring syntactically in t (no unfolding),
    as a set-like view in order of first occurrence, left to right."""
    names = {}
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Const):
            names[u[0]] = None
        elif isinstance(u, Prefix):
            stack.append(u[1])
        elif isinstance(u, _Run):
            stack += u[-2::-1]
        elif not isinstance(u, Nil):
            raise TypeError(f"not a term: {u!r}")
    return names.keys()


# ---------------------------------------------------------------------------
# restriction at the syntax level

def restrict_syntactic(t: Term, spec: Spec) -> tuple:
    """Rewrite t so that every high prefix becomes the stuck choice 0 + 0.

    High prefixes h.p turn into 0 + 0, which deadlocks without
    vanishing, low and silent prefixes are kept, and each constant C is
    replaced by a primed companion C' defined by the restricted body.
    Returns the rewritten term together with a Spec extended with the
    companion definitions.  Each call primes afresh, so terms that share
    companions are restricted together, as p | q.  The checkers drop
    high transitions from the net instead (net.restrict_net).
    """
    defs = dict(spec.defs)
    memo = {}

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
            case Sum(operands) | Par(operands):
                return type(u)(*map(walk, operands))
            case Const(name):
                if name not in memo:
                    primed = fresh_name(name)
                    memo[name] = primed
                    defs[primed] = NIL  # reserve the name before recursing
                    defs[primed] = walk(spec.body_of(name))
                return Const(memo[name])
        raise TypeError(f"not a term: {u!r}")

    restricted = walk(t)
    extended = Spec(spec.high_names, defs, spec.main)
    return restricted, extended


# ---------------------------------------------------------------------------
# sums modulo associativity, commutativity, idempotence and unit

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
            inner = normalize_sum(body)
            return t if inner is body else Prefix(action, inner)
        case Par(operands):
            return Par(*map(normalize_sum, operands))
        case Sum(operands):
            live = {}
            for u in map(normalize_sum, operands):
                # a normal form's summands are normal forms and not sums
                for v in u[:-1] if isinstance(u, Sum) else (u,):
                    if not isinstance(v, Nil):
                        live[show(v)] = v
            if not live:
                return Sum(NIL, NIL)
            if len(live) == 1:
                return live.popitem()[1]
            return Sum(*(live[key] for key in sorted(live)))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# concrete syntax

KEYWORDS = {"high", "main", TAU_NAME}

_IDENT_START = set(string.ascii_letters)

# a name, :=, or any other one character but the blanks, space and tab
_TOKEN = re.compile(r"[ \t]*([A-Za-z][A-Za-z0-9_']*|:=|[^ \t])")


def _tokens(text: str) -> list:
    """The stack of text's (token, 1-based column) pairs, first token on
    top, over the end marker ("", len(text) + 1)."""
    found = [(m[1], m.start(1) + 1) for m in _TOKEN.finditer(text)]
    found.append(("", len(text) + 1))
    found.reverse()
    return found


def _take(tokens, line, expected=None) -> tuple:
    """Pop the next (token, column): the token expected, or by default a
    name."""
    token, column = tokens.pop()
    if token == expected or expected is None and token[:1] in _IDENT_START:
        return token, column
    got = token[:1] or "end of line"
    wanted = "a name" if expected is None else repr(expected)
    raise ParseError(f"expected {wanted}, found {got!r}", line, column)


def _end(tokens, line) -> None:
    token, column = tokens[-1]
    if token:
        raise ParseError("unexpected trailing input", line, column)


def _parse_term(tokens, line, high_names) -> Term:
    """par := sum ('|' sum)* ; sum := prefix ('+' prefix)* ;
    prefix := (action '.')* atom ; atom := '0' | CONST | '(' par ')'.

    One loop over an explicit stack, so nesting costs no Python stack:
    each open parenthesis saves the operands of the enclosing | and +
    runs and the actions read before it, and each run becomes one node
    when it ends."""
    frames = []
    pars, sums, actions = [], [], []
    while True:
        token = tokens[-1][0]
        if token == "0":
            tokens.pop()
            term = NIL
        elif token == "(":
            tokens.pop()
            frames.append((pars, sums, actions))
            pars, sums, actions = [], [], []
            continue
        else:
            name, column = _take(tokens, line)
            if not name[0].isupper():
                # a lowercase name here must be an action prefix
                actions.append(_action_of(name, line, column, high_names))
                _take(tokens, line, ".")
                continue
            term = Const(name)
        while True:  # the atom ends a prefix, then maybe runs and a group
            for action in reversed(actions):
                term = Prefix(action, term)
            actions = []
            token = tokens[-1][0]
            if token == "+":
                tokens.pop()
                sums.append(term)
                break
            if sums:
                term = Sum(*sums, term)
                sums = []
            if token == "|":
                tokens.pop()
                pars.append(term)
                break
            if pars:
                term = Par(*pars, term)
                pars = []
            if not frames:
                return term
            _take(tokens, line, ")")
            pars, sums, actions = frames.pop()


def _action_of(name, line, column, high_names) -> Action:
    if name == TAU_NAME:
        return TAU
    if name in KEYWORDS:
        raise ParseError(f"{name} is a reserved word", line, column)
    if not name[0].islower():
        raise ParseError(f"action names are lowercase, found {name!r}", line, column)
    return high(name) if name in high_names else low(name)


def parse_spec(text: str) -> Spec:
    """Parse a whole specification.

    The concrete format is line based: `high a, b` declares high action
    names (several lines union), `Name := term` defines a constant, and
    `main := term` gives the term under study.  Comments run from # to
    the end of the line.  Constants are capitalized, actions lowercase,
    and `tau` is the silent action.  Each line is lexed once; declarations
    are parsed first, as the levels of actions depend on them.
    """
    lines = text.splitlines()
    declarations, definitions = [], []
    for number, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0]
        body = line.strip()
        if body.startswith("high") and body[4:5] in ("", " ", "\t"):
            declarations.append((number, _tokens(line)))
        elif body:
            definitions.append((number, _tokens(line)))

    high_names = set()
    for number, tokens in declarations:
        _take(tokens, number, "high")
        while True:
            name, column = _take(tokens, number)
            if name == TAU_NAME:
                raise ParseError("tau cannot be declared high", number, column)
            if not name[0].islower():
                raise ParseError(
                    f"high declares action names, found {name!r}", number, column)
            high_names.add(name)
            if tokens[-1][0] != ",":
                break
            tokens.pop()
        _end(tokens, number)

    defs = {}
    main = None
    for number, tokens in definitions:
        name, column = _take(tokens, number)
        _take(tokens, number, ":=")
        term = _parse_term(tokens, number, high_names)
        _end(tokens, number)
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


def parse_term(text: str, spec: Spec) -> Term:
    """Parse a single term in the environment of an existing Spec."""
    tokens = _tokens(text)
    term = _parse_term(tokens, 1, spec.high_names)
    _end(tokens, 1)
    for name in const_names(term):
        if name not in spec.defs:
            raise SpecError(f"undefined process constant {name}")
    category(term)
    return term
