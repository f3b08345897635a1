"""Finite-state-machine Petri nets for CFM terms.

Every transition consumes exactly one token from one place and produces
at most one token in one place, so nets are bounded by the size of the
initial marking and a sequential term always owns exactly one token.
Places are identified by the canonical rendering of sequential terms.
A marking is a key: the sorted tuple of its places, one entry per token,
such as (0, 0, 3, 5) over place indexes or ("A", "A", "a.B") over place
names.  Indexes follow the sorted order of names, so the two sort alike.
"""

from bisect import bisect_left
from operator import add
from typing import NamedTuple

from .syntax import NIL, Action, Const, Nil, Par, Prefix, Spec, Sum, Term, show


class StateLimitError(RuntimeError):
    """An exhaustive exploration hit its configured cap on states, the
    markings of a net or the states of a transition system.

    explored counts the states whose moves were fully expanded by then.
    """

    def __init__(self, limit, explored=0):
        super().__init__(f"state space exceeds the cap of {limit} states "
                         f"({explored} fully explored)")
        self.limit = limit
        self.explored = explored


# ---------------------------------------------------------------------------
# markings

def dec(t: Term) -> tuple:
    """Decompose a term into its marking of sequential components: the
    sorted tuple of their place names, one per token.

    0 contributes nothing, parallel composition adds up, and any other
    term is itself one place.  The stuck choice 0 + 0 therefore keeps a
    token while 0 does not.
    """
    return tuple(sorted(show(leaf) for leaf in _skeleton(t)[0]
                        if not isinstance(leaf, Nil)))


def marking_counts(key) -> list:
    """The (place, count) pairs of a marking key, in key order."""
    counts = {}
    for place in key:
        counts[place] = counts.get(place, 0) + 1
    return list(counts.items())


def show_marking(key) -> str:
    """A marking key of place names as text, such as 2*p | q."""
    return " | ".join(place if count == 1 else f"{count}*{place}"
                      for place, count in marking_counts(key)) or "(empty)"


def _skeleton(term: Term) -> tuple:
    """The sequential leaves of a term's |-skeleton, left to right, 0
    included, and the text after each leaf in the term's rendering: the
    separator to the next leaf, such as " | " or " | (", and last the
    closing parentheses, if any."""
    leaves, after = [], []
    stack = [term]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            after[-1].append(u)
        elif isinstance(u, Par):
            for v in reversed(u[1:-1]):
                stack += (")", v, " | (") if isinstance(v, Par) else (v, " | ")
            stack.append(u[0])
        else:
            leaves.append(u)
            after.append([])
    return leaves, ["".join(texts) for texts in after]


def components(term: Term) -> list:
    """Distinct sequential components of a parallel term, sorted."""
    found = {}
    for leaf in _skeleton(term)[0]:
        if not isinstance(leaf, Nil):
            found.setdefault(show(leaf), leaf)
    return [found[name] for name in sorted(found)]


# ---------------------------------------------------------------------------
# nets

class Transition(NamedTuple):
    pre: int
    label: Action
    post: int | None  # None is the empty post-set


def _transition_key(t: Transition):
    return (t.pre, t.label, t.post is not None, t.post or 0)


class Net:
    """An immutable net over interned places.

    Place indexes follow the sorted order of place names, transitions
    are sorted as well, so structurally equal nets compare and render
    identically.  The initial places are given by name, with
    repetition, and `initial` is their key of indexes.  `labels` holds
    the actions of the transitions.
    """

    __slots__ = ("names", "index", "transitions", "initial", "labels", "_out")

    def __init__(self, names, transitions, initial):
        self.names = tuple(sorted(set(names)))
        self.index = {name: i for i, name in enumerate(self.names)}
        interned = set()
        for pre, label, post in transitions:
            if pre not in self.index or (post is not None and post not in self.index):
                raise ValueError(f"transition {(pre, str(label), post)} mentions an unknown place")
            interned.add(Transition(self.index[pre], label,
                                    None if post is None else self.index[post]))
        self.transitions = tuple(sorted(interned, key=_transition_key))
        for place in initial:
            if place not in self.index:
                raise ValueError(f"initial marking mentions an unknown place {place!r}")
        self.initial = tuple(sorted(self.index[place] for place in initial))
        self.labels = frozenset(t.label for t in self.transitions)
        out = [[] for _ in self.names]
        for i, t in enumerate(self.transitions):
            out[t.pre].append(i)
        self._out = tuple(tuple(ts) for ts in out)

    def out(self, place: int):
        """Transitions with the given input place."""
        return tuple(self.transitions[i] for i in self._out[place])

    def __eq__(self, other):
        return (isinstance(other, Net)
                and self.names == other.names
                and self.transitions == other.transitions
                and self.initial == other.initial)

    def __hash__(self):
        return hash((self.names, self.transitions, self.initial))

    def __repr__(self):
        return (f"Net({len(self.names)} places, {len(self.transitions)} transitions, "
                f"{len(self.initial)} tokens)")


def _explore(roots, moves, limit=None, keep=None) -> tuple:
    """Breadth-first search that interns states by key in discovery order.

    roots holds (key, state) pairs and moves(state) gives (label, key,
    successor) triples.  Returns (keys, states, edges, steps): edges are
    (source, label, target) index triples, by default all of them, and
    with keep only those whose label keep(label) accepts; steps counts
    every edge, kept or not.  Interning a state beyond limit states,
    roots included, raises StateLimitError, which records how many
    states were fully expanded.
    """
    keys, states, edges = [], [], []
    index = {}
    cap = float("inf") if limit is None else limit
    for key, state in roots:
        if key not in index:
            if len(keys) >= cap:
                raise StateLimitError(limit, 0)
            index[key] = len(keys)
            keys.append(key)
            states.append(state)
    steps = cursor = 0
    while cursor < len(states):
        for label, key, successor in moves(states[cursor]):
            target = index.get(key)
            if target is None:
                if len(keys) >= cap:
                    raise StateLimitError(limit, cursor)
                target = index[key] = len(keys)
                keys.append(key)
                states.append(successor)
            if keep is None or keep(label):
                edges.append((cursor, label, target))
            steps += 1
        cursor += 1
    return keys, states, edges, steps


def reach_graph(net: Net, keep, limit: int = 10 ** 6) -> tuple:
    """Reachable markings plus the firing edges that keep accepts.

    Returns (keys, edges, steps): the key of each reachable marking in
    breadth-first order from net.initial, the edges (source index,
    transition, target index) whose transition the predicate keep
    accepts, and the number of all edges.  Firing t at a key drops one
    entry t.pre and bisects one entry t.post back in, the tests'
    definition of firing without its intermediate markings.
    """
    outs = [net.out(place) for place in range(len(net.names))]

    def firings(key):
        last = None
        for k, place in enumerate(key):
            if place == last:
                continue
            last = place
            rest = key[:k] + key[k + 1:]
            for t in outs[place]:
                post = t.post
                if post is None:
                    yield t, rest, rest
                else:
                    j = bisect_left(rest, post)
                    after = rest[:j] + (post,) + rest[j:]
                    yield t, after, after

    keys, _, edges, steps = _explore([(net.initial, net.initial)], firings,
                                     limit, keep)
    return keys, edges, steps


# ---------------------------------------------------------------------------
# the term-level transition system

def _steps(t: Term, spec: Spec) -> list:
    """The distinct moves of the sequential term t as (action, rendering,
    successor), each successor rendered once, in depth-first order: left
    summands first, constants unfolded."""
    seen = set()
    result = []
    stack = [t]
    while stack:
        u = stack.pop()
        match u:
            case Nil():
                pass
            case Prefix(action, body):
                key = show(body)
                if (action, key) not in seen:
                    seen.add((action, key))
                    result.append((action, key, body))
            case Sum(operands):
                stack += reversed(operands)
            case Const(name):
                stack.append(spec.body_of(name))
            case Par():
                raise ValueError(f"expected a sequential term, got {show(t)}")
            case _:
                raise TypeError(f"not a term: {u!r}")
    return result


def lts_step(t: Term, spec: Spec) -> list:
    """One-step successors of the sequential term t with their actions,
    deduplicated.

    Choice offers the moves of every summand and disappears, and a
    constant moves like its body.  A parallel term raises ValueError:
    its moves are those of its leaves, which build_lts interleaves.
    """
    return [(action, successor) for action, _, successor in _steps(t, spec)]


class Lts(NamedTuple):
    """An explicit labelled transition system.

    states carries the underlying objects (tuples of place indexes
    here, but any values work), names the renderings of their terms,
    edges triples of state indexes with an action in the middle.
    """

    states: tuple
    names: tuple
    edges: tuple
    roots: tuple


def _place_table(spec: Spec, roots, limit=None) -> tuple:
    """The sequential terms reachable from roots, as (names, edges):
    each place's rendering in discovery order, roots first, and its
    moves as (place, action, place) triples, grouped by source in
    _steps order.  limit caps the places as _explore does."""
    names, _, edges, _ = _explore([(show(q), q) for q in roots],
                                  lambda t: _steps(t, spec), limit)
    return names, edges


def build_lts(spec: Spec, limit: int = 10 ** 6) -> Lts:
    """Explore the transition system from main, state 0.

    | never occurs under a prefix or in a choice, so every move of main
    moves exactly one leaf of main's fixed |-skeleton, and the system is
    the product of the leaves' place moves: a state is the tuple of its
    leaves' places, as indexes into the place table, and its moves are
    those of each leaf in turn, left to right.  Two moves of different
    leaves reach the same state only when both loop, so only looping
    actions are deduplicated per state.  A state is named by joining its
    leaves' place names with the text between main's leaves, which is
    the rendering of the term the moves of main reach.  A main that is
    one leaf is its own place table, with a 1-tuple per place.
    """
    if not isinstance(spec.main, Par):
        names, edges = _place_table(spec, [spec.main], limit)
        return Lts(tuple((i,) for i in range(len(names))), tuple(names),
                   tuple(edges), (0,))

    leaves, after = _skeleton(spec.main)
    names, edges = _place_table(spec, leaves)
    moves = [[] for _ in names]
    for source, action, target in edges:
        moves[source].append((action, target))
    # the place table numbers the distinct leaves first, in leaf order
    first = {}
    start = tuple(first.setdefault(show(leaf), len(first)) for leaf in leaves)

    def product_moves(state):
        loops = None
        for i, place in enumerate(state):
            for action, target in moves[place]:
                if target == place:
                    if loops is None:
                        loops = {action}
                    elif action in loops:
                        continue
                    else:
                        loops.add(action)
                    yield action, state, state
                else:
                    successor = state[:i] + (target,) + state[i + 1:]
                    yield action, successor, successor

    states, _, product_edges, _ = _explore([(start, start)], product_moves,
                                           limit)
    name = names.__getitem__
    return Lts(tuple(states),
               tuple("".join(map(add, map(name, state), after))
                     for state in states),
               tuple(product_edges), (0,))


# ---------------------------------------------------------------------------
# compiling terms to nets

def build_net(spec: Spec, term: Term = None) -> Net:
    """Compile a term (spec.main by default) into its net.

    The places are the sequential terms a token can reach from the
    sequential components of the term, named by their renderings.  Each
    move of such a term, as lts_step gives it, is one transition: to the
    place of the derivative, or to the empty post-set when the
    derivative is 0.  The initial marking is the decomposition of the
    term.
    """
    t = spec.main if term is None else term
    names, edges = _place_table(spec, components(t))
    empty = show(NIL)
    return Net([name for name in names if name != empty],
               [(names[i], a, None if names[j] == empty else names[j])
                for i, a, j in edges],
               dec(t))


def restrict_net(net: Net, high_names) -> Net:
    """Drop every transition labelled with a high action.

    Place names, place indexes and the initial marking stay those of the
    given net, so its places and markings address the restricted net
    directly; places no token can reach any more are kept.
    """
    blocked = {str(name) for name in high_names}
    names = net.names
    transitions = [
        (names[t.pre], t.label, None if t.post is None else names[t.post])
        for t in net.transitions if str(t.label) not in blocked
    ]
    return Net(names, transitions, [names[i] for i in net.initial])


# ---------------------------------------------------------------------------
# serialization

def net_to_json(net: Net) -> dict:
    """Schema: places, then transitions as index records, then initial."""
    return {
        "places": list(net.names),
        "transitions": [
            {"pre": t.pre, "label": str(t.label), "post": t.post}
            for t in net.transitions
        ],
        "initial": [
            {"place": p, "count": c} for p, c in marking_counts(net.initial)
        ],
    }


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def net_to_dot(net: Net) -> str:
    """GraphViz rendering: circles for places, boxes for transitions."""
    lines = ["digraph net {", "  rankdir=LR;"]
    initial = dict(marking_counts(net.initial))
    for i, name in enumerate(net.names):
        tokens = initial.get(i, 0)
        # \n is a DOT escape, so splice it in after quoting or it gets escaped
        label = _dot_quote(name)
        if tokens:
            label = f"{label[:-1]}\\n{'•' * tokens}\""
        lines.append(f"  p{i} [shape=circle, label={label}];")
    for k, t in enumerate(net.transitions):
        lines.append(f"  t{k} [shape=box, label={_dot_quote(str(t.label))}];")
        lines.append(f"  p{t.pre} -> t{k};")
        if t.post is not None:
            lines.append(f"  t{k} -> p{t.post};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def lts_to_dot(lts: Lts) -> str:
    lines = ["digraph lts {", "  rankdir=LR;"]
    for i, name in enumerate(lts.names):
        shape = "doublecircle" if i in lts.roots else "circle"
        lines.append(f"  s{i} [shape={shape}, label={_dot_quote(name)}];")
    for src, action, dst in lts.edges:
        lines.append(f"  s{src} -> s{dst} [label={_dot_quote(str(action))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
