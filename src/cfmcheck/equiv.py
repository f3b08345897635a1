"""Branching bisimilarity over net places, its rooted variant, and the
lifting of both to markings by multiset-of-classes comparison; strong
bisimilarity over explicit transition systems.

One engine computes the place-level equivalence: a partition refinement
that treats silent moves inside a candidate class as invisible.  The
test suite checks it against a deliberately literal greatest-fixpoint
oracle of its own.  The refinement contracts silent cycles, signs
states bottom-up along silent moves, and after a split signs again only
the states the split touched; the same engine gives the strong
partition, one more split round gives the rooted one, and the
observations it signs with explain a difference.
"""

from collections import defaultdict

from .net import Net
from .syntax import TAU, Par, Spec, Term, category


class Partition:
    """An equivalence over the places of a net plus the empty marking.

    The empty marking is always a class of its own; it is represented
    by the pseudo-element len(net.names).  Class ids are canonical:
    classes are numbered by their smallest member, so two partitions of
    the same net compare equal exactly when they relate the same
    places.
    """

    def __init__(self, net: Net, class_of):
        self.net = net
        n = len(net.names)
        if len(class_of) != n + 1:
            raise ValueError("class_of must cover every place plus the empty marking")
        # renumber classes by their smallest member
        relabel = {}
        canon = [0] * (n + 1)
        for element in range(n + 1):
            old = class_of[element]
            if old not in relabel:
                relabel[old] = len(relabel)
            canon[element] = relabel[old]
        self._class_of = tuple(canon)
        members = {}
        for element, cls in enumerate(self._class_of):
            members.setdefault(cls, []).append(element)
        self.classes = tuple(frozenset(v) for _, v in sorted(members.items()))

    @property
    def theta_class(self) -> int:
        return self._class_of[len(self.net.names)]

    def same_class(self, a: int, b: int) -> bool:
        return self._class_of[a] == self._class_of[b]

    def places_key(self, places) -> list:
        """Multiset of classes of places listed with repetition, such as
        a marking key, as a sorted list."""
        return sorted(map(self._class_of.__getitem__, places))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.net.names == other.net.names
                and self._class_of == other._class_of)

    def __hash__(self):
        return hash(self._class_of)

    def __len__(self):
        return len(self.classes)


# ---------------------------------------------------------------------------
# the refinement engine

def _moves(net: Net) -> list:
    """Per place, its (label, target) moves; the empty marking is target
    len(net.names) and has no moves."""
    n = len(net.names)
    moves = [[] for _ in range(n + 1)]
    for t in net.transitions:
        moves[t.pre].append((t.label, n if t.post is None else t.post))
    return moves


def _observations(moves, class_of, state, inert=True, signed=None) -> frozenset:
    """The (label, target class) pairs a state can show.

    With inert set, a silent move into the state's own class is no
    observation: it is followed, and the moves of its target count.
    Given signed, the stored observations per state, such a move adds
    its target's stored entry instead of being followed.
    """
    mine = class_of[state]
    seen = {state}
    stack = [state]
    found = set()
    while stack:
        for label, target in moves[stack.pop()]:
            cls = class_of[target]
            if inert and cls == mine and label.is_tau:
                if target not in seen:
                    seen.add(target)
                    if signed is None:
                        stack.append(target)
                    else:
                        found |= signed[target]
            else:
                found.add((label, cls))
    return frozenset(found)


def _split(moves, class_of, inert) -> list:
    """One round: regroup states by class and observations, numbering
    the new classes by their smallest member."""
    fresh = {}
    return [fresh.setdefault((cls, _observations(moves, class_of, state, inert)),
                             len(fresh))
            for state, cls in enumerate(class_of)]


def _tau_components(moves) -> tuple:
    """Per state, its strongly connected component under silent moves,
    and the number of components.

    An iterative Tarjan pass: components are numbered as they close, so
    every silent move between two components goes to the smaller one.
    """
    n = len(moves)
    after = [[target for label, target in out if label.is_tau] for out in moves]
    comp, number, low, open_ = [-1] * n, [0] * n, [0] * n, []
    clock = count = 0
    for root in range(n):
        if number[root]:
            continue
        work = [(root, iter(after[root]))]
        clock += 1
        number[root] = low[root] = clock
        open_.append(root)
        while work:
            state, pending = work[-1]
            for target in pending:
                if not number[target]:
                    clock += 1
                    number[target] = low[target] = clock
                    open_.append(target)
                    work.append((target, iter(after[target])))
                    break
                if comp[target] < 0:
                    low[state] = min(low[state], number[target])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[state])
                if low[state] == number[state]:
                    while comp[state] < 0:
                        comp[open_.pop()] = count
                    count += 1
    return comp, count


def _refine(moves, class_of, inert) -> list:
    """The coarsest refinement of class_of in which all states of a
    class make the same observations; class ids are not canonical.

    With inert set, each silent cycle is contracted to one state, as its
    states are always branching bisimilar, and states are signed
    bottom-up along silent moves, so an inert move reads its target's
    stored observations.  After a round only the states a split may have
    changed are signed again: predecessors of moved states, moved states
    with silent moves, and what reaches those by inert silent moves.  A
    class keeps its id for its untouched members and the part that
    observes as they do.
    """
    n = len(moves)
    if inert:
        rank, count = _tau_components(moves)
        if count < n:
            quotient = [[] for _ in range(count)]
            start = [0] * count
            for state, out in enumerate(moves):
                mine = rank[state]
                start[mine] = class_of[state]
                quotient[mine].extend((label, rank[target]) for label, target in out
                                      if rank[target] != mine or not label.is_tau)
            merged = _refine(quotient, start, inert)
            return [merged[c] for c in rank]
    class_of = list(class_of)
    size = [class_of.count(cls) for cls in range(max(class_of, default=-1) + 1)]
    signed = [None] * n
    kept = {}  # per class, the observations of its untouched members
    before = [[] for _ in range(n)]
    for state, out in enumerate(moves):
        for label, target in out:
            before[target].append((label, state))
    touched = range(n)
    while touched:
        groups = defaultdict(lambda: defaultdict(list))
        for state in sorted(touched, key=rank.__getitem__) if inert else touched:
            signed[state] = seen = _observations(moves, class_of, state, inert, signed)
            groups[class_of[state]][seen].append(state)
        moved = []
        for cls, parts in groups.items():
            if sum(map(len, parts.values())) == size[cls]:
                kept[cls] = max(parts, key=lambda seen: len(parts[seen]))
            stay = parts.get(kept[cls])
            for seen, states in parts.items():
                if states is not stay:
                    size[cls] -= len(states)
                    kept[len(size)] = seen
                    for state in states:
                        class_of[state] = len(size)
                    size.append(len(states))
                    moved.extend(states)
        touched = {source for state in moved for _, source in before[state]}
        if inert:
            touched.update(state for state in moved
                           if any(label.is_tau for label, _ in moves[state]))
            stack = list(touched)
            while stack:
                state = stack.pop()
                for label, source in before[state]:
                    if (label.is_tau and source not in touched
                            and class_of[source] == class_of[state]):
                        touched.add(source)
                        stack.append(source)
    return class_of


def branching_bisim(net: Net) -> Partition:
    """The coarsest branching bisimulation equivalence over net places.

    Signature refinement (Blom & Orzan): starting from one class of all
    places and the empty marking alone in a second class, classes split
    by the observations their places make, where a silent move into the
    place's own class is no observation at all.  Silent cycles are
    contracted first (Groote, Jansen, Keiren & Wijs), each place reads
    the stored observations of its inert silent successors, and after a
    split only the places it touched are signed again.  A net without
    silent moves is refined as for strong bisimilarity, which it then is.
    """
    return Partition(net, _refine(_moves(net), [0] * len(net.names) + [1],
                                  inert=TAU in net.labels))


# ---------------------------------------------------------------------------
# the rooted variant

def rooted_partition(net: Net, part: Partition) -> Partition:
    """Split the branching classes part of net once by their places'
    initial moves, silent ones included."""
    return Partition(net, _split(_moves(net), part._class_of, inert=False))


# ---------------------------------------------------------------------------
# markings

def markings_equiv(part: Partition, k1: tuple, k2: tuple) -> bool:
    """Team equivalence of two marking keys over the places of part's
    net: equal multisets of place classes.

    This is the additive closure of the place equivalence: markings
    match when they pair off place by place into related ones, which
    for an equivalence is exactly class-multiset equality.
    """
    return part.places_key(k1) == part.places_key(k2)


def terms_equiv(p: Term, q: Term, spec: Spec, rooted: bool = False) -> bool:
    """Compare two terms inside one shared net.

    The union of the two nets is the net of p | q; the terms compare
    equal when their decompositions are team equivalent there, with the
    rooted refinement on request.
    """
    from .net import build_net, dec

    category(p)
    category(q)
    union = build_net(spec, Par(p, q))
    part = branching_bisim(union)
    if rooted:
        part = rooted_partition(union, part)
    k1, k2 = (tuple(map(union.index.__getitem__, dec(t))) for t in (p, q))
    return markings_equiv(part, k1, k2)


# ---------------------------------------------------------------------------
# strong bisimilarity on explicit transition systems

def strong_partition(num_states: int, edges) -> list:
    """Class ids per state under strong bisimilarity, coarsest fit,
    numbered by smallest member: the refinement engine with every move
    observed."""
    moves = [[] for _ in range(num_states)]
    for src, label, dst in edges:
        moves[src].append((label, dst))
    relabel = {}
    return [relabel.setdefault(cls, len(relabel))
            for cls in _refine(moves, [0] * num_states, inert=False)]


# ---------------------------------------------------------------------------
# diagnostics

def explain_difference(net: Net, part: Partition, s1: int, s2: int) -> str:
    """Best-effort reason why two places fall into different classes."""
    if part.same_class(s1, s2):
        return ""

    def describe(cls):
        if cls == part.theta_class:
            return "the empty marking"
        members = sorted(net.names[e] for e in part.classes[cls]
                         if e < len(net.names))
        return "the class of " + members[0]

    moves = _moves(net)
    left = _observations(moves, part._class_of, s1)
    right = _observations(moves, part._class_of, s2)
    for a, b, tag in ((left, right, (s1, s2)), (right, left, (s2, s1))):
        extra = a - b
        if extra:
            label, cls = sorted(extra, key=lambda item: (str(item[0]), item[1]))[0]
            return (f"{net.names[tag[0]]} can reach a '{label}' step into "
                    f"{describe(cls)} through inert silent moves, "
                    f"{net.names[tag[1]]} cannot")
    return f"{net.names[s1]} and {net.names[s2]} differ only deeper in the net"
