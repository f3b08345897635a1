"""Branching bisimilarity over net places, its rooted variant, and the
lifting of both to markings by multiset-of-classes comparison.

Two engines compute the place-level equivalence: a partition refinement
that treats silent moves inside a candidate class as invisible, and a
deliberately literal greatest-fixpoint construction used as an oracle in
the test suite.  They must agree exactly.
"""

from .net import Lts, Marking, Net, silent_closure
from .syntax import Par, Spec, Term, category


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

    def class_of_place(self, place: int) -> int:
        return self._class_of[place]

    def class_of_post(self, post) -> int:
        return self.theta_class if post is None else self._class_of[post]

    def same_class(self, a: int, b: int) -> bool:
        return self._class_of[a] == self._class_of[b]

    def marking_key(self, m: Marking) -> tuple:
        """Multiset of classes of m, as a sorted tuple with repetition."""
        key = []
        for place, count in m.items():
            key.extend([self._class_of[place]] * count)
        return tuple(sorted(key))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.net.names == other.net.names
                and self._class_of == other._class_of)

    def __hash__(self):
        return hash(self._class_of)

    def __len__(self):
        return len(self.classes)

    def to_json(self) -> dict:
        theta = len(self.net.names)
        classes = []
        for members in self.classes:
            names = sorted(self.net.names[e] for e in members if e != theta)
            if names:
                classes.append(names)
        return {"classes": sorted(classes)}


def branching_bisim(net: Net) -> Partition:
    """The coarsest branching bisimulation equivalence over net places.

    Partition refinement: starting from one class of all places (the
    empty marking alone in a second class), each round recomputes for
    every place the set of observations it can make without leaving its
    current class through silent moves, and splits classes by those
    observation sets.  An observation is a pair of a label and a target
    class, where a silent move into the place's own class is no
    observation at all.
    """
    n = len(net.names)
    theta = n
    class_of = [0] * n + [1] if n else [1]

    def signature(place):
        mine = class_of[place]
        seen = {place}
        stack = [place]
        sig = set()
        while stack:
            u = stack.pop()
            for t in net.out(u):
                target = class_of[t.post] if t.post is not None else class_of[theta]
                if t.label.is_tau and target == mine:
                    if t.post not in seen:
                        seen.add(t.post)
                        stack.append(t.post)
                else:
                    sig.add((t.label, target))
        return frozenset(sig)

    count = 2 if n else 1
    while True:
        groups = {}
        for place in range(n):
            groups.setdefault((class_of[place], signature(place)), []).append(place)
        if len(groups) + 1 == count:
            break
        fresh = {}
        for key in sorted(groups, key=lambda k: min(groups[k])):
            fresh[key] = len(fresh)
        for key, places in groups.items():
            for place in places:
                class_of[place] = fresh[key]
        class_of[theta] = len(fresh)
        count = len(fresh) + 1

    return Partition(net, class_of)


def naive_branching_fixpoint(net: Net, max_places: int = 200) -> Partition:
    """Oracle engine: shrink the all-pairs relation until it transfers.

    A pair of places survives when each move of one side is answered by
    the other as the definition demands: a silent move may be dropped
    against a silently reached relative of both endpoints, and any move
    may be matched after silent preparation, with targets related or
    both empty.  Quadratic in places and meant for tests only.
    """
    n = len(net.names)
    if n > max_places:
        raise ValueError(f"oracle is capped at {max_places} places, net has {n}")

    closures = []
    for place in range(n):
        closures.append(tuple(p for p in silent_closure(net, place) if p is not None))
    outs = [net.out(p) for p in range(n)]

    related = [set(range(n)) for _ in range(n)]

    def transfers(a, b):
        for t in outs[a]:
            m1 = t.post
            matched = False
            if t.label.is_tau and m1 is not None:
                for u in closures[b]:
                    if u in related[a] and u in related[m1]:
                        matched = True
                        break
            if not matched:
                for u in closures[b]:
                    if u not in related[a]:
                        continue
                    for t2 in outs[u]:
                        if t2.label != t.label:
                            continue
                        m2 = t2.post
                        if m1 is None and m2 is None:
                            matched = True
                            break
                        if m1 is not None and m2 is not None and m2 in related[m1]:
                            matched = True
                            break
                    if matched:
                        break
            if not matched:
                return False
        return True

    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in sorted(related[a]):
                if b <= a:
                    continue
                if not (transfers(a, b) and transfers(b, a)):
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
    closures = [tuple(p for p in silent_closure(net, place) if p is not None)
                for place in range(n)]

    def related(a, b):
        return part.same_class(a, b)

    def transfers(a, b):
        for t in net.out(a):
            m1 = t.post
            if t.label.is_tau and m1 is not None and any(
                    related(a, u) and related(m1, u) for u in closures[b]):
                continue
            hit = False
            for u in closures[b]:
                if not related(a, u):
                    continue
                for t2 in net.out(u):
                    if t2.label != t.label:
                        continue
                    if (m1 is None) != (t2.post is None):
                        continue
                    if m1 is None or related(m1, t2.post):
                        hit = True
                        break
                if hit:
                    break
            if not hit:
                return False
        return True

    for members in part.classes:
        places = sorted(e for e in members if e < n)
        if len(members) != len(places):  # the empty-marking class
            if places:
                return False
            continue
        for i, a in enumerate(places):
            for b in places[i + 1:]:
                if not (transfers(a, b) and transfers(b, a)):
                    return False
    return True


# ---------------------------------------------------------------------------
# the rooted variant

def rooted_signature(net: Net, part: Partition, place: int) -> frozenset:
    """Initial moves of a place, observed up to branching equivalence."""
    return frozenset((t.label, part.class_of_post(t.post)) for t in net.out(place))


def rooted_partition(net: Net, part: Partition = None) -> Partition:
    """Group places by their rooted signatures over the branching classes."""
    if part is None:
        part = branching_bisim(net)
    n = len(net.names)
    class_of = [0] * (n + 1)
    groups = {}
    for place in range(n):
        sig = rooted_signature(net, part, place)
        class_of[place] = groups.setdefault(sig, len(groups))
    class_of[n] = len(groups)
    return Partition(net, class_of)


# ---------------------------------------------------------------------------
# markings

def markings_equiv(net: Net, part: Partition, m1: Marking, m2: Marking) -> bool:
    """Team equivalence: equal multisets of place classes.

    This is the additive closure of the place equivalence: markings
    match when they pair off place by place into related ones, which
    for an equivalence is exactly class-multiset equality.
    """
    return part.marking_key(m1) == part.marking_key(m2)


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
    m1 = union.intern_marking(dec(p))
    m2 = union.intern_marking(dec(q))
    return markings_equiv(union, part, m1, m2)


# ---------------------------------------------------------------------------
# strong bisimilarity on explicit transition systems

def strong_partition(num_states: int, edges) -> list:
    """Class ids per state under strong bisimilarity, coarsest fit."""
    outgoing = [[] for _ in range(num_states)]
    for src, label, dst in edges:
        outgoing[src].append((label, dst))
    class_of = [0] * num_states
    count = 1
    while True:
        groups = {}
        for state in range(num_states):
            sig = frozenset((label, class_of[dst]) for label, dst in outgoing[state])
            groups.setdefault((class_of[state], sig), []).append(state)
        if len(groups) == count:
            return class_of
        fresh = {}
        for key in sorted(groups, key=lambda k: min(groups[k])):
            fresh[key] = len(fresh)
        for key, states in groups.items():
            for state in states:
                class_of[state] = fresh[key]
        count = len(fresh)


def strong_bisim_lts(lts: Lts) -> list:
    """Strong bisimilarity classes of the states of an explicit system."""
    return strong_partition(len(lts.states), lts.edges)


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

    def observations(place):
        mine = part.class_of_place(place)
        seen = {place}
        stack = [place]
        sig = set()
        while stack:
            u = stack.pop()
            for t in net.out(u):
                target = part.class_of_post(t.post)
                if t.label.is_tau and target == mine and t.post is not None:
                    if t.post not in seen:
                        seen.add(t.post)
                        stack.append(t.post)
                else:
                    sig.add((t.label, target))
        return sig

    left, right = observations(s1), observations(s2)
    for a, b, tag in ((left, right, (s1, s2)), (right, left, (s2, s1))):
        extra = a - b
        if extra:
            label, cls = sorted(extra, key=lambda item: (str(item[0]), item[1]))[0]
            return (f"{net.names[tag[0]]} can reach a '{label}' step into "
                    f"{describe(cls)} through inert silent moves, "
                    f"{net.names[tag[1]]} cannot")
    return f"{net.names[s1]} and {net.names[s2]} differ only deeper in the net"
