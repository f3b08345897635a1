"""Branching equivalence engines, the rooted variant, and the lifting
to markings.  The distinguishing nets are small hand-built regressions;
the property classes drive randomized nets through the laws the
equivalence must satisfy."""

import random
import time
from collections import Counter

import pytest

from cfmcheck.equiv import (
    Partition, _moves, _split, branching_bisim, explain_difference,
    markings_equiv, rooted_partition, strong_partition, terms_equiv,
)
from cfmcheck.net import Net, build_net, restrict_net
from cfmcheck.syntax import TAU, low, parse_spec, parse_term
from support import (
    class_of, fire, is_branching_bisimulation, key_of,
    naive_branching_fixpoint, random_marking, random_net,
)


def net_of(names, triples, initial):
    return Net(names, [(p, low(a) if a != "tau" else TAU, q)
                       for p, a, q in triples], initial)


def place(net, name):
    return net.index[name]


class TestDistinguishingNets:
    def test_choice_point_location(self):
        # one a then a b/c choice, against an a that resolves the choice
        net = net_of(
            ["s1", "s2", "s3", "s4", "s5"],
            [("s1", "a", "s2"), ("s2", "b", None), ("s2", "c", None),
             ("s3", "a", "s4"), ("s3", "a", "s5"),
             ("s4", "b", None), ("s5", "c", None)],
            ["s1"])
        part = branching_bisim(net)
        assert not part.same_class(place(net, "s1"), place(net, "s3"))
        assert not part.same_class(place(net, "s2"), place(net, "s4"))

    def test_deadlock_place_differs_from_theta(self):
        net = net_of(
            ["s6", "s7", "s8"],
            [("s6", "a", "s7"), ("s8", "a", None)],
            ["s6"])
        part = branching_bisim(net)
        assert not part.same_class(place(net, "s6"), place(net, "s8"))
        assert class_of(part, place(net, "s7")) != part.theta_class

    def test_non_inert_silent_move(self):
        # the silent move discards the b option, so it is observable
        net = net_of(
            ["s1", "s2", "s3", "s4", "s5", "s6", "s7"],
            [("s1", "tau", "s2"), ("s1", "b", None), ("s2", "a", "s3"),
             ("s4", "a", "s5"), ("s4", "b", None), ("s4", "tau", "s6"),
             ("s6", "a", "s7")],
            ["s1"])
        part = branching_bisim(net)
        s = {k: place(net, k) for k in net.names}
        assert not part.same_class(s["s1"], s["s4"])
        assert not part.same_class(s["s1"], s["s2"])
        assert not part.same_class(s["s2"], s["s4"])
        assert part.same_class(s["s2"], s["s6"])
        assert part.same_class(s["s3"], s["s5"])

    def test_inert_silent_move(self):
        net = net_of(
            ["p", "q", "r"],
            [("p", "tau", "q"), ("p", "a", None), ("q", "a", None),
             ("r", "a", None)],
            ["p"])
        part = branching_bisim(net)
        assert part.same_class(place(net, "p"), place(net, "q"))
        assert part.same_class(place(net, "p"), place(net, "r"))

    def test_duplicate_structure_merges(self):
        net = net_of(
            ["t1", "t2", "u1", "u2"],
            [("t1", "a", "t2"), ("t2", "b", None),
             ("u1", "a", "u2"), ("u2", "b", None)],
            ["t1", "u1"])
        part = branching_bisim(net)
        assert part.same_class(place(net, "t1"), place(net, "u1"))
        assert part.same_class(place(net, "t2"), place(net, "u2"))

    def test_explain_difference(self):
        net = net_of(
            ["s1", "s2"],
            [("s1", "a", None), ("s2", "b", None)],
            ["s1"])
        part = branching_bisim(net)
        text = explain_difference(net, part, place(net, "s1"), place(net, "s2"))
        assert text == ("s1 can reach a 'a' step into the empty marking "
                        "through inert silent moves, s2 cannot")


class TestEngineAgreement:
    def test_exact_partition_equality(self):
        rng = random.Random(21)
        for _ in range(150):
            net = random_net(rng, max_places=18, max_transitions=40,
                             tau_density=rng.uniform(0.0, 0.4))
            assert branching_bisim(net) == naive_branching_fixpoint(net)

    def test_oracle_place_cap(self):
        names = [f"s{i}" for i in range(201)]
        net = Net(names, [], ["s0"])
        with pytest.raises(ValueError):
            naive_branching_fixpoint(net)


def split_until_stable(moves, class_of, inert):
    """The plain signature loop: whole rounds until no class splits."""
    while True:
        split = _split(moves, class_of, inert)
        if len(set(split)) == len(set(class_of)):
            return split
        class_of = split


class TestIncrementalRefinement:
    """The engine against the plain loop it replaced, class ids included."""

    def agree(self, net):
        n = len(net.names)
        moves = _moves(net)
        plain = Partition(net, split_until_stable(moves, [0] * n + [1], True))
        assert branching_bisim(net) == plain
        edges = [(t.pre, t.label, n if t.post is None else t.post)
                 for t in net.transitions]
        assert (strong_partition(n + 1, edges)
                == split_until_stable(moves, [0] * (n + 1), False))

    def test_small_nets(self):
        rng = random.Random(32)
        for _ in range(3000):
            self.agree(random_net(rng, max_places=20, max_transitions=50,
                                  tau_density=rng.uniform(0.0, 0.6)))

    def test_large_nets(self):
        rng = random.Random(33)
        for _ in range(200):
            self.agree(random_net(rng, max_places=300, max_transitions=900,
                                  tau_density=rng.uniform(0.0, 0.6)))


def silent_line(n, closed):
    """n places joined by silent moves, closed into a cycle or ending
    in an a step to the empty marking."""
    names = [f"p{i:05d}" for i in range(n)]
    moves = [(names[i], "tau", names[i + 1]) for i in range(n - 1)]
    moves.append((names[-1], "tau", names[0]) if closed else (names[-1], "a", None))
    return net_of(names, moves, [names[0]])


def timed(label, work):
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start
    print(f"{label}: {elapsed:.3f} s")
    return result, elapsed


class TestRefinementScaling:
    @pytest.mark.parametrize("closed", [True, False])
    def test_long_silent_line_is_one_class(self, closed):
        net = silent_line(20000, closed)
        part, _ = timed(f"silent line, closed={closed}", lambda: branching_bisim(net))
        assert len(part.classes) == 2
        assert part.classes[part.theta_class] == frozenset([20000])

    def test_restricted_insecure_ring(self):
        n = 6400
        lines = [f"C{i} := a.C{(i + 1) % n}" for i in range(n)]
        lines[n // 2] = f"C{n // 2} := h.C{n // 2 + 1}"
        spec = parse_spec("high h\n" + "\n".join(lines) + "\nmain := C0\n")
        net = restrict_net(build_net(spec), spec.high_names)
        part, elapsed = timed("restricted ring 6400", lambda: branching_bisim(net))
        assert len(part.classes) == n + 1
        assert elapsed < 2.0

    def test_dense_silent_random_net(self):
        rng = random.Random(34)
        names = [f"s{i}" for i in range(1681)]
        moves = set()
        while len(moves) < 7386:
            moves.add((rng.choice(names), "tau" if rng.random() < 0.5
                       else rng.choice("abcd"), rng.choice(names)))
        net = net_of(names, moves, ["s0"])
        part, elapsed = timed("random 1681/7386", lambda: branching_bisim(net))
        assert part.classes[part.theta_class] == frozenset([1681])
        assert elapsed < 2.0

    def test_silent_chain(self):
        net = silent_line(2000, closed=False)
        part, elapsed = timed("silent chain 2000", lambda: branching_bisim(net))
        assert len(part.classes) == 2
        assert elapsed < 0.5


class TestPartitionObject:
    def test_theta_is_always_alone(self):
        rng = random.Random(22)
        for _ in range(500):
            net = random_net(rng, max_places=14, max_transitions=30,
                             tau_density=rng.uniform(0.0, 0.4))
            n = len(net.names)
            plain = branching_bisim(net)
            for part in (plain, rooted_partition(net, plain)):
                theta_members = part.classes[part.theta_class]
                assert theta_members == frozenset([n])

    def test_canonical_numbering(self):
        net = net_of(["p", "q"], [("p", "a", None), ("q", "b", None)], ["p"])
        left = Partition(net, [0, 1, 2])
        right = Partition(net, [5, 3, 9])
        assert left == right


class TestSelfCheck:
    def test_computed_partition_is_a_bisimulation(self):
        rng = random.Random(23)
        for _ in range(200):
            net = random_net(rng, max_places=16, max_transitions=36,
                             tau_density=rng.uniform(0.0, 0.4))
            assert is_branching_bisimulation(net, branching_bisim(net))

    def test_identity_partition_is_a_bisimulation(self):
        rng = random.Random(24)
        for _ in range(200):
            net = random_net(rng, max_places=12, max_transitions=24)
            n = len(net.names)
            singletons = Partition(net, list(range(n + 1)))
            assert is_branching_bisimulation(net, singletons)

    def test_coarsest_partition_is_maximal(self):
        rng = random.Random(25)
        merged = 0
        while merged < 200:
            net = random_net(rng, max_places=12, max_transitions=24,
                             tau_density=rng.uniform(0.0, 0.4))
            part = branching_bisim(net)
            n = len(net.names)
            real = [c for c in range(len(part.classes)) if c != part.theta_class]
            if len(real) < 2:
                continue
            a, b = rng.sample(real, 2)
            coarse = [b if class_of(part, p) == a else class_of(part, p)
                      for p in range(n)] + [part.theta_class]
            assert not is_branching_bisimulation(net, Partition(net, coarse))
            merged += 1


def silent_chains(net, start, include_empty, max_len=12):
    """Silent firing chains of one token from a place, no place revisited.

    Yields (transitions, final place or None).  Loop-free chains lose no
    matches: cutting a loop keeps the endpoints and the final marking.
    """
    out = []

    def extend(chain, cursor, seen):
        if chain or include_empty:
            out.append((list(chain), cursor))
        if cursor is None or len(chain) >= max_len:
            return
        for t in net.out(cursor):
            if t.label.is_tau and (t.post is None or t.post not in seen):
                chain.append(t)
                extend(chain, t.post,
                       seen if t.post is None else (seen | {t.post}))
                chain.pop()

    extend([], start, {start})
    return out


def run_chain(net, m, chain):
    for t in chain:
        m = fire(net, m, t)
    return m


def transfer_matched(net, part, m1, t1, m2):
    """One direction of the team transfer property for markings, given
    as multisets of places."""
    def key(m):
        return part.places_key(m.elements())

    theta = len(net.names)  # the empty marking's element of part
    m1_after = fire(net, m1, t1)
    for s2 in sorted(m2):
        if not part.same_class(t1.pre, s2):
            continue
        if t1.label.is_tau:
            # drop the move against a single related token
            if (t1.post is not None and part.same_class(t1.post, s2)
                    and key(m1_after) == key(m2)):
                return True
            # answer with a nonempty silent chain between related endpoints
            if t1.post is not None:
                for chain, u in silent_chains(net, s2, include_empty=False):
                    if u is None or not part.same_class(t1.pre, u):
                        continue
                    if not part.same_class(t1.post, u):
                        continue
                    m2_after = run_chain(net, m2, chain)
                    if key(m1) == key(m2_after) and key(m1_after) == key(m2_after):
                        return True
        # answer with silent preparation and one equally labelled firing
        for chain, u in silent_chains(net, s2, include_empty=True):
            if u is None or not part.same_class(t1.pre, u):
                continue
            m2_mid = run_chain(net, m2, chain)
            if key(m1) != key(m2_mid):
                continue
            for t2 in net.out(u):
                if t2.label != t1.label:
                    continue
                if not part.same_class(theta if t1.post is None else t1.post,
                                       theta if t2.post is None else t2.post):
                    continue
                if key(m1_after) == key(fire(net, m2_mid, t2)):
                    return True
    return False


class TestTeamEquivalence:
    def remapped(self, rng, net, part, m):
        """A marking pairing off with m place by place inside classes."""
        groups = {}
        n = len(net.names)
        for c, members in enumerate(part.classes):
            groups[c] = sorted(p for p in members if p < n)
        return tuple(sorted(rng.choice(groups[class_of(part, place)])
                            for place in m))

    def test_equal_sizes(self):
        rng = random.Random(26)
        for _ in range(500):
            net = random_net(rng, max_places=12, max_transitions=24)
            part = branching_bisim(net)
            m1 = random_marking(rng, net)
            m2 = random_marking(rng, net)
            if markings_equiv(part, m1, m2):
                assert len(m1) == len(m2)
            if len(m1) != len(m2):
                assert not markings_equiv(part, m1, m2)

    def test_additivity(self):
        rng = random.Random(27)
        for _ in range(500):
            net = random_net(rng, max_places=12, max_transitions=24)
            part = branching_bisim(net)
            a1 = random_marking(rng, net)
            b1 = random_marking(rng, net)
            a2 = self.remapped(rng, net, part, a1)
            b2 = self.remapped(rng, net, part, b1)
            assert markings_equiv(part, key_of(Counter(a1) + Counter(b1)),
                                  key_of(Counter(a2) + Counter(b2)))

    def test_subtractivity(self):
        rng = random.Random(28)
        for _ in range(500):
            net = random_net(rng, max_places=12, max_transitions=24)
            part = branching_bisim(net)
            m1 = key_of(Counter(random_marking(rng, net, max_tokens=5))
                        + Counter([0]))
            m2 = self.remapped(rng, net, part, m1)
            s1 = rng.choice(sorted(set(m1)))
            s2 = next(p for p in sorted(set(m2))
                      if part.same_class(p, s1))
            assert markings_equiv(part, key_of(Counter(m1) - Counter([s1])),
                                  key_of(Counter(m2) - Counter([s2])))

    def test_transfer(self):
        rng = random.Random(29)
        for _ in range(300):
            net = random_net(rng, max_places=12, max_transitions=18,
                             tau_density=rng.uniform(0.0, 0.35))
            part = branching_bisim(net)
            m1 = random_marking(rng, net, max_tokens=3)
            m2 = self.remapped(rng, net, part, m1)
            assert markings_equiv(part, m1, m2)
            for pair in ((m1, m2), (m2, m1)):
                src, other = map(Counter, pair)
                for p in sorted(src):
                    for t in net.out(p):
                        assert transfer_matched(net, part, src, t, other)

    def test_stuttering_chains(self):
        rng = random.Random(30)
        for _ in range(500):
            net = random_net(rng, max_places=12, max_transitions=24,
                             tau_density=rng.uniform(0.1, 0.5))
            part = branching_bisim(net)
            for start in range(len(net.names)):
                for chain, end in silent_chains(net, start, False, max_len=6):
                    if end is None or len(chain) < 2:
                        continue
                    if not part.same_class(start, end):
                        continue
                    cursor = start
                    for t in chain:
                        assert part.same_class(start, cursor)
                        cursor = t.post

    def test_rooted_refines_branching(self):
        rng = random.Random(31)
        for _ in range(500):
            net = random_net(rng, max_places=14, max_transitions=30,
                             tau_density=rng.uniform(0.0, 0.4))
            part = branching_bisim(net)
            rooted = rooted_partition(net, part)
            n = len(net.names)
            for members in rooted.classes:
                classes = {class_of(part, p) for p in members if p < n}
                assert len(classes) <= 1


class TestTermsEquiv:
    def spec(self):
        return parse_spec("high h\nmain := 0")

    def test_silent_prefix_absorbed_without_root(self):
        spec = self.spec()
        p = parse_term("tau.a.0", spec)
        q = parse_term("a.0", spec)
        assert terms_equiv(p, q, spec)
        assert not terms_equiv(p, q, spec, rooted=True)

    def test_choice_laws(self):
        spec = self.spec()
        pairs = [("a.0 + b.0", "b.0 + a.0"),
                 ("(a.0 + b.0) + c.0", "a.0 + (b.0 + c.0)"),
                 ("a.0 + a.0", "a.0"),
                 ("a.0 + 0", "a.0")]
        for left, right in pairs:
            assert terms_equiv(parse_term(left, spec), parse_term(right, spec),
                               spec, rooted=True)

    def test_stuck_choice_differs_from_nil(self):
        spec = self.spec()
        assert not terms_equiv(parse_term("0 + 0", spec),
                               parse_term("0", spec), spec)

    def test_parallel_laws(self):
        spec = self.spec()
        pairs = [("a.0 | b.0", "b.0 | a.0"),
                 ("(a.0 | b.0) | c.0", "a.0 | (b.0 | c.0)"),
                 ("a.0 | 0", "a.0")]
        for left, right in pairs:
            assert terms_equiv(parse_term(left, spec), parse_term(right, spec),
                               spec, rooted=True)

    def test_across_constants(self):
        spec = parse_spec("A := a.A\nB := a.a.B\nmain := A | B")
        assert terms_equiv(parse_term("A", spec), parse_term("B", spec),
                           spec, rooted=True)

    def test_no_interleaving_law(self):
        # two tokens never match one: the equivalence counts components
        spec = self.spec()
        p = parse_term("a.0 | b.0", spec)
        q = parse_term("a.b.0 + b.a.0", spec)
        assert not terms_equiv(p, q, spec)


class TestStrongPartition:
    def test_cycle_against_unfolding(self):
        a = low("a")
        cls = strong_partition(3, [(0, a, 0), (1, a, 2), (2, a, 1)])
        assert cls[0] == cls[1] == cls[2]

    def test_labels_split(self):
        cls = strong_partition(2, [(0, low("a"), 0), (1, low("b"), 1)])
        assert cls[0] != cls[1]

    def test_tau_stays_visible(self):
        cls = strong_partition(3, [(0, TAU, 1), (1, low("a"), 2)])
        assert cls[0] != cls[1]
