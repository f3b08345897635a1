"""Markings, net construction, firing, reachability, the term transition
system, and serialization."""

import gc
import random
import time
from collections import Counter

import pytest

from cfmcheck.net import (
    Net, StateLimitError, Transition, build_lts, build_net, dec, lts_step,
    marking_counts, net_to_dot, net_to_json, reach_graph, restrict_net,
    show_marking,
)
from cfmcheck.security import dni_structural, sbndc_interleaving
from cfmcheck.syntax import NIL, high, low, parse_spec, parse_term, show
from support import (
    NotEnabledError, bracketed, fire, fired_reach_graph, key_of, lts_summary,
    marking_graph_matches_lts, random_marking, random_net, random_parallel,
    random_sequential, random_spec, silent_closure, sort, term_lts,
)


def spec_of(text):
    return parse_spec(text)


def term_of(text, spec_text="high h\nmain := 0"):
    return parse_term(text, parse_spec(spec_text))


class TestKeyRendering:
    def test_rendering(self):
        assert show_marking(()) == "(empty)"
        assert show_marking(("p", "p", "q")) == "2*p | q"

    def test_counts(self):
        assert marking_counts(()) == []
        assert marking_counts(("p", "p", "q")) == [("p", 2), ("q", 1)]
        assert marking_counts((0, 3, 3, 3, 5)) == [(0, 1), (3, 3), (5, 1)]

    def test_counts_linear_in_tokens(self):
        # many places, many tokens: no count may rescan the key per place
        key = tuple(sorted(i % 10000 for i in range(100000)))
        started = time.perf_counter()
        counts = marking_counts(key)
        elapsed = time.perf_counter() - started
        assert counts == [(i, 10) for i in range(10000)]
        assert elapsed < 1.0


class TestDec:
    def test_sequential_is_singleton(self):
        t = term_of("a.0 + b.c.0")
        assert dec(t) == (show(t),)

    def test_nil_is_theta(self):
        assert dec(NIL) == ()

    def test_parallel_splits(self):
        t = term_of("a.0 | (b.0 + c.0) | a.0 | 0")
        assert dec(t) == ("a.0", "a.0", "b.0 + c.0")

    def test_two_copies_each(self):
        q1, q2 = term_of("a.b.0"), term_of("c.0 + d.0")
        t = term_of("a.b.0 | (c.0 + d.0) | a.b.0 | (c.0 + d.0)")
        assert dec(t) == key_of(Counter(dec(q1)) + Counter(dec(q1))
                                + Counter(dec(q2)) + Counter(dec(q2)))

    def test_stuck_choice_is_not_theta(self):
        assert dec(term_of("0 + 0")) == ("0 + 0",)


class TestBuildNet:
    def test_single_prefix(self):
        net = build_net(spec_of("main := a.0"))
        assert net.names == ("a.0",)
        assert net.transitions == (Transition(0, low("a"), None),)
        assert net.initial == (0,)

    def test_choice_shares_root(self):
        net = build_net(spec_of("high h\nmain := h.l.0 + l.0"))
        root = net.names.index("h.l.0 + l.0")
        labels = sorted(str(t.label) for t in net.out(root))
        assert labels == ["h", "l"]

    def test_recursive_constant(self):
        net = build_net(spec_of("A := a.A\nmain := A"))
        assert net.names == ("A",)
        assert net.transitions == (Transition(0, low("a"), 0),)

    def test_figure_two_copy_pair(self):
        net = build_net(spec_of(
            "high h\nC := h.l.C + l.C\nB := l.B\nmain := C | B"))
        assert net.names == ("B", "C", "l.C")
        assert net.initial == (0, 1)
        b, c, lc = 0, 1, 2
        assert set(net.transitions) == {
            Transition(c, high("h"), lc), Transition(c, low("l"), c),
            Transition(lc, low("l"), c), Transition(b, low("l"), b)}

    def test_initial_places_by_name(self):
        net = Net(["p", "q"], [("q", low("a"), "p")], ["q", "p", "q"])
        assert net.initial == (0, 1, 1)
        with pytest.raises(ValueError, match="unknown place 'r'"):
            Net(["p", "q"], [], ["p", "r"])

    def test_chained_constants(self):
        net = build_net(spec_of("A := a.0\nB := b.A\nmain := B"))
        assert net.names == ("A", "B")
        assert set(net.transitions) == {
            Transition(1, low("b"), 0), Transition(0, low("a"), None)}

    def test_parallel_components_union(self):
        spec = spec_of("main := a.0 | b.0")
        net = build_net(spec)
        assert [net.names[i] for i in net.initial] == ["a.0", "b.0"]
        assert len(net.transitions) == 2

    def test_unproduced_summand_roots_dropped(self):
        net = build_net(spec_of("main := a.b.0 + c.0"))
        assert "a.b.0" not in net.names
        assert "c.0" not in net.names
        assert "a.b.0 + c.0" in net.names and "b.0" in net.names

    def test_all_places_reachable(self):
        rng = random.Random(11)
        for _ in range(300):
            net = build_net(random_spec(rng))
            seen = set(net.initial)
            frontier = list(seen)
            while frontier:
                for t in net.out(frontier.pop()):
                    if t.post is not None and t.post not in seen:
                        seen.add(t.post)
                        frontier.append(t.post)
            assert seen == set(range(len(net.names)))

    def test_net_of_subterm(self):
        spec = spec_of("high h\nC := h.l.C + l.C\nmain := C | C")
        net = build_net(spec.with_main(parse_term("l.C", spec)))
        assert net.names == ("C", "l.C")
        assert net.initial == (net.index["l.C"],)

    def test_branching_ring_scales(self):
        # many paths lead to each constant: compiling must not depend on
        # the path a constant is reached by
        n = 40
        defs = "\n".join(f"C{i} := a.C{(i + 1) % n} + b.C{(7 * i + 3) % n}"
                         for i in range(n))
        spec = spec_of(f"high b\n{defs}\nmain := C0")
        started = time.perf_counter()
        net = build_net(spec)
        verdict = dni_structural(spec)
        elapsed = time.perf_counter() - started
        assert len(net.names) == n and len(net.transitions) == 2 * n
        # hiding b leaves one a-cycle through every constant
        assert verdict.secure
        assert elapsed < 2.0

    def test_labels_cover_sort(self):
        rng = random.Random(12)
        for _ in range(200):
            spec = random_spec(rng)
            net = build_net(spec)
            assert net.labels == sort(spec.main, spec)


class TestFiringAndReachability:
    def test_fire_moves_one_token(self):
        net = build_net(spec_of("main := a.b.0"))
        t = next(t for t in net.transitions if str(t.label) == "a")
        after = fire(net, Counter(net.initial), t)
        assert after == Counter([net.index["b.0"]])

    def test_fire_to_theta(self):
        net = build_net(spec_of("main := a.0"))
        assert fire(net, Counter(net.initial), net.transitions[0]) == Counter()

    def test_fire_requires_token(self):
        net = build_net(spec_of("main := a.b.0"))
        t = next(t for t in net.transitions if str(t.label) == "b")
        with pytest.raises(NotEnabledError):
            fire(net, Counter(net.initial), t)

    def test_reach_counts(self):
        spec = spec_of("main := a.0 | a.0 | a.0")
        assert len(reach_graph(build_net(spec), ALL)[0]) == 4

    def test_reach_graph_edges(self):
        net = build_net(spec_of("main := a.b.0"))
        keys, edges, steps = reach_graph(net, ALL)
        assert keys[0] == net.initial
        assert len(keys) == 3 and len(edges) == steps == 2
        assert () in keys

    def test_state_limit(self):
        spec = spec_of("main := " + " | ".join(["a.b.c.0"] * 12))
        with pytest.raises(StateLimitError):
            reach_graph(build_net(spec), ALL, limit=100)

    def test_boundedness(self):
        rng = random.Random(13)
        for _ in range(150):
            spec = random_spec(rng)
            net = build_net(spec)
            k = len(net.initial)
            for key in reach_graph(net, ALL, limit=5000)[0]:
                assert len(key) <= k

    def test_silent_closure(self):
        net = build_net(spec_of("main := tau.tau.a.0 + b.0"))
        root = net.names.index("tau.tau.a.0 + b.0")
        names = {None if p is None else net.names[p]
                 for p in silent_closure(net, root)}
        assert names == {"tau.tau.a.0 + b.0", "tau.a.0", "a.0"}


def ALL(t):
    """Keep every edge."""
    return True


def capped(explore, net, limit):
    try:
        return explore(net, limit)
    except StateLimitError as error:
        return "capped", error.explored


class TestReachGraphAgainstFiring:
    def assert_same(self, net, limit=5000):
        expected = capped(fired_reach_graph, net, limit)
        got = capped(lambda net, limit: reach_graph(net, ALL, limit)[:2],
                     net, limit)
        assert got == expected
        if got[0] == "capped":
            return 0
        keys, edges = got
        for source, t, target in edges:
            assert key_of(fire(net, Counter(keys[source]), t)) == keys[target]
        return len(keys)

    def test_random_specs(self):
        rng = random.Random(7)
        reached = sum(self.assert_same(build_net(random_spec(rng)))
                      for _ in range(2000))
        assert reached > 50000

    def test_random_nets_from_multi_token_markings(self):
        # small nets and up to 5 tokens: repeated tokens on one place,
        # pre == post self-loops and empty post-sets all occur
        rng = random.Random(8)
        repeated = capped_draws = 0
        for _ in range(300):
            net = random_net(rng, max_places=8, max_transitions=20)
            start = random_marking(rng, net, max_tokens=5)
            repeated += len(set(start)) < len(start)
            names = net.names
            net = Net(names,
                      [(names[t.pre], t.label,
                        None if t.post is None else names[t.post])
                       for t in net.transitions],
                      [names[i] for i in start])
            self.assert_same(net)
            # a tight cap: both explorations stop at the same state
            capped_draws += self.assert_same(net, limit=20) == 0
        assert repeated > 50 and capped_draws > 20

    def test_filtered_exploration(self):
        # keep narrows the edges and nothing else: the same markings,
        # every edge still counted, only accepted edges kept
        rng = random.Random(9)
        kept_total = 0
        for _ in range(300):
            spec = random_spec(rng)
            net = build_net(spec)
            markings, edges, _ = reach_graph(net, ALL, limit=5000)
            accepted = frozenset(t for t in net.transitions
                                 if t.label.is_high)
            keys, kept, steps = reach_graph(net, accepted.__contains__,
                                            limit=5000)
            assert keys == markings
            assert all(list(key) == sorted(key) for key in keys)
            assert steps == len(edges)
            assert kept == [e for e in edges if e[1] in accepted]
            kept_total += len(kept)
        assert kept_total > 1000

    def test_copies_scale(self):
        # criterion 7's insecure 10-constant ring, 8 copies
        lines = ["high h"]
        lines += [f"C{i} := {'h' if i == 8 else 'a'}.C{(i + 1) % 10}"
                  for i in range(10)]
        lines.append("main := " + " | ".join(["C0"] * 8))
        net = build_net(spec_of("\n".join(lines)))
        started = time.perf_counter()
        markings, edges, _ = reach_graph(net, ALL)
        elapsed = time.perf_counter() - started
        print(f"8 ring copies: {len(markings)} markings, {len(edges)} edges "
              f"in {elapsed:.3f}s")
        assert (len(markings), len(edges)) == (24310, 114400)
        assert elapsed < 2.5


class TestRestrictNet:
    def test_blocks_high_only(self):
        spec = spec_of("high h\nC := h.l.C + l.C\nmain := C")
        net = build_net(spec)
        restricted = restrict_net(net)
        assert restricted.names == net.names
        assert sorted(str(t.label) for t in restricted.transitions) == ["l", "l"]

    def test_keeps_places_filters_transitions(self):
        rng = random.Random(14)
        for _ in range(200):
            spec = random_spec(rng)
            net = build_net(spec)
            restricted = restrict_net(net)
            assert restricted.names == net.names
            assert restricted.initial == net.initial
            assert restricted.transitions == tuple(
                t for t in net.transitions if not t.label.is_high)

    def test_tau_survives(self):
        net = build_net(spec_of("high h\nmain := tau.h.0"))
        restricted = restrict_net(net)
        assert [str(t.label) for t in restricted.transitions] == ["tau"]


class TestLts:
    def test_steps(self):
        spec = spec_of("high h\nC := h.l.C + l.C\nmain := C")
        steps = lts_step(spec.main, spec)
        assert {(str(a), show(t)) for a, t in steps} == {("h", "l.C"), ("l", "C")}

    def test_parallel_term_rejected(self):
        spec = spec_of("main := a.0 | b.0")
        with pytest.raises(ValueError, match="expected a sequential term"):
            lts_step(spec.main, spec)

    def test_parallel_interleaving(self):
        spec = spec_of("main := a.0 | b.0")
        lts = build_lts(spec)
        # places a.0, b.0 and 0, one index per leaf
        assert lts.states == ((0, 1), (2, 1), (0, 2), (2, 2))
        assert lts.names == ("a.0 | b.0", "0 | b.0", "a.0 | 0", "0 | 0")
        assert len(lts.edges) == 4

    def test_one_leaf_states(self):
        lts = build_lts(spec_of("main := a.b.0"))
        assert lts.states == ((0,), (1,), (2,))
        assert lts.names == ("a.b.0", "b.0", "0")

    def test_limit(self):
        spec = spec_of("main := " + " | ".join(["a.b.0"] * 8))
        with pytest.raises(StateLimitError):
            build_lts(spec, limit=50)

    def test_bisimilar_to_marking_graph(self):
        rng = random.Random(15)
        for _ in range(100):
            spec = random_spec(rng)
            assert marking_graph_matches_lts(spec, limit=20000)
            lts = build_lts(spec, limit=20000)
            assert len(set(lts.edges)) == len(lts.edges)


def ring_copies(k, n=10, secure=True):
    """k copies of an n-constant ring with one high step at C(n/2)."""
    bodies = [f"a.C{(i + 1) % n}" for i in range(n)]
    half = n // 2
    bodies[half] = (f"h.{bodies[half]} + {bodies[half]}" if secure
                    else f"h.C{(half + 1) % n}")
    defs = "\n".join(f"C{i} := {body}" for i, body in enumerate(bodies))
    return spec_of(f"high h\n{defs}\nmain := {' | '.join(['C0'] * k)}")


class TestLtsAgainstTerms:
    """build_lts explores the product of per-place moves; term_lts
    explores whole terms.  They must give the same system."""

    def assert_same(self, spec, limit=20000):
        expected = lts_summary(term_lts, spec, limit)
        assert lts_summary(build_lts, spec, limit) == expected, show(spec.main)

    def test_random_specs(self):
        rng = random.Random(7)
        for _ in range(2000):
            spec = random_spec(rng)
            self.assert_same(spec)
            self.assert_same(spec, limit=7)

    def test_random_bracketings(self):
        # random_spec nests | to the left only; any other bracketing puts
        # other text between the leaves of main
        rng = random.Random(22)
        for _ in range(500):
            spec = random_spec(rng, max_par=1)
            consts = tuple(spec.defs)
            parts = [random_parallel(rng, 2, 2) if rng.random() < 0.3 else
                     random_sequential(rng, rng.randint(1, 4), consts)
                     for _ in range(rng.randint(2, 5))]
            spec = spec.with_main(bracketed(rng, parts))
            self.assert_same(spec, limit=2000)
            self.assert_same(spec, limit=7)

    def test_ring_copies(self):
        for k in range(1, 5):
            for secure in (True, False):
                spec = ring_copies(k, secure=secure)
                self.assert_same(spec)
                self.assert_same(spec, limit=40)

    @pytest.mark.parametrize("text", [
        "main := 0",
        "main := 0 | 0",
        "main := (a.0 | b.0) | c.0",
        "main := a.0 | (b.0 | c.0)",
        "main := (a.0 | b.0) | (c.0 | d.0)",
        "main := a.0 | ((b.0 | c.0) | (d.0 | (e.0 | f.0)))",
        "X := a.X\nmain := X | X",
        "X := a.b.X + tau.X\nmain := X",
        "main := a.0 + a.0 | 0 | (b.a.0 | 0 + 0)",
    ])
    def test_edge_cases(self, text):
        spec = spec_of(text)
        self.assert_same(spec)
        for limit in (1, 2, 3):
            self.assert_same(spec, limit)

    def test_looping_leaves_share_their_edge(self):
        lts = build_lts(spec_of("X := a.X\nmain := X | X"))
        assert lts.names == ("X | X",)
        assert [(s, str(a), t) for s, a, t in lts.edges] == [(0, "a", 0)]


class TestNoReferenceCycles:
    """The engine's walks leave nothing for the cyclic collector."""

    @pytest.mark.parametrize("check", [build_net, build_lts,
                                       sbndc_interleaving])
    def test_one_call_leaves_no_garbage(self, check):
        specs = [ring_copies(2, n=50)]
        if check is sbndc_interleaving:
            # secure leaves decide alone; an insecure one explores the
            # product
            specs.append(ring_copies(2, n=50, secure=False))
        for spec in specs:
            gc.collect()
            gc.disable()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                check(spec)
                gc.collect()
                garbage = len(gc.garbage)
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.enable()
            assert garbage == 0


class TestSerialization:
    def test_json_shape(self):
        net = build_net(spec_of("high h\nmain := h.a.0"))
        data = net_to_json(net)
        assert set(data) == {"places", "transitions", "initial"}
        assert data["places"] == ["a.0", "h.a.0"]
        assert {"pre": 1, "label": "h", "post": 0} in data["transitions"]
        terminal = next(t for t in data["transitions"] if t["label"] == "a")
        assert terminal["post"] is None

    def test_dot_output(self):
        net = build_net(spec_of("main := a.0 | a.0"))
        dot = net_to_dot(net)
        assert dot.startswith("digraph")
        assert "a.0" in dot
