"""Acceptance suite.

Each test covers one release criterion end to end and prints a single
summary line on success; any assertion failure is a release blocker.
The randomized suites use fixed seeds so every run checks the same
population.
"""

import random
import time
from collections import Counter

import pytest

from cfmcheck.equiv import branching_bisim, markings_equiv, rooted_partition
from cfmcheck.net import Net, StateLimitError
from cfmcheck.security import (
    dni_compositional, dni_definitional, dni_structural, rooted_dni,
    sbndc_interleaving,
)
from cfmcheck.syntax import TAU, low, parse_spec
from cfmcheck.typesystem import decide_equational, type_check
from support import (
    AXIOM_NAMES, axiom_instance, class_of, key_of, marking_graph_matches_lts,
    naive_branching_fixpoint, random_marking, random_net, random_spec,
)


def net_of(names, triples, initial):
    return Net(names, [(p, low(a) if a != "tau" else TAU, q)
                       for p, a, q in triples], initial)


def dni_verdicts(text):
    spec = parse_spec(text)
    return (dni_definitional(spec).secure, dni_structural(spec).secure,
            dni_compositional(spec).secure)


def test_criterion_1_known_examples():
    checks = 0

    # a high step that spawns a second copy of a low component:
    # invisible to the interleaving check, caught by all three
    # distributed procedures
    copy_attack = parse_spec("high h\nC := h.B\nB := l.B\nmain := C | B")
    assert sbndc_interleaving(copy_attack).secure
    for verdict in dni_verdicts("high h\nC := h.B\nB := l.B\nmain := C | B"):
        assert not verdict
    checks += 4

    # a high step is harmless exactly when the token it moves keeps
    # its low-observable future, including not vanishing
    assert dni_verdicts("high h\nC := 0\nmain := l.h.C") == (True,) * 3
    assert dni_verdicts("high h\nmain := l.h.0") == (False,) * 3
    assert dni_verdicts("high h\nC := 0\nmain := h.l.0 + l.C") == (False,) * 3
    checks += 9

    # silent moves after the high step do not mask the changed choice
    assert dni_verdicts("high h\n"
                        "C := h.(a.D + a.b.0) + a.D\n"
                        "D := tau.b.0 + c.0\n"
                        "main := C") == (False,) * 3
    checks += 3

    # recursive constants, reordering, and the rooted strengthening
    good = parse_spec("high h\nC := h.l.C + l.C\nmain := C")
    assert dni_structural(good).secure and type_check(good).typed
    bad = parse_spec("high h\nD := l.h.D\nmain := D")
    assert not dni_structural(bad).secure and not type_check(bad).typed
    reordered = parse_spec("high h\nmain := l.0 + h.l.0")
    assert rooted_dni(reordered).secure and type_check(reordered).typed
    silent = parse_spec("high h\nmain := h.tau.(0 + 0)")
    assert dni_structural(silent).secure
    assert not rooted_dni(silent).secure and not type_check(silent).typed
    nested = parse_spec(
        "high h\nmain := h.l.l.0 + (h.l.(h.l.0 + l.0) + l.l.0)")
    assert type_check(nested).typed
    checks += 10

    # low choice resolved by the high branch: even the interleaving
    # check rejects it
    low_choice = parse_spec("high h\nmain := l.h.l.0 + l.0 + l.l.0")
    assert not sbndc_interleaving(low_choice).secure
    checks += 1

    # where the choice happens matters; a deadlocked place is not gone
    abc = net_of(
        ["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"],
        [("s1", "a", "s2"), ("s2", "b", None), ("s2", "c", None),
         ("s3", "a", "s4"), ("s3", "a", "s5"),
         ("s4", "b", None), ("s5", "c", None),
         ("s6", "a", "s7"), ("s8", "a", None)],
        ["s1"])
    part = branching_bisim(abc)
    assert not part.same_class(abc.index["s1"], abc.index["s3"])
    assert not part.same_class(abc.index["s6"], abc.index["s8"])
    checks += 2

    # silent moves are inert only when they change nothing observable
    silent_net = net_of(
        ["s1", "s2", "s3", "s4", "s5", "s6", "s7"],
        [("s1", "tau", "s2"), ("s1", "b", None), ("s2", "a", "s3"),
         ("s4", "a", "s5"), ("s4", "b", None), ("s4", "tau", "s6"),
         ("s6", "a", "s7")],
        ["s1"])
    part = branching_bisim(silent_net)
    assert not part.same_class(silent_net.index["s1"], silent_net.index["s4"])
    assert not part.same_class(silent_net.index["s1"], silent_net.index["s2"])
    assert not part.same_class(silent_net.index["s2"], silent_net.index["s4"])
    checks += 3

    print(f"criterion 1: PASS - {checks} known example outcomes match")


def test_criterion_2_engine_agreement():
    rng = random.Random(202)
    runs = 500
    for _ in range(runs):
        net = random_net(rng, max_places=50, max_transitions=120,
                         tau_density=rng.uniform(0.0, 0.4))
        assert branching_bisim(net) == naive_branching_fixpoint(net)
    print(f"criterion 2: PASS - both engines split {runs} nets identically")


def test_criterion_3_method_agreement():
    rng = random.Random(303)
    runs = 1000
    for _ in range(runs):
        spec = random_spec(rng, max_consts=6, max_depth=5, max_par=4)
        answers = {dni_definitional(spec).secure,
                   dni_structural(spec).secure,
                   dni_compositional(spec).secure}
        assert len(answers) == 1, spec.main
    print(f"criterion 3: PASS - three procedures agree on {runs} terms")


def test_criterion_4_typing_characterization():
    rng = random.Random(303)
    runs = 1000
    for _ in range(runs):
        spec = random_spec(rng, max_consts=6, max_depth=5, max_par=4)
        assert type_check(spec).typed == rooted_dni(spec).secure, spec.main
    print(f"criterion 4: PASS - typed equals rooted-secure on {runs} terms")


def test_criterion_5_equational_axioms():
    rng = random.Random(505)
    per_axiom = 200
    for name in AXIOM_NAMES:
        for _ in range(per_axiom):
            p, q, spec = axiom_instance(rng, name)
            assert decide_equational(p, q, spec), (name, p, q)
    print(f"criterion 5: PASS - {len(AXIOM_NAMES)} axiom schemes x "
          f"{per_axiom} instances all decided equal")


def silent_simple_chains(net, start, max_len):
    out = []

    def extend(chain, cursor, seen):
        if chain:
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


def test_criterion_6_equivalence_laws():
    rng = random.Random(606)
    runs = 500
    for _ in range(runs):
        net = random_net(rng, max_places=12, max_transitions=24,
                         tau_density=rng.uniform(0.0, 0.4))
        part = branching_bisim(net)
        n = len(net.names)

        # theta stays alone, in the plain and the rooted partition
        rooted = rooted_partition(net, part)
        assert part.classes[part.theta_class] == frozenset([n])
        assert rooted.classes[rooted.theta_class] == frozenset([n])

        # the rooted partition refines the plain one
        for members in rooted.classes:
            assert len({class_of(part, p) for p in members if p < n}) <= 1

        # related markings have equal sizes; unequal sizes never relate
        m1 = random_marking(rng, net)
        m2 = random_marking(rng, net)
        if markings_equiv(part, m1, m2):
            assert len(m1) == len(m2)
        if len(m1) != len(m2):
            assert not markings_equiv(part, m1, m2)

        # additivity: class-preserving token replacement survives sums
        groups = {}
        for c, members in enumerate(part.classes):
            groups[c] = sorted(p for p in members if p < n)

        def remap(m):
            return tuple(sorted(rng.choice(groups[class_of(part, p)])
                                for p in m))

        a2, b2 = remap(m1), remap(m2)
        assert markings_equiv(part, key_of(Counter(m1) + Counter(m2)),
                              key_of(Counter(a2) + Counter(b2)))

        # subtractivity: removing related tokens keeps markings related
        big1 = key_of(Counter(m1) + Counter([0]))
        big2 = remap(big1)
        s1 = rng.choice(sorted(set(big1)))
        s2 = next(p for p in sorted(set(big2)) if part.same_class(p, s1))
        assert markings_equiv(part, key_of(Counter(big1) - Counter([s1])),
                              key_of(Counter(big2) - Counter([s2])))

        # stuttering: a silent chain between equivalent endpoints stays
        # inside their class
        for start in range(n):
            for chain, end in silent_simple_chains(net, start, 6):
                if end is None or len(chain) < 2:
                    continue
                if not part.same_class(start, end):
                    continue
                cursor = start
                for t in chain:
                    assert part.same_class(start, cursor)
                    cursor = t.post
    print(f"criterion 6: PASS - six equivalence laws over {runs} nets")


def test_criterion_7_compositional_scaling():
    lines = ["high h"]
    lines += [f"C{i} := {'h' if i == 8 else 'a'}.C{(i + 1) % 10}"
              for i in range(10)]
    lines.append("main := " + " | ".join(["C0"] * 12))
    spec = parse_spec("\n".join(lines))

    started = time.perf_counter()
    verdict = dni_compositional(spec)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"compositional check took {elapsed:.3f}s"
    assert verdict.stats["components"] == 1

    with pytest.raises(StateLimitError):
        dni_definitional(spec, limit=10 ** 5)
    print(f"criterion 7: PASS - 12 copies checked in {elapsed:.3f}s "
          f"compositionally; definitional blows a 100000-marking cap")


def test_criterion_8_marking_graph_matches_lts():
    rng = random.Random(808)
    checked = 0
    while checked < 500:
        spec = random_spec(rng)
        try:
            matches = marking_graph_matches_lts(spec, limit=10 ** 4)
        except StateLimitError:
            continue
        checked += 1
        assert matches, spec.main
    print(f"criterion 8: PASS - term steps and token moves bisimilar "
          f"on {checked} systems")
