"""The syntactic security proof system and its equational side checks."""

import gc
import random
import sys

import pytest

from cfmcheck import typesystem
from cfmcheck.security import rooted_dni
from cfmcheck.syntax import NIL, parse_spec, parse_term, show
from cfmcheck.typesystem import (
    decide_equational, derivation_lines, is_deadlock_place, judgment_lines,
    type_check,
)
from support import (
    AXIOM_NAMES, axiom_instance, naive_derivation_lines, naive_type_check,
    random_spec, subterms, syntactic_equational, type_outputs,
)


def spec_of(text):
    return parse_spec(text)


def secure_ring(n, branching):
    return ring(n, branching, secure=True)


def ring(n, branching, secure):
    """Ci := a.C(i+1), plus b.C(7i+3) when branching; C(n/2) := h.X + X
    for its low body X when secure, else h.C(n/2+1)."""
    bodies = []
    for i in range(n):
        body = f"a.C{(i + 1) % n}"
        if branching:
            body += f" + b.C{(7 * i + 3) % n}"
        if i == n // 2:
            if not secure:
                body = f"h.C{(i + 1) % n}"
            elif branching:
                body = f"h.({body}) + {body}"
            else:
                body = f"h.{body} + {body}"
        bodies.append(body)
    return spec_of("high h\n" + "".join(
        f"C{i} := {body}\n" for i, body in enumerate(bodies)) + "main := C0\n")


class TestDeadlockPlaces:
    def test_stuck_choice(self):
        spec = spec_of("main := 0")
        assert is_deadlock_place(parse_term("0 + 0", spec), spec)
        assert is_deadlock_place(parse_term("0 + 0 + 0", spec), spec)

    def test_nil_is_not_a_place(self):
        spec = spec_of("main := 0")
        assert not is_deadlock_place(NIL, spec)

    def test_live_terms(self):
        spec = spec_of("high h\nmain := 0")
        for text in ("a.0", "tau.0", "h.0", "a.0 + 0"):
            assert not is_deadlock_place(parse_term(text, spec), spec)

    def test_constants(self):
        spec = spec_of("C := 0 + 0\nD := a.D\nmain := C | D")
        assert is_deadlock_place(parse_term("C", spec), spec)
        assert not is_deadlock_place(parse_term("D", spec), spec)

    def test_parallel_rejected(self):
        spec = spec_of("main := a.0 | b.0")
        with pytest.raises(ValueError):
            is_deadlock_place(spec.main, spec)


class TestKnownJudgments:
    def typed(self, text):
        return type_check(spec_of(text)).typed

    def test_base_cases(self):
        assert self.typed("main := 0")
        assert self.typed("main := 0 + 0")
        assert self.typed("main := a.tau.0")
        assert self.typed("high h\nmain := h.(0 + 0)")

    def test_high_prefix_needs_stuck_or_high(self):
        assert self.typed("high h, k\nC := k.C\nmain := h.C")
        assert self.typed("high h\nC := 0\nmain := l.h.C")
        assert not self.typed("high h, k\nmain := h.k.0")
        assert not self.typed("high h\nmain := h.0")
        assert not self.typed("high h\nmain := h.tau.(0 + 0)")
        assert not self.typed("high h\nmain := h.(k.0 + a.0)")

    def test_recursive_constants(self):
        assert self.typed("high h\nC := h.l.C + l.C\nmain := C")
        assert not self.typed("high h\nD := l.h.D\nmain := D")

    def test_choice_needs_a_matching_remainder(self):
        assert self.typed("high h\nmain := l.0 + h.l.0")
        assert not self.typed("high h\nmain := h.l.0 + l.l.0")
        assert not self.typed("high h\nmain := h.0 + 0")

    def test_nested_choices(self):
        assert self.typed(
            "high h\nmain := h.l.l.0 + (h.l.(h.l.0 + l.0) + l.l.0)")

    def test_parallel_checks_every_component(self):
        assert self.typed("high h\nC := h.l.C + l.C\nmain := C | l.0 | C")
        assert not self.typed("high h\nC := h.l.C + l.C\nmain := C | h.0")

    def test_summand_order_is_immaterial(self):
        left = self.typed("high h\nmain := h.l.0 + l.0")
        right = self.typed("high h\nmain := l.0 + h.l.0")
        assert left and right

    def test_term_argument(self):
        spec = spec_of("high h\nC := h.l.C + l.C\nmain := h.0")
        assert not type_check(spec).typed
        assert type_check(spec.with_main(parse_term("C", spec))).typed


class TestJudgmentContents:
    def test_derivation_rules(self):
        spec = spec_of("high h\nC := h.l.C + l.C\nmain := C | l.0")
        judgment = type_check(spec)
        assert judgment.typed

        rules = set()

        def walk(d):
            rules.add(d.rule)
            for child in d.children:
                walk(child)

        walk(judgment.derivation)
        assert "par" in rules
        assert "const-def" in rules
        assert "const-scanned" in rules
        assert "choice-high" in rules

    def test_failure_reports_culprit(self):
        spec = spec_of("high h\nmain := l.h.0")
        judgment = type_check(spec)
        assert not judgment.typed
        assert judgment.derivation is None
        assert judgment.reason
        assert judgment.failing is not None

    def test_renderers(self):
        good = type_check(spec_of("high h\nmain := h.l.0 + l.0"))
        assert any("choice-high" in line for line in derivation_lines(good.derivation))
        bad = type_check(spec_of("high h\nmain := h.0"))
        assert judgment_lines(bad)
        assert judgment_lines(good)


class TestDerivationListing:
    """derivation_lines walks with a stack; the recursive listing in
    support is its oracle."""

    def assert_listed(self, spec):
        judgment = type_check(spec)
        if judgment.typed:
            for depth in (0, 1):
                assert derivation_lines(judgment.derivation, depth) == \
                    naive_derivation_lines(judgment.derivation, depth)
        return judgment.typed

    def test_random_specs(self):
        rng = random.Random(7)
        typed = sum(self.assert_listed(random_spec(rng)) for _ in range(5000))
        assert typed > 1000

    def test_secure_rings(self):
        for n, branching in ((50, False), (100, False), (8, True), (12, True),
                             (16, True)):
            assert self.assert_listed(secure_ring(n, branching))


class TestAgainstNaiveTyping:
    """type_check against the typing as it was (support.naive_type_check):
    the same text and the same JSON for cfmcheck type."""

    @staticmethod
    def assert_same(spec):
        judgment = type_check(spec)
        assert type_outputs(judgment) == \
            type_outputs(naive_type_check(spec)), show(spec.main)
        return judgment.typed

    def test_random_specs(self):
        rng = random.Random(24)
        typed = sum(self.assert_same(random_spec(rng)) for _ in range(2000))
        assert 400 < typed < 1600

    @pytest.mark.parametrize("secure", [True, False])
    def test_rings(self, secure):
        for n, branching in ((50, False), (100, False), (8, True), (12, True),
                             (16, True)):
            assert self.assert_same(ring(n, branching, secure)) == secure

    def test_deep_nested_choice(self):
        # a.(b.0 + a.(b.0 + ...)): a prefix and a choice per level, under
        # the default recursion limit
        text = "0"
        for _ in range(120):
            text = f"a.(b.0 + {text})"
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert type_check(spec_of(f"main := {text}")).typed
        finally:
            sys.setrecursionlimit(limit)


class TestEquationalSideCheck:
    def test_reordering(self):
        spec = spec_of("high h\nmain := 0")
        p = parse_term("a.0 + b.0", spec)
        q = parse_term("b.0 + a.0", spec)
        assert decide_equational(p, q, spec)

    def test_restriction_is_applied(self):
        spec = spec_of("high h\nmain := 0")
        p = parse_term("h.a.0 + b.0", spec)
        q = parse_term("0 + 0 + b.0", spec)
        assert decide_equational(p, q, spec)

    def test_distinguishes(self):
        spec = spec_of("high h\nmain := 0")
        p = parse_term("a.0", spec)
        q = parse_term("b.0", spec)
        assert not decide_equational(p, q, spec)

    def test_axiom_instances(self):
        rng = random.Random(51)
        for name in AXIOM_NAMES:
            for _ in range(20):
                p, q, spec = axiom_instance(rng, name)
                assert decide_equational(p, q, spec), (name, show(p), show(q))

    def test_axioms_hold_directly(self):
        rng = random.Random(52)
        for name in AXIOM_NAMES:
            for _ in range(20):
                p, q, spec = axiom_instance(rng, name)
                assert syntactic_equational(p, q, spec), (name, show(p), show(q))

    def test_matches_syntactic_restriction(self):
        # decided on the restricted net against the renamed copy: random
        # subterm pairs of random specs, then axiom instances
        rng = random.Random(7)
        pairs = []
        for _ in range(2000):
            spec = random_spec(rng)
            terms = [u for t in (spec.main, *spec.defs.values())
                     for u in subterms(t)]
            pairs += ((rng.choice(terms), rng.choice(terms), spec)
                      for _ in range(5))
        for name in AXIOM_NAMES:
            pairs += (axiom_instance(rng, name) for _ in range(40))
        assert len(pairs) >= 10_000
        differ = [(show(p), show(q)) for p, q, spec in pairs
                  if decide_equational(p, q, spec)
                  != syntactic_equational(p, q, spec)]
        assert not differ


class TestSideConditionsDecidedOnce:
    @pytest.mark.parametrize("n", [12, 16])
    def test_one_call_per_pair(self, n, monkeypatch):
        spec = secure_ring(n, branching=True)
        pairs = []

        def counted(p, q, within):
            pairs.append((show(p), show(q)))
            return decide_equational(p, q, within)

        monkeypatch.setattr(typesystem, "decide_equational", counted)
        judgment = type_check(spec)
        assert judgment.typed and pairs
        assert len(pairs) == len(set(pairs))
        # the side condition is decided per call, so each call starts afresh
        lines = judgment_lines(judgment)
        pairs.clear()
        assert judgment_lines(type_check(spec)) == lines
        assert len(pairs) == len(set(pairs))
        assert lines[1:] == naive_derivation_lines(judgment.derivation, 1)


class TestCharacterization:
    def test_typed_iff_rooted_secure(self):
        rng = random.Random(53)
        for _ in range(200):
            spec = random_spec(rng)
            assert type_check(spec).typed == rooted_dni(spec).secure, \
                show(spec.main)


class TestMemory:
    @staticmethod
    def garbage_of(spec):
        """Type spec with the collector off and return the objects it
        leaves in reference cycles."""
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert type_check(spec).typed
            gc.collect()
            return list(gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()

    def test_no_judgments_left_to_the_cyclic_collector(self):
        assert self.garbage_of(secure_ring(12, branching=True)) == []

    def test_no_reference_cycles(self):
        assert self.garbage_of(secure_ring(50, branching=False)) == []
