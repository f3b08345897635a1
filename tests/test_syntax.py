"""Parsing, rendering, categories, and the syntactic functions."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from cfmcheck.syntax import (
    NIL, TAU, Action, CategoryError, Const, Par, ParseError, Prefix, SpecError,
    Sum, category, const_names, high, low, normalize_sum, parse_spec,
    parse_term, restrict_syntactic, show, summands,
)
from support import (
    is_observationally_guarded, make_spec, random_guarded, random_spec,
    rename_consts, sort,
)


def spec_of(text):
    return parse_spec(text)


def term_of(text, spec_text="high h\nmain := 0"):
    return parse_term(text, parse_spec(spec_text))


class TestAction:
    def test_validation(self):
        for level, name in (("mid", "a"), ("tau", "a"), ("low", ""), ("high", "")):
            with pytest.raises(ValueError):
                Action(level, name)

    def test_fields_and_rendering(self):
        assert (TAU.level, TAU.name, str(TAU)) == ("tau", "", "tau")
        assert (high("h").level, high("h").name, str(high("h"))) == ("high", "h", "h")
        assert TAU.is_tau and not TAU.is_high
        assert high("h").is_high and not low("h").is_high and not low("h").is_tau
        assert repr(low("a")) == "Action(level='low', name='a')"

    def test_equal_actions_hash_equal(self):
        assert low("a") == Action("low", "a") and hash(low("a")) == hash(Action("low", "a"))
        assert low("a") != high("a") and low("a") != low("b")
        assert len({low("a"), Action("low", "a"), high("a"), TAU, Action("tau")}) == 3

    def test_order_is_level_then_name(self):
        actions = [low("b"), TAU, high("z"), low("a"), high("a")]
        assert sorted(actions) == sorted(actions, key=lambda a: (a.level, a.name))
        assert sorted(actions)[0] == high("a")

    def test_immutable_and_copyable(self):
        with pytest.raises(AttributeError):
            low("a").name = "b"
        copied = pickle.loads(pickle.dumps(low("a")))
        assert copied == low("a") and type(copied) is Action
        assert copy.deepcopy(high("h")) == high("h")


class TestParsing:
    def test_operator_precedence(self):
        t = term_of("a.b.0 + tau.0 | c.0")
        assert isinstance(t, Par)
        assert show(t) == "a.b.0 + tau.0 | c.0"

    def test_parentheses(self):
        t = term_of("a.(b.0 + c.0)")
        assert isinstance(t, Prefix)
        assert isinstance(t.body, Sum)

    def test_left_associativity(self):
        t = term_of("a.0 + b.0 + c.0")
        assert isinstance(t.left, Sum)
        u = term_of("a.0 | b.0 | c.0")
        assert isinstance(u.left, Par)

    def test_right_nesting_needs_parens(self):
        t = term_of("a.0 + (b.0 + c.0)")
        assert isinstance(t.right, Sum)
        assert show(t) == "a.0 + (b.0 + c.0)"

    def test_high_declaration(self):
        spec = spec_of("high h, k\nmain := h.k.0")
        assert spec.main.action == high("h")
        assert spec.main.body.action == high("k")

    def test_low_by_default(self):
        spec = spec_of("main := a.0")
        assert spec.main.action == low("a")

    def test_tau_keyword(self):
        assert term_of("tau.0").action is TAU

    def test_comments_and_blank_lines(self):
        spec = spec_of("# intro\nhigh h\n\nA := a.A  # loop\nmain := A\n")
        assert show(spec.main) == "A"
        assert show(spec.defs["A"]) == "a.A"

    def test_render_reparses(self):
        rng = random.Random(4)
        for _ in range(200):
            spec = random_spec(rng)
            again = parse_term(show(spec.main), spec)
            assert again == spec.main

    def test_error_coordinates(self):
        with pytest.raises(ParseError) as caught:
            parse_spec("high h\nmain := a.\n")
        assert caught.value.line == 2
        assert caught.value.column == 11

    def test_reserved_words(self):
        with pytest.raises(ParseError):
            parse_spec("main := high.0")
        with pytest.raises(ParseError):
            parse_spec("high tau\nmain := 0")

    def test_missing_main(self):
        with pytest.raises(ParseError):
            parse_spec("A := a.0\n")

    def test_double_definition(self):
        with pytest.raises(ParseError):
            parse_spec("A := a.0\nA := b.0\nmain := A")
        with pytest.raises(ParseError):
            parse_spec("main := 0\nmain := 0")

    def test_undefined_constant(self):
        with pytest.raises(SpecError):
            parse_spec("main := B")


class TestCategories:
    def test_parallel_under_prefix_rejected(self):
        with pytest.raises(CategoryError):
            parse_spec("high h\nA := h.(a.0 | b.0) + a.b.0\nmain := A")

    def test_constant_as_summand_rejected(self):
        with pytest.raises(CategoryError):
            parse_spec("A := a.0\nmain := A + a.0")

    def test_parallel_as_summand_rejected(self):
        with pytest.raises(CategoryError):
            parse_spec("main := (a.0 | b.0) + c.0")

    def test_constant_body_must_be_guarded(self):
        with pytest.raises(CategoryError):
            parse_spec("A := B\nB := a.0\nmain := A")
        with pytest.raises(CategoryError):
            parse_spec("A := a.0 | b.0\nmain := A")

    def test_main_may_be_parallel(self):
        spec = spec_of("A := a.A\nmain := A | A | a.0")
        assert category(spec.main) == "parallel"

    def test_random_specs_validate(self):
        rng = random.Random(5)
        for _ in range(300):
            spec = random_spec(rng)
            category(spec.main)
            for body in spec.defs.values():
                assert category(body) == "guarded"


class TestSyntacticFunctions:
    def test_sort_crosses_definitions(self):
        spec = spec_of("high h\nA := l.B\nB := h.A\nmain := A")
        assert sort(spec.main, spec) == frozenset([low("l"), high("h")])

    def test_sort_of_example(self):
        spec = spec_of("high h\nmain := l.h.l.0 + l.0 + l.l.0")
        assert sort(spec.main, spec) == frozenset([low("l"), high("h")])

    def test_const_names(self):
        spec = spec_of("A := a.B\nB := b.0\nmain := A | B")
        assert const_names(spec.main) == {"A", "B"}


class TestRestriction:
    def test_recursive_example(self):
        spec = spec_of("high h\nC := h.l.C + l.C\nmain := C")
        restricted, extended = restrict_syntactic(spec.main, spec)
        assert show(restricted) == "C'"
        assert show(extended.defs["C'"]) == "0 + 0 + l.C'"

    def test_high_prefix_becomes_stuck_choice(self):
        spec = spec_of("high h\nmain := l.h.0")
        restricted, _ = restrict_syntactic(spec.main, spec)
        assert show(restricted) == "l.(0 + 0)"

    def test_removes_every_high_action(self):
        rng = random.Random(7)
        for _ in range(300):
            spec = random_spec(rng)
            restricted, extended = restrict_syntactic(spec.main, spec)
            assert not any(a.is_high for a in sort(restricted, extended))

    def test_memo_reuse(self):
        spec = spec_of("high h\nC := h.C + l.C\nmain := C | C")
        first, extended = restrict_syntactic(spec.main, spec)
        second, final = restrict_syntactic(Const("C"), extended)
        assert show(second) == "C'"
        assert final.defs["C'"] == extended.defs["C'"]

    def test_idempotent_up_to_renaming(self):
        rng = random.Random(8)
        for _ in range(200):
            spec = random_spec(rng)
            once, s1 = restrict_syntactic(spec.main, spec)
            twice, s2 = restrict_syntactic(once, s1)
            renaming = {name: Const(s2.restricted_names[name])
                        for name in s2.restricted_names}
            assert twice == rename_consts(once, renaming)
            for source, primed in s2.restricted_names.items():
                if source in s1.restricted_names.values():
                    assert s2.defs[primed] == rename_consts(
                        s1.defs[source], renaming)

    def test_fresh_names_avoid_collisions(self):
        spec = spec_of("high h\nC := h.C\nC' := l.C'\nmain := C | C'")
        restricted, extended = restrict_syntactic(spec.main, spec)
        assert extended.restricted_names["C"] == "C''"
        assert show(restricted) == "C'' | C'''"


class TestObservationalGuardedness:
    def test_visible_guard(self):
        spec = spec_of("A := a.A\nmain := A")
        assert is_observationally_guarded("A", spec)

    def test_silent_self_loop(self):
        spec = spec_of("A := tau.A\nmain := A")
        assert not is_observationally_guarded("A", spec)

    def test_silent_cycle_through_choice(self):
        spec = spec_of("A := tau.tau.A + a.0\nmain := A")
        assert not is_observationally_guarded("A", spec)

    def test_silent_step_not_back_to_itself(self):
        spec = spec_of("A := tau.a.A\nmain := A")
        assert is_observationally_guarded("A", spec)


class TestNormalizeSum:
    def test_flatten_sort_dedupe(self):
        t = term_of("b.0 + a.0 + b.0")
        assert show(normalize_sum(t)) == "a.0 + b.0"

    def test_drops_nil_summands(self):
        t = term_of("(a.0 + a.0) + 0")
        assert show(normalize_sum(t)) == "a.0"

    def test_keeps_stuck_choice(self):
        assert show(normalize_sum(term_of("0 + 0"))) == "0 + 0"
        assert show(normalize_sum(term_of("0 + 0 + 0"))) == "0 + 0"
        assert show(normalize_sum(term_of("0"))) == "0"

    def test_normalizes_under_prefixes(self):
        t = term_of("a.(b.0 + 0 + b.0)")
        assert show(normalize_sum(t)) == "a.b.0"

    def test_canonical_for_reordering(self):
        rng = random.Random(9)
        for _ in range(300):
            t = random_guarded(rng, 4)
            parts = summands(normalize_sum(t))
            rng.shuffle(parts)
            reordered = parts[0]
            for part in parts[1:]:
                reordered = Sum(reordered, part)
            assert normalize_sum(reordered) == normalize_sum(t)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_preserves_rooted_equivalence(self, seed):
        from cfmcheck.equiv import terms_equiv
        rng = random.Random(seed)
        spec = make_spec(("h", "k"), {}, NIL)
        t = random_guarded(rng, 4)
        assert terms_equiv(t, normalize_sum(t), spec, rooted=True)
