"""Parsing, rendering, categories, and the syntactic functions."""

import copy
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cfmcheck import syntax
from cfmcheck.net import build_net, lts_step
from cfmcheck.syntax import (
    NIL, TAU, Action, CategoryError, Const, Nil, Par, ParseError, Prefix,
    SpecError, Sum, category, const_names, high, low, normalize_sum,
    parse_spec, parse_term, restrict_syntactic, show,
)
from support import (
    bracketed, is_observationally_guarded, make_spec, naive_category,
    naive_const_names, naive_parse_term, naive_show, random_guarded,
    random_sequential, random_spec, random_unchecked, rename_consts, sort,
    subterms,
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


def oracle_place_names(spec):
    """The net's place names as the recursive renderer gives them: every
    sequential term a component of main can become, 0 left out."""
    stack, seen = [spec.main], {}
    while stack:
        u = stack.pop()
        if isinstance(u, Par):
            stack += u.operands
            continue
        name = naive_show(u)
        if name not in seen:
            seen[name] = u
            stack += (successor for _, successor in lts_step(u, spec))
    return tuple(sorted(name for name, u in seen.items()
                        if not isinstance(u, Nil)))


class TestTerms:
    """Terms are tuples that carry their rendering; the recursive walks in
    support are the oracles for the rendering and the iterative walks."""

    def test_show_matches_recursive_rendering(self):
        rng = random.Random(7)
        for _ in range(5000):
            spec = random_spec(rng)
            for root in (spec.main, *spec.defs.values()):
                for u in subterms(root):
                    assert show(u) == naive_show(u) == str(u)
            assert build_net(spec).names == oracle_place_names(spec)

    def test_category_and_constants_match_recursive_walks(self):
        rng = random.Random(9)
        for _ in range(3000):
            t = random_unchecked(rng, rng.randint(1, 6))
            assert const_names(t) == naive_const_names(t)
            try:
                expected = naive_category(t)
            except CategoryError as error:
                with pytest.raises(CategoryError) as caught:
                    category(t)
                assert str(caught.value) == str(error)
            else:
                assert category(t) == expected

    def test_identity(self):
        a, b = Prefix(low("a"), NIL), Prefix(low("b"), NIL)
        assert Sum(a, b) != Par(a, b) and hash(Sum(a, b)) != hash(Par(a, b))
        assert show(Prefix(low("a"), NIL)) == show(Prefix(high("a"), NIL))
        assert Prefix(low("a"), NIL) != Prefix(high("a"), NIL)
        assert Const("X") != Par(Const("X"), NIL) and Nil() == NIL
        spec = spec_of("high h\nX := h.X + a.0\nmain := a.X | b.0")
        one = parse_term("a.(h.X + b.0) | X", spec)
        two = parse_term("a.(h.X + b.0) | X", spec)
        assert one is not two and one == two and hash(one) == hash(two)
        assert len({one, two, normalize_sum(one)}) == 2

    def test_fields_and_patterns(self):
        t = term_of("a.(b.0 + c.0) | D", "D := d.D\nmain := 0")
        left, right = t.operands
        assert (show(left.body.operands[0]), right.name) == ("b.0", "D")
        match t:
            case Par([Prefix(action, Sum([first, *_])), Const(name)]):
                assert (action, show(first), name) == (low("a"), "b.0", "D")
            case _:
                pytest.fail("the match patterns name the fields")
        assert repr(left) == (
            "Prefix(action=Action(level='low', name='a'), body=Sum(operands=("
            "Prefix(action=Action(level='low', name='b'), body=Nil()), "
            "Prefix(action=Action(level='low', name='c'), body=Nil()))))")
        assert repr(right) == "Const(name='D')" and repr(NIL) == "Nil()"

    def test_immutable_and_copyable(self):
        t = term_of("a.(b.0 + h.0) | (tau.0 | 0 + 0)")
        with pytest.raises(AttributeError):
            t.operands = (NIL, NIL)
        for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t),
                       copy.copy(t)):
            assert copied == t and show(copied) == show(t)
            assert [type(u) for u in subterms(copied)] == \
                [type(u) for u in subterms(t)]

    def test_only_terms_render(self):
        for bad in ("a.0", ("0",), None, low("a")):
            with pytest.raises(TypeError):
                show(bad)
        with pytest.raises(TypeError):
            Prefix(low("a"), "0")
        with pytest.raises(TypeError):
            Sum(NIL, ("0",))
        for run in (Sum, Par):
            with pytest.raises(TypeError):
                run(NIL)

    def test_prefix_chain_without_recursion(self):
        # parsing and validating walk in loops, not on the Python stack
        depth = 5000
        spec = spec_of("high h\nmain := " + "a.h." * (depth // 2) + "C\n"
                       "C := a.0")
        assert show(spec.main) == "a.h." * (depth // 2) + "C"
        assert category(spec.main) == "guarded"
        assert const_names(spec.main) == {"C"}

    def test_runs_retain_linear_memory(self):
        # a run of + or | is one node with one rendering, so what a
        # parsed flat choice or wide parallel keeps is linear in its width
        for joint in (" + ", " | "):
            retained = []
            for width in (10_000, 20_000):
                text = "main := " + joint.join(["a.0"] * width)
                tracemalloc.start()
                try:
                    spec = parse_spec(text)
                    retained.append(tracemalloc.get_traced_memory()[0])
                finally:
                    tracemalloc.stop()
                assert len(spec.main.operands) == width
            assert retained[0] < 5 * 2 ** 20, retained
            assert retained[1] <= 2.5 * retained[0], retained


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
        # a run is one node; a group that opens it is spliced in
        a, b, c = (Prefix(low(name), NIL) for name in "abc")
        for run, op in ((Sum, "+"), (Par, "|")):
            t = term_of(f"a.0 {op} b.0 {op} c.0")
            assert t.operands == (a, b, c) and show(t) == f"a.0 {op} b.0 {op} c.0"
            assert t == run(run(a, b), c) == term_of(f"(a.0 {op} b.0) {op} c.0")

    def test_right_nesting_needs_parens(self):
        t = term_of("a.0 + (b.0 + c.0)")
        assert len(t.operands) == 2 and isinstance(t.operands[1], Sum)
        assert show(t) == "a.0 + (b.0 + c.0)"
        assert t != term_of("a.0 + b.0 + c.0")

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

    def test_error_columns_of_names(self):
        # the column of the name itself, past the blanks before it
        for text, line, column in (
                ("high a,  tau\nmain := 0", 1, 10),
                ("high   Bad\nmain := 0", 1, 8),
                ("  A := a.0\n  A := b.0\nmain := A", 2, 3),
                ("main := 0\n\tmain := 0", 2, 2),
                ("  foo := 0\nmain := 0", 1, 3)):
            with pytest.raises(ParseError) as caught:
                parse_spec(text)
            assert (caught.value.line, caught.value.column) == \
                (line, column), text

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

    def test_first_undefined_constant_is_named(self):
        # main first, then each body in definition order, left to right
        for text, name in (
                ("main := Bee | Cat | Dog | Eel", "Bee"),
                ("A := a.Ant + b.Bee\nmain := Cat | A", "Cat"),
                ("A := a.A\nB := a.(b.Fox + c.Gnu)\nC := a.Ant\n"
                 "main := A | B", "Fox")):
            with pytest.raises(SpecError) as caught:
                parse_spec(text)
            assert str(caught.value) == f"undefined process constant {name}"
        spec = spec_of("A := a.A\nmain := A")
        with pytest.raises(SpecError, match="constant Dog$"):
            parse_term("a.Dog + b.A + c.Cat", spec)


def parse_outcome(text, spec):
    """parse_term's term, or the type and text of the error it raises."""
    try:
        return parse_term(text, spec)
    except SpecError as error:
        return type(error), str(error)


class TestParserAgainstRecursiveDescent:
    """The loop parser against the recursive-descent parser it replaced
    (support.naive_parse_term): equal terms, and equal errors with equal
    coordinates, on renderings, bracketings and their mutations."""

    def assert_same(self, text, spec, monkeypatch):
        found = parse_outcome(text, spec)
        with monkeypatch.context() as patched:
            patched.setattr(syntax, "_parse_term", naive_parse_term)
            expected = parse_outcome(text, spec)
        assert found == expected, text
        return found

    def bracketings(self, rng, count):
        """(spec, term) pairs: runs of + under random bracketings inside
        runs of | under random bracketings."""
        for _ in range(count):
            spec = random_spec(rng, max_par=1)
            consts = tuple(spec.defs)
            parts = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.4:
                    parts.append(random_sequential(rng, 3, consts))
                    continue
                summands = [random_guarded(rng, 3, consts)
                            for _ in range(rng.randint(2, 5))]
                part = bracketed(rng, summands, Sum)
                parts.append(Prefix(low("a"), part) if rng.random() < 0.3
                             else part)
            yield spec, bracketed(rng, parts, Par)

    def test_renderings(self, monkeypatch):
        rng = random.Random(23)
        for _ in range(500):
            spec = random_spec(rng)
            for root in (spec.main, *spec.defs.values()):
                assert self.assert_same(show(root), spec, monkeypatch) == root

    def test_bracketings(self, monkeypatch):
        rng = random.Random(24)
        for spec, term in self.bracketings(rng, 500):
            assert self.assert_same(show(term), spec, monkeypatch) == term

    def test_mutations(self, monkeypatch):
        # delete or insert one operator or parenthesis
        rng = random.Random(25)
        texts = [(show(term), spec) for spec, term in self.bracketings(rng, 400)]
        errors = 0
        for _ in range(2000):
            text, spec = rng.choice(texts)
            if rng.random() < 0.5:
                spots = [i for i, c in enumerate(text) if c in "()+|."]
                if not spots:
                    continue
                i = rng.choice(spots)
                text = text[:i] + text[i + 1:]
            else:
                i = rng.randint(0, len(text))
                text = text[:i] + rng.choice("()+|.") + text[i:]
            found = self.assert_same(text, spec, monkeypatch)
            errors += not isinstance(found, syntax.Term)
        assert errors > 1000


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
        # every occurrence of C within one call shares one companion
        spec = spec_of("high h\nC := h.C + l.C\nmain := C | l.C")
        restricted, extended = restrict_syntactic(spec.main, spec)
        assert show(restricted) == "C' | l.C'"
        assert show(extended.defs["C'"]) == "0 + 0 + l.C'"
        assert set(extended.defs) == {"C", "C'"}

    def test_idempotent_up_to_renaming(self):
        rng = random.Random(8)
        for _ in range(200):
            spec = random_spec(rng)
            once, s1 = restrict_syntactic(spec.main, spec)
            twice, s2 = restrict_syntactic(once, s1)
            # the second call primes the first call's companions afresh
            primed_as = companion_names(once, twice, s1, s2)
            assert len(set(primed_as.values())) == len(primed_as)
            assert not set(primed_as.values()) & set(s1.defs)
            renaming = {source: Const(primed)
                        for source, primed in primed_as.items()}
            assert twice == rename_consts(once, renaming)
            for source, primed in primed_as.items():
                assert s2.defs[primed] == rename_consts(s1.defs[source],
                                                        renaming)

    def test_fresh_names_avoid_collisions(self):
        spec = spec_of("high h\nC := h.C\nC' := l.C'\nmain := C | C'")
        restricted, extended = restrict_syntactic(spec.main, spec)
        assert show(restricted) == "C'' | C'''"
        assert show(extended.defs["C''"]) == "0 + 0"
        assert show(extended.defs["C'''"]) == "l.C'''"


def companion_names(a, b, spec_a, spec_b) -> dict:
    """The name at the same position of b for each constant of a, and
    of the bodies a reaches; a and b must agree everywhere else."""
    names = {}
    stack = [(a, b)]
    while stack:
        u, v = stack.pop()
        assert type(u) is type(v)
        if isinstance(u, Const):
            if u.name not in names:
                names[u.name] = v.name
                stack.append((spec_a.defs[u.name], spec_b.defs[v.name]))
            assert names[u.name] == v.name
        elif isinstance(u, Prefix):
            assert u.action == v.action
            stack.append((u.body, v.body))
        elif isinstance(u, (Sum, Par)):
            assert len(u.operands) == len(v.operands)
            stack += zip(u.operands, v.operands)
    return names


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
            canon = normalize_sum(t)
            parts = list(canon.operands) if isinstance(canon, Sum) else [canon]
            rng.shuffle(parts)
            reordered = Sum(*parts) if len(parts) > 1 else parts[0]
            assert normalize_sum(reordered) == normalize_sum(t)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_preserves_rooted_equivalence(self, seed):
        from cfmcheck.equiv import terms_equiv
        rng = random.Random(seed)
        spec = make_spec(("h", "k"), {}, NIL)
        t = random_guarded(rng, 4)
        assert terms_equiv(t, normalize_sum(t), spec, rooted=True)
