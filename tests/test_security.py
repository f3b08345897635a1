"""Non-interference checks: known verdicts for the distinguishing
examples, then the relations the procedures must keep to each other."""

import random

import pytest

from cfmcheck.gen import random_spec
from cfmcheck.net import StateLimitError
from cfmcheck.security import (
    Verdict, Witness, check_all, components, dni_compositional,
    dni_definitional, dni_structural, rooted_dni,
    sbndc_interleaving,
)
from cfmcheck.syntax import NIL, Par, parse_spec, show, sort


def spec_of(text):
    return parse_spec(text)


def all_dni(spec):
    return (dni_definitional(spec), dni_structural(spec),
            dni_compositional(spec))


def flatten(term):
    if isinstance(term, Par):
        return flatten(term.left) + flatten(term.right)
    return [term]


class TestKnownVerdicts:
    def test_copied_component_attack(self):
        # a second copy of B appears after h; the interleaving view
        # cannot see the number of copies, the distributed one can
        spec = spec_of("high h\nC := h.B\nB := l.B\nmain := C | B")
        for verdict in all_dni(spec):
            assert not verdict.secure, verdict.method
        assert sbndc_interleaving(spec).secure

    def test_vanishing_token(self):
        secure = spec_of("high h\nC := 0\nmain := l.h.C")
        for verdict in all_dni(secure):
            assert verdict.secure, verdict.method
        gone = spec_of("high h\nmain := l.h.0")
        for verdict in all_dni(gone):
            assert not verdict.secure, verdict.method
        late = spec_of("high h\nC := 0\nmain := h.l.0 + l.C")
        for verdict in all_dni(late):
            assert not verdict.secure, verdict.method

    def test_silent_moves_do_not_hide_the_choice(self):
        spec = spec_of("high h\n"
                       "C := h.(a.D + a.b.0) + a.D\n"
                       "D := tau.b.0 + c.0\n"
                       "main := C")
        for verdict in all_dni(spec):
            assert not verdict.secure, verdict.method

    def test_recursive_constants(self):
        good = spec_of("high h\nC := h.l.C + l.C\nmain := C")
        for verdict in all_dni(good):
            assert verdict.secure, verdict.method
        assert rooted_dni(good).secure
        bad = spec_of("high h\nD := l.h.D\nmain := D")
        for verdict in all_dni(bad):
            assert not verdict.secure, verdict.method

    def test_reordered_choice_is_rooted_secure(self):
        spec = spec_of("high h\nmain := l.0 + h.l.0")
        assert dni_structural(spec).secure
        assert rooted_dni(spec).secure

    def test_rooted_refuses_what_plain_accepts(self):
        spec = spec_of("high h\nmain := h.tau.(0 + 0)")
        for verdict in all_dni(spec):
            assert verdict.secure, verdict.method
        assert not rooted_dni(spec).secure

    def test_nested_choice_is_rooted_secure(self):
        spec = spec_of(
            "high h\nmain := h.l.l.0 + (h.l.(h.l.0 + l.0) + l.l.0)")
        assert rooted_dni(spec).secure

    def test_low_choice_fails_interleaving_check(self):
        spec = spec_of("high h\nmain := l.h.l.0 + l.0 + l.l.0")
        assert not sbndc_interleaving(spec).secure
        for verdict in all_dni(spec):
            assert not verdict.secure, verdict.method


class TestWitnesses:
    def test_insecure_verdicts_carry_witnesses(self):
        spec = spec_of("high h\nC := h.B\nB := l.B\nmain := C | B")
        for verdict in all_dni(spec):
            assert verdict.witnesses
            for w in verdict.witnesses:
                pre, label, post = w.transition
                assert label == "h"
                assert str(w)

    def test_definitional_witness_has_context(self):
        spec = spec_of("high h\nC := h.B\nB := l.B\nmain := C | B")
        w = dni_definitional(spec).witnesses[0]
        assert w.context is not None
        assert "B" in str(w.context)

    def test_vanishing_witness_reason(self):
        spec = spec_of("high h\nmain := l.h.0")
        w = dni_structural(spec).witnesses[0]
        assert w.transition == ("h.0", "h", None)
        assert "consumes" in w.reason

    def test_verdict_consistency_enforced(self):
        with pytest.raises(ValueError):
            Verdict("structural", True,
                    (Witness(("p", "h", None), None, "oops"),))
        with pytest.raises(ValueError):
            Verdict("structural", False, ())


class TestProcedureRelations:
    def test_methods_agree(self):
        rng = random.Random(41)
        for _ in range(150):
            spec = random_spec(rng)
            verdicts = all_dni(spec)
            answers = {v.secure for v in verdicts}
            assert len(answers) == 1, show(spec.main)

    def test_rooted_implies_plain(self):
        rng = random.Random(42)
        for _ in range(200):
            spec = random_spec(rng)
            if rooted_dni(spec).secure:
                assert dni_structural(spec).secure, show(spec.main)

    def test_high_free_is_secure(self):
        rng = random.Random(43)
        seen = 0
        while seen < 50:
            spec = random_spec(rng)
            if any(a.is_high for a in sort(spec.main, spec)):
                continue
            seen += 1
            for verdict in all_dni(spec):
                assert verdict.secure, show(spec.main)

    def test_verdict_stable_under_component_reordering(self):
        rng = random.Random(44)
        for _ in range(100):
            spec = random_spec(rng)
            parts = flatten(spec.main)
            rng.shuffle(parts)
            reordered = parts[0]
            for part in parts[1:]:
                reordered = Par(reordered, part)
            other = spec.with_main(reordered)
            assert dni_structural(spec).secure == dni_structural(other).secure
            assert (dni_compositional(spec).secure
                    == dni_compositional(other).secure)

    def test_definitional_respects_limit(self):
        spec = spec_of("high h\nmain := " + " | ".join(["a.b.c.0"] * 10))
        with pytest.raises(StateLimitError):
            dni_definitional(spec, limit=50)


class TestHelpers:
    def test_components_dedupe_and_sort(self):
        spec = spec_of("high h\nA := a.A\nmain := A | 0 | a.0 | A")
        found = [show(t) for t in components(spec.main)]
        assert found == ["A", "a.0"]

    def test_check_all_reports_timing(self):
        spec = spec_of("high h\nmain := h.tau.(0 + 0)")
        verdicts = check_all(spec, methods=(
            "definitional", "structural", "compositional", "rooted", "sbndc"))
        assert [v.method for v in verdicts] == [
            "definitional", "structural", "compositional", "rooted", "sbndc"]
        assert all("seconds" in v.stats for v in verdicts)
