"""Non-interference checks: known verdicts for the distinguishing
examples, then the relations the procedures must keep to each other."""

import random
from collections import Counter
from math import comb

import pytest

from cfmcheck import security
from cfmcheck.net import LeafTable, StateLimitError
from cfmcheck.security import (
    Verdict, Witness, check_all, components, dni_compositional,
    dni_definitional, dni_structural, rooted_dni,
    sbndc_interleaving,
)
from cfmcheck.syntax import Par, parse_spec, show
from support import (
    all_edges_definitional, product_sbndc, random_spec, sbndc_outcome, sort,
)


def spec_of(text):
    return parse_spec(text)


def all_dni(spec):
    return (dni_definitional(spec), dni_structural(spec),
            dni_compositional(spec))


def ring_copies(k, high_body="h.C9"):
    """k copies of a ten-constant ring whose constant C8 is high_body."""
    bodies = [f"a.C{(i + 1) % 10}" for i in range(10)]
    bodies[8] = high_body
    defs = "\n".join(f"C{i} := {body}" for i, body in enumerate(bodies))
    return spec_of(f"high h\n{defs}\nmain := {' | '.join(['C0'] * k)}")


def flatten(term):
    if isinstance(term, Par):
        return [leaf for u in term.operands for leaf in flatten(u)]
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

    def test_insecure_leaf_in_a_secure_product(self):
        # L alone fails SBNDC: after h it offers no a.  Beside M's
        # endless a the product cannot tell, so SBNDC comes from the
        # product, and the distributed view still sees L's token stuck
        text = "high h\nL := h.S + a.L\nS := 0 + 0\nM := a.M\nmain := "
        assert not sbndc_interleaving(spec_of(text + "L")).secure
        spec = spec_of(text + "L | M")
        got = sbndc_outcome(sbndc_interleaving, spec)
        assert got[0] is True
        assert got == sbndc_outcome(product_sbndc, spec)
        for verdict in (*all_dni(spec), rooted_dni(spec)):
            assert not verdict.secure, verdict.method

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
        assert w.context == ("B",)
        assert str(w) == ("C --h--> B in context B: the marking after this "
                          "high step is observably different")

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
            reordered = Par(*parts) if len(parts) > 1 else parts[0]
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

    def test_sbndc_stats(self):
        spec = spec_of("high h\nC := h.B\nB := l.B\nmain := C | B")
        verdict = sbndc_interleaving(spec)
        assert verdict.secure
        assert set(verdict.stats) == {"states", "steps", "explore_s",
                                      "refine_s"}
        # C | B, B | B: h once, l from each leaf but B | B's l loops once
        assert verdict.stats["states"] == 2 and verdict.stats["steps"] == 3
        assert verdict.stats["explore_s"] >= 0 <= verdict.stats["refine_s"]


class TestSbndcAgainstProduct:
    """sbndc_interleaving decides from main's leaves when each is secure
    and explores the product otherwise; the check on the whole product,
    as it was, must agree with it on verdicts, witnesses, states and
    steps."""

    @pytest.fixture
    def explored(self, monkeypatch):
        """Calls sbndc_interleaving and tells how it decided: by the
        leaves alone, by a one-leaf main's table or by the product."""
        product = LeafTable.product
        calls = []

        def counted(table, limit):
            calls.append("product" if len(table.start) > 1 else "table")
            return product(table, limit)

        def check(spec):
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(LeafTable, "product", counted)
                got = sbndc_outcome(sbndc_interleaving, spec)
            return got, calls[0] if calls else "leaves"

        return check

    def test_random_specs(self, explored):
        rng = random.Random(47)
        routes = Counter()
        for _ in range(2000):
            spec = random_spec(rng)
            got, route = explored(spec)
            assert got == sbndc_outcome(product_sbndc, spec), show(spec.main)
            routes[route, got[0]] += 1
        # every route decides many draws, and some insecure leaves still
        # make a secure product
        assert set(routes) == {("leaves", True), ("table", False),
                               ("product", False), ("product", True)}
        assert routes["leaves", True] > 800
        assert routes["table", False] > 50
        assert routes["product", False] > 500

    def test_secure_copies_count_the_product(self, explored):
        for k in range(1, 7):
            spec = ring_copies(k, "h.a.C9 + a.C9")
            got, route = explored(spec)
            assert route == "leaves"
            assert got[:3] == (True, (), 11 ** k)
            if k <= 4:
                assert got == sbndc_outcome(product_sbndc, spec)

    def test_insecure_copies_explore_the_product(self, explored):
        for k in range(1, 4):
            spec = ring_copies(k)
            got, route = explored(spec)
            assert route == ("table" if k == 1 else "product")
            assert got[0] is False
            assert got == sbndc_outcome(product_sbndc, spec)


def outcome(verdict):
    return verdict.method, verdict.secure, verdict.witnesses


class TestSharedAnalysis:
    """check_all hands definitional, structural and rooted one analysis of
    the spec; sharing it must not change any verdict or witness."""

    def test_check_all_matches_standalone(self):
        rng = random.Random(45)
        for _ in range(500):
            spec = random_spec(rng)
            shared = check_all(spec)
            alone = (dni_definitional(spec), dni_structural(spec),
                     dni_compositional(spec), rooted_dni(spec))
            assert ([outcome(v) for v in shared]
                    == [outcome(v) for v in alone]), show(spec.main)

    def test_capped_definitional_leaves_the_rest(self):
        spec = ring_copies(12)
        definitional, *rest = check_all(spec, limit=1000)
        assert definitional.secure is None
        assert definitional.stats["cap"] == 1000
        alone = (dni_structural(spec), dni_compositional(spec),
                 rooted_dni(spec))
        assert [outcome(v) for v in rest] == [outcome(v) for v in alone]
        assert not any(v.secure for v in rest)

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = Counter()
        for name in ("build_net", "restrict_net", "branching_bisim",
                     "rooted_partition", "reach_graph"):
            def counter(*args, _name=name, _fn=getattr(security, name),
                        **kwargs):
                counted[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(security, name, counter)
        return counted

    def test_one_build_per_analysis(self, calls):
        # one component: the shared analysis plus compositional's own net
        spec = spec_of("high h\nC := h.l.C + l.C\nmain := C")
        check_all(spec)
        assert calls == Counter(build_net=2, restrict_net=2,
                                branching_bisim=2, rooted_partition=1,
                                reach_graph=1)

    def test_structural_and_rooted_share_everything(self, calls):
        spec = spec_of("high h\nC := h.l.C + l.C\nmain := C | l.0")
        check_all(spec, methods=("structural", "rooted"))
        assert calls == Counter(build_net=1, restrict_net=1,
                                branching_bisim=1, rooted_partition=1)

    def test_structural_alone_builds_no_more(self, calls):
        spec = spec_of("high h\nC := h.l.C + l.C\nmain := C")
        check_all(spec, methods=("structural",))
        assert calls == Counter(build_net=1, restrict_net=1,
                                branching_bisim=1)

    def test_capped_definitional_leaves_nothing_to_rebuild(self, calls):
        check_all(ring_copies(12), limit=1000,
                  methods=("definitional", "structural", "rooted"))
        assert calls == Counter(build_net=1, restrict_net=1,
                                branching_bisim=1, rooted_partition=1,
                                reach_graph=1)


def definitional_outcome(check, spec, limit):
    """What the definitional check answers, or how far it got if capped."""
    try:
        v = check(spec, limit)
    except StateLimitError as error:
        return "capped", error.explored
    return (v.method, v.secure, v.witnesses, v.stats["markings"],
            v.stats["steps"])


class TestDefinitionalAgainstAllEdges:
    """dni_definitional keeps only the high edges between marking keys;
    the check over every edge, on (place, count) keys, must agree with
    it on verdicts, witnesses with their contexts, markings, steps and
    the capped explored count."""

    def assert_same(self, spec, limit):
        got = definitional_outcome(dni_definitional, spec, limit)
        assert got == definitional_outcome(all_edges_definitional, spec,
                                           limit), show(spec.main)
        return got

    def test_random_specs(self):
        # each spec in full and under a tight cap, where both must stop
        # after expanding the same number of markings
        rng = random.Random(46)
        specs = [random_spec(rng) for _ in range(500)]
        full = [self.assert_same(spec, 5000) for spec in specs]
        capped = [self.assert_same(spec, 30) for spec in specs]
        assert sum(o[1] is False for o in full) > 200
        assert sum(len(o[2]) for o in full) > 5000
        assert sum(o[0] == "capped" for o in capped) > 50

    def test_ring_copies(self):
        for k in range(1, 7):
            for high_body, secure in (("h.C9", False),
                                      ("h.a.C9 + a.C9", True)):
                got = self.assert_same(ring_copies(k, high_body), 10 ** 6)
                assert got[1] is secure and len(got[2]) == (
                    0 if secure else comb(k + 8, 9))

    def test_capped_copies(self):
        assert self.assert_same(ring_copies(8), 5000)[0] == "capped"


class TestAnalysisStats:
    PHASES = ("build_s", "restrict_s", "refine_s", "rooted_s")

    def test_counts_on_every_reader(self):
        # h.tau.(0 + 0), tau.(0 + 0) and 0 + 0 are one branching class
        # without h; the rooted split sets the silent step apart
        spec = spec_of("high h\nmain := h.tau.(0 + 0)")
        definitional, structural, compositional, rooted = check_all(spec)
        for verdict in (definitional, structural, rooted):
            assert verdict.stats["places"] == 3
            assert verdict.stats["transitions"] == 2
            assert verdict.stats["classes"] == 2
        assert definitional.stats["markings"] == 3
        assert rooted.stats["rooted_classes"] == 3
        assert "rooted_classes" not in structural.stats
        assert set(compositional.stats) == {"components", "seconds"}

    def test_each_phase_counted_once(self):
        spec = spec_of("high h\nC := h.l.C + l.C\nmain := C")
        verdicts = check_all(spec)
        timed = Counter(key for v in verdicts for key in v.stats
                        if key in self.PHASES)
        assert timed == Counter(self.PHASES)
        assert {key for key in verdicts[0].stats if key in self.PHASES} \
            == {"build_s", "restrict_s", "refine_s"}
        assert {key for key in verdicts[3].stats if key in self.PHASES} \
            == {"rooted_s"}
        for verdict in verdicts:
            phases = sum(verdict.stats.get(key, 0) for key in self.PHASES)
            assert phases <= verdict.stats["seconds"]

    def test_standalone_reports_its_own_phases(self):
        spec = spec_of("high h\nC := h.l.C + l.C\nmain := C")
        assert set(self.PHASES) <= set(rooted_dni(spec).stats)
        assert "rooted_s" not in dni_structural(spec).stats
        assert "build_s" in dni_definitional(spec).stats

    def test_capped_verdict_keeps_its_keys(self):
        definitional, structural = check_all(
            ring_copies(12), limit=1000,
            methods=("definitional", "structural"))
        assert set(definitional.stats) == {"cap", "explored", "seconds"}
        assert not set(structural.stats) & set(self.PHASES)
        assert structural.stats["classes"] > 1
