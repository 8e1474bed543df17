import unittest

from hornalg import corpus
from hornalg.parser import parse_atom, parse_program, parse_query, parse_rule
from hornalg.semantics import GroundingBound
from hornalg.sld import (
    Query,
    answer_substitution,
    find_rule_counterinstance,
    label_rules,
    prove_with_trace,
    proves,
    proves_rule,
    render_answer,
    render_trace,
)
from hornalg.syntax import render_rule, render_term

NAT = parse_program("nat(0). nat(s(X)) :- nat(X).")


class ProofSearchTest(unittest.TestCase):
    def test_proves_ground_goal(self):
        self.assertTrue(proves(NAT, parse_atom("nat(s(s(0)))")))
        self.assertFalse(proves(NAT, parse_atom("nat(f(0))")))
        self.assertFalse(proves(NAT, parse_atom("even(0)")))

    def test_depth_budget_cuts_search(self):
        deep = parse_atom("nat(s(s(s(s(0)))))")
        self.assertTrue(proves(NAT, deep))
        self.assertFalse(proves(NAT, deep, max_depth=3))

    def test_trace_steps_end_in_empty_resolvent(self):
        steps = prove_with_trace(NAT, Query((parse_atom("nat(s(0))"),)))
        self.assertIsNotNone(steps)
        self.assertEqual(len(steps), 2)
        self.assertTrue(steps[-1].resolvent.is_empty)

    def test_shortest_derivation_is_found_first(self):
        p = parse_program("p(a) :- q. p(a). q.")
        steps = prove_with_trace(p, Query((parse_atom("p(a)"),)))
        self.assertEqual(len(steps), 1)

    def test_conjunctive_query(self):
        q = Query(parse_query("nat(X), nat(s(X))"))
        steps = prove_with_trace(NAT, q)
        self.assertIsNotNone(steps)

    def test_variable_query_answer(self):
        member = corpus.program("member")
        q = Query((parse_atom("member(X,[a,b])"),))
        steps = prove_with_trace(member, q)
        answers = answer_substitution(steps, q)
        self.assertEqual(render_answer(answers), "{X = a}")

    def test_ground_query_has_empty_answer(self):
        q = Query((parse_atom("nat(0)"),))
        steps = prove_with_trace(NAT, q)
        self.assertEqual(render_answer(answer_substitution(steps, q)), "{}")

    def test_answer_keeps_first_occurrence_order(self):
        p = parse_program("pair(a,b).")
        q = Query((parse_atom("pair(Y,X)"),))
        steps = prove_with_trace(p, q)
        self.assertEqual(list(answer_substitution(steps, q)), ["Y", "X"])


class LabeledTraceTest(unittest.TestCase):
    def setUp(self):
        self.program, self.labels = label_rules([
            ("q1rev", corpus.program("q1rev")),
            ("plus", corpus.program("plus")),
        ])

    def test_mixed_representation_derivation(self):
        q = Query((parse_atom("plus([a],[b,c],[a,b,c])"),))
        steps = prove_with_trace(self.program, q, labels=self.labels)
        self.assertIsNotNone(steps)
        self.assertEqual(len(steps), 4)
        self.assertEqual(
            render_trace(steps, q),
            "<- plus([a],[b,c],[a,b,c])\n"
            "<- [q1rev] plus(s([]),[b,c],s([b,c]))\n"
            "<- [plus] plus([],[b,c],[b,c])\n"
            "<- [q1rev] plus(0,[b,c],[b,c])\n"
            "<- [plus] []",
        )
        self.assertEqual([s.source_label for s in steps], ["q1rev", "plus", "q1rev", "plus"])

    def test_first_label_wins_on_shared_rules(self):
        total, labels = label_rules([("first", NAT), ("second", NAT)])
        self.assertEqual(total, NAT)
        self.assertEqual(set(labels.values()), {"first"})

    def test_unlabeled_steps_render_bare(self):
        q = Query((parse_atom("nat(0)"),))
        steps = prove_with_trace(NAT, q)
        self.assertEqual(render_trace(steps, q), "<- nat(0)\n<- []")


class RuleConsequenceTest(unittest.TestCase):
    def test_commutativity_holds_for_one_list_encoding(self):
        pluslist_prime = corpus.program("pluslist_prime")
        comm = parse_rule("plus(Y,X,Z) :- plus(X,Y,Z).")
        self.assertTrue(proves_rule(pluslist_prime, comm))

    def test_commutativity_fails_for_the_other(self):
        pluslist = corpus.program("pluslist")
        comm = parse_rule("plus(Y,X,Z) :- plus(X,Y,Z).")
        witness = find_rule_counterinstance(pluslist, comm)
        self.assertIsNotNone(witness)
        # the returned instance really is a counterexample
        body = sorted(witness.body, key=str)
        for b in body:
            self.assertTrue(proves(pluslist, b))
        self.assertFalse(proves(pluslist, witness.head))

    def test_facts_prove_their_own_rules(self):
        p = parse_program("p(a).")
        self.assertTrue(proves_rule(p, parse_rule("p(a).")))
        self.assertIsNone(find_rule_counterinstance(p, parse_rule("p(X) :- p(X).")))

    def test_bound_limits_instances(self):
        # at depth 0 no successor terms exist, so the rule holds vacuously
        bad = parse_rule("nat(s(X)) :- nat(f(X)).")
        self.assertTrue(proves_rule(NAT, bad, GroundingBound(max_term_depth=0)))

    def test_instances_are_admitted_by_their_argument_terms(self):
        # a lies only inside [a], yet U takes it: q([a]) :- r([]) is checked
        p = parse_program("r([]).")
        rule = parse_rule("q([U|X]) :- r(X).")
        bound = GroundingBound(universe=frozenset({parse_atom("w([])").args[0],
                                                   parse_atom("w([a])").args[0]}))
        witness = find_rule_counterinstance(p, rule, bound)
        self.assertEqual(render_rule(witness), "q([a]) :- r([]).")


def test_render_term_of_answers_uses_list_sugar():
    member = corpus.program("member")
    q = Query((parse_atom("member(X,[[a],[b]])"),))
    steps = prove_with_trace(member, q)
    answers = answer_substitution(steps, q)
    assert render_term(answers["X"]) == "[a]"


def test_trace_mentions_rule_used():
    steps = prove_with_trace(NAT, Query((parse_atom("nat(s(0))"),)))
    used = [render_rule(s.rule_used) for s in steps]
    assert used[-1] == "nat(0)."


if __name__ == "__main__":
    unittest.main()
