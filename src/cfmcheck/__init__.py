"""Finite-state-machine Petri nets for CFM process terms.

Parse a specification, compile it to a net whose places are sequential
subterms, decide branching (team) equivalences, verify distributed
non-interference, and type terms for the rooted variant.
"""

from .equiv import (
    Partition, branching_bisim, markings_equiv, rooted_partition,
    strong_partition, terms_equiv,
)
from .net import (
    Lts, Net, StateLimitError, Transition, build_lts, build_net,
    components, dec, lts_step, marking_counts, net_to_dot, net_to_json,
    reach_graph, restrict_net, show_marking,
)
from .security import (
    Verdict, Witness, check_all, dni_compositional, dni_definitional,
    dni_structural, rooted_dni, sbndc_interleaving,
)
from .syntax import (
    NIL, TAU, Action, CategoryError, Const, Nil, Par, ParseError, Prefix,
    Spec, SpecError, Sum, Term, category, high, low, normalize_sum,
    parse_spec, parse_term, show,
)
from .typesystem import (
    Derivation, TypingJudgment, decide_equational, is_deadlock_place,
    type_check,
)

__version__ = "0.1.0"
