"""Specification generators for the benchmark's workloads.

Every generator draws from its own random.Random(seed) and returns spec
text, so the inputs depend only on this file and the seed, never on the
generator the program ships.  Each instance is a dict:

    name      file stem, unique within the workload
    text      the specification, as written to disk
    single    True when main is one sequential component
    states    size of main's term transition system (corpus only)
    k         number of parallel copies of the ring (copies only)
    expected  verdicts and closed-form sizes fixed by construction, or
              None when only the relational checks apply (corpus)
"""

import random
from math import comb

HIGH = ("h", "k")
LOW = ("a", "b", "c")

# the acceptance suite's population: at most 6 constants, depth at most 5,
# at most 4 parallel components, 20% silent and 25% high prefixes
MAX_CONSTS, MAX_DEPTH, MAX_PAR = 6, 5, 4
P_TAU, P_HIGH, P_CONST = 0.2, 0.25, 0.3
NIL = ("0",)


def _action(rng):
    roll = rng.random()
    if roll < P_TAU:
        return "tau"
    if roll < P_TAU + P_HIGH:
        return rng.choice(HIGH)
    return rng.choice(LOW)


def _guarded(rng, depth, consts):
    """A random guarded term as a tree: ("0",), ("pre", a, t), ("sum", l, r)
    or, under a prefix only, ("const", name)."""
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return NIL
    if roll < 0.7:
        action = _action(rng)
        if consts and rng.random() < P_CONST:
            return ("pre", action, ("const", rng.choice(consts)))
        return ("pre", action, _guarded(rng, depth - 1, consts))
    return ("sum", _guarded(rng, depth - 1, consts),
            _guarded(rng, depth - 1, consts))


def _sequential(rng, depth, consts):
    if consts and rng.random() < 0.35:
        return ("const", rng.choice(consts))
    return _guarded(rng, depth, consts)


def render(t):
    """The concrete syntax of a tree; + and . parse back to the same tree."""
    match t:
        case ("0",):
            return "0"
        case ("const", name):
            return name
        case ("pre", action, body):
            inner = render(body)
            return f"{action}.({inner})" if body[0] == "sum" else f"{action}.{inner}"
        case ("sum", left, right):
            rhs = render(right)
            return f"{render(left)} + ({rhs})" if right[0] == "sum" \
                else f"{render(left)} + {rhs}"


def _derivatives(t, defs):
    match t:
        case ("pre", _, body):
            return [body]
        case ("sum", left, right):
            return _derivatives(left, defs) + _derivatives(right, defs)
        case ("const", name):
            return _derivatives(defs[name], defs)
    return []


def reachable_terms(t, defs):
    """How many terms a sequential component can become, itself included:
    its states in the term transition system."""
    seen = {t}
    frontier = [t]
    while frontier:
        for u in _derivatives(frontier.pop(), defs):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen)


def random_system(rng):
    """One draw from the acceptance population.

    Returns the text, the number of parallel components of main and the
    size of main's term transition system, which is the product of the
    components' state counts because components move independently.
    """
    consts = [f"P{i}" for i in range(rng.randint(0, MAX_CONSTS))]
    defs = {name: _guarded(rng, rng.randint(1, MAX_DEPTH), consts)
            for name in consts}
    width = rng.randint(1, MAX_PAR)
    parts = [_sequential(rng, rng.randint(1, MAX_DEPTH), consts)
             for _ in range(width)]
    lines = [f"high {', '.join(HIGH)}"]
    lines += [f"{name} := {render(body)}" for name, body in defs.items()]
    lines.append("main := " + " | ".join(render(p) for p in parts))
    states = 1
    for part in parts:
        states *= reachable_terms(part, defs)
    return "\n".join(lines) + "\n", width, states


# Draws per size band, where a band is the bit length of the size of main's
# term transition system (band b holds 2**(b-1) to 2**b - 1 states).  The
# shares are the population's own, measured on 3000 draws; systems of 256
# states or more (3% of the population) are left out.  A fixed quota per
# band keeps the work of the corpus from swinging with how many large
# systems a seed happens to draw; state-space growth is the copies
# workload's subject.
BANDS = {1: 26, 2: 60, 3: 67, 4: 52, 5: 39, 6: 30, 7: 16, 8: 10}


def corpus(seed, bands=BANDS):
    rng = random.Random(seed)
    left = dict(bands)
    instances = []
    while any(left.values()):
        text, width, states = random_system(rng)
        band = states.bit_length()
        if left.get(band, 0) > 0:
            left[band] -= 1
            instances.append({"name": f"corpus-{len(instances):04d}",
                              "text": text, "single": width == 1,
                              "states": states, "expected": None})
    return instances


def _names(rng):
    """Seed-chosen spelling of a ring: constant stem and action names.

    Only the spelling varies with the seed; the shape of every system,
    and with it the work each check does, is fixed by the sizes.
    """
    stem = rng.choice(("C", "Ring", "Q", "Node", "S"))
    low_a, low_b = rng.sample(("a", "b", "c", "go", "ack", "tick"), 2)
    secret = rng.choice(("h", "k", "leak", "sec"))
    return stem, low_a, low_b, secret


def ring_text(rng, n, branching, secure, copies=1):
    """A ring of n constants with one high step at i = n // 2.

    Plain:     Ci := a.C(i+1 mod n)
    Branching: Ci := a.C(i+1 mod n) + b.C(7i+3 mod n)
    Secure:    C(n/2) := h.X + X, X the low body
    Insecure:  C(n/2) := h.C(n/2+1)
    main is `copies` parallel copies of C0.  Definition lines are
    shuffled by the seed.
    """
    stem, a, b, h = _names(rng)
    lines = []
    for i in range(n):
        low_body = f"{a}.{stem}{(i + 1) % n}"
        if branching:
            low_body += f" + {b}.{stem}{(7 * i + 3) % n}"
        body = low_body
        if i == n // 2:
            if secure:
                body = (f"{h}.({low_body}) + {low_body}" if branching
                        else f"{h}.{low_body} + {low_body}")
            else:
                body = f"{h}.{stem}{(i + 1) % n}"
        lines.append(f"{stem}{i} := {body}")
    rng.shuffle(lines)
    main = " | ".join([f"{stem}0"] * copies)
    return "\n".join([f"high {h}", *lines, f"main := {main}"]) + "\n"


def fixed_verdicts(secure, places, copies=1):
    """What every check must answer on a ring system, by construction.

    `places` is the ring's place count: n constants, plus the low body
    X as a place of its own in the secure variant.  With k copies the
    reachable markings are the multisets of k tokens over those places
    and the term LTS holds every k-tuple of them.
    """
    return {"secure": secure,
            "markings": comb(copies + places - 1, places - 1),
            "states": places ** copies}


def rings(seed, plain_sizes, branching_sizes):
    rng = random.Random(seed)
    instances = []
    for branching, sizes in ((False, plain_sizes), (True, branching_sizes)):
        for n in sizes:
            for secure in (True, False):
                kind = "branching" if branching else "plain"
                instances.append({
                    "name": f"{kind}-{n}-{'sec' if secure else 'insec'}",
                    "text": ring_text(rng, n, branching, secure),
                    "single": True,
                    "expected": fixed_verdicts(secure, n + secure)})
    return instances


COPIES_RING = 10


def copies(seed, sizes):
    rng = random.Random(seed)
    instances = []
    for k in sizes:
        for secure in (True, False):
            instances.append({
                "name": f"copies-{k}-{'sec' if secure else 'insec'}",
                "text": ring_text(rng, COPIES_RING, False, secure, copies=k),
                "single": k == 1, "k": k,
                "expected": fixed_verdicts(secure, COPIES_RING + secure, k)})
    return instances
