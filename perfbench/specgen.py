"""Seeded DCDS spec generators for the spec-to-verdict benchmark.

Each workload is one spec family at a fixed size. The seed renames
relations, services, actions and constants and picks the tags or rings a
property is about; it keeps the order of declarations, facts and effects,
because the engines number relations and values in order of appearance and
their work (and so the time a check takes) depends on that numbering.
Every seed thus yields specs of one cost while the program never sees the
same text twice. Every variant carries the verdict (and, where the family
has one, the closed-form state count) that the family guarantees by
construction; the benchmark checks `dcds` against it.
"""

import string

# Spec and formula keywords; no generated identifier may collide with them.
# (Generated names are six characters long, the variables one or two.)
RESERVED = {
    "schema", "services", "init", "action", "rule", "assert", "true", "false",
    "det", "nondet", "mu", "nu", "exists", "forall", "live", "not", "and", "or",
}


class Namer:
    """Fresh random identifiers: `rel()` capitalised, `svc()`/`const()` lower case."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set(RESERVED)

    def _fresh(self, first, length):
        while True:
            name = first() + "".join(
                self.rng.choice(string.ascii_lowercase + string.digits)
                for _ in range(length)
            )
            if name.lower() not in self.used:
                self.used.add(name.lower())
                return name

    def rel(self):
        return self._fresh(lambda: self.rng.choice(string.ascii_uppercase), 5)

    def svc(self):
        return self._fresh(lambda: self.rng.choice(string.ascii_lowercase), 5)

    def const(self):
        return self._fresh(lambda: self.rng.choice(string.ascii_lowercase), 6)


def render(schema, services, init, asserts, actions):
    """Spec text. `actions` maps an action name to (effects, rule guard)."""
    lines = ["schema { " + " ".join(f"{r} {a};" for r, a in schema) + " }"]
    lines.append("services { " + " ".join(f"{s} {a} {k};" for s, a, k in services) + " }")
    lines.append("init { " + " ".join(f"{f};" for f in init) + " }")
    lines += [f"assert {a};" for a in asserts]
    for name, (effects, _) in actions.items():
        lines.append(f"action {name}() {{ {' '.join(f'{e};' for e in effects)} }}")
    for name, (_, guard) in actions.items():
        lines.append(f"rule {guard} => {name};")
    return "\n".join(lines) + "\n"


def telephone(n):
    """Involutions of n elements: 1, 1, 2, 4, 10, 26, 76, 232, ..."""
    t = [1, 1]
    for k in range(2, n + 1):
        t.append(t[k - 1] + (k - 1) * t[k - 2])
    return t[n]


def collision_pairs(rng, variant, n=7):
    """Deterministic services, weakly acyclic: the det abstraction (Thm 4.3).

    `n` rigid tags; phase k calls the deterministic service on tag k, and
    the constraints force the result to be fresh or shared with exactly one
    unpaired earlier tag. Level k of the abstraction is the set of
    involutions of the first k tags, so it has sum T(0..n) states and, each
    state having one parent, one edge fewer. Every class differs from many
    others only in how values are shared, which keeps canonical keys and
    dedup busy.
    """
    nm = Namer(rng)
    tick, seed, phase, edge = nm.rel(), nm.rel(), nm.rel(), nm.rel()
    f = nm.svc()
    tags = [nm.const() for _ in range(n)]
    phases = [nm.const() for _ in range(n + 1)]
    fresh_only = " & ".join(f"V != '{c}'" for c in tags + phases)
    asserts = [
        f"forall X, V . {edge}(X, V) -> {fresh_only}",
        f"forall X, Y, Z, V . {edge}(X, V) & {edge}(Y, V) & {edge}(Z, V) -> X = Y | X = Z | Y = Z",
    ]
    actions = {}
    for k in range(n):
        actions[nm.svc()] = (
            [
                f"{tick}() ~> {tick}(), {phase}('{phases[k + 1]}'), "
                f"{edge}('{tags[k]}', {f}('{tags[k]}'))",
                f"{seed}(X) ~> {seed}(X)",
                f"{edge}(X, Y) ~> {edge}(X, Y)",
            ],
            f"{phase}('{phases[k]}')",
        )
    spec = render(
        [(tick, 0), (seed, 1), (phase, 1), (edge, 2)],
        [(f, 1, "det")],
        [f"{tick}()", f"{phase}('{phases[0]}')"] + [f"{seed}('{t}')" for t in tags],
        asserts,
        actions,
    )
    # AG (no sharing among the chosen tags & EF last phase). Three tags can
    # never share a value (the constraint), two always can.
    holds = variant % 2 == 0
    chosen = rng.sample(tags, 3 if holds else 2)
    share = " & ".join(f"{edge}('{t}', V)" for t in chosen)
    formula = (
        f"nu Z . (forall V . !({share})) & (mu Y . {phase}('{phases[n]}') | <> Y) & [] Z"
    )
    states = sum(telephone(k) for k in range(n + 1))
    expect = {"verdict": holds, "states": states, "edges": states - 1}
    return spec, formula, expect


def phased_rings(rng, variant, width=3):
    """Nondeterministic services, state-bounded: RCYCL pruning (Thm 5.4).

    `width` ping-pong rings (Example 5.1), one advanced per step by a
    cycling phase token; every state has `width + 2` facts while the
    reachable configurations multiply across rings. A ring's value sits in
    exactly one of its two relations, so "never in both of its own
    relations" holds. The service of an earlier ring may return the value a
    later, not yet stepped ring still holds, so "never in one ring's R and
    an earlier ring's Q" fails; both properties have the same query shape,
    so both cost the same to check.
    """
    nm = Namer(rng)
    tick, phase = nm.rel(), nm.rel()
    rs = [nm.rel() for _ in range(width)]
    qs = [nm.rel() for _ in range(width)]
    fs = [nm.svc() for _ in range(width)]
    phases = [nm.const() for _ in range(width)]
    start = nm.const()
    actions = {}
    for i in range(width):
        effects = [
            f"{tick}() ~> {tick}(), {phase}('{phases[(i + 1) % width]}')",
            f"{rs[i]}(X) ~> {qs[i]}({fs[i]}(X))",
            f"{qs[i]}(X) ~> {rs[i]}(X)",
        ]
        for j in range(width):
            if j != i:
                effects += [f"{rs[j]}(X) ~> {rs[j]}(X)", f"{qs[j]}(X) ~> {qs[j]}(X)"]
        actions[nm.svc()] = (effects, f"{phase}('{phases[i]}')")
    spec = render(
        [(tick, 0), (phase, 1)] + [(r, 1) for r in rs] + [(q, 1) for q in qs],
        [(f, 1, "nondet") for f in fs],
        [f"{tick}()", f"{phase}('{phases[0]}')"] + [f"{r}('{start}')" for r in rs],
        [],
        actions,
    )
    holds = variant % 2 == 0
    if holds:
        r = q = rng.randrange(width)
    else:
        q, r = sorted(rng.sample(range(width), 2))
    formula = f"nu Z . (forall X . !({rs[r]}(X) & {qs[q]}(X))) & [] Z"
    return spec, formula, {"verdict": holds}


def bad_free_shuffle(rng, variant, phases_n=8, arity=4):
    """Deterministic, run-unbounded: symbolic backward reachability.

    A value chase through a deterministic service makes the spec not
    weakly acyclic, so only the symbolic engine decides it. Three relations
    shuffle values among themselves under a cycling phase, and the bad
    condition asks for `arity` distinct values in one of them, the first of
    which is also in a relation no effect ever fills — so it is safe, but
    regression has to enumerate how the values could have been shuffled
    there before the clause set closes.
    """
    nm = Namer(rng)
    phase, chase, g, h, k, bad = (nm.rel() for _ in range(6))
    f = nm.svc()
    phases = [nm.const() for _ in range(phases_n)]
    actions = {}
    for p in range(phases_n):
        effects = [
            f"{phase}('{phases[p]}') ~> {phase}('{phases[(p + 1) % phases_n]}')",
            f"{chase}(X) ~> {chase}({f}(X))",
            f"{g}(X) ~> {h}(X)",
            f"{h}(X) ~> {h}(X)",
            f"{bad}(X) ~> {bad}(X)",
        ]
        if p % 2 == 0:
            effects += [f"{k}(X) ~> {h}(X)", f"{h}(X) ~> {g}(X)"]
        else:
            effects += [f"{h}(X) ~> {k}(X)", f"{g}(X) ~> {g}(X)", f"{k}(X) ~> {k}(X)"]
        actions[nm.svc()] = (effects, f"{phase}('{phases[p]}')")
    spec = render(
        [(phase, 1), (chase, 1), (g, 1), (h, 1), (k, 1), (bad, 1)],
        [(f, 1, "det")],
        [f"{phase}('{phases[0]}')", f"{chase}('{nm.const()}')"]
        + [f"{r}('{nm.const()}')" for r in (g, h, k)],
        [],
        actions,
    )
    xs = [f"X{i}" for i in range(arity)]
    body = " & ".join(
        [f"{h}({x})" for x in xs]
        + [f"{bad}(X0)"]
        + [f"{a} != {b}" for i, a in enumerate(xs) for b in xs[i + 1:]]
    )
    formula = f"nu Z . (!(exists {', '.join(xs)} . {body})) & [] Z"
    return spec, formula, {"verdict": True}
