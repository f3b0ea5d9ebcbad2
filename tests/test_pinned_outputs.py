"""SHA-256 of outputs that a change keeps byte-identical unless it says
otherwise: the timing-free classify report and the canonical programs of
the paper's seven fixtures, the reports of the benchmark's three size-4
duality sweeps, the repairs of small lam refutations, the lattice
polymorphisms and shape flags of seeded templates, the unfoldings of seeded
trees, the pp-powers and gadget reductions of seeded specs, and the
classify reports of seeded templates, of capped fixture runs and of
absorptive witnesses, and the evaluations of seeded programs not of
canonical shape.  A change that alters one of them updates its hash here
and names the change in CHANGES.md."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from datalog_oracle import random_instance, random_program

from slamlog.classify import (
    Caps,
    classify,
    enumerate_instances,
    verify_duality_pair,
)
from slamlog.datalog import canonical_program, evaluate, repair_to_symmetric
from slamlog.fixtures import (
    b_n,
    caterpillar_example,
    digraph,
    directed_cycle,
    horn_sat,
    path,
    st_con,
    transitive_tournament,
    weak_rules_instance,
    weak_rules_template,
)
from slamlog.gadget import apply_gadget_reduction, parse_ppower_spec, pp_power
from slamlog.polymorph import lattice_polymorphisms
from slamlog.structures import (
    Signature,
    UnfoldError,
    make_structure,
    render_structure,
    shape_of,
    unfold,
)

FIXTURES = {
    "P2": path(2),
    "P3": path(3),
    "T3": transitive_tournament(3),
    "B2": b_n(2),
    "D2": st_con(),
    "HornSat": horn_sat(),
    "C3": directed_cycle(3),
}

REPORTS = {
    "P2": "f3e40d03ae89185cccae6472084c3959b9f1470c3d6880e691abfd58c6bff6ea",
    "P3": "7d80d673f0df19751259ba3db0e69f7ddbadbc78b0fca0c0c5cf4355d4067274",
    "T3": "290eab22c4964c5e3ec363089bf6d7352d892473cdc896116d430f7a97dfd4e0",
    "B2": "84c812183e87a66b745c1347f3126a067a673debfa1af43a876c25865120883b",
    "D2": "72362fad606a418010be86e270effe89e03cf138cc531c4db3a22bf5413644fc",
    "HornSat":
        "fb84e954b5c626712ccebf14b2b3c87dc86bc2cb0238e439c247de65d5eeb37d",
    "C3": "44111720ef0fbbc172e734083ea361b184b1fa3c524a4a63050feac08d761ef5",
}

# all seven fixtures have at most 3 elements, so am is pinned for each
PROGRAMS = {
    ("P2", "am"):
        "0f2c9470ed758348b9bd4bd5b061c840c526b78a59f4495f237e3d2fb35652aa",
    ("P2", "lam"):
        "9595c9bbe65db01e3298ae2a867c49350e79e5d03ad4c319e5653d4b3b13c55e",
    ("P2", "slam"):
        "6a64d9263a4d1e0155d2b9b86a26563d4d1c252f2b7e88b8db9c4aa4ba1427fb",
    ("P3", "am"):
        "8c759e1013eecadbba226efcefe3ed2c042f199d412ddcfa6ee79c5eb48b2796",
    ("P3", "lam"):
        "741394ee311377ca3f293394d4ab0edc6240c3b6f9098cd7c2d0261a95c7519d",
    ("P3", "slam"):
        "62536396f17478ad9d87a908f35cda3a5472f105941848def061a6edea8f6eec",
    ("T3", "am"):
        "cdcb48340d5caa2608e77b90897752b7ca7be7e6edef208f75159091ea556957",
    ("T3", "lam"):
        "9248469d22e0129ee687132e5ebf3552331c2aaa21c0ae0ddc763f65acadef1a",
    ("T3", "slam"):
        "a876e3d567f104136e418e5d217f310a5452066ee5dde590647c93d4c3391bc1",
    ("B2", "am"):
        "80d916b68693c3283a90b8fad1fa9bf0ee29143c5b3eb15e447ee2faf5d57b0b",
    ("B2", "lam"):
        "82971976bfe3a264f21c65a69eebe7e19f0f99f53281f6fe714410bf22f049f2",
    ("B2", "slam"):
        "fb64fd672a8122a956f9db1acef4c4d3d2dd6836585079f6409bc64951a01974",
    ("D2", "am"):
        "c19d9a21d7e0b65d78923d3e363abdaa42851e533906a8184ddad2ccf9b75b74",
    ("D2", "lam"):
        "6ba620e476954ad62f98d46bb2ef2789a57f374f1d6b0f557d3f05409b51f7f6",
    ("D2", "slam"):
        "0af191517ecafa82ff01de2a0169282a2d147b06f7286c557da2215334233841",
    ("HornSat", "am"):
        "ca70234f8594d5d163b666deab183736170bbf80b6f4a17343124ec8b941ccc3",
    ("HornSat", "lam"):
        "de136becf8ee0f425b536ebe9c6c11d454b319c7fbc47b38b69732517c299cb6",
    ("HornSat", "slam"):
        "e27f5ccba19166f777c9f2688083c30f61ccc57ecb8b1f80f57d9e30ca0a83d3",
    ("C3", "am"):
        "b7e4e1bfe2a22d1df7a8f7e397908041c0f96ff230acce7f4826165021b49658",
    ("C3", "lam"):
        "47614d6dcab43e3a609306029639dd82660da0581bbeccad33dd7d824a7fd0ea",
    ("C3", "slam"):
        "8c3e7b0e5489397e2a21879e2d7ef147d94861e1ce001755494ba7ff382d7885",
}

# the benchmark's sweeps: the two true pairs hold and write the same report
SWEEPS = {
    "[P3] P2":
        "1b2a3e7b09e7b7f549eef0c6243270e209232b014f51903f9726c55dbae419c8",
    "[P4] T3":
        "1b2a3e7b09e7b7f549eef0c6243270e209232b014f51903f9726c55dbae419c8",
    "[P4] P2":
        "2762dd4ad9e6b335cea5011ee42019d122f5001752e2cd5c949af1512d392948",
}

# (fact, rule index, bindings) of every repaired step of the lam(P2) and
# lam(P3) refutations of the digraphs of 1-3 vertices and the WeakRules chain
REPAIRS = "6a938f225e54a357e1fcfd787236e33ba0e6998b395ec18180f86e583010b19f"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_classify_reports_are_pinned():
    assert {name: _sha(classify(b).to_json(include_timing=False))
            for name, b in FIXTURES.items()} == REPORTS


def test_canonical_programs_are_pinned():
    assert {(name, fragment): _sha(canonical_program(b, fragment).render())
            for name, b in FIXTURES.items()
            for fragment in ("am", "lam", "slam")} == PROGRAMS


def test_benchmark_sweep_reports_are_pinned():
    p2, p3, p4 = path(2), path(3), path(4)
    pairs = {"[P3] P2": (p3, p2), "[P4] T3": (p4, transitive_tournament(3)),
             "[P4] P2": (p4, p2)}
    assert {name: _sha(verify_duality_pair([obstruction], b, 4).to_json())
            for name, (obstruction, b) in pairs.items()} == SWEEPS


def test_repairs_of_small_lam_refutations_are_pinned():
    sig = Signature((("E", 2),))
    jobs = [(path(k), [a for n in (1, 2, 3)
                       for a in enumerate_instances(sig, n)]) for k in (2, 3)]
    jobs.append((weak_rules_template(), [weak_rules_instance()]))
    lines = []
    for b, instances in jobs:
        lam = canonical_program(b, "lam")
        slam = canonical_program(b, "slam")
        for a in instances:
            r = evaluate(lam, a, stop_at_goal=True)
            if r.goal:
                lines.append(repr([(s.fact, s.rule_index, s.bindings) for s in
                                   repair_to_symmetric(r.trace, slam).steps]))
    assert len(lines) == 1021
    assert _sha("\n".join(lines)) == REPAIRS


# facts, goal and trace of seeded programs not of canonical shape, with and
# without stop_at_goal
GROUNDED = (
    "73c02f8e26fd47478f063f31c88467d551c04123a5fd34cfc6c1761f14f4b81c")


def test_grounded_evaluations_are_pinned():
    rng = random.Random(6066)
    lines = []
    for _ in range(300):
        p = random_program(rng)
        a = random_instance(rng)
        lines.append(p.render() + render_structure(a))
        for stop in (False, True):
            r = evaluate(p, a, stop_at_goal=stop)
            trace = r.trace.to_json() if r.trace is not None else None
            lines.append(json.dumps([sorted(r.facts), r.goal, trace]))
    assert _sha("\n".join(lines)) == GROUNDED


LATTICES = (
    "4ae9da0a75f53ceb58e1a028f28a6bf4388af898a0970ed2f8073ed96fb1bbcc")
SHAPES = (
    "aaed8eba291f356e98d493349d68e69bd10182ae728a3e81407b335968de6f0f")
UNFOLDS = (
    "97615c76902502f1a57edbfe8c209e21323755af71d10712d7129d3474f1f328")
GADGETS = (
    "d04d1c754e19b7cc90c3b84072121117aad61fef9ad70d1135b1d0d6037a6830")


def _random_structure(rng, name, symbols, size, density):
    return make_structure(name, symbols, size, {
        sym: {t for t in itertools.product(range(size), repeat=ar)
              if rng.random() < density} for sym, ar in symbols})


def _random_template(rng, size, density=1.0):
    """A digraph on `size` elements, half the time with a unary relation,
    each tuple present with one seeded density below `density`."""
    symbols = (("E", 2),) + ((("U", 1),) if rng.random() < 0.5 else ())
    return _random_structure(rng, "A", symbols, size, rng.random() * density)


def _lattice_templates():
    """150 seeded templates of 1-5 elements.  Five-element ones are sparse,
    so that only a few of them exhaust all 3^10 candidate orders."""
    rng = random.Random(2301)
    sizes = [rng.choice((1, 2, 3, 3, 4, 4, 4, 4, 4, 4, 5))
             for _ in range(150)]
    return [_random_template(rng, n, 0.25 if n == 5 else 1.0) for n in sizes]


def test_lattice_polymorphisms_are_pinned():
    lines = []
    for b in _lattice_templates():
        lat = lattice_polymorphisms(b)
        lines.append(repr(lat and (lat[0].values, lat[1].values)))
    assert _sha("\n".join(lines)) == LATTICES


def _random_digraphs(seed, count, size, edges):
    """`count` seeded loopless digraphs with `size` vertices and `edges`
    edges."""
    rng = random.Random(seed)
    pool = [(u, v) for u in range(size) for v in range(size) if u != v]
    return [digraph(size, rng.sample(pool, edges)) for _ in range(count)]


def test_shapes_are_pinned():
    rng = random.Random(2302)
    structures = [_random_template(rng, rng.randrange(1, 7))
                  for _ in range(300)]
    structures += _random_digraphs(2303, 6, 60, 120)
    structures += _random_digraphs(2304, 20, 12, 12)
    assert _sha("\n".join(repr(shape_of(s)) for s in structures)) == SHAPES


def _random_tree(rng, size):
    """An injective tree: each new tuple holds one element already placed
    and fresh elements elsewhere, over E/2, R/3 and U/1."""
    symbols = (("E", 2), ("R", 3), ("U", 1))
    rows = {sym: set() for sym, _ in symbols}
    placed = 1
    while placed < size:
        sym, ar = rng.choice(symbols[:2])
        ar = min(ar, size - placed + 1)
        sym = "E" if ar == 2 else sym
        row = [rng.randrange(placed)] + list(range(placed, placed + ar - 1))
        rng.shuffle(row)
        rows[sym].add(tuple(row))
        placed += ar - 1
    for v in rng.sample(range(size), rng.randrange(size // 2 + 1)):
        rows["U"].add((v,))
    return make_structure("T", symbols, size, rows)


def _unfold_inputs():
    """Seeded trees of 2-9 elements with every endpoint pair, one element
    outside the domain included, and a few digraphs that are not trees."""
    rng = random.Random(2305)
    trees = [_random_tree(rng, rng.randrange(2, 10)) for _ in range(40)]
    trees += _random_digraphs(2306, 5, 5, 5)
    return [(t, a, b) for t in trees
            for a in range(t.size + 1) for b in range(t.size + 1)]


def test_unfolds_are_pinned():
    lines = []
    for t, a, b in _unfold_inputs():
        try:
            lines.append(render_structure(unfold(t, a, b)))
        except UnfoldError as exc:
            lines.append(f"UnfoldError: {exc}")
    assert _sha("\n".join(lines)) == UNFOLDS


def _random_spec(rng):
    """A pp-power spec of dimension 1-3 with one or two target symbols of
    arity 1-2, each query a few atoms over free and bound variables and
    sometimes an equality."""
    source = [("E", 2)] + ([("U", 1)] if rng.random() < 0.4 else [])
    d = rng.choice((1, 1, 2, 3))
    lines = [f"ppower d={d} from " + ",".join(f"{s}/{a}" for s, a in source)]
    for i in range(rng.randrange(1, 3)):
        ar = rng.choice((1, 2))
        pool = [f"x{j + 1}" for j in range(d * ar)]
        bound = [f"z{j + 1}" for j in range(rng.randrange(3))]
        pool += bound
        conjuncts = [f"{s}({','.join(rng.choice(pool) for _ in range(a))})"
                     for s, a in rng.choices(source, k=rng.randrange(1, 4))]
        if rng.random() < 0.4:
            conjuncts.append(f"{rng.choice(pool)}={rng.choice(pool)}")
        body = ", ".join(conjuncts)
        if bound:
            body = f"exists {' '.join(bound)} . {body}"
        lines.append(f"rel R{i}/{ar} := {body}")
    return parse_ppower_spec("\n".join(lines))


def test_pp_powers_and_gadget_reductions_are_pinned():
    rng = random.Random(2307)
    lines = []
    for _ in range(150):
        spec = _random_spec(rng)
        b = _random_structure(rng, "B", spec.source.symbols,
                              rng.randrange(1, 4), 0.4)
        c = _random_structure(rng, "C", spec.target.symbols,
                              rng.randrange(1, 5), 0.4)
        lines.append(render_structure(pp_power(b, spec)))
        lines.append(render_structure(apply_gadget_reduction(spec, c)))
    assert _sha("\n".join(lines)) == GADGETS


# classify reports that reach the fallback (k, n) sweep
CLASSIFY_RANDOM = (
    "b603890364e7a4fbd067ecf50b384bc2c9378db077c5899e72c17b951d1de241")
CLASSIFY_LOW_CAPS = {
    "B3":
        "0dc6ec2dec8110e4b784274d0a24acd41a9fa86d9727a4f4ea2e84e440951ca5",
    "HornSat":
        "acbc3b6bba2b5d67140f1d58abd6fde53ca2ece200b1179a3cdb7d12988e3a80",
    "WeakRules":
        "3724e0c057231b690b4b675d41b700b8264b4a9bade7750a80e538e473592b3d",
    "Caterpillar":
        "285961c3bdb0a6fd3d1efd9d65076f5e9fcb638ba8b3ebffb78c6b245907c451",
    "B2":
        "026122885426bbc7d4d752238ac1e358d8f5e29b6c7047f6e9ac570eb30084c0",
    "P3":
        "c3eaa1e3d50fda7c74915703a64e8a0e6b460b13bdd7f118733cef4fdebe027c",
}
# classify reports decided by the absorptive check at (k0, n0)
CLASSIFY_ABSORPTIVE = (
    "82010cc68176fc3dbd40c2ec3af38212e78ba3caaca35d83cad360ce9bb74b09")
CLASSIFY_DEFAULT_CAPS = {
    "WeakRules":
        "382a559888c8848f41635f82570b4556c077fc771fe8180ef1f630181e1bb434",
    "Caterpillar":
        "0d4fea04ac2309530b8585e56746799593b657a9e4f5edcdae7b8d54c33273d0",
}

_CLASSIFY_SIGNATURES = (
    (("E", 2),), (("U", 1), ("E", 2)), (("R", 3),), (("U", 1), ("R", 3)),
    (("U", 1), ("V", 1), ("E", 2)))


def _classify_runs():
    """100 seeded templates of 1-4 elements over five signatures, each at
    default caps and at seeded small caps.  Four-element ones are sparser,
    so that few of them pay for a large subset power."""
    rng = random.Random(2401)
    runs = []
    for _ in range(100):
        symbols = rng.choice(_CLASSIFY_SIGNATURES)
        size = rng.randrange(1, 5)
        b = _random_structure(rng, "A", symbols, size,
                              rng.random() * (0.5 if size == 4 else 1.0))
        small = Caps(stream_cap=rng.choice((8, 32, 128, 512, 2048)),
                     max_k=rng.randrange(1, 5), max_n=rng.randrange(1, 5))
        runs += [(b, Caps()), (b, small)]
    return runs


def test_classify_reports_of_seeded_templates_are_pinned():
    assert _sha("".join(classify(b, caps).to_json(include_timing=False)
                        for b, caps in _classify_runs())) == CLASSIFY_RANDOM


def test_classify_reports_at_low_stream_caps_are_pinned():
    # the runs where a sweep pair with k = 1 or n = 1 can be out of reach
    fixtures = {"B3": b_n(3), "HornSat": horn_sat(),
                "WeakRules": weak_rules_template(),
                "Caterpillar": caterpillar_example(), "B2": b_n(2),
                "P3": path(3)}
    assert {name: _sha("".join(
        classify(b, Caps(stream_cap=cap, max_k=3, max_n=3))
        .to_json(include_timing=False)
        for cap in (2, 3, 4, 6, 8, 16, 32, 64)))
        for name, b in fixtures.items()} == CLASSIFY_LOW_CAPS


def test_classify_reports_of_six_element_fixtures_are_pinned():
    # at default caps (k0, n0) is out of reach and the sweep decides
    assert {name: _sha(classify(b).to_json(include_timing=False))
            for name, b in (("WeakRules", weak_rules_template()),
                            ("Caterpillar", caterpillar_example()))} == \
        CLASSIFY_DEFAULT_CAPS


def test_classify_reports_with_absorptive_witnesses_are_pinned(monkeypatch):
    """60 seeded templates of 1-3 elements over E/2, U/1+E/2 and R/3, with
    no lattice certificate, so that the absorptive check decides and most
    reports carry its set-system map."""
    monkeypatch.setattr("slamlog.classify.lattice_polymorphisms",
                        lambda b: None)
    rng = random.Random(2601)
    reports = []
    for _ in range(60):
        symbols = rng.choice(_CLASSIFY_SIGNATURES[:3])
        size = rng.randrange(1, 4)
        b = _random_structure(rng, "A", symbols, size, rng.random())
        reports.append(classify(b).to_json(include_timing=False))
    # a map lists each system's blocks in one fixed order, which is not
    # always sorted order
    systems = [blocks for text in reports
               for w in [json.loads(text)["witnesses"].get("caterpillar_lam")]
               if w and w["kind"] == "absorptive" for blocks, _ in w["map"]]
    assert any(blocks != sorted(blocks) for blocks in systems)
    assert _sha("".join(reports)) == CLASSIFY_ABSORPTIVE
