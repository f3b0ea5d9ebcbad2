"""SHA-256 of outputs that a change keeps byte-identical unless it says
otherwise: the timing-free classify report and the canonical programs of
the paper's seven fixtures, the reports of the benchmark's three size-4
duality sweeps, and the repairs of small lam refutations.  A change that alters one of them updates its hash
here and names the change in CHANGES.md."""

from __future__ import annotations

import hashlib

from slamlog.classify import classify, enumerate_instances, verify_duality_pair
from slamlog.datalog import canonical_program, evaluate, repair_to_symmetric
from slamlog.fixtures import (
    b_n,
    directed_cycle,
    horn_sat,
    path,
    st_con,
    transitive_tournament,
    weak_rules_instance,
    weak_rules_template,
)
from slamlog.structures import Signature

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
