"""Command line interface.

Exit codes: 0 for success (for solve: satisfiable), 1 for a negative
answer (unsatisfiable, verification failed, no homomorphism), 2 for
errors, internal ones included, and inconclusive results.  File arguments
accept '-' for stdin.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import (
    Caps,
    NotSlam,
    classify,
    emit_slam,
    verify_duality_pair,
    verify_program_solves,
)
from .datalog import (
    DatalogFormatError,
    canonical_program,
    evaluate,
    parse_program,
)
from .homsolver import (
    SignatureMismatch,
    arc_consistency,
    core_of,
    find_homomorphism,
)
from .polymorph import CapExceeded
from .structures import (
    StructureFormatError,
    UnfoldError,
    parse_structure,
    render_structure,
    unfold,
)

# GadgetFormatError is a ValueError, so gadget need not be imported here
_ERRORS = (StructureFormatError, DatalogFormatError, UnfoldError,
           SignatureMismatch, CapExceeded, ValueError, KeyError, OSError)


def _read(path: str, state: dict) -> str:
    if path == "-":
        if state.get("stdin_used"):
            raise ValueError("stdin can be used for at most one argument")
        state["stdin_used"] = True
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _caps(args) -> Caps:
    max_k, max_n = args.max_kn or (None, None)
    given = {"dense_cap": args.cap_dense, "stream_cap": args.cap_stream,
             "max_k": max_k, "max_n": max_n}
    return Caps(**{k: v for k, v in given.items() if v is not None})


def _fact_text(fact) -> str:
    pred, args = fact
    if not args:
        return pred
    return f"{pred}({','.join(str(a) for a in args)})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slamlog",
        description="Symmetric linear arc monadic Datalog for finite "
                    "constraint templates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the classification caps, read by _caps
    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument("--cap-dense", type=int, metavar="N")
    caps.add_argument("--cap-stream", type=int, metavar="N")
    caps.add_argument("--max-kn", type=int, nargs=2, metavar=("K", "N"))

    p = sub.add_parser("classify", help="duality and fragment verdicts",
                       parents=[caps])
    p.add_argument("template")
    p.add_argument("--json", action="store_true", help="accepted for "
                   "symmetry; classify always prints JSON")
    p.add_argument("--no-timing", action="store_true")

    p = sub.add_parser("solve", help="decide an instance against a template",
                       parents=[caps])
    p.add_argument("template")
    p.add_argument("instance")
    p.add_argument("--engine", choices=("slam", "ac", "search"),
                   default="slam")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("hom", help="find a homomorphism between structures")
    p.add_argument("source")
    p.add_argument("target")

    p = sub.add_parser("core", help="compute the core of a structure")
    p.add_argument("structure")
    p.add_argument("--map", action="store_true",
                   help="also print the retraction")

    p = sub.add_parser("canon", help="emit a canonical program")
    p.add_argument("template")
    p.add_argument("--fragment", choices=("am", "lam", "slam"),
                   default="slam")

    p = sub.add_parser("eval", help="run a program on an instance")
    p.add_argument("program")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("unfold", help="unfold a tree between two elements")
    p.add_argument("tree")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = sub.add_parser("gadget", help="pp-power constructions")
    gsub = p.add_subparsers(dest="action", required=True)
    g = gsub.add_parser("apply", help="rewrite an instance through the gadget")
    g.add_argument("spec")
    g.add_argument("instance")
    g = gsub.add_parser("power", help="build the pp-power of a template")
    g.add_argument("spec")
    g.add_argument("template")

    p = sub.add_parser("verify", help="exhaustive small-instance checks")
    vsub = p.add_subparsers(dest="action", required=True)
    sweep = argparse.ArgumentParser(add_help=False)    # both sweeps' flags
    sweep.add_argument("--size", type=int, required=True)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: sweeps run serially")
    v = vsub.add_parser("duality", help="check an obstruction set",
                        parents=[sweep])
    v.add_argument("template")
    v.add_argument("obstructions", nargs="+")
    v = vsub.add_parser("solves", help="check a program against brute force",
                        parents=[sweep])
    v.add_argument("program")
    v.add_argument("template")

    return parser


def _cmd_classify(args, state) -> int:
    b = parse_structure(_read(args.template, state))
    report = classify(b, _caps(args))
    sys.stdout.write(report.to_json(include_timing=not args.no_timing))
    return 0


def _cmd_solve(args, state) -> int:
    b = parse_structure(_read(args.template, state))
    a = parse_structure(_read(args.instance, state))
    result: dict = {"engine": args.engine}
    code = 2
    if args.engine == "slam":
        try:
            prog = emit_slam(b, _caps(args))
        except NotSlam as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        res = evaluate(prog, a, stop_at_goal=True)
        result["satisfiable"] = not res.goal
        if res.trace is not None:
            result["derivation"] = res.trace.to_json()
        code = 1 if res.goal else 0
    elif args.engine == "ac":
        consistent = arc_consistency(a, b) is not None
        result["satisfiable"] = consistent
        result["note"] = ("arc consistency refutes satisfiability only; "
                          "a consistent instance may still be unsatisfiable")
        code = 0 if consistent else 1
    else:
        h = find_homomorphism(a, b)
        result["satisfiable"] = h is not None
        if h is not None:
            result["witness"] = list(h)
        code = 0 if h is not None else 1
    if args.json:
        sys.stdout.write(json.dumps(result, sort_keys=True, indent=2) + "\n")
    else:
        print("satisfiable" if result["satisfiable"] else "unsatisfiable")
        if args.engine == "search" and result["satisfiable"]:
            for i, v in enumerate(result["witness"]):
                print(f"{i} -> {v}")
    return code


def _cmd_hom(args, state) -> int:
    src = parse_structure(_read(args.source, state))
    tgt = parse_structure(_read(args.target, state))
    h = find_homomorphism(src, tgt)
    if h is None:
        print("no homomorphism")
        return 1
    for i, v in enumerate(h):
        print(f"{i} -> {v}")
    return 0


def _cmd_core(args, state) -> int:
    b = parse_structure(_read(args.structure, state))
    core, retraction = core_of(b)
    sys.stdout.write(render_structure(core))
    if args.map:
        for i, v in enumerate(retraction):
            sys.stdout.write(f"# retract {i} -> {v}\n")
    return 0


def _cmd_canon(args, state) -> int:
    b = parse_structure(_read(args.template, state))
    sys.stdout.write(canonical_program(b, args.fragment).render())
    return 0


def _cmd_eval(args, state) -> int:
    text = _read(args.program, state)
    a = parse_structure(_read(args.instance, state))
    prog = parse_program(text, a.signature)
    res = evaluate(prog, a)
    if args.json:
        obj = {
            "facts": sorted(_fact_text(f) for f in res.facts),
            "goal": res.goal,
        }
        if res.trace is not None:
            obj["derivation"] = res.trace.to_json()
        sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        return 0
    for f in sorted(res.facts):
        print(_fact_text(f))
    print("goal derived" if res.goal else "goal not derived")
    if res.trace is not None:
        print(json.dumps(res.trace.to_json(), sort_keys=True))
    return 0


def _cmd_unfold(args, state) -> int:
    t = parse_structure(_read(args.tree, state))
    sys.stdout.write(render_structure(unfold(t, args.a, args.b)))
    return 0


def _cmd_gadget(args, state) -> int:
    from .gadget import apply_gadget_reduction, parse_ppower_spec, pp_power
    spec = parse_ppower_spec(_read(args.spec, state))
    if args.action == "apply":
        c = parse_structure(_read(args.instance, state))
        sys.stdout.write(render_structure(apply_gadget_reduction(spec, c)))
    else:
        b = parse_structure(_read(args.template, state))
        sys.stdout.write(render_structure(pp_power(b, spec)))
    return 0


def _cmd_verify(args, state) -> int:
    if args.action == "duality":
        b = parse_structure(_read(args.template, state))
        obstructions = [parse_structure(_read(f, state))
                        for f in args.obstructions]
        report = verify_duality_pair(obstructions, b, args.size,
                                     jobs=args.jobs)
    else:
        text = _read(args.program, state)
        b = parse_structure(_read(args.template, state))
        prog = parse_program(text, b.signature)
        report = verify_program_solves(prog, b, size_cap=args.size,
                                       jobs=args.jobs)
    sys.stdout.write(report.to_json())
    return 0 if report.holds else 1


_COMMANDS = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "hom": _cmd_hom,
    "core": _cmd_core,
    "canon": _cmd_canon,
    "eval": _cmd_eval,
    "unfold": _cmd_unfold,
    "gadget": _cmd_gadget,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    state: dict = {}
    try:
        return _COMMANDS[args.command](args, state)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:    # a defect; exit 1 would read as "no"
        print(f"error: internal: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
