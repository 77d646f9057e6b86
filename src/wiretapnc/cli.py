"""Command-line front end: JSON-in/JSON-out workflows over the library.

Exit codes: 0 success, 2 verification failure (witness on stdout), 1 usage
error.  Every command is a pure function of its inputs and the seed; a run
manifest (command, input hashes, seed, version, timings) goes to stdout,
never into result files, so result files are byte-identical across runs.
Each command imports the modules it calls when it runs, so a process compiles
only those, and numpy (for the oracle) only where the oracle runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .exceptions import MalformedInput, WiretapNCError
from .serialize import (
    canonical_dumps,
    code_to_json,
    design_from_json,
    design_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    network_from_json,
    sha256_file,
    write_json,
)

GOLDEN_NAMES = ("butterfly_insecure", "butterfly_secure", "combination_b34")


def _print_manifest(command, inputs, seed, t0, summary):
    print(json.dumps({
        "command": command,
        "inputs": {name: sha256_file(path) for name, path in inputs.items()},
        "seed": seed,
        "version": __version__,
        "elapsed_s": round(time.monotonic() - t0, 6),
        "summary": summary,
    }, sort_keys=True))


# ---- built-in reference reports ----

def _butterfly_report(secure: bool):
    from .equivocation import equivocation_rank
    from .gf import field_new
    from .netgraph import butterfly_code
    from .oracle import min_equivocation_bruteforce
    from .securecode import verify_secrecy_condition
    f = field_new(3)
    alpha = f.primitive_element()
    code = butterfly_code(f, be_local=(1, alpha) if secure else (1, 1))
    H = matrix_from_json({"field": {"p": 3, "m": 1}, "rows": [[1, 1]]})
    ok, witness = verify_secrecy_condition(H, code, mu=1)
    per_edge = {}
    for e in sorted(code.global_vectors):
        delta, _, _ = equivocation_rank(H, code, 1, restricted=[e])
        per_edge[e] = delta
    delta, min_witness, _ = equivocation_rank(H, code, 1)
    oracle_delta, oracle_witness = min_equivocation_bruteforce(H, code, 1)
    return {
        "name": "butterfly_secure" if secure else "butterfly_insecure",
        "H": matrix_to_json(H),
        "code": code_to_json(code),
        "secrecy": {"ok": ok, "witness": list(witness) if witness else None},
        "delta_mu1": delta,
        "delta_witness": list(min_witness),
        "delta_per_edge": per_edge,
        "oracle_delta_mu1": oracle_delta,
        "oracle_witness": list(oracle_witness),
    }


def _combination_report():
    from .equivocation import equivocation_rank
    from .gf import field_new
    from .oracle import min_equivocation_bruteforce
    from .securecode import combination_secure_design, verify_secrecy_condition
    f = field_new(7)
    design = combination_secure_design(3, 4, f, 2)
    H = design.coset.parity_check
    code = design.netcode
    ok, witness = verify_secrecy_condition(H, code, mu=1)
    flows = code.network.edge_disjoint_flows()
    y = [1, 5, 2]
    payloads = code.payloads(y)
    decodes = {
        r: code.receiver_decode(flow, payloads) == y for r, flow in flows.items()
    }
    delta, min_witness, _ = equivocation_rank(H, code, 1)
    oracle_delta, _ = min_equivocation_bruteforce(H, code, 1)
    return {
        "name": "combination_b34",
        "H": matrix_to_json(H),
        "source_edge_vectors": {
            f"Sm{i}": list(code.global_vectors[f"Sm{i}"]) for i in range(4)
        },
        "code": code_to_json(code),
        "secrecy": {"ok": ok, "witness": list(witness) if witness else None},
        "all_receivers_decode": all(decodes.values()),
        "delta_mu1": delta,
        "delta_witness": list(min_witness),
        "oracle_delta_mu1": oracle_delta,
    }


def generate_reference_reports():
    return {
        "butterfly_insecure": _butterfly_report(secure=False),
        "butterfly_secure": _butterfly_report(secure=True),
        "combination_b34": _combination_report(),
    }


def _golden_dir():
    import importlib.resources
    return importlib.resources.files("wiretapnc") / "data" / "golden"


def cmd_paper_figures(args):
    t0 = time.monotonic()
    reports = generate_reference_reports()
    if args.out:
        for name, report in reports.items():
            write_json(f"{args.out}/{name}.json", report)
    mismatches = []
    for name, report in reports.items():
        golden_path = _golden_dir() / f"{name}.json"
        golden = golden_path.read_text()
        if canonical_dumps(report) != golden:
            mismatches.append(name)
    summary = {
        "figures": list(reports),
        "golden_ok": not mismatches,
        "mismatches": mismatches,
    }
    _print_manifest("paper-figures", {}, args.seed, t0, summary)
    if mismatches:
        print(f"golden mismatch: {', '.join(mismatches)}")
        return 2
    return 0


def cmd_build(args):
    from .securecode import secure_lif
    t0 = time.monotonic()
    net = load_json(args.network, network_from_json, "network")
    H = load_json(args.H, matrix_from_json, "matrix")
    design = secure_lif(net, net.n, args.mu, H)
    write_json(args.out, design_to_json(design))
    inputs = {"network": args.network, "H": args.H}
    summary = {"out": args.out, "checks": design.certificate["checks"]}
    _print_manifest("build", inputs, args.seed, t0, summary)
    return 0


def cmd_verify(args):
    from .securecode import check_budget, verify_secrecy_condition
    t0 = time.monotonic()
    design = load_json(args.design, design_from_json, "design")
    restricted = _restricted(args, design)
    # one walk up to n - k gives the verdict at the claimed mu and the design's
    # achieved level: the condition holds below the first violation's size
    H, mu = design.coset.parity_check, design.params.mu
    check_budget(mu)
    top = H.cols - H.rows
    ok, witness = verify_secrecy_condition(H, design.netcode, max(mu, top), restricted)
    achieved = top if ok else min(len(witness) - 1, top)
    if not ok and len(witness) > mu:
        ok, witness = True, None
    summary = {"ok": ok, "witness": list(witness) if witness else None, "achieved_mu": achieved}
    _print_manifest("verify", {"design": args.design}, args.seed, t0, summary)
    if not ok:
        print(f"secrecy violation witness: {','.join(witness)}")
        return 2
    print("secrecy condition holds")
    return 0


def cmd_sweep(args):
    from .equivocation import equivocation_sweep
    t0 = time.monotonic()
    design = load_json(args.design, design_from_json, "design")
    report = equivocation_sweep(
        design.coset.parity_check, design.netcode, args.mu_max, _restricted(args, design)
    )
    obj = {
        "delta": {str(mu): d for mu, d in report.delta.items()},
        "witness": {
            str(mu): list(w) if w else [] for mu, w in report.witnesses.items()
        },
        "flagged": {str(mu): fl for mu, fl in report.flagged.items()},
        "d_profile": {str(r): d for r, d in report.d_profile.items()},
        "method": "rank",
    }
    if args.out:
        write_json(args.out, obj)
    else:
        sys.stdout.write(canonical_dumps(obj))
    _print_manifest("sweep", {"design": args.design}, args.seed, t0, {"mu_max": args.mu_max})
    return 0


def cmd_oracle(args):
    from .equivocation import equivocation_rank
    from .oracle import min_equivocation_bruteforce
    t0 = time.monotonic()
    design = load_json(args.design, design_from_json, "design")
    H, restricted = design.coset.parity_check, _restricted(args, design)
    rank_delta, rank_witness, _ = equivocation_rank(H, design.netcode, args.mu, restricted)
    oracle_delta, oracle_witness = min_equivocation_bruteforce(
        H, design.netcode, args.mu, restricted
    )
    agree = rank_delta == oracle_delta
    summary = {
        "mu": args.mu,
        "rank_delta": rank_delta,
        "oracle_delta": oracle_delta,
        "agree": agree,
    }
    _print_manifest("oracle", {"design": args.design}, args.seed, t0, summary)
    if not agree:
        print(
            f"DISAGREEMENT at mu={args.mu}: rank formula {rank_delta} "
            f"(witness {rank_witness}) vs oracle {oracle_delta} "
            f"(witness {oracle_witness})"
        )
        return 2
    print(f"delta({args.mu}) = {rank_delta}, oracle confirmed")
    return 0


def cmd_bounds(args):
    from .securecode import alphabet_bound_general
    t0 = time.monotonic()
    net = load_json(args.network, network_from_json, "network")
    bound = alphabet_bound_general(len(net.edges), args.mu, len(net.receivers))
    print(bound)
    _print_manifest("bounds", {"network": args.network}, args.seed, t0, {"bound": bound})
    return 0


def _vector_argument(field, text, flag, action):
    """The field elements of a JSON array given on the command line."""
    if text is None:
        raise MalformedInput(f"coset {action} needs {flag}")
    try:
        vector = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{flag} is not JSON: {exc}") from exc
    if not isinstance(vector, list):
        raise MalformedInput(f"{flag} must be a JSON array of integers, got {text}")
    return [field.check(x) for x in vector]


def cmd_coset(args):
    from .coset import CosetCode
    t0 = time.monotonic()
    H = load_json(args.H, matrix_from_json, "matrix")
    code = CosetCode(H)
    if args.coset_action == "encode":
        secret = _vector_argument(H.field, args.secret, "--secret", "encode")
        word = code.encode(secret, seed=args.seed)
        print(json.dumps(word))
        summary = {"action": "encode"}
    else:
        word = _vector_argument(H.field, args.word, "--word", "decode")
        secret = code.decode(word)
        print(json.dumps(secret))
        summary = {"action": "decode"}
    _print_manifest("coset", {"H": args.H}, args.seed, t0, summary)
    return 0


def _restricted(args, design):
    """The wiretappable edge ids: the comma-separated --restricted list, else
    the design's params.restricted (None: every edge)."""
    return args.restricted.split(",") if args.restricted else design.params.restricted_edges


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wiretapnc",
        description="Secure network codes for multicast wiretap networks of type II",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    analysis = argparse.ArgumentParser(add_help=False)
    analysis.add_argument("--design", required=True)
    analysis.add_argument("--restricted",
                          help="comma-separated edge ids (default: params.restricted)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, *parents, **kwargs):
        return sub.add_parser(name, parents=[common, *parents], **kwargs)

    p = add_parser("paper-figures", help="regenerate the built-in reference example reports")
    p.add_argument("--out", help="directory for generated report copies")
    p.set_defaults(func=cmd_paper_figures)

    p = add_parser("build", help="security-constrained LIF construction")
    p.add_argument("--network", required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--H", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = add_parser("verify", analysis, help="check the secrecy rank condition")
    p.set_defaults(func=cmd_verify)

    p = add_parser("sweep", analysis, help="equivocation sweep over mu")
    p.add_argument("--mu-max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = add_parser("oracle", analysis, help="cross-check rank formula vs brute force")
    p.add_argument("--mu", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    p = add_parser("bounds", help="sufficient alphabet size for a network")
    p.add_argument("--network", required=True)
    p.add_argument("--mu", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = add_parser("coset", help="coset encode/decode")
    p.add_argument("coset_action", choices=("encode", "decode"))
    p.add_argument("--H", required=True)
    p.add_argument("--secret", help="JSON array of secret symbols")
    p.add_argument("--word", help="JSON array of channel symbols")
    p.set_defaults(func=cmd_coset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except WiretapNCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
