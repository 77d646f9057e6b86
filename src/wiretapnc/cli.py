"""Command-line front end: JSON-in/JSON-out workflows over the library.

Exit codes: 0 success, 2 verification failure (witness on stdout), 1 usage
error.  Every command is a pure function of its inputs and the seed, which
only `coset encode` takes (`--seed`, the randomness of its word).  A run
manifest (command, input hashes, version, elapsed_s, and a summary, which
for `coset encode` records the seed) goes to stdout, never into result
files, so result files are byte-identical across runs.
Each command imports the modules it calls when it runs, so a process compiles
only those, and numpy (for the oracle) only where the oracle runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .exceptions import BudgetExceedsCut, MalformedInput, WiretapNCError
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


def _print_manifest(command, inputs, t0, summary):
    print(json.dumps({
        "command": command,
        "inputs": {name: sha256_file(path) for name, path in inputs.items()},
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
    _print_manifest("paper-figures", {}, t0, summary)
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
    _print_manifest("build", inputs, t0, summary)
    return 0


def cmd_verify(args):
    from .securecode import check_budget, verify_secrecy_condition
    t0 = time.monotonic()
    design = load_json(args.design, design_from_json, "design")
    restricted = _restricted(args, design)
    # one walk up to n - k gives the verdict at the claimed mu and the design's
    # achieved level: the condition holds below the first violation's size
    H, mu = design.coset.parity_check, design.mu
    check_budget(mu)
    top = H.cols - H.rows
    ok, witness = verify_secrecy_condition(H, design.netcode, max(mu, top), restricted)
    achieved = top if ok else min(len(witness) - 1, top)
    if not ok and len(witness) > mu:
        ok, witness = True, None
    summary = {"ok": ok, "witness": list(witness) if witness else None, "achieved_mu": achieved}
    _print_manifest("verify", {"design": args.design}, t0, summary)
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
    _print_manifest("sweep", {"design": args.design}, t0, {"mu_max": args.mu_max})
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
    _print_manifest("oracle", {"design": args.design}, t0, summary)
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
    if args.mu > net.n:  # choose(|E| - 1, mu - 1) is 0 there: t alone suffices for nothing
        raise BudgetExceedsCut(f"mu={args.mu} exceeds multicast dimension n={net.n}")
    bound = alphabet_bound_general(len(net.edges), args.mu, len(net.receivers))
    print(bound)
    _print_manifest("bounds", {"network": args.network}, t0, {"bound": bound})
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
        summary = {"action": "encode", "seed": args.seed}
    else:
        word = _vector_argument(H.field, args.word, "--word", "decode")
        secret = code.decode(word)
        print(json.dumps(secret))
        summary = {"action": "decode"}
    _print_manifest("coset", {"H": args.H}, t0, summary)
    return 0


def _restricted(args, design):
    """The wiretappable edge ids: the comma-separated --restricted list, else
    the design's restricted edges (None: every edge)."""
    return args.restricted.split(",") if args.restricted else design.restricted_edges


class _Once(argparse.Action):
    """Stores an option's value, refusing a second occurrence of the option in
    one parse of the parser (a subcommand's parser parses its own part)."""

    def __call__(self, parser, namespace, values, option_string=None):
        if self.dest in parser.given:
            raise argparse.ArgumentError(self, "given more than once")
        parser.given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Refuses bad argv, an option given twice included, as MalformedInput,
    which `main` prints as one line, instead of argparse's usage block and
    exit 2 or keeping the last value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _Once)

    def parse_known_args(self, args=None, namespace=None):
        self.given = set()  # the dests `_Once` has stored in this parse
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise MalformedInput(message)


def build_parser():
    parser = _Parser(
        prog="wiretapnc",
        description="Secure network codes for multicast wiretap networks of type II",
    )
    analysis = _Parser(add_help=False)
    analysis.add_argument("--design", required=True)
    analysis.add_argument("--restricted",
                          help="comma-separated edge ids (default: params.restricted)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paper-figures", help="regenerate the built-in reference example reports")
    p.add_argument("--out", help="directory for generated report copies")
    p.set_defaults(func=cmd_paper_figures)

    p = sub.add_parser("build", help="security-constrained LIF construction")
    p.add_argument("--network", required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--H", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", parents=[analysis], help="check the secrecy rank condition")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[analysis], help="equivocation sweep over mu")
    p.add_argument("--mu-max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", parents=[analysis], help="cross-check rank formula vs brute force")
    p.add_argument("--mu", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bounds", help="sufficient alphabet size for a network")
    p.add_argument("--network", required=True)
    p.add_argument("--mu", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("coset", help="coset encode/decode")
    p.set_defaults(func=cmd_coset)
    actions = p.add_subparsers(dest="coset_action", required=True)
    encode, decode = actions.add_parser("encode"), actions.add_parser("decode")
    for a, flag, what in ((encode, "--secret", "secret"), (decode, "--word", "channel")):
        a.add_argument("--H", required=True)
        a.add_argument(flag, help=f"JSON array of {what} symbols")
    encode.add_argument("--seed", type=int, default=0, help="seed of the encoder's randomness")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return 1 if exc.code not in (0, None) else 0
    except WiretapNCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
