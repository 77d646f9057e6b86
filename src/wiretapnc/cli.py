"""Command-line front end: JSON-in/JSON-out workflows over the library.

Exit codes: 0 success, 2 verification failure (witness on stdout), 1 usage
error.  Every command is a pure function of its inputs and the seed, which
only `coset encode` takes (`--seed`, the randomness of its word).  A run
manifest goes to stdout, never into result files, so result files are
byte-identical across runs.  `main` derives it from the parsed command line:
the command, the hashes of its --design, --network or --H files, the
version, elapsed_s since parsing, and a summary, which for `coset encode`
records the seed.
Each command imports the modules it calls when it runs, so a process compiles
only those, and numpy (for the oracle) only where the oracle runs.
"""

from __future__ import annotations

import argparse
import json
import os
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

def _print_manifest(args, summary):
    """The run manifest of the parsed command line `args`: its command, the
    hashes of whichever of --design, --network and --H it has, and the time
    since `main` parsed it."""
    print(json.dumps({
        "command": args.command,
        "inputs": {name: sha256_file(path) for name in ("design", "network", "H")
                   if (path := getattr(args, name, None))},
        "version": __version__,
        "elapsed_s": round(time.monotonic() - args.t0, 6),
        "summary": summary,
    }, sort_keys=True))


# ---- built-in reference reports ----

def _report(name, H, code, **extra):
    """The fields every reference report has: the example's name, H, the code,
    the secrecy verdict at mu = 1, Delta(1) with its witness and the oracle's
    Delta(1); `extra` holds the fields the example adds."""
    from .equivocation import equivocation_rank
    from .oracle import min_equivocation_bruteforce
    from .securecode import verify_secrecy_condition
    ok, witness = verify_secrecy_condition(H, code, mu=1)
    delta, min_witness, _ = equivocation_rank(H, code, 1)
    return {
        "name": name,
        "H": matrix_to_json(H),
        "code": code_to_json(code),
        "secrecy": {"ok": ok, "witness": list(witness) if witness else None},
        "delta_mu1": delta,
        "delta_witness": list(min_witness),
        "oracle_delta_mu1": min_equivocation_bruteforce(H, code, 1)[0],
        **extra,
    }


def _butterfly_report(secure: bool):
    from .equivocation import equivocation_rank
    from .gf import field_new
    from .netgraph import butterfly_code
    from .oracle import min_equivocation_bruteforce
    f = field_new(3)
    alpha = f.primitive_element()
    code = butterfly_code(f, be_local=(1, alpha) if secure else (1, 1))
    H = matrix_from_json({"field": {"p": 3, "m": 1}, "rows": [[1, 1]]})
    return _report(
        "butterfly_secure" if secure else "butterfly_insecure", H, code,
        delta_per_edge={e: equivocation_rank(H, code, 1, restricted=[e])[0]
                        for e in sorted(code.global_vectors)},
        oracle_witness=list(min_equivocation_bruteforce(H, code, 1)[1]))


def _combination_report():
    from .gf import field_new
    from .securecode import combination_secure_design
    design = combination_secure_design(3, 4, field_new(7), 2)
    code = design.netcode
    y = [1, 5, 2]
    payloads = code.payloads(y)
    return _report(
        "combination_b34", design.coset.parity_check, code,
        source_edge_vectors={f"Sm{i}": list(code.global_vectors[f"Sm{i}"]) for i in range(4)},
        all_receivers_decode=all(code.receiver_decode(flow, payloads) == y
                                 for flow in code.network.edge_disjoint_flows().values()))


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
    _print_manifest(args, summary)
    if mismatches:
        print(f"golden mismatch: {', '.join(mismatches)}")
        return 2
    return 0


def cmd_build(args):
    from .securecode import secure_lif
    net = load_json(args.network, network_from_json, "network")
    H = load_json(args.H, matrix_from_json, "matrix")
    design = secure_lif(net, net.n, args.mu, H)
    write_json(args.out, design_to_json(design))
    _print_manifest(args, {"out": args.out, "checks": design.certificate["checks"]})
    return 0


def cmd_verify(args):
    from .securecode import check_budget, verify_secrecy_condition
    design, restricted = _design(args)
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
    _print_manifest(args, summary)
    if not ok:
        print(f"secrecy violation witness: {','.join(witness)}")
        return 2
    print("secrecy condition holds")
    return 0


def cmd_sweep(args):
    from .equivocation import equivocation_sweep
    design, restricted = _design(args)
    report = equivocation_sweep(design.coset.parity_check, design.netcode, args.mu_max, restricted)
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
    _print_manifest(args, {"mu_max": args.mu_max})
    return 0


def cmd_oracle(args):
    from .equivocation import equivocation_rank
    from .oracle import min_equivocation_bruteforce
    design, restricted = _design(args)
    H = design.coset.parity_check
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
    _print_manifest(args, summary)
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
    net = load_json(args.network, network_from_json, "network")
    if args.mu > net.n:  # choose(|E| - 1, mu - 1) is 0 there: t alone suffices for nothing
        raise BudgetExceedsCut(f"mu={args.mu} exceeds multicast dimension n={net.n}")
    bound = alphabet_bound_general(len(net.edges), args.mu, len(net.receivers))
    print(bound)
    _print_manifest(args, {"bound": bound})
    return 0


def _vector_argument(field, text, flag):
    """The field elements of a JSON array given on the command line."""
    try:
        vector = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{flag} is not JSON: {exc}") from exc
    if not isinstance(vector, list):
        raise MalformedInput(f"{flag} must be a JSON array of integers, got {text}")
    return [field.check(x) for x in vector]


def cmd_coset(args):
    from .coset import CosetCode
    H = load_json(args.H, matrix_from_json, "matrix")
    code = CosetCode(H)
    if args.coset_action == "encode":
        secret = _vector_argument(H.field, args.secret, "--secret")
        word = code.encode(secret, seed=args.seed)
        print(json.dumps(word))
        summary = {"action": "encode", "seed": args.seed}
    else:
        word = _vector_argument(H.field, args.word, "--word")
        secret = code.decode(word)
        print(json.dumps(secret))
        summary = {"action": "decode"}
    _print_manifest(args, summary)
    return 0


def _design(args):
    """(design, restricted): the --design file's design and the wiretappable
    edge ids, the comma-separated --restricted list, else the design's
    restricted edges (None: every edge)."""
    design = load_json(args.design, design_from_json, "design")
    return design, args.restricted.split(",") if args.restricted else design.restricted_edges


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
    network = _Parser(add_help=False)
    network.add_argument("--network", required=True)
    network.add_argument("--mu", type=int, required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paper-figures", help="regenerate the built-in reference example reports")
    p.add_argument("--out", help="directory for generated report copies")
    p.set_defaults(func=cmd_paper_figures)

    p = sub.add_parser("build", parents=[network], help="security-constrained LIF construction")
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

    p = sub.add_parser("bounds", parents=[network], help="sufficient alphabet size for a network")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("coset", help="coset encode/decode")
    p.set_defaults(func=cmd_coset)
    actions = p.add_subparsers(dest="coset_action", required=True)
    encode, decode = actions.add_parser("encode"), actions.add_parser("decode")
    for a, flag, what in ((encode, "--secret", "secret"), (decode, "--word", "channel")):
        a.add_argument("--H", required=True)
        a.add_argument(flag, required=True, help=f"JSON array of {what} symbols")
    encode.add_argument("--seed", type=int, default=0, help="seed of the encoder's randomness")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.t0 = time.monotonic()  # the manifest's elapsed_s counts the command's imports too
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at the interpreter's exit
        return status
    except SystemExit as exc:  # --help
        return 1 if exc.code not in (0, None) else 0
    except WiretapNCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout closed early (`| head -1`): the exit's flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
