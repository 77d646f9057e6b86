"""The four benchmark workloads: inputs, operation lists and output checks.

Each workload writes its seeded inputs as JSON at set-up (`prepare`), loads
them back through `wiretapnc.serialize` (`load`), and turns them into a fixed
list of operations (`operations`).  An operation is a callable plus a check
of its output; the check returns None when the output is correct and a short
reason otherwise.  Checks compare against values recorded in
`expected.json`, closed forms, or an independent call, never against
incidental details such as which of several minimising subsets is returned.

Why these workloads:
- construct: `secure_lif` on combination networks and a seeded corpus of
  small multicast networks; loads `securecode`, small-matrix `fmatrix`
  elimination and `gf` extension arithmetic.
- analyze: Delta(mu), secrecy and cascade verdicts on combination designs
  over prime fields only, so an extension-field change should leave it flat
  while a change to elimination or subset enumeration moves it.
- crosscheck: rank formula against the brute-force oracle; the only workload
  where `oracle` and `coset` encoding dominate, on prime, characteristic-2
  and odd-extension fields.
- cli: one `wiretapnc` process per operation; measures interpreter start,
  imports, `serialize` and per-command fixed costs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _write(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def _bundle_fields(items):
    """Every (p, m) named by the bundle's networks and matrices."""
    found = set()

    def walk(obj):
        if isinstance(obj, dict):
            if "field" in obj and isinstance(obj["field"], dict):
                found.add((obj["field"]["p"], obj["field"].get("m", 1)))
            for v in obj.values():
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    walk(items)
    return sorted(found)


def load_bundle(work, wn):
    """Set-up shared by every in-process workload: build each field, then
    load the JSON bundle through `serialize`."""
    raw = wn.serialize.read_json(work / "inputs.json")
    for p, m in raw["fields"]:
        wn.field_new(p, m)
    return raw


# ---------------------------------------------------------------- construct

# (n, M, mu, q): combination networks large enough to dominate a pass, over
# a prime, a characteristic-2 and an odd-extension field.
CONSTRUCT_LARGE = (
    (3, 6, 2, 29),
    (4, 5, 1, 16),
    (3, 6, 2, 25),
    (3, 6, 2, 32),
)
# (n, mu, t, intermediate nodes) classes of the small corpus.  Cycling
# through them fixes every instance's size and field for all seeds; the seed
# picks only which nodes feed each receiver, so the corpus's cost mix, and
# with it op_ms_p50 and op_ms_p90, stays put from seed to seed.
CONSTRUCT_CLASSES = tuple(
    (n, mu, t, mids)
    for n, mu in ((2, 1), (3, 1), (3, 2))
    for t in (1, 2, 3)
    for mids in range(n - 1, 4)
)
CONSTRUCT_SMALL = 6 * len(CONSTRUCT_CLASSES)


def construct_prepare(seed, work):
    rng = random.Random(seed)
    items = []
    for n, M, mu, q in CONSTRUCT_LARGE:
        nodes, edges, receivers = gen.combination_edges(n, M)
        items.append({
            "name": f"B({n},{M})-mu{mu}-GF({q})",
            "network": gen.network_json(nodes, edges, receivers, n, q),
            "H": gen.matrix_json(q, gen.mds_parity_check(n - mu, n), n),
            "mu": mu,
            "word": [rng.randrange(q) for _ in range(n)],
        })
    for i in range(CONSTRUCT_SMALL):
        n, mu, t, mids = CONSTRUCT_CLASSES[i % len(CONSTRUCT_CLASSES)]
        nodes, edges, receivers = gen.random_multicast(rng, n, t, mids)
        q = gen.smallest_prime_power_at_least(gen.alphabet_bound(len(edges), mu, t))
        items.append({
            "name": f"small{i}",
            "network": gen.network_json(nodes, edges, receivers, n, q),
            "H": gen.matrix_json(q, gen.mds_parity_check(n - mu, n), n),
            "mu": mu,
            "word": [rng.randrange(q) for _ in range(n)],
        })
    _write(work / "inputs.json", {"fields": _bundle_fields(items), "items": items})


def construct_load(work, wn):
    raw = load_bundle(work, wn)
    return [
        (it["name"], wn.serialize.network_from_json(it["network"]),
         wn.serialize.matrix_from_json(it["H"]), it["mu"], it["word"])
        for it in raw["items"]
    ]


def construct_operations(state, ctx):
    wn = ctx.wn
    ops = []
    for name, net, H, mu, word in state:
        def run(net=net, H=H, mu=mu):
            return wn.secure_lif(net, net.n, mu, H, net.field)

        def check(design, net=net, H=H, mu=mu, word=word):
            ok, witness = wn.verify_secrecy_condition(H, design.netcode, mu)
            if not ok:
                return f"secrecy condition fails on {witness}"
            payloads = design.netcode.payloads(word)
            for r, flow in net.edge_disjoint_flows().items():
                if design.netcode.receiver_decode(flow, payloads) != word:
                    return f"receiver {r} does not decode"
            return None

        ops.append(Op(f"secure_lif:{name}", run, check))
    return ops


# ---------------------------------------------------------------- analyze

# (n, M, k, p) combination designs; Delta(mu) = k for mu <= n - k and
# k - (mu - (n - k)) beyond.
ANALYZE_DESIGNS = (
    (3, 6, 1, 11), (3, 6, 2, 11), (4, 6, 2, 11), (4, 5, 2, 11),
    (2, 3, 1, 5), (2, 4, 1, 7), (2, 5, 1, 7), (3, 4, 1, 7), (3, 4, 2, 7),
    (3, 5, 1, 11), (3, 5, 2, 11), (4, 5, 1, 11), (4, 5, 3, 11),
)
# (design index, kind, mu): kind is rank (Delta(mu) through
# equivocation_rank), sweep (equivocation_sweep up to mu), verify
# (verify_secrecy_condition) or cascade (byzantine_secrecy_check with the
# non-identity outer code of `cascade_code`).  The large operations run in
# one basis, the small ones (mu <= ANALYZE_SMALL_MU_CAP on the other
# designs) in every basis.
ANALYZE_LARGE_OPS = (
    (0, "rank", 2), (1, "rank", 2), (2, "rank", 2), (0, "verify", 2), (2, "cascade", 2),
)
ANALYZE_SMALL_MU_CAP = 2
ANALYZE_BASES = 4


def design_key(n, M, k, p):
    return f"B({n},{M})-k{k}-GF({p})"


def cascade_code(n):
    """Fixed non-identity outer code: the upper unitriangular all-ones matrix."""
    return [[int(j >= i) for j in range(n)] for i in range(n)]


def analyze_op_list():
    """[(design index, kind, mu, bases)] in pass order."""
    ops = [(d, kind, mu, 1) for d, kind, mu in ANALYZE_LARGE_OPS]
    cap = ANALYZE_SMALL_MU_CAP
    for d, (n, M, k, p) in enumerate(ANALYZE_DESIGNS[3:], start=3):
        ops += [(d, "rank", mu, ANALYZE_BASES) for mu in range(1, min(n, cap) + 1)]
        ops.append((d, "sweep", min(n, cap), ANALYZE_BASES))
        for mu in sorted({min(n - k, cap), min(n - k + 1, cap)}):
            ops += [(d, "verify", mu, ANALYZE_BASES), (d, "cascade", mu, ANALYZE_BASES)]
    return ops


def analyze_prepare(seed, work):
    rng = random.Random(seed)
    designs = []
    for n, M, k, p in ANALYZE_DESIGNS:
        for _ in range(ANALYZE_BASES):
            A = gen.random_invertible_mod_p(rng, n, p)
            design = gen.combination_design(n, M, p, k, A)
            # the outer code in the new basis, A^-1 G A, keeps every verdict
            G = gen.matmul_mod_p(gen.inverse_mod_p(A, p), cascade_code(n), p)
            G = gen.matmul_mod_p(G, A, p)
            designs.append({"key": design_key(n, M, k, p), "design": design,
                            "G": gen.matrix_json(p, G, n)})
    _write(work / "inputs.json", {"fields": _bundle_fields(designs), "designs": designs})


def analyze_load(work, wn):
    raw = load_bundle(work, wn)
    return [(d["key"], wn.serialize.design_from_json(d["design"]),
             wn.serialize.matrix_from_json(d["G"])) for d in raw["designs"]]


def analyze_operations(state, ctx):
    ops = []
    for d, kind, mu, bases in analyze_op_list():
        for b in range(bases):
            key, design, G = state[d * ANALYZE_BASES + b]
            run, check = _analyze_op(ctx.wn, kind, design, G, mu, ctx.expected["analyze"][key])
            ops.append(Op(f"{kind}:{key}:mu{mu}:basis{b}", run, check))
    return ops


def _analyze_op(wn, kind, design, G, mu, want):
    """(run, check) of one analyze operation; `want` is the design's entry
    in expected.json."""
    H, code = design.coset.parity_check, design.netcode
    if kind == "rank":
        def run():
            return wn.equivocation_rank(H, code, mu)

        def check(out):
            return _check_delta(wn, H, code, mu, out[0], out[1], want["delta"][str(mu)])
    elif kind == "sweep":
        def run():
            return wn.equivocation_sweep(H, code, mu)

        def check(report):
            for m, delta in report.delta.items():
                reason = _check_delta(wn, H, code, m, delta, report.witnesses[m],
                                      want["delta"][str(m)])
                if reason:
                    return reason
            return None
    elif kind == "verify":
        def run():
            return wn.verify_secrecy_condition(H, code, mu)

        def check(out):
            return _check_verdict(out, want["verify"][str(mu)])
    else:
        def run():
            return wn.byzantine_secrecy_check(H, G, code, mu)

        def check(out):
            return _check_verdict(out, want["cascade"][str(mu)])
    return run, check


def _check_delta(wn, H, code, mu, delta, witness, want):
    if delta != want:
        return f"Delta({mu}) = {delta}, expected {want}"
    if mu == 0:
        return None
    # the witness must attain Delta: recompute on the witness alone
    if witness is None or len(set(witness)) != mu:
        return f"Delta({mu}) witness {witness} is not a {mu}-subset"
    again = wn.equivocation_rank(H, code, mu, restricted=list(witness))[0]
    if again != delta:
        return f"witness {witness} gives {again}, not Delta({mu}) = {delta}"
    return None


def _check_verdict(out, want):
    ok, witness = out
    if ok != want:
        return f"verdict {ok}, expected {want}"
    if not ok and not witness:
        return "violation reported without a witness"
    return None


# ---------------------------------------------------------------- crosscheck

# (q, n, k, num_mid, num_edges, mu): one oracle table each, covering the
# prime/numpy, characteristic-2/numpy and odd-extension/pure-Python paths.
CROSSCHECK_LARGE = (
    (7, 5, 2, 2, 8, 2),
    (16, 4, 2, 2, 8, 2),
    (9, 4, 2, 2, 8, 2),
)
CROSSCHECK_LARGE_SEED = 907_3493
# (q, n, k) classes of the small corpus, cycled as for construct; every
# instance has CROSSCHECK_SMALL_SHAPE (intermediate nodes, edges).
CROSSCHECK_CLASSES = tuple((q, n, k) for q in (2, 3, 5, 7)
                           for n, k in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3)))
CROSSCHECK_SMALL_SHAPE = (2, 7)
CROSSCHECK_SMALL = 12 * len(CROSSCHECK_CLASSES)
CROSSCHECK_MU_CAP = 2


def _parity_check_json(rng, q, k, n):
    """[I_k | R] with a random R, columns in a random order: full row rank
    over every field by construction."""
    rows = [[int(i == j) for j in range(k)] + [rng.randrange(q) for _ in range(n - k)]
            for i in range(k)]
    perm = list(range(n))
    rng.shuffle(perm)
    return gen.matrix_json(q, [[row[c] for c in perm] for row in rows], n)


def crosscheck_large_items():
    rng = random.Random(CROSSCHECK_LARGE_SEED)
    items = []
    for q, n, k, num_mid, num_edges, mu in CROSSCHECK_LARGE:
        net, local = gen.random_coded_network(rng, q, n, num_mid, num_edges)
        items.append({"name": f"GF({q})-n{n}-k{k}-mu{mu}",
                      "design": gen.design_json(net, local, _parity_check_json(rng, q, k, n),
                                                mu, k, n),
                      "mu": mu})
    return items


def crosscheck_prepare(seed, work):
    rng = random.Random(seed)
    items = crosscheck_large_items()
    for i in range(CROSSCHECK_SMALL):
        q, n, k = CROSSCHECK_CLASSES[i % len(CROSSCHECK_CLASSES)]
        net, local = gen.random_coded_network(rng, q, n, *CROSSCHECK_SMALL_SHAPE)
        while True:
            H = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            if gen.rank_mod_p(H, q) == k:
                break
        for mu in range(1, CROSSCHECK_MU_CAP + 1):
            items.append({"name": f"small{i}-mu{mu}",
                          "design": gen.design_json(net, local, gen.matrix_json(q, H, n),
                                                    mu, k, n),
                          "mu": mu})
    _write(work / "inputs.json", {"fields": _bundle_fields(items), "items": items})


def crosscheck_load(work, wn):
    raw = load_bundle(work, wn)
    return [(it["name"], wn.serialize.design_from_json(it["design"]), it["mu"])
            for it in raw["items"]]


def crosscheck_operations(state, ctx):
    wn, recorded = ctx.wn, ctx.expected["crosscheck"]
    ops = []
    for name, design, mu in state:
        H, code = design.coset.parity_check, design.netcode

        def run(H=H, code=code, mu=mu):
            rank = wn.equivocation_rank(H, code, mu)
            oracle = wn.min_equivocation_bruteforce(H, code, mu)
            return rank[0], oracle[0]

        def check(out, name=name, mu=mu):
            rank, oracle = out
            if rank != oracle:
                return f"rank formula {rank} != oracle {oracle} at mu={mu}"
            if name in recorded and rank != recorded[name]:
                return f"Delta({mu}) = {rank}, recorded {recorded[name]}"
            return None

        ops.append(Op(f"crosscheck:{name}", run, check))
    return ops


# ---------------------------------------------------------------- cli

CLI_ROUNDS = 12


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cli_prepare(seed, work):
    rng = random.Random(seed)
    rounds = []
    for i in range(CLI_ROUNDS):
        t = 1 + i % 3
        nodes, edges, receivers = gen.random_multicast(rng, 2, t, 2)
        q = gen.smallest_prime_at_least(gen.alphabet_bound(len(edges), 1, t))
        _write(work / f"net{i}.json", gen.network_json(nodes, edges, receivers, 2, q))
        _write(work / f"h{i}.json", gen.matrix_json(q, [[1, 1]], 2))
        rounds.append({"q": q, "edges": len(edges), "t": t,
                       "secret": rng.randrange(q), "enc_seed": rng.randrange(10 ** 6),
                       "word": [rng.randrange(q), rng.randrange(q)]})
    _write(work / "insecure.json", gen.butterfly_design(secure=False))
    _write(work / "rounds.json", rounds)


def cli_load(work, wn):
    """Load every input file once through `serialize`, as the CLI processes
    do, and return the parameters of each round."""
    ser = wn.serialize
    rounds = ser.read_json(work / "rounds.json")
    for i in range(len(rounds)):
        ser.network_from_json(ser.read_json(work / f"net{i}.json"))
        ser.matrix_from_json(ser.read_json(work / f"h{i}.json"))
    ser.design_from_json(ser.read_json(work / "insecure.json"))
    return rounds


def cli_sequence(work, rounds):
    """[(argv, check)] for one pass; check(rc, stdout) returns None or a reason."""
    seq = []
    for i, r in enumerate(rounds):
        q = r["q"]
        net, h = str(work / f"net{i}.json"), str(work / f"h{i}.json")
        design, sweep = str(work / f"design{i}.json"), str(work / f"sweep{i}.json")
        seq += [
            (["paper-figures"], _expect_summary(0, "golden_ok", True)),
            (["build", "--network", net, "--mu", "1", "--H", h, "--out", design],
             _expect_rc(0)),
            (["verify", "--design", design], _expect_summary(0, "ok", True)),
            (["verify", "--design", str(work / "insecure.json")],
             _expect_summary(2, "ok", False)),
            (["sweep", "--design", design, "--mu-max", "2", "--out", sweep],
             _expect_sweep(sweep, {"0": 1, "1": 1, "2": 0})),
            (["oracle", "--design", design, "--mu", "1"], _expect_summary(0, "agree", True)),
            (["bounds", "--network", net, "--mu", "1"],
             _expect_first_line(0, gen.alphabet_bound(r["edges"], 1, r["t"]))),
            (["coset", "encode", "--H", h, "--secret", json.dumps([r["secret"]]),
              "--seed", str(r["enc_seed"])],
             _expect_encoding(q, r["secret"])),
            (["coset", "decode", "--H", h, "--word", json.dumps(r["word"])],
             _expect_first_line(0, [sum(r["word"]) % q])),
        ]
    return seq


def _manifest(stdout):
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return None


def _expect_rc(rc):
    def check(got, stdout):
        return None if got == rc else f"exit {got}, expected {rc}"
    return check


def _expect_summary(rc, key, value):
    def check(got, stdout):
        if got != rc:
            return f"exit {got}, expected {rc}"
        manifest = _manifest(stdout)
        if manifest is None or manifest["summary"].get(key) != value:
            return f"summary {key} is not {value}"
        return None
    return check


def _expect_first_line(rc, value):
    def check(got, stdout):
        if got != rc:
            return f"exit {got}, expected {rc}"
        first = stdout.splitlines()[0]
        return None if json.loads(first) == value else f"printed {first!r}"
    return check


def _expect_sweep(path, deltas):
    def check(got, stdout):
        if got != 0:
            return f"exit {got}, expected 0"
        with open(path) as fh:
            result = json.load(fh)
        return None if result["delta"] == deltas else f"sweep gave {result['delta']}"
    return check


def _expect_encoding(q, secret):
    def check(got, stdout):
        if got != 0:
            return f"exit {got}, expected 0"
        word = json.loads(stdout.splitlines()[0])
        return None if sum(word) % q == secret else f"word {word} has the wrong syndrome"
    return check


def cli_operations(state, ctx):
    """One Op per CLI process.  `ctx.wrap_argv`, when set, turns the
    command's argv into the process's argv; by default the process is
    `python -m wiretapnc.cli`."""
    env = cli_env()
    ops = []
    for i, (argv, check) in enumerate(cli_sequence(ctx.work, state)):
        full = (ctx.wrap_argv(i, argv) if ctx.wrap_argv
                else [sys.executable, "-m", "wiretapnc.cli"] + argv)

        def run(full=full):
            proc = subprocess.run(full, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            return proc.returncode, proc.stdout

        ops.append(Op(" ".join(argv), run, lambda out, check=check: check(*out)))
    return ops


class Context:
    """What operation builders need: the imported package, the work
    directory, the recorded expected values, and for a traced CLI pass the
    argv wrapper."""

    def __init__(self, wn, work, expected, wrap_argv=None):
        self.wn = wn
        self.work = work
        self.expected = expected
        self.wrap_argv = wrap_argv


# name -> (prepare(seed, work), load(work, wn), operations(state, ctx))
WORKLOADS = {
    "construct": (construct_prepare, construct_load, construct_operations),
    "analyze": (analyze_prepare, analyze_load, analyze_operations),
    "crosscheck": (crosscheck_prepare, crosscheck_load, crosscheck_operations),
    "cli": (cli_prepare, cli_load, cli_operations),
}
