import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wiretapnc
from wiretapnc import cli
from wiretapnc.coset import CosetCode
from wiretapnc.exceptions import MalformedInput
from wiretapnc.fmatrix import FMatrix
from wiretapnc.gf import field_new
from wiretapnc.netgraph import Network, butterfly_code, butterfly_network, parallel_network
from wiretapnc.securecode import SecureDesign, combination_secure_design
from wiretapnc.serialize import (
    canonical_dumps,
    code_from_json,
    code_to_json,
    design_from_json,
    design_to_json,
    matrix_from_json,
    matrix_to_json,
    network_from_json,
    network_to_json,
    read_json,
    write_json,
)


@pytest.fixture
def fixtures(tmp_path):
    f = field_new(3)
    net = butterfly_network(f)
    write_json(tmp_path / "net.json", network_to_json(net))
    H = FMatrix(f, [[1, 1]])
    write_json(tmp_path / "h.json", matrix_to_json(H))
    return tmp_path


def run(argv, capsys):
    rc = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    return rc, out


# ---- serialization roundtrips ----

def test_matrix_roundtrip(gf3):
    M = FMatrix(gf3, [[1, 2], [0, 1]])
    assert matrix_from_json(matrix_to_json(M)) == M
    Z = FMatrix(gf3, [], 2)
    assert matrix_from_json(matrix_to_json(Z)) == Z


def test_network_and_code_roundtrip(gf3):
    net = butterfly_network(gf3)
    net2 = network_from_json(network_to_json(net))
    assert [e.id for e in net2.edges] == [e.id for e in net.edges]
    code = butterfly_code(gf3, (1, 2))
    code2 = code_from_json(net2, code_to_json(code))
    assert code2.global_vectors == code.global_vectors


@pytest.mark.parametrize("field, edit", [
    ("network nodes", lambda net: dict(net, nodes="SABCDEF")),
    ("network nodes", lambda net: dict(net, nodes=net["nodes"][:-1] + [7])),
    ("network receivers", lambda net: dict(net, receivers="DF")),
    ("network source", lambda net: dict(net, source=["S"])),
    ("network edge id", lambda net: dict(net, edges=[dict(e, id=i)
                                                     for i, e in enumerate(net["edges"])])),
    ("network edge tail", lambda net: dict(net, edges=[dict(net["edges"][0], tail=None)])),
    ("network edge head", lambda net: dict(net, edges=[dict(net["edges"][0], head=1)])),
], ids=["nodes-a-string", "node-an-integer", "receivers-a-string", "source-a-list",
        "edge-ids-integers", "edge-tail-null", "edge-head-an-integer"])
def test_network_names_must_be_strings(gf3, field, edit):
    with pytest.raises(MalformedInput, match=f"^{field} must be "):
        network_from_json(edit(network_to_json(butterfly_network(gf3))))


def test_code_from_json_refuses_a_global_vector_of_an_unknown_edge(gf3):
    net = butterfly_network(gf3)
    obj = dict(code_to_json(butterfly_code(gf3)), **{"global": {"XX": [1, 0]}})
    with pytest.raises(MalformedInput, match="^stored global vector names unknown edge XX$"):
        code_from_json(net, obj)


def test_design_roundtrip(gf3):
    code = butterfly_code(gf3, (1, 2))
    design = SecureDesign(CosetCode(FMatrix(gf3, [[1, 1]])), code, 1,
                          certificate={"verified": True})
    obj = design_to_json(design)
    design2 = design_from_json(obj)
    assert design_to_json(design2) == obj


def test_canonical_dumps_stable():
    assert canonical_dumps({"b": 1, "a": [2]}) == \
        '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


# ---- CLI commands ----

def test_bounds(fixtures, capsys):
    rc, out = run(["bounds", "--network", fixtures / "net.json", "--mu", "1"],
                  capsys)
    assert rc == 0
    assert out.splitlines()[0] == "3"


def test_build_verify_sweep_oracle_roundtrip(fixtures, capsys):
    design_path = fixtures / "design.json"
    rc, _ = run(["build", "--network", fixtures / "net.json", "--mu", "1",
                 "--H", fixtures / "h.json", "--out", design_path], capsys)
    assert rc == 0

    rc, out = run(["verify", "--design", design_path], capsys)
    assert rc == 0 and "secrecy condition holds" in out

    sweep_path = fixtures / "sweep.json"
    rc, _ = run(["sweep", "--design", design_path, "--mu-max", "2",
                 "--out", sweep_path], capsys)
    assert rc == 0
    sweep = read_json(sweep_path)
    assert sweep["delta"] == {"0": 1, "1": 1, "2": 0}

    rc, out = run(["oracle", "--design", design_path, "--mu", "1"], capsys)
    assert rc == 0 and "oracle confirmed" in out


def test_oracle_disagreement_exits_2_with_both_witnesses(fixtures, capsys, monkeypatch):
    design_path = fixtures / "design.json"
    assert cli.main(["build", "--network", str(fixtures / "net.json"), "--mu", "1",
                     "--H", str(fixtures / "h.json"), "--out", str(design_path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("wiretapnc.oracle.min_equivocation_bruteforce",
                        lambda H, code, mu, restricted: (0, ("BE",)))
    rc, out = run(["oracle", "--design", design_path, "--mu", "1"], capsys)
    manifest, line = out.splitlines()
    assert rc == 2
    assert json.loads(manifest)["summary"] == {
        "mu": 1, "rank_delta": 1, "oracle_delta": 0, "agree": False}
    assert line == ("DISAGREEMENT at mu=1: rank formula 1 (witness ('AB',)) "
                    "vs oracle 0 (witness ('BE',))")


def test_build_is_deterministic(fixtures, capsys):
    a, b = fixtures / "a.json", fixtures / "b.json"
    for path in (a, b):
        rc, _ = run(["build", "--network", fixtures / "net.json", "--mu", "1",
                     "--H", fixtures / "h.json", "--out", path], capsys)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    # the output file carries no manifest (timings would break determinism)
    assert "elapsed" not in a.read_text()


def test_build_codes_an_edge_without_inputs(tmp_path, capsys):
    """`build` on S -> T beside an edge a -> b that has no input: the design
    gives a -> b the empty local vector and the zero global vector."""
    f = field_new(3)
    net = Network(["S", "T", "a", "b"], [("ST", "S", "T"), ("ab", "a", "b")], "S", ["T"], 1, f)
    write_json(tmp_path / "net.json", network_to_json(net))
    write_json(tmp_path / "h.json", matrix_to_json(FMatrix(f, [[1]])))
    rc, _ = run(["build", "--network", tmp_path / "net.json", "--mu", "0",
                 "--H", tmp_path / "h.json", "--out", tmp_path / "design.json"], capsys)
    assert rc == 0
    code = read_json(tmp_path / "design.json")["code"]
    assert code == {"local": {"ST": [1], "ab": []}, "global": {"ST": [1], "ab": [0]}}


def test_verify_failure_exit_code(fixtures, capsys, gf3):
    code = butterfly_code(gf3, (1, 1))
    design = SecureDesign(CosetCode(FMatrix(gf3, [[1, 1]])), code, 1)
    path = fixtures / "bad.json"
    write_json(path, design_to_json(design))
    rc, out = run(["verify", "--design", path], capsys)
    assert rc == 2
    assert "witness: BE" in out


@pytest.mark.parametrize("be_local, mu, rc, achieved", [
    ((1, 1), 0, 0, 0), ((1, 1), 1, 2, 0), ((1, 2), 1, 0, 1)],
    ids=["insecure-mu-edited-to-0", "insecure", "secure"])
def test_verify_reports_achieved_mu(fixtures, capsys, gf3, be_local, mu, rc, achieved):
    """The exit code follows the claimed params.mu; `achieved_mu` is the
    largest mu <= n - k at which the condition holds, whatever the claim."""
    design = SecureDesign(CosetCode(FMatrix(gf3, [[1, 1]])), butterfly_code(gf3, be_local),
                          mu)
    path = fixtures / "design.json"
    write_json(path, design_to_json(design))
    got, out = run(["verify", "--design", path], capsys)
    summary = json.loads(out.splitlines()[0])["summary"]
    assert (got, summary["ok"], summary["achieved_mu"]) == (rc, rc == 0, achieved)
    assert summary["witness"] == (["BE"] if rc else None)


@pytest.mark.parametrize("restricted, rc, delta", [
    ("SA,SC", 0, 1), ("SA,BE", 2, 0), ("", 2, 0)], ids=["safe", "leaky", "empty"])
def test_restricted_flag_limits_verify_sweep_and_oracle(fixtures, capsys, gf3,
                                                        restricted, rc, delta):
    """--restricted names the wiretappable edges of the insecure butterfly,
    which leaks only on BE's direction; an empty list leaves every edge open."""
    design = SecureDesign(CosetCode(FMatrix(gf3, [[1, 1]])), butterfly_code(gf3, (1, 1)),
                          1)
    path = fixtures / "design.json"
    write_json(path, design_to_json(design))
    flag = ["--design", path, "--restricted", restricted]
    assert run(["verify", *flag], capsys)[0] == rc
    _, out = run(["sweep", *flag, "--mu-max", "1"], capsys)
    assert json.loads("".join(out.splitlines(True)[:-1]))["delta"]["1"] == delta
    _, out = run(["oracle", *flag, "--mu", "1"], capsys)
    summary = json.loads(out.splitlines()[0])["summary"]
    assert (summary["rank_delta"], summary["agree"]) == (delta, True)


def test_design_restricted_set_serves_verify_sweep_and_oracle(fixtures, capsys, gf3):
    """Without --restricted, every command takes the design's params.restricted:
    the insecure butterfly leaks nothing on SA and SC."""
    design = SecureDesign(CosetCode(FMatrix(gf3, [[1, 1]])), butterfly_code(gf3, (1, 1)),
                          1, ("SA", "SC"))
    path = fixtures / "design.json"
    write_json(path, design_to_json(design))
    assert run(["verify", "--design", path], capsys)[0] == 0
    rc, out = run(["sweep", "--design", path, "--mu-max", "1"], capsys)
    sweep = json.loads("".join(out.splitlines(True)[:-1]))
    assert (rc, sweep["delta"]["1"], sweep["witness"]["1"]) == (0, 1, ["SA"])
    rc, out = run(["oracle", "--design", path, "--mu", "1"], capsys)
    summary = json.loads(out.splitlines()[0])["summary"]
    assert (rc, summary["rank_delta"], summary["oracle_delta"]) == (0, 1, 1)


def test_coset_encode_decode(fixtures, capsys):
    rc, out = run(["coset", "encode", "--H", fixtures / "h.json",
                   "--secret", "[1]", "--seed", "3"], capsys)
    assert rc == 0
    word = json.loads(out.splitlines()[0])
    assert json.loads(out.splitlines()[-1])["summary"] == {"action": "encode", "seed": 3}
    rc, out = run(["coset", "decode", "--H", fixtures / "h.json",
                   "--word", json.dumps(word)], capsys)
    assert rc == 0
    assert json.loads(out.splitlines()[0]) == [1]


def test_seed_changes_coset_word(fixtures, capsys):
    words = []
    for seed in (3, 5):
        rc, out = run(["coset", "encode", "--H", fixtures / "h.json",
                       "--secret", "[1]", "--seed", seed], capsys)
        assert rc == 0
        words.append(out.splitlines()[0])
    assert words[0] != words[1]


@pytest.mark.parametrize("command", ["paper-figures", "build", "verify", "sweep", "oracle",
                                     "bounds"])
def test_only_coset_takes_a_seed(fixtures, capsys, gf3, command):
    """--seed is an option of `coset encode` alone: every other command,
    which runs with these arguments, refuses it."""
    design = fixtures / "design.json"
    write_json(design, design_to_json(SecureDesign(
        CosetCode(FMatrix(gf3, [[1, 1]])), butterfly_code(gf3, (1, 2)), 1)))
    network = ["--network", fixtures / "net.json", "--mu", "1"]
    argv = {"paper-figures": [],
            "build": [*network, "--H", fixtures / "h.json", "--out", fixtures / "out.json"],
            "verify": ["--design", design], "sweep": ["--design", design, "--mu-max", "1"],
            "oracle": ["--design", design, "--mu", "1"], "bounds": network}[command]
    assert run([command, *argv], capsys)[0] == 0
    assert cli.main([command, *map(str, argv), "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("action, option", [("decode", ["--seed", "1"]),
                                            ("decode", ["--secret", "[1]"]),
                                            ("encode", ["--word", "[1, 0]"])])
def test_coset_actions_refuse_the_other_actions_options(fixtures, capsys, action, option):
    """`coset decode` reads no seed and no secret, and `coset encode` no
    word, so each refuses them in one error line."""
    argv = ["coset", action, "--H", str(fixtures / "h.json"),
            *({"decode": ["--word", "[1, 0]"], "encode": ["--secret", "[1]"]}[action])]
    assert run(argv, capsys)[0] == 0
    assert cli.main([*argv, *option]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert errors == [f"error: unrecognized arguments: {' '.join(option)}"]


@pytest.mark.parametrize("action, flag", [("encode", "--secret"), ("decode", "--word")])
def test_coset_refuses_a_missing_vector_flag(fixtures, capsys, action, flag):
    """argparse refuses a `coset` action without its vector, as it does every
    other missing required option: one error line and exit 1."""
    assert cli.main(["coset", action, "--H", str(fixtures / "h.json")]) == 1
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == (
        "", [f"error: the following arguments are required: {flag}"])


def test_paper_figures_golden(capsys, tmp_path):
    rc, out = run(["paper-figures", "--out", tmp_path], capsys)
    assert rc == 0
    report = read_json(tmp_path / "butterfly_secure.json")
    assert report["delta_mu1"] == 1 and report["oracle_delta_mu1"] == 1
    manifest = json.loads(out.splitlines()[-1])
    assert manifest["summary"]["golden_ok"]


def test_paper_figures_detects_tampering(capsys, tmp_path, monkeypatch):
    golden = cli._golden_dir()
    for name in cli.generate_reference_reports():
        (tmp_path / f"{name}.json").write_text(
            (golden / f"{name}.json").read_text())
    tampered = tmp_path / "butterfly_secure.json"
    obj = json.loads(tampered.read_text())
    obj["delta_mu1"] = 0
    tampered.write_text(canonical_dumps(obj))
    monkeypatch.setattr(cli, "_golden_dir", lambda: tmp_path)
    rc, out = run(["paper-figures"], capsys)
    assert rc == 2
    assert "golden mismatch: butterfly_secure" in out


def test_usage_errors(capsys):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["--help"]) == 0


def test_manifest_goes_to_stdout_not_files(fixtures, capsys):
    rc, out = run(["bounds", "--network", fixtures / "net.json", "--mu", "1"],
                  capsys)
    manifest = json.loads(out.splitlines()[-1])
    assert manifest["command"] == "bounds"
    assert "network" in manifest["inputs"]
    assert manifest["version"]


# command (None: `import wiretapnc` alone; a string: that module imported)
# -> the package modules it must leave unloaded; only `oracle` and
# `paper-figures` may load numpy, no command loads dataclasses, and only a
# command whose manifest hashes input files loads hashlib
IMPORT_GRAPH = (
    (None, {p.stem for p in Path(wiretapnc.__file__).parent.glob("*.py")} - {"__init__"}),
    ("wiretapnc.serialize", {"netgraph", "securecode", "equivocation", "oracle", "cli"}),
    (["coset", "encode", "--H", "{d}/h.json", "--secret", "[1]"],
     {"netgraph", "securecode", "equivocation", "oracle"}),
    (["coset", "decode", "--H", "{d}/h.json", "--word", "[1, 0]"],
     {"netgraph", "securecode", "equivocation", "oracle"}),
    (["bounds", "--network", "{d}/net.json", "--mu", "1"], {"equivocation", "oracle"}),
    (["build", "--network", "{d}/net.json", "--mu", "1", "--H", "{d}/h.json",
      "--out", "{d}/design.json"], {"equivocation", "oracle"}),
    (["verify", "--design", "{d}/design.json"], {"equivocation", "oracle"}),
    (["sweep", "--design", "{d}/design.json", "--mu-max", "1"], {"oracle"}),
    (["oracle", "--design", "{d}/design.json", "--mu", "1"], set()),
    (["paper-figures"], set()),
)


def test_commands_without_the_oracle_leave_numpy_unloaded(fixtures):
    """Each command, in a fresh process, imports only the modules it runs:
    numpy only for the oracle, never dataclasses, and hashlib only to hash
    the input files its manifest names (unless the interpreter loads it at
    start-up), whose sha256 values the manifest prints."""
    script = """
import importlib, json, sys
import wiretapnc
argv = json.loads(sys.argv[1])
if isinstance(argv, str):
    importlib.import_module(argv)
elif argv is not None:
    import wiretapnc.cli
    wiretapnc.cli.main(argv)
print(json.dumps(sorted(sys.modules)))
"""
    src = Path(wiretapnc.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    bare = subprocess.run([sys.executable, "-c", "import sys; print('hashlib' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120)
    bare_loads_hashlib = bare.stdout.split() != ["False"]
    for argv, unloaded in IMPORT_GRAPH:
        command = [a.format(d=fixtures) for a in argv] if isinstance(argv, list) else None
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(command or argv)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        loaded = set(json.loads(lines[-1]))
        assert not {f"wiretapnc.{m}" for m in unloaded} & loaded, argv
        wants_numpy = command is not None and command[0] in ("oracle", "paper-figures")
        assert ("numpy" in loaded) == wants_numpy, argv
        assert "dataclasses" not in loaded, argv
        hashes = command is not None and command[0] != "paper-figures"
        if not bare_loads_hashlib:
            assert ("hashlib" in loaded) == hashes, argv
        if hashes:
            manifest = next(json.loads(ln) for ln in lines if ln.startswith('{"command": '))
            paths = dict(zip(command, command[1:]))
            assert manifest["inputs"] and manifest["inputs"] == {
                name: hashlib.sha256(Path(paths[f"--{name}"]).read_bytes()).hexdigest()
                for name in manifest["inputs"]}, argv
            # `main` derives the manifest from the parsed command line: its
            # command, and the input files it names, never an --out
            assert manifest["command"] == command[0], argv
            given = {a[2:] for a in command if a in ("--design", "--network", "--H")}
            assert set(manifest["inputs"]) == given, argv


def test_every_public_name_resolves_and_stays_cached():
    for name in wiretapnc.__all__:
        value = getattr(wiretapnc, name)
        home = value.__name__ if inspect.ismodule(value) else value.__module__
        assert home.startswith("wiretapnc."), name
        assert vars(wiretapnc)[name] is value
    with pytest.raises(AttributeError, match="no_such_name"):
        wiretapnc.no_such_name


def test_library_error_exit_code(fixtures, capsys):
    rc, _ = run(["bounds", "--network", fixtures / "net.json", "--mu", "0"],
                capsys)
    assert rc == 1


@pytest.mark.parametrize("mu", [3, 99999999])
def test_bounds_refuses_mu_above_n(fixtures, capsys, mu):
    """Above the butterfly's n = 2 the binomial term is 0 and only t is left,
    which is no sufficient field size: refused as the secrecy check refuses
    it, in one error line; mu = n still gets its bound."""
    assert cli.main(["bounds", "--network", str(fixtures / "net.json"), "--mu", str(mu)]) == 1
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == ("", [f"error: mu={mu} exceeds multicast dimension n=2"])
    rc, out = run(["bounds", "--network", fixtures / "net.json", "--mu", "2"], capsys)
    assert rc == 0 and out.splitlines()[0] == "10"  # choose(9 - 1, 2 - 1) + 2 receivers


@pytest.mark.parametrize("receivers, mu, error", [
    (("D", "F"), 0, "error: mu=0 must be at least 1"),
    ((), 1, "error: the receiver count t=0 must be at least 1"),
])
def test_bounds_refusal_names_the_count_and_its_value(tmp_path, capsys, receivers, mu, error):
    net = butterfly_network(field_new(3))
    net = Network(net.nodes, [(e.id, e.tail, e.head) for e in net.edges], "S",
                  receivers, 2, net.field)
    write_json(tmp_path / "net.json", network_to_json(net))
    assert cli.main(["bounds", "--network", str(tmp_path / "net.json"), "--mu", str(mu)]) == 1
    assert capsys.readouterr().err.splitlines() == [error]


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["bounds", "--network", "{d}/net.json", "--mu", "2"],
    ["coset", "decode", "--H", "{d}/h.json", "--word", "[1, 2]"],
], ids=["bounds", "coset-decode"])
def test_a_closed_stdout_ends_in_exit_1_without_a_traceback(fixtures, argv, unbuffered):
    """As under `| head -1`, stdout is a pipe whose reader has gone: the
    command exits 1 and writes nothing to stderr, whether its output is
    written at once or buffered until the end."""
    src = Path(wiretapnc.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wiretapnc.cli", *(a.format(d=fixtures) for a in argv)],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


# argv ("{d}" is the fixtures directory), extra environment, exit code: each
# bad input ends in exit 1 and one "error:" line; --out into a missing
# directory creates it, --out below a regular file cannot
BAD_INPUTS = {
    "encode-without-secret": (["coset", "encode", "--H", "{d}/h.json"], {}, 1),
    "decode-without-word": (["coset", "decode", "--H", "{d}/h.json"], {}, 1),
    "secret-not-json": (["coset", "encode", "--H", "{d}/h.json", "--secret", "[1,"], {}, 1),
    "secret-out-of-range": (["coset", "encode", "--H", "{d}/h.json", "--secret", "[3]"], {}, 1),
    "malformed-json-file": (["bounds", "--network", "{d}/broken.json", "--mu", "1"], {}, 1),
    "missing-file": (["bounds", "--network", "{d}/absent.json", "--mu", "1"], {}, 1),
    "entry-out-of-range": (["coset", "encode", "--H", "{d}/h_range.json", "--secret", "[1]"],
                           {}, 1),
    "entry-not-integer": (["coset", "encode", "--H", "{d}/h_float.json", "--secret", "[1]"],
                          {}, 1),
    "entry-a-boolean": (["coset", "encode", "--H", "{d}/h_bool.json", "--secret", "[1]"],
                        {}, 1),
    "word-entry-a-boolean": (["coset", "decode", "--H", "{d}/h.json", "--word", "[true, 2]"],
                             {}, 1),
    "field-degree-a-boolean": (["coset", "encode", "--H", "{d}/h_m_bool.json",
                                "--secret", "[1]"], {}, 1),
    "cols-disagree-with-rows": (["coset", "encode", "--H", "{d}/h_cols3.json",
                                 "--secret", "[1]"], {}, 1),
    "cols-negative": (["coset", "encode", "--H", "{d}/h_cols_negative.json",
                       "--secret", "[]"], {}, 1),
    "report-as-design": (["verify", "--design", "{d}/report.json"], {}, 1),
    "global-vector-edited": (["verify", "--design", "{d}/edited_global.json"], {}, 1),
    "global-unknown-edge": (["verify", "--design", "{d}/unknown_global.json"], {}, 1),
    "global-entry-a-boolean": (["verify", "--design", "{d}/bool_global.json"], {}, 1),
    "local-unknown-edge": (["verify", "--design", "{d}/unknown_local.json"], {}, 1),
    "oracle-negative-mu": (["oracle", "--design", "{d}/negative_mu.json", "--mu", "-1"], {}, 1),
    "sweep-negative-mu-max": (["sweep", "--design", "{d}/negative_mu.json", "--mu-max", "-1"],
                              {}, 1),
    "verify-negative-params-mu": (["verify", "--design", "{d}/negative_mu.json"], {}, 1),
    "build-negative-mu": (["build", "--network", "{d}/net.json", "--mu", "-1", "--H",
                           "{d}/h.json", "--out", "{d}/built.json"], {}, 1),
    "build-k-plus-mu-above-n": (["build", "--network", "{d}/net.json", "--mu", "2", "--H",
                                 "{d}/h.json", "--out", "{d}/built.json"], {}, 1),
    "verify-params-disagree-with-H": (["verify", "--design", "{d}/wrong_params.json"], {}, 1),
    "verify-H-narrower-than-network": (["verify", "--design", "{d}/narrow_H.json"], {}, 1),
    "sweep-H-narrower-than-network": (["sweep", "--design", "{d}/narrow_H.json",
                                       "--mu-max", "1"], {}, 1),
    "oracle-H-narrower-than-network": (["oracle", "--design", "{d}/narrow_H.json",
                                        "--mu", "1"], {}, 1),
    "build-H-over-another-field": (["build", "--network", "{d}/net.json", "--mu", "1", "--H",
                                    "{d}/h_gf5.json", "--out", "{d}/built.json"], {}, 1),
    "verify-H-over-another-field": (["verify", "--design", "{d}/gf5_H.json"], {}, 1),
    "bounds-receiver-is-source": (["bounds", "--network", "{d}/receiver_source.json",
                                   "--mu", "1"], {}, 1),
    "build-receiver-is-source": (["build", "--network", "{d}/receiver_source.json", "--mu",
                                  "0", "--H", "{d}/h1.json", "--out", "{d}/built.json"], {}, 1),
    "verify-params-mu-string": (["verify", "--design", "{d}/mu_string.json"], {}, 1),
    "verify-params-mu-float": (["verify", "--design", "{d}/mu_float.json"], {}, 1),
    "verify-params-mu-null": (["verify", "--design", "{d}/mu_null.json"], {}, 1),
    "verify-params-mu-bool": (["verify", "--design", "{d}/mu_bool.json"], {}, 1),
    "verify-restricted-not-edge-ids": (["verify", "--design", "{d}/restricted_nested.json"],
                                       {}, 1),
    "bounds-network-n-float": (["bounds", "--network", "{d}/n_float.json", "--mu", "1"], {}, 1),
    "bounds-duplicate-node": (["bounds", "--network", "{d}/duplicate_node.json", "--mu", "1"],
                              {}, 1),
    "bounds-duplicate-receiver": (["bounds", "--network", "{d}/duplicate_receiver.json",
                                   "--mu", "2"], {}, 1),
    "build-edge-ids-integers": (["build", "--network", "{d}/integer_edges.json", "--mu", "1",
                                 "--H", "{d}/h.json", "--out", "{d}/built.json"], {}, 1),
    "bounds-nodes-a-string": (["bounds", "--network", "{d}/nodes_string.json", "--mu", "1"],
                              {}, 1),
    "bounds-receivers-a-string": (["bounds", "--network", "{d}/receivers_string.json",
                                   "--mu", "1"], {}, 1),
    "decode-H-field-degree-huge": (["coset", "decode", "--H", "{d}/h_m_huge.json",
                                    "--word", "[1, 1]"], {}, 1),
    "bounds-network-n-zero": (["bounds", "--network", "{d}/n_0.json", "--mu", "1"], {}, 1),
    "bounds-network-n-negative": (["bounds", "--network", "{d}/n_-1.json", "--mu", "1"], {}, 1),
    "build-network-n-zero": (["build", "--network", "{d}/n_0.json", "--mu", "1", "--H",
                              "{d}/h.json", "--out", "{d}/built.json"], {}, 1),
    "build-network-n-negative": (["build", "--network", "{d}/n_-1.json", "--mu", "1", "--H",
                                  "{d}/h.json", "--out", "{d}/built.json"], {}, 1),
    "verify-design-n-zero": (["verify", "--design", "{d}/design_n_0.json"], {}, 1),
    "verify-design-n-negative": (["verify", "--design", "{d}/design_n_-1.json"], {}, 1),
    "unknown-command": (["no-such-command"], {}, 1),
    "unknown-option": (["bounds", "--network", "{d}/net.json", "--mu", "1", "--bogus"], {}, 1),
    "missing-required-option": (["bounds", "--network", "{d}/net.json"], {}, 1),
    "mu-not-an-integer": (["bounds", "--network", "{d}/net.json", "--mu", "one"], {}, 1),
    "bounds-mu-twice": (["bounds", "--network", "{d}/net.json", "--mu", "1", "--mu", "2"], {}, 1),
    "build-network-twice": (["build", "--network", "{d}/net.json", "--network",
                             "{d}/net.json", "--mu", "1", "--H", "{d}/h.json", "--out",
                             "{d}/built.json"], {}, 1),
    "out-under-a-file": (["paper-figures", "--out", "{d}/h.json/dir"], {}, 1),
    "out-dir-missing": (["paper-figures", "--out", "{d}/new/dir"], {}, 0),
}
# text the one error line must contain, where a case has one
BAD_INPUT_MESSAGES = {
    "local-unknown-edge": "unknown edge XX",
    "entry-a-boolean": "entry True is not an integer",
    "word-entry-a-boolean": "entry True is not an integer",
    "global-entry-a-boolean": "entry True is not an integer",
    "field-degree-a-boolean": "p and m must be integers, got 3, True",
    "cols-disagree-with-rows": "row lengths [2] but 3 columns",
    "cols-negative": "column count -1 is not a non-negative integer",
    "oracle-negative-mu": "mu=-1",
    "sweep-negative-mu-max": "mu_max=-1",
    "verify-negative-params-mu": "mu=-3",
    "build-negative-mu": "mu=-1",
    "build-k-plus-mu-above-n": "k + mu = 3 exceeds n=2",
    "verify-params-disagree-with-H": "params.k is 7, but H gives k=1",
    "verify-H-narrower-than-network": "H has 2 columns, expected 3",
    "sweep-H-narrower-than-network": "H has 2 columns, expected 3",
    "oracle-H-narrower-than-network": "H has 2 columns, expected 3",
    "build-H-over-another-field": "H is over GF(5), but the network is over GF(3)",
    "verify-H-over-another-field": "H is over GF(5), but the network is over GF(3)",
    "decode-H-field-degree-huge": "order 3^100000000000 exceeds ORDER_CAP = 1048576",
    "bounds-receiver-is-source": "receiver S is the source",
    "build-receiver-is-source": "receiver S is the source",
    "verify-params-mu-string": "params.mu must be an integer, got '1'",
    "verify-params-mu-float": "params.mu must be an integer, got 1.5",
    "verify-params-mu-null": "params.mu must be an integer, got None",
    "verify-params-mu-bool": "params.mu must be an integer, got True",
    "verify-restricted-not-edge-ids": "params.restricted must be a list of edge ids",
    "bounds-network-n-float": "network n must be an integer, got 2.0",
    "bounds-duplicate-node": "duplicate node names ['A']",
    "bounds-duplicate-receiver": "duplicate receivers ['D']",
    "build-edge-ids-integers": "network edge id must be a string, got 0",
    "bounds-nodes-a-string": "network nodes must be a list of strings, got 'SABCDEF'",
    "bounds-receivers-a-string": "network receivers must be a list of strings, got 'DF'",
    "bounds-network-n-zero": "network n must be a positive integer, got 0",
    "bounds-network-n-negative": "network n must be a positive integer, got -1",
    "build-network-n-zero": "network n must be a positive integer, got 0",
    "build-network-n-negative": "network n must be a positive integer, got -1",
    "verify-design-n-zero": "network n must be a positive integer, got 0",
    "verify-design-n-negative": "network n must be a positive integer, got -1",
    "unknown-command": "argument command: invalid choice: 'no-such-command'",
    "unknown-option": "unrecognized arguments: --bogus",
    "missing-required-option": "the following arguments are required: --mu",
    "mu-not-an-integer": "argument --mu: invalid int value: 'one'",
    "bounds-mu-twice": "argument --mu: given more than once",
    "build-network-twice": "argument --network: given more than once",
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_ends_in_one_line_error(fixtures, case):
    (fixtures / "broken.json").write_text('{"nodes": [')
    write_json(fixtures / "h_range.json",
               {"field": {"p": 3, "m": 1}, "rows": [[1, 5]], "cols": 2})
    write_json(fixtures / "h_float.json",
               {"field": {"p": 3, "m": 1}, "rows": [[1.5, 1]], "cols": 2})
    write_json(fixtures / "h_bool.json",
               {"field": {"p": 3, "m": 1}, "rows": [[True, 1]], "cols": 2})
    write_json(fixtures / "h_m_bool.json",
               {"field": {"p": 3, "m": True}, "rows": [[1, 1]], "cols": 2})
    write_json(fixtures / "h_m_huge.json",
               {"field": {"p": 3, "m": 10 ** 11}, "rows": [[1, 1]], "cols": 2})
    write_json(fixtures / "h_cols3.json", {"field": {"p": 3, "m": 1}, "rows": [[1, 1]], "cols": 3})
    write_json(fixtures / "h_cols_negative.json",
               {"field": {"p": 3, "m": 1}, "rows": [], "cols": -1})
    write_json(fixtures / "report.json",
               read_json(cli._golden_dir() / "butterfly_secure.json"))
    f = field_new(3)
    design = design_to_json(SecureDesign(
        CosetCode(FMatrix(f, [[1, 1]])), butterfly_code(f, (1, 2)), 1))
    write_json(fixtures / "wrong_params.json",
               dict(design, params=dict(design["params"], k=7, n=9)))
    h_gf5 = matrix_to_json(FMatrix(field_new(5), [[1, 1]]))
    write_json(fixtures / "h_gf5.json", h_gf5)
    write_json(fixtures / "gf5_H.json", dict(design, H=h_gf5))
    for name, mu in (("string", "1"), ("float", 1.5), ("null", None), ("bool", True)):
        write_json(fixtures / f"mu_{name}.json",
                   dict(design, params=dict(design["params"], mu=mu)))
    write_json(fixtures / "restricted_nested.json",
               dict(design, params=dict(design["params"], restricted=[["SA"]])))
    net = network_to_json(butterfly_network(f))
    write_json(fixtures / "n_float.json", dict(net, n=2.0))
    for n in (0, -1):
        write_json(fixtures / f"n_{n}.json", dict(net, n=n))
        write_json(fixtures / f"design_n_{n}.json", dict(design, network=dict(net, n=n)))
    write_json(fixtures / "duplicate_node.json", dict(net, nodes=net["nodes"] + ["A"]))
    write_json(fixtures / "duplicate_receiver.json", dict(net, receivers=["D", "D", "F"]))
    write_json(fixtures / "integer_edges.json",
               dict(net, edges=[dict(e, id=i) for i, e in enumerate(net["edges"])]))
    write_json(fixtures / "nodes_string.json", dict(net, nodes="".join(net["nodes"])))
    write_json(fixtures / "receivers_string.json", dict(net, receivers="DF"))
    write_json(fixtures / "receiver_source.json",
               dict(network_to_json(parallel_network(1, f)), receivers=["S"]))
    write_json(fixtures / "h1.json", matrix_to_json(FMatrix(f, [[1]])))
    design["code"]["global"]["SA"] = [True, 0]
    write_json(fixtures / "bool_global.json", design)
    design["code"]["global"]["SA"] = [1, 0]
    design["code"]["global"]["BE"] = [0, 0]
    write_json(fixtures / "edited_global.json", design)
    design["code"]["global"] = {"XX": [1, 0]}
    write_json(fixtures / "unknown_global.json", design)
    design["code"]["global"] = {}
    design["code"]["local"]["XX"] = [1, 0]
    write_json(fixtures / "unknown_local.json", design)
    # H's 2 columns on the n = 3 network B(3,4), with params agreeing with H
    b34 = design_to_json(combination_secure_design(3, 4, field_new(7), 1))
    b34["H"] = matrix_to_json(FMatrix(field_new(7), [[1, 1]]))
    write_json(fixtures / "narrow_H.json", dict(b34, params=dict(b34["params"], n=2)))
    # the insecure butterfly with a negative budget
    write_json(fixtures / "negative_mu.json", design_to_json(SecureDesign(
        CosetCode(FMatrix(f, [[1, 1]])), butterfly_code(f, (1, 1)), -3)))
    argv, extra_env, want = BAD_INPUTS[case]
    src = Path(wiretapnc.__file__).resolve().parent.parent
    env = dict(os.environ, **extra_env, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wiretapnc.cli", *(a.format(d=fixtures) for a in argv)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == want, proc.stderr
    assert "Traceback" not in proc.stderr
    if want == 1:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert BAD_INPUT_MESSAGES.get(case, "") in lines[0]
    else:
        assert (fixtures / "new" / "dir" / "butterfly_secure.json").exists()
