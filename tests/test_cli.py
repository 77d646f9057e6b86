import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wiretapnc
from wiretapnc import cli
from wiretapnc.coset import CosetCode
from wiretapnc.fmatrix import FMatrix
from wiretapnc.gf import field_new
from wiretapnc.netgraph import butterfly_code, butterfly_network
from wiretapnc.securecode import SecureDesign, SecurityParams
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


def test_design_roundtrip(gf3):
    code = butterfly_code(gf3, (1, 2))
    design = SecureDesign(
        CosetCode(FMatrix(gf3, [[1, 1]])), code,
        SecurityParams(mu=1, k=1, n=2), {"verified": True},
    )
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


def test_build_is_deterministic(fixtures, capsys):
    a, b = fixtures / "a.json", fixtures / "b.json"
    for path in (a, b):
        rc, _ = run(["build", "--network", fixtures / "net.json", "--mu", "1",
                     "--H", fixtures / "h.json", "--out", path], capsys)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    # the output file carries no manifest (timings would break determinism)
    assert "elapsed" not in a.read_text()


def test_verify_failure_exit_code(fixtures, capsys, gf3):
    code = butterfly_code(gf3, (1, 1))
    design = SecureDesign(
        CosetCode(FMatrix(gf3, [[1, 1]])), code,
        SecurityParams(mu=1, k=1, n=2), {},
    )
    path = fixtures / "bad.json"
    write_json(path, design_to_json(design))
    rc, out = run(["verify", "--design", path], capsys)
    assert rc == 2
    assert "witness: BE" in out


def test_coset_encode_decode(fixtures, capsys):
    rc, out = run(["coset", "encode", "--H", fixtures / "h.json",
                   "--secret", "[1]", "--seed", "3"], capsys)
    assert rc == 0
    word = json.loads(out.splitlines()[0])
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


def test_paper_figures_golden(capsys, tmp_path):
    rc, out = run(["paper-figures", "--out", tmp_path], capsys)
    assert rc == 0
    report = read_json(tmp_path / "butterfly_secure.json")
    assert report["delta_mu1"] == 1 and report["oracle_delta_mu1"] == 1
    manifest = json.loads(out.splitlines()[-1])
    assert manifest["summary"]["golden_ok"]


def test_paper_figures_detects_tampering(capsys, tmp_path, monkeypatch):
    golden = cli._golden_dir()
    for name in cli.GOLDEN_NAMES:
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


def test_library_error_exit_code(fixtures, capsys):
    rc, _ = run(["bounds", "--network", fixtures / "net.json", "--mu", "0"],
                capsys)
    assert rc == 1


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
    "report-as-design": (["verify", "--design", "{d}/report.json"], {}, 1),
    "global-vector-edited": (["verify", "--design", "{d}/edited_global.json"], {}, 1),
    "global-unknown-edge": (["verify", "--design", "{d}/unknown_global.json"], {}, 1),
    "enum-cap-not-integer": (["paper-figures"], {"WIRETAP_NC_ENUM_CAP": "lots"}, 1),
    "out-under-a-file": (["paper-figures", "--out", "{d}/h.json/dir"], {}, 1),
    "out-dir-missing": (["paper-figures", "--out", "{d}/new/dir"], {}, 0),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_ends_in_one_line_error(fixtures, case):
    (fixtures / "broken.json").write_text('{"nodes": [')
    write_json(fixtures / "h_range.json",
               {"field": {"p": 3, "m": 1}, "rows": [[1, 5]], "cols": 2})
    write_json(fixtures / "report.json",
               read_json(cli._golden_dir() / "butterfly_secure.json"))
    f = field_new(3)
    design = design_to_json(SecureDesign(
        CosetCode(FMatrix(f, [[1, 1]])), butterfly_code(f, (1, 2)),
        SecurityParams(mu=1, k=1, n=2)))
    design["code"]["global"]["BE"] = [0, 0]
    write_json(fixtures / "edited_global.json", design)
    design["code"]["global"] = {"XX": [1, 0]}
    write_json(fixtures / "unknown_global.json", design)
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
    else:
        assert (fixtures / "new" / "dir" / "butterfly_secure.json").exists()
