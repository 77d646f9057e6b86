"""Mutated input files and mutated argv, run in-process through `cli.main`.

A file case takes a valid design, network or H file, deletes one key or
list item or replaces one value with a value of another kind, and runs a
command on it; the file cases are a seeded sample.  An argv case takes a
valid command line and drops an option, repeats one, gives one a value of
another kind, adds an unknown option or drops the sub-command; every such
case runs.  Whatever the mutation, the command ends in exit 0, 1 or 2 and
never raises; on exit 1 stderr is exactly one `error: ` line.  A time limit
per case turns a hang into a failure.
"""

import copy
import json
import random
import signal

import pytest

from wiretapnc import cli
from wiretapnc.fmatrix import FMatrix
from wiretapnc.gf import field_new
from wiretapnc.netgraph import butterfly_network
from wiretapnc.securecode import secure_lif
from wiretapnc.serialize import design_to_json, matrix_to_json, network_to_json, write_json

DELETE = object()
REPLACEMENTS = [DELETE, None, True, 1.5, "x", [], {}, -1, 10 ** 30]
CASES_PER_KIND = 100
SECONDS_PER_CASE = 10

# the commands that read each kind of file ("{file}" the mutated file, "{d}"
# the directory of the valid files), taken in turn
COMMANDS = {
    "design": [["verify", "--design", "{file}"],
               ["sweep", "--design", "{file}", "--mu-max", "1"],
               ["oracle", "--design", "{file}", "--mu", "1"]],
    "network": [["bounds", "--network", "{file}", "--mu", "1"],
                ["build", "--network", "{file}", "--mu", "1", "--H", "{d}/h.json",
                 "--out", "{d}/built.json"]],
    "H": [["coset", "decode", "--H", "{file}", "--word", "[1, 1]"],
          ["coset", "encode", "--H", "{file}", "--secret", "[1]"],
          ["build", "--network", "{d}/net.json", "--mu", "1", "--H", "{file}",
           "--out", "{d}/built.json"]],
}


def valid_files():
    f = field_new(3)
    net, H = butterfly_network(f), FMatrix(f, [[1, 1]])
    return {"design": design_to_json(secure_lif(net, net.n, 1, H)),
            "network": network_to_json(net), "H": matrix_to_json(H)}


def sites(obj, path=()):
    """The path of every key and list item below obj, parents first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from sites(value, path + (key,))


def mutated(obj, path, replacement):
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return obj


def corpus(kind, seed=20090720):
    """Up to CASES_PER_KIND distinct (site, replacement) pairs, a seeded
    sample: every pair of the small H file, a sample of the larger ones."""
    pairs = [(path, r) for path in sites(valid_files()[kind]) for r in REPLACEMENTS]
    return random.Random(seed).sample(pairs, min(CASES_PER_KIND, len(pairs)))


class CaseTimedOut(Exception):
    pass


def _timed_out(signum, frame):
    raise CaseTimedOut(f"no exit within {SECONDS_PER_CASE} s")


def run_case(case, argv, capsys):
    """Run argv under the time limit and check how it ends."""
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(SECONDS_PER_CASE)
    try:
        rc = cli.main(argv)
    except Exception as exc:  # any escape is the failure
        pytest.fail(f"{case}: {argv} raised {exc!r}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), case
    if rc == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (case, err)
    return rc


@pytest.mark.parametrize("kind", COMMANDS)
def test_mutated_file_ends_in_an_exit_code(kind, tmp_path, capsys):
    files = valid_files()
    write_json(tmp_path / "net.json", files["network"])
    write_json(tmp_path / "h.json", files["H"])
    for i, (path, replacement) in enumerate(corpus(kind)):
        name = "deleted" if replacement is DELETE else json.dumps(replacement)
        target = tmp_path / f"mutated_{kind}.json"
        write_json(target, mutated(files[kind], path, replacement))
        argv = [a.format(file=target, d=tmp_path)
                for a in COMMANDS[kind][i % len(COMMANDS[kind])]]
        run_case(f"{kind} {list(path)} -> {name}", argv, capsys)


# a valid command line per command: the sub-command words, then its options
# with their values ("{d}" the directory of the valid files)
ARGV = {
    "paper-figures": (["paper-figures"], [["--out", "{d}/figures"]]),
    "build": (["build"], [["--network", "{d}/net.json"], ["--mu", "1"], ["--H", "{d}/h.json"],
                          ["--out", "{d}/built.json"]]),
    "verify": (["verify"], [["--design", "{d}/design.json"], ["--restricted", "SA,SC"]]),
    "sweep": (["sweep"], [["--design", "{d}/design.json"], ["--mu-max", "1"]]),
    "oracle": (["oracle"], [["--design", "{d}/design.json"], ["--mu", "1"]]),
    "bounds": (["bounds"], [["--network", "{d}/net.json"], ["--mu", "1"]]),
    "coset encode": (["coset", "encode"], [["--H", "{d}/h.json"], ["--secret", "[1]"],
                                           ["--seed", "3"]]),
    "coset decode": (["coset", "decode"], [["--H", "{d}/h.json"], ["--word", "[1, 1]"]]),
}
# the one option of a command that it runs without
OPTIONAL = {"paper-figures": "--out", "verify": "--restricted", "coset encode": "--seed"}
# values of another kind for any option: a word, a float, a negative
# number, a JSON list and the empty string
OTHER_VALUES = ["x", "1.5", "-1", "[1, 2]", ""]


def argv_corpus(command):
    """(case, argv) for every mutation of the command's valid line."""
    words, options = ARGV[command]
    flat = [a for option in options for a in option]
    yield "valid", words + flat
    for i, (flag, value) in enumerate(options):
        rest = [a for option in options[:i] + options[i + 1:] for a in option]
        yield f"without {flag}", words + rest
        yield f"{flag} twice", words + flat + [flag, value]
        for other in OTHER_VALUES:
            yield f"{flag} {other!r}", words + rest + [flag, other]
    yield "an unknown option", words + flat + ["--no-such-option", "1"]
    for j in range(len(words)):
        yield f"without {words[j]!r}", words[:j] + words[j + 1:] + flat


@pytest.mark.parametrize("command", ARGV)
def test_mutated_argv_ends_in_an_exit_code(command, tmp_path, capsys, monkeypatch):
    files = valid_files()
    write_json(tmp_path / "net.json", files["network"])
    write_json(tmp_path / "h.json", files["H"])
    write_json(tmp_path / "design.json", files["design"])
    monkeypatch.chdir(tmp_path)  # a relative --out value lands here
    codes = {}
    for case, argv in argv_corpus(command):
        codes[case] = run_case(f"{command}: {case}", [a.format(d=tmp_path) for a in argv],
                               capsys)
    # the valid line runs; an unknown option, a dropped sub-command, every
    # dropped option the command needs and every option given twice are refused
    assert codes["valid"] == 0
    assert codes["an unknown option"] == 1
    words, options = ARGV[command]
    assert all(codes[f"without {w!r}"] == 1 for w in words)
    assert all(codes[f"without {flag}"] == (0 if flag == OPTIONAL.get(command) else 1)
               for flag, _ in options)
    assert all(codes[f"{flag} twice"] == 1 for flag, _ in options)
