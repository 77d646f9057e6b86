"""JSON interchange for fields, matrices, networks, codes, and designs.

Field elements serialize as their integer encodings.  All writers use
canonical form (sorted keys, two-space indent, trailing newline) so result
files are byte-stable and diffable.  The parsers that build networks, codes
and designs import their modules when called, so reading a matrix loads none.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .exceptions import BadParameters, MalformedInput, WiretapNCError
from .fmatrix import FMatrix
from .gf import FieldSpec, field_new


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj):
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(canonical_dumps(obj))
    except OSError as exc:
        raise BadParameters(f"cannot write {path}: {exc}") from exc


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise MalformedInput(f"cannot read JSON from {path}: {exc}") from exc


def load_json(path, parse, kind):
    """`parse(read_json(path))`, reporting a missing key or a value of the
    wrong type as MalformedInput naming the file instead of a bare error."""
    obj = read_json(path)
    try:
        return parse(obj)
    except WiretapNCError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise MalformedInput(f"{path} is not a valid {kind}: {reason}") from exc


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def field_to_json(f: FieldSpec):
    return {"p": f.p, "m": f.m}


def field_from_json(obj) -> FieldSpec:
    return field_new(obj["p"], obj.get("m", 1))


def matrix_to_json(M: FMatrix):
    return {
        "field": field_to_json(M.field),
        "rows": [list(r) for r in M.data],
        "cols": M.cols,
    }


def matrix_from_json(obj) -> FMatrix:
    f = field_from_json(obj["field"])
    return FMatrix(f, obj["rows"], obj.get("cols"))


def network_to_json(net: Network):
    return {
        "nodes": list(net.nodes),
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in net.edges],
        "source": net.source,
        "receivers": list(net.receivers),
        "n": net.n,
        "field": field_to_json(net.field),
    }


def _integer(value, name):
    """`value`, if it is a JSON integer (not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInput(f"{name} must be an integer, got {value!r}")
    return value


def _string(value, name):
    """`value`, if it is a JSON string."""
    if not isinstance(value, str):
        raise MalformedInput(f"{name} must be a string, got {value!r}")
    return value


def _strings(value, name):
    """`value`, if it is a JSON list of strings."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise MalformedInput(f"{name} must be a list of strings, got {value!r}")
    return value


def network_from_json(obj) -> Network:
    """The network in obj; refuses an n below 1, which no receiver can decode."""
    from .netgraph import Network
    n = _integer(obj["n"], "network n")
    if n < 1:
        raise MalformedInput(f"network n must be a positive integer, got {n}")
    return Network(
        nodes=_strings(obj["nodes"], "network nodes"),
        edges=[(_string(e["id"], "network edge id"), _string(e["tail"], "network edge tail"),
                _string(e["head"], "network edge head")) for e in obj["edges"]],
        source=_string(obj["source"], "network source"),
        receivers=_strings(obj["receivers"], "network receivers"),
        n=n,
        field=field_from_json(obj["field"]),
    )


def code_to_json(code: NetworkCode):
    return {
        "local": {eid: list(c) for eid, c in sorted(code.local.items())},
        "global": {eid: list(v) for eid, v in sorted(code.global_vectors.items())},
    }


def code_from_json(net: Network, obj) -> NetworkCode:
    """Rebuild a code from its local coefficients.  Each stored global vector
    must name an edge of `net` and equal the recomputed one; an empty or
    absent "global" map is not checked."""
    from .netgraph import NetworkCode
    code = NetworkCode(net)
    for eid, coeffs in obj["local"].items():
        code.set_local(eid, coeffs)
    code.propagate()
    for eid, vec in (obj.get("global") or {}).items():
        if eid not in code.global_vectors:
            raise MalformedInput(f"stored global vector names unknown edge {eid}")
        if [net.field.check(x) for x in vec] != list(code.global_vectors[eid]):
            raise MalformedInput(
                f"stored global vector of edge {eid} is {list(vec)}, "
                f"but its local coefficients give {list(code.global_vectors[eid])}"
            )
    return code


def design_to_json(design: SecureDesign):
    return {
        "network": network_to_json(design.netcode.network),
        "code": code_to_json(design.netcode),
        "H": matrix_to_json(design.coset.parity_check),
        "params": {
            "mu": design.mu,
            "k": design.coset.k,
            "n": design.coset.n,
            "restricted": list(design.restricted_edges) if design.restricted_edges else None,
        },
        "certificate": design.certificate,
    }


def design_from_json(obj) -> SecureDesign:
    """The design in obj.  Refuses a params.k or params.n other than H's
    shape, and what `securecode.admit_wiretap` refuses of H at mu = 0."""
    from .coset import CosetCode
    from .securecode import SecureDesign, admit_wiretap
    net = network_from_json(obj["network"])
    code = code_from_json(net, obj["code"])
    H = matrix_from_json(obj["H"])
    p = obj["params"]
    mu, k, n = (_integer(p[name], f"params.{name}") for name in ("mu", "k", "n"))
    for name, value, actual in (("k", k, H.rows), ("n", n, H.cols)):
        if value != actual:
            raise MalformedInput(f"params.{name} is {value}, but H gives {name}={actual}")
    admit_wiretap(H, code, 0)
    restricted = p.get("restricted")
    if restricted is not None and not (
            isinstance(restricted, list) and all(isinstance(e, str) for e in restricted)):
        raise MalformedInput(
            f"params.restricted must be a list of edge ids, got {restricted!r}")
    return SecureDesign(CosetCode(H), code, mu, tuple(restricted) if restricted else None,
                        obj.get("certificate", {}))
