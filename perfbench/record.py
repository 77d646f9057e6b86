"""Record the expected values that the analyze and crosscheck checks use.

    python3 perfbench/record.py

Writes `expected.json`: for every analyze design (in its unchanged basis)
Delta(mu), the secrecy verdict and the cascade verdict at each mu the
operation list uses, and Delta(mu) of each fixed crosscheck instance.
Recording refuses a Delta(mu) that breaks the closed form
k - max(0, mu - (n - k)) or a crosscheck value on which the rank formula and
the oracle disagree.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import gen
import workloads

sys.path.insert(0, str(workloads.SRC))

import wiretapnc  # noqa: E402
import wiretapnc.serialize  # noqa: E402


def record():
    wanted = defaultdict(set)
    for d, kind, mu, _ in workloads.analyze_op_list():
        if kind == "sweep":
            wanted[(d, "rank")].update(range(mu + 1))
        else:
            wanted[(d, kind)].add(mu)
    analyze = {}
    for d, (n, M, k, p) in enumerate(workloads.ANALYZE_DESIGNS):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        design = wiretapnc.serialize.design_from_json(gen.combination_design(n, M, p, k, identity))
        H, code = design.coset.parity_check, design.netcode
        G = wiretapnc.FMatrix(H.field, workloads.cascade_code(n))
        entry = {"delta": {}, "verify": {}, "cascade": {}}
        for mu in sorted(wanted[(d, "rank")]):
            delta = wiretapnc.equivocation_rank(H, code, mu)[0]
            if delta != k - max(0, mu - (n - k)):
                raise SystemExit(f"design {d}: Delta({mu}) = {delta} breaks the closed form")
            entry["delta"][str(mu)] = delta
        for mu in sorted(wanted[(d, "verify")]):
            entry["verify"][str(mu)] = wiretapnc.verify_secrecy_condition(H, code, mu)[0]
        for mu in sorted(wanted[(d, "cascade")]):
            entry["cascade"][str(mu)] = wiretapnc.byzantine_secrecy_check(H, G, code, mu)[0]
        analyze[workloads.design_key(n, M, k, p)] = entry
    crosscheck = {}
    for item in workloads.crosscheck_large_items():
        design = wiretapnc.serialize.design_from_json(item["design"])
        H, code, mu = design.coset.parity_check, design.netcode, item["mu"]
        rank = wiretapnc.equivocation_rank(H, code, mu)[0]
        oracle = wiretapnc.min_equivocation_bruteforce(H, code, mu)[0]
        if rank != oracle:
            raise SystemExit(f"{item['name']}: rank formula {rank} != oracle {oracle}")
        crosscheck[item["name"]] = rank
    return {"analyze": analyze, "crosscheck": crosscheck}


if __name__ == "__main__":
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
