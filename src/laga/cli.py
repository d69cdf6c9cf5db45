"""Command-line interface.

Exit codes: 0 success, 1 invariant mismatch in `compare` or a nonzero
Koszul defect in `dual-check`, 2 usage error, 3 computation error
(budget, verification, bad input data).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .balgebra import b_hilbert_table, kappa_profile, koszul_defect
from .errors import ArgumentMismatch, LagaError
from .fields import GF
from .graphs import (
    LayeredGraph,
    are_isomorphic,
    build_boolean,
    build_complete_layered,
    build_subspace_lattice,
    class_partition,
    from_json_dict,
    is_uniform,
    to_dot,
    to_json_dict,
)
from .gralgebra import gr_hilbert_table
from .reconstruct import (
    algebra_view,
    reconstruction_report,
    view_from_json_dict,
    view_to_json_dict,
)


def _read_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _load_graph(path: str) -> LayeredGraph:
    return from_json_dict(_read_json(path))


def _emit(text: str, out: str | None) -> None:
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_max(raw: str) -> tuple[int, int]:
    try:
        m, n = map(int, raw.split(","))
    except ValueError:
        raise ArgumentMismatch(f"--max takes m,n, got {raw!r}") from None
    return m, n


# the parameters of each family `laga build` knows
_BUILD_USAGE = {"boolean": "N", "subspace": "Q N", "complete": "S0,S1,..."}


def _cmd_build(args) -> int:
    usage = _BUILD_USAGE[args.family]
    if len(args.params) != len(usage.split()):
        raise ArgumentMismatch(f"build {args.family} takes {usage}, got {args.params}")
    if args.family == "boolean":
        g = build_boolean(int(args.params[0]))
    elif args.family == "subspace":
        g = build_subspace_lattice(int(args.params[0]), int(args.params[1]))
    else:
        g = build_complete_layered([int(x) for x in args.params[0].split(",")])
    if args.dot:
        _emit(to_dot(g), args.output)
    else:
        _emit(json.dumps(to_json_dict(g), sort_keys=True), args.output)
    return 0


def _cmd_info(args) -> int:
    g = _load_graph(args.graph)
    uniform, witness = is_uniform(g)
    data = {
        "levels": list(g.levels),
        "vertices": sum(g.levels),
        "edges": len(g.edges),
        "unique_minimal": g.unique_minimal,
        "positive_outdegree": g.positive_outdegree,
        "uniform": uniform,
    }
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(f"levels {data['levels']}")
        print(f"vertices {data['vertices']} edges {data['edges']}")
        print(f"unique_minimal {g.unique_minimal} positive_outdegree {g.positive_outdegree}")
        print(f"uniform {uniform}" + ("" if uniform else f" (witness {witness[0]})"))
    return 0


def _cmd_hilbert(args) -> int:
    g = _load_graph(args.graph)
    max_m, max_n = _parse_max(args.max)
    if args.algebra == "B":
        table = b_hilbert_table(g, max_m, max_n)
    else:
        table = gr_hilbert_table(g, max_m, max_n)
    if args.json:
        print(
            json.dumps(
                {
                    "algebra": table.algebra,
                    "entries": sorted([m, n, d] for (m, n), d in table.entries),
                },
                sort_keys=True,
            )
        )
    else:
        print(table.render())
    return 0


def _cmd_kappa(args) -> int:
    g = _load_graph(args.graph)
    profile = kappa_profile(g, args.level)
    if args.json:
        print(json.dumps(profile, sort_keys=True))
    else:
        for row in profile:
            v = row["vertex"]
            print(f"({v[0]},{v[1]}) k={row['k']} out_degree={row['out_degree']}")
    return 0


def _cmd_uniform(args) -> int:
    g = _load_graph(args.graph)
    uniform, witness = is_uniform(g)
    if args.json:
        print(json.dumps({"uniform": uniform}, sort_keys=True))
    elif uniform:
        print("uniform")
    else:
        v, split = witness
        print(f"not uniform: vertex ({v.level},{v.index}) splits successors {split}")
    return 0


# word lengths `dual-check` covers: m = 3 takes 0.05-0.09 s on Boolean 6
# and on the subspace lattice of F_2^4, m = 4 0.35-0.55 s, nearly all of
# it the B table
_DEFECT_MAX_M = 3


def _cmd_dual_check(args) -> int:
    g = _load_graph(args.graph)
    defect = koszul_defect(g, _DEFECT_MAX_M)
    if args.json:
        data = {"max_m": _DEFECT_MAX_M, "defect": [list(c) for c in defect]}
        print(json.dumps(data, sort_keys=True))
    elif defect:
        for m, n, c in defect:
            print(f"(m={m}, n={n}): H_B(s,t) H_grA(-s,t) has coefficient {c}, not 0")
        print("not numerically Koszul")
    else:
        print(f"H_B(s,t) H_grA(-s,t) = 1 through m = {_DEFECT_MAX_M}")
        print("(numerically Koszul; necessary for Koszulity, not a proof of it)")
    return 1 if defect else 0


def _cmd_scramble(args) -> int:
    g = _load_graph(args.graph)
    field = GF(args.field)
    view = algebra_view(g, field, scramble_seed=args.seed)
    envelope = {
        "view": view_to_json_dict(view),
        "source": to_json_dict(g),
    }
    _emit(json.dumps(envelope, sort_keys=True), args.output)
    return 0


def _cmd_reconstruct(args) -> int:
    data = _read_json(args.view)
    envelope = data if isinstance(data, dict) and "view" in data else {"view": data}
    view = view_from_json_dict(envelope["view"])
    reference = (
        from_json_dict(envelope["source"]) if "source" in envelope else None
    )
    report = reconstruction_report(
        view, args.family, n=args.n, q=args.q, reference=reference
    )
    if args.family == "nonnesting" and report["certified"] is None:
        verdict = "UNCERTIFIED (no reference graph supplied)"
    else:
        verdict = "CERTIFIED isomorphic"
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"recovered levels {report['levels']}")
        print(verdict)
    return 0


def _invariants(g: LayeredGraph, max_m: int, max_n: int) -> dict:
    table = b_hilbert_table(g, max_m, max_n)
    out = {
        "level sizes": list(g.levels),
        "bigraded dimensions": sorted([m, n, d] for (m, n), d in table.entries),
    }
    for n in range(2, g.top_level + 1):
        below = g.levels[n - 1]
        verts = g.level_vertices(n)
        k = [class_partition(g, [v]).k for v in verts]
        out[f"level {n} k multiset"] = sorted(k)
        out[f"level {n} out-degree multiset"] = sorted(below - ki + 1 for ki in k)
        sizes = [
            below + class_partition(g, [verts[i], verts[j]]).k - k[i] - k[j] + 1
            for i, j in itertools.combinations(range(len(verts)), 2)
        ]
        out[f"level {n} intersection sizes"] = sorted(sizes)
    return out


def _cmd_compare(args) -> int:
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    max_m, max_n = _parse_max(args.max)
    inv1 = _invariants(g1, max_m, max_n)
    inv2 = _invariants(g2, max_m, max_n)
    keys = sorted(set(inv1) | set(inv2))
    mismatch = False
    rows = []
    for key in keys:
        a, b = inv1.get(key), inv2.get(key)
        same = a == b
        mismatch = mismatch or not same
        rows.append({"invariant": key, "left": a, "right": b, "equal": same})
    iso = are_isomorphic(g1, g2) is not None
    if args.json:
        print(
            json.dumps(
                {"invariants": rows, "all_equal": not mismatch, "isomorphic": iso},
                sort_keys=True,
            )
        )
    else:
        for row in rows:
            mark = "equal" if row["equal"] else "UNEQUAL"
            print(f"{row['invariant']}: {mark}")
            if not row["equal"]:
                print(f"  left  {row['left']}")
                print(f"  right {row['right']}")
        if mismatch:
            print("invariants differ")
        else:
            print("invariants agree (this does not imply the graphs are isomorphic)")
            print(f"note: isomorphism check: {'isomorphic' if iso else 'NOT isomorphic'}")
    return 1 if mismatch else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laga", description="exact algebra workbench for layered graphs"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="build a graph and print its JSON")
    p.add_argument("family", choices=list(_BUILD_USAGE))
    usage = " | ".join(f"{family} {params}" for family, params in _BUILD_USAGE.items())
    p.add_argument("params", nargs="+", help=usage)
    p.add_argument("-o", "--output")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("info", help="summarize a graph")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("hilbert", help="bigraded dimension table")
    p.add_argument("graph")
    p.add_argument("--algebra", choices=["B", "grA"], default="B")
    p.add_argument("--max", default="3,8", help="m,n bounds")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("kappa", help="per-vertex kernel profile at one level")
    p.add_argument("graph")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("uniform", help="uniformity check with witness")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_uniform)

    p = sub.add_parser("dual-check", help="numerical Koszulness through word length 3")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dual_check)

    p = sub.add_parser("scramble", help="algebra view with scrambled coordinates")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--field", type=int, default=3)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_scramble)

    p = sub.add_parser("reconstruct", help="certified reconstruction from a view")
    p.add_argument("view", help="view JSON file or - for stdin")
    p.add_argument("--family", choices=["nonnesting", "boolean", "subspace"], required=True)
    p.add_argument("-n", type=int)
    p.add_argument("-q", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("compare", help="algebra invariants of two graphs side by side")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--max", default="3,8")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LagaError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
