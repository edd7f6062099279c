"""Command-line front end.

Commands: build-tree, matrix, classify, perturb, stability-run,
counterexample. Exit codes: 0 ok, 1 I/O, 2 validation, 3 size guard.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import perturb, stability
from .distances import Guards, metric_from_string, tree_distance
from .errors import SizeGuardError, ValidationError
from .field import dump_field, field_to_dict, load_field
from .mergetree import (
    bdt_to_dict,
    build_bdt,
    build_obdt,
    merge_tree_of,
    persistence_branch_decomposition,
    tree_to_dict,
)
from .pool import map_in_order


def _guards(args) -> Guards:
    return Guards(
        mapping_nodes=args.mapping_guard,
        deform_edges=args.deform_guard,
        branch_edges=args.branch_guard,
    )


def _add_guard_flags(p):
    p.add_argument("--mapping-guard", type=int, default=Guards().mapping_nodes,
                   help="node limit for the exact g search")
    p.add_argument("--deform-guard", type=int, default=Guards().deform_edges,
                   help="edge limit for the e enumeration")
    p.add_argument("--branch-guard", type=int, default=Guards().branch_edges,
                   help="edge limit for the b enumeration")


def cmd_build_tree(args) -> int:
    f = load_field(args.field)
    tree = merge_tree_of(f)
    bd = persistence_branch_decomposition(tree)
    out = {
        "abstract": tree_to_dict(tree),
        "bdt": bdt_to_dict(build_bdt(bd)),
        "obdt": bdt_to_dict(build_obdt(bd)),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def matrix_to_csv(names, values) -> str:
    """The member names, then one row of values per member; a name holding a
    comma or a quote is quoted, as the csv module does."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for row in values:
        writer.writerow(["" if v is None else format(v, ".9g") for v in row])
    return out.getvalue()


def matrix_from_csv(text: str):
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    names = rows[0]
    values = [[None if cell == "" else float(cell) for cell in row] for row in rows[1:]]
    return names, values


def _load_member(path):
    """The merge tree of one `matrix` member, or the error line of a file
    that is no valid field or gives no valid tree. Only the tree leaves the
    process: it carries no memo, whose keys are the builder functions."""
    try:
        return merge_tree_of(load_field(path))
    except ValidationError as exc:
        return f"{path}: {exc}"


def cmd_matrix(args) -> int:
    metric = metric_from_string(args.metric)
    guards = _guards(args)
    files = sorted(
        os.path.join(args.dir, name)
        for name in os.listdir(args.dir)
        if name.endswith(".json")
    )
    if len(files) < 2:
        print(f"error: need at least 2 field files in {args.dir}", file=sys.stderr)
        return 1
    trees = map_in_order(_load_member, files)
    errors = [t for t in trees if isinstance(t, str)]
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    names = [os.path.basename(path) for path in files]
    n = len(trees)
    values = [[0.0 if i == j else None for j in range(n)] for i in range(n)]
    status = [["ok" if i == j else "pending" for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def cell(pair):
        """(distance, "ok"), or (None, "guard-skipped") when a size guard
        refuses the pair."""
        try:
            return tree_distance(metric, trees[pair[0]], trees[pair[1]], guards), "ok"
        except SizeGuardError:
            return None, "guard-skipped"

    cells = map_in_order(cell, pairs)
    for (i, j), (d, st) in zip(pairs, cells):
        values[i][j] = values[j][i] = d
        status[i][j] = status[j][i] = st
    csv_text = matrix_to_csv(names, values)
    payload = {
        "metric": metric.value,
        "members": names,
        "values": values,
        "status": status,
    }
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if any("guard-skipped" in row for row in status):
        return 3
    return 0


def cmd_classify(args) -> int:
    fa = load_field(args.field_a)
    fb = load_field(args.field_b)
    info = perturb.classify_change_detailed(fa, fb)
    t1, t2 = merge_tree_of(fa), merge_tree_of(fb)
    evidence = {
        "class": info.change_class.value,
        "perturbed_vertex": info.perturbation.vertex,
        "swap_partner": info.perturbation.swap_partner,
        "extent": info.perturbation.extent,
        "tree_included": info.tree_included,
        "obdt_included": info.obdt_included,
        "bdt_included": info.bdt_included,
        "tree_nodes": [t1.node_count(), t2.node_count()],
        "tree_edges": [t1.edge_count(), t2.edge_count()],
        "bdt_nodes": [build_bdt(persistence_branch_decomposition(t)).node_count()
                      for t in (t1, t2)],
    }
    print(json.dumps(evidence, indent=2, sort_keys=True))
    return 0


def cmd_perturb(args) -> int:
    f = load_field(args.field)
    candidates = perturb.enumerate_minimal_perturbations(f, args.vertex)
    out = [
        {
            "vertex": p.vertex,
            "old_value": p.old_value,
            "new_value": p.new_value,
            "extent": p.extent,
            "swap_partner": p.swap_partner,
            "direction": p.direction,
        }
        for p in candidates
    ]
    if args.apply is not None:
        if not 0 <= args.apply < len(candidates):
            raise ValidationError(f"--apply must be in 0..{len(candidates) - 1}")
        chosen = candidates[args.apply]
        f2 = perturb.apply_perturbation(f, chosen)
        if args.out:
            dump_field(f2, args.out)
        else:
            print(json.dumps(field_to_dict(f2), indent=2, sort_keys=True))
        return 0
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_stability_run(args) -> int:
    metrics = tuple(metric_from_string(s) for s in args.metrics.split(","))
    guards = _guards(args)
    if args.mode == "finite":
        report = stability.run_finite_stability(
            args.seed, args.trials, args.grid, args.eps, metrics, guards
        )
        payload = report.to_dict()
        ok = report.all_pass()
    else:
        report = stability.run_stability_suite(
            args.seed, args.trials, args.grid, metrics, guards
        )
        payload = report.to_dict()
        ok = report.all_claimed_pass()
        print(report.summary_table(), file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if ok else 1


def cmd_counterexample(args) -> int:
    family = stability.CounterexampleFamily(args.family)
    t1, t2 = stability.counterexample(family, args.x, args.eps)
    out = {
        "family": family.value,
        "x": args.x,
        "eps": args.eps,
        "tree_a": tree_to_dict(t1),
        "tree_b": tree_to_dict(t2),
    }
    if args.fields:
        fa, fb = stability.counterexample_fields(family, args.x, args.eps)
        out["field_a"] = field_to_dict(fa)
        out["field_b"] = field_to_dict(fb)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mtstab",
        description="Merge tree edit distances and their perturbation stability.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-tree", help="merge tree, BDT and ordered BDT of a field")
    p.add_argument("field")
    p.set_defaults(func=cmd_build_tree)

    p = sub.add_parser("matrix", help="pairwise distance matrix over a directory of fields")
    p.add_argument("dir")
    p.add_argument("--metric", required=True, help="one of w x s l g p e b")
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    _add_guard_flags(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("classify", help="classify the perturbation between two fields")
    p.add_argument("--field-a", required=True)
    p.add_argument("--field-b", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("perturb", help="list or apply minimal perturbations of a vertex")
    p.add_argument("--field", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--apply", type=int, help="apply the i-th candidate")
    p.add_argument("--out")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("stability-run", help="randomized stability suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--grid", type=int, default=4)
    p.add_argument("--metrics", default="e,p,l,w")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--mode", choices=("minimal", "finite"), default="minimal")
    p.add_argument("--out")
    _add_guard_flags(p)
    p.set_defaults(func=cmd_stability_run)

    p = sub.add_parser("counterexample", help="regenerate an instability family")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in stability.CounterexampleFamily])
    p.add_argument("--x", type=float, default=10.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--fields", action="store_true", help="include field realizations")
    p.set_defaults(func=cmd_counterexample)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
