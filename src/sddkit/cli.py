"""Command-line front end.

Subcommands
-----------
inspect    classify a matrix file and print norms and dominance stats
limit      limit matrix of (S + t*P)^{-1} for a graph file, three routes
detbounds  determinant factorization and determinant/adjugate bounds
verify     randomized suite for one inequality family, optional CSV
mle        degree-sequence recovery experiment, optional CSV
explore    seeded random search over a conjectured inequality

Exit codes: 0 all checks passed, 1 a bound was violated or a solver failed,
2 usage or file errors.  Runs are replayable: identical arguments, seeds,
and input files produce identical stdout and CSV bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import sys

import numpy as np

from . import bounds as bnd
from . import retina as ret
from .matcore import EigenConvergenceError, SingularMatrixError, _cond_inf, inf_norm, load_matrix
from .sform import SForm, sform_inf_norm_inverse
from .graphlimit import (
    BipartiteComponent,
    analyze_bipartition,
    limit_closed_form,
    limit_inf_norm,
    limit_numeric,
    limit_u_route,
    load_graph,
)


def _fmt(x: float) -> str:
    return format(x, ".12g")


# Rows per block: the scratch space is O(_PRINT_ROWS * n) plus one string
# per distinct token of the matrix.  Blocks of 16 to 64 rows print an
# 800 x 800 limit within 10% of the same time; smaller blocks leave less
# freed memory behind in a long-running process.
_PRINT_ROWS = 32


def _print_matrix(entries: np.ndarray) -> None:
    """One line per row of ``_fmt`` tokens, formatting each distinct value
    once per block of rows and, where the matrix is symmetric, each mirrored
    pair once.

    Values are keyed on their bit pattern, not compared as floats, so -0.0
    keeps its ``-0`` token.  Rows go in blocks of ``_PRINT_ROWS``.  An entry
    left of its block's diagonal block whose bits equal its mirror's takes
    the mirror's token, which an earlier block placed.  Each block formats
    the distinct keys among its other entries, those on and right of its
    diagonal block and any left of it that differ from their mirror (a -0
    facing a +0, say).
    """
    a = np.ascontiguousarray(entries, dtype=np.float64)
    n = a.shape[0]
    bits = a.view(np.int64)
    interned = {}
    # strips[b]: tokens of the printed rows in block b's columns, one piece
    # per block of rows.  A strip is dropped once block b has printed, so at
    # most about n^2/4 references wait at a time.
    strips = [[] for _ in range(0, n, _PRINT_ROWS)]
    for b, start in enumerate(range(0, n, _PRINT_ROWS)):
        block = bits[start:start + _PRINT_ROWS]
        stop = start + block.shape[0]
        right = block[:, start:]
        odd = block[:, :start] != bits[:start, start:stop].T
        keys, inverse = np.unique(np.concatenate((right.ravel(), block[:, :start][odd])),
                                  return_inverse=True)
        # Values that differ past 12 digits share a token, and then one
        # string: the t=1e8 matrix of perfbench's seed-277 limit pass has
        # 101k keys but 34k tokens.
        tokens = np.array([interned.setdefault(t, t)
                           for t in map(_fmt, keys.view(np.float64).tolist())], dtype=object)
        found = tokens[inverse]
        rows = np.empty(block.shape, dtype=object)
        rows[:, start:] = found[:right.size].reshape(right.shape)
        if start:
            left = rows[:, :start]
            left[...] = np.concatenate(strips[b]).T
            left[odd] = found[right.size:]
        strips[b] = None
        for c in range(b + 1, len(strips)):
            strips[c].append(rows[:, c * _PRINT_ROWS:(c + 1) * _PRINT_ROWS].copy())
        # Lists, not object-array rows: str.join reads a list directly.
        for row in rows.tolist():
            sys.stdout.write(" ".join(row) + "\n")


def _parse_sform(text: str) -> SForm:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'n,alpha,ell', got {text!r}")
    return SForm(int(parts[0]), float(parts[1]), float(parts[2]))


def _split_pair(text: str, name: str) -> list[str]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected '{name}' as 'a,b', got {text!r}")
    return parts


def _params_str(params: dict) -> str:
    return ";".join(f"{k}={_fmt(v) if isinstance(v, float) else v}"
                    for k, v in sorted(params.items()))


def _seed(args) -> int:
    """``--seed``, rejected when negative."""
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _open_csv(path):
    """The ``--csv`` file, opened before any trial runs so that a path that
    cannot be written fails first; without one, a context that gives None."""
    return open(path, "w", newline="", encoding="utf-8") if path else contextlib.nullcontext()


def _write_csv(fh, header: list[str], rows) -> None:
    """``header``, then each of ``rows``, into the ``--csv`` file ``fh``;
    nothing, and ``rows`` is not iterated, when ``fh`` is None."""
    if fh is not None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _exact(*xs: float) -> list[str]:
    """Each value to 17 significant digits, which round-trips a float."""
    return [format(x, ".17g") for x in xs]


def _print_report(r: bnd.BoundReport) -> None:
    if not r.applicable:
        print(f"{r.name}: inapplicable ({r.context.get('reason', '?')})")
        return
    status = "holds" if r.holds else "VIOLATED"
    vac = " [vacuous]" if r.vacuous else ""
    print(f"{r.name}: lhs={_fmt(r.lhs)} rhs={_fmt(r.rhs)} "
          f"slack={_fmt(r.slack)} {status}{vac}")


def cmd_inspect(args) -> int:
    J = load_matrix(args.matrix)
    rep = J.dominance
    print(f"matrix: {args.matrix} (n={J.n})")
    kinds = []
    if rep.is_balanced:
        kinds.append("balanced")
    if rep.is_strictly_dominant:
        kinds.append("strictly dominant")
    elif rep.is_dominant:
        kinds.append("dominant")
    if not kinds:
        kinds.append("not diagonally dominant")
    print("classification: " + ", ".join(kinds))
    print("deltas: " + " ".join(_fmt(v) for v in rep.deltas))
    if rep.min_offdiag is None:
        print("off-diagonal: none (n=1)")
    else:
        print(f"ell_hat={_fmt(rep.min_offdiag)} m_hat={_fmt(rep.max_offdiag)} "
              f"delta_hat={_fmt(rep.max_delta)}")
    print(f"inf_norm={_fmt(inf_norm(J))}")
    try:
        inv_norm = J.inv_inf_norm
    except SingularMatrixError as exc:
        print(f"inverse: FAILED ({exc})")
        return 1
    print(f"inv_inf_norm={_fmt(inv_norm)}")
    print(f"cond_inf={_fmt(_cond_inf(J))}")
    _print_report(bnd.varah_bound(J))
    return 0


def cmd_limit(args) -> int:
    S = _parse_sform(args.sform)
    G = load_graph(args.graph)
    # Before the graph is analysed: a header may claim far more vertices
    # than the file lists edges.
    if G.n != S.n:
        raise ValueError(f"dimension mismatch: sform n={S.n}, graph n={G.n}")
    B = analyze_bipartition(G)
    # The limit is computed before any output, so a rejected input prints
    # only its error line.
    if args.t is not None:
        mode = f"numeric t={_fmt(args.t)}"
        N = limit_numeric(S, G, args.t)
    elif args.u_route:
        mode = "u-route"
        N = limit_u_route(S, B)
    else:
        mode = "closed-form"
        N = limit_closed_form(S, B)
    print(f"sform: n={S.n} alpha={_fmt(S.alpha)} ell={_fmt(S.ell)}")
    print(f"graph: {G.n} vertices, {G.num_edges} edges")
    comps = []
    for c in B.components:
        if isinstance(c, BipartiteComponent):
            comps.append(f"bipartite(p={c.p},q={c.q})")
        else:
            comps.append(f"non-bipartite({len(c.vertices)})")
    print(f"bipartition: r={B.r} s={B.s} gamma={_fmt(B.gamma)} d={_fmt(B.d)} "
          f"[{', '.join(comps)}]")
    print(f"mode: {mode}")
    _print_matrix(N.entries)
    print(f"inf_norm={_fmt(inf_norm(N))}")
    print(f"limit_inf_norm={_fmt(limit_inf_norm(S, B))}")
    print(f"sform_inv_inf_norm={_fmt(sform_inf_norm_inverse(S))}")
    return 0


def cmd_detbounds(args) -> int:
    for name in ("ell", "m"):
        value = getattr(args, name)
        if value is not None and not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    J = load_matrix(args.matrix)
    # det_ratio_lu rejects a non-positive diagonal entry: before the
    # elimination divides by it, and before any output.
    ratio_lu = bnd.det_ratio_lu(J)
    factors, ratio = bnd.block_det_ratio(J)
    print(f"matrix: {args.matrix} (n={J.n})")
    print("factors: " + " ".join(_fmt(f) for f in factors))
    print(f"det_ratio={_fmt(ratio)}")
    print(f"det_ratio_lu={_fmt(ratio_lu)}")
    reports = [bnd.det_lower_bound(J, args.ell, args.m)]
    if J.dominance.is_balanced:
        reports.append(bnd.det_upper_bound_balanced(J, args.ell, args.m))
        reports.append(bnd.adjugate_bound(J, args.ell, args.m))
    reports.append(bnd.hadamard_sanity(J))
    failed = False
    for r in reports:
        _print_report(r)
        if r.applicable and not r.holds:
            failed = True
    return 1 if failed else 0


def cmd_verify(args) -> int:
    n_range = tuple(map(int, _split_pair(args.n_range, "--n-range")))
    seed = _seed(args)
    with _open_csv(args.csv) as fh:
        records = bnd.verify_suite(args.suite, n_range, args.trials, seed)
        _write_csv(fh, ["suite", "trial", "n", "params", "lhs", "rhs", "slack",
                        "holds", "vacuous"],
                   ([rec.suite, rec.trial, rec.n, _params_str(rec.params),
                     *_exact(rec.report.lhs, rec.report.rhs, rec.report.slack),
                     int(rec.report.holds), int(rec.report.vacuous)] for rec in records))
    applicable = [r for r in records if r.report.applicable]
    violated = [r for r in applicable if not r.report.holds]
    vacuous = sum(1 for r in applicable if r.report.vacuous)
    slacks = [r.report.slack for r in applicable if not r.report.vacuous]
    print(f"suite={args.suite} trials={args.trials} n_range={n_range[0]},{n_range[1]} "
          f"seed={args.seed}")
    print(f"reports={len(records)} applicable={len(applicable)} "
          f"violations={len(violated)} vacuous={vacuous}")
    if slacks:
        print(f"min_slack={_fmt(min(slacks))}")
    for r in violated:
        print(f"VIOLATED trial={r.trial} n={r.n} params={_params_str(r.params)} "
              f"lhs={_fmt(r.report.lhs)} rhs={_fmt(r.report.rhs)}")
    return 1 if violated else 0


def cmd_mle(args) -> int:
    theta_range = tuple(map(float, _split_pair(args.theta_range, "--theta-range")))
    seed = _seed(args)
    with _open_csv(args.csv) as fh:
        trials, summary = ret.consistency_experiment(
            args.n, args.k, args.trials, theta_range, seed)
        _write_csv(fh, ["trial", "n", "err_inf", "bound", "within_bound",
                        "residual_inf", "iterations", "converged"],
                   ([t, summary.n, *_exact(r.err_inf, r.bound), int(r.within_bound),
                     *_exact(r.residual_inf), r.iterations, int(r.converged)]
                    for t, r in enumerate(trials)))
    print(f"n={summary.n} k={_fmt(summary.k)} trials={summary.trials} seed={args.seed}")
    print(f"converged={summary.converged} within_bound={summary.within} "
          f"fraction={_fmt(summary.fraction_within)} target={_fmt(summary.target)}")
    print(f"median_err={_fmt(summary.median_err)} bound={_fmt(summary.bound)}")
    failed = summary.converged < summary.trials or not summary.meets_target
    print("result: " + ("FAIL" if failed else "ok"))
    return 1 if failed else 0


def cmd_explore(args) -> int:
    mode = args.conjecture.replace("-", "_")
    seed = _seed(args)
    with _open_csv(args.csv) as fh:
        records = bnd.conjecture_search(mode, args.trials, seed)
        _write_csv(fh, ["trial", "n", "params", "lhs", "rhs", "slack", "violation"],
                   ([rec.trial, rec.n, _params_str(rec.params),
                     *_exact(rec.report.lhs, rec.report.rhs, rec.report.slack),
                     int(not rec.report.holds)] for rec in records))
    findings = [rec for rec in records if not rec.report.holds]
    print(f"conjecture={args.conjecture} trials={args.trials} seed={args.seed}")
    print(f"min_slack={_fmt(min(rec.report.slack for rec in records))} "
          f"violations={len(findings)}")
    for rec in findings[:20]:
        r = rec.report
        print(f"FINDING trial={rec.trial} n={rec.n} params={_params_str(rec.params)} "
              f"lhs={_fmt(r.lhs)} rhs={_fmt(r.rhs)} slack={_fmt(r.slack)}")
    # A violation is a finding about the conjecture, not a failed check.
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sddkit", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("inspect", help="classify a matrix file")
    sp.add_argument("--matrix", required=True)
    sp.set_defaults(func=cmd_inspect)

    sp = sub.add_parser("limit", help="limit matrix for a graph file")
    sp.add_argument("--sform", required=True, metavar="n,alpha,ell")
    sp.add_argument("--graph", required=True)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--t", type=float, default=None,
                   help="finite-t numeric inverse instead of the limit")
    g.add_argument("--closed-form", action="store_true",
                   help="closed-form limit (default)")
    g.add_argument("--u-route", action="store_true",
                   help="limit via the column-basis route")
    sp.set_defaults(func=cmd_limit)

    sp = sub.add_parser("detbounds", help="determinant bounds for a matrix file")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--ell", type=float, default=None)
    sp.add_argument("--m", type=float, default=None)
    sp.set_defaults(func=cmd_detbounds)

    sp = sub.add_parser("verify", help="randomized inequality suite")
    sp.add_argument("--suite", required=True, choices=list(bnd.SUITES))
    sp.add_argument("--n-range", default="3,12", metavar="a,b")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("mle", help="degree-sequence recovery experiment")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=float, default=2.0)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--theta-range", default="0.5,2.0", metavar="a,b")
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_mle)

    sp = sub.add_parser("explore", help="seeded search over a conjecture")
    sp.add_argument("--conjecture", required=True,
                    choices=["lower-norm", "det-upper"])
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=cmd_explore)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use: parsing leaves it
    unchanged, so one serves every call in the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrixError, bnd.SingularBlockError, EigenConvergenceError) as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
