"""Command-line entry point.

Subcommands
    check      axiom suite, A_J properties, gauge Lie algebra
    localize   fiber decomposition, derived section records, bundle bookkeeping
    fluctuate  inner fluctuations for a perturbation spec
    toric-scan norm grid over a sphere base with stratum labels

Exit codes: 0 all checks passed, 1 some check failed, 2 bad input (an
argument the parser rejects, a negative seed, a ``--tol`` that is not a
finite non-negative number, or an ``--out`` path that cannot be written,
among others; one ``error:`` line on stderr), 3 a program
fault, which is any unexpected exception (out of memory, a failed SVD, a bug).
JSON reports follow schema/report.schema.json; csv output renders the
check records (or, for toric-scan, the norm profile rows).  In every command
``--tol`` is applied once, by :meth:`~ncgauge.reporting.Report.override_tolerance`,
after the records are built at their rungs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .gauge import (
    _fluctuation,
    covariance_residual,
    from_unitary,
    doubled_fluctuation,
    fluctuate,
    gauge_lie_algebra,
    gauge_matrix,
    gauge_transform_field,
    random_perturbation,
)
from .linalg import TOL_DERIVED, adjoint, op_norm
from .localize import (
    conjugation_bound,
    group_bundle_dims,
    localize,
    omega_bundle,
)
from .models import BadModelSpec, _parse_kv, load_model, take_int, take_seed
from .parsing import ParseError, parse_sphere
from .reporting import SCOPE_EXACT, CheckRecord, Report, rows_to_csv
from .spectral import (OneForm, RealSpectralTriple, aj_or_closure_failure, check_axioms,
                       verify_aj_properties)
from .staralg import random_unitary
from .torus import BadParameters, ModeMismatch, NotOnTorus, rational_mode
from .toric import jump_record, norm_profile, stratum_scan

_RECORD_COLUMNS = ["name", "residual", "tolerance", "passed", "scope", "statement"]


class _Parser(argparse.ArgumentParser):
    """Raises :class:`BadModelSpec` on bad arguments, so ``main`` prints them as one line.

    The subcommand parsers are built from this class too; ``--help`` still
    prints and exits 0.
    """

    def error(self, message):
        raise BadModelSpec(message)


@functools.cache  # built once per process: parsing does not change the parser
def _parser() -> argparse.ArgumentParser:
    top = _Parser(prog="ncgauge",
                  description="verification reports for finite gauge theories from spectral data")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, default_format="json"):
        p.add_argument("--out", help="write the main output to this path")
        p.add_argument("--seed", type=int, default=0, help="seed for all sampling")
        p.add_argument("--tol", type=float, default=None,
                       help="hold every record to this tolerance, except the fixed ones: "
                            "integer identities, failed closures and the toric jump band")
        p.add_argument("--format", choices=("json", "csv"), default=default_format)

    p = sub.add_parser("check", help="axioms, A_J, gauge Lie algebra")
    p.add_argument("model", help="preset like hs:N=2 or ym:k=2,N=2, or a config path")
    common(p)

    p = sub.add_parser("localize", help="fiber decomposition and bundle checks")
    p.add_argument("model")
    common(p)

    p = sub.add_parser("fluctuate", help="inner fluctuation checks")
    p.add_argument("model")
    p.add_argument("perturbation", nargs="?", default="pure",
                   help="zero | pure[:seed=N] | random[:terms=N,seed=N]")
    common(p)

    p = sub.add_parser("toric-scan", help="norm profile over a sphere base")
    p.add_argument("sphere", choices=("s3", "s4"))
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("h", type=float)
    p.add_argument("--poly", default="a + b",
                   help="sphere polynomial in a, ad, b, bd (s4 also x)")
    common(p, default_format="csv")
    return top


def _require_triple(model, spec: str) -> RealSpectralTriple:
    if isinstance(model, RealSpectralTriple):
        return model
    raise BadModelSpec(f"{spec!r} has no Dirac data; this command needs a triple")


def _frame(args, **extra: str) -> Report:
    """A model command's empty report.

    The title is the command over the model and the ``extra`` arguments; the
    context holds the model, the extra arguments, the seed and ``--tol``.
    """
    return Report(f"{args.command}[{';'.join([args.model, *extra.values()])}]",
                  context={"model": args.model, **extra, "seed": args.seed,
                           "tol_override": args.tol})


def cmd_check(args) -> tuple[Report, None]:
    model = load_model(args.model, default_seed=args.seed)
    rep = _frame(args)
    if isinstance(model, tuple):
        algebra, sub = model
        rep.extend(sub)
        rep.context["algebra_dim"] = algebra.dim
        rep.context.update(sub.context)
        return rep, None
    triple = model
    rep.extend(check_axioms(triple))
    aj = verify_aj_properties(triple)
    rep.extend(aj)
    if "closure_error" in aj.context:
        # A_J is not a *-algebra, so the gauge Lie algebra is undefined
        rep.context["closure_error"] = aj.context["closure_error"]
        return rep, None
    g = gauge_lie_algebra(triple)
    rep.extend(g.report)
    rep.context["gauge"] = g.report.context
    return rep, None


def cmd_localize(args) -> tuple[Report, None]:
    triple = _require_triple(load_model(args.model, default_seed=args.seed), args.model)
    rep = _frame(args)
    if aj_or_closure_failure(triple, rep) is None:
        return rep, None  # no base to localize over: A_J is not a *-algebra
    dec = localize(triple)
    rep.context["localization"] = dec.report.context
    rep.extend(dec.report)
    rep.add(conjugation_bound(dec))

    ob = omega_bundle(dec)
    rep.extend(ob)
    rep.context["omega_bundle"] = ob.context
    rows, gb = group_bundle_dims(dec)
    rep.extend(gb)
    rep.context["group_bundle"] = gb.context
    return rep, None


def _pure_gauge_report(rep: Report, triple: RealSpectralTriple, seed: int) -> None:
    u = random_unitary(triple.algebra, seed=seed)
    pert = from_unitary(triple, u)
    # the field and its fluctuation unchecked: field-self-adjoint records the failure
    omega = OneForm(triple, pert.terms)
    rep.add(CheckRecord.from_residual(
        "field-self-adjoint", "the pure gauge field u[D, u*] is self-adjoint",
        omega.self_adjoint_residual(), TOL_DERIVED, SCOPE_EXACT))
    d_omega = _fluctuation(triple, omega.matrix)
    big_u = gauge_matrix(triple, u)
    rep.add(CheckRecord.from_residual(
        "pure-gauge-identity", "fluctuating by u[D, u*] conjugates D by the gauge "
        "unitary of u",
        op_norm(d_omega - big_u @ triple.dirac @ adjoint(big_u)), TOL_DERIVED, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "doubled-form", "the doubled two-sided action reproduces the fluctuation",
        op_norm(doubled_fluctuation(triple, pert) - d_omega), TOL_DERIVED, SCOPE_EXACT))


def _random_pert_report(rep: Report, triple: RealSpectralTriple, terms: int, seed: int) -> None:
    pert = random_perturbation(triple, n_terms=terms, seed=seed)
    rep.add(CheckRecord.from_residual(
        "normalization", "the perturbation terms sum to the unit",
        pert.normalization_residual(), TOL_DERIVED, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "flip-self-adjoint", "the left-right operator of the perturbation is "
        "flip-invariant",
        pert.flip_residual(), TOL_DERIVED, SCOPE_EXACT))
    omega = OneForm(triple, pert.terms)  # unchecked, as in _pure_gauge_report
    rep.add(CheckRecord.from_residual(
        "field-self-adjoint", "the associated gauge field is self-adjoint",
        omega.self_adjoint_residual(), TOL_DERIVED, SCOPE_EXACT))
    rep.add(CheckRecord.from_residual(
        "doubled-form", "the doubled two-sided action reproduces the fluctuation",
        op_norm(doubled_fluctuation(triple, pert) - _fluctuation(triple, omega.matrix)),
        TOL_DERIVED, SCOPE_EXACT))
    u = random_unitary(triple.algebra, seed=seed + 1)
    new_bg, new_rel = gauge_transform_field(triple, OneForm.zero(triple), omega, u)
    rep.add(CheckRecord.from_residual(
        "gauge-covariance", "transforming background and field by u conjugates the "
        "fluctuation (residual relative to max(1, its norm))",
        covariance_residual(triple, u, omega, new_bg + new_rel), TOL_DERIVED, SCOPE_EXACT))


def cmd_fluctuate(args) -> tuple[Report, None]:
    triple = _require_triple(load_model(args.model, default_seed=args.seed), args.model)
    head, _, tail = args.perturbation.partition(":")
    head = head.strip().lower()
    params = _parse_kv(tail)
    rep = _frame(args, perturbation=args.perturbation)
    if head == "zero":
        d_omega = fluctuate(triple, OneForm.zero(triple))
        rep.add(CheckRecord.from_residual(
            "zero-field", "the zero field leaves D unchanged",
            op_norm(d_omega - triple.dirac), TOL_DERIVED, SCOPE_EXACT))
    elif head == "pure":
        _pure_gauge_report(rep, triple, take_seed(params, args.seed))
    elif head == "random":
        terms = take_int(params, "terms", default=2)
        if terms < 1:
            raise BadModelSpec(f"parameter 'terms' must be at least 1, got {terms}")
        _random_pert_report(rep, triple, terms, take_seed(params, args.seed))
    else:
        raise BadModelSpec(f"unknown perturbation spec {head!r} "
                           "(known: zero, pure, random)")
    if params:
        raise BadModelSpec(f"unknown perturbation parameters: {', '.join(sorted(params))}")
    return rep, None


def cmd_toric_scan(args) -> tuple[Report, list[dict]]:
    poly = parse_sphere(args.poly, rational_mode(args.p, args.q))
    rows, stats = norm_profile(poly, args.h, args.p, args.q, which=args.sphere)
    rep = Report(f"toric-scan[{args.sphere},p={args.p},q={args.q},h={args.h}]",
                 context={"poly": args.poly, "stats": stats,
                          "tol_override": args.tol})
    scan = stratum_scan(args.p, args.q, which=args.sphere)
    rep.extend(scan)
    rep.context["strata"] = scan.context
    rep.add(jump_record("profile-jump-halving", stats))
    return rep, rows


def _render(args, rep: Report, rows) -> str:
    if args.format == "json":
        if rows is not None:
            rep.context["rows"] = rows
        return rep.to_json() + "\n"
    if rows is not None:
        return rows_to_csv(rows, list(rows[0]))
    return rows_to_csv([r.to_dict() for r in rep.records], _RECORD_COLUMNS)


def main(argv=None) -> int:
    handlers = {"check": cmd_check, "localize": cmd_localize,
                "fluctuate": cmd_fluctuate, "toric-scan": cmd_toric_scan}
    try:
        args = _parser().parse_args(argv)
        if args.seed < 0:
            raise BadModelSpec(f"--seed must be non-negative, got {args.seed}")
        if args.tol is not None and not 0 <= args.tol < math.inf:  # nan fails the comparison
            raise BadModelSpec(f"--tol must be a finite non-negative number, got {args.tol}")
        rep, rows = handlers[args.command](args)
        if args.tol is not None:
            rep.override_tolerance(args.tol)
        text = _render(args, rep, rows)
    except (BadModelSpec, ParseError, BadParameters, ModeMismatch, NotOnTorus) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other exception is a program fault, never a failed check
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
        print(str(rep), file=sys.stderr)
    else:
        sys.stdout.write(text)
        if args.format == "csv":
            print(str(rep), file=sys.stderr)
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
