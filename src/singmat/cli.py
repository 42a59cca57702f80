"""Command-line interface.

Subcommands: sample, certify, bounds, sweep, analyze.  Every command is
a thin adapter over the library; nothing numeric happens here.  The
remaining experiments, ``harness.verify_lemma21`` and
``harness.verify_complement``, are run from the library only; no
subcommand wraps them.  Exit
codes: 0 success (or nonsingular), 10 singular, 2 usage or parse
failure, 3 enumeration budget exceeded, 4 internal error (a result
failed its own check: CertificateRejected, KernelLiftFailed,
SelfCheckFailed).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import harness, matio
from .certify import is_singular_exact
from .errors import (
    BudgetExceeded,
    CertificateRejected,
    InfeasibleDensity,
    KernelLiftFailed,
    KernelTooLarge,
    MatrixFormatError,
    SelfCheckFailed,
    SingmatError,
)
from .exactla import kernel_rational
from .models import SampleSpec, sample
from .structure import analyze_vector, enumerate_gf2_kernel_min_support

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_SINGULAR = 10


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singmat",
        description="Singularity of sparse random zero-one matrices: exact "
        "certificates, samplers, bound evaluators, and threshold sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw a random matrix to a file")
    p_sample.add_argument("--model", required=True, choices=["bernoulli", "comb", "combinatorial"])
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--p", type=_fraction, help="entry probability (bernoulli)")
    p_sample.add_argument("--d", type=int, help="ones per row (combinatorial)")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)

    p_cert = sub.add_parser("certify", help="decide singularity with a certificate")
    p_cert.add_argument("--in", dest="infile", required=True)
    p_cert.add_argument("--json", action="store_true", help="emit the certificate as JSON")
    p_cert.add_argument(
        "--prime-seed", type=int, default=0,
        help="seed of the random primes a residue certificate names; never changes the verdict",
    )

    p_bounds = sub.add_parser("bounds", help="evaluate a closed-form bound")
    p_bounds.add_argument(
        "--formula", required=True,
        choices=["p_even", "union_ber", "union_comb", "atom_ber", "atom_comb", "binom_pm"],
    )
    p_bounds.add_argument("--s", type=int)
    p_bounds.add_argument("--p", type=_fraction)
    p_bounds.add_argument("--n", type=int)
    p_bounds.add_argument("--smax", type=int)
    p_bounds.add_argument("--d", type=int)
    p_bounds.add_argument("--q", type=int)
    p_bounds.add_argument("--x", type=_fraction_list, help="vector entries, comma separated")
    p_bounds.add_argument("--pvalues", type=_fraction_list, help="per-s bounds for union_comb")
    p_bounds.add_argument("--modulus", type=int, help="optional modulus for atom_comb")

    p_sweep = sub.add_parser("sweep", help="run a threshold sweep to CSV")
    p_sweep.add_argument("--config", help="JSON config file; flags override its keys")
    p_sweep.add_argument("--model", choices=["bernoulli", "comb", "combinatorial"])
    p_sweep.add_argument("--n-grid", type=_int_list)
    p_sweep.add_argument("--c-grid", type=_fraction_list)
    p_sweep.add_argument("--trials", type=int)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--svg")
    p_sweep.add_argument("--jobs", type=int)

    p_an = sub.add_parser("analyze", help="kernel structure of a matrix file")
    p_an.add_argument("--in", dest="infile", required=True)
    p_an.add_argument("--side", choices=["left", "right"], default="right")
    p_an.add_argument("--max-dim", type=int, default=20)
    return parser


def _canon_model(name: str) -> str:
    return "combinatorial" if name in ("comb", "combinatorial") else "bernoulli"


def cmd_sample(args) -> int:
    model = _canon_model(args.model)
    if model == "bernoulli":
        if args.p is None:
            print("sample: --p is required for the bernoulli model", file=sys.stderr)
            return EXIT_USAGE
        spec = SampleSpec.bernoulli(args.n, args.p, args.seed)
    else:
        if args.d is None:
            print("sample: --d is required for the combinatorial model", file=sys.stderr)
            return EXIT_USAGE
        spec = SampleSpec.combinatorial(args.n, args.d, args.seed)
    matio.write_matrix(sample(spec), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    matrix = matio.read_matrix(args.infile)
    cert = is_singular_exact(matrix, prime_seed=args.prime_seed)
    if args.json:
        print(cert.to_json())
    else:
        print(f"verdict: {cert.verdict}")
        if cert.kernel_vector is not None:
            print(f"kernel vector: {list(cert.kernel_vector)}")
        elif cert.prime is not None:
            print(f"evidence: det = {cert.residue} (mod {cert.prime})")
        else:
            print(f"evidence: det = {cert.det}")
        print(f"decided by: {cert.stats.stage}")
        print(
            f"gf2 rank: {cert.stats.gf2_rank}, primes tried: "
            f"{list(cert.stats.primes_tried)}, elapsed: {cert.stats.elapsed:.4f}s"
        )
    return EXIT_SINGULAR if cert.is_singular else EXIT_OK


def _require(args, names: list[str]) -> bool:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        print(f"bounds --formula {args.formula}: missing {flags}", file=sys.stderr)
        return False
    return True


def _print_fraction(value: Fraction, suffix: str = "") -> None:
    print(f"{value.numerator}/{value.denominator} ({float(value):.12g}){suffix}")


def cmd_bounds(args) -> int:
    f = args.formula
    if f == "p_even":
        if not _require(args, ["s", "p"]):
            return EXIT_USAGE
        _print_fraction(bounds_mod.p_even(args.s, args.p))
    elif f == "union_ber":
        if not _require(args, ["n", "p", "smax"]):
            return EXIT_USAGE
        _print_fraction(bounds_mod.union_bound_ber(args.n, args.p, args.smax))
    elif f == "union_comb":
        if not _require(args, ["n", "q", "smax", "pvalues"]):
            return EXIT_USAGE
        _print_fraction(bounds_mod.union_bound_comb(args.n, args.q, args.smax, args.pvalues))
    elif f == "atom_ber":
        if not _require(args, ["x", "p"]):
            return EXIT_USAGE
        atom = bounds_mod.max_atom_bernoulli(args.x, args.p)
        _print_fraction(atom.max_prob, suffix=f" at a={atom.argmax}")
    elif f == "atom_comb":
        if not _require(args, ["x", "d"]):
            return EXIT_USAGE
        atom = bounds_mod.max_atom_combinatorial(args.x, args.d, modulus=args.modulus)
        _print_fraction(atom.max_prob, suffix=f" at a={atom.argmax}")
    else:  # binom_pm
        if not _require(args, ["n", "p", "d"]):
            return EXIT_USAGE
        _print_fraction(bounds_mod.binomial_point_mass(args.n, args.p, args.d))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg_dict: dict = {}
    if args.config:
        try:
            cfg_dict = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"sweep: cannot read config: {exc}", file=sys.stderr)
            return EXIT_USAGE
    overrides = {
        "model": args.model,
        "n_grid": args.n_grid,
        "c_grid": args.c_grid,
        "trials_per_cell": args.trials,
        "master_seed": args.seed,
        "output": args.out,
        "svg": args.svg,
        "jobs": args.jobs,
    }
    for key, value in overrides.items():
        if value is not None:
            cfg_dict[key] = value
    missing = [k for k in ("model", "n_grid", "c_grid", "trials_per_cell", "master_seed", "output") if k not in cfg_dict]
    if missing:
        print(f"sweep: missing configuration: {', '.join(missing)}", file=sys.stderr)
        return EXIT_USAGE
    cfg_dict["model"] = _canon_model(str(cfg_dict["model"]))
    cfg_dict["c_grid"] = tuple(Fraction(str(c)) for c in cfg_dict["c_grid"])
    cfg_dict["n_grid"] = tuple(int(n) for n in cfg_dict["n_grid"])
    try:
        cfg = harness.SweepConfig(**cfg_dict)
    except (TypeError, ValueError) as exc:
        print(f"sweep: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(cfg.output).resolve().parent
    if not out_dir.is_dir():
        print(f"sweep: output directory {out_dir} does not exist", file=sys.stderr)
        return EXIT_USAGE
    if cfg.svg and not Path(cfg.svg).resolve().parent.is_dir():
        print("sweep: svg output directory does not exist", file=sys.stderr)
        return EXIT_USAGE
    aggregates, _records = harness.run_sweep(cfg)
    print(harness.summary_table(aggregates))
    return EXIT_OK


def cmd_analyze(args) -> int:
    matrix = matio.read_matrix(args.infile)
    if args.side == "left":
        matrix = matrix.transpose()
    report = enumerate_gf2_kernel_min_support(matrix, max_dim=args.max_dim)
    basis = kernel_rational(matrix)
    vectors = []
    for vec in basis:
        doc = analyze_vector(vec).to_json_dict()
        doc["entries"] = [str(e) for e in vec]
        vectors.append(doc)
    out = {
        "side": args.side,
        "gf2": {
            "kernel_dim": report.kernel_dim,
            "trivial": report.trivial,
            "min_support": report.min_support,
            "witness": list(report.witness) if report.witness else None,
        },
        "rational": {"kernel_dim": len(basis), "vectors": vectors},
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sample": cmd_sample,
        "certify": cmd_certify,
        "bounds": cmd_bounds,
        "sweep": cmd_sweep,
        "analyze": cmd_analyze,
    }
    try:
        return handlers[args.command](args)
    except MatrixFormatError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, KernelTooLarge) as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CertificateRejected, KernelLiftFailed, SelfCheckFailed) as exc:
        print(f"{parser.prog}: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (InfeasibleDensity, SingmatError, ValueError) as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
