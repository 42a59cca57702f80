"""Command-line interface.

Subcommands: sample, certify, bounds, sweep, analyze.  Every command is
a thin adapter over the library: nothing numeric happens here, and no
rule about a config's values (``sweep`` reads JSON and overlays flags;
``harness.SweepConfig`` checks the result, and ``harness.run_sweep``
refuses an unusable ``--out`` before the first trial).  ``sweep`` writes
``--out`` and its ``.trials.csv`` companion, one column per field of
``CellAggregate`` and ``TrialRecord``.  ``harness.verify_lemma21`` and
``harness.verify_complement`` run from the library only.  Exit codes:
0 success (or nonsingular), 10 singular; a failure is a
``SingmatError`` whose ``exit_code`` ``main`` returns, and
``singmat.errors`` is the one table of those codes (2 usage or input,
3 budget exceeded, 4 internal error).  An unreadable file exits 2; any
other exception is a bug and propagates.
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
from .errors import InvalidInput, SelfCheckFailed, SingmatError
from .exactla import kernel_rational
from .models import SampleSpec, sample
from .structure import analyze_vector, enumerate_gf2_kernel_min_support

EXIT_OK = 0
EXIT_INTERNAL = SelfCheckFailed.exit_code
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
    p_sweep.add_argument("--jobs", type=int)

    p_an = sub.add_parser("analyze", help="kernel structure of a matrix file")
    p_an.add_argument("--in", dest="infile", required=True)
    p_an.add_argument("--side", choices=["left", "right"], default="right")
    p_an.add_argument("--max-dim", type=int, default=20)
    return parser


def _canon_model(name):
    """Resolve the ``comb`` alias; any other value passes through."""
    return "combinatorial" if name == "comb" else name


def cmd_sample(args) -> int:
    model = _canon_model(args.model)
    if model == "bernoulli":
        if args.p is None:
            raise InvalidInput("sample: --p is required for the bernoulli model")
        spec = SampleSpec.bernoulli(args.n, args.p, args.seed)
    else:
        if args.d is None:
            raise InvalidInput("sample: --d is required for the combinatorial model")
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
        else:
            print(f"evidence: det = {cert.residue} (mod {cert.prime})")
        print(f"decided by: {cert.stats.stage}")
        print(
            f"gf2 rank: {cert.stats.gf2_rank}, primes tried: "
            f"{list(cert.stats.primes_tried)}, elapsed: {cert.stats.elapsed:.4f}s"
        )
    return EXIT_SINGULAR if cert.is_singular else EXIT_OK


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise InvalidInput(f"bounds --formula {args.formula}: missing {flags}")


def _print_fraction(value: Fraction, suffix: str = "") -> None:
    print(f"{value.numerator}/{value.denominator} ({float(value):.12g}){suffix}")


def cmd_bounds(args) -> int:
    f = args.formula
    if f == "p_even":
        _require(args, ["s", "p"])
        _print_fraction(bounds_mod.p_even(args.s, args.p))
    elif f == "union_ber":
        _require(args, ["n", "p", "smax"])
        _print_fraction(bounds_mod.union_bound_ber(args.n, args.p, args.smax))
    elif f == "union_comb":
        _require(args, ["n", "q", "smax", "pvalues"])
        _print_fraction(bounds_mod.union_bound_comb(args.n, args.q, args.smax, args.pvalues))
    elif f == "atom_ber":
        _require(args, ["x", "p"])
        atom = bounds_mod.max_atom_bernoulli(args.x, args.p)
        _print_fraction(atom.max_prob, suffix=f" at a={atom.argmax}")
    elif f == "atom_comb":
        _require(args, ["x", "d"])
        atom = bounds_mod.max_atom_combinatorial(args.x, args.d, modulus=args.modulus)
        _print_fraction(atom.max_prob, suffix=f" at a={atom.argmax}")
    else:  # binom_pm
        _require(args, ["n", "p", "d"])
        _print_fraction(bounds_mod.binomial_point_mass(args.n, args.p, args.d))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg_dict: dict = {}
    if args.config:
        try:
            cfg_dict = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
            raise InvalidInput(f"sweep: cannot read config: {exc}") from None
        if not isinstance(cfg_dict, dict):
            raise InvalidInput("sweep: config must be a JSON object")
    overrides = {
        "model": args.model,
        "n_grid": args.n_grid,
        "c_grid": args.c_grid,
        "trials_per_cell": args.trials,
        "master_seed": args.seed,
        "output": args.out,
        "jobs": args.jobs,
    }
    for key, value in overrides.items():
        if value is not None:
            cfg_dict[key] = value
    missing = [k for k in ("model", "n_grid", "c_grid", "trials_per_cell", "master_seed", "output") if k not in cfg_dict]
    if missing:
        raise InvalidInput(f"sweep: missing configuration: {', '.join(missing)}")
    cfg_dict["model"] = _canon_model(cfg_dict["model"])
    try:
        cfg = harness.SweepConfig(**cfg_dict)
    except TypeError as exc:  # a key SweepConfig does not have
        raise InvalidInput(f"sweep: invalid configuration: {exc}") from None
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
    except SingmatError as exc:
        prefix = "internal error: " if exc.exit_code == EXIT_INTERNAL else ""
        print(f"{parser.prog}: {prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return SingmatError.exit_code


if __name__ == "__main__":
    sys.exit(main())
