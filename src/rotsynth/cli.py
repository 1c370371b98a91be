"""Command-line interface.

Every stochastic command takes --seed (default 137137) and produces
byte-identical output for identical arguments.  Angles are radians
throughout.  Exit codes: 0 success, 1 runtime failure, 2 argument error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import factories, ladder, noise, study, synthesis
from .ladder import ALL_FAMILIES, Family
from .seeding import DEFAULT_SEED, derive_rng


def _parse_family(text: str) -> Family:
    name = text.strip().lower()
    try:
        return Family(name)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown family {name!r}; choose from h,psi0,psi1,psi2") from None


def _parse_families(text: str) -> tuple[Family, ...]:
    names = [t.strip().lower() for t in text.split(",") if t.strip()]
    if not names:
        raise argparse.ArgumentTypeError("at least one family is required")
    if names == ["all"]:
        return ALL_FAMILIES
    return tuple(_parse_family(n) for n in names)


def _int_at_least(minimum: int, what: str, maximum: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
# the log-log fits need two samples, the decay fit three levels
_fit_samples = _int_at_least(2, "at least 2")
_fit_levels = _int_at_least(3, "at least 3", ladder.MAX_LEVEL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotsynth",
        description="Z-rotation synthesis from distilled resource-state ladders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("angles", help="print ladder rotation angles")
    p.add_argument(
        "--family",
        type=_parse_families,
        default="all",
        dest="families",
        help="comma-separated h, psi0, psi1, psi2, or all",
    )
    p.add_argument("--max", type=int, default=8, dest="max_level", help="highest level")

    p = sub.add_parser("climb", help="simulate ladder climbs and compare to the exact expectation")
    p.add_argument("--family", type=_parse_family, default="h", help="h, psi0, psi1 or psi2")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--trials", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("factory", help="factory closed forms, sampled success rate, code check")
    p.add_argument("--kind", required=True, choices=sorted(f.value for f in ladder.FACTORY_TRIALS))
    p.add_argument("--trials", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("synth", help="synthesize one Z-rotation")
    p.add_argument("--target", type=float, required=True, help="rotation angle in radians")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--families", type=_parse_families, default=(Family.H,))
    p.add_argument("--trials", type=_positive_int, default=1, help="average costs over repeated runs")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("min-online", help="synthesize via offline-prepared ancillas")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--families", type=_parse_families, default=ALL_FAMILIES)
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("scaling", help="random-target cost-scaling study with log-log fits")
    p.add_argument("--scheme", required=True, choices=study.SCHEMES)
    p.add_argument("--trials", type=_fit_samples, default=2000)
    p.add_argument("--eps-min", type=float, default=study.DEFAULT_EPS_RANGE[0])
    p.add_argument("--eps-max", type=float, default=study.DEFAULT_EPS_RANGE[1])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="write samples (csv) or fit summary (json)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("noise", help="noisy-resource propagation and decay fit")
    p.add_argument("--model", required=True, choices=("a", "b", "c"))
    p.add_argument("--strength", type=float, required=True)
    p.add_argument("--levels", type=_fit_levels, default=16)
    p.add_argument("--instances", type=_positive_int, default=200)
    p.add_argument("--fit-from", type=int, default=None, help="first level of the fit window")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="write per-level means and the fit as json")

    p = sub.add_parser("compare-sk", help="crossovers against the stored reference fit lines")
    p.add_argument("--out", help="write the comparison table as json")

    return parser


def _cmd_angles(args: argparse.Namespace) -> int:
    ladder.checked_level(args.max_level, "--max")
    header = "level " + " ".join(f"{f.value:>22s}" for f in args.families)
    print(header)
    for lvl in range(args.max_level + 1):
        cells = " ".join(f"{ladder.rotation_angle(f, lvl):22.15e}" for f in args.families)
        print(f"{lvl:5d} {cells}")
    return 0


def _cmd_climb(args: argparse.Namespace) -> int:
    ladder.checked_level(args.level, "--level")
    family = args.family
    expected = ladder.expected_climb_cost(family, args.level)
    total = 0.0
    total_sq = 0.0
    for i in range(args.trials):
        cost = ladder.simulate_climb(family, args.level, derive_rng(args.seed, "climb", i))
        total += cost
        total_sq += cost * cost
    mean = total / args.trials
    var = max(total_sq / args.trials - mean * mean, 0.0)
    stderr = (var / args.trials) ** 0.5
    print(f"family {family.value} level {args.level} trials {args.trials}")
    print(f"expected cost (exact) {expected:.6f}")
    print(f"simulated mean cost   {mean:.6f} +- {stderr:.6f}")
    return 0


def _cmd_factory(args: argparse.Namespace) -> int:
    kind = Family(args.kind)
    h_per_trial, success_prob = ladder.FACTORY_TRIALS[kind]
    report = factories.verify_factory_against_code(kind)
    prob = report.circuit_prob
    successes = sum(
        1 for i in range(args.trials) if derive_rng(args.seed, "factory", i).random() < prob
    )
    print(f"factory {kind.value}")
    print(f"success probability   closed form {success_prob:.12f}")
    print(f"                      circuit     {prob:.12f}")
    print(f"                      sampled     {successes / args.trials:.6f} ({args.trials} trials)")
    print(f"inputs per trial      {h_per_trial}")
    print(f"average cost          {ladder.base_average_cost(kind):.6f}")
    print(f"output state angle    {ladder.base_state_angle(kind):.12f}")
    print(f"code check            {'ok' if report.ok else report.failure_reason()}")
    return 0 if report.ok else 1


def _run_repeated(fn, args: argparse.Namespace, label: str) -> int:
    ons, offs = [], []
    last = None
    for i in range(args.trials):
        last = fn(derive_rng(args.seed, label, i))
        ons.append(last.online_cost)
        offs.append(last.offline_cost)
    n = args.trials
    print(f"target {args.target!r} eps {args.eps!r} trials {n}")
    if n == 1:
        print(f"online cost  {last.online_cost}")
        print(f"offline cost {last.offline_cost!r}")
        print(f"residual     {last.residual!r}")
        print(f"free quarter-turn corrections {last.clifford_corrections}")
        if last.applied:
            seq = " ".join(f"{f.value}:{lvl}{'+' if s > 0 else '-'}" for f, lvl, s in last.applied)
            print(f"applied      {seq}")
    else:
        print(f"mean online  {sum(ons) / n!r}")
        print(f"mean offline {sum(offs) / n!r}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = synthesis.SynthesisConfig(epsilon=args.eps, families=args.families)
    return _run_repeated(
        lambda rng: synthesis.synthesize(args.target, config, rng), args, "synth"
    )


def _cmd_min_online(args: argparse.Namespace) -> int:
    config = synthesis.SynthesisConfig(epsilon=args.eps, families=args.families)
    return _run_repeated(
        lambda rng: synthesis.min_online_synthesize(args.target, args.eps, config, rng),
        args,
        "min-online",
    )


def _cmd_scaling(args: argparse.Namespace) -> int:
    samples, fit_on, fit_off = study.run_scaling_study(
        args.scheme,
        args.trials,
        (args.eps_min, args.eps_max),
        seed=args.seed,
    )
    print(f"scheme {args.scheme} samples {args.trials} seed {args.seed}")
    print(f"online  fit: ln C = {fit_on.intercept:+.4f} + {fit_on.slope:.4f} lnln(1/eps)")
    print(f"offline fit: ln C = {fit_off.intercept:+.4f} + {fit_off.slope:.4f} lnln(1/eps)")
    if args.out:
        if args.format == "csv":
            study.export_samples_csv(samples, args.out)
        else:
            study.export_json(
                study.fits_summary(
                    args.scheme, fit_on, fit_off, args.seed, (args.eps_min, args.eps_max)
                ),
                args.out,
            )
        print(f"wrote {args.out}")
    return 0


def _cmd_noise(args: argparse.Namespace) -> int:
    model = noise.NoiseModel(args.model, args.strength)
    points = noise.decay_study(model, args.levels, args.instances, args.seed)
    # levels L - L//3 .. L (11..16 of 16, 6..9 of 9), but at least the top three
    default_from = min(args.levels - args.levels // 3, args.levels - 2)
    fit_from = args.fit_from if args.fit_from is not None else default_from
    window = [(lvl, d) for lvl, d in points if lvl >= fit_from]
    fit = noise.fit_exponential_decay(window)
    print(f"model {args.model} strength {args.strength!r} instances {args.instances}")
    print("level  mean distance")
    for lvl, d in points:
        print(f"{lvl:5d}  {d:.6e}")
    print(
        f"fit over levels {fit.fit_range[0]}..{fit.fit_range[1]}: "
        f"{fit.prefactor:.4e} * {fit.base:.4f}^(-level)"
    )
    if args.out:
        study.export_json(
            {
                "model": args.model,
                "strength": args.strength,
                "instances": args.instances,
                "seed": args.seed,
                "means": [{"level": lvl, "distance": d} for lvl, d in points],
                "fit": asdict(fit),
            },
            args.out,
        )
        print(f"wrote {args.out}")
    return 0


def _cmd_compare_sk(args: argparse.Namespace) -> int:
    table = study.comparison_table()
    for name, value in sorted(table["crossovers"].items()):
        print(f"{name:35s} eps = {value:.4e}")
    if args.out:
        study.export_json(table, args.out)
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "angles": _cmd_angles,
    "climb": _cmd_climb,
    "factory": _cmd_factory,
    "synth": _cmd_synth,
    "min-online": _cmd_min_online,
    "scaling": _cmd_scaling,
    "noise": _cmd_noise,
    "compare-sk": _cmd_compare_sk,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
