"""Command-line surface: fit, eval, and experiment subcommands.

Exit codes: 0 on success, 2 on usage or configuration errors, 3 on
numeric failure (diverged solver).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import datasets, extraction, losses, solver
from .documents import load_json
from .dual_field import ProblemVariant
from .errors import ConfigError, DivergenceError, DomainError
from .experiments import EXPERIMENT_IDS, run_experiment
from .kernels import KernelSpec
from .losses import Loss
from .models import DiscreteModel
from .solver import SolverConfig

LOSS_NAMES = {"quad": "quadratic_eps", "abs": "absolute_eps", "hinge": "hinge_eps"}


def _parse_variant(text: str) -> ProblemVariant:
    if text == "full":
        return ProblemVariant.full()
    kind, _, value = text.partition("=")
    try:
        if kind == "fixed-width":
            return ProblemVariant.fixed_width(float(value))
        if kind == "fixed-centers":
            with warnings.catch_warnings():
                # an empty file warns here; ProblemVariant refuses its empty list
                warnings.simplefilter("ignore", UserWarning)
                centers = np.loadtxt(value, delimiter=",", ndmin=2)
            return ProblemVariant.fixed_centers(centers)
    except ValueError as exc:
        raise ConfigError(f"bad --variant {text!r}: {exc}") from None
    raise ConfigError(
        f"bad --variant {text!r}; use full, fixed-width=W, or fixed-centers=FILE"
    )


def _load_config(path, args, data) -> tuple[SolverConfig, KernelSpec, Loss]:
    doc = load_json(path) if path is not None else {}
    sections = ("solver", "kernel", "loss")
    if not isinstance(doc, dict) or any(not isinstance(doc.get(s, {}), dict) for s in sections):
        raise ConfigError(f"{path}: expected a JSON object with solver/kernel/loss sections")
    solver_doc = dict(doc.get("solver", {}))
    overrides = {"gamma": args.gamma, "iters": args.iters}
    solver_doc.update({key: val for key, val in overrides.items() if val is not None})
    for key in ("gamma", "iters"):
        if key not in solver_doc:
            raise ConfigError(f"missing solver setting {key!r} (flag or config file)")
    config = SolverConfig.from_dict(solver_doc)

    try:
        if "kernel" in doc:
            kernel = KernelSpec.from_dict(doc["kernel"])
        else:
            kernel = KernelSpec(w_lo=0.1, w_hi=1.0, box=data.box)
        loss = Loss.from_dict(doc["loss"]) if "loss" in doc else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad kernel or loss section ({exc!r})") from None

    if loss is not None:
        if args.loss is not None and LOSS_NAMES[args.loss] != loss.kind:
            loss = losses.default_loss(LOSS_NAMES[args.loss], data.y, args.epsilon)
        elif args.epsilon is not None:
            loss = Loss(kind=loss.kind, epsilon=args.epsilon, clamp_radius=loss.clamp_radius)
    else:
        kind = LOSS_NAMES[args.loss or "quad"]
        loss = losses.default_loss(kind, data.y, args.epsilon)
    return config, kernel, loss


def cmd_fit(args) -> int:
    data = datasets.load_csv(args.data)
    config, kernel, loss = _load_config(args.config, args, data)
    variant = _parse_variant(args.variant)
    out = args.out
    state, field = solver.fit(data, kernel, loss, variant, config, trace_path=out + ".trace.csv")
    model = extraction.extract_model(field, data)
    model.save(out)
    field.save(out + ".field.json")

    print(f"terms: {model.n_terms}")
    print(f"threshold: {field.threshold}")
    # the certificate of the saved field on the config's midpoint quadrature
    print(f"max_constraint_violation: {state.max_c!r}")
    print(f"converged: {'yes' if state.converged else 'no'}")
    print(f"iterations: {state.t}")
    print(f"rel_gap: {state.rel_gap!r}")
    if not state.converged:
        # uncertified means the cap was hit; name each certificate test that failed
        tests = (("rel_gap", state.rel_gap), ("max_constraint_violation", state.max_c))
        failed = [f"{name} {val:.3g} > {config.tol:g}" for name, val in tests if val > config.tol]
        # every constraint met, yet g rose by more than tol over the last
        # traced stretch: what a fit whose constraints are too tight for
        # epsilon shows (g grows about as t^2 there)
        (_, g_prev), (_, g_last) = state.g_trace[-2:]
        if state.max_c <= config.tol and g_last - g_prev > config.tol * max(1.0, abs(g_last)):
            failed.append(
                "g still rising with the violation met; "
                "the constraints may be too tight for epsilon"
            )
        print("stopped: " + "; ".join(["iteration cap", *failed]))
    return 0


def cmd_eval(args) -> int:
    data = datasets.load_csv(args.data)
    doc = load_json(args.model)
    if not isinstance(doc, dict) or "terms" not in doc:
        raise ConfigError(f"{args.model}: not a discrete model file")
    try:
        model = DiscreteModel.from_dict(doc, dim=data.dim)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{args.model}: malformed model ({exc!r})") from None
    if model.dim != data.dim:
        raise ConfigError(f"{args.model}: model is {model.dim}-D, data is {data.dim}-D")
    resid = data.y - model.predict_batch(data.X)
    print(repr(float(np.mean(resid**2))))
    return 0


def cmd_experiment(args) -> int:
    result = run_experiment(args.id, scale=args.scale, seed=args.seed or 0, outdir=args.outdir)
    for key, val in result.summary.items():
        print(f"{key}: {val}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsekern")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a certified sparse kernel model to a CSV dataset")
    p_fit.add_argument("data", help="training data CSV (x1,...,xp,y)")
    p_fit.add_argument("--config", help="JSON with solver/kernel/loss sections")
    p_fit.add_argument("--variant", default="full", help="full | fixed-width=W | fixed-centers=FILE")
    p_fit.add_argument("--out", required=True, help="output model JSON path")
    p_fit.add_argument("--gamma", type=float, help="sparsity penalty per unit of support")
    p_fit.add_argument(
        "--iters", type=int, help="iteration cap; the fit stops earlier once certified to tol"
    )
    p_fit.add_argument("--loss", choices=sorted(LOSS_NAMES))
    p_fit.add_argument("--epsilon", type=float)
    # the benchmark passes these three; delete them with the next benchmark change
    p_fit.add_argument("--eta-lambda", type=float, help="ignored: the step is 1/L")
    p_fit.add_argument("--eta-mu", type=float, help="ignored: mu is maximised out in closed form")
    p_fit.add_argument("--integrator", choices=["quadrature"], help="ignored: always quadrature")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="print a saved model's MSE on a CSV dataset")
    p_eval.add_argument("model", help="discrete model JSON written by fit --out")
    p_eval.add_argument("data", help="data CSV")
    p_eval.set_defaults(func=cmd_eval)

    p_exp = sub.add_parser("experiment", help="run a reproduction experiment")
    p_exp.add_argument("id", choices=EXPERIMENT_IDS)
    p_exp.add_argument("--scale", choices=["desk", "paper"], default="desk")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--outdir", default=".")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
