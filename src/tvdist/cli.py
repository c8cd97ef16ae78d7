"""Command-line front end.

Instances are JSON documents with two arrays-of-arrays under keys "p" and
"q" (decimal or scientific-notation probabilities). Machine-readable run
reports go to stdout as one JSON object on one line; human-readable
summaries go to stderr. Reports follow ``schemas/run-report.schema.json``
shipped with the package.

Exit codes: 0 success, 2 validation failure, 3 I/O failure, 4 enumeration
budget exceeded, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from collections.abc import Callable
from typing import Any

from .distributions import (
    ProductDistribution,
    build_stats,
    check_count,
    check_delta,
    check_epsilon,
    check_seed,
    require_same_shape,
    sample_count,
    validate,
)
from .errors import (
    BudgetExceeded,
    IdenticalDistributions,
    InstanceFormatError,
    InternalInvariantError,
    InvalidParameter,
    ValidationError,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


def load_instance(path: str) -> tuple[ProductDistribution, ProductDistribution, str]:
    """Read and validate an instance file; returns (P, Q, sha256 of the bytes)."""
    with open(path, "rb") as handle:
        raw = handle.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        document = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # also a decode error, or an int past Python's digit limit
        raise InstanceFormatError(f"not a JSON document: {exc}") from exc
    if not isinstance(document, dict):
        raise InstanceFormatError("top level must be an object with keys 'p' and 'q'")
    for key in ("p", "q"):
        if key not in document:
            raise InstanceFormatError(f"missing key {key!r}")
    p, q = validate(document["p"]), validate(document["q"])
    require_same_shape(p, q)
    return p, q, digest


def _checked(
    convert: Callable[[str], Any], check: Callable[..., Any], *args: str
) -> Callable[[str], Any]:
    """An argparse ``type=`` returning ``check(*args, convert(text))``; the
    check's :class:`InvalidParameter` becomes a usage error (exit 2)."""

    def parse(text: str) -> Any:
        try:
            return check(*args, convert(text))
        except InvalidParameter as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = convert.__name__  # argparse names it on a ValueError
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvdist",
        description=(
            "Total variation distance between discrete product distributions: "
            "relative-error Monte Carlo estimation plus exact and baseline modes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    epsilon, delta = _checked(float, check_epsilon), _checked(float, check_delta)
    seed, samples = _checked(int, check_seed), _checked(int, check_count, "samples")

    estimate = sub.add_parser(
        "estimate", help="importance-sampling estimate with accuracy guarantees"
    )
    estimate.add_argument("instance", help="JSON instance file with keys 'p' and 'q'")
    estimate.add_argument("--epsilon", type=epsilon, default=0.1)
    estimate.add_argument("--delta", type=delta, default=0.05)
    estimate.add_argument("--seed", type=seed, default=None)
    estimate.add_argument("--samples", type=samples, help="override the sample count")
    estimate.add_argument(
        "--workers",
        type=_checked(int, check_count, "workers"),
        default=1,
        help=(
            "2 or more: one other thread fills uniforms ahead of the caller, "
            "which pays off only when many coordinates need uniforms and a "
            "second core is free; more than 2 adds nothing; never changes "
            "the result"
        ),
    )

    exact = sub.add_parser("exact", help="exact distance by full enumeration")
    exact.add_argument("instance")
    exact.add_argument("--max-states", type=_checked(int, check_count, "max_states"))

    naive = sub.add_parser("naive", help="plain Monte Carlo baseline (no guarantee)")
    naive.add_argument("instance")
    naive.add_argument("--samples", type=samples, required=True)
    naive.add_argument("--seed", type=seed, default=None)

    info = sub.add_parser("info", help="coupling diagnostics, no sampling")
    info.add_argument("instance")
    info.add_argument("--epsilon", type=epsilon, default=0.1)
    info.add_argument("--delta", type=delta, default=0.05)

    return parser


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    import secrets

    generated = secrets.randbits(64)
    print(f"generated seed: {generated}", file=sys.stderr)
    return generated


def _report(
    args: argparse.Namespace, digest: str, config: dict[str, Any], result: dict[str, Any]
) -> dict[str, Any]:
    """The report of ``args.command`` on the instance file that hashes to ``digest``."""
    return {
        "command": args.command,
        "instance": {"path": args.instance, "sha256": digest},
        "config": config,
        "result": result,
        "timing": {"seconds": 0.0},  # filled in by _emit
    }


def _cmd_estimate(args: argparse.Namespace) -> tuple[dict[str, Any], str]:
    from .coupling import EstimatorConfig, estimate_tv

    p, q, digest = load_instance(args.instance)
    seed = _resolve_seed(args.seed)
    config = EstimatorConfig(
        args.epsilon, args.delta, seed, samples_override=args.samples, workers=args.workers
    )
    result = estimate_tv(p, q, config)
    report = _report(
        args,
        digest,
        {
            "epsilon": args.epsilon,
            "delta": args.delta,
            "samples": result.samples_used,
            "seed": seed,
            "workers": args.workers,
        },
        vars(result),
    )
    summary = (
        f"estimate: d_hat={result.estimate:.6g} "
        f"(m={result.samples_used}, pr_diff={result.pr_diff:.6g}, seed={seed})"
    )
    return report, summary


def _cmd_exact(args: argparse.Namespace) -> tuple[dict[str, Any], str]:
    from .oracle import DEFAULT_MAX_STATES, exact_tv

    p, q, digest = load_instance(args.instance)
    max_states = args.max_states or DEFAULT_MAX_STATES
    result = {"tv": exact_tv(p, q, max_states), "states": p.state_count()}
    report = _report(args, digest, {"max_states": max_states}, result)
    return report, f"exact: tv={result['tv']:.12g} over {result['states']} states"


def _cmd_naive(args: argparse.Namespace) -> tuple[dict[str, Any], str]:
    from .coupling import naive_estimate_tv

    p, q, digest = load_instance(args.instance)
    seed = _resolve_seed(args.seed)
    result = naive_estimate_tv(p, q, args.samples, seed)
    report = _report(args, digest, {"samples": args.samples, "seed": seed}, vars(result))
    summary = f"naive: estimate={result.estimate:.6g} (m={args.samples}, seed={seed})"
    return report, summary


def _cmd_info(args: argparse.Namespace) -> tuple[dict[str, Any], str]:
    p, q, digest = load_instance(args.instance)
    stats = build_stats(p, q)
    identical = stats.pr_diff == 0.0
    result = {
        "n": p.n,
        "domain_sizes": list(p.domain_sizes),
        "per_coordinate_tv": list(stats.d),
        "pr_diff": stats.pr_diff,
        "identical": identical,
        "sample_count": sample_count(p.n, args.epsilon, args.delta),
    }
    report = _report(args, digest, {"epsilon": args.epsilon, "delta": args.delta}, result)
    if identical:
        summary = "info: distributions are identical; an estimate would output 0"
    else:
        summary = (
            f"info: pr_diff={stats.pr_diff:.6g}, "
            f"m={result['sample_count']} at epsilon={args.epsilon}, delta={args.delta}"
        )
    return report, summary


_COMMANDS = {
    "estimate": _cmd_estimate,
    "exact": _cmd_exact,
    "naive": _cmd_naive,
    "info": _cmd_info,
}


def _emit_error(exc: Exception) -> None:
    payload: dict[str, Any] = {
        "error": {"type": type(exc).__name__, "message": str(exc)}
    }
    coordinate = getattr(exc, "coordinate", None)
    if coordinate is not None:
        payload["error"]["coordinate"] = coordinate
    sys.stdout.write(json.dumps(payload) + "\n")
    print(f"error: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, summary = _COMMANDS[args.command](args)
    except (ValidationError, IdenticalDistributions) as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    except BudgetExceeded as exc:
        _emit_error(exc)
        return EXIT_BUDGET
    except InternalInvariantError as exc:
        _emit_error(exc)
        return EXIT_INTERNAL
    except OSError as exc:
        _emit_error(exc)
        return EXIT_IO
    report["timing"]["seconds"] = time.perf_counter() - started
    sys.stdout.write(json.dumps(report) + "\n")  # no indent: json's C encoder runs
    print(summary, file=sys.stderr)
    return EXIT_OK


def run() -> int:
    """Process entry of ``python -m tvdist.cli`` and the ``tvdist`` script."""
    gc.disable()  # a run makes no cycles to collect; passes would walk its input
    code = main()
    gc.freeze()  # exit collections skip what is alive now; the OS frees it
    return code


if __name__ == "__main__":
    sys.exit(run())
