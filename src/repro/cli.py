"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``rates`` — print the rate table (Table 2) and operating modes
  (Table 3).
* ``trace`` — generate a fading link trace and save it as ``.npz``
  (walking mobility or fixed mean SNR).
* ``inspect`` — summarise a saved trace (per-rate delivery, BER).
* ``thresholds`` — print SoftRate's optimal (alpha, beta) thresholds
  for a frame size / recovery model / separation factor.
* ``simulate`` — run a TCP uplink simulation over generated traces
  with a chosen rate adaptation protocol (``--phy-backend`` selects
  how frame fates are computed).
* ``list`` — enumerate the registered paper experiments.
* ``run`` — run one registered experiment (``--set key=val``
  overrides, ``--jobs N`` parallelism, ``--seeds``/``--replicates``
  fan-out, ``--phy-backend full|surrogate``, cached results,
  JSON/npz output).
* ``sweep`` — run one experiment across a parameter sweep.
* ``campaign`` — thousand-scenario sweeps: ``campaign list`` shows the
  registered matrices, ``campaign run`` executes one (sharded via
  ``--shard I/N``, resumable from checkpoints, supervised via
  ``--timeout``/``--retries``; exits 0 complete / 3 partial / 4
  quarantined failures), ``campaign status`` reports progress,
  ``campaign
  report`` builds tidy summary tables, ``campaign verify`` audits
  checkpoint integrity (CRC) and the quarantine, ``campaign chaos``
  runs the deterministic fault-injection wall (docs/resilience.md).
  Service mode (docs/service.md): ``campaign serve`` starts the
  long-running submission server, ``campaign submit`` sends a
  campaign to it and (by default) waits, mapping the final state to
  the same 0/3/4 exit contract, and ``campaign results`` fetches the
  summary from the live server or straight off the store.
* ``calibrate`` — regenerate the surrogate PHY backend's calibration
  table from the full bit-exact pipeline.
* ``bench`` — measure PHY and campaign-engine throughput and write
  the committed ``BENCH_phy.json`` / ``BENCH_campaigns.json``
  baselines; ``bench --check`` re-measures with each baseline's
  embedded config and fails on >10% gate-ratio drops (the CI
  regression gate).

See ``docs/`` for the architecture and the figure-by-figure
reproduction guide.
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.tables import format_table
from repro.phy.rates import RATE_TABLE

__all__ = ["main"]

#: Mirrors ``repro.experiments.common.PROTOCOL_NAMES`` (kept literal
#: so building the parser doesn't import the simulation stack; a test
#: asserts the two stay in sync).
_PROTOCOL_CHOICES = ("softrate", "samplerate", "rraa", "snr", "charm",
                     "snr-untrained", "omniscient")


def _parse_value(text: str) -> Any:
    """``--set``/``--values`` literal: python literal, else string."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_overrides(pairs: Sequence[str]) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"--set expects KEY=VALUE, got {pair!r}")
        overrides[key] = _parse_value(value)
    return overrides


def _split_top_level(text: str) -> List[str]:
    """Split on commas outside brackets/parens, so one comma-bearing
    literal (``(100,1400)``) stays one piece."""
    pieces, depth, current = [], 0, []
    for char in text:
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        if char == "," and depth == 0:
            pieces.append("".join(current))
            current = []
        else:
            current.append(char)
    pieces.append("".join(current))
    return [p.strip() for p in pieces if p.strip()]


def _parse_values(text: str) -> List[Any]:
    """Sweep values: one per top-level comma, each parsed as a python
    literal when possible (``--values 1,2`` -> two ints; ``--values
    "(100,1400)"`` -> one tuple; ``--values "(1,),(2,)"`` -> two
    tuples; ``--values softrate,rraa`` -> two strings)."""
    return [_parse_value(v) for v in _split_top_level(text)]


def _parse_seeds(args) -> Optional[List[int]]:
    from repro.experiments.api import derive_seeds

    if args.seeds:
        return [int(s) for s in args.seeds.split(",") if s]
    if args.replicates:
        return derive_seeds(args.base_seed, args.replicates)
    return None


def _print_result(result) -> None:
    origin = "cache" if result.cached else \
        f"{result.elapsed_s:.2f} s"
    seeds = "-" if result.seeds == [None] else \
        ",".join(str(s) for s in result.seeds)
    print(f"{result.experiment} [{result.cache_key}] "
          f"seeds={seeds} ({origin})")
    rows = [[key, f"{value:.6g}"]
            for key, value in sorted(result.aggregates.items())]
    if rows:
        print(format_table(["metric", "mean"], rows))


def _cmd_rates(_args) -> int:
    from repro.experiments.tab02_rates import run_tab02

    print(run_tab02().render())
    return 0


def _cmd_trace(args) -> int:
    from repro.channel.mobility import WalkingTrajectory
    from repro.traces.generate import generate_fading_trace

    rng = np.random.default_rng(args.seed)
    if args.walking:
        trajectory = WalkingTrajectory(rng,
                                       start_distance=args.distance)
        mean_snr = trajectory.mean_snr_db
    else:
        mean_snr = lambda t: args.snr    # noqa: E731 - tiny closure
    trace = generate_fading_trace(rng, duration=args.duration,
                                  mean_snr_db=mean_snr,
                                  doppler_hz=args.doppler)
    trace.save(args.output)
    print(f"wrote {args.output}: {trace.n_rates} rates x "
          f"{trace.n_slots} slots ({trace.duration:.1f} s)")
    return 0


def _cmd_inspect(args) -> int:
    from repro.traces.format import LinkTrace

    try:
        trace = LinkTrace.load(args.trace)
    except ValueError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 2
    print(f"{args.trace}: {trace.n_slots} slots x "
          f"{trace.slot_duration * 1e3:.1f} ms "
          f"({trace.duration:.1f} s), detected "
          f"{trace.detected.mean():.0%}")
    rows = []
    for r in range(trace.n_rates):
        rows.append([trace.rate_names[r],
                     f"{trace.delivered[r].mean():.0%}",
                     f"{np.median(trace.ber_true[r]):.2e}",
                     f"{trace.loss_prob[r].mean():.2f}"])
    print(format_table(["rate", "delivered", "median BER",
                        "mean loss prob"], rows))
    return 0


def _cmd_thresholds(args) -> int:
    from repro.core.thresholds import (FrameLevelArq, PartialBitArq,
                                       compute_thresholds)

    rates = RATE_TABLE.prototype_subset()
    if args.recovery == "arq":
        recovery = FrameLevelArq(args.frame_bits)
    else:
        recovery = PartialBitArq(args.cost_per_error)
    table = compute_thresholds(rates, recovery,
                               separation=args.separation)
    rows = [[rates[i].name, f"{table[i].alpha:.2e}",
             f"{table[i].beta:.2e}"] for i in range(len(rates))]
    print(format_table(["rate", "alpha (move up below)",
                        "beta (move down above)"], rows))
    return 0


def _cmd_simulate(args) -> int:
    from repro.experiments.common import protocol_factory
    from repro.sim.topology import run_mac_contention, run_tcp_uplink
    from repro.traces.workloads import walking_traces

    if args.engine == "slot" and args.workload != "mac":
        raise SystemExit("error: --engine slot requires "
                         "--workload mac (see docs/slotmac.md)")
    uplinks = walking_traces(args.clients, seed=args.seed)
    factory = protocol_factory(args.protocol,
                               training_trace=uplinks[0])
    backend = None if args.phy_backend == "trace" else args.phy_backend
    if args.workload == "mac":
        if args.engine == "slot":
            from repro.sim.slotmac import run_slot_contention
            run_contention = run_slot_contention
        else:
            run_contention = run_mac_contention
        result = run_contention(uplinks, factory,
                                n_clients=args.clients,
                                duration=args.duration,
                                seed=args.seed, phy_backend=backend)
        per_flow = result.per_client_mbps
        label = f"mac/{args.engine}"
    else:
        downlinks = walking_traces(args.clients, seed=args.seed + 50)
        result = run_tcp_uplink(uplinks, downlinks, factory,
                                n_clients=args.clients,
                                duration=args.duration,
                                seed=args.seed, phy_backend=backend)
        per_flow = result.per_flow_mbps
        label = "tcp"
    print(f"{args.protocol} [{label}]: "
          f"{result.aggregate_mbps:.2f} Mbps "
          f"aggregate over {args.duration:g} s "
          f"({args.clients} clients)")
    for flow, mbps in enumerate(per_flow):
        print(f"  flow {flow}: {mbps:.2f} Mbps")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.phy.calibrate import calibrate

    if args.snr_step <= 0:
        raise SystemExit("error: --snr-step must be positive")
    if args.frames_per_point < 1:
        raise SystemExit("error: --frames-per-point must be >= 1")
    grid = None
    if args.snr_min is not None or args.snr_max is not None \
            or args.snr_step != 1.0:
        lo = args.snr_min if args.snr_min is not None else -2.0
        hi = args.snr_max if args.snr_max is not None else 26.0
        grid = np.arange(lo, hi + args.snr_step / 2, args.snr_step)
    table = calibrate(snr_grid_db=grid,
                      frames_per_point=args.frames_per_point,
                      payload_bits=args.payload_bits, seed=args.seed,
                      batch_size=args.batch_size,
                      progress=lambda line: print(line, flush=True))
    table.save(args.output)
    print(f"wrote {args.output}: {table.n_rates} rates x "
          f"{table.snr_grid_db.size} SNR points "
          f"(estimator noise {table.est_noise_decades:.2f} decades)")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import check_benchmarks, write_benchmarks

    if args.tolerance < 0:
        raise SystemExit("error: --tolerance must be >= 0")
    if args.check:
        return check_benchmarks(output_dir=args.output_dir,
                                only=args.only,
                                tolerance=args.tolerance)
    write_benchmarks(output_dir=args.output_dir, only=args.only)
    return 0


def _cmd_list(_args) -> int:
    from repro.experiments.api import list_experiments

    rows = []
    for spec in list_experiments():
        rows.append([spec.name, spec.description,
                     ",".join(sorted(spec.params)) or "-",
                     ",".join(spec.algorithms) or "-"])
    print(format_table(["experiment", "description", "parameters",
                        "algorithms"], rows))
    print(f"\n{len(rows)} experiments registered")
    return 0


def _invoke_runner(args, call):
    """Build a Runner from CLI args and run ``call(runner)``, mapping
    registry errors to the (exit-2, message-on-stderr) contract.

    Returns ``(outcome, None)`` on success or ``(None, exit_code)``.
    """
    from repro.experiments.api import (Runner, UnknownExperimentError,
                                       UnknownParameterError)

    try:
        runner = Runner(jobs=args.jobs, cache_dir=args.cache_dir,
                        use_cache=not args.no_cache,
                        batch_size=args.batch_size,
                        phy_backend=args.phy_backend)
        return call(runner), None
    except UnknownExperimentError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return None, 2
    except (ValueError, UnknownParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2


def _cmd_run(args) -> int:
    result, code = _invoke_runner(
        args, lambda runner: runner.run(
            args.experiment, _parse_overrides(args.overrides),
            seeds=_parse_seeds(args)))
    if result is None:
        return code
    _print_result(result)
    if args.output:
        result.save(args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_sweep(args) -> int:
    results, code = _invoke_runner(
        args, lambda runner: runner.sweep(
            args.experiment, args.param, _parse_values(args.values),
            _parse_overrides(args.overrides),
            seeds=_parse_seeds(args)))
    if results is None:
        return code
    metrics = sorted({k for r in results for k in r.aggregates})
    rows = [[f"{args.param}={r.params[args.param]!r}"]
            + [f"{r.aggregates.get(m, float('nan')):.6g}"
               for m in metrics] for r in results]
    print(format_table([args.param] + metrics, rows))
    if args.output:
        import json
        with open(args.output, "w") as fh:
            json.dump([r.to_dict() for r in results], fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0


def _campaign_matrix(args):
    """Resolve the campaign name, mapping unknowns to exit code 2."""
    from repro.campaigns import get_campaign
    from repro.campaigns.stock import UnknownCampaignError

    try:
        return get_campaign(args.campaign), None
    except UnknownCampaignError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return None, 2


def _cmd_campaign_list(_args) -> int:
    from repro.campaigns import list_campaigns

    rows = [[m.name, m.experiment, str(m.total_scenarios()),
             m.digest(), m.description]
            for m in list_campaigns()]
    print(format_table(["campaign", "experiment", "scenarios",
                        "digest", "description"], rows))
    print(f"\n{len(rows)} campaigns registered")
    return 0


def _cmd_campaign_run(args) -> int:
    from repro.campaigns import CampaignRunner
    from repro.campaigns.runner import parse_shard

    matrix, code = _campaign_matrix(args)
    if matrix is None:
        return code
    try:
        shard = parse_shard(args.shard)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = CampaignRunner(
        jobs=args.jobs, cache_dir=args.cache_dir, shard=shard,
        timeout_s=args.timeout, max_retries=args.retries,
        progress=lambda line: print(line, flush=True))
    status = runner.run(matrix, limit=args.limit)
    print(f"{status.name}: {status.completed}/{status.total} "
          f"scenarios checkpointed in {status.directory}")
    # Exit-code contract: 0 = every scenario checkpointed, 3 =
    # scenarios remain pending (sharded/limited/interrupted run),
    # 4 = pending scenarios are quarantined (see `campaign verify`).
    if status.done:
        return 0
    if status.failed:
        print(f"error: {status.quarantined} scenario(s) quarantined "
              f"after repeated failures — see "
              f"{status.directory}/quarantine.jsonl",
              file=sys.stderr)
        return 4
    return 3


def _cmd_campaign_verify(args) -> int:
    from repro.campaigns import CampaignRunner, ResultStore

    matrix, code = _campaign_matrix(args)
    if matrix is None:
        return code
    store = ResultStore(matrix, cache_dir=args.cache_dir)
    records, issues = store.scan()
    current = {s.scenario_id for s in matrix.expand()}
    valid = len(set(records) & current)
    stale = len(set(records) - current)
    torn = sum(1 for i in issues if i.kind == "torn")
    corrupt = [i for i in issues if i.kind != "torn"]
    print(f"{matrix.name} [{matrix.digest()}]: "
          f"{valid}/{matrix.total_scenarios()} valid records"
          + (f", {stale} stale" if stale else "")
          + (f", {torn} torn tail(s)" if torn else "")
          + (f", {len(corrupt)} corrupt line(s)" if corrupt else ""))
    for issue in corrupt:
        import os as _os
        print(f"  corrupt: {_os.path.basename(issue.path)}:"
              f"{issue.line_no} [{issue.kind}] {issue.detail}")
    quarantine = CampaignRunner(cache_dir=args.cache_dir) \
        ._status(matrix, store)
    entries = store.load_quarantine()
    if entries:
        done = set(records) & current
        print(f"quarantine: {quarantine.quarantined} active entry(s)")
        for entry in entries:
            state = "recovered" if entry["scenario_id"] in done \
                else "active"
            print(f"  #{entry['index']} ({entry['scenario_id']}) "
                  f"[{state}] {entry.get('kind', '?')}: "
                  f"{entry.get('error', '')}")
    if corrupt or quarantine.quarantined:
        return 1
    return 0


def _cmd_campaign_chaos(args) -> int:
    from repro.campaigns import chaos_wall
    from repro.campaigns.faults import FAULT_KINDS

    matrix, code = _campaign_matrix(args)
    if matrix is None:
        return code
    kinds = [k for k in (args.faults or "").split(",") if k] or None
    if kinds:
        unknown = sorted(set(kinds) - set(FAULT_KINDS))
        if unknown:
            print(f"error: unknown fault kind(s) {unknown}; known: "
                  f"{sorted(FAULT_KINDS)}", file=sys.stderr)
            return 2
    outcome = chaos_wall(
        matrix, kinds=kinds, seed=args.seed, jobs=args.jobs,
        timeout_s=args.timeout, max_retries=args.retries,
        cache_root=args.cache_root,
        emit=lambda line: print(line, flush=True))
    for result in outcome["results"]:
        verdict = "PASS" if result["passed"] else "FAIL"
        quarantined = result["quarantined_during_fault"]
        print(f"{result['kind']:>15}: {verdict}  "
              f"(quarantined during fault: "
              f"{quarantined if quarantined else 'none'})")
    if outcome["passed"]:
        print(f"{matrix.name}: chaos wall PASSED — every fault class "
              f"resumed to the fault-free summary bytes")
        return 0
    print(f"error: chaos wall FAILED for {matrix.name}",
          file=sys.stderr)
    return 1


def _cmd_campaign_status(args) -> int:
    from repro.campaigns import CampaignRunner

    matrix, code = _campaign_matrix(args)
    if matrix is None:
        return code
    status = CampaignRunner(cache_dir=args.cache_dir).status(matrix)
    if not status.started:
        # A never-run campaign is a clean answer, not a pile of
        # missing-checkpoint caveats — and asking must not create
        # the directory it reports on.
        print(f"{status.name} [{status.digest}]: not started "
              f"(0/{status.total} complete; `campaign run` or "
              f"`campaign submit` to begin)")
        return 0
    state = "done" if status.done else \
        f"{status.pending} pending"
    if status.quarantined:
        state += f", {status.quarantined} quarantined"
    print(f"{status.name} [{status.digest}]: "
          f"{status.completed}/{status.total} complete ({state})")
    print(f"checkpoints: {status.directory}")
    return 0


def _cmd_campaign_report(args) -> int:
    from repro.campaigns import CampaignRunner

    matrix, code = _campaign_matrix(args)
    if matrix is None:
        return code
    group_by = [g for g in (args.group_by or "").split(",") if g]
    runner = CampaignRunner(cache_dir=args.cache_dir)
    try:
        summary = runner.report(matrix, group_by=group_by or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{summary['campaign']}: {summary['completed']}/"
          f"{summary['total_scenarios']} scenarios summarized")
    metrics = summary["metrics"]
    if group_by and summary.get("groups"):
        headers = group_by + ["n"] + metrics
        rows = [[str(g.get(k)) for k in group_by] + [str(g["n"])]
                + [_format_cell(g.get(m)) for m in metrics]
                for g in summary["groups"]]
        print(format_table(headers, rows))
    elif summary["aggregates"]:
        rows = [[key, _format_cell(summary["aggregates"][key])]
                for key in metrics]
        print(format_table(["metric", "mean"], rows))
    if args.output:
        from repro.campaigns.checkpoint import write_json_atomic
        write_json_atomic(args.output, summary)
        print(f"wrote {args.output}")
    return 0


def _cmd_campaign_serve(args) -> int:
    from repro.campaigns.service import CampaignService

    try:
        service = CampaignService(
            cache_dir=args.cache_dir, host=args.host, port=args.port,
            jobs=args.jobs, timeout_s=args.timeout,
            max_retries=args.retries, once=args.once,
            emit=lambda line: print(line, flush=True))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        service.serve()
    except KeyboardInterrupt:
        print("interrupted; submissions resume on the next serve",
              flush=True)
    return 0


def _submission_options(args) -> Dict[str, Any]:
    """Per-submission runner overrides from the submit flags."""
    options: Dict[str, Any] = {}
    if args.jobs is not None:
        options["jobs"] = args.jobs
    if args.timeout is not None:
        options["timeout_s"] = args.timeout
    if args.retries is not None:
        options["max_retries"] = args.retries
    if args.limit is not None:
        options["limit"] = args.limit
    if args.fault is not None:
        options["fault"] = args.fault
        options["fault_seed"] = args.fault_seed
        if args.hang is not None:
            options["hang_s"] = args.hang
    return options


def _cmd_campaign_submit(args) -> int:
    from repro.campaigns.service import (ServiceError,
                                         ServiceUnavailable, request,
                                         state_exit_code,
                                         wait_for_submission)

    try:
        response = request(args.cache_dir, {
            "op": "submit", "campaign": args.campaign,
            "options": _submission_options(args)})
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not response.get("ok"):
        print(f"error: {response.get('error', 'submit failed')}",
              file=sys.stderr)
        return 2 if response.get("unknown_campaign") else 1
    sub_id = response["id"]
    print(f"{sub_id}: {args.campaign} queued")
    if args.no_wait:
        return 0
    try:
        final = wait_for_submission(
            args.cache_dir, sub_id, poll_s=args.poll,
            emit=lambda line: print(line, flush=True))
    except ServiceUnavailable:
        # The server exited between polls (e.g. `serve --once`
        # draining the queue).  The store outlives the server, so
        # answer from it rather than failing a finished run.
        print(f"{sub_id}: server exited; reading local results")
        return _local_results(args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    state = final.get("state", "error")
    print(f"{sub_id}: {state} ({final.get('completed', 0)}/"
          f"{final.get('total', 0)} scenarios)")
    if state == "error" and final.get("error"):
        print(f"error: {final['error']}", file=sys.stderr)
    if state == "quarantined":
        print(f"error: {final.get('quarantined', 0)} scenario(s) "
              f"quarantined — see `campaign verify "
              f"{args.campaign}`", file=sys.stderr)
    # Same contract as `campaign run`: 0 complete / 3 partial /
    # 4 quarantined (submission harness errors exit 1).
    return state_exit_code(state)


def _cmd_campaign_results(args) -> int:
    from repro.campaigns.service import (ServiceError,
                                         ServiceUnavailable, request)

    try:
        response = request(args.cache_dir, {
            "op": "results", "campaign": args.campaign})
    except ServiceUnavailable:
        # No live server: answer straight off the shared store —
        # the record formats are the same either way.
        return _local_results(args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not response.get("ok"):
        print(f"error: {response.get('error', 'results failed')}",
              file=sys.stderr)
        return 2 if response.get("unknown_campaign") else 1
    return _print_results(args.campaign, response)


def _local_results(args) -> int:
    from repro.campaigns import CampaignRunner

    matrix, code = _campaign_matrix(args)
    if matrix is None:
        return code
    runner = CampaignRunner(cache_dir=args.cache_dir)
    status = runner.status(matrix)
    if not status.started:
        return _print_results(args.campaign, {
            "state": "not-started", "completed": 0,
            "total": status.total})
    summary = runner.report(matrix)
    state = "complete" if status.done else \
        ("quarantined" if status.failed else "partial")
    return _print_results(args.campaign, {
        "state": state, "completed": status.completed,
        "total": status.total, "quarantined": status.quarantined,
        "summary": summary})


def _print_results(campaign: str, response: Dict[str, Any]) -> int:
    """Render a results payload; exit code mirrors ``campaign run``
    (not-started counts as partial — nothing is complete yet)."""
    from repro.campaigns.service import state_exit_code

    state = response.get("state", "error")
    print(f"{campaign}: {response.get('completed', 0)}/"
          f"{response.get('total', 0)} scenarios ({state})")
    summary = response.get("summary")
    if summary and summary.get("aggregates"):
        rows = [[key, _format_cell(summary["aggregates"][key])]
                for key in summary["metrics"]]
        print(format_table(["metric", "mean"], rows))
    if state == "not-started":
        return 3
    return state_exit_code(state)


def _format_cell(value) -> str:
    """One summary-table cell: floats compact, None as ``nan``."""
    if value is None:
        return "nan"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _add_runner_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", action="append", dest="overrides",
                   default=[], metavar="KEY=VALUE",
                   help="override a declared experiment parameter")
    p.add_argument("--seeds", help="comma-separated replicate seeds")
    p.add_argument("--replicates", type=int,
                   help="derive N deterministic replicate seeds")
    p.add_argument("--base-seed", type=int, default=0,
                   help="base for --replicates seed derivation")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the replicate/sweep fan")
    p.add_argument("--batch-size", type=int, default=None,
                   help="frames decoded per batched-PHY call, for "
                        "experiments that declare the knob (results "
                        "are identical at any value; higher = faster, "
                        "more memory)")
    p.add_argument("--phy-backend", default=None,
                   help="PHY backend (full|surrogate) for experiments "
                        "that declare the knob; the surrogate is "
                        "calibrated, not bit-exact, so it changes "
                        "results and is part of the cache key")
    p.add_argument("--output", help="write result (.json or .npz)")
    p.add_argument("--cache-dir", default=".repro-cache")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the result cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SoftRate (SIGCOMM 2009) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("rates", help="print the rate table")

    p = sub.add_parser("trace", help="generate a fading link trace")
    p.add_argument("output", help="output .npz path")
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--doppler", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--walking", action="store_true",
                   help="walking-mobility SNR trajectory")
    p.add_argument("--distance", type=float, default=5.0,
                   help="walking start distance (m)")
    p.add_argument("--snr", type=float, default=15.0,
                   help="mean SNR (dB) when not walking")

    p = sub.add_parser("inspect", help="summarise a saved trace")
    p.add_argument("trace", help=".npz trace path")

    p = sub.add_parser("thresholds",
                       help="print SoftRate's optimal thresholds")
    p.add_argument("--recovery", choices=["arq", "harq"],
                   default="arq")
    p.add_argument("--frame-bits", type=int, default=11232)
    p.add_argument("--cost-per-error", type=float, default=500.0)
    p.add_argument("--separation", type=float, default=10.0)

    p = sub.add_parser("simulate", help="run a TCP uplink simulation")
    p.add_argument("--workload", choices=["tcp", "mac"],
                   default="tcp",
                   help="TCP uplink (default) or saturated MAC flood")
    p.add_argument("--engine", choices=["event", "slot"],
                   default="event",
                   help="MAC engine for --workload mac: the "
                        "event-driven oracle or the slot-synchronous "
                        "large-cell engine")
    p.add_argument("--protocol", choices=list(_PROTOCOL_CHOICES),
                   default="softrate")
    p.add_argument("--clients", type=int, default=1)
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--phy-backend",
                   choices=["trace", "full", "surrogate"],
                   default="trace",
                   help="frame-fate source: precomputed trace columns "
                        "(default), the bit-exact PHY, or the "
                        "calibrated surrogate")

    p = sub.add_parser(
        "calibrate",
        help="measure the surrogate PHY backend's tables from the "
             "full bit-exact pipeline")
    p.add_argument("--output",
                   default="src/repro/phy/calibration/default.json",
                   help="where to write the calibration JSON")
    p.add_argument("--frames-per-point", type=int, default=24,
                   help="Monte Carlo frames per (rate, SNR) point")
    p.add_argument("--payload-bits", type=int, default=1600)
    p.add_argument("--seed", type=int, default=2009)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--snr-min", type=float, default=None,
                   help="grid start in dB (default -2)")
    p.add_argument("--snr-max", type=float, default=None,
                   help="grid end in dB (default 26)")
    p.add_argument("--snr-step", type=float, default=1.0)

    p = sub.add_parser(
        "bench",
        help="measure throughput baselines (BENCH_*.json) or check "
             "them for regressions")
    p.add_argument("--check", action="store_true",
                   help="re-measure with each committed baseline's "
                        "embedded config and fail on gate-metric "
                        "drops instead of rewriting the files")
    p.add_argument("--only", choices=["phy", "campaigns"],
                   default=None, help="restrict to one suite")
    p.add_argument("--tolerance", type=float, default=0.10,
                   help="allowed one-sided gate-metric drop "
                        "(default 0.10 = 10%%)")
    p.add_argument("--output-dir", default=".",
                   help="where the BENCH_*.json files live "
                        "(default: current directory)")

    sub.add_parser("list", help="enumerate registered experiments")

    p = sub.add_parser("run", help="run a registered experiment")
    p.add_argument("experiment", help="experiment name (see `list`)")
    _add_runner_options(p)

    p = sub.add_parser("sweep",
                       help="run an experiment across a parameter sweep")
    p.add_argument("experiment", help="experiment name (see `list`)")
    p.add_argument("--param", required=True,
                   help="name of the parameter to sweep")
    p.add_argument("--values", required=True,
                   help="comma-separated sweep values")
    _add_runner_options(p)

    p = sub.add_parser(
        "campaign",
        help="thousand-scenario sweeps with resumable checkpoints")
    csub = p.add_subparsers(dest="campaign_command", required=True)
    csub.add_parser("list", help="enumerate registered campaigns")
    for verb, text in (("run", "run a campaign (resumes from "
                               "checkpoints; exits 0 complete, 3 "
                               "partial, 4 quarantined failures)"),
                       ("status", "report a campaign's progress"),
                       ("report", "build the tidy summary tables"),
                       ("verify", "audit checkpoint integrity and "
                                  "the quarantine (exits 1 on "
                                  "corruption or active quarantine)"),
                       ("chaos", "prove fault recovery: inject each "
                                 "fault class, resume, and compare "
                                 "summaries byte-for-byte")):
        cp = csub.add_parser(verb, help=text)
        cp.add_argument("campaign",
                        help="campaign name (see `campaign list`)")
        if verb != "chaos":
            cp.add_argument("--cache-dir", default=".repro-cache")
        if verb == "run":
            cp.add_argument("--jobs", type=int, default=1,
                            help="worker processes")
            cp.add_argument("--shard", default="0/1", metavar="I/N",
                            help="run only scenarios with index %% N "
                                 "== I (0-based); N invocations "
                                 "cover the matrix")
            cp.add_argument("--limit", type=int, default=None,
                            help="run at most K pending scenarios")
            cp.add_argument("--timeout", type=float, default=None,
                            help="per-scenario wall-clock deadline "
                                 "(seconds); enables the supervised "
                                 "pool even at --jobs 1")
            cp.add_argument("--retries", type=int, default=2,
                            help="failed-scenario retries before "
                                 "quarantine (default 2)")
        if verb == "report":
            cp.add_argument("--group-by", default=None,
                            help="comma-separated varied parameters "
                                 "to group means over")
            cp.add_argument("--output",
                            help="also write the summary JSON here")
        if verb == "chaos":
            cp.add_argument("--faults", default=None,
                            help="comma-separated fault kinds "
                                 "(default: all of raise,slow,hang,"
                                 "crash,corrupt-record,"
                                 "truncate-file)")
            cp.add_argument("--jobs", type=int, default=2,
                            help="worker processes per run")
            cp.add_argument("--timeout", type=float, default=10.0,
                            help="per-scenario watchdog deadline "
                                 "(seconds) for the faulted runs")
            cp.add_argument("--retries", type=int, default=2,
                            help="retries before quarantine")
            cp.add_argument("--seed", type=int, default=0,
                            help="fault-plan seed (which scenarios "
                                 "get hit)")
            cp.add_argument("--cache-root", default=None,
                            help="parent dir for the wall's "
                                 "temporary cache dirs")

    cp = csub.add_parser(
        "serve",
        help="start the long-running submission server "
             "(docs/service.md); submissions resume across "
             "restarts from the durable queue + checkpoints")
    cp.add_argument("--cache-dir", default=".repro-cache")
    cp.add_argument("--host", default="127.0.0.1",
                    help="bind address (local service — keep it on "
                         "a loopback or trusted interface)")
    cp.add_argument("--port", type=int, default=0,
                    help="bind port (0 = ephemeral; the bound port "
                         "is advertised in the endpoint file)")
    cp.add_argument("--jobs", type=int, default=1,
                    help="default worker processes per submission")
    cp.add_argument("--timeout", type=float, default=None,
                    help="default per-scenario deadline (seconds)")
    cp.add_argument("--retries", type=int, default=2,
                    help="default retries before quarantine")
    cp.add_argument("--once", action="store_true",
                    help="exit after the first submission reaches "
                         "a terminal state (CI smoke mode)")

    cp = csub.add_parser(
        "submit",
        help="submit a campaign to the running server and wait "
             "(exits 0 complete, 3 partial, 4 quarantined, "
             "1 no server)")
    cp.add_argument("campaign",
                    help="campaign name (see `campaign list`)")
    cp.add_argument("--cache-dir", default=".repro-cache")
    cp.add_argument("--no-wait", action="store_true",
                    help="return after acceptance instead of "
                         "polling to a terminal state")
    cp.add_argument("--poll", type=float, default=0.2,
                    help="status poll interval while waiting "
                         "(seconds)")
    cp.add_argument("--jobs", type=int, default=None,
                    help="override the server's worker processes")
    cp.add_argument("--timeout", type=float, default=None,
                    help="override the per-scenario deadline")
    cp.add_argument("--retries", type=int, default=None,
                    help="override retries before quarantine")
    cp.add_argument("--limit", type=int, default=None,
                    help="run at most K pending scenarios")
    cp.add_argument("--fault", default=None,
                    help="inject a seeded fault kind into the "
                         "served run (chaos testing; see "
                         "`campaign chaos --help`)")
    cp.add_argument("--fault-seed", type=int, default=0,
                    help="fault-plan seed for --fault")
    cp.add_argument("--hang", type=float, default=None,
                    help="hang-fault sleep seconds for --fault")

    cp = csub.add_parser(
        "results",
        help="fetch a campaign's summary from the live server, or "
             "straight off the store when none is running")
    cp.add_argument("campaign",
                    help="campaign name (see `campaign list`)")
    cp.add_argument("--cache-dir", default=".repro-cache")
    return parser


_HANDLERS = {
    "rates": _cmd_rates,
    "trace": _cmd_trace,
    "inspect": _cmd_inspect,
    "thresholds": _cmd_thresholds,
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
    "bench": _cmd_bench,
    "list": _cmd_list,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
}

_CAMPAIGN_HANDLERS = {
    "list": _cmd_campaign_list,
    "run": _cmd_campaign_run,
    "status": _cmd_campaign_status,
    "report": _cmd_campaign_report,
    "verify": _cmd_campaign_verify,
    "chaos": _cmd_campaign_chaos,
    "serve": _cmd_campaign_serve,
    "submit": _cmd_campaign_submit,
    "results": _cmd_campaign_results,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "campaign":
            return _CAMPAIGN_HANDLERS[args.campaign_command](args)
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an
        # error from the user's point of view.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
