"""Campaign engine: sharded thousand-scenario sweeps with checkpoints.

A *campaign* is a declarative scenario matrix — grid and
random-sampled axes over a registered experiment's parameter space —
expanded into thousands of concrete scenarios, each with a
deterministically derived seed.  The runner executes them serially or
over a process pool, shards across machines by index, checkpoints
every completed scenario to a resumable result store layered on the
``.repro-cache/`` directory, and streams results into tidy summary
tables.

Entry points::

    from repro.campaigns import (Axis, CampaignMatrix, CampaignRunner,
                                 get_campaign)

    matrix = get_campaign("contention-scale")   # a stock campaign
    runner = CampaignRunner(jobs=4)
    runner.run(matrix)                          # resumable
    runner.report(matrix, group_by=["protocol", "n_clients"])

Execution is *supervised*: per-scenario wall-clock timeouts, seeded
retry backoff, quarantine for poison scenarios, and per-record CRC
integrity on the checkpoint store — with a deterministic
fault-injection harness (:mod:`repro.campaigns.faults`) proving the
recovery guarantees.  See ``docs/resilience.md``.

Records land in one :class:`ResultStore`: each is one fsynced line
of a JSONL record log (:mod:`repro.campaigns.checkpoint`, the one
module that knows the on-disk format).  Progress answers
(:class:`CampaignStatus`) and summaries read the same checked
records.  Campaign *service mode* (:class:`CampaignService`,
``repro campaign serve``/``submit``) layers a long-running asyncio
submission front end with a durable queue on top of the same runner
and store; see ``docs/service.md``.

The CLI mirrors this as ``repro campaign
run/status/report/verify/chaos/serve/submit/results``; see
``docs/campaigns.md`` for authoring matrices.
"""

from repro.campaigns.checkpoint import (CheckpointCorruptionWarning,
                                        ResultStore)
from repro.campaigns.faults import (FaultInjectedError, FaultPlan,
                                    FaultSpec, chaos_wall)
from repro.campaigns.matrix import (Axis, CampaignError, CampaignMatrix,
                                    CampaignScenario, RandomAxis,
                                    derive_scenario_seed)
from repro.campaigns.runner import CampaignRunner, CampaignStatus
from repro.campaigns.service import (CampaignService, ServiceError,
                                     ServiceUnavailable)
from repro.campaigns.stock import (campaign_names, get_campaign,
                                   list_campaigns, register_campaign)

__all__ = ["Axis", "RandomAxis", "CampaignMatrix", "CampaignScenario",
           "CampaignError", "CampaignRunner", "CampaignService",
           "CampaignStatus", "CheckpointCorruptionWarning",
           "FaultInjectedError", "FaultPlan", "FaultSpec",
           "ResultStore", "ServiceError", "ServiceUnavailable",
           "chaos_wall", "derive_scenario_seed",
           "get_campaign", "campaign_names", "list_campaigns",
           "register_campaign"]
