#pragma once
// Process exit codes of the omnivar driver — the single authority; no
// scattered literals.
//
//   0  the selected harnesses ran to completion (shape verdicts are
//      recorded in artifacts, not exit codes)
//   1  a harness failed outright (unhandled error, unwritable artifact)
//   2  usage: malformed invocation, unknown scenario, no matching harness,
//      malformed fault spec
//   3  deliberate checkpoint stop (OMNIVAR_CHECKPOINT_STOP_AFTER tripped
//      right after a checkpoint landed; resume with --resume)
//   4  graceful degradation: at least one protocol cell was quarantined
//      after exhausting its retries — the campaign completed every other
//      cell, campaign.json carries the failures block
//
// Precedence when several apply to one campaign: a checkpoint stop (3)
// ends the campaign immediately and wins; otherwise any quarantined cell
// makes the campaign exit 4 (the driver exits 4 iff a cell was
// quarantined); otherwise any hard harness failure exits 1.

namespace omv::cli {

enum ExitCode : int {
  kExitOk = 0,
  kExitHarnessFailed = 1,
  kExitUsage = 2,
  kExitCheckpointStop = 3,
  kExitQuarantined = 4,
};

}  // namespace omv::cli
