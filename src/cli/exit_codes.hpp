#pragma once
// Process exit codes of the omnivar driver — the single authority; no
// scattered literals.
//
//   0  the selected harnesses ran to completion (shape verdicts are
//      recorded in artifacts, not exit codes)
//   1  a harness failed outright (unhandled error, unwritable artifact)
//   2  usage: malformed invocation, unknown scenario, no matching harness,
//      malformed fault spec
//   4  graceful degradation: at least one protocol cell was quarantined
//      after exhausting its retries — the campaign completed every other
//      cell, campaign.json carries the failures block
//
// Precedence when several apply to one campaign: any quarantined cell
// makes the campaign exit 4 (the driver exits 4 iff a cell was
// quarantined); otherwise any hard harness failure exits 1. Code 3 is
// not used.

namespace omv::cli {

enum ExitCode : int {
  kExitOk = 0,
  kExitHarnessFailed = 1,
  kExitUsage = 2,
  kExitQuarantined = 4,
};

}  // namespace omv::cli
