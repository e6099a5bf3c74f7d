// omnivar — the unified campaign driver.
//
// Links every bench harness's registration and runs the selected subset as
// one campaign:
//
//   omnivar --list                          # name every harness
//   omnivar --only 'fig*' --jobs 0 --out campaign/
//   omnivar --only fig3 --out campaign/     # re-run: served from cache
//
// Harness reports go to stdout in registry order at every --jobs width;
// driver progress and cache statistics go to stderr; JSON artifacts and
// the spec-hash result cache land under --out.

#include "cli/campaign.hpp"

int main(int argc, char** argv) {
  return omv::cli::run_campaign(argc, argv);
}
