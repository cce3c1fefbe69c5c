// Command-line helpers shared by the scale sweeps and the figure driver.
#pragma once

#include <cstring>
#include <iostream>
#include <string>
#include <string_view>

#include "cli_args.h"
#include "cloud/experiment.h"
#include "cloud/report.h"
#include "cloud/scenarios.h"
#include "cloud/sweep.h"

namespace hm::bench {

using cloud::ExperimentResult;
using storage::kKiB;
using storage::kMiB;

/// Remove every `--full-solve` from argv and report whether there was one.
/// It selects the full re-solve regime (FlowNetworkConfig::incremental =
/// false), which must reproduce the incremental timeline.
inline bool take_full_solve(int& argc, char** argv) {
  bool found = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full-solve") == 0) found = true;
    else argv[kept++] = argv[i];
  }
  argc = kept;
  return found;
}

/// Print a sweep point's error and audit violations on stderr; true if it
/// has any. The sweep keeps going (the JSON stays well-formed) and its exit
/// code reports the failure.
inline bool report_failures(const char* prog, std::string_view point,
                            const ExperimentResult& r) {
  if (!r.error.empty()) std::cerr << prog << ": " << point << ": " << r.error << "\n";
  for (const std::string& v : r.audit_violations)
    std::cerr << prog << ": " << point << " AUDIT VIOLATION: " << v << "\n";
  return !r.error.empty() || !r.audit_violations.empty();
}

}  // namespace hm::bench
