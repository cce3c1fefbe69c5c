// Exact result comparison for the determinism tests: a rerun, another shard
// count or solver regime must land on the identical bit pattern.
#pragma once

#include <gtest/gtest.h>

#include "cloud/experiment.h"
#include "cloud/report.h"

namespace hm::cloud {

/// Every virtual (class-free) field of the result-field table and every
/// migration record. The table's *_gb fields are bytes / 2^30, an exact
/// scaling, so they compare bytes.
inline void expect_virtual_fields_equal(const ExperimentResult& a, const ExperimentResult& b) {
  for (const ResultField& f : result_fields())
    if (f.classes == 0) EXPECT_EQ(f.get(a), f.get(b)) << f.name;
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i)
    EXPECT_TRUE(a.migrations[i] == b.migrations[i]) << "migration " << i;
}

}  // namespace hm::cloud
