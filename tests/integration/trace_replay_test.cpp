// Record→replay equivalence on the full pipeline: a live run recorded via
// TraceRecorder and then replayed through TraceApplication must reproduce
// the live run's migration metrics BYTE-identically (downtime, transferred
// bytes, per-phase/per-class traffic, whole timeline), in both solver
// regimes (incremental, and the full re-solve of the sweeps' --full-solve).
// This is the trace axis's determinism contract: the trace carries the
// workload's op stream with enough fidelity that the simulated system
// cannot tell the difference. Also pins that attaching a recorder is
// passive (recorded live run == unrecorded run).
#include <gtest/gtest.h>

#include "cloud/experiment.h"
#include "integration/result_compare.h"

namespace hm::cloud {
namespace {

using storage::kKiB;
using storage::kMiB;

ExperimentConfig base_config(int incremental) {
  ExperimentConfig cfg;
  cfg.approach = core::Approach::kHybrid;
  cfg.cluster.num_nodes = 10;
  cfg.cluster.image = storage::ImageConfig{256 * kMiB, static_cast<std::uint32_t>(kMiB)};
  cfg.cluster.disk = storage::DiskConfig{55e6, 0.0};
  cfg.cluster.network.incremental = incremental;
  cfg.vm.memory.ram_bytes = 256 * kMiB;
  cfg.vm.memory.page_bytes = kMiB;
  cfg.vm.memory.base_used_bytes = 32 * kMiB;
  cfg.vm.cache.capacity_bytes = 64 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 32 * kMiB;
  cfg.vm.cache.write_Bps = 200e6;
  cfg.max_sim_time = 600.0;
  return cfg;
}

ExperimentConfig asyncwr_config(int incremental) {
  ExperimentConfig cfg = base_config(incremental);
  cfg.workload = WorkloadKind::kAsyncWr;
  cfg.asyncwr.iterations = 40;
  cfg.asyncwr.file_offset = 64 * kMiB;
  cfg.num_vms = 2;
  cfg.num_migrations = 2;
  cfg.num_destinations = 2;
  cfg.first_migration_at = 1.5;
  cfg.migration_interval_s = 1.0;
  return cfg;
}

ExperimentConfig cm1_config(int incremental) {
  ExperimentConfig cfg = base_config(incremental);
  cfg.workload = WorkloadKind::kCm1;
  cfg.cm1.grid_x = 2;
  cfg.cm1.grid_y = 2;
  cfg.cm1.step_compute_s = 0.5;
  cfg.cm1.steps_per_output = 2;
  cfg.cm1.num_outputs = 2;
  cfg.cm1.output_bytes = 8 * kMiB;
  cfg.cm1.halo_bytes = 256 * kKiB;
  cfg.cm1.file_offset = 64 * kMiB;
  cfg.cm1.dirty_Bps = 1e6;
  cfg.cm1.ws_bytes = 16 * kMiB;
  cfg.num_migrations = 2;
  cfg.num_destinations = 2;
  cfg.first_migration_at = 1.0;
  cfg.migration_interval_s = 0.7;
  return cfg;
}

void run_roundtrip(ExperimentConfig cfg) {
  // Baseline: the same live run without a recorder — observation must be
  // passive.
  const ExperimentResult unrecorded = Experiment(cfg).run();

  workloads::TraceRecorder recorder;
  ExperimentConfig rec_cfg = cfg;
  rec_cfg.trace_recorder = &recorder;
  const ExperimentResult live = Experiment(rec_cfg).run();
  ASSERT_TRUE(live.completed);
  ASSERT_TRUE(live.error.empty()) << live.error;
  // The comparison must not be vacuous: migrations ran and paused the VM.
  ASSERT_EQ(live.migrations.size(), cfg.num_migrations);
  EXPECT_GT(live.max_downtime, 0.0);
  EXPECT_GT(live.traffic(net::TrafficClass::kMemory), 0.0);
  expect_virtual_fields_equal(unrecorded, live);

  const workloads::TraceData& trace = recorder.data();
  ASSERT_FALSE(recorder.failed()) << recorder.error();
  ASSERT_GT(trace.records.size(), 0u);

  cfg.normalize();  // pin num_vms before switching the workload kind
  ExperimentConfig replay_cfg = cfg;
  replay_cfg.workload = WorkloadKind::kTrace;
  replay_cfg.trace.data = &trace;
  replay_cfg.trace.broadcast = false;
  const ExperimentResult rep = Experiment(replay_cfg).run();
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  ASSERT_TRUE(rep.completed);
  expect_virtual_fields_equal(live, rep);
}

TEST(TraceReplay, AsyncWrByteIdenticalIncremental) { run_roundtrip(asyncwr_config(1)); }
TEST(TraceReplay, AsyncWrByteIdenticalFullSolve) { run_roundtrip(asyncwr_config(0)); }
TEST(TraceReplay, Cm1ByteIdenticalIncremental) { run_roundtrip(cm1_config(1)); }
TEST(TraceReplay, Cm1ByteIdenticalFullSolve) { run_roundtrip(cm1_config(0)); }

// Replaying through a trace FILE (streaming reader) is equivalent to
// replaying the in-memory data.
TEST(TraceReplay, FileReplayMatchesInMemoryReplay) {
  ExperimentConfig cfg = asyncwr_config(1);
  workloads::TraceRecorder recorder;
  ExperimentConfig rec_cfg = cfg;
  rec_cfg.trace_recorder = &recorder;
  const ExperimentResult live = Experiment(rec_cfg).run();
  ASSERT_TRUE(live.completed);
  const workloads::TraceData& trace = recorder.data();

  const std::string path = ::testing::TempDir() + "trace_replay_roundtrip.trace";
  std::string err;
  ASSERT_TRUE(workloads::write_trace(path, trace, &err)) << err;

  cfg.normalize();
  ExperimentConfig replay_cfg = cfg;
  replay_cfg.workload = WorkloadKind::kTrace;
  replay_cfg.trace.path = path;
  replay_cfg.trace.broadcast = false;
  const ExperimentResult rep = Experiment(replay_cfg).run();
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  expect_virtual_fields_equal(live, rep);
  std::remove(path.c_str());
}

// A replay failure inside the run surfaces through the one-slice merge: the
// reader's diagnostic lands in `error` and the run is marked incomplete.
TEST(TraceReplay, UnreadableTraceReportsErrorAtOneShard) {
  ExperimentConfig cfg = asyncwr_config(1);
  cfg.workload = WorkloadKind::kTrace;
  cfg.trace.path = ::testing::TempDir() + "no_such_trace.trace";
  cfg.trace.broadcast = true;
  cfg.shards = 1;
  const ExperimentResult res = Experiment(cfg).run();
  EXPECT_FALSE(res.completed);
  EXPECT_NE(res.error.find("cannot open trace"), std::string::npos) << res.error;
  EXPECT_EQ(res.shards_used, 1u);
}

// In-memory traces are checked record by record like trace files: a
// malformed record fails the run with the reader's diagnostic.
TEST(TraceReplay, InMemoryTraceIsValidatedLikeATraceFile) {
  workloads::TraceRecord unknown_op;
  unknown_op.t = 1.0;
  unknown_op.op = static_cast<workloads::TraceOp>(42);
  workloads::TraceRecord fsync;
  fsync.t = 1.0;
  fsync.op = workloads::TraceOp::kFsync;
  workloads::TraceRecord earlier = fsync;
  earlier.t = 0.5;
  const std::pair<std::vector<workloads::TraceRecord>, const char*> cases[] = {
      {{unknown_op, earlier}, "unknown op 42 (record 0)"},
      {{fsync, earlier}, "non-monotone or non-finite timestamp 0.500000 (record 1)"},
  };
  for (const auto& [records, diagnostic] : cases) {
    SCOPED_TRACE(diagnostic);
    workloads::TraceData trace;
    trace.records = records;
    trace.header.records = records.size();
    ExperimentConfig cfg = asyncwr_config(1);
    cfg.workload = WorkloadKind::kTrace;
    cfg.trace.data = &trace;
    const ExperimentResult in_memory = Experiment(cfg).run();
    EXPECT_FALSE(in_memory.completed);
    EXPECT_EQ(in_memory.error, diagnostic);

    const std::string path = ::testing::TempDir() + "trace_replay_invalid.trace";
    std::string err;
    ASSERT_TRUE(workloads::write_trace(path, trace, &err)) << err;
    cfg.trace.data = nullptr;
    cfg.trace.path = path;
    const ExperimentResult from_file = Experiment(cfg).run();
    EXPECT_FALSE(from_file.completed);
    EXPECT_EQ(from_file.error, diagnostic);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace hm::cloud
