// Trace format, reader validation (malformed inputs must fail with a
// diagnostic, never UB — this file also runs under the ASan CI job),
// generators, snapshot helpers and single-VM replay behaviour.
#include "workloads/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "core/migration_manager.h"
#include "workloads/trace_gen.h"

namespace hm::workloads {
namespace {

using storage::kKiB;
using storage::kMiB;

std::string tmp_path(const std::string& name) { return ::testing::TempDir() + name; }

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TraceData small_trace() {
  TraceData data;
  data.header.page_bytes = kMiB;
  data.header.chunk_bytes = kMiB;
  data.header.file_offset = 64 * kMiB;
  data.header.pages = 16;
  data.header.chunks = 16;
  data.header.name = "unit";
  TraceRecord r;
  r.op = TraceOp::kMemDirty;
  r.t = 0.25;
  r.a = 3;
  r.b = 2;
  data.records.push_back(r);
  r.op = TraceOp::kChunkWrite;
  r.t = 0.5;
  r.lane = 2;
  r.a = 7;
  r.b = 1;
  data.records.push_back(r);
  data.header.records = data.records.size();
  return data;
}

// --- format ------------------------------------------------------------------

TEST(TraceFormat, RecordEncodeDecodeRoundTrip) {
  TraceRecord r;
  r.t = 123.456789;
  r.op = TraceOp::kNetSend;
  r.lane = 7;
  r.vm = 513;
  r.aux = 0xdeadbeef;
  r.a = 0x0123456789abcdefULL;
  r.b = ~std::uint64_t{0};
  r.c = std::bit_cast<std::uint64_t>(3.25e9);
  unsigned char buf[kTraceRecordBytes];
  encode_trace_record(r, buf);
  EXPECT_EQ(decode_trace_record(buf), r);
}

TEST(TraceFormat, WriteLoadRoundTrip) {
  const TraceData data = small_trace();
  const std::string path = tmp_path("trace_roundtrip.trace");
  std::string err;
  ASSERT_TRUE(write_trace(path, data, &err)) << err;
  TraceData loaded;
  ASSERT_TRUE(load_trace(path, &loaded, &err)) << err;
  EXPECT_EQ(loaded.header.page_bytes, data.header.page_bytes);
  EXPECT_EQ(loaded.header.chunk_bytes, data.header.chunk_bytes);
  EXPECT_EQ(loaded.header.file_offset, data.header.file_offset);
  EXPECT_EQ(loaded.header.pages, data.header.pages);
  EXPECT_EQ(loaded.header.chunks, data.header.chunks);
  EXPECT_EQ(loaded.header.num_vms, data.header.num_vms);
  EXPECT_EQ(loaded.header.name, data.header.name);
  EXPECT_EQ(loaded.records, data.records);
}

TEST(TraceFormat, StreamingReaderMatchesLoad) {
  const TraceData data = small_trace();
  const std::string path = tmp_path("trace_stream.trace");
  std::string err;
  ASSERT_TRUE(write_trace(path, data, &err)) << err;
  TraceReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  TraceRecord r;
  std::size_t n = 0;
  while (reader.next(r)) {
    ASSERT_LT(n, data.records.size());
    EXPECT_EQ(r, data.records[n]);
    ++n;
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(n, data.records.size());
}

// --- malformed inputs --------------------------------------------------------

void expect_open_fails(const std::string& path, const std::string& needle) {
  TraceReader reader;
  EXPECT_FALSE(reader.open(path));
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find(needle), std::string::npos) << reader.error();
}

/// Open succeeds but the record stream must fail with a diagnostic.
void expect_stream_fails(const std::string& path, const std::string& needle) {
  TraceReader reader;
  ASSERT_TRUE(reader.open(path)) << reader.error();
  TraceRecord r;
  while (reader.next(r)) {
  }
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find(needle), std::string::npos) << reader.error();
}

TEST(TraceMalformed, ZeroLengthFile) {
  const std::string path = tmp_path("trace_empty.trace");
  write_file(path, "");
  expect_open_fails(path, "empty trace file");
}

TEST(TraceMalformed, MissingFile) {
  expect_open_fails(tmp_path("no_such_trace.trace"), "cannot open");
}

TEST(TraceMalformed, BadMagic) {
  const std::string path = tmp_path("trace_magic.trace");
  write_file(path, "NOTATRACE 1\nrecords=0\n\n");
  expect_open_fails(path, "bad magic");
}

TEST(TraceMalformed, UnsupportedVersion) {
  const std::string path = tmp_path("trace_version.trace");
  write_file(path, "HMTRACE 2\nrecords=0\n\n");
  expect_open_fails(path, "unsupported trace version");
}

TEST(TraceMalformed, TruncatedHeader) {
  const std::string path = tmp_path("trace_trunchdr.trace");
  write_file(path, "HMTRACE 1\npage_bytes=65536\n");  // no blank line, no records=
  expect_open_fails(path, "truncated header");
}

TEST(TraceMalformed, MissingRecordCount) {
  const std::string path = tmp_path("trace_norecords.trace");
  write_file(path, "HMTRACE 1\npage_bytes=65536\n\n");
  expect_open_fails(path, "records=");
}

TEST(TraceMalformed, HugeRecordCountFailsInsteadOfAborting) {
  // An absurd records= value must surface as a truncated-stream diagnostic,
  // not a length_error/bad_alloc from pre-reserving the vector.
  const std::string path = tmp_path("trace_hugecount.trace");
  write_file(path, "HMTRACE 1\nrecords=1152921504606846976\n\n");
  TraceData data;
  std::string err;
  EXPECT_FALSE(load_trace(path, &data, &err));
  EXPECT_NE(err.find("truncated record stream"), std::string::npos) << err;
}

TEST(TraceMalformed, NonNumericHeaderValue) {
  const std::string path = tmp_path("trace_nonnum.trace");
  write_file(path, "HMTRACE 1\npage_bytes=lots\nrecords=0\n\n");
  expect_open_fails(path, "non-numeric");
}

TEST(TraceMalformed, TruncatedRecordStream) {
  const std::string path = tmp_path("trace_truncrec.trace");
  std::string err;
  ASSERT_TRUE(write_trace(path, small_trace(), &err)) << err;
  const std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - kTraceRecordBytes / 2));
  expect_stream_fails(path, "truncated record stream");
}

TEST(TraceMalformed, TrailingData) {
  const std::string path = tmp_path("trace_trailing.trace");
  std::string err;
  ASSERT_TRUE(write_trace(path, small_trace(), &err)) << err;
  write_file(path, read_file(path) + "extra");
  expect_stream_fails(path, "trailing data");
}

TraceData with_record(TraceRecord r) {
  TraceData data = small_trace();
  data.records.push_back(r);
  data.header.records = data.records.size();
  return data;
}

TEST(TraceMalformed, OutOfRangePageIndex) {
  TraceRecord r;
  r.t = 1.0;
  r.op = TraceOp::kMemDirty;
  r.a = 15;
  r.b = 2;  // [15, 17) but pages=16
  const std::string path = tmp_path("trace_badpage.trace");
  std::string err;
  ASSERT_TRUE(write_trace(path, with_record(r), &err)) << err;
  expect_stream_fails(path, "page range");
}

TEST(TraceMalformed, OutOfRangeChunkIndex) {
  TraceRecord r;
  r.t = 1.0;
  r.op = TraceOp::kChunkRead;
  r.a = 400;
  r.b = 1;
  const std::string path = tmp_path("trace_badchunk.trace");
  std::string err;
  ASSERT_TRUE(write_trace(path, with_record(r), &err)) << err;
  expect_stream_fails(path, "chunk range");
}

TEST(TraceMalformed, OutOfRangeVmIndex) {
  TraceRecord r;
  r.t = 1.0;
  r.op = TraceOp::kFsync;
  r.vm = 3;  // num_vms = 1
  const std::string path = tmp_path("trace_badvm.trace");
  std::string err;
  ASSERT_TRUE(write_trace(path, with_record(r), &err)) << err;
  expect_stream_fails(path, "vm index");
}

TEST(TraceMalformed, NonMonotoneTimestamps) {
  TraceRecord r;
  r.t = 0.1;  // earlier than the 0.5 before it
  r.op = TraceOp::kFsync;
  const std::string path = tmp_path("trace_nonmono.trace");
  std::string err;
  ASSERT_TRUE(write_trace(path, with_record(r), &err)) << err;
  expect_stream_fails(path, "non-monotone");
}

TEST(TraceMalformed, NonFiniteTimestamp) {
  TraceRecord r;
  r.t = std::numeric_limits<double>::quiet_NaN();
  r.op = TraceOp::kFsync;
  const std::string path = tmp_path("trace_nan.trace");
  std::string err;
  ASSERT_TRUE(write_trace(path, with_record(r), &err)) << err;
  expect_stream_fails(path, "timestamp");
}

TEST(TraceMalformed, UnknownOp) {
  TraceRecord r;
  r.t = 1.0;
  r.op = static_cast<TraceOp>(200);
  const std::string path = tmp_path("trace_badop.trace");
  std::string err;
  ASSERT_TRUE(write_trace(path, with_record(r), &err)) << err;
  expect_stream_fails(path, "unknown op");
}

TEST(TraceMalformed, NonFiniteComputeSeconds) {
  TraceRecord r;
  r.t = 1.0;
  r.op = TraceOp::kCompute;
  r.a = std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
  const std::string path = tmp_path("trace_badcompute.trace");
  std::string err;
  ASSERT_TRUE(write_trace(path, with_record(r), &err)) << err;
  expect_stream_fails(path, "compute");
}

// --- generators --------------------------------------------------------------

TEST(TraceGen, DeterministicForSpecAndSeed) {
  TraceGenSpec spec;
  spec.duration_s = 5.0;
  const TraceData a = generate_trace(spec, 7);
  const TraceData b = generate_trace(spec, 7);
  const TraceData c = generate_trace(spec, 8);
  EXPECT_EQ(a.records, b.records);
  EXPECT_NE(a.records, c.records);
}

TEST(TraceGen, ZipfSamplerIsSkewedAndBounded) {
  ZipfSampler zipf(1024, 0.99);
  sim::Rng rng(1);
  std::vector<std::uint64_t> hits(1024, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = zipf.sample(rng);
    ASSERT_LT(v, 1024u);
    ++hits[v];
  }
  EXPECT_GT(hits[0], hits[100] * 5);  // heavy head
  EXPECT_GT(hits[0], 400u);
}

TEST(TraceGen, UniformThetaIsNotSkewed) {
  ZipfSampler uni(64, 0.0);
  sim::Rng rng(1);
  std::vector<std::uint64_t> hits(64, 0);
  for (int i = 0; i < 64000; ++i) ++hits[uni.sample(rng)];
  for (std::uint64_t h : hits) EXPECT_NEAR(static_cast<double>(h), 1000.0, 250.0);
}

TEST(TraceGen, PhaseShiftRelocatesHotSet) {
  TraceGenSpec spec;
  spec.pattern = TracePattern::kPhaseShift;
  spec.duration_s = 30.0;
  spec.phase_s = 15.0;
  spec.zipf_theta = 2.0;  // draws concentrate near the window base
  std::set<std::uint64_t> first_phase, second_phase;
  for (const TraceRecord& r : generate_trace(spec, 42).records) {
    if (r.op != TraceOp::kMemDirty) continue;
    (r.t < spec.phase_s ? first_phase : second_phase).insert(r.a);
  }
  ASSERT_FALSE(first_phase.empty());
  ASSERT_FALSE(second_phase.empty());
  // The hot window moved by one window size: the dominant pages differ.
  EXPECT_NE(*first_phase.begin(), *second_phase.begin());
}

TEST(TraceGen, BurstConfinesChunkWritesToDutyCycle) {
  TraceGenSpec spec;
  spec.pattern = TracePattern::kBurst;
  spec.duration_s = 40.0;
  spec.burst_on_s = 2.0;
  spec.burst_off_s = 8.0;
  std::uint64_t writes = 0;
  for (const TraceRecord& r : generate_trace(spec, 42).records) {
    if (r.op != TraceOp::kChunkWrite) continue;
    ++writes;
    const double in_cycle = std::fmod(r.t, spec.burst_on_s + spec.burst_off_s);
    // One step of accumulator carry-over may land just past the window.
    EXPECT_LT(in_cycle, spec.burst_on_s + spec.dt_s) << "write at t=" << r.t;
  }
  EXPECT_GT(writes, 0u);
}

TEST(TraceGen, ScanSweepsSequentially) {
  TraceGenSpec spec;
  spec.pattern = TracePattern::kSequentialScan;
  spec.duration_s = 20.0;
  std::uint64_t expect_next = 0;
  bool any = false;
  for (const TraceRecord& r : generate_trace(spec, 42).records) {
    if (r.op != TraceOp::kChunkWrite) continue;
    EXPECT_EQ(r.a, expect_next);
    expect_next = (r.a + r.b) % spec.chunks;
    any = true;
  }
  EXPECT_TRUE(any);
}

TEST(TraceGen, GeneratedTracesPassValidation) {
  for (TracePattern p : {TracePattern::kZipfian, TracePattern::kPhaseShift,
                         TracePattern::kBurst, TracePattern::kSequentialScan}) {
    TraceGenSpec spec;
    spec.pattern = p;
    spec.duration_s = 10.0;
    spec.read_fraction = 0.25;
    const TraceData data = generate_trace(spec, 42);
    const std::string path = tmp_path("trace_gen_valid.trace");
    std::string err;
    ASSERT_TRUE(write_trace(path, data, &err)) << err;
    TraceData loaded;
    EXPECT_TRUE(load_trace(path, &loaded, &err)) << trace_pattern_name(p) << ": " << err;
    EXPECT_EQ(loaded.records.size(), data.records.size());
  }
}

TEST(TraceGen, ParseSpecPatternsAndOverrides) {
  TraceSourceConfig src;
  std::string err;
  ASSERT_TRUE(parse_trace_spec("zipf:theta=0.5,dur=10,chunks=64", &src, &err)) << err;
  EXPECT_EQ(src.gen.pattern, TracePattern::kZipfian);
  EXPECT_DOUBLE_EQ(src.gen.zipf_theta, 0.5);
  EXPECT_DOUBLE_EQ(src.gen.duration_s, 10.0);
  EXPECT_EQ(src.gen.chunks, 64u);

  TraceSourceConfig prefixed;
  ASSERT_TRUE(parse_trace_spec("trace:burst:on=1,off=4", &prefixed, &err)) << err;
  EXPECT_EQ(prefixed.gen.pattern, TracePattern::kBurst);
  EXPECT_DOUBLE_EQ(prefixed.gen.burst_on_s, 1.0);

  TraceSourceConfig file;
  ASSERT_TRUE(parse_trace_spec("file=/some/path.trace", &file, &err)) << err;
  EXPECT_EQ(file.path, "/some/path.trace");

  TraceSourceConfig bad;
  EXPECT_FALSE(parse_trace_spec("nope", &bad, &err));
  EXPECT_NE(err.find("unknown pattern"), std::string::npos);
  EXPECT_FALSE(parse_trace_spec("zipf:bogus=1", &bad, &err));
  EXPECT_NE(err.find("unknown key"), std::string::npos);
}

// Out-of-range numbers are rejected with a diagnostic before any of them
// reaches an integer cast or the generator (a negative count or duration
// used to abort or hang it).
TEST(TraceGen, ParseSpecRejectsOutOfRangeValues) {
  const std::pair<const char*, const char*> cases[] = {
      {"zipf:chunks=-1", "'chunks' must be an integer in [1, 16777216]"},
      {"zipf:chunks=2.5", "'chunks' must be an integer"},
      {"zipf:pages=1e30", "'pages' must be an integer"},
      {"zipf:page_kib=0", "'page_kib' must be an integer in [1,"},
      {"zipf:chunk_kib=0", "'chunk_kib' must be an integer in [1,"},
      {"zipf:offset_mib=-1", "'offset_mib' must be an integer in [0,"},
      {"zipf:dur=-5", "'dur' must be a finite number > 0"},
      {"zipf:dt=0", "'dt' must be a finite number > 0"},
      {"burst:mult=-2", "'mult' must be a finite number >= 0"},
      {"zipf:theta=nan", "'theta' must be a finite number >= 0"},
      {"zipf:theta=inf", "'theta' must be a finite number >= 0"},
      {"phase:hot=2", "'hot' must be a finite number in [0, 1]"},
      {"zipf:read_frac=-1", "'read_frac' must be a finite number in [0, 1]"},
      {"zipf:compute=1.5", "'compute' must be a finite number in [0, 1]"},
      {"zipf:mem_mbps=-3", "'mem_mbps' must be a finite number >= 0"},
      {"zipf:dur=1e9", "dur / dt (steps) must be at most 16777216"},
      {"phase:phase=1e-9", "dur / phase (phase shifts) must be at most"},
      {"zipf:write_mbps=1e300", "chunk draws per step) must be at most"},
  };
  for (const auto& [spec, want] : cases) {
    TraceSourceConfig src;
    std::string err;
    EXPECT_FALSE(parse_trace_spec(spec, &src, &err)) << spec;
    EXPECT_EQ(err.rfind("trace spec: ", 0), 0u) << spec << ": " << err;
    EXPECT_NE(err.find(want), std::string::npos) << spec << ": " << err;
  }
  // The edges of each range are accepted.
  TraceSourceConfig src;
  std::string err;
  EXPECT_TRUE(parse_trace_spec("phase:hot=1,read_frac=0,theta=0,mult=0,chunks=1,pages=16777216",
                               &src, &err))
      << err;
  EXPECT_EQ(src.gen.pages, 16777216u);
  EXPECT_EQ(src.gen.chunks, 1u);
}

// --- replay ------------------------------------------------------------------

vm::ClusterConfig small_cluster() {
  vm::ClusterConfig cfg;
  cfg.num_nodes = 6;
  cfg.nic_Bps = 100e6;
  cfg.image = storage::ImageConfig{512 * kMiB, static_cast<std::uint32_t>(kMiB)};
  cfg.disk = storage::DiskConfig{55e6, 0.0};
  return cfg;
}

vm::VmConfig small_vm() {
  vm::VmConfig cfg;
  cfg.memory.ram_bytes = 512 * kMiB;
  cfg.memory.page_bytes = kMiB;
  cfg.memory.base_used_bytes = 32 * kMiB;
  cfg.cache.capacity_bytes = 128 * kMiB;
  cfg.cache.dirty_limit_bytes = 64 * kMiB;
  cfg.cache.write_Bps = 200e6;
  cfg.cache.read_Bps = 1e9;
  return cfg;
}

struct ReplayFixture {
  sim::Simulator s;
  vm::Cluster cluster;
  core::MigrationManager mgr;
  vm::VmInstance vm;
  ReplayFixture()
      : cluster(s, small_cluster()),
        mgr(s, cluster, 0, 0),
        vm(s, cluster, 0, 0, mgr, small_vm()) {}

  /// What one replay left behind.
  struct Replay {
    bool done = false;
    std::string error;
    std::uint64_t records_applied = 0;
    double finished_at = 0;
    bool failed() const noexcept { return !error.empty(); }
  };

  /// Replay `source` (TraceData or a file path) on this fixture's one VM
  /// and run the simulation to quiescence.
  template <class Source>
  Replay replay(const Source& source, TraceReplayOptions opts = {.broadcast = true}) {
    TraceApplication app(s, {&vm}, source, opts);
    Replay out;
    s.spawn([](TraceApplication* a, bool* d) -> sim::Task {
      co_await a->run_all();
      *d = true;
    }(&app, &out.done));
    s.run();
    out.error = app.error();
    out.records_applied = app.records_applied();
    out.finished_at = app.finished_at();
    return out;
  }
};

/// Trace with explicit chunk writes + page dirties, no compute.
TraceData replay_trace() {
  TraceData data;
  data.header.page_bytes = kMiB;
  data.header.chunk_bytes = kMiB;
  data.header.file_offset = 64 * kMiB;
  data.header.pages = 64;
  data.header.chunks = 32;
  TraceRecord r;
  r.op = TraceOp::kMemDirty;
  r.t = 0.1;
  r.a = 0;
  r.b = 8;
  data.records.push_back(r);
  r.op = TraceOp::kChunkWrite;
  r.t = 0.2;
  r.lane = 2;
  r.a = 0;
  r.b = 16;
  data.records.push_back(r);
  r.op = TraceOp::kChunkRead;
  r.t = 0.5;
  r.lane = 3;
  r.a = 0;
  r.b = 4;
  data.records.push_back(r);
  data.header.records = data.records.size();
  return data;
}

TEST(TraceReplayUnit, AppliesChunkAndMemoryRecords) {
  const TraceData data = replay_trace();
  ReplayFixture f;
  const std::uint64_t dirty_before = f.vm.memory().dirty_bytes();
  const ReplayFixture::Replay res = f.replay(data);
  ASSERT_TRUE(res.done);
  EXPECT_FALSE(res.failed()) << res.error;
  EXPECT_EQ(res.records_applied, data.records.size());
  EXPECT_DOUBLE_EQ(f.vm.io_stats().bytes_written, 16.0 * kMiB);
  EXPECT_DOUBLE_EQ(f.vm.io_stats().bytes_read, 4.0 * kMiB);
  // 8 pages of anon memory dirtied on top of the baseline (the chunk writes
  // dirty page-cache pages too, so >=).
  EXPECT_GE(f.vm.memory().dirty_bytes(), dirty_before + 8 * kMiB);
}

TEST(TraceReplayUnit, ReplayIsDeterministic) {
  const TraceData data = replay_trace();
  double finished[2];
  for (int i = 0; i < 2; ++i) {
    ReplayFixture f;
    const ReplayFixture::Replay res = f.replay(data);
    ASSERT_TRUE(res.done);
    finished[i] = res.finished_at;
  }
  EXPECT_EQ(finished[0], finished[1]);
}

TEST(TraceReplayUnit, RespectsRunGate) {
  TraceData data;
  data.header.pages = 4;
  data.header.chunks = 4;
  TraceRecord r;
  r.op = TraceOp::kCompute;
  r.t = 0.0;
  r.a = std::bit_cast<std::uint64_t>(0.5);
  r.b = std::bit_cast<std::uint64_t>(0.0);
  data.records.push_back(r);
  data.header.records = 1;

  ReplayFixture f;
  f.s.schedule(0.1, [&] { f.vm.pause(); });
  f.s.schedule(1.1, [&] { f.vm.resume(); });
  const ReplayFixture::Replay res = f.replay(data);
  ASSERT_TRUE(res.done);
  // 0.5 s of compute stretched by the 1 s pause.
  EXPECT_NEAR(res.finished_at, 1.5, 0.2);
}

TEST(TraceReplayUnit, BroadcastRejectsNetSend) {
  TraceData data;
  TraceRecord r;
  r.op = TraceOp::kNetSend;
  r.t = 0.0;
  r.a = 0;
  r.b = 1;
  r.c = std::bit_cast<std::uint64_t>(1e6);
  data.records.push_back(r);
  data.header.records = 1;
  ReplayFixture f;
  const ReplayFixture::Replay res = f.replay(data);  // broadcast by default
  ASSERT_TRUE(res.done);
  EXPECT_TRUE(res.failed());
  EXPECT_NE(res.error.find("broadcast"), std::string::npos) << res.error;
}

TEST(TraceReplayUnit, GeometryLargerThanReplayImageIsErrorNotUB) {
  // A valid trace recorded on a bigger machine: chunk region beyond the
  // replay fixture's 512 MiB image. Replay must fail with a diagnostic
  // instead of handing out-of-range chunk ids to the storage layer.
  TraceData data;
  data.header.chunk_bytes = kMiB;
  data.header.file_offset = storage::kGiB;  // outside the 512 MiB image
  data.header.chunks = 16;
  TraceRecord r;
  r.op = TraceOp::kChunkWrite;
  r.t = 0.0;
  r.lane = 2;
  r.a = 0;
  r.b = 1;
  data.records.push_back(r);
  data.header.records = 1;
  ReplayFixture f;
  const ReplayFixture::Replay res = f.replay(data);
  ASSERT_TRUE(res.done);
  EXPECT_TRUE(res.failed());
  EXPECT_NE(res.error.find("outside the replay image"), std::string::npos) << res.error;

  TraceData net;
  TraceRecord s;
  s.op = TraceOp::kNetSend;
  s.t = 0.0;
  s.a = 0;
  s.b = 4000;  // node id outside the 6-node cluster
  s.c = std::bit_cast<std::uint64_t>(1e6);
  net.records.push_back(s);
  net.header.records = 1;
  ReplayFixture f2;
  TraceReplayOptions exact;
  exact.broadcast = false;
  const ReplayFixture::Replay res2 = f2.replay(net, exact);
  ASSERT_TRUE(res2.done);
  EXPECT_TRUE(res2.failed());
  EXPECT_NE(res2.error.find("outside the replay cluster"), std::string::npos) << res2.error;
}

TEST(TraceReplayUnit, MissingFileSurfacesError) {
  ReplayFixture f;
  const ReplayFixture::Replay res = f.replay(tmp_path("definitely_missing.trace"));
  ASSERT_TRUE(res.done);
  EXPECT_TRUE(res.failed());
  EXPECT_NE(res.error.find("cannot open"), std::string::npos) << res.error;
}

// --- committed reference trace ----------------------------------------------

#ifdef HM_GOLDEN_DIR
// The checked-in golden trace must stay loadable and replay
// deterministically: a format change that breaks old traces (or a replay
// change that shifts their timeline) fails here before it reaches the CI
// sweep gate.
TEST(TraceGolden, ReferenceTraceLoadsAndReplaysDeterministically) {
  const std::string path = std::string(HM_GOLDEN_DIR) + "/trace_zipf_small.trace";
  TraceData data;
  std::string err;
  ASSERT_TRUE(load_trace(path, &data, &err)) << err;
  EXPECT_EQ(data.header.version, 1u);
  EXPECT_EQ(data.header.num_vms, 1u);
  EXPECT_GT(data.records.size(), 100u);

  double finished[2];
  double written[2];
  for (int i = 0; i < 2; ++i) {
    ReplayFixture f;
    const ReplayFixture::Replay res = f.replay(data);
    ASSERT_TRUE(res.done);
    ASSERT_FALSE(res.failed()) << res.error;
    EXPECT_EQ(res.records_applied, data.records.size());
    finished[i] = res.finished_at;
    written[i] = f.vm.io_stats().bytes_written;
  }
  EXPECT_EQ(finished[0], finished[1]);
  EXPECT_EQ(written[0], written[1]);
  EXPECT_GT(written[0], 0.0);
}
#endif

// --- snapshots over the iteration hooks --------------------------------------

TEST(TraceSnapshot, DirtyPagesCoalescedIntoRuns) {
  vm::GuestMemoryConfig mcfg;
  mcfg.ram_bytes = 256 * kMiB;
  mcfg.page_bytes = kMiB;
  mcfg.base_used_bytes = 0;
  vm::GuestMemory mem(mcfg);
  // Two runs, one spanning the word-63/64 boundary.
  mem.touch_range(63 * kMiB, 3 * kMiB);  // pages 63, 64, 65
  mem.touch_range(10 * kMiB, kMiB);      // page 10
  TraceData out;
  EXPECT_EQ(snapshot_dirty_pages(mem, 1.0, 0, /*base_page=*/0, &out), 2u);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].a, 10u);
  EXPECT_EQ(out.records[0].b, 1u);
  EXPECT_EQ(out.records[1].a, 63u);
  EXPECT_EQ(out.records[1].b, 3u);
  EXPECT_EQ(out.records[0].op, TraceOp::kMemDirty);
}

TEST(TraceSnapshot, PagesBelowBaseAreSkippedAndStraddlingRunsTrimmed) {
  vm::GuestMemoryConfig mcfg;
  mcfg.ram_bytes = 256 * kMiB;
  mcfg.page_bytes = kMiB;
  mcfg.base_used_bytes = 0;
  vm::GuestMemory mem(mcfg);
  mem.touch_range(2 * kMiB, 2 * kMiB);   // pages 2-3: entirely below the base
  mem.touch_range(98 * kMiB, 5 * kMiB);  // pages 98-102: straddles base 100
  mem.touch_range(120 * kMiB, kMiB);     // page 120: fully inside the window
  TraceData out;
  EXPECT_EQ(snapshot_dirty_pages(mem, 1.0, 0, /*base_page=*/100, &out), 2u);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].a, 0u);  // pages 100-102 -> window-relative 0-2
  EXPECT_EQ(out.records[0].b, 3u);
  EXPECT_EQ(out.records[1].a, 20u);  // page 120 -> window-relative 20
  EXPECT_EQ(out.records[1].b, 1u);
}

TEST(TraceSnapshot, ModifiedChunksCoalescedIntoRuns) {
  sim::Simulator s;
  storage::Disk disk(s, storage::DiskConfig{100e6, 0.0});
  storage::ChunkStore store(s, disk, storage::ImageConfig{128 * kMiB,
                                                          static_cast<std::uint32_t>(kMiB)});
  s.spawn([](storage::ChunkStore* st) -> sim::Task {
    co_await st->write_chunk(63);
    co_await st->write_chunk(64);
    co_await st->write_chunk(65);
    co_await st->write_chunk(100);
  }(&store));
  s.run();
  TraceData out;
  EXPECT_EQ(snapshot_modified_chunks(store, 2.0, 0, /*base_chunk=*/0, &out), 2u);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].a, 63u);
  EXPECT_EQ(out.records[0].b, 3u);
  EXPECT_EQ(out.records[1].a, 100u);
  EXPECT_EQ(out.records[1].b, 1u);
  EXPECT_EQ(out.records[0].op, TraceOp::kChunkWrite);
}

}  // namespace
}  // namespace hm::workloads
