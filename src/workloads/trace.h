// Trace-driven workload axis (HPDC'12 reproduction, PR 5).
//
// The paper's argument for hybrid local-storage transfer rests on the
// temporal/spatial structure of real write streams; the three built-in
// workloads (IOR, AsyncWR, CM1) are closed-form generators. This module
// opens the trace axis: a compact versioned on-disk format for timestamped
// memory-dirty / chunk-write streams, a streaming reader with bounded
// memory, a recorder that captures a trace from ANY live workload at the
// VmInstance API boundary, and a replay engine that drives recorded or
// generated streams back through VmInstance/GuestMemory/ChunkStore.
//
// Format (version 1): a short text header followed by fixed-size binary
// records, little-endian.
//
//   HMTRACE 1\n
//   key=value\n ...          (page_bytes, chunk_bytes, file_offset, pages,
//                             chunks, num_vms, records, name; unknown keys
//                             are ignored for forward compatibility)
//   \n                       (blank line ends the header)
//   <records x 40 bytes>     u64 t_bits (f64), u8 op, u8 lane, u16 vm,
//                            u32 aux, u64 a, u64 b, u64 c
//
// Record semantics by op:
//   kCompute    a=f64 guest seconds, b=f64 dirty_Bps, c=ws_bytes
//   kFileWrite  a=byte offset, b=byte length       (absolute image offsets)
//   kFileRead   a=byte offset, b=byte length
//   kFsync      -
//   kDropCache  a=byte offset, b=byte length
//   kMemDirty   a=first page, b=page count         (anon-region relative,
//                                                   header page_bytes units)
//   kChunkWrite a=first chunk, b=chunk count       (header file_offset +
//                                                   chunk_bytes addressing)
//   kChunkRead  a=first chunk, b=chunk count
//   kNetSend    a=src node, b=dst node, c=f64 bytes (app-comm transfer)
//
// Replay model: records are globally ordered by (t, file order). A single
// dispatcher issues each record at its timestamp to a per-(vm, lane) FIFO
// worker; within a lane operations run strictly sequentially, so a lane
// whose operation overruns its successor's timestamp applies natural
// backpressure instead of unbounded queueing. Lanes are the concurrency
// structure of the original workload (the recorder assigns them from op
// overlap), which is what makes a replayed run reproduce a recorded run's
// timeline bit-for-bit: same seed + same trace => byte-identical migration
// metrics, in both solver regimes (enforced by
// tests/integration/trace_replay_test.cpp and the CI sweep golden gate).
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/sync.h"
#include "sim/task.h"
#include "storage/chunk_store.h"
#include "vm/vm_instance.h"
#include "vm/workload_observer.h"

namespace hm::workloads {

enum class TraceOp : std::uint8_t {
  kCompute = 1,
  kFileWrite = 2,
  kFileRead = 3,
  kFsync = 4,
  kDropCache = 5,
  kMemDirty = 6,
  kChunkWrite = 7,
  kChunkRead = 8,
  kNetSend = 9,
};
constexpr std::uint8_t kMinTraceOp = 1;
constexpr std::uint8_t kMaxTraceOp = 9;
const char* trace_op_name(TraceOp op) noexcept;

struct TraceRecord {
  double t = 0;          // virtual issue time (seconds, non-decreasing)
  TraceOp op = TraceOp::kCompute;
  std::uint8_t lane = 0;  // concurrency slot within the vm
  std::uint16_t vm = 0;   // vm index within the trace
  std::uint32_t aux = 0;  // reserved (0 in version 1)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;

  bool operator==(const TraceRecord&) const = default;
};
constexpr std::size_t kTraceRecordBytes = 40;

struct TraceHeader {
  std::uint32_t version = 1;
  std::uint64_t page_bytes = 64 * storage::kKiB;   // kMemDirty granularity
  std::uint64_t chunk_bytes = 256 * storage::kKiB;  // kChunk* granularity
  std::uint64_t file_offset = 1 * storage::kGiB;    // kChunk* base offset
  std::uint64_t pages = 0;   // kMemDirty universe; 0 = unbounded
  std::uint64_t chunks = 0;  // kChunk* universe; 0 = unbounded
  std::uint32_t num_vms = 1;
  std::uint64_t records = 0;
  std::string name;  // free-form provenance tag
};

/// Fully materialized trace (what the recorder and generators produce).
struct TraceData {
  TraceHeader header;
  std::vector<TraceRecord> records;
};

// --- serialization -----------------------------------------------------------

void encode_trace_record(const TraceRecord& r, unsigned char out[kTraceRecordBytes]);
TraceRecord decode_trace_record(const unsigned char in[kTraceRecordBytes]);

/// Write a complete trace file. Returns false (with *err set) on I/O error.
bool write_trace(const std::string& path, const TraceData& data, std::string* err);

/// The diagnostic for record `index` of a trace with header `h`, whose
/// previous record was stamped `prev_t` (0 before the first), or empty when
/// the record is valid: a known op, vm < num_vms, a finite timestamp no
/// earlier than `prev_t`, page/chunk ranges inside the header universes
/// and finite f64 fields. Both trace sources (file and in-memory) check
/// every record with it before replay.
std::string check_trace_record(const TraceHeader& h, const TraceRecord& r, std::uint64_t index,
                               double prev_t);

/// Streaming trace reader with bounded memory: the header is parsed on
/// open(), records are decoded one at a time from a fixed-size buffer, and
/// every record is validated (check_trace_record). A malformed
/// trace — truncated header or records, bad magic/version, out-of-range
/// fields, non-monotone time, zero-length file — fails with a diagnostic in
/// error(), never UB.
class TraceReader {
 public:
  /// Parse the header; false (see error()) if the file is absent/malformed.
  bool open(const std::string& path);

  /// Next record, validated. False at clean end-of-trace or on error —
  /// check ok() to distinguish.
  bool next(TraceRecord& out);

  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }
  const TraceHeader& header() const noexcept { return header_; }
  std::uint64_t records_read() const noexcept { return read_; }

 private:
  bool fail(std::string msg);

  std::ifstream in_;
  TraceHeader header_;
  std::string error_;
  std::uint64_t read_ = 0;
  double last_t_ = 0;
  bool done_ = false;
};

/// Convenience: stream a whole file into memory. False + *err on failure.
bool load_trace(const std::string& path, TraceData* out, std::string* err);

namespace detail {

/// Coalesce an ascending index stream into maximal [first, first+count)
/// runs, emitting one `emit(first, count)` per run. Shared by the snapshot
/// helpers and the generators so run semantics cannot diverge.
template <class ForEach, class Emit>
void coalesce_runs(ForEach&& for_each, Emit&& emit) {
  std::uint64_t run_first = 0, run_len = 0;
  for_each([&](std::uint64_t i) {
    if (run_len > 0 && i == run_first + run_len) {
      ++run_len;
      return;
    }
    if (run_len > 0) emit(run_first, run_len);
    run_first = i;
    run_len = 1;
  });
  if (run_len > 0) emit(run_first, run_len);
}

}  // namespace detail

// --- capture -----------------------------------------------------------------

/// Records a trace from live workloads. Attach it to every VM of an
/// experiment (cloud::ExperimentConfig::trace_recorder does this) and the
/// run's complete workload-API call stream lands in data(), globally
/// ordered by time, with concurrency lanes reconstructed from operation
/// overlap: an op issued while another is in flight on the same VM gets a
/// different lane, so replay can preserve the original overlap structure.
/// Observation is passive — a recorded run's timeline is identical to an
/// unrecorded one.
class TraceRecorder final : public vm::WorkloadObserver {
 public:
  explicit TraceRecorder(TraceHeader header = {});

  /// Register a VM; records from it carry the next free vm index.
  void attach(vm::VmInstance& vm);

  /// Finalized view (stamps num_vms/records into the header).
  const TraceData& data();
  /// True if recording hit a structural limit (lane overflow, vm overflow).
  bool failed() const noexcept { return !error_.empty(); }
  const std::string& error() const noexcept { return error_; }

  // vm::WorkloadObserver
  std::uint32_t on_compute(vm::VmInstance& vm, double seconds, double dirty_Bps,
                           std::uint64_t ws_bytes) override;
  std::uint32_t on_file_write(vm::VmInstance& vm, std::uint64_t offset,
                              std::uint64_t len) override;
  std::uint32_t on_file_read(vm::VmInstance& vm, std::uint64_t offset,
                             std::uint64_t len) override;
  std::uint32_t on_fsync(vm::VmInstance& vm) override;
  std::uint32_t on_net_send(vm::VmInstance& vm, std::uint32_t src, std::uint32_t dst,
                            double bytes) override;
  void on_drop_cache(vm::VmInstance& vm, std::uint64_t offset, std::uint64_t len) override;
  void on_op_end(vm::VmInstance& vm, std::uint32_t lane) override;

 private:
  std::uint32_t begin_op(vm::VmInstance& vm, TraceOp op, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c);

  TraceData data_;
  std::vector<std::vector<bool>> lane_busy_;  // [vm][lane]
  std::string error_;
  std::uint32_t attached_ = 0;
};

/// Append one kMemDirty record per maximal run of currently-dirty guest
/// pages (GuestMemory::for_each_dirty_page, ascending, runs coalesced).
/// Returns the number of records appended. Page indices are stored relative
/// to `base_page`, matching replay's anon-region addressing; pages below
/// the base (e.g. the OS image or the page-cache region) are outside the
/// snapshot's window and are skipped (runs straddling the base are
/// trimmed).
std::uint64_t snapshot_dirty_pages(const vm::GuestMemory& mem, double t, std::uint16_t vm,
                                   std::uint64_t base_page, TraceData* out);

/// Same for the chunk store's ModifiedSet (ChunkStore::for_each_modified),
/// emitting kChunkWrite runs relative to `base_chunk`.
std::uint64_t snapshot_modified_chunks(const storage::ChunkStore& store, double t,
                                       std::uint16_t vm, std::uint32_t base_chunk,
                                       TraceData* out);

// --- replay ------------------------------------------------------------------

struct TraceReplayOptions {
  /// Replay every record on every VM regardless of the record's vm field —
  /// the scale-out mode for single-source traces (each VM gets its own lane
  /// set, like running N copies of the same synthetic workload). Exact
  /// replay of a multi-VM recorded trace needs broadcast=false. kNetSend
  /// records are rejected in broadcast mode (their node ids are absolute).
  bool broadcast = false;
};

/// Replays a trace through a set of VM instances. One global dispatcher
/// walks the stream in order, releasing each record at its timestamp to the
/// per-(vm, lane) FIFO worker that executes it; completion is when the
/// stream is exhausted and every lane drained. Construction from TraceData
/// (in-memory) or from a file path (single streaming reader, bounded
/// memory). Either source checks each record with check_trace_record; a
/// validation failure mid-stream stops dispatch and surfaces in error();
/// everything already issued still runs to completion.
class TraceApplication {
 public:
  TraceApplication(sim::Simulator& sim, std::vector<vm::VmInstance*> vms,
                   const TraceData& data, TraceReplayOptions opts = {});
  TraceApplication(sim::Simulator& sim, std::vector<vm::VmInstance*> vms,
                   std::string path, TraceReplayOptions opts = {});
  TraceApplication(const TraceApplication&) = delete;
  TraceApplication& operator=(const TraceApplication&) = delete;

  /// Launch the dispatcher; completes when the whole trace was applied.
  sim::Task run_all();

  bool failed() const noexcept { return !error_.empty(); }
  const std::string& error() const noexcept { return error_; }
  const TraceHeader& header() const noexcept { return header_; }
  std::uint64_t records_applied() const noexcept { return applied_; }
  double started_at() const noexcept { return t_start_; }
  double finished_at() const noexcept { return t_end_; }

 private:
  struct Lane {
    TraceApplication* app = nullptr;
    vm::VmInstance* vm = nullptr;
    std::deque<TraceRecord> q;
    bool running = false;
  };

  bool next_record(TraceRecord& out);
  bool fits_replay_target(const TraceRecord& r);
  void enqueue(std::size_t vm_idx, const TraceRecord& r);
  sim::Task dispatch();
  sim::Task lane_run(Lane* lane);

  sim::Simulator& sim_;
  std::vector<vm::VmInstance*> vms_;
  TraceReplayOptions opts_;
  const TraceData* data_ = nullptr;  // in-memory source
  std::size_t cursor_ = 0;
  std::unique_ptr<TraceReader> reader_;  // streaming source
  TraceHeader header_;
  std::vector<std::vector<std::unique_ptr<Lane>>> lanes_;  // [vm][lane]
  sim::WaitGroup done_;
  std::string error_;
  std::uint64_t applied_ = 0;
  double t_start_ = 0;
  double t_end_ = 0;
};

}  // namespace hm::workloads
