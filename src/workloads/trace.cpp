#include "workloads/trace.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace hm::workloads {

namespace {

constexpr char kMagic[] = "HMTRACE";

void put_u16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}
void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

double as_f64(std::uint64_t bits) { return std::bit_cast<double>(bits); }
std::uint64_t f64_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Non-negative finite double carried in a u64 field.
bool valid_f64_field(std::uint64_t bits) {
  const double v = as_f64(bits);
  return std::isfinite(v) && v >= 0.0;
}

/// Suspend until absolute virtual time `t` (schedule_at, so no double
/// rounding through a delay); passes straight through if t has arrived.
struct UntilAwaiter {
  sim::Simulator& sim;
  double t;
  bool await_ready() const noexcept { return !(t > sim.now()); }
  void await_suspend(std::coroutine_handle<> h) {
    sim.schedule_at(t, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

}  // namespace

const char* trace_op_name(TraceOp op) noexcept {
  switch (op) {
    case TraceOp::kCompute: return "compute";
    case TraceOp::kFileWrite: return "file-write";
    case TraceOp::kFileRead: return "file-read";
    case TraceOp::kFsync: return "fsync";
    case TraceOp::kDropCache: return "drop-cache";
    case TraceOp::kMemDirty: return "mem-dirty";
    case TraceOp::kChunkWrite: return "chunk-write";
    case TraceOp::kChunkRead: return "chunk-read";
    case TraceOp::kNetSend: return "net-send";
  }
  return "?";
}

void encode_trace_record(const TraceRecord& r, unsigned char out[kTraceRecordBytes]) {
  put_u64(out, f64_bits(r.t));
  out[8] = static_cast<unsigned char>(r.op);
  out[9] = r.lane;
  put_u16(out + 10, r.vm);
  put_u32(out + 12, r.aux);
  put_u64(out + 16, r.a);
  put_u64(out + 24, r.b);
  put_u64(out + 32, r.c);
}

TraceRecord decode_trace_record(const unsigned char in[kTraceRecordBytes]) {
  TraceRecord r;
  r.t = as_f64(get_u64(in));
  r.op = static_cast<TraceOp>(in[8]);
  r.lane = in[9];
  r.vm = get_u16(in + 10);
  r.aux = get_u32(in + 12);
  r.a = get_u64(in + 16);
  r.b = get_u64(in + 24);
  r.c = get_u64(in + 32);
  return r;
}

bool write_trace(const std::string& path, const TraceData& data, std::string* err) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (err) *err = "cannot open '" + path + "' for writing";
    return false;
  }
  out << kMagic << ' ' << data.header.version << '\n'
      << "page_bytes=" << data.header.page_bytes << '\n'
      << "chunk_bytes=" << data.header.chunk_bytes << '\n'
      << "file_offset=" << data.header.file_offset << '\n'
      << "pages=" << data.header.pages << '\n'
      << "chunks=" << data.header.chunks << '\n'
      << "num_vms=" << data.header.num_vms << '\n'
      << "records=" << data.records.size() << '\n';
  if (!data.header.name.empty()) out << "name=" << data.header.name << '\n';
  out << '\n';
  unsigned char buf[kTraceRecordBytes];
  for (const TraceRecord& r : data.records) {
    encode_trace_record(r, buf);
    out.write(reinterpret_cast<const char*>(buf), kTraceRecordBytes);
  }
  out.flush();
  if (!out) {
    if (err) *err = "write error on '" + path + "'";
    return false;
  }
  return true;
}

std::string check_trace_record(const TraceHeader& h, const TraceRecord& r, std::uint64_t index,
                               double prev_t) {
  const auto where = [index] { return " (record " + std::to_string(index) + ")"; };
  const std::uint8_t op = static_cast<std::uint8_t>(r.op);
  if (op < kMinTraceOp || op > kMaxTraceOp) return "unknown op " + std::to_string(op) + where();
  if (!std::isfinite(r.t) || r.t < prev_t)
    return "non-monotone or non-finite timestamp " + std::to_string(r.t) + where();
  if (r.vm >= h.num_vms)
    return "vm index " + std::to_string(r.vm) + " out of range (num_vms=" +
           std::to_string(h.num_vms) + ")" + where();
  switch (r.op) {
    case TraceOp::kMemDirty:
      if (h.pages > 0 && (r.a > h.pages || r.b > h.pages - r.a))
        return "page range [" + std::to_string(r.a) + ", +" + std::to_string(r.b) +
               ") outside pages=" + std::to_string(h.pages) + where();
      break;
    case TraceOp::kChunkWrite:
    case TraceOp::kChunkRead:
      if (h.chunks > 0 && (r.a > h.chunks || r.b > h.chunks - r.a))
        return "chunk range [" + std::to_string(r.a) + ", +" + std::to_string(r.b) +
               ") outside chunks=" + std::to_string(h.chunks) + where();
      break;
    case TraceOp::kCompute:
      if (!valid_f64_field(r.a) || !valid_f64_field(r.b))
        return "compute with non-finite seconds/rate" + where();
      break;
    case TraceOp::kNetSend:
      if (!valid_f64_field(r.c)) return "net-send with non-finite bytes" + where();
      break;
    default:
      break;
  }
  return {};
}

// --- TraceReader -------------------------------------------------------------

bool TraceReader::fail(std::string msg) {
  error_ = std::move(msg);
  done_ = true;
  return false;
}

bool TraceReader::open(const std::string& path) {
  in_.open(path, std::ios::binary);
  if (!in_) return fail("cannot open trace '" + path + "'");
  std::string line;
  if (!std::getline(in_, line)) return fail("empty trace file (missing header)");
  // Magic + version line.
  const std::string magic(kMagic);
  if (line.compare(0, magic.size(), magic) != 0 || line.size() <= magic.size() ||
      line[magic.size()] != ' ') {
    return fail("bad magic: expected '" + magic + " <version>'");
  }
  char* end = nullptr;
  header_.version =
      static_cast<std::uint32_t>(std::strtoul(line.c_str() + magic.size() + 1, &end, 10));
  if (end == nullptr || *end != '\0' || header_.version != 1)
    return fail("unsupported trace version in '" + line + "' (reader knows version 1)");
  // key=value lines until the blank separator.
  bool saw_records = false;
  while (true) {
    if (!std::getline(in_, line))
      return fail("truncated header: no blank line before records");
    if (line.empty()) break;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0)
      return fail("malformed header line '" + line + "' (expected key=value)");
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    if (key == "name") {
      header_.name = val;
      continue;
    }
    char* vend = nullptr;
    const std::uint64_t n = std::strtoull(val.c_str(), &vend, 10);
    if (vend == nullptr || vend == val.c_str() || *vend != '\0')
      return fail("non-numeric value in header line '" + line + "'");
    if (key == "page_bytes") header_.page_bytes = n;
    else if (key == "chunk_bytes") header_.chunk_bytes = n;
    else if (key == "file_offset") header_.file_offset = n;
    else if (key == "pages") header_.pages = n;
    else if (key == "chunks") header_.chunks = n;
    else if (key == "num_vms") header_.num_vms = static_cast<std::uint32_t>(n);
    else if (key == "records") {
      header_.records = n;
      saw_records = true;
    }
    // Unknown keys are ignored (forward compatibility within version 1).
  }
  if (!saw_records) return fail("header missing the records= count");
  if (header_.num_vms == 0) return fail("header num_vms must be >= 1");
  if (header_.page_bytes == 0 || header_.chunk_bytes == 0)
    return fail("header page_bytes/chunk_bytes must be non-zero");
  return true;
}

bool TraceReader::next(TraceRecord& out) {
  if (done_ || !ok()) return false;
  if (read_ == header_.records) {
    // Clean end: the stream must stop exactly here.
    char extra;
    if (in_.read(&extra, 1) && in_.gcount() == 1)
      return fail("trailing data after " + std::to_string(header_.records) + " records");
    done_ = true;
    return false;
  }
  unsigned char buf[kTraceRecordBytes];
  in_.read(reinterpret_cast<char*>(buf), kTraceRecordBytes);
  if (in_.gcount() != static_cast<std::streamsize>(kTraceRecordBytes))
    return fail("truncated record stream: got " + std::to_string(read_) + " of " +
                std::to_string(header_.records) + " records");
  out = decode_trace_record(buf);
  if (std::string e = check_trace_record(header_, out, read_, last_t_); !e.empty())
    return fail(std::move(e));
  last_t_ = out.t;
  ++read_;
  return true;
}

bool load_trace(const std::string& path, TraceData* out, std::string* err) {
  TraceReader reader;
  if (!reader.open(path)) {
    if (err) *err = reader.error();
    return false;
  }
  out->header = reader.header();
  out->records.clear();
  // The header's count is untrusted until the stream backs it up: cap the
  // reserve so a malformed (huge) records= value yields a truncated-stream
  // diagnostic below instead of a length_error/bad_alloc abort here.
  out->records.reserve(std::min<std::uint64_t>(reader.header().records, 1u << 20));
  TraceRecord r;
  while (reader.next(r)) out->records.push_back(r);
  if (!reader.ok()) {
    if (err) *err = reader.error();
    return false;
  }
  return true;
}

// --- TraceRecorder -----------------------------------------------------------

TraceRecorder::TraceRecorder(TraceHeader header) { data_.header = std::move(header); }

void TraceRecorder::attach(vm::VmInstance& vm) {
  if (attached_ >= 0xffffu) {
    error_ = "trace recorder: vm index overflow (max 65535 VMs)";
    return;
  }
  vm.set_observer(this, attached_);
  lane_busy_.emplace_back();
  ++attached_;
}

std::uint32_t TraceRecorder::begin_op(vm::VmInstance& vm, TraceOp op, std::uint64_t a,
                                      std::uint64_t b, std::uint64_t c) {
  // Error paths return an out-of-range lane that on_op_end ignores — a real
  // lane 0 may be busy, and freeing it for an op that never owned it would
  // corrupt the bookkeeping for every later record.
  constexpr std::uint32_t kNoLane = ~std::uint32_t{0};
  const std::uint32_t v = vm.trace_vm();
  if (v >= lane_busy_.size()) {
    error_ = "trace recorder: observed a VM that was never attached";
    return kNoLane;
  }
  auto& busy = lane_busy_[v];
  std::uint32_t lane = 0;
  while (lane < busy.size() && busy[lane]) ++lane;
  if (lane > 0xffu) {
    error_ = "trace recorder: lane overflow (more than 256 concurrent ops on one VM)";
    return kNoLane;
  }
  if (lane == busy.size())
    busy.push_back(true);
  else
    busy[lane] = true;
  TraceRecord r;
  r.t = vm.cluster().sim().now();
  r.op = op;
  r.lane = static_cast<std::uint8_t>(lane);
  r.vm = static_cast<std::uint16_t>(v);
  r.a = a;
  r.b = b;
  r.c = c;
  data_.records.push_back(r);
  return lane;
}

std::uint32_t TraceRecorder::on_compute(vm::VmInstance& vm, double seconds, double dirty_Bps,
                                        std::uint64_t ws_bytes) {
  return begin_op(vm, TraceOp::kCompute, f64_bits(seconds), f64_bits(dirty_Bps), ws_bytes);
}
std::uint32_t TraceRecorder::on_file_write(vm::VmInstance& vm, std::uint64_t offset,
                                           std::uint64_t len) {
  return begin_op(vm, TraceOp::kFileWrite, offset, len, 0);
}
std::uint32_t TraceRecorder::on_file_read(vm::VmInstance& vm, std::uint64_t offset,
                                          std::uint64_t len) {
  return begin_op(vm, TraceOp::kFileRead, offset, len, 0);
}
std::uint32_t TraceRecorder::on_fsync(vm::VmInstance& vm) {
  return begin_op(vm, TraceOp::kFsync, 0, 0, 0);
}
std::uint32_t TraceRecorder::on_net_send(vm::VmInstance& vm, std::uint32_t src,
                                         std::uint32_t dst, double bytes) {
  return begin_op(vm, TraceOp::kNetSend, src, dst, f64_bits(bytes));
}
void TraceRecorder::on_drop_cache(vm::VmInstance& vm, std::uint64_t offset,
                                  std::uint64_t len) {
  // Instantaneous: record on a lane and free it in the same call.
  on_op_end(vm, begin_op(vm, TraceOp::kDropCache, offset, len, 0));
}
void TraceRecorder::on_op_end(vm::VmInstance& vm, std::uint32_t lane) {
  const std::uint32_t v = vm.trace_vm();
  if (v < lane_busy_.size() && lane < lane_busy_[v].size()) lane_busy_[v][lane] = false;
}

const TraceData& TraceRecorder::data() {
  data_.header.num_vms = attached_ > 0 ? attached_ : 1;
  data_.header.records = data_.records.size();
  return data_;
}

// --- snapshots over the dirty-state iteration hooks --------------------------

namespace {

/// Emit one base-relative record per run, skipping runs entirely below the
/// base and trimming runs that straddle it (indices below the base are
/// outside the snapshot window, NOT aliases of index 0). Returns records
/// emitted.
template <class Emit>
std::uint64_t emit_rebased(std::uint64_t first, std::uint64_t count, std::uint64_t base,
                           Emit&& emit) {
  if (first + count <= base) return 0;
  if (first < base) {
    count -= base - first;
    first = base;
  }
  emit(first - base, count);
  return 1;
}

}  // namespace

std::uint64_t snapshot_dirty_pages(const vm::GuestMemory& mem, double t, std::uint16_t vm,
                                   std::uint64_t base_page, TraceData* out) {
  std::uint64_t emitted = 0;
  detail::coalesce_runs(
      [&](auto&& fn) { mem.for_each_dirty_page(fn); },
      [&](std::uint64_t first, std::uint64_t count) {
        emitted += emit_rebased(first, count, base_page, [&](std::uint64_t a,
                                                            std::uint64_t b) {
          TraceRecord r;
          r.t = t;
          r.op = TraceOp::kMemDirty;
          r.vm = vm;
          r.a = a;
          r.b = b;
          out->records.push_back(r);
        });
      });
  return emitted;
}

std::uint64_t snapshot_modified_chunks(const storage::ChunkStore& store, double t,
                                       std::uint16_t vm, std::uint32_t base_chunk,
                                       TraceData* out) {
  std::uint64_t emitted = 0;
  detail::coalesce_runs(
      [&](auto&& fn) {
        store.for_each_modified([&](storage::ChunkId c) { fn(c); });
      },
      [&](std::uint64_t first, std::uint64_t count) {
        emitted += emit_rebased(first, count, base_chunk, [&](std::uint64_t a,
                                                              std::uint64_t b) {
          TraceRecord r;
          r.t = t;
          r.op = TraceOp::kChunkWrite;
          r.vm = vm;
          r.a = a;
          r.b = b;
          out->records.push_back(r);
        });
      });
  return emitted;
}

// --- TraceApplication --------------------------------------------------------

TraceApplication::TraceApplication(sim::Simulator& sim, std::vector<vm::VmInstance*> vms,
                                   const TraceData& data, TraceReplayOptions opts)
    : sim_(sim),
      vms_(std::move(vms)),
      opts_(opts),
      data_(&data),
      header_(data.header),
      lanes_(vms_.size()),
      done_(sim) {}

TraceApplication::TraceApplication(sim::Simulator& sim, std::vector<vm::VmInstance*> vms,
                                   std::string path, TraceReplayOptions opts)
    : sim_(sim),
      vms_(std::move(vms)),
      opts_(opts),
      reader_(std::make_unique<TraceReader>()),
      lanes_(vms_.size()),
      done_(sim) {
  if (reader_->open(path)) {
    header_ = reader_->header();
  } else {
    error_ = reader_->error();
  }
}

bool TraceApplication::next_record(TraceRecord& out) {
  if (data_ != nullptr) {
    if (cursor_ >= data_->records.size()) return false;
    out = data_->records[cursor_];
    error_ = check_trace_record(header_, out, cursor_,
                                cursor_ == 0 ? 0.0 : data_->records[cursor_ - 1].t);
    ++cursor_;
    return error_.empty();
  }
  if (!reader_) return false;
  if (reader_->next(out)) return true;
  if (!reader_->ok()) error_ = reader_->error();
  return false;
}

void TraceApplication::enqueue(std::size_t vm_idx, const TraceRecord& r) {
  auto& vm_lanes = lanes_[vm_idx];
  if (r.lane >= vm_lanes.size()) vm_lanes.resize(r.lane + 1);
  if (!vm_lanes[r.lane]) {
    vm_lanes[r.lane] = std::make_unique<Lane>();
    vm_lanes[r.lane]->app = this;
    vm_lanes[r.lane]->vm = vms_[vm_idx];
  }
  Lane* lane = vm_lanes[r.lane].get();
  lane->q.push_back(r);
  if (!lane->running) {
    lane->running = true;
    done_.add();
    sim_.spawn(lane_run(lane));
  }
}

bool TraceApplication::fits_replay_target(const TraceRecord& r) {
  // The reader validates records against the trace's own header; the replay
  // target can still be smaller than the recorded machine. Reject anything
  // that would fall outside the image/cluster instead of handing an
  // out-of-range chunk or node id to the storage/network layers.
  const vm::Cluster& cluster = vms_.front()->cluster();
  const std::uint64_t image_bytes = cluster.config().image.image_bytes;
  switch (r.op) {
    case TraceOp::kFileWrite:
    case TraceOp::kFileRead:
    case TraceOp::kDropCache: {
      const std::uint64_t end = r.a + r.b;
      if (end < r.a || end > image_bytes) {
        error_ = "trace file range [" + std::to_string(r.a) + ", +" + std::to_string(r.b) +
                 ") outside the replay image (" + std::to_string(image_bytes) + " bytes)";
        return false;
      }
      break;
    }
    case TraceOp::kChunkWrite:
    case TraceOp::kChunkRead: {
      const std::uint64_t count = r.a + r.b;
      if (count < r.a || header_.chunk_bytes == 0 ||
          count > (~std::uint64_t{0} - header_.file_offset) / header_.chunk_bytes ||
          header_.file_offset + count * header_.chunk_bytes > image_bytes) {
        error_ = "trace chunk range [" + std::to_string(r.a) + ", +" +
                 std::to_string(r.b) + ") outside the replay image (" +
                 std::to_string(image_bytes) + " bytes at file_offset " +
                 std::to_string(header_.file_offset) + ")";
        return false;
      }
      break;
    }
    case TraceOp::kNetSend:
      if (r.a >= cluster.size() || r.b >= cluster.size()) {
        error_ = "trace net-send between nodes " + std::to_string(r.a) + " -> " +
                 std::to_string(r.b) + " outside the replay cluster (" +
                 std::to_string(cluster.size()) + " nodes)";
        return false;
      }
      break;
    default:
      break;  // kMemDirty is clamped by GuestMemory; kCompute/kFsync are safe
  }
  return true;
}

sim::Task TraceApplication::dispatch() {
  TraceRecord r;
  while (error_.empty() && !vms_.empty() && next_record(r) && fits_replay_target(r)) {
    if (r.t > sim_.now()) co_await UntilAwaiter{sim_, r.t};
    if (opts_.broadcast) {
      if (r.op == TraceOp::kNetSend) {
        error_ = "net-send records cannot be broadcast (absolute node ids); "
                 "replay this trace with broadcast=false";
        break;
      }
      for (std::size_t v = 0; v < vms_.size(); ++v) enqueue(v, r);
    } else {
      if (r.vm >= vms_.size()) {
        error_ = "trace vm index " + std::to_string(r.vm) + " >= " +
                 std::to_string(vms_.size()) + " replay VMs (enable broadcast or "
                 "deploy more VMs)";
        break;
      }
      enqueue(r.vm, r);
    }
  }
  done_.done();
}

sim::Task TraceApplication::lane_run(Lane* lane) {
  vm::VmInstance& vm = *lane->vm;
  const TraceHeader& h = header_;
  while (!lane->q.empty()) {
    const TraceRecord r = lane->q.front();
    lane->q.pop_front();
    switch (r.op) {
      case TraceOp::kCompute:
        co_await vm.compute(as_f64(r.a), as_f64(r.b), r.c);
        break;
      case TraceOp::kFileWrite:
        co_await vm.file_write(r.a, r.b);
        break;
      case TraceOp::kFileRead:
        co_await vm.file_read(r.a, r.b);
        break;
      case TraceOp::kFsync:
        co_await vm.fsync();
        break;
      case TraceOp::kDropCache:
        vm.drop_file_cache(r.a, r.b);
        break;
      case TraceOp::kMemDirty:
        // Live workloads only dirty memory while running; respect the same
        // contract (no event when the gate is already open).
        co_await vm.run_gate().wait_open();
        vm.memory().touch_range(vm.anon_region_offset() + r.a * h.page_bytes,
                                r.b * h.page_bytes);
        break;
      case TraceOp::kChunkWrite:
        co_await vm.file_write(h.file_offset + r.a * h.chunk_bytes, r.b * h.chunk_bytes);
        break;
      case TraceOp::kChunkRead:
        co_await vm.file_read(h.file_offset + r.a * h.chunk_bytes, r.b * h.chunk_bytes);
        break;
      case TraceOp::kNetSend:
        co_await vm.cluster().network().transfer(static_cast<net::NodeId>(r.a),
                                                 static_cast<net::NodeId>(r.b),
                                                 as_f64(r.c), net::TrafficClass::kAppComm);
        break;
    }
    ++applied_;
  }
  lane->running = false;
  done_.done();
}

sim::Task TraceApplication::run_all() {
  t_start_ = sim_.now();
  done_.add();
  sim_.spawn(dispatch());
  co_await done_.wait();
  t_end_ = sim_.now();
}

}  // namespace hm::workloads
