#include "workloads/trace_gen.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/spec.h"

namespace hm::workloads {

const char* trace_pattern_name(TracePattern p) noexcept {
  switch (p) {
    case TracePattern::kZipfian: return "zipf";
    case TracePattern::kPhaseShift: return "phase";
    case TracePattern::kBurst: return "burst";
    case TracePattern::kSequentialScan: return "scan";
  }
  return "?";
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta) {
  if (n == 0) n = 1;
  cdf_.resize(n);
  double total = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    total += theta == 0.0 ? 1.0 : std::pow(static_cast<double>(i + 1), -theta);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::uint64_t ZipfSampler::sample(sim::Rng& rng) const {
  const double u = rng.uniform_real(0.0, 1.0);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const std::uint64_t idx = static_cast<std::uint64_t>(it - cdf_.begin());
  return idx < cdf_.size() ? idx : cdf_.size() - 1;
}

namespace {

void emit(TraceData& data, double t, TraceOp op, std::uint8_t lane, std::uint64_t a,
          std::uint64_t b, std::uint64_t c = 0) {
  TraceRecord r;
  r.t = t;
  r.op = op;
  r.lane = lane;
  r.vm = 0;
  r.a = a;
  r.b = b;
  r.c = c;
  data.records.push_back(r);
}

/// Sort+unique a step's page draws and emit one kMemDirty per maximal run.
void emit_page_runs(TraceData& data, double t, std::vector<std::uint64_t>& pages) {
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  detail::coalesce_runs(
      [&](auto&& fn) {
        for (std::uint64_t p : pages) fn(p);
      },
      [&](std::uint64_t first, std::uint64_t count) {
        emit(data, t, TraceOp::kMemDirty, /*lane=*/1, first, count);
      });
  pages.clear();
}

}  // namespace

TraceData generate_trace(const TraceGenSpec& spec, std::uint64_t seed) {
  TraceData data;
  data.header.page_bytes = spec.page_bytes;
  data.header.chunk_bytes = spec.chunk_bytes;
  data.header.file_offset = spec.file_offset;
  data.header.pages = spec.pages;
  data.header.chunks = spec.chunks;
  data.header.num_vms = 1;
  data.header.name = std::string("gen:") + trace_pattern_name(spec.pattern);

  sim::Rng rng =
      sim::Rng(seed).fork("tracegen", static_cast<std::uint64_t>(spec.pattern));
  const std::uint64_t pages = std::max<std::uint64_t>(1, spec.pages);
  const std::uint64_t chunks = std::max<std::uint64_t>(1, spec.chunks);
  // Hot-window sizes for the phase-shifting pattern; the Zipf samplers for
  // the static pattern span the whole universe.
  const std::uint64_t page_win = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(spec.hot_fraction * static_cast<double>(pages)));
  const std::uint64_t chunk_win = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(spec.hot_fraction * static_cast<double>(chunks)));
  const bool zipf_draws = spec.pattern == TracePattern::kZipfian ||
                          spec.pattern == TracePattern::kPhaseShift;
  const std::uint64_t page_universe =
      spec.pattern == TracePattern::kPhaseShift ? page_win : pages;
  const std::uint64_t chunk_universe =
      spec.pattern == TracePattern::kPhaseShift ? chunk_win : chunks;
  const ZipfSampler page_zipf(page_universe, zipf_draws ? spec.zipf_theta : 0.0);
  const ZipfSampler chunk_zipf(chunk_universe, zipf_draws ? spec.zipf_theta : 0.0);

  const double dt = spec.dt_s > 0 ? spec.dt_s : 0.25;
  const double span = std::ceil(spec.duration_s / dt);
  const std::uint64_t steps = span > 0 ? static_cast<std::uint64_t>(span) : 0;
  double page_acc = 0, chunk_acc = 0;
  std::uint64_t scan_page = 0, scan_chunk = 0;
  std::vector<std::uint64_t> step_pages;
  for (std::uint64_t k = 0; k < steps; ++k) {
    const double t = static_cast<double>(k) * dt;
    if (spec.compute_fraction > 0) {
      emit(data, t, TraceOp::kCompute, /*lane=*/0,
           std::bit_cast<std::uint64_t>(dt * spec.compute_fraction),
           std::bit_cast<std::uint64_t>(0.0));
    }
    // Hot-window base for the phase-shifting pattern: jumps by one window
    // every phase_s, wrapping over the universe.
    const std::uint64_t phase =
        spec.phase_s > 0 ? static_cast<std::uint64_t>(t / spec.phase_s) : 0;
    const std::uint64_t page_base = (phase * page_win) % pages;
    const std::uint64_t chunk_base = (phase * chunk_win) % chunks;

    // --- memory dirtying ----------------------------------------------------
    page_acc += spec.mem_dirty_Bps * dt / static_cast<double>(spec.page_bytes);
    std::uint64_t npages = static_cast<std::uint64_t>(page_acc);
    page_acc -= static_cast<double>(npages);
    if (npages > 0) {
      if (spec.pattern == TracePattern::kSequentialScan) {
        // Linear sweep, wrapping: at most two runs per step.
        while (npages > 0) {
          const std::uint64_t run = std::min(npages, pages - scan_page);
          emit(data, t, TraceOp::kMemDirty, /*lane=*/1, scan_page, run);
          scan_page = (scan_page + run) % pages;
          npages -= run;
        }
      } else {
        for (std::uint64_t i = 0; i < npages; ++i) {
          std::uint64_t p = spec.pattern == TracePattern::kBurst
                                ? rng.uniform(pages)
                                : page_zipf.sample(rng);
          if (spec.pattern == TracePattern::kPhaseShift) p = (page_base + p) % pages;
          step_pages.push_back(p);
        }
        emit_page_runs(data, t, step_pages);
      }
    }

    // --- chunk I/O ----------------------------------------------------------
    double write_Bps = spec.chunk_write_Bps;
    if (spec.pattern == TracePattern::kBurst) {
      const double cycle = spec.burst_on_s + spec.burst_off_s;
      const bool in_burst = cycle <= 0 || std::fmod(t, cycle) < spec.burst_on_s;
      write_Bps = in_burst ? write_Bps * spec.burst_multiplier : 0.0;
    }
    chunk_acc += write_Bps * dt / static_cast<double>(spec.chunk_bytes);
    std::uint64_t nchunks = static_cast<std::uint64_t>(chunk_acc);
    chunk_acc -= static_cast<double>(nchunks);
    if (spec.pattern == TracePattern::kSequentialScan) {
      while (nchunks > 0) {
        const std::uint64_t run = std::min(nchunks, chunks - scan_chunk);
        emit(data, t, TraceOp::kChunkWrite, /*lane=*/2, scan_chunk, run);
        scan_chunk = (scan_chunk + run) % chunks;
        nchunks -= run;
      }
    } else {
      for (std::uint64_t i = 0; i < nchunks; ++i) {
        std::uint64_t c = spec.pattern == TracePattern::kBurst ? rng.uniform(chunks)
                                                               : chunk_zipf.sample(rng);
        if (spec.pattern == TracePattern::kPhaseShift) c = (chunk_base + c) % chunks;
        const bool read = spec.read_fraction > 0 && rng.bernoulli(spec.read_fraction);
        emit(data, t, read ? TraceOp::kChunkRead : TraceOp::kChunkWrite,
             /*lane=*/read ? 3 : 2, c, 1);
      }
    }
  }
  data.header.records = data.records.size();
  return data;
}

// --- spec parsing ------------------------------------------------------------

namespace {

using util::kInf;
using util::kMaxCount;

/// Whether the spec's derived counts (steps, phase shifts, per-step page and
/// chunk draws) stay within kMaxCount; a diagnostic in *err when not.
bool counts_bounded(const TraceGenSpec& g, std::string* err) {
  const double burst = g.pattern == TracePattern::kBurst ? std::max(1.0, g.burst_multiplier) : 1.0;
  const std::pair<double, const char*> counts[] = {
      {g.duration_s / g.dt_s, "dur / dt (steps)"},
      {g.phase_s > 0 ? g.duration_s / g.phase_s : 0, "dur / phase (phase shifts)"},
      {g.mem_dirty_Bps * g.dt_s / static_cast<double>(g.page_bytes),
       "mem_mbps x dt / page_kib (page draws per step)"},
      {g.chunk_write_Bps * burst * g.dt_s / g.chunk_bytes,
       "write_mbps x dt / chunk_kib (chunk draws per step)"},
  };
  for (const auto& [n, what] : counts) {
    if (!(n <= kMaxCount))  // also rejects NaN
      return util::spec_error("trace spec", std::string(what) + " must be at most " +
                                                std::to_string(static_cast<long>(kMaxCount)),
                              err);
  }
  return true;
}

}  // namespace

bool parse_trace_spec(std::string_view arg, TraceSourceConfig* out, std::string* err) {
  constexpr std::string_view kGrammar = "trace spec";
  constexpr std::string_view kPrefix = "trace:";
  if (arg.substr(0, kPrefix.size()) == kPrefix) arg.remove_prefix(kPrefix.size());
  constexpr std::string_view kFile = "file=";
  if (arg.substr(0, kFile.size()) == kFile) {
    out->path = std::string(arg.substr(kFile.size()));
    return !out->path.empty() || util::spec_error(kGrammar, "empty file path", err);
  }
  const std::size_t colon = arg.find(':');
  const std::string_view pattern = arg.substr(0, colon);
  TraceGenSpec& g = out->gen;
  if (pattern == "zipf" || pattern == "zipfian")
    g.pattern = TracePattern::kZipfian;
  else if (pattern == "phase" || pattern == "phase-shift")
    g.pattern = TracePattern::kPhaseShift;
  else if (pattern == "burst")
    g.pattern = TracePattern::kBurst;
  else if (pattern == "scan" || pattern == "seq")
    g.pattern = TracePattern::kSequentialScan;
  else
    return util::spec_error(kGrammar, "unknown pattern '" + std::string(pattern) +
                                          "' (zipf|phase|burst|scan|file=PATH)", err);
  if (colon == std::string_view::npos) return true;
  constexpr double kKiB = storage::kKiB, kMiB = storage::kMiB;
  const util::SpecKey keys[] = {
      {"dur", &g.duration_s, 0, kInf, true},
      {"dt", &g.dt_s, 0, kInf, true},
      {"pages", &g.pages, 1, kMaxCount},
      {"page_kib", &g.page_bytes, 1, 4294967296.0, false, kKiB},
      {"chunks", &g.chunks, 1, kMaxCount},
      {"chunk_kib", &g.chunk_bytes, 1, 4194303, false, kKiB},  // chunk_bytes < 2^32
      {"offset_mib", &g.file_offset, 0, 17592186044415.0, false, kMiB},  // offset < 2^64
      {"mem_mbps", &g.mem_dirty_Bps, 0, kInf, false, 1e6},
      {"write_mbps", &g.chunk_write_Bps, 0, kInf, false, 1e6},
      {"read_frac", &g.read_fraction, 0, 1},
      {"compute", &g.compute_fraction, 0, 1},
      {"theta", &g.zipf_theta},
      {"phase", &g.phase_s},
      {"hot", &g.hot_fraction, 0, 1},
      {"on", &g.burst_on_s},
      {"off", &g.burst_off_s},
      {"mult", &g.burst_multiplier},
  };
  return util::parse_keys(kGrammar, arg.substr(colon + 1), keys, err) && counts_bounded(g, err);
}

}  // namespace hm::workloads
