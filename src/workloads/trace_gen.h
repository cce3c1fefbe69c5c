// Parametric trace generators: produce realistic skewed / bursty /
// phase-shifting / sequential dirty-page and chunk-write streams in the
// trace format (workloads/trace.h), seeded through sim::random so a given
// (spec, seed) pair always generates the identical trace — the determinism
// contract extends from the engine to the workload axis.
//
// Every generator emits, per dt_s step: one kCompute slice on lane 0 (keeps
// the guest CPU busy and exposed to migration CPU contention), kMemDirty
// records on lane 1 (page draws deduplicated and coalesced into runs within
// a step), and kChunkWrite/kChunkRead records on lanes 2/3 (sequential per
// lane, so chunk I/O sees backpressure when the virtual disk saturates,
// like a real workload).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/trace.h"

namespace hm::workloads {

enum class TracePattern : std::uint8_t {
  kZipfian,         // static Zipf-skewed hot/cold working set
  kPhaseShift,      // hot window relocates every phase_s (working-set drift)
  kBurst,           // on/off chunk-write bursts over a steady memory stream
  kSequentialScan,  // linear sweep over pages and chunks (checkpoint style)
};
const char* trace_pattern_name(TracePattern p) noexcept;

struct TraceGenSpec {
  TracePattern pattern = TracePattern::kZipfian;
  double duration_s = 60.0;
  double dt_s = 0.25;  // record cadence (one step = one compute slice)
  // Geometry: kMemDirty pages are anon-region relative, kChunk* records are
  // file_offset relative (see trace.h).
  std::uint64_t page_bytes = 64 * storage::kKiB;
  std::uint64_t pages = 2048;  // working set: 128 MiB at the default page
  std::uint32_t chunk_bytes = 256 * static_cast<std::uint32_t>(storage::kKiB);
  std::uint32_t chunks = 512;  // file region: 128 MiB at the default chunk
  std::uint64_t file_offset = 1 * storage::kGiB;
  // Pressure.
  double mem_dirty_Bps = 12.0e6;
  double chunk_write_Bps = 6.0e6;
  double read_fraction = 0.0;    // fraction of chunk ops emitted as reads
  double compute_fraction = 1.0; // guest-seconds of compute per second
  // Pattern knobs.
  double zipf_theta = 0.99;      // kZipfian/kPhaseShift skew (0 = uniform)
  double phase_s = 15.0;         // kPhaseShift: hot-window relocation period
  double hot_fraction = 0.125;   // kPhaseShift: hot-window size
  double burst_on_s = 2.0;       // kBurst: write-burst length
  double burst_off_s = 8.0;      // kBurst: idle gap between bursts
  double burst_multiplier = 8.0; // kBurst: rate multiplier inside a burst
};

/// Bounded Zipf(theta) sampler over [0, n): exact inverse-CDF over the
/// generalized harmonic numbers (precomputed, O(log n) per draw). theta = 0
/// degenerates to uniform; rank 0 is the hottest item.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double theta);
  std::uint64_t sample(sim::Rng& rng) const;
  std::uint64_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Generate a single-VM trace from the spec; (spec, seed) fully determines
/// the result.
TraceData generate_trace(const TraceGenSpec& spec, std::uint64_t seed);

/// How an experiment sources its trace workload, in precedence order:
/// in-memory data, a trace file (streamed), or a generator spec.
struct TraceSourceConfig {
  const TraceData* data = nullptr;
  std::string path;
  TraceGenSpec gen{};
  /// Replay mode (see TraceReplayOptions): single-source traces fan out to
  /// every VM by default; exact multi-VM replays must clear this.
  bool broadcast = true;
};

/// Parse a trace workload argument like "zipf", "phase:dur=30,theta=0.8",
/// "burst:on=1,off=4,mult=10", "scan", or "file=/path/to.trace" (an
/// optional "trace:" prefix is accepted). Key=value pairs override the
/// matching TraceGenSpec fields: dur, dt, pages, page_kib, chunks,
/// chunk_kib, offset_mib, mem_mbps, write_mbps, read_frac, compute, theta,
/// phase, hot, on, off, mult. Items, numbers and diagnostics follow
/// util/spec.h. Returns false with *err on an unknown pattern or key, or a
/// value out of range: counts (pages and chunks up to 2^24, page_kib,
/// chunk_kib, offset_mib) are integers, dur and dt are > 0, the fractions
/// (read_frac, compute, hot) lie in [0, 1], every other value is a finite
/// number >= 0, and the derived step and per-step draw counts stay within
/// 2^24.
bool parse_trace_spec(std::string_view arg, TraceSourceConfig* out, std::string* err);

}  // namespace hm::workloads
