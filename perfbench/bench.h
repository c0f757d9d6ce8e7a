// Shared pieces of the repository benchmark: arguments, seeded input
// derivation, percentiles, the result document, in-memory spans, answer
// checks and the host fingerprint.
//
// The benchmark drives the staq library from outside: every timing here is
// taken around a public call, never inside the library.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/access_query.h"
#include "synth/city_builder.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: small cities and short phases.
  bool tiny = false;
  /// Self-test hook: corrupt one answer before the output check, which must
  /// then reject the run.
  bool perturb = false;
  /// Directory for the result document, span dump and scratch WALs.
  std::string out_dir = ".bench_out";
};

/// Deterministic 64-bit value for (seed, stream, index): splitmix64 over a
/// mixed key. Every generated input — TODAM seeds, request order, edit
/// sites, read keys, check samples — comes from this.
uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index);

/// Nearest-rank quantile, q in [0, 1]. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// `count` request indices out of [0, n) in a seed-determined order: the
/// sample an output check recomputes.
std::vector<size_t> CheckSample(uint64_t seed, size_t n, size_t count);

/// Everything one run reports. `metrics` feed the last output line; the
/// rest goes only to the result document.
struct Result {
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics;
  std::map<std::string, Value> extras;
  /// Samples behind each reported percentile: name -> {n, n beyond}.
  std::map<std::string, std::pair<size_t, size_t>> samples;
  std::vector<std::string> mismatches;
  /// Digest of the deterministic answers, when the workload has one.
  std::string digest;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Extra(const std::string& name, double value, const std::string& unit) {
    extras[name] = {value, unit};
  }
  /// Records the sample count behind percentile `q` of `n` samples.
  void Samples(const std::string& name, size_t n, double q);
  /// A failed output check: counted as a failed operation, run incorrect.
  void Mismatch(const std::string& what) {
    mismatches.push_back(what);
    ++failed;
  }
  bool correct() const { return mismatches.empty(); }
};

// --- spans -------------------------------------------------------------------

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder. Each thread appends to its own buffer; nothing
/// is written until Dump(). Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }

  uint64_t Begin(const char* name, uint64_t request);
  void End(uint64_t id);

  std::vector<SpanRecord> All() const;
  /// Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Per-layer self time (ms): a span's duration minus the part its
  /// children cover, summed over spans whose name starts with the layer
  /// (the text before the first '.').
  std::map<std::string, double> SelfTimeByLayerMs() const;
  /// Writes one JSON object per span, one per line.
  bool Dump(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<SpanRecord> spans;
    std::vector<size_t> open;  // indices into spans: the current stack
  };
  Buffer* ThreadBuffer();

  bool enabled_;
  uint64_t serial_;  // distinguishes tracers in the per-thread buffer cache
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span; a no-op when the tracer is disabled or null.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ ? tracer_->Begin(name, request) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

// --- answers ----------------------------------------------------------------

enum class Fields {
  kAll,     // every field but elapsed_s
  kNoSpqs,  // cached/patched answers: spqs counts the patch, not a build
};

/// Field-by-field bitwise comparison. On a difference, names the first
/// differing field in *why.
bool SameAnswer(const staq::core::AccessQueryResult& a,
                const staq::core::AccessQueryResult& b, Fields fields,
                std::string* why);

/// Flips the lowest bit of the first MAC value: the self-test's perturbed
/// answer.
void Perturb(staq::core::AccessQueryResult* result);

/// XXH64 digest of the per-zone answer (mac, acsd, classes).
uint64_t AnswerDigest(const staq::core::AccessQueryResult& result);

// --- cities -----------------------------------------------------------------

struct CitySetup {
  staq::synth::CitySpec spec;
  staq::core::GravityConfig gravity;
};
/// Brindale at scale 0.1 (Covely at 0.3), TODAM rate 12; both far smaller
/// under --tiny.
CitySetup BrindaleSetup(bool tiny);
CitySetup CovelySetup(bool tiny);

// --- host -------------------------------------------------------------------

unsigned Nproc();
/// Fixed single-thread integer/floating-point loop; returns million
/// iterations per second. Comparable across hosts, not across builds.
double CalibrationScore();
/// Peak resident set size (VmHWM) in MiB.
double PeakRssMb();
const char* BuildType();

}  // namespace perfbench
