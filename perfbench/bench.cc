#include "bench.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "core/gravity.h"
#include "util/hash.h"

namespace perfbench {

uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               index * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / values.size();
}

std::vector<size_t> CheckSample(uint64_t seed, size_t n, size_t count) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [seed](size_t a, size_t b) {
    return Mix(seed, 99, a) < Mix(seed, 99, b);
  });
  order.resize(std::min(n, count));
  return order;
}

void Result::Samples(const std::string& name, size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  samples[name] = {n, n - std::min(rank, n)};
}

// --- spans -------------------------------------------------------------------

namespace {
std::atomic<uint64_t> next_tracer_serial{1};
}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), serial_(next_tracer_serial.fetch_add(1)) {}

Tracer::Buffer* Tracer::ThreadBuffer() {
  // One buffer per (tracer, thread), found through a per-thread cache keyed
  // by the tracer's serial, which no later tracer reuses.
  thread_local std::unordered_map<uint64_t, Buffer*> cache;
  auto it = cache.find(serial_);
  if (it != cache.end()) return it->second;
  auto buffer = std::make_unique<Buffer>();
  Buffer* raw = buffer.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  cache[serial_] = raw;
  return raw;
}

uint64_t Tracer::Begin(const char* name, uint64_t request) {
  Buffer* buffer = ThreadBuffer();
  SpanRecord span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent =
      buffer->open.empty() ? 0 : buffer->spans[buffer->open.back()].id;
  span.request = request;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  buffer->open.push_back(buffer->spans.size());
  buffer->spans.push_back(span);
  return span.id;
}

void Tracer::End(uint64_t id) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  Buffer* buffer = ThreadBuffer();
  // Spans are RAII objects, so they close in stack order on their own
  // thread; anything else is ignored rather than corrupting the stack.
  if (buffer->open.empty() || buffer->spans[buffer->open.back()].id != id) {
    return;
  }
  buffer->spans[buffer->open.back()].end_ns = now;
  buffer->open.pop_back();
}

std::vector<SpanRecord> Tracer::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : All()) {
    if (name == span.name) out.push_back((span.end_ns - span.start_ns) / 1e6);
  }
  return out;
}

std::map<std::string, double> Tracer::SelfTimeByLayerMs() const {
  std::vector<SpanRecord> all = All();
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const SpanRecord& span : all) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : all) {
    std::string layer(span.name);
    layer = layer.substr(0, layer.find('.'));
    const int64_t own = span.end_ns - span.start_ns - child_ns[span.id];
    self[layer] += std::max<int64_t>(own, 0) / 1e6;
  }
  return self;
}

bool Tracer::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& span : All()) {
    std::fprintf(f,
                 "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"request\":%" PRIu64
                 ",\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 "}\n",
                 span.id, span.parent, span.request, span.name, span.start_ns,
                 span.end_ns);
  }
  return std::fclose(f) == 0;
}

// --- answers ----------------------------------------------------------------

bool SameAnswer(const staq::core::AccessQueryResult& a,
                const staq::core::AccessQueryResult& b, Fields fields,
                std::string* why) {
  auto differ = [why](const char* field) {
    if (why != nullptr) *why = field;
    return false;
  };
  if (a.mac != b.mac) return differ("mac");
  if (a.acsd != b.acsd) return differ("acsd");
  if (a.classes != b.classes) return differ("classes");
  if (a.mean_mac != b.mean_mac) return differ("mean_mac");
  if (a.mean_acsd != b.mean_acsd) return differ("mean_acsd");
  if (a.fairness != b.fairness) return differ("fairness");
  if (a.population_fairness != b.population_fairness) {
    return differ("population_fairness");
  }
  if (a.vulnerable_fairness != b.vulnerable_fairness) {
    return differ("vulnerable_fairness");
  }
  if (a.gravity_trips != b.gravity_trips) return differ("gravity_trips");
  if (fields == Fields::kAll && a.spqs != b.spqs) return differ("spqs");
  return true;
}

void Perturb(staq::core::AccessQueryResult* result) {
  if (result->mac.empty()) return;
  uint64_t bits;
  std::memcpy(&bits, &result->mac[0], sizeof bits);
  bits ^= 1;
  std::memcpy(&result->mac[0], &bits, sizeof bits);
}

uint64_t AnswerDigest(const staq::core::AccessQueryResult& result) {
  uint64_t h = staq::util::XxHash64(result.mac.data(),
                                    result.mac.size() * sizeof(double), 1);
  h = staq::util::XxHash64(result.acsd.data(),
                           result.acsd.size() * sizeof(double), h);
  return staq::util::XxHash64(result.classes.data(),
                              result.classes.size() * sizeof(int), h);
}

// --- cities -----------------------------------------------------------------

namespace {
CitySetup WithRate(staq::synth::CitySpec spec) {
  CitySetup setup{spec, staq::core::CalibratedGravityConfig(spec)};
  setup.gravity.sample_rate_per_hour = 12;
  return setup;
}
}  // namespace

CitySetup BrindaleSetup(bool tiny) {
  return WithRate(staq::synth::CitySpec::Brindale(tiny ? 0.03 : 0.1, 42));
}

CitySetup CovelySetup(bool tiny) {
  return WithRate(staq::synth::CitySpec::Covely(tiny ? 0.08 : 0.3, 43));
}

// --- host -------------------------------------------------------------------

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double CalibrationScore() {
  constexpr uint64_t kIterations = 20'000'000;
  const auto start = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  double acc = 0.0;
  for (uint64_t i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xFFFF) * 1e-6;
  }
  const double seconds = SecondsSince(start);
  // Keep the loop observable so it is not folded away.
  if (acc < 0.0) std::printf("%f\n", acc);
  return kIterations / seconds / 1e6;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

const char* BuildType() { return PERFBENCH_BUILD_TYPE; }

}  // namespace perfbench
