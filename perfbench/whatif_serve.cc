// whatif_serve: an AqServer behind AqTcpServer on loopback, with a
// MutationWal fsync'd on every append. Reads are open loop over 3
// connections across 8 warm exact keys; one editor adds and removes POIs
// closed loop on a 4th connection the whole time, so every edit bumps the
// epoch and the next read of each key re-finalises from the patched state.
// A read ladder then finds the highest sustainable read rate, and a last
// phase sends the five disruption kinds while base-rate reads continue.
// Cache, admission, wire, WAL and incremental patching do the work; cold
// labeling does almost none.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <unistd.h>

#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "scenario/disruption.h"
#include "wal/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

using staq::core::AccessQueryResult;
using staq::serve::AqRequest;
using staq::serve::Scenario;

constexpr uint64_t kKeyStream = 21;
constexpr uint64_t kEditStream = 22;
constexpr uint64_t kReadStream = 23;
constexpr uint64_t kSampleStream = 24;
constexpr int kWorkers = 4;
constexpr int kReaders = 3;
constexpr double kBaseQps = 5000.0;
/// Read latency limit of the ladder (p99) and the most the generator may
/// fall behind schedule at the end of a rung.
constexpr double kReadLimitMs = 5.0;
constexpr int kLadderProbes = 5;
/// tail_ms is the median p90 of this many equal windows of the base-rate
/// phase, and ops_per_s the median throughput of as many windows of the
/// saturation phase, so a burst of host contention moves a few windows,
/// not the run's figure.
constexpr int kWindows = 10;
/// Ladder rungs: 1,000 q/s up to 100,000 q/s, 5% apart.
constexpr double kFirstRung = 1000.0;
constexpr double kLastRung = 100000.0;
constexpr double kRungRatio = 1.05;

/// Serving stack of one setup. Stop order matters: the TCP front end
/// references the server, which references the WAL.
class Deployment {
 public:
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (tcp) tcp->Stop();
    tcp.reset();
    server.reset();
    wal.reset();
    std::error_code ignored;
    if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir, ignored);
  }

  std::string wal_dir;
  std::unique_ptr<staq::wal::MutationWal> wal;
  std::unique_ptr<staq::serve::AqServer> server;
  std::unique_ptr<staq::net::AqTcpServer> tcp;
};

/// One read whose answer is checked after the run against the uncached
/// answer of the snapshot it was served from.
struct ReadSample {
  size_t key = 0;
  AccessQueryResult answer;
  std::shared_ptr<const Scenario> snapshot;
};

/// Snapshots of recent epochs, so a sampled read can hold on to the exact
/// scenario it was answered from. Only the last few epochs are retained;
/// samples keep their own reference.
class EpochSnapshots {
 public:
  void Add(std::shared_ptr<const Scenario> snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    by_epoch_[snapshot->epoch()] = std::move(snapshot);
    while (by_epoch_.size() > 4) by_epoch_.erase(by_epoch_.begin());
  }
  std::shared_ptr<const Scenario> Find(uint64_t epoch) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_epoch_.find(epoch);
    return it == by_epoch_.end() ? nullptr : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const Scenario>> by_epoch_;
};

/// Picks the reads the output check recomputes: reads the seed selects,
/// at most one per epoch and `cap` per phase, so the sample spans the
/// epochs every phase served.
class Sampler {
 public:
  Sampler(uint64_t seed, const EpochSnapshots* snapshots)
      : seed_(seed), snapshots_(snapshots) {}

  void BeginPhase(size_t cap) {
    std::lock_guard<std::mutex> lock(mu_);
    cap_ = cap;
    phase_epochs_.clear();
  }

  /// Keeps read `index` if the seed selects it, its epoch is retained and
  /// not yet sampled in this phase, and the phase has room.
  void Offer(uint64_t index, size_t key, uint64_t epoch,
             const AccessQueryResult& answer) {
    if (Mix(seed_, kSampleStream, index) % kModulus != 0) return;
    auto snapshot = snapshots_->Find(epoch);
    if (snapshot == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (phase_epochs_.size() >= cap_ || !phase_epochs_.insert(epoch).second) {
      return;
    }
    samples_.push_back({key, answer, snapshot});
  }
  std::vector<ReadSample> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(samples_);
  }

 private:
  static constexpr uint64_t kModulus = 256;
  uint64_t seed_;
  const EpochSnapshots* snapshots_;
  std::mutex mu_;
  size_t cap_ = 0;
  std::set<uint64_t> phase_epochs_;
  std::vector<ReadSample> samples_;
};

struct ReadPhase {
  std::vector<double> latency_ms;  // scheduled send -> decoded answer
  std::vector<double> rtt_ms;      // actual send -> decoded answer
  std::vector<double> service_ms;  // server-reported elapsed_s
  std::vector<double> lag_ms;      // actual send - scheduled send
  std::vector<double> done_s;      // completion, seconds after phase start
  uint64_t sent = 0;
  uint64_t failed = 0;
  double end_lag_ms = 0.0;  // worst lag of each connection's last send
  double seconds = 0.0;
};

/// Open-loop reads: the k-th read of connection c is due at
/// start + (k * readers + c) / qps whether or not earlier reads are done,
/// and its latency counts from that due time. Runs for `seconds`, or until
/// *stop turns true; reads still due when the phase ends are not sent.
ReadPhase RunReads(std::vector<staq::net::AqClient>* clients,
                   const std::vector<AqRequest>& keys, double qps,
                   double seconds, const std::atomic<bool>* stop,
                   uint64_t seed, uint64_t first_index, Sampler* sampler) {
  std::vector<ReadPhase> partial(kReaders);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> readers;
  for (int c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      ReadPhase& mine = partial[c];
      staq::net::AqClient& client = (*clients)[c];
      for (uint64_t k = 0;; ++k) {
        const uint64_t index = k * kReaders + c;
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(index / qps));
        if (due >= end || Clock::now() >= end ||
            (stop != nullptr && stop->load())) {
          break;
        }
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        const size_t key =
            Mix(seed, kReadStream, first_index + index) % keys.size();
        auto answer = client.Query(keys[key]);
        const auto done = Clock::now();
        ++mine.sent;
        mine.end_lag_ms = MsBetween(due, sent);
        mine.lag_ms.push_back(mine.end_lag_ms);
        if (!answer.ok()) {
          ++mine.failed;
          continue;
        }
        mine.latency_ms.push_back(MsBetween(due, done));
        mine.done_s.push_back(
            std::chrono::duration<double>(done - start).count());
        mine.rtt_ms.push_back(MsBetween(sent, done));
        mine.service_ms.push_back(answer.value().result.elapsed_s * 1e3);
        if (sampler != nullptr) {
          sampler->Offer(first_index + index, key, answer.value().sequence,
                         answer.value().result);
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  ReadPhase phase;
  phase.seconds = SecondsSince(start);
  for (const ReadPhase& p : partial) {
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&phase.latency_ms, p.latency_ms);
    append(&phase.rtt_ms, p.rtt_ms);
    append(&phase.service_ms, p.service_ms);
    append(&phase.lag_ms, p.lag_ms);
    append(&phase.done_s, p.done_s);
    phase.sent += p.sent;
    phase.failed += p.failed;
    phase.end_lag_ms = std::max(phase.end_lag_ms, p.end_lag_ms);
  }
  return phase;
}

/// The latencies of a phase's completed reads, split into kWindows equal
/// time windows by completion time.
std::vector<std::vector<double>> Windows(const ReadPhase& phase) {
  const double window_s = phase.seconds / kWindows;
  std::vector<std::vector<double>> windows(kWindows);
  for (size_t i = 0; i < phase.done_s.size(); ++i) {
    const int w = static_cast<int>(phase.done_s[i] / window_s);
    windows[std::min(kWindows - 1, w)].push_back(phase.latency_ms[i]);
  }
  return windows;
}

struct Mutation {
  staq::wal::MutationRecord record;  // as the WAL logged it
  staq::serve::ScenarioStore::MutationReport report;
  double ack_ms = 0.0;
};

/// Records a mutation ack and retains the epoch it installed.
bool NoteAck(const staq::util::Result<staq::net::MutateResultMsg>& ack,
             staq::wal::MutationRecord record, double ack_ms,
             staq::serve::AqServer* server, EpochSnapshots* snapshots,
             std::vector<Mutation>* log) {
  if (!ack.ok()) return false;
  record.sequence = ack.value().sequence;
  log->push_back({record, ack.value().report, ack_ms});
  auto snapshot = server->Snapshot();
  if (snapshot->epoch() == ack.value().sequence) snapshots->Add(snapshot);
  return true;
}

/// Closed-loop editor: AddPoi at a seeded zone centroid, then RemovePoi of
/// that POI, cycling through the categories, until *stop.
void RunEditor(staq::net::AqClient* client, const staq::synth::City& city,
               uint64_t seed, const std::atomic<bool>* stop,
               staq::serve::AqServer* server, EpochSnapshots* snapshots,
               std::vector<Mutation>* log, uint64_t* failed, Tracer* tracer) {
  const uint64_t rotation = Mix(seed, kEditStream, 0);
  for (uint64_t e = 0; !stop->load(); ++e) {
    const auto category =
        static_cast<staq::synth::PoiCategory>((rotation + e) % 4);
    const auto& zone =
        city.zones[Mix(seed, kEditStream, 1 + e) % city.zones.size()];
    auto start = Clock::now();
    staq::util::Result<staq::net::MutateResultMsg> added =
        staq::util::Status::Internal("not sent");
    {
      Span span(tracer, "net.mutate", e + 1);
      added = client->AddPoi(category, zone.centroid);
    }
    const double add_ms = MsBetween(start, Clock::now());
    const uint32_t poi_id = added.ok() ? added.value().report.poi_id : 0;
    if (!NoteAck(added,
                 staq::wal::MutationRecord::AddPoi(0, category, zone.centroid,
                                                   poi_id),
                 add_ms, server, snapshots, log)) {
      ++*failed;
      return;
    }
    start = Clock::now();
    staq::util::Result<staq::net::MutateResultMsg> removed =
        staq::util::Status::Internal("not sent");
    {
      Span span(tracer, "net.mutate", e + 1);
      removed = client->RemovePoi(poi_id);
    }
    if (!NoteAck(removed, staq::wal::MutationRecord::RemovePoi(0, poi_id),
                 MsBetween(start, Clock::now()), server, snapshots, log)) {
      ++*failed;
      return;
    }
  }
}

/// Appends the run's mutation records to a scratch WAL in `dir`, fsync'd
/// each, and reports the append cost and size.
void ReportScratchWal(const std::vector<Mutation>& mutations,
                      const std::string& dir, Tracer* tracer, Result* result) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  auto opened = staq::wal::MutationWal::Open(dir);
  if (!opened.ok()) {
    result->Mismatch("scratch WAL open failed: " + opened.status().ToString());
    return;
  }
  std::unique_ptr<staq::wal::MutationWal> wal = std::move(opened).value();
  std::vector<double> append_ms;
  for (const Mutation& m : mutations) {
    Span span(tracer, "wal.append", m.record.sequence);
    const auto start = Clock::now();
    auto appended = wal->Append(m.record);
    append_ms.push_back(MsBetween(start, Clock::now()));
    if (!appended.ok()) {
      result->Mismatch("scratch WAL append failed: " + appended.ToString());
      break;
    }
  }
  const staq::wal::WalStats stats = wal->stats();
  wal.reset();
  std::filesystem::remove_all(dir, ignored);
  result->Metric("wal.append_ms", Median(append_ms), "ms");
  result->Metric("wal.bytes_per_append",
                 stats.appends > 0
                     ? static_cast<double>(stats.bytes_appended) / stats.appends
                     : 0.0,
                 "bytes");
}

void RunWhatif(const Args& args, const CitySetup& city, Tracer* tracer,
               Result* result, bool as_probe) {
  const bool traced = tracer->enabled();
  const double base_s = 0.6 * args.seconds;
  const double saturation_s = 0.2 * args.seconds;
  const double ladder_s = 0.2 * args.seconds;

  // --- the 8 warm keys: 4 categories x {JT, GAC}, one seeded TODAM seed ----
  std::vector<AqRequest> keys;
  const uint64_t todam_seed = Mix(args.seed, kKeyStream, 0);
  for (int cost = 0; cost < 2; ++cost) {
    for (int category = 0; category < 4; ++category) {
      AqRequest request;
      request.category = static_cast<staq::synth::PoiCategory>(category);
      request.options.exact = true;
      request.options.gravity = city.gravity;
      request.options.cost = cost == 0 ? staq::core::CostKind::kJourneyTime
                                       : staq::core::CostKind::kGeneralizedCost;
      request.options.seed = todam_seed;
      keys.push_back(request);
    }
  }

  // --- setup, repeated: the median is setup_s -------------------------------
  std::unique_ptr<Deployment> deployment;
  std::vector<double> setup_s, build_city_s;
  std::vector<AccessQueryResult> warm(keys.size());
  const int setup_reps = args.tiny || as_probe ? 1 : 5;
  for (int rep = 0; rep < setup_reps; ++rep) {
    deployment.reset();
    deployment = std::make_unique<Deployment>();
    deployment->wal_dir = args.out_dir + "/wal-" + std::to_string(getpid()) +
                          "-" + std::to_string(rep);
    std::error_code ignored;
    std::filesystem::remove_all(deployment->wal_dir, ignored);

    const auto start = Clock::now();
    auto built = staq::synth::BuildCity(city.spec);
    if (!built.ok()) {
      result->Mismatch("city build failed: " + built.status().ToString());
      return;
    }
    build_city_s.push_back(SecondsSince(start));
    staq::serve::AqServer::Options options;
    options.num_threads = kWorkers;
    options.max_pending = 1 << 16;
    deployment->server = std::make_unique<staq::serve::AqServer>(
        std::move(built).value(), staq::gtfs::WeekdayAmPeak(), options);
    auto wal = staq::wal::MutationWal::Open(deployment->wal_dir);
    if (!wal.ok()) {
      result->Mismatch("WAL open failed: " + wal.status().ToString());
      return;
    }
    deployment->wal = std::move(wal).value();
    auto attached = deployment->server->AttachWal(deployment->wal.get());
    if (!attached.ok()) {
      result->Mismatch("WAL attach failed: " + attached.ToString());
      return;
    }
    deployment->tcp = std::make_unique<staq::net::AqTcpServer>(
        deployment->server.get(), staq::net::AqTcpServer::Options{});
    auto started = deployment->tcp->Start();
    if (!started.ok()) {
      result->Mismatch("TCP start failed: " + started.ToString());
      return;
    }
    std::vector<staq::serve::AqTicket> tickets;
    for (const auto& key : keys) {
      tickets.push_back(deployment->server->Submit(key));
    }
    for (size_t k = 0; k < keys.size(); ++k) {
      auto answer = tickets[k].Get();
      if (!answer.ok()) {
        result->Mismatch("warming key " + std::to_string(k) + " failed");
        return;
      }
      warm[k] = std::move(answer).value();
    }
    setup_s.push_back(SecondsSince(start));
  }
  staq::serve::AqServer* server = deployment->server.get();
  const staq::synth::City& base_city = server->base_city();
  // The traced run decomposes the warm keys' label-state builds on the
  // undisrupted epoch after the timed phases.
  const std::shared_ptr<const Scenario> epoch0 =
      traced ? server->Snapshot() : nullptr;

  // Disruption targets, resolved on the city before any traffic.
  auto busiest_route = staq::scenario::BusiestRoute(base_city.feed);
  auto busiest_stop = staq::scenario::BusiestStop(base_city.feed);
  if (!busiest_route.ok() || !busiest_stop.ok()) {
    result->Mismatch("disruption targets could not be resolved");
    return;
  }

  std::vector<staq::net::AqClient> readers;
  staq::net::AqClient editor;
  for (int c = 0; c <= kReaders; ++c) {
    auto client =
        staq::net::AqClient::Connect("127.0.0.1", deployment->tcp->port());
    if (!client.ok()) {
      result->Mismatch("connect failed: " + client.status().ToString());
      return;
    }
    if (c < kReaders) {
      readers.push_back(std::move(client).value());
    } else {
      editor = std::move(client).value();
    }
  }

  EpochSnapshots snapshots;
  snapshots.Add(server->Snapshot());
  Sampler sampler(args.seed, &snapshots);
  const size_t sample_cap = args.tiny || as_probe ? 1 : 3;

  // --- base-rate reads, saturation, then the ladder; edits throughout ------
  std::vector<Mutation> mutations;
  uint64_t edit_failures = 0;
  std::atomic<bool> stop_edits{false};
  const auto stats_before = server->stats();
  std::thread edit_thread([&] {
    RunEditor(&editor, base_city, args.seed, &stop_edits, server, &snapshots,
              &mutations, &edit_failures, tracer);
  });

  uint64_t read_index = 0;
  uint64_t read_failures = 0;
  uint64_t reads_sent = 0;
  sampler.BeginPhase(sample_cap);
  ReadPhase base = RunReads(&readers, keys, kBaseQps, base_s, nullptr,
                            args.seed, read_index, &sampler);
  read_index += 1u << 30;
  read_failures += base.failed;
  reads_sent += base.sent;

  // Saturation: every connection sends back to back (all reads are due at
  // once), which gives the most reads per second the server sustains.
  sampler.BeginPhase(sample_cap);
  ReadPhase saturated = RunReads(&readers, keys, 1e12, saturation_s, nullptr,
                                 args.seed, read_index, &sampler);
  read_index += 1u << 30;
  read_failures += saturated.failed;
  reads_sent += saturated.sent;
  std::vector<double> window_qps;
  for (const auto& window : Windows(saturated)) {
    window_qps.push_back(window.size() / (saturated.seconds / kWindows));
  }
  const double saturated_qps = Median(window_qps);

  std::vector<double> rungs;
  for (double rate = kFirstRung; rate <= kLastRung * 1.0001;
       rate *= kRungRatio) {
    rungs.push_back(rate);
  }
  sampler.BeginPhase(sample_cap);
  int lo = -1;  // highest rung known to pass
  int hi = static_cast<int>(rungs.size());  // lowest rung known to fail
  int rung = static_cast<int>(std::lround(std::log(kBaseQps / kFirstRung) /
                                          std::log(kRungRatio)));
  for (int probe = 0; probe < kLadderProbes && hi - lo > 1; ++probe) {
    const double rung_s = std::max(ladder_s / kLadderProbes,
                                   args.tiny ? 0.0 : 1100.0 / rungs[rung]);
    ReadPhase phase = RunReads(&readers, keys, rungs[rung], rung_s, nullptr,
                               args.seed, read_index, &sampler);
    read_index += 1u << 30;
    read_failures += phase.failed;
    reads_sent += phase.sent;
    const bool pass = phase.failed == 0 &&
                      Quantile(phase.latency_ms, 0.99) <= kReadLimitMs &&
                      phase.end_lag_ms <= kReadLimitMs;
    if (pass) {
      lo = rung;
    } else {
      hi = rung;
    }
    if (hi == static_cast<int>(rungs.size())) {
      rung = std::min(lo + 16, hi - 1);
    } else if (lo < 0) {
      rung = std::max(hi - 16, 0);
    } else {
      rung = (lo + hi) / 2;
    }
    if (rung <= lo || rung >= hi) break;
  }
  // 0 when no probed rung met the limit.
  const double max_qps = lo >= 0 ? rungs[lo] : 0.0;

  stop_edits = true;
  edit_thread.join();
  const auto stats_after = server->stats();
  std::vector<double> edit_ms;
  for (const Mutation& m : mutations) edit_ms.push_back(m.ack_ms);
  const size_t poi_edits = mutations.size();

  // --- the five disruptions over the wire, base-rate reads on -------------
  std::atomic<bool> disruptions_done{false};
  double disruption_s = 0.0;
  std::map<std::string, double> disruption_ms;
  std::thread disrupt_thread([&] {
    struct Kind {
      const char* metric;
      staq::wal::MutationRecord record;
    };
    const Kind kinds[] = {
        {"scenario.suspend_route_ms",
         staq::wal::MutationRecord::SuspendRoute(0, busiest_route.value())},
        {"scenario.close_stop_ms",
         staq::wal::MutationRecord::CloseStop(0, busiest_stop.value())},
        {"scenario.scale_headway_ms",
         staq::wal::MutationRecord::ScaleHeadway(0, staq::wal::kAllTargets, 2)},
        {"scenario.set_fare_ms",
         staq::wal::MutationRecord::SetFare(0, staq::wal::kAllTargets, 4.0)},
        {"scenario.scale_walk_ms",
         staq::wal::MutationRecord::ScaleWalkSpeed(0, 0.5)},
    };
    for (const Kind& kind : kinds) {
      const auto start = Clock::now();
      staq::util::Result<staq::net::MutateResultMsg> ack =
          staq::util::Status::Internal("unreachable");
      const auto& r = kind.record;
      switch (r.type) {
        case staq::wal::MutationType::kSuspendRoute:
          ack = editor.SuspendRoute(r.target);
          break;
        case staq::wal::MutationType::kCloseStop:
          ack = editor.CloseStop(r.target);
          break;
        case staq::wal::MutationType::kScaleHeadway:
          ack = editor.ScaleHeadway(r.target, r.factor);
          break;
        case staq::wal::MutationType::kSetFare:
          ack = editor.SetFare(r.target, r.value);
          break;
        default:
          ack = editor.ScaleWalkSpeed(r.value);
          break;
      }
      const double ms = MsBetween(start, Clock::now());
      if (!NoteAck(ack, r, ms, server, &snapshots, &mutations)) {
        ++edit_failures;
        break;
      }
      disruption_s += ms / 1e3;
      disruption_ms[kind.metric] = mutations.back().report.seconds * 1e3;
    }
    disruptions_done = true;
  });
  sampler.BeginPhase(2 * sample_cap);
  ReadPhase during = RunReads(&readers, keys, kBaseQps, 120.0,
                              &disruptions_done, args.seed, read_index,
                              &sampler);
  disrupt_thread.join();
  read_failures += during.failed;
  reads_sent += during.sent;

  result->attempted += reads_sent + mutations.size();
  result->failed += read_failures + edit_failures;
  if (read_failures > 0) {
    result->mismatches.push_back(std::to_string(read_failures) +
                                 " reads failed");
  }
  if (edit_failures > 0) {
    result->mismatches.push_back(std::to_string(edit_failures) +
                                 " mutations failed");
  }

  // --- output check: sampled reads against their epoch's uncached answer ---
  std::vector<ReadSample> samples = sampler.Take();
  if (samples.empty()) result->Mismatch("no read was sampled for checking");
  {
    std::vector<std::string> why(samples.size());
    std::vector<char> same(samples.size(), 0);
    std::atomic<size_t> next{0};
    std::vector<std::thread> checkers;
    for (int c = 0; c < kWorkers; ++c) {
      checkers.emplace_back([&] {
        for (size_t s = next++; s < samples.size(); s = next++) {
          const ReadSample& sample = samples[s];
          auto golden =
              server->QueryUncachedOn(*sample.snapshot, keys[sample.key]);
          AccessQueryResult answer = sample.answer;
          if (args.perturb && s == 0) Perturb(&answer);
          same[s] = golden.ok() && SameAnswer(answer, golden.value(),
                                              Fields::kNoSpqs, &why[s]);
        }
      });
    }
    for (auto& checker : checkers) checker.join();
    for (size_t s = 0; s < samples.size(); ++s) {
      if (!same[s]) {
        result->Mismatch("read of key " + std::to_string(samples[s].key) +
                         " at epoch " +
                         std::to_string(samples[s].snapshot->epoch()) +
                         " differs from QueryUncachedOn in " + why[s]);
      }
    }
  }

  // --- report ----------------------------------------------------------------
  const double read_p50 = Quantile(base.latency_ms, 0.5);
  std::vector<double> window_p90;
  for (const auto& window : Windows(base)) {
    window_p90.push_back(Quantile(window, 0.9));
  }
  const double read_p90 = Median(window_p90);
  const double read_p99 = Quantile(base.latency_ms, 0.99);
  result->Samples("p50_ms", base.latency_ms.size(), 0.5);
  result->Samples("tail_ms", base.latency_ms.size() / kWindows, 0.9);
  result->Samples("read_p99_ms", base.latency_ms.size(), 0.99);
  result->Samples("edit_p50_ms", edit_ms.size(), 0.5);
  result->Samples("edit_p90_ms", edit_ms.size(), 0.9);
  result->Metric("setup_s", Median(setup_s), "s");
  result->Metric("p50_ms", read_p50, "ms");
  result->Metric("tail_ms", read_p90, "ms");
  result->Metric("ops_per_s", saturated_qps, "1/s");
  result->Extra("read_p50_ms", read_p50, "ms");
  result->Extra("read_p99_ms", read_p99, "ms");
  result->Extra("read_max_qps", max_qps, "q/s");
  result->Extra("read_saturated_qps", saturated_qps, "q/s");
  result->Extra("edit_p50_ms", Median(edit_ms), "ms");
  result->Extra("edit_p90_ms", Quantile(edit_ms, 0.9), "ms");
  result->Extra("poi_edits", static_cast<double>(poi_edits), "count");
  result->Extra("disruption_s", disruption_s, "s");
  result->Extra("zones", static_cast<double>(base_city.zones.size()), "count");

  if (!traced) return;

  // --- traced: per-layer metrics -------------------------------------------
  ReportSetupLayers(*server, Median(build_city_s), result);
  ReportWireCodec(keys, warm, result);
  ReportServerStats(stats_before, stats_after, result);
  ReportQueueWait(base.rtt_ms, base.service_ms, result);
  result->Metric("gen.lag_p99_ms", Quantile(base.lag_ms, 0.99), "ms");
  result->Samples("gen.lag_p99_ms", base.lag_ms.size(), 0.99);
  result->Metric("trace.p50_ms", read_p50, "ms");

  std::vector<double> apply_ms, zones_relabeled, spqs;
  for (size_t m = 0; m < poi_edits; ++m) {
    apply_ms.push_back(mutations[m].report.seconds * 1e3);
    zones_relabeled.push_back(mutations[m].report.zones_relabeled);
    spqs.push_back(static_cast<double>(mutations[m].report.spqs));
  }
  result->Metric("serve.edit_apply_ms", Median(apply_ms), "ms");
  result->Metric("serve.edit_zones_relabeled", Mean(zones_relabeled), "count");
  result->Metric("serve.edit_spqs", Mean(spqs), "count");
  for (const auto& [metric, ms] : disruption_ms) {
    result->Metric(metric, ms, "ms");
  }
  ReportScratchWal(mutations,
                   args.out_dir + "/wal-scratch-" + std::to_string(getpid()),
                   tracer, result);
  result->Metric("wal.syncs",
                 static_cast<double>(deployment->wal->stats().syncs), "count");

  // Wire overhead: loopback round trip minus the in-process call, same
  // cached key, quiet server.
  {
    std::vector<double> remote_ms, local_ms;
    for (int i = 0; i < 400; ++i) {
      const AqRequest& key = keys[i % keys.size()];
      auto start = Clock::now();
      auto remote = readers[0].Query(key);
      remote_ms.push_back(MsBetween(start, Clock::now()));
      start = Clock::now();
      auto local = server->Query(key);
      local_ms.push_back(MsBetween(start, Clock::now()));
      if (!remote.ok() || !local.ok()) {
        result->Mismatch("wire overhead probe query failed");
        break;
      }
    }
    result->Metric("net.overhead_ms", Median(remote_ms) - Median(local_ms),
                   "ms");
  }
  result->Metric(
      "net.protocol_errors",
      static_cast<double>(deployment->tcp->stats().protocol_errors), "count");

  // Label-state builds of the warm keys, decomposed and checked against
  // the warm answers.
  RoutingContext context(*epoch0);
  LayerSamples layer_samples;
  for (size_t k = 0; k < keys.size(); ++k) {
    AccessQueryResult decomposed = DecomposeExact(
        *epoch0, keys[k], &context, tracer, 2000000 + k, &layer_samples);
    std::string why;
    if (!SameAnswer(decomposed, warm[k], Fields::kAll, &why)) {
      result->Mismatch("warm key " + std::to_string(k) +
                       " differs between the decomposed path and the server "
                       "in " + why);
    }
  }
  ReportLayerSamples(layer_samples, result);
  if (!as_probe) SsrProbe(server, city, args.seed, tracer, result);
}

}  // namespace

void RunWhatifServe(const Args& args, const CitySetup& city, Tracer* tracer,
                    Result* result) {
  RunWhatif(args, city, tracer, result, /*as_probe=*/false);
}

void WhatifProbe(const Args& args, const CitySetup& city, Tracer* tracer,
                 Result* result) {
  Args probe_args = args;
  probe_args.seconds = args.tiny ? args.seconds : 2.0;
  probe_args.perturb = false;
  RunWhatif(probe_args, city, tracer, result, /*as_probe=*/true);
}

void SsrProbe(staq::serve::AqServer* server, const CitySetup& city,
              uint64_t seed, Tracer* tracer, Result* result) {
  const staq::ml::ModelKind models[] = {
      staq::ml::ModelKind::kOls, staq::ml::ModelKind::kMlp,
      staq::ml::ModelKind::kCoreg, staq::ml::ModelKind::kMeanTeacher};
  auto snapshot = server->Snapshot();
  RoutingContext context(*snapshot);
  LayerSamples samples;
  for (int m = 0; m < 4; ++m) {
    AqRequest request;
    request.category = static_cast<staq::synth::PoiCategory>(m);
    request.options.exact = false;
    request.options.beta = 0.05;
    request.options.model = models[m];
    request.options.gravity = city.gravity;
    request.options.seed = Mix(seed, 31, m);
    auto decomposed = DecomposeSsr(*snapshot, request, &context, tracer,
                                   3000000 + m, &samples);
    auto golden = server->QueryUncachedOn(*snapshot, request);
    ++result->attempted;
    std::string why;
    if (!decomposed.ok() || !golden.ok() ||
        !SameAnswer(decomposed.value(), golden.value(), Fields::kAll, &why)) {
      result->Mismatch("SSR probe " + std::to_string(m) +
                       " differs between the decomposed path and the server "
                       "in " + why);
    }
  }
  Result probe;
  ReportLayerSamples(samples, &probe);
  MergeProbe(probe, result);
}

void MergeProbe(const Result& probe, Result* result) {
  for (const auto& [name, value] : probe.metrics) {
    if (!IsEndToEnd(name)) result->metrics.emplace(name, value);
  }
  for (const auto& [name, count] : probe.samples) {
    result->samples.emplace(name, count);
  }
  result->mismatches.insert(result->mismatches.end(), probe.mismatches.begin(),
                            probe.mismatches.end());
  result->attempted += probe.attempted;
  result->failed += probe.failed;
}

}  // namespace perfbench
