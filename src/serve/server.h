// staq::serve — concurrent access-query server.
//
// An AqServer owns a ScenarioStore (epoch-versioned scenarios, incremental
// relabeling) and a worker pool, and answers AqRequests concurrently:
//
//   * Admission: Submit() refuses new work with kResourceExhausted once the
//     queue holds max_pending tasks, so a burst degrades into fast
//     rejections instead of unbounded latency.
//   * Snapshots: each request captures the current scenario at submission.
//     Mutations arriving while it waits or runs do not affect it — it
//     answers against the epoch it was admitted under (RCU discipline).
//   * Deadlines: a request whose budget expired before a worker picked it
//     up fails with kDeadlineExceeded without doing any work; a ticket can
//     also be withdrawn explicitly while still queued.
//   * Caching: results are memoised in a sharded LRU keyed by (epoch,
//     canonical request), and exact label states are memoised per scenario,
//     so repeated analytical queries against a stable scenario cost one
//     cache probe.
//
// QueryUncached() recomputes from scratch, bypassing every cache — it is
// the golden reference that tests and the serve bench compare cached and
// incremental answers against.
#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/access_query.h"
#include "serve/request.h"
#include "serve/result_cache.h"
#include "serve/scenario.h"
#include "util/clock.h"
#include "util/thread_pool.h"
#include "wal/record.h"

namespace staq::wal {
class MutationWal;
}  // namespace staq::wal

namespace staq::serve {

class AqServer;

/// Handle to one submitted request. Get() blocks for the answer; TryCancel
/// withdraws the request if no worker has started it. The issuing AqServer
/// must outlive the ticket.
class AqTicket {
 public:
  /// epoch() value of a ticket that never resolved a snapshot (empty or
  /// rejected at admission).
  static constexpr uint64_t kNoEpoch = ~0ull;

  AqTicket() = default;

  bool valid() const { return promise_ != nullptr; }

  /// The scenario epoch the request was admitted under — the pure snapshot
  /// its answer must be bit-identical to. kNoEpoch for empty/rejected
  /// tickets. Stress tests use this to check epoch consistency.
  uint64_t epoch() const { return epoch_; }

  /// Blocks until the request resolves and returns its result. Consumes
  /// the ticket's future; a second call — or a call on an empty ticket —
  /// returns kFailedPrecondition instead of touching an invalid future.
  util::Result<core::AccessQueryResult> Get();

  /// Withdraws the request while it is still queued. On success the ticket
  /// resolves to kCancelled and no worker ever sees the request.
  bool TryCancel();

 private:
  friend class AqServer;
  using Promise = std::promise<util::Result<core::AccessQueryResult>>;

  AqServer* server_ = nullptr;
  std::shared_ptr<Promise> promise_;
  std::future<util::Result<core::AccessQueryResult>> future_;
  util::TaskHandle handle_;
  uint64_t epoch_ = kNoEpoch;
};

class AqServer {
 public:
  struct Options {
    /// Worker threads; 0 = hardware concurrency.
    size_t num_threads = 0;
    /// Worker threads for SSR model training inside each access query
    /// (COREG pool screening, MLP gradient chunks). Training is
    /// bit-identical for every value, so this is deliberately NOT part of
    /// the result-cache key — changing it never changes answers.
    int ml_threads = 1;
    /// Admission bound: Submit() rejects once this many tasks are pending.
    size_t max_pending = 256;
    /// Latency-based admission bound (the load-shedding path): when > 0,
    /// Submit() estimates the queueing delay a new request would see —
    /// pending tasks × EWMA(service time) / workers — and sheds it with
    /// kUnavailable once the estimate exceeds this budget. Shedding keeps
    /// the tail latency of *admitted* requests bounded under overload
    /// instead of letting the queue absorb the backlog; shed requests are
    /// counted in ServerStats::shed, separately from queue-full
    /// rejections. 0 disables shedding (max_pending still applies).
    double max_queue_delay_s = 0.0;
    ResultCache::Options cache;
    ScenarioStore::Options scenario;
    /// Time source for deadlines, cache aging, and latency accounting;
    /// null = the real clock. Tests pass a VirtualClock and advance time
    /// explicitly instead of sleeping. (When cache.clock is null it
    /// inherits this clock.)
    const util::Clock* clock = nullptr;
    /// Schedule shaking for the worker pool (stress tests only): seeded
    /// task reordering + jitter, see ThreadPool::PerturbOptions.
    std::optional<util::ThreadPool::PerturbOptions> perturb;
    /// When non-empty, warm-start from this snapshot file
    /// (store/snapshot.h): the loaded serving state — city, offline
    /// structures, materialised label states — is published as epoch 0 and
    /// the offline cold build is skipped. A snapshot that fails to open,
    /// verify, or decode degrades to the cold build over the passed city
    /// with a logged warning; a bad file never stops the server coming up.
    std::string warm_start_path;
  };

  /// Takes ownership of the city and runs the offline phase for `interval`.
  AqServer(synth::City city, const gtfs::TimeInterval& interval,
           Options options);
  AqServer(synth::City city, const gtfs::TimeInterval& interval);
  ~AqServer();

  AqServer(const AqServer&) = delete;
  AqServer& operator=(const AqServer&) = delete;

  // --- scenario API ------------------------------------------------------
  uint64_t epoch() const { return store_.epoch(); }
  /// Absolute scenario sequence — the server's position in the mutation
  /// history the WAL records: the warm-start snapshot's source sequence
  /// plus the local epoch. This is the number replication compares across
  /// primary and replicas (local epochs restart at 0 on every warm start
  /// and are incomparable between processes).
  uint64_t sequence() const { return store_.base_sequence() + store_.epoch(); }
  /// Sequence offset of epoch 0 (immutable after construction).
  uint64_t base_sequence() const { return store_.base_sequence(); }
  std::shared_ptr<const Scenario> Snapshot() const { return store_.Acquire(); }
  const synth::City& base_city() const { return store_.base_city(); }
  /// The store's effective router configuration — engine selector plus the
  /// shared connection array (kCsa) every worker router scans. Benches
  /// report the engine and the array's one-time build cost from here.
  const router::RouterOptions& router_options() const {
    return store_.router_options();
  }
  /// True when the serving state came from Options::warm_start_path rather
  /// than a cold build.
  bool warm_started() const { return warm_started_; }

  /// Persists the current serving state — or any retained scenario — to
  /// `path` in the store/snapshot.h format. Safe under concurrent queries
  /// and mutations (scenarios are immutable snapshots).
  util::Status ExportSnapshot(const std::string& path) const {
    return store_.ExportSnapshot(path);
  }
  util::Status ExportSnapshot(const Scenario& scenario,
                              const std::string& path) const {
    return store_.ExportSnapshot(scenario, path);
  }

  // Mutations are transactional: a failure (NotFound, or an exception out
  // of the patch/relabel machinery, e.g. an injected fault) leaves the
  // store at the previous epoch with every label state intact, and is
  // reported as a clean Status instead of escaping as an exception.
  util::Result<ScenarioStore::MutationReport> AddPoi(
      synth::PoiCategory category, const geo::Point& position);
  util::Result<ScenarioStore::MutationReport> RemovePoi(uint32_t poi_id);
  util::Result<ScenarioStore::MutationReport> SetInterval(
      const gtfs::TimeInterval& interval);

  // Timetable disruptions (scenario subsystem) — same transactional
  // contract, same WAL logging. In-flight queries keep answering against
  // the epoch (and network) they were admitted under; worker contexts are
  // keyed by the scenario's network version, so routing always matches the
  // snapshot being served.
  util::Result<ScenarioStore::MutationReport> SuspendRoute(uint32_t route);
  util::Result<ScenarioStore::MutationReport> CloseStop(uint32_t stop);
  util::Result<ScenarioStore::MutationReport> ScaleHeadway(uint32_t route,
                                                           uint32_t factor);
  util::Result<ScenarioStore::MutationReport> SetFare(uint32_t route,
                                                      double fare);
  util::Result<ScenarioStore::MutationReport> ScaleWalkSpeed(double factor);

  // --- replication API ---------------------------------------------------
  /// Makes this server a logging primary: every accepted mutation appends
  /// its record to `wal` (not owned; must outlive the server) before the
  /// mutation is acknowledged. The WAL must be exactly caught up —
  /// wal->last_sequence() == sequence() — or kFailedPrecondition; replay
  /// the log into the server first (ApplyMutation), then attach.
  ///
  /// A failed append surfaces as the mutation's status: the new epoch is
  /// serving locally but is NOT durable or replicated, and the WAL has
  /// turned read-only, so further mutations fail until it is reopened and
  /// reattached. Queries are never affected.
  util::Status AttachWal(wal::MutationWal* wal);

  /// Replays one logged mutation (the replica path; also WAL recovery on a
  /// restarting primary *before* AttachWal). Validates that the record
  /// extends this server's history — record.sequence == sequence() + 1,
  /// and for AddPoi that the locally assigned POI id matches the record —
  /// and returns kAborted on any mismatch: the replica has diverged and
  /// must stop applying rather than serve silently different answers.
  /// Records applied here are not re-logged to an attached WAL.
  util::Result<ScenarioStore::MutationReport> ApplyMutation(
      const wal::MutationRecord& record);

  // --- query API ---------------------------------------------------------
  /// Asynchronous submission. Never blocks on query work; returns a
  /// rejected ticket (kResourceExhausted) when the queue is full, and an
  /// InvalidArgument ticket for a generalized-cost request with invalid
  /// GAC weights.
  AqTicket Submit(const AqRequest& request);

  /// Synchronous convenience: Submit + Get.
  util::Result<core::AccessQueryResult> Query(const AqRequest& request);

  /// Vector submission: expands the batch (see ExpandBatch for the order)
  /// and returns one ticket per derived request. Exact members of one
  /// (category, seed) group run as ONE worker task sharing a single
  /// labeling pass — each member's answer is derived columnarly,
  /// bit-identical to the single-request path — and every answer is
  /// inserted into the result cache under its derived single-query key, so
  /// later single submissions are cache hits. Non-exact (SSR) members
  /// share no pass and run as ordinary individual tasks. Admission
  /// (invalid GAC weights in any member, queue-full rejection, delay-budget
  /// shedding) is decided once for the whole batch. Batch tickets cannot
  /// be cancelled (TryCancel returns false): members of a group do not
  /// have individual queue slots.
  std::vector<AqTicket> SubmitBatch(const AqBatchRequest& batch);

  /// Synchronous convenience: SubmitBatch + Get on every ticket, in batch
  /// order.
  std::vector<util::Result<core::AccessQueryResult>> QueryBatch(
      const AqBatchRequest& batch);

  /// Golden reference: recomputes the answer from scratch on the caller's
  /// thread, bypassing the result cache and the label-state memo.
  util::Result<core::AccessQueryResult> QueryUncached(const AqRequest& request);

  /// Sequential reference against an explicit snapshot: like QueryUncached
  /// but answers for `scenario` (any retained epoch) rather than the
  /// current one. Stress tests retain per-epoch snapshots and check every
  /// concurrent answer bit-identically against this.
  util::Result<core::AccessQueryResult> QueryUncachedOn(
      const Scenario& scenario, const AqRequest& request);

  ServerStats stats() const;
  size_t num_threads() const { return pool_.num_threads(); }

 private:
  friend class AqTicket;

  /// Per-worker routing context: Router scratch is not shareable across
  /// threads, so each concurrently running request leases one of these.
  /// The context shares ownership of the city its router scans — a network
  /// mutation can retire that city from the store while a leased context
  /// still routes over it — and carries the network version it was built
  /// for, so a pooled context never serves a scenario of a different
  /// network.
  struct WorkerContext {
    WorkerContext(std::shared_ptr<const synth::City> city_in,
                  const router::RouterOptions& options, uint64_t version)
        : city(std::move(city_in)),
          router(&city->feed, options),
          engine(city.get(), &router),
          network_version(version) {}
    std::shared_ptr<const synth::City> city;
    router::Router router;
    core::LabelingEngine engine;
    uint64_t network_version = 0;
    /// stop_cache_epoch_ value this context's engine is known valid for.
    uint64_t stop_epoch = 0;
  };

  /// Leases a context matching `scenario`'s network: pooled contexts built
  /// for a different network version are discarded, not reused.
  std::unique_ptr<WorkerContext> AcquireContext(const Scenario& scenario);
  void ReleaseContext(std::unique_ptr<WorkerContext> context);

  /// Folds one mutation report into the stats counters.
  void NoteMutation(const ScenarioStore::MutationReport& report);
  /// Appends `record` to the attached WAL (no-op when none is attached).
  /// Must be called with wal_mu_ held, right after the store installed the
  /// record's epoch.
  util::Status LogMutation(const wal::MutationRecord& record);

  util::Result<core::AccessQueryResult> Execute(
      const AqRequest& request, const Scenario& scenario,
      WorkerContext* context, bool use_caches);
  void RunRequest(const AqRequest& request,
                  util::Clock::TimePoint submitted_at,
                  std::shared_ptr<const Scenario> snapshot,
                  const std::shared_ptr<AqTicket::Promise>& promise);
  /// Worker body of one exact (category, seed) batch group: one shared
  /// labeling pass, then per-member columnar derivation, cache fill, and
  /// promise fulfilment. `requests` and `promises` are parallel arrays.
  void RunBatchGroup(const std::vector<AqRequest>& requests,
                     util::Clock::TimePoint submitted_at,
                     std::shared_ptr<const Scenario> snapshot,
                     const std::vector<std::shared_ptr<AqTicket::Promise>>&
                         promises);
  /// True when the delay-budget estimate says a new submission should be
  /// shed (see Options::max_queue_delay_s).
  bool ShouldShed() const;
  /// Folds one completed task's service time into the shedding estimator.
  void NoteServiceTime(double seconds);

  Options options_;
  /// Resolved time source (options_.clock or the real clock). Never null.
  const util::Clock* clock_;
  /// Set while store_ initialises (declared first so it exists by then).
  bool warm_started_ = false;
  ScenarioStore store_;
  ResultCache cache_;

  /// Serialises the mutation+log critical section so WAL order always
  /// equals epoch order (the store's own mutation_mu_ only covers the
  /// store half). Never held while queries run.
  std::mutex wal_mu_;
  wal::MutationWal* wal_ = nullptr;  // attached log; not owned

  std::mutex context_mu_;
  std::vector<std::unique_ptr<WorkerContext>> free_contexts_;
  /// Bumped by mutations that may stale a WorkerContext's cached access
  /// stops; contexts are invalidated lazily on Acquire when their stamp
  /// lags, so leased contexts are covered too (not just the free list).
  std::atomic<uint64_t> stop_cache_epoch_{0};

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> exact_state_builds_{0};
  std::atomic<uint64_t> mutations_{0};
  std::atomic<uint64_t> states_patched_{0};
  std::atomic<uint64_t> zones_relabeled_{0};
  std::atomic<uint64_t> patch_spqs_{0};

  /// EWMA of per-task service seconds feeding the shedding estimate. A
  /// rough load signal, not an accounting value: concurrent updates may
  /// lose a sample (load and store are separate relaxed atomic ops), which
  /// only perturbs the estimate by one decayed term.
  std::atomic<double> service_ewma_s_{0.0};

  /// Declared last so ~AqServer destroys it first: ~ThreadPool finishes
  /// already-queued RunRequest tasks before joining, and those tasks touch
  /// every member above (contexts, mutex, caches, counters).
  util::ThreadPool pool_;
};

}  // namespace staq::serve
