#include "serve/server.h"

#include <exception>
#include <thread>
#include <utility>

#include "core/columnar.h"
#include "core/pipeline.h"
#include "store/snapshot.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "wal/wal.h"

namespace staq::serve {

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 2;
}

/// Degrades an escaped exception into the clean Status the serve API
/// promises (failpoint throws, bad_alloc, anything the core engines
/// raise). The server must never hang a waiter or kill a worker over one.
util::Status StatusFromException(const char* where) {
  try {
    throw;
  } catch (const std::exception& e) {
    return util::Status::Internal(std::string(where) + " failed: " + e.what());
  } catch (...) {
    return util::Status::Internal(std::string(where) +
                                  " failed: unknown exception");
  }
}

/// Builds the server's ScenarioStore, preferring a snapshot warm start.
/// Both branches return a prvalue, so guaranteed copy elision constructs
/// the non-movable store directly in AqServer::store_ — no move happens.
ScenarioStore MakeStore(synth::City&& city, const gtfs::TimeInterval& interval,
                        const AqServer::Options& options, bool* warm_started) {
  if (!options.warm_start_path.empty()) {
    auto restored = store::LoadSnapshot(options.warm_start_path);
    if (restored.ok()) {
      *warm_started = true;
      return ScenarioStore(std::move(restored).value(), options.scenario);
    }
    util::LogWarning("warm start from '" + options.warm_start_path +
                     "' failed (" + restored.status().ToString() +
                     "); falling back to cold build");
  }
  return ScenarioStore(std::move(city), interval, options.scenario);
}

/// Request validation shared by every entry point: a generalized-cost
/// request must carry valid GAC weights (non-negative λ, positive value of
/// time). Exact requests never reach RunSsr's own check, so it happens here.
util::Status ValidateRequest(const AqRequest& request) {
  if (request.options.cost == core::CostKind::kGeneralizedCost &&
      !request.options.gac.Valid()) {
    return util::Status::InvalidArgument(
        "invalid GAC weights (negative λ or non-positive value of time)");
  }
  return util::Status::OK();
}

}  // namespace

util::Result<core::AccessQueryResult> AqTicket::Get() {
  if (!valid() || !future_.valid()) {
    return util::Status::FailedPrecondition(
        "ticket holds no pending result (empty or already consumed)");
  }
  return future_.get();
}

bool AqTicket::TryCancel() {
  if (!valid() || !handle_.valid()) return false;
  // Fault site: cancellation failing *before* the handle state flips. A
  // throw degrades into "lost the race" — the worker still owns the
  // request and will fulfil the promise, so nobody hangs.
  try {
    STAQ_FAILPOINT("serve.ticket.cancel");
  } catch (...) {
    return false;
  }
  if (!handle_.Cancel()) return false;
  // Cancel succeeded: the worker will never touch this request, so the
  // ticket owns the promise exclusively.
  promise_->set_value(util::Status::Cancelled("request withdrawn by client"));
  server_->cancelled_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

AqServer::AqServer(synth::City city, const gtfs::TimeInterval& interval,
                   Options options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : util::Clock::Real()),
      store_(MakeStore(std::move(city), interval, options, &warm_started_)),
      cache_([&options, this] {
        // The result cache ages on the server's clock unless the caller
        // wired a dedicated one.
        ResultCache::Options cache_options = options.cache;
        if (cache_options.clock == nullptr) cache_options.clock = clock_;
        return cache_options;
      }()),
      pool_(ResolveThreads(options.num_threads)) {
  if (options_.perturb.has_value()) {
    pool_.EnablePerturbation(*options_.perturb);
  }
}

AqServer::AqServer(synth::City city, const gtfs::TimeInterval& interval)
    : AqServer(std::move(city), interval, Options()) {}

AqServer::~AqServer() = default;

void AqServer::NoteMutation(const ScenarioStore::MutationReport& report) {
  mutations_.fetch_add(1, std::memory_order_relaxed);
  states_patched_.fetch_add(report.states_patched, std::memory_order_relaxed);
  zones_relabeled_.fetch_add(report.zones_relabeled,
                             std::memory_order_relaxed);
  patch_spqs_.fetch_add(report.spqs, std::memory_order_relaxed);
}

util::Status AqServer::LogMutation(const wal::MutationRecord& record) {
  if (wal_ == nullptr) return util::Status::OK();
  return wal_->Append(record);
}

util::Status AqServer::AttachWal(wal::MutationWal* wal) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal != nullptr && wal->last_sequence() != sequence()) {
    return util::Status::FailedPrecondition(util::Format(
        "WAL is at sequence %llu but the server is at %llu; replay the log "
        "before attaching",
        static_cast<unsigned long long>(wal->last_sequence()),
        static_cast<unsigned long long>(sequence())));
  }
  wal_ = wal;
  return util::Status::OK();
}

util::Result<ScenarioStore::MutationReport> AqServer::AddPoi(
    synth::PoiCategory category, const geo::Point& position) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  ScenarioStore::MutationReport report;
  try {
    report = store_.AddPoi(category, position);
  } catch (...) {
    // The store installs the next epoch only as its last step, so an
    // aborted patch/relabel leaves the previous scenario fully intact.
    return StatusFromException("AddPoi mutation");
  }
  NoteMutation(report);
  STAQ_RETURN_NOT_OK(LogMutation(wal::MutationRecord::AddPoi(
      sequence(), category, position, report.poi_id)));
  return report;
}

util::Result<ScenarioStore::MutationReport> AqServer::RemovePoi(
    uint32_t poi_id) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  util::Result<ScenarioStore::MutationReport> report =
      util::Status::Internal("unreachable");
  try {
    report = store_.RemovePoi(poi_id);
  } catch (...) {
    return StatusFromException("RemovePoi mutation");
  }
  if (!report.ok()) return report;
  NoteMutation(report.value());
  STAQ_RETURN_NOT_OK(
      LogMutation(wal::MutationRecord::RemovePoi(sequence(), poi_id)));
  return report;
}

util::Result<ScenarioStore::MutationReport> AqServer::SetInterval(
    const gtfs::TimeInterval& interval) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  ScenarioStore::MutationReport report;
  try {
    report = store_.SetInterval(interval);
  } catch (...) {
    return StatusFromException("SetInterval mutation");
  }
  NoteMutation(report);
  // Mutation discipline (see LabelingEngine::InvalidateAccessStopCache):
  // worker engines drop their cached access stops alongside the store's
  // writer engine. Bumping the epoch invalidates lazily on the next
  // AcquireContext, which also covers contexts leased while this mutation
  // runs — a free-list sweep would miss those.
  stop_cache_epoch_.fetch_add(1, std::memory_order_release);
  STAQ_RETURN_NOT_OK(
      LogMutation(wal::MutationRecord::SetInterval(sequence(), interval)));
  return report;
}

util::Result<ScenarioStore::MutationReport> AqServer::SuspendRoute(
    uint32_t route) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  util::Result<ScenarioStore::MutationReport> report =
      util::Status::Internal("unreachable");
  try {
    report = store_.SuspendRoute(route);
  } catch (...) {
    return StatusFromException("SuspendRoute mutation");
  }
  if (!report.ok()) return report;
  NoteMutation(report.value());
  STAQ_RETURN_NOT_OK(
      LogMutation(wal::MutationRecord::SuspendRoute(sequence(), route)));
  return report;
}

util::Result<ScenarioStore::MutationReport> AqServer::CloseStop(
    uint32_t stop) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  util::Result<ScenarioStore::MutationReport> report =
      util::Status::Internal("unreachable");
  try {
    report = store_.CloseStop(stop);
  } catch (...) {
    return StatusFromException("CloseStop mutation");
  }
  if (!report.ok()) return report;
  NoteMutation(report.value());
  STAQ_RETURN_NOT_OK(
      LogMutation(wal::MutationRecord::CloseStop(sequence(), stop)));
  return report;
}

util::Result<ScenarioStore::MutationReport> AqServer::ScaleHeadway(
    uint32_t route, uint32_t factor) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  util::Result<ScenarioStore::MutationReport> report =
      util::Status::Internal("unreachable");
  try {
    report = store_.ScaleHeadway(route, factor);
  } catch (...) {
    return StatusFromException("ScaleHeadway mutation");
  }
  if (!report.ok()) return report;
  NoteMutation(report.value());
  STAQ_RETURN_NOT_OK(LogMutation(
      wal::MutationRecord::ScaleHeadway(sequence(), route, factor)));
  return report;
}

util::Result<ScenarioStore::MutationReport> AqServer::SetFare(uint32_t route,
                                                              double fare) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  util::Result<ScenarioStore::MutationReport> report =
      util::Status::Internal("unreachable");
  try {
    report = store_.SetFare(route, fare);
  } catch (...) {
    return StatusFromException("SetFare mutation");
  }
  if (!report.ok()) return report;
  NoteMutation(report.value());
  STAQ_RETURN_NOT_OK(
      LogMutation(wal::MutationRecord::SetFare(sequence(), route, fare)));
  return report;
}

util::Result<ScenarioStore::MutationReport> AqServer::ScaleWalkSpeed(
    double factor) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  util::Result<ScenarioStore::MutationReport> report =
      util::Status::Internal("unreachable");
  try {
    report = store_.ScaleWalkSpeed(factor);
  } catch (...) {
    return StatusFromException("ScaleWalkSpeed mutation");
  }
  if (!report.ok()) return report;
  NoteMutation(report.value());
  STAQ_RETURN_NOT_OK(
      LogMutation(wal::MutationRecord::ScaleWalkSpeed(sequence(), factor)));
  return report;
}

util::Result<ScenarioStore::MutationReport> AqServer::ApplyMutation(
    const wal::MutationRecord& record) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (record.sequence != sequence() + 1) {
    return util::Status::Aborted(util::Format(
        "cannot replay record #%llu at sequence %llu: history must stay "
        "gap-free",
        static_cast<unsigned long long>(record.sequence),
        static_cast<unsigned long long>(sequence())));
  }
  ScenarioStore::MutationReport report;
  try {
    switch (record.type) {
      case wal::MutationType::kAddPoi: {
        // The id drives the POI's RNG streams: a different id means this
        // replica's answers would diverge from the primary's. Checked
        // against the store's cursor BEFORE applying, so the abort leaves
        // the last consistent epoch serving instead of installing a fork.
        const uint32_t local_id = store_.next_poi_id();
        if (local_id != record.poi_id) {
          return util::Status::Aborted(util::Format(
              "replayed AddPoi #%llu would assign POI id %u where the log "
              "records %u — replica diverged; nothing was applied",
              static_cast<unsigned long long>(record.sequence), local_id,
              record.poi_id));
        }
        report = store_.AddPoi(record.category, record.position);
        break;
      }
      case wal::MutationType::kRemovePoi: {
        auto result = store_.RemovePoi(record.poi_id);
        if (!result.ok()) return result;
        report = result.value();
        break;
      }
      case wal::MutationType::kSetInterval: {
        report = store_.SetInterval(record.interval);
        stop_cache_epoch_.fetch_add(1, std::memory_order_release);
        break;
      }
      // Disruption replay: the records carry resolved ids, and every
      // transform plus the affected-zone screen is a pure function of the
      // current feed, so replicas install bit-identical epochs.
      case wal::MutationType::kSuspendRoute: {
        auto result = store_.SuspendRoute(record.target);
        if (!result.ok()) return result;
        report = result.value();
        break;
      }
      case wal::MutationType::kCloseStop: {
        auto result = store_.CloseStop(record.target);
        if (!result.ok()) return result;
        report = result.value();
        break;
      }
      case wal::MutationType::kScaleHeadway: {
        auto result = store_.ScaleHeadway(record.target, record.factor);
        if (!result.ok()) return result;
        report = result.value();
        break;
      }
      case wal::MutationType::kSetFare: {
        auto result = store_.SetFare(record.target, record.value);
        if (!result.ok()) return result;
        report = result.value();
        break;
      }
      case wal::MutationType::kScaleWalkSpeed: {
        auto result = store_.ScaleWalkSpeed(record.value);
        if (!result.ok()) return result;
        report = result.value();
        break;
      }
    }
  } catch (...) {
    return StatusFromException("mutation replay");
  }
  NoteMutation(report);
  return report;
}

std::unique_ptr<AqServer::WorkerContext> AqServer::AcquireContext(
    const Scenario& scenario) {
  const uint64_t epoch = stop_cache_epoch_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(context_mu_);
    while (!free_contexts_.empty()) {
      auto context = std::move(free_contexts_.back());
      free_contexts_.pop_back();
      if (context->network_version != scenario.network_version()) {
        // Built for a different network — its router scans the wrong feed
        // or the wrong walk parameters. Destroy it and keep looking.
        continue;
      }
      if (context->stop_epoch != epoch) {
        context->engine.InvalidateAccessStopCache();
        context->stop_epoch = epoch;
      }
      return context;
    }
  }
  auto context = std::make_unique<WorkerContext>(scenario.city_ptr(),
                                                 scenario.router_options(),
                                                 scenario.network_version());
  context->stop_epoch = epoch;
  return context;
}

void AqServer::ReleaseContext(std::unique_ptr<WorkerContext> context) {
  std::lock_guard<std::mutex> lock(context_mu_);
  free_contexts_.push_back(std::move(context));
}

AqTicket AqServer::Submit(const AqRequest& request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);

  AqTicket ticket;
  ticket.server_ = this;
  ticket.promise_ = std::make_shared<AqTicket::Promise>();
  ticket.future_ = ticket.promise_->get_future();

  if (util::Status invalid = ValidateRequest(request); !invalid.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    ticket.promise_->set_value(std::move(invalid));
    return ticket;
  }

  if (pool_.PendingTasks() >= options_.max_pending) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    ticket.promise_->set_value(util::Status::ResourceExhausted(
        "serve queue full (" + std::to_string(options_.max_pending) +
        " pending)"));
    return ticket;
  }

  if (ShouldShed()) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    ticket.promise_->set_value(util::Status::Unavailable(
        "request shed: estimated queue delay exceeds the admission budget"));
    return ticket;
  }

  // The snapshot is captured at admission: the request answers against the
  // epoch it was accepted under, whatever mutations land meanwhile.
  auto snapshot = store_.Acquire();
  ticket.epoch_ = snapshot->epoch();
  auto submitted_at = clock_->Now();
  auto promise = ticket.promise_;
  try {
    ticket.handle_ = pool_.SubmitHandle(
        [this, request, submitted_at, snapshot = std::move(snapshot),
         promise]() { RunRequest(request, submitted_at, snapshot, promise); });
  } catch (...) {
    // Enqueue failed (injected fault): nothing reached the pool, so the
    // ticket owns the promise — resolve it instead of hanging Get().
    failed_.fetch_add(1, std::memory_order_relaxed);
    promise->set_value(StatusFromException("submission"));
  }
  return ticket;
}

util::Result<core::AccessQueryResult> AqServer::Query(
    const AqRequest& request) {
  return Submit(request).Get();
}

bool AqServer::ShouldShed() const {
  if (options_.max_queue_delay_s <= 0.0) return false;
  const double ewma = service_ewma_s_.load(std::memory_order_relaxed);
  if (ewma <= 0.0) return false;  // no completed task yet: nothing to estimate
  const double workers = static_cast<double>(pool_.num_threads());
  const double estimated_delay_s =
      static_cast<double>(pool_.PendingTasks()) * ewma / workers;
  return estimated_delay_s > options_.max_queue_delay_s;
}

void AqServer::NoteServiceTime(double seconds) {
  constexpr double kAlpha = 0.2;  // the last ~5 tasks dominate the estimate
  const double prev = service_ewma_s_.load(std::memory_order_relaxed);
  const double next =
      prev <= 0.0 ? seconds : (1.0 - kAlpha) * prev + kAlpha * seconds;
  service_ewma_s_.store(next, std::memory_order_relaxed);
}

std::vector<AqTicket> AqServer::SubmitBatch(const AqBatchRequest& batch) {
  std::vector<AqRequest> derived = ExpandBatch(batch);
  std::vector<AqTicket> tickets(derived.size());
  if (derived.empty()) return tickets;
  submitted_.fetch_add(derived.size(), std::memory_order_relaxed);
  for (AqTicket& ticket : tickets) {
    ticket.server_ = this;
    ticket.promise_ = std::make_shared<AqTicket::Promise>();
    ticket.future_ = ticket.promise_->get_future();
  }

  // One invalid member refuses the whole batch, like any admission
  // decision: the sweep is one request.
  for (const AqRequest& request : derived) {
    util::Status invalid = ValidateRequest(request);
    if (invalid.ok()) continue;
    failed_.fetch_add(derived.size(), std::memory_order_relaxed);
    for (AqTicket& ticket : tickets) ticket.promise_->set_value(invalid);
    return tickets;
  }

  // Admission is all-or-nothing: a batch is one burst of work, so either
  // the whole sweep is accepted or the caller gets a uniform backpressure
  // signal to retry against.
  if (pool_.PendingTasks() >= options_.max_pending) {
    rejected_.fetch_add(derived.size(), std::memory_order_relaxed);
    for (AqTicket& ticket : tickets) {
      ticket.promise_->set_value(util::Status::ResourceExhausted(
          "serve queue full (" + std::to_string(options_.max_pending) +
          " pending)"));
    }
    return tickets;
  }
  if (ShouldShed()) {
    shed_.fetch_add(derived.size(), std::memory_order_relaxed);
    for (AqTicket& ticket : tickets) {
      ticket.promise_->set_value(util::Status::Unavailable(
          "batch shed: estimated queue delay exceeds the admission budget"));
    }
    return tickets;
  }

  auto snapshot = store_.Acquire();
  auto submitted_at = clock_->Now();
  for (AqTicket& ticket : tickets) ticket.epoch_ = snapshot->epoch();

  if (!batch.request.options.exact) {
    // SSR members train per-member models and share no labeling pass:
    // each derived request runs as an ordinary individual task (and keeps
    // an individual cancellation handle).
    for (size_t i = 0; i < derived.size(); ++i) {
      auto promise = tickets[i].promise_;
      try {
        tickets[i].handle_ = pool_.SubmitHandle(
            [this, request = derived[i], submitted_at, snapshot, promise]() {
              RunRequest(request, submitted_at, snapshot, promise);
            });
      } catch (...) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        promise->set_value(StatusFromException("submission"));
      }
    }
    return tickets;
  }

  // Exact members: ExpandBatch orders category-major then seed, so each
  // (category, seed) group — the unit that shares one labeling pass — is a
  // contiguous run. One worker task per group.
  size_t begin = 0;
  while (begin < derived.size()) {
    size_t end = begin + 1;
    while (end < derived.size() &&
           derived[end].category == derived[begin].category &&
           derived[end].options.seed == derived[begin].options.seed) {
      ++end;
    }
    std::vector<AqRequest> group(derived.begin() + begin,
                                 derived.begin() + end);
    std::vector<std::shared_ptr<AqTicket::Promise>> group_promises;
    group_promises.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      group_promises.push_back(tickets[i].promise_);
    }
    try {
      pool_.SubmitHandle([this, group = std::move(group), submitted_at,
                          snapshot, promises = std::move(group_promises)]() {
        RunBatchGroup(group, submitted_at, snapshot, promises);
      });
    } catch (...) {
      util::Status status = StatusFromException("submission");
      for (size_t i = begin; i < end; ++i) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        tickets[i].promise_->set_value(status);
      }
    }
    begin = end;
  }
  return tickets;
}

std::vector<util::Result<core::AccessQueryResult>> AqServer::QueryBatch(
    const AqBatchRequest& batch) {
  std::vector<AqTicket> tickets = SubmitBatch(batch);
  std::vector<util::Result<core::AccessQueryResult>> out;
  out.reserve(tickets.size());
  for (AqTicket& ticket : tickets) out.push_back(ticket.Get());
  return out;
}

util::Result<core::AccessQueryResult> AqServer::QueryUncached(
    const AqRequest& request) {
  auto snapshot = store_.Acquire();
  return QueryUncachedOn(*snapshot, request);
}

util::Result<core::AccessQueryResult> AqServer::QueryUncachedOn(
    const Scenario& scenario, const AqRequest& request) {
  STAQ_RETURN_NOT_OK(ValidateRequest(request));
  auto context = AcquireContext(scenario);
  util::Result<core::AccessQueryResult> result =
      util::Status::Internal("unreachable");
  try {
    result = Execute(request, scenario, context.get(),
                     /*use_caches=*/false);
  } catch (...) {
    // The context may hold a half-built engine state; drop it rather than
    // returning it to the pool (a fresh one is built on demand).
    return StatusFromException("uncached query");
  }
  ReleaseContext(std::move(context));
  return result;
}

void AqServer::RunRequest(const AqRequest& request,
                          util::Clock::TimePoint submitted_at,
                          std::shared_ptr<const Scenario> snapshot,
                          const std::shared_ptr<AqTicket::Promise>& promise) {
  util::Stopwatch service_watch(clock_);
  util::Result<core::AccessQueryResult> result =
      util::Status::Internal("unreachable");
  try {
    if (request.deadline_s > 0.0 &&
        clock_->SecondsSince(submitted_at) > request.deadline_s) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      promise->set_value(util::Status::DeadlineExceeded(
          "deadline expired before execution started"));
      return;
    }

    auto context = AcquireContext(*snapshot);
    try {
      result = Execute(request, *snapshot, context.get(),
                       /*use_caches=*/true);
      ReleaseContext(std::move(context));
    } catch (...) {
      // Leave `context` to die (possibly half-built engine state) and
      // degrade into a clean status; the promise below must always be
      // fulfilled or Get() would hang forever.
      result = StatusFromException("query execution");
    }
  } catch (...) {
    result = StatusFromException("query execution");
  }

  if (result.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  // Deadline-expired tasks returned above: their near-zero "service" time
  // would drag the shedding estimate toward zero exactly when the server
  // is most overloaded.
  NoteServiceTime(service_watch.ElapsedSeconds());
  promise->set_value(std::move(result));
}

void AqServer::RunBatchGroup(
    const std::vector<AqRequest>& requests,
    util::Clock::TimePoint submitted_at,
    std::shared_ptr<const Scenario> snapshot,
    const std::vector<std::shared_ptr<AqTicket::Promise>>& promises) {
  util::Stopwatch service_watch(clock_);
  std::vector<bool> fulfilled(requests.size(), false);
  // Resolves every still-pending member with one status; also the
  // degradation path for exceptions, so no waiter ever hangs.
  auto fail_remaining = [&](const util::Status& status,
                            std::atomic<uint64_t>* counter) {
    for (size_t i = 0; i < requests.size(); ++i) {
      if (fulfilled[i]) continue;
      counter->fetch_add(1, std::memory_order_relaxed);
      fulfilled[i] = true;
      promises[i]->set_value(status);
    }
  };

  try {
    // ExpandBatch copies the template's deadline into every member.
    const AqRequest& head = requests.front();
    if (head.deadline_s > 0.0 &&
        clock_->SecondsSince(submitted_at) > head.deadline_s) {
      fail_remaining(util::Status::DeadlineExceeded(
                         "deadline expired before execution started"),
                     &deadline_exceeded_);
      return;
    }

    util::Stopwatch watch(clock_);
    const std::string epoch_prefix =
        "e=" + std::to_string(snapshot->epoch()) + '|';
    std::vector<std::string> keys(requests.size());
    std::vector<size_t> missing;
    for (size_t i = 0; i < requests.size(); ++i) {
      keys[i] = epoch_prefix + CanonicalRequestKey(requests[i]);
      if (auto cached = cache_.Get(keys[i])) {
        core::AccessQueryResult result = *cached;
        result.elapsed_s = watch.ElapsedSeconds();
        completed_.fetch_add(1, std::memory_order_relaxed);
        fulfilled[i] = true;
        promises[i]->set_value(std::move(result));
      } else {
        missing.push_back(i);
      }
    }

    if (!missing.empty()) {
      auto context = AcquireContext(*snapshot);
      try {
        const synth::City& city = snapshot->base_city();
        std::vector<synth::Poi> pois = snapshot->PoisOf(head.category);
        if (pois.empty()) {
          fail_remaining(util::Status::NotFound(
                             "no POIs of requested category in scenario"),
                         &failed_);
        } else {
          // One shared labeling pass for the whole group, mirroring
          // Scenario::BuildLabelState step for step (edit-stable TODAM
          // from frozen base-city norms), so every derived answer is
          // bit-identical to the single-request path. Journeys do not
          // depend on the cost definition, so the JT capture sweep stands
          // in for each member's own sweep — including its SPQ count.
          std::vector<double> zone_norm = core::StableGravityNormsColumnar(
              city.zones, city.PoisOf(head.category),
              head.options.gravity.decay_scale_m);
          core::TodamBuilder builder(city.zones, pois, snapshot->interval(),
                                     head.options.gravity);
          core::Todam todam =
              builder.BuildGravityStable(head.options.seed, zone_norm);
          const uint64_t spqs_before = context->engine.spq_count();
          core::TripCostColumns columns;
          for (uint32_t z = 0; z < city.zones.size(); ++z) {
            context->engine.CaptureZoneCosts(todam, z, pois,
                                             snapshot->interval().day,
                                             &columns);
          }
          const uint64_t pass_spqs =
              context->engine.spq_count() - spqs_before;
          exact_state_builds_.fetch_add(1, std::memory_order_relaxed);

          std::vector<double> member_costs;
          for (size_t i : missing) {
            const core::CostMember member{requests[i].options.cost,
                                          requests[i].options.gac};
            core::AccessQueryResult result;
            result.gravity_trips = todam.num_trips();
            result.spqs = pass_spqs;
            core::MemberCostColumn(columns, member, &member_costs);
            std::vector<core::ZoneLabel> labels =
                core::AggregateZoneLabels(columns, member_costs);
            result.mac.resize(labels.size());
            result.acsd.resize(labels.size());
            for (size_t z = 0; z < labels.size(); ++z) {
              result.mac[z] = labels[z].mac;
              result.acsd[z] = labels[z].acsd;
            }
            core::FinalizeAccessQueryResultColumnar(city.zones, &result);
            result.elapsed_s = watch.ElapsedSeconds();
            try {
              cache_.Put(keys[i], std::make_shared<const
                                      core::AccessQueryResult>(result));
            } catch (...) {
              // A failed insert costs a future hit, never the answer.
            }
            completed_.fetch_add(1, std::memory_order_relaxed);
            fulfilled[i] = true;
            promises[i]->set_value(std::move(result));
          }
        }
        ReleaseContext(std::move(context));
      } catch (...) {
        // Drop the possibly half-built context; resolve the rest cleanly.
        fail_remaining(StatusFromException("batch execution"), &failed_);
      }
    }
  } catch (...) {
    fail_remaining(StatusFromException("batch execution"), &failed_);
  }
  NoteServiceTime(service_watch.ElapsedSeconds());
}

util::Result<core::AccessQueryResult> AqServer::Execute(
    const AqRequest& request, const Scenario& scenario, WorkerContext* context,
    bool use_caches) {
  util::Stopwatch watch(clock_);

  std::string cache_key;
  if (use_caches) {
    cache_key = "e=" + std::to_string(scenario.epoch()) + '|' +
                CanonicalRequestKey(request);
    if (auto cached = cache_.Get(cache_key)) {
      core::AccessQueryResult result = *cached;
      result.elapsed_s = watch.ElapsedSeconds();
      return result;
    }
  }

  std::vector<synth::Poi> pois = scenario.PoisOf(request.category);
  if (pois.empty()) {
    return util::Status::NotFound("no POIs of requested category in scenario");
  }

  const synth::City& city = scenario.base_city();
  core::AccessQueryResult result;
  if (request.options.exact) {
    LabelKey key = LabelKeyFor(request);
    std::shared_ptr<const ExactLabelState> state;
    if (use_caches) {
      bool built = false;
      state = scenario.GetOrBuildLabelState(key, &context->engine, &built);
      if (built) exact_state_builds_.fetch_add(1, std::memory_order_relaxed);
    } else {
      state = scenario.BuildLabelState(key, &context->engine);
      exact_state_builds_.fetch_add(1, std::memory_order_relaxed);
    }
    result.gravity_trips = state->todam.num_trips();
    result.spqs = state->build_spqs;
    result.mac.resize(state->labels.size());
    result.acsd.resize(state->labels.size());
    for (size_t z = 0; z < state->labels.size(); ++z) {
      result.mac[z] = state->labels[z].mac;
      result.acsd[z] = state->labels[z].acsd;
    }
  } else {
    // SSR path: the TODAM uses the same edit-stable construction as the
    // exact path, so SSR answers are deterministic functions of the
    // scenario (cacheable per epoch) and comparable across epochs.
    std::vector<double> zone_norm = core::StableGravityNorms(
        city.zones, city.PoisOf(request.category),
        request.options.gravity.decay_scale_m);
    core::TodamBuilder builder(city.zones, pois, scenario.interval(),
                               request.options.gravity);
    core::Todam todam =
        builder.BuildGravityStable(request.options.seed, zone_norm);
    result.gravity_trips = todam.num_trips();

    core::PipelineConfig config;
    config.beta = request.options.beta;
    config.model = request.options.model;
    config.cost = request.options.cost;
    config.gac = request.options.gac;
    config.seed = request.options.seed;
    // Training parallelism is a server tuning knob, not part of the query
    // (results are bit-identical for any value, so it is not cache-keyed).
    config.ml_threads = options_.ml_threads;
    auto run = core::RunSsr(city, *scenario.offline().features,
                            &context->router, pois, todam,
                            scenario.interval().day, config);
    if (!run.ok()) return run.status();
    result.mac = std::move(run.value().mac);
    result.acsd = std::move(run.value().acsd);
    result.spqs = run.value().spqs;
  }

  core::FinalizeAccessQueryResult(city.zones, &result);
  result.elapsed_s = watch.ElapsedSeconds();

  if (use_caches) {
    try {
      cache_.Put(cache_key,
                 std::make_shared<const core::AccessQueryResult>(result));
    } catch (...) {
      // A failed insert (injected fault) costs a future cache hit, never
      // the already-computed answer.
    }
  }
  return result;
}

ServerStats AqServer::stats() const {
  ServerStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_evictions = cache_.evictions();
  stats.cache_expired = cache_.expired();
  stats.exact_state_builds =
      exact_state_builds_.load(std::memory_order_relaxed);
  stats.mutations = mutations_.load(std::memory_order_relaxed);
  stats.states_patched = states_patched_.load(std::memory_order_relaxed);
  stats.zones_relabeled = zones_relabeled_.load(std::memory_order_relaxed);
  stats.patch_spqs = patch_spqs_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace staq::serve
