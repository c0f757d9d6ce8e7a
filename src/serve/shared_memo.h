// Build-once memo of immutable shared values, safe under concurrency.
//
// Scenario keeps three of these: exact label states (unbounded: mutations
// patch every materialised state into the next epoch), journey passes (a
// few recent ones: they are large and only shared by near-simultaneous cost
// twins), and SSR zone feature matrices.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace staq::serve {

/// Values keyed by a canonical string (with the structured `Key` kept
/// alongside for listings). The first caller for a key runs the build;
/// concurrent callers for the same key join it through a shared future and
/// receive the same pointer. A build that throws reaches the builder and
/// every waiter, and its key is dropped rather than poisoned, so the next
/// caller builds afresh. The builder rethrows its own exception; each
/// waiter throws a std::runtime_error of its own carrying the same message,
/// so no exception object is shared between threads.
///
/// A non-zero `capacity` keeps only that many most recently inserted keys.
/// Forgetting a key never invalidates a value: callers that already hold
/// its pointer (or are waiting on its future) keep it alive.
template <typename Key, typename Value>
class SharedMemo {
 public:
  using Ptr = std::shared_ptr<const Value>;

  explicit SharedMemo(size_t capacity = 0) : capacity_(capacity) {}

  /// Returns the memoised value of `id`, running `build()` (which returns
  /// a Ptr) when no caller has yet. *built_fresh, when non-null, says
  /// whether this call ran the build.
  template <typename Build>
  Ptr GetOrBuild(const std::string& id, const Key& key, Build&& build,
                 bool* built_fresh = nullptr) {
    if (built_fresh != nullptr) *built_fresh = false;
    std::promise<Outcome> promise;
    std::shared_future<Outcome> future;
    uint64_t serial = 0;  // non-zero: this caller builds
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(id);
      if (it != entries_.end()) {
        future = it->second.future;
      } else {
        future = promise.get_future().share();
        serial = InsertLocked(id, key, future);
      }
    }
    if (serial == 0) {
      const Outcome& outcome = future.get();
      if (outcome.failed) throw std::runtime_error(outcome.error);
      return outcome.value;
    }

    Ptr value;
    try {
      value = build();
    } catch (...) {
      Outcome failure;
      failure.failed = true;
      failure.error = CurrentExceptionMessage();
      // An unfulfilled promise would hang every waiter and a dead entry
      // would poison the key. Drop the entry first (unless eviction already
      // replaced it), then hand the failure to the waiters and the caller.
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(id);
        if (it != entries_.end() && it->second.serial == serial) {
          entries_.erase(it);
        }
      }
      promise.set_value(std::move(failure));
      throw;
    }
    promise.set_value(Outcome{value, false, {}});
    if (built_fresh != nullptr) *built_fresh = true;
    return value;
  }

  /// Publishes a ready value under `id` unless the key is already present.
  void Insert(const std::string& id, const Key& key, Ptr value) {
    std::promise<Outcome> promise;
    promise.set_value(Outcome{std::move(value), false, {}});
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.count(id) == 0) {
      InsertLocked(id, key, promise.get_future().share());
    }
  }

  /// Every value that is built (in-flight builds are left out).
  std::vector<std::pair<Key, Ptr>> Ready() const {
    std::vector<std::pair<Key, Ptr>> out;
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& [id, entry] : entries_) {
      if (entry.future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready &&
          !entry.future.get().failed) {
        out.emplace_back(entry.key, entry.future.get().value);
      }
    }
    return out;
  }

 private:
  /// What a build publishes to its waiters.
  struct Outcome {
    Ptr value;
    bool failed = false;
    std::string error;  // the failure's message when failed
  };

  struct Entry {
    Key key;
    std::shared_future<Outcome> future;
    uint64_t serial = 0;  // insertion order; tells a rebuilt key apart
  };

  static std::string CurrentExceptionMessage() {
    try {
      throw;
    } catch (const std::exception& e) {
      return e.what();
    } catch (...) {
      return "unknown exception";
    }
  }

  uint64_t InsertLocked(const std::string& id, const Key& key,
                        std::shared_future<Outcome> future) {
    const uint64_t serial = ++next_serial_;
    entries_.emplace(id, Entry{key, std::move(future), serial});
    // Linear scan for the oldest entry: capacities are a handful of keys.
    while (capacity_ > 0 && entries_.size() > capacity_) {
      auto oldest = entries_.begin();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.serial < oldest->second.serial) oldest = it;
      }
      entries_.erase(oldest);
    }
    return serial;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  uint64_t next_serial_ = 0;
};

}  // namespace staq::serve
