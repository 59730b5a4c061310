// serve/model_store.hpp — named, versioned rule-system models with atomic
// hot-reload.
//
// The serving layer must swap a model from disk without dropping or blocking
// in-flight requests. The store keeps each model as a
// std::shared_ptr<const LoadedModel>; readers copy the pointer under a brief
// mutex (RCU-style: the swap is atomic from the reader's perspective, and a
// request that grabbed the old version keeps it alive until its last
// reference drops). A poller thread stats the backing .efr files and
// reloads on mtime change; a reload that fails to parse keeps the previous
// version serving and only bumps a failure counter — a half-written file
// never takes down a model. Writers should still publish atomically
// (write temp + rename) to avoid serving a torn intermediate version.
//
// Fleet scale uses a *container* instead of per-model files: one `.efr` v2
// file (fleet/container.hpp) backs every series. The store keeps the mapped
// reader plus a lazy cache of materialised models behind one RCU-swapped
// snapshot; get() falls through the named entries to the container, so a
// million-series fleet serves through the same API as two named models.
// Reload cost collapses with it: the poller stats the one container file
// per tick — not one stat per model per tick — and a repack (atomic rename)
// swaps the entire fleet in a single pointer exchange, old snapshot pinned
// by in-flight requests until the last reference drops.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/match_backend.hpp"
#include "core/prediction.hpp"
#include "core/rule_system.hpp"
#include "fleet/container.hpp"

namespace ef::serve {

/// One immutable, serving-ready model version: the rule system plus its
/// match planes, compiled once here, and the metadata the service needs to
/// validate and cache requests. Never mutated after construction —
/// hot-reload replaces the whole object.
class LoadedModel {
 public:
  /// Build a serving-ready snapshot. `tag` must be process-unique (the
  /// store's monotone counter); it keys the prediction cache so entries of
  /// a replaced version can never serve a newer one.
  [[nodiscard]] static std::shared_ptr<const LoadedModel> make(core::RuleSystem system,
                                                               std::string name,
                                                               std::uint64_t version,
                                                               std::uint64_t tag);

  [[nodiscard]] const core::RuleSystem& system() const noexcept { return system_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Per-name reload generation (1 = first load).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  /// Process-unique identity of this exact snapshot (cache key component).
  [[nodiscard]] std::uint64_t tag() const noexcept { return tag_; }
  /// Window length D every rule expects (0 when the system is empty).
  [[nodiscard]] std::size_t window() const noexcept { return window_; }

  /// The match planes of system(), compiled once for window().
  [[nodiscard]] const core::RulePlanes& planes() const noexcept { return planes_; }

  /// system().forecast(planes(), window, how): no per-call compile. Value,
  /// vote count and abstention arrive together — nothing to re-derive.
  [[nodiscard]] core::Prediction forecast(
      std::span<const double> window,
      core::Aggregation how = core::Aggregation::kMean) const;

 private:
  LoadedModel() = default;

  core::RuleSystem system_;
  core::RulePlanes planes_;  ///< system_.compile_planes(window_)
  std::string name_;
  std::uint64_t version_ = 0;
  std::uint64_t tag_ = 0;
  std::size_t window_ = 0;
};

/// Thread-safe registry of named models with optional file backing and
/// mtime-driven hot-reload.
class ModelStore {
 public:
  ModelStore() = default;
  ~ModelStore();

  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  /// Register a model from a .efr file; loads immediately and throws
  /// std::runtime_error when the file is missing or malformed. Re-adding an
  /// existing name replaces it (version continues from the old one).
  void add_file(const std::string& name, const std::string& path);

  /// Register an in-memory system (tests, demo mode). Not file-backed, so
  /// the poller ignores it.
  void add_system(const std::string& name, core::RuleSystem system);

  /// Attach (or replace) the `.efr` v2 container backing the store's
  /// fallthrough namespace. Opens and validates the file immediately;
  /// throws std::runtime_error on a malformed container. Named entries
  /// always shadow container series of the same id.
  void attach_container(const std::string& path);

  [[nodiscard]] bool has_container() const;

  /// Point-in-time summary of the attached container (nullopt when none).
  struct ContainerInfo {
    std::string path;
    std::size_t models = 0;       ///< series resident in the container
    std::size_t bytes = 0;        ///< mapped file size
    std::uint64_t generation = 0; ///< bumps on every successful reload
    std::size_t materialized = 0; ///< series served (and cached) so far
  };
  [[nodiscard]] std::optional<ContainerInfo> container_info() const;

  /// Container series ids in index (sorted) order; `limit` 0 = all.
  [[nodiscard]] std::vector<std::string> container_ids(std::size_t limit = 0) const;

  /// Current snapshot of `name`; nullptr when unknown. Checks named entries
  /// first, then the attached container (materialising — and caching — the
  /// series on first use). The returned pointer stays valid (and the model
  /// alive) for as long as the caller holds it, across any number of
  /// hot-reloads.
  [[nodiscard]] std::shared_ptr<const LoadedModel> get(std::string_view name) const;

  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const;

  /// Check every file-backed model's mtime — plus ONE stat for the whole
  /// container, however many series it holds — and reload what changed.
  /// Returns the number of successful reloads (a container swap counts as
  /// one). A file that fails to parse keeps its current version serving
  /// (counted in serve.model.reload_failures).
  std::size_t poll_now();

  /// Start/stop the background poller calling poll_now() every `interval`.
  void start_polling(std::chrono::milliseconds interval);
  void stop_polling();

 private:
  struct Entry {
    std::shared_ptr<const LoadedModel> model;
    std::string path;  ///< empty for in-memory models
    std::filesystem::file_time_type mtime{};
  };

  /// One immutable container generation: the mapped reader plus the lazy
  /// materialisation cache. Swapped wholesale on reload (the fresh state
  /// starts with an empty cache; in-flight requests pin the old one).
  struct ContainerState {
    fleet::FleetReader reader;
    std::string path;
    std::uint64_t generation = 1;
    std::filesystem::file_time_type mtime{};
    mutable std::mutex cache_mutex;
    mutable std::map<std::string, std::shared_ptr<const LoadedModel>, std::less<>> cache;
  };

  mutable std::mutex mutex_;  ///< guards entries_ map shape and pointer swaps
  std::map<std::string, Entry, std::less<>> entries_;
  std::shared_ptr<ContainerState> container_;  ///< RCU-swapped under mutex_
  /// Container mtime whose open() failed — skip retrying until it changes
  /// again (the per-file loaders get the same no-rehammer behaviour from
  /// their recorded Entry::mtime).
  std::filesystem::file_time_type container_failed_mtime_{};
  mutable std::atomic<std::uint64_t> next_tag_{1};

  std::thread poller_;
  std::mutex poll_mutex_;
  std::condition_variable poll_cv_;
  bool poll_stop_ = false;
};

}  // namespace ef::serve
