#include "serve/model_store.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/macros.hpp"

namespace ef::serve {
namespace {

core::RuleSystem load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ModelStore: cannot open '" + path + "'");
  return core::RuleSystem::load(in);
}

std::filesystem::file_time_type mtime_of(const std::string& path) {
  std::error_code ec;
  const auto t = std::filesystem::last_write_time(path, ec);
  return ec ? std::filesystem::file_time_type{} : t;
}

}  // namespace

std::shared_ptr<const LoadedModel> LoadedModel::make(core::RuleSystem system,
                                                     std::string name,
                                                     std::uint64_t version,
                                                     std::uint64_t tag) {
  auto model = std::shared_ptr<LoadedModel>(new LoadedModel());
  model->system_ = std::move(system);
  model->name_ = std::move(name);
  model->version_ = version;
  model->tag_ = tag;
  model->window_ = model->system_.empty() ? 0 : model->system_.rules().front().window();
  model->planes_ = model->system_.compile_planes(model->window_);
  return model;
}

core::Prediction LoadedModel::forecast(std::span<const double> window,
                                       core::Aggregation how) const {
  return system_.forecast(planes_, window, how);
}

ModelStore::~ModelStore() { stop_polling(); }

void ModelStore::add_file(const std::string& name, const std::string& path) {
  core::RuleSystem system = load_file(path);
  const auto mtime = mtime_of(path);
  const std::lock_guard lock(mutex_);
  auto& entry = entries_[name];
  const std::uint64_t version = entry.model ? entry.model->version() + 1 : 1;
  entry.model = LoadedModel::make(std::move(system), name, version,
                                  next_tag_.fetch_add(1, std::memory_order_relaxed));
  entry.path = path;
  entry.mtime = mtime;
  EVOFORECAST_COUNT("serve.model.loads", 1);
  EVOFORECAST_EVENT("serve.model.load", {"name", name}, {"version", version},
                    {"path", path});
}

void ModelStore::add_system(const std::string& name, core::RuleSystem system) {
  const std::lock_guard lock(mutex_);
  auto& entry = entries_[name];
  const std::uint64_t version = entry.model ? entry.model->version() + 1 : 1;
  entry.model = LoadedModel::make(std::move(system), name, version,
                                  next_tag_.fetch_add(1, std::memory_order_relaxed));
  entry.path.clear();
  EVOFORECAST_COUNT("serve.model.loads", 1);
  EVOFORECAST_EVENT("serve.model.load", {"name", name}, {"version", version});
}

void ModelStore::attach_container(const std::string& path) {
  auto state = std::make_shared<ContainerState>();
  state->reader = fleet::FleetReader::open(path);  // throws on malformed file
  state->path = path;
  state->mtime = mtime_of(path);
  const std::size_t models = state->reader.size();
  std::uint64_t generation = 0;
  {
    const std::lock_guard lock(mutex_);
    state->generation = container_ ? container_->generation + 1 : 1;
    generation = state->generation;
    container_ = std::move(state);
    container_failed_mtime_ = {};
  }
  EVOFORECAST_COUNT("serve.model.container_loads", 1);
  EVOFORECAST_GAUGE_SET("serve.model.container_series", static_cast<double>(models));
  EVOFORECAST_EVENT("serve.model.container_load", {"path", path}, {"models", models},
                    {"generation", generation});
#if !EVOFORECAST_OBS_ENABLED
  (void)models;
  (void)generation;
#endif
}

bool ModelStore::has_container() const {
  const std::lock_guard lock(mutex_);
  return container_ != nullptr;
}

std::optional<ModelStore::ContainerInfo> ModelStore::container_info() const {
  std::shared_ptr<ContainerState> state;
  {
    const std::lock_guard lock(mutex_);
    state = container_;
  }
  if (!state) return std::nullopt;
  ContainerInfo info;
  info.path = state->path;
  info.models = state->reader.size();
  info.bytes = state->reader.bytes();
  info.generation = state->generation;
  {
    const std::lock_guard lock(state->cache_mutex);
    info.materialized = state->cache.size();
  }
  return info;
}

std::vector<std::string> ModelStore::container_ids(std::size_t limit) const {
  std::shared_ptr<ContainerState> state;
  {
    const std::lock_guard lock(mutex_);
    state = container_;
  }
  std::vector<std::string> out;
  if (!state) return out;
  const std::size_t n =
      limit == 0 ? state->reader.size() : std::min(limit, state->reader.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.emplace_back(state->reader.id_at(i));
  return out;
}

std::shared_ptr<const LoadedModel> ModelStore::get(std::string_view name) const {
  std::shared_ptr<ContainerState> container;
  {
    const std::lock_guard lock(mutex_);
    const auto it = entries_.find(name);
    if (it != entries_.end()) return it->second.model;
    container = container_;
  }
  if (!container) return nullptr;
  {
    const std::lock_guard lock(container->cache_mutex);
    const auto it = container->cache.find(name);
    if (it != container->cache.end()) return it->second;
  }
  const auto slot = container->reader.find(name);
  if (!slot) return nullptr;
  // Materialise outside every lock — first touch of a series deep-copies its
  // rules out of the mapping; concurrent first touches race benignly (the
  // cache keeps whichever inserted first, the loser's copy is dropped).
  core::RuleSystem system;
  try {
    system = container->reader.materialize_at(*slot);
  } catch (const std::exception& e) {
    EVOFORECAST_COUNT("serve.model.container_materialize_failures", 1);
    EVOFORECAST_EVENT("serve.model.container_materialize_failed",
                      {"series", std::string(name)}, {"error", e.what()});
    return nullptr;
  }
  auto model =
      LoadedModel::make(std::move(system), std::string(name), container->generation,
                        next_tag_.fetch_add(1, std::memory_order_relaxed));
  const std::lock_guard lock(container->cache_mutex);
  const auto [it, inserted] = container->cache.emplace(std::string(name), std::move(model));
  if (inserted) EVOFORECAST_COUNT("serve.model.container_materializations", 1);
  return it->second;
}

std::vector<std::string> ModelStore::names() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

std::size_t ModelStore::size() const {
  const std::lock_guard lock(mutex_);
  return entries_.size();
}

std::size_t ModelStore::poll_now() {
  // Snapshot the file-backed entries, then parse outside the map mutex so a
  // slow reload never blocks get() on the serving path.
  struct Pending {
    std::string name;
    std::string path;
    std::filesystem::file_time_type old_mtime;
  };
  std::vector<Pending> pending;
  {
    const std::lock_guard lock(mutex_);
    for (const auto& [name, entry] : entries_) {
      if (!entry.path.empty()) pending.push_back({name, entry.path, entry.mtime});
    }
  }

  std::size_t reloaded = 0;
  for (const Pending& p : pending) {
    const auto now_mtime = mtime_of(p.path);
    if (now_mtime == p.old_mtime) continue;
    try {
      core::RuleSystem system = load_file(p.path);
      const std::lock_guard lock(mutex_);
      const auto it = entries_.find(p.name);
      if (it == entries_.end() || it->second.path != p.path) continue;  // removed/re-added
      const std::uint64_t version = it->second.model ? it->second.model->version() + 1 : 1;
      it->second.model = LoadedModel::make(std::move(system), p.name, version, next_tag_++);
      it->second.mtime = now_mtime;
      ++reloaded;
      EVOFORECAST_COUNT("serve.model.reloads", 1);
      EVOFORECAST_EVENT("serve.model.reload", {"name", p.name}, {"version", version},
                        {"path", p.path});
    } catch (const std::exception& reload_error) {
      // Torn or corrupt file: keep serving the previous version; the next
      // mtime change retries.
      EVOFORECAST_COUNT("serve.model.reload_failures", 1);
      EVOFORECAST_EVENT("serve.model.reload_failed", {"name", p.name}, {"path", p.path},
                        {"error", reload_error.what()});
      const std::lock_guard lock(mutex_);
      const auto it = entries_.find(p.name);
      if (it != entries_.end() && it->second.path == p.path) it->second.mtime = now_mtime;
    }
  }

  // Container poll: one stat covers the entire fleet. A changed mtime means
  // a repack was renamed into place; open the new file, and only on a fully
  // validated read swap the snapshot (generation + 1, cache starts cold).
  std::shared_ptr<ContainerState> current;
  std::filesystem::file_time_type failed_mtime;
  {
    const std::lock_guard lock(mutex_);
    current = container_;
    failed_mtime = container_failed_mtime_;
  }
  if (current) {
    const auto now_mtime = mtime_of(current->path);
    if (now_mtime != current->mtime && now_mtime != failed_mtime) {
      try {
        auto fresh = std::make_shared<ContainerState>();
        fresh->reader = fleet::FleetReader::open(current->path);
        fresh->path = current->path;
        fresh->mtime = now_mtime;
        const std::size_t models = fresh->reader.size();
        std::uint64_t generation = 0;
        {
          const std::lock_guard lock(mutex_);
          if (container_ == current) {  // lost to a concurrent attach? keep that one
            fresh->generation = current->generation + 1;
            generation = fresh->generation;
            container_ = std::move(fresh);
            container_failed_mtime_ = {};
            ++reloaded;
          }
        }
        if (generation != 0) {
          EVOFORECAST_COUNT("serve.model.container_reloads", 1);
          EVOFORECAST_GAUGE_SET("serve.model.container_series",
                                static_cast<double>(models));
          EVOFORECAST_EVENT("serve.model.container_reload", {"path", current->path},
                            {"models", models}, {"generation", generation});
        }
#if !EVOFORECAST_OBS_ENABLED
        (void)models;
#endif
      } catch (const std::exception& reload_error) {
        // Corrupt repack: the old snapshot keeps serving every series; the
        // recorded failed mtime stops re-validating the same bad file every
        // tick until the publisher writes again.
        EVOFORECAST_COUNT("serve.model.reload_failures", 1);
        EVOFORECAST_EVENT("serve.model.container_reload_failed",
                          {"path", current->path}, {"error", reload_error.what()});
        const std::lock_guard lock(mutex_);
        if (container_ == current) container_failed_mtime_ = now_mtime;
      }
    }
  }
  return reloaded;
}

void ModelStore::start_polling(std::chrono::milliseconds interval) {
  stop_polling();
  {
    const std::lock_guard lock(poll_mutex_);
    poll_stop_ = false;
  }
  poller_ = std::thread([this, interval] {
    std::unique_lock lock(poll_mutex_);
    while (!poll_cv_.wait_for(lock, interval, [this] { return poll_stop_; })) {
      lock.unlock();
      poll_now();
      lock.lock();
    }
  });
}

void ModelStore::stop_polling() {
  {
    const std::lock_guard lock(poll_mutex_);
    poll_stop_ = true;
  }
  poll_cv_.notify_all();
  if (poller_.joinable()) poller_.join();
}

}  // namespace ef::serve
