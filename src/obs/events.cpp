#include "obs/events.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "util/json.hpp"

namespace ef::obs {
namespace {

std::int64_t wall_clock_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string Event::to_json() const {
  json::Writer out;
  out.begin_object().key("seq").value(seq).key("ts_ms").value(ts_ms).key("kind").value(kind);
  for (const auto& field : fields) {
    out.key(field.key);
    switch (field.kind) {
      case EventField::Kind::kBool: out.value(field.b); break;
      case EventField::Kind::kInt: out.value(field.i); break;
      case EventField::Kind::kUint: out.value(field.u); break;
      case EventField::Kind::kDouble: out.value(field.d); break;
      case EventField::Kind::kString: out.value(field.s); break;
    }
  }
  return out.end_object().take();
}

EventLog::EventLog(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

EventLog::~EventLog() {
  if (sink_ != nullptr) std::fclose(sink_);
}

void EventLog::emit(std::string_view kind, std::vector<EventField> fields) {
  Event event;
  event.ts_ms = wall_clock_ms();
  event.kind = std::string(kind);
  event.fields = std::move(fields);

  const std::lock_guard lock(mutex_);
  event.seq = next_seq_++;
  if (sink_ != nullptr) {
    const std::string line = event.to_json();
    std::fwrite(line.data(), 1, line.size(), sink_);
    std::fputc('\n', sink_);
    std::fflush(sink_);
  }
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(event));
}

std::vector<Event> EventLog::recent() const {
  const std::lock_guard lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::string EventLog::dump_json_lines() const {
  const std::lock_guard lock(mutex_);
  std::string out;
  out.reserve(ring_.size() * 128);
  for (const auto& event : ring_) {
    out += event.to_json();
    out += '\n';
  }
  return out;
}

std::size_t EventLog::size() const {
  const std::lock_guard lock(mutex_);
  return ring_.size();
}

std::uint64_t EventLog::dropped() const {
  const std::lock_guard lock(mutex_);
  return dropped_;
}

std::uint64_t EventLog::total_emitted() const {
  const std::lock_guard lock(mutex_);
  return next_seq_ - 1;
}

bool EventLog::set_file_sink(const std::string& path) {
  const std::lock_guard lock(mutex_);
  if (sink_ != nullptr) {
    std::fclose(sink_);
    sink_ = nullptr;
  }
  if (path.empty()) return true;
  sink_ = std::fopen(path.c_str(), "a");
  return sink_ != nullptr;
}

bool EventLog::has_file_sink() const {
  const std::lock_guard lock(mutex_);
  return sink_ != nullptr;
}

void EventLog::clear() {
  const std::lock_guard lock(mutex_);
  ring_.clear();
}

EventLog& EventLog::global() {
  static EventLog* log = [] {
    std::size_t capacity = 2048;
    if (const char* env = std::getenv("EVOFORECAST_EVENT_CAPACITY")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) capacity = static_cast<std::size_t>(parsed);
    }
    auto* instance = new EventLog(capacity);  // leaked: must outlive all threads
    if (const char* path = std::getenv("EVOFORECAST_EVENT_LOG")) {
      if (path[0] != '\0' && !instance->set_file_sink(path)) {
        std::fprintf(stderr, "evoforecast: cannot open EVOFORECAST_EVENT_LOG=%s\n", path);
      }
    }
    return instance;
  }();
  return *log;
}

}  // namespace ef::obs
