#include "obs/timeline_export.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "util/json.hpp"

namespace ef::obs {

std::string to_chrome_trace_json(const TimelineSnapshot& snapshot) {
  // Slow exemplars are kept even when their head-sample draw said no.
  std::unordered_map<std::uint64_t, double> slow;
  for (const TimelineSnapshot::SlowTrace& s : snapshot.slow) slow[s.trace_id] = s.us;

  std::vector<const TimelineSpan*> kept;
  kept.reserve(snapshot.spans.size());
  std::unordered_set<std::uint64_t> span_ids;
  for (const TimelineSpan& span : snapshot.spans) {
    if (span.sampled || slow.count(span.trace_id) != 0) {
      kept.push_back(&span);
      span_ids.insert(span.span_id);
    }
  }
  // Perfetto requires nothing here, but check_trace_json.py asserts monotone
  // timestamps and resolvable parents — sort, and re-root orphans whose
  // parent span was overwritten in the ring before the snapshot.
  std::sort(kept.begin(), kept.end(), [](const TimelineSpan* a, const TimelineSpan* b) {
    if (a->t_start_us != b->t_start_us) return a->t_start_us < b->t_start_us;
    return a->span_id < b->span_id;
  });

  // One instant marker per slow trace with spans in view — the visual anchor
  // the serve.slow_request flight-recorder event's trace_id points at — sits
  // at the end of the span tree it annotates, which is mid-stream when other
  // traces run later. Compute marker positions first, then emit spans and
  // markers as one ts-sorted merge so the stream stays monotone end to end.
  std::unordered_map<std::uint64_t, std::int64_t> slow_end;
  for (const TimelineSpan* span : kept) {
    if (slow.count(span->trace_id) != 0) {
      std::int64_t& end = slow_end[span->trace_id];
      end = std::max(end, span->t_start_us + span->dur_us);
    }
  }
  std::vector<std::pair<std::int64_t, std::uint64_t>> markers;
  markers.reserve(slow_end.size());
  for (const auto& [trace_id, end] : slow_end) markers.emplace_back(end, trace_id);
  std::sort(markers.begin(), markers.end());

  json::Writer out;
  out.begin_object().key("displayTimeUnit").value("ms").key("traceEvents").begin_array();
  auto emit_marker = [&](std::int64_t end, std::uint64_t trace_id) {
    out.begin_object().key("name").value("serve.slow_request").key("ph").value("i");
    out.key("s").value("g").key("ts").value(end).key("pid").value(1).key("tid").value(0);
    out.key("args").begin_object().key("trace_id").value(trace_id);
    out.key("slow_us").value(slow[trace_id]).end_object().end_object();
  };
  std::size_t next_marker = 0;
  for (const TimelineSpan* span : kept) {
    while (next_marker < markers.size() &&
           markers[next_marker].first < span->t_start_us) {
      emit_marker(markers[next_marker].first, markers[next_marker].second);
      ++next_marker;
    }
    const std::uint64_t parent =
        span->parent_id != 0 && span_ids.count(span->parent_id) == 0 ? 0
                                                                     : span->parent_id;
    out.begin_object().key("name").value(span->name).key("ph").value("X");
    out.key("ts").value(span->t_start_us).key("dur").value(span->dur_us);
    out.key("pid").value(1).key("tid").value(span->thread_index);
    out.key("args").begin_object().key("trace_id").value(span->trace_id);
    out.key("span_id").value(span->span_id).key("parent_id").value(parent);
    if (span->arg_key) out.key(span->arg_key).value(span->arg_value);
    const auto it = slow.find(span->trace_id);
    if (it != slow.end()) out.key("slow_us").value(it->second);
    out.end_object().end_object();
  }
  while (next_marker < markers.size()) {
    emit_marker(markers[next_marker].first, markers[next_marker].second);
    ++next_marker;
  }
  return out.end_array().end_object().take();
}

std::string chrome_trace_json() { return to_chrome_trace_json(Timeline::snapshot()); }

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << chrome_trace_json() << "\n";
  return static_cast<bool>(file);
}

}  // namespace ef::obs
