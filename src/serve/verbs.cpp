#include "serve/verbs.hpp"

#include "obs/events.hpp"
#include "obs/exposition.hpp"
#include "obs/timeline.hpp"
#include "obs/timeline_export.hpp"

namespace ef::serve {
namespace {

std::string models_reply(const ForecastService& service, const Request& request) {
  const ModelStore& store = service.store();
  json::Writer out = reply(true, request);
  out.key("models").begin_array();
  for (const std::string& name : store.names()) {
    const auto model = store.get(name);
    if (!model) continue;
    out.begin_object();
    out.key("name").value(name);
    out.key("version").value(model->version());
    out.key("rules").value(model->system().size());
    out.key("window").value(model->window());
    out.end_object();
  }
  out.end_array();
  // Container-backed series ride in their own section: every id is
  // predictable by name, versioned by the container generation. The id list
  // is capped so a million-series fleet answers in one line; "series_total"
  // carries the true count.
  if (const auto info = store.container_info()) {
    constexpr std::size_t kMaxListedSeries = 256;
    out.key("container").begin_object();
    out.key("path").value(info->path);
    out.key("generation").value(info->generation);
    out.key("bytes").value(info->bytes);
    out.key("materialized").value(info->materialized);
    out.key("series_total").value(info->models);
    out.key("series").begin_array();
    for (const std::string& id : store.container_ids(kMaxListedSeries)) out.value(id);
    out.end_array().end_object();
  }
  return out.end_object().take();
}

std::string observe_reply(ForecastService& service, const Request& request) {
  QualityTracker* quality = service.quality();
  if (quality == nullptr) {
    return error_json(ErrorCode::kBadRequest, "quality tracking is disabled",
                      request.version, request.id_json);
  }
  // Reject observations for models the store cannot resolve: a typo'd name
  // must not silently grow its own quality state.
  if (!service.store().get(request.predict.model)) {
    return error_json(ErrorCode::kUnknownModel,
                      "unknown model '" + request.predict.model + "'", request.version,
                      request.id_json);
  }
  const QualityTracker::ObserveResult r =
      quality->observe(request.predict.model, request.observe.value, request.observe.t);
  json::Writer out = reply(true, request);
  out.key("model").value(request.predict.model);
  out.key("tick").value(r.tick);
  out.key("matured").value(r.matured);
  out.key("overdue").value(r.overdue);
  out.key("pending").value(r.pending);
  out.key("stale").value(r.stale);
  if (r.drift_detected) out.key("drift").value("detected");
  if (r.drift_cleared) out.key("drift").value("cleared");
  return out.end_object().take();
}

std::string quality_reply(const ForecastService& service, const Request& request) {
  const QualityTracker* quality = service.quality();
  json::Writer out = reply(true, request);
  out.key("enabled").value(quality != nullptr);
  out.key("armed").value(quality != nullptr && quality->armed());
  out.key("models").begin_array();
  if (quality != nullptr) {
    for (const QualityTracker::ModelSnapshot& m : quality->snapshot()) {
      if (request.has_model && m.model != request.predict.model) continue;
      // Accuracy stats are null until the window has scored forecasts — a
      // fresh model reports "unknown", never a fake 0.0.
      const auto stat = [&out](const char* name, bool known, double value) {
        known ? out.key(name).value(value) : out.key(name).null();
      };
      out.begin_object().key("model").value(m.model);
      const std::pair<const char*, std::uint64_t> counts[] = {
          {"tick", m.tick},       {"pending", m.pending}, {"observed", m.observed},
          {"matured", m.matured}, {"scored", m.scored},   {"overdue", m.overdue},
          {"stale", m.stale},     {"evicted", m.evicted}, {"window", m.window_n}};
      for (const auto& [key, count] : counts) out.key(key).value(count);
      stat("rmse", m.window_scored > 0, m.rmse);
      stat("mae", m.window_scored > 0, m.mae);
      stat("smape", m.window_scored > 0, m.smape);
      stat("coverage", m.window_intervals > 0, m.coverage);
      out.key("abstain_share").value(m.abstain_share);
      out.key("drift").begin_object();
      out.key("drifted").value(m.drifted);
      out.key("detections").value(m.drift_detections);
      out.key("stat").value(m.drift_stat);
      out.end_object().end_object();
    }
  }
  return out.end_array().end_object().take();
}

}  // namespace

std::string handle_line(ForecastService& service, std::string_view line,
                        std::uint64_t connections) {
  ProtocolError error;
  const std::optional<Request> request = parse_request(line, error);
  if (!request) return error_json(error);
  if (request->cmd != Request::Cmd::kPredict) {
    return handle_verb(service, *request, connections);
  }
  return to_json(service.predict(request->predict), *request);
}

std::string handle_verb(ForecastService& service, const Request& request,
                        std::uint64_t connections) {
  switch (request.cmd) {
    case Request::Cmd::kPing:
      return reply(true, request).key("pong").value(true).end_object().take();
    case Request::Cmd::kModels:
      return models_reply(service, request);
    case Request::Cmd::kStats: {
      const auto cache = service.cache_stats();
      json::Writer out = reply(true, request);
      out.key("connections").value(connections);
      out.key("cache_hits").value(cache.hits);
      out.key("cache_misses").value(cache.misses);
      out.key("cache_entries").value(cache.entries);
      out.key("cache_evictions").value(cache.evictions);
      return out.end_object().take();
    }
    case Request::Cmd::kMetrics: {
      // The exposition text is multi-line; it ships as one escaped string so
      // JSON-lines framing survives. HTTP clients get the raw text via GET
      // /metrics instead.
      json::Writer out = reply(true, request);
      out.key("format").value("prometheus").key("exposition").value(obs::prometheus_text());
      return out.end_object().take();
    }
    case Request::Cmd::kTrace: {
      // The Chrome trace-event document is embedded as a JSON value (depth 3,
      // well inside the reader's limit). Clients save response["trace"] to a
      // file and open it in Perfetto.
      json::Writer out = reply(true, request);
      out.key("enabled").value(obs::Timeline::enabled());
      out.key("sample").value(obs::Timeline::sample_rate());
      out.key("trace").raw(obs::chrome_trace_json());
      return out.end_object().take();
    }
    case Request::Cmd::kEvents: {
      json::Writer out = reply(true, request);
      out.key("dropped").value(obs::EventLog::global().dropped());
      out.key("events").begin_array();
      for (const obs::Event& event : obs::EventLog::global().recent()) {
        out.raw(event.to_json());
      }
      return out.end_array().end_object().take();
    }
    case Request::Cmd::kObserve:
      return observe_reply(service, request);
    case Request::Cmd::kQuality:
      return quality_reply(service, request);
    case Request::Cmd::kPredict:
      break;
  }
  return error_json(ErrorCode::kInternal, "verb dispatched to the wrong handler",
                    request.version, request.id_json);
}

}  // namespace ef::serve
