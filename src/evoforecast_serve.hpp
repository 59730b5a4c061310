// evoforecast_serve.hpp — opt-in umbrella header for the serving layer.
//
// Deliberately separate from evoforecast.hpp: the serve layer spawns
// threads (model-store poller, reactor event loops)
// and pulls in sockets, which library consumers doing offline training and
// evaluation never need. Include this header only in processes that host a
// forecast service.
//
//   #include "evoforecast.hpp"        // training + prediction (no threads)
//   #include "evoforecast_serve.hpp"  // + ModelStore, ForecastService, TCP
//
// Typical use:
//
//   ef::serve::ModelStore store;
//   store.add_file("default", "model.efr");
//   store.start_polling(std::chrono::seconds(2));   // hot-reload on mtime
//   ef::serve::ForecastService service(store);
//   const auto response = service.predict({.window = {...}});
//   if (response.ok && !response.abstain) use(response.value);
//
// Layering (each header is also individually includable):
//   model_store   named, versioned models with atomic hot-reload
//   window_cache  exact-key set-associative LRU over (model tag, horizon, agg, window)
//   service       validate → cache → match → respond, one blocking call
//   protocol      JSON-lines protocol encode/decode (v1 + v2 envelope)
//   verbs         one request line in, one reply line out (no sockets)
//   reactor       epoll reactor transport (pipelined JSON-lines over TCP)
#pragma once

#include "evoforecast.hpp"  // IWYU pragma: export

#include "serve/model_store.hpp"   // IWYU pragma: export
#include "serve/protocol.hpp"      // IWYU pragma: export
#include "serve/reactor.hpp"       // IWYU pragma: export
#include "serve/service.hpp"       // IWYU pragma: export
#include "serve/verbs.hpp"         // IWYU pragma: export
#include "serve/window_cache.hpp"  // IWYU pragma: export
