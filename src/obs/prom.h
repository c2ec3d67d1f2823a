// Embedded Prometheus exporter (DESIGN.md §3.10) — a dependency-free
// HTTP/1.0 endpoint for long-running inference:
//
//   /metrics    Prometheus text exposition (version 0.0.4): the metrics
//               registry (counters, gauges, histograms with exact
//               cumulative _bucket lines) plus the telemetry plane's
//               sliding-window p50/p95/p99/rate series and request
//               counters;
//   /healthz    stall watchdog — 200 while plan steps keep completing
//               (or before any ran), 503 once the last completed step is
//               older than the deadline;
//   /buildinfo  the util/build_info attribution block as JSON;
//   /requests   recent completed requests with per-request latency,
//               step count, and saturation attribution (plain text);
//   /requests/<id>  full JSON detail for one request — latency, steps,
//               saturation, and (for reservoir-retained slow requests)
//               the per-op event trail;
//   /exemplars  the tail-latency reservoir as JSON: the slowest requests
//               of the trailing 5 m window with full trails, the targets
//               the /metrics OpenMetrics exemplars point at.
//
// /metrics decorates the `t2c_tele_latency_ms` histogram buckets
// (series "deploy.step.latency" and "request.latency") with OpenMetrics
// exemplars — `# {req="<id>"} <value>` — so a p99 bucket resolves to a
// concrete request id, and that id resolves to a causal trace via
// /requests/<id>.
//
// The server is deliberately primitive: one blocking listen/accept scrape
// thread, one request per connection, response closed immediately —
// exactly what a Prometheus scraper (or curl) needs and nothing more. It
// shares no locks with the inference hot path; a scrape costs one
// registry snapshot and one read of the telemetry rings.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace t2c::obs {

/// Renders the full /metrics document (exposed for tests and for
/// t2c_json_check --prom round-trips). Always ends with a newline.
std::string render_prometheus();

/// Renders the /exemplars document (schema t2c.exemplars.v1): the
/// tail-latency reservoir with per-op trails. Exposed for tests.
std::string render_exemplars_json();

/// Renders the /requests/<id> JSON detail, or "" when the id is unknown.
std::string render_request_json(std::uint64_t id);

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string prom_escape_label(const std::string& v);

/// Sanitizes an arbitrary dotted metric name into a legal Prometheus
/// metric name with the "t2c_" prefix (e.g. "deploy.op_ms" ->
/// "t2c_deploy_op_ms").
std::string prom_metric_name(const std::string& name);

class PromExporter {
 public:
  PromExporter() = default;
  ~PromExporter();
  PromExporter(const PromExporter&) = delete;
  PromExporter& operator=(const PromExporter&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the scrape thread.
  /// Returns false (with a warn log) when the socket cannot be set up.
  bool start(int port);

  /// Unblocks the accept loop, joins the scrape thread, closes the
  /// socket. Safe to call repeatedly or without a successful start().
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  /// The bound port (resolves the ephemeral port after start(0)).
  int port() const { return port_; }

 private:
  void serve_main();

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread server_;
};

}  // namespace t2c::obs
