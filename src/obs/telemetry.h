#ifndef MOTSIM_OBS_TELEMETRY_H
#define MOTSIM_OBS_TELEMETRY_H

#include <atomic>
#include <initializer_list>
#include <string>
#include <string_view>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/expected.h"

namespace motsim::obs {

/// One telemetry context for one run: a metrics registry, a span
/// tracer and a flight recorder sharing a single monotonic epoch, plus
/// an optionally attached structured-log sink. Engines receive it as a
/// nullable pointer (SimOptions::telemetry); nullptr — the default —
/// means every instrumentation site is one predictable branch, the
/// same contract as ProgressSink.
///
/// The metric ids, span names and log event ids emitted into this
/// context are catalogued in docs/OBSERVABILITY.md; treat them as a
/// stable API.
struct Telemetry {
  MetricsRegistry metrics;
  SpanTracer tracer;
  /// Always on: every log record (and every span, mirrored by the
  /// tracer) lands in this fixed-size ring regardless of any logger.
  FlightRecorder recorder;

  Telemetry() { tracer.set_recorder(&recorder); }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Attaches (or detaches, with nullptr) a structured-log sink. The
  /// sink is not owned and must outlive the last log_event call.
  void attach_logger(Logger* logger) noexcept {
    log_.store(logger, std::memory_order_release);
  }
  [[nodiscard]] Logger* logger() const noexcept {
    return log_.load(std::memory_order_acquire);
  }

  /// Seconds since this context was created — the shared time base of
  /// the tracer's events and the run store's events.jsonl "t" fields.
  [[nodiscard]] double seconds_since_start() const {
    return tracer.seconds_since_start();
  }

  /// Writes metrics.snapshot().to_json() to `path`.
  Expected<bool, std::string> write_metrics_json(const std::string& path) const;

  /// Writes tracer.to_chrome_json() to `path` (load in Perfetto or
  /// chrome://tracing).
  Expected<bool, std::string> write_trace_json(const std::string& path) const;

  /// Human-readable digest: the per-phase span table followed by
  /// every counter and gauge, for --progress / log output.
  [[nodiscard]] std::string summary() const;

 private:
  std::atomic<Logger*> log_{nullptr};
};

/// The one structured-logging entry point of the instrumented code:
/// formats one JSONL record, feeds it to the (always-on) flight
/// recorder, and appends it to the attached logger if the level
/// clears its gate. `telemetry == nullptr` — the default everywhere —
/// is a single predictable branch, the same cost contract as every
/// other instrumentation site.
///
/// Event ids are stable dotted names (docs/OBSERVABILITY.md); keys and
/// string field values must outlive the call (they are copied into the
/// record before it returns).
void log_event(Telemetry* telemetry, LogLevel level, std::string_view event,
               std::initializer_list<LogField> fields = {},
               std::string_view msg = {});

/// Opens a span on the context's tracer; with `telemetry == nullptr`
/// an inert span (no allocation, nothing recorded).
[[nodiscard]] inline SpanTracer::Span open_span(Telemetry* telemetry,
                                                const char* name) {
  return telemetry == nullptr ? SpanTracer::Span{}
                              : telemetry->tracer.span(name);
}

}  // namespace motsim::obs

#endif  // MOTSIM_OBS_TELEMETRY_H
