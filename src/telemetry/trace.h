// Chrome-trace-format tracer on the virtual clock. Events accumulate in
// memory (the simulation is single-threaded and runs are short) and export
// as a `{"traceEvents":[...]}` JSON array loadable by chrome://tracing and
// Perfetto.
//
// Mapping of simulation entities onto the trace model (DESIGN.md §10):
//   pid — host id (one "process" per simulated host; orchestrator = pid 0)
//   tid — entity within the host (conduit token, NIC, agent)
//   ts  — virtual time in microseconds (fractional; sim clock is ns)
// Span phases use B/E pairs; one-shot markers (fault injected, retransmit
// burst, re-upgrade) use instants ("i"). Metadata ("M") names pids/tids.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/event_loop.h"

namespace freeflow::telemetry {

struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'i';  // B, E, i, M
  SimTime ts_ns = 0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::string args_json;  // pre-rendered JSON object ("{...}"), or empty
};

class Tracer {
 public:
  explicit Tracer(sim::EventLoop* loop = nullptr) noexcept : loop_(loop) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Disabled tracers drop events at the record call — instrumentation
  /// stays in place, memory stays flat for metrics-only runs.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Duration-span begin/end pair; nest within (pid, tid) like call stacks.
  void begin(const std::string& cat, const std::string& name, std::uint32_t pid,
             std::uint32_t tid, std::string args_json = {});
  void end(const std::string& cat, const std::string& name, std::uint32_t pid,
           std::uint32_t tid, std::string args_json = {});
  /// One-shot marker at now().
  void instant(const std::string& cat, const std::string& name, std::uint32_t pid,
               std::uint32_t tid, std::string args_json = {});
  /// Metadata: labels the pid row ("host 2") in the viewer.
  void name_process(std::uint32_t pid, const std::string& name);
  void name_thread(std::uint32_t pid, std::uint32_t tid, const std::string& name);

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept { return events_; }
  void clear() noexcept { events_.clear(); }

  /// Renders `{"traceEvents":[...],"displayTimeUnit":"ns"}`.
  [[nodiscard]] std::string export_json() const;
  /// Writes export_json() to `path`; false on I/O failure.
  bool export_to_file(const std::string& path) const;

  /// Renders a one-pair args object: {"key":"value"} with escaping.
  static std::string arg(const std::string& key, const std::string& value);

 private:
  void push(char ph, const std::string& cat, const std::string& name, std::uint32_t pid,
            std::uint32_t tid, std::string args_json);

  sim::EventLoop* loop_ = nullptr;
  bool enabled_ = true;
  std::vector<TraceEvent> events_;
};

}  // namespace freeflow::telemetry
