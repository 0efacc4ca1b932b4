// Sim-clock-native metrics: named counters, gauges and histograms organized
// by entity ("conduit/h0/rdma/retransmits", "nic/0/drops/rdma_chunk"). The
// registry hands out stable pointers, so instrumented hot paths pay one
// pointer-chase and one increment — no name lookup, no allocation, no
// branch on "is telemetry on": every instrumented object takes its series
// when it is built or attached, not per event.
//
// Snapshots are deterministic: names are kept sorted, values depend only on
// simulation history, so two seeded runs export byte-identical JSON.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "common/histogram.h"

namespace freeflow::telemetry {

/// Monotonic event count. Increment-only by design; a registry snapshot can
/// difference two exports, the counter itself never goes backwards.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (window occupancy, graveyard size).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_ = v; }
  void add(std::int64_t d) noexcept { value_ += d; }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Owns every metric of one simulated deployment. Lookup-or-create by name;
/// returned pointers are stable for the registry's lifetime (deque
/// storage). Single-threaded, like the simulation itself.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, int sub_buckets_log2 = 5);

  /// Sampled-at-snapshot gauge: `fn` runs during snapshot_json(), so values
  /// like "NIC tx utilization so far" need no hot-path updates. The owner
  /// of whatever `fn` captures must unregister_probe() before dying if the
  /// registry can outlive it.
  void register_probe(const std::string& name, std::function<double()> fn);
  void unregister_probe(const std::string& name);

  /// Null when absent — never creates (introspection/tests).
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;
  /// Convenience: the counter's value, or 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size() + probes_.size();
  }

  /// Deterministic JSON export, sorted by name within each section:
  ///   {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,...}}}
  [[nodiscard]] std::string snapshot_json() const;

 private:
  std::deque<Counter> counter_store_;
  std::deque<Gauge> gauge_store_;
  std::deque<Histogram> histogram_store_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
  std::map<std::string, std::function<double()>> probes_;
};

}  // namespace freeflow::telemetry
