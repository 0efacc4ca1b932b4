#include "telemetry/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "telemetry/json.h"

namespace freeflow::telemetry {

Counter& MetricRegistry::counter(const std::string& name) {
  auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  counter_store_.emplace_back();
  Counter* c = &counter_store_.back();
  counters_.emplace(name, c);
  return *c;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  gauge_store_.emplace_back();
  Gauge* g = &gauge_store_.back();
  gauges_.emplace(name, g);
  return *g;
}

Histogram& MetricRegistry::histogram(const std::string& name, int sub_buckets_log2) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  histogram_store_.emplace_back(sub_buckets_log2);
  Histogram* h = &histogram_store_.back();
  histograms_.emplace(name, h);
  return *h;
}

void MetricRegistry::register_probe(const std::string& name, std::function<double()> fn) {
  probes_[name] = std::move(fn);
}

void MetricRegistry::unregister_probe(const std::string& name) { probes_.erase(name); }

const Counter* MetricRegistry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second;
}

const Gauge* MetricRegistry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second;
}

const Histogram* MetricRegistry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second;
}

std::uint64_t MetricRegistry::counter_value(const std::string& name) const {
  const Counter* c = find_counter(name);
  return c == nullptr ? 0 : c->value();
}

namespace {

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

}  // namespace

std::string MetricRegistry::snapshot_json() const {
  // std::map iteration is name-sorted, so the export order — and for a
  // deterministic simulation, the whole byte stream — is reproducible.
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, c->value());
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64, g->value());
    out += buf;
  }
  for (const auto& [name, fn] : probes_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_double(out, fn());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ":{\"count\":%" PRIu64 ",\"min\":%" PRId64 ",\"max\":%" PRId64
                  ",\"mean\":%.6g,\"p50\":%" PRId64 ",\"p99\":%" PRId64 "}",
                  h->count(), h->min(), h->max(), h->mean(), h->p50(), h->p99());
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace freeflow::telemetry
