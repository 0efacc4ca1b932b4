#include "telemetry/trace.h"

#include <cstdio>

#include "telemetry/json.h"

namespace freeflow::telemetry {

void Tracer::push(char ph, const std::string& cat, const std::string& name,
                  std::uint32_t pid, std::uint32_t tid, std::string args_json) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ph = ph;
  ev.ts_ns = loop_ != nullptr ? loop_->now() : 0;
  ev.pid = pid;
  ev.tid = tid;
  ev.args_json = std::move(args_json);
  events_.push_back(std::move(ev));
}

void Tracer::begin(const std::string& cat, const std::string& name, std::uint32_t pid,
                   std::uint32_t tid, std::string args_json) {
  push('B', cat, name, pid, tid, std::move(args_json));
}

void Tracer::end(const std::string& cat, const std::string& name, std::uint32_t pid,
                 std::uint32_t tid, std::string args_json) {
  push('E', cat, name, pid, tid, std::move(args_json));
}

void Tracer::instant(const std::string& cat, const std::string& name, std::uint32_t pid,
                     std::uint32_t tid, std::string args_json) {
  push('i', cat, name, pid, tid, std::move(args_json));
}

void Tracer::name_process(std::uint32_t pid, const std::string& name) {
  push('M', "__metadata", "process_name", pid, 0, arg("name", name));
}

void Tracer::name_thread(std::uint32_t pid, std::uint32_t tid, const std::string& name) {
  // Every conduit names its row: a metrics-only run skips building the args.
  if (!enabled_) return;
  push('M', "__metadata", "thread_name", pid, tid, arg("name", name));
}

std::string Tracer::arg(const std::string& key, const std::string& value) {
  std::string out = "{";
  append_json_string(out, key);
  out += ':';
  append_json_string(out, value);
  out += '}';
  return out;
}

std::string Tracer::export_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, ev.name);
    out += ",\"cat\":";
    append_json_string(out, ev.cat);
    char buf[128];
    // ts is microseconds in the trace format; the sim clock is ns, so emit
    // three fixed decimals to keep nanosecond resolution losslessly.
    std::snprintf(buf, sizeof buf, ",\"ph\":\"%c\",\"ts\":%lld.%03lld,\"pid\":%u,\"tid\":%u",
                  ev.ph, static_cast<long long>(ev.ts_ns / 1000),
                  static_cast<long long>(ev.ts_ns % 1000), ev.pid, ev.tid);
    out += buf;
    // Instants need a scope; "t" (thread) keeps them on their tid row.
    if (ev.ph == 'i') out += ",\"s\":\"t\"";
    if (!ev.args_json.empty()) {
      out += ",\"args\":";
      out += ev.args_json;
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

bool Tracer::export_to_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = export_json();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok && written != json.size()) std::fclose(f);
  return ok;
}

}  // namespace freeflow::telemetry
