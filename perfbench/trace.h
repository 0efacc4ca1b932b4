// In-memory span recorder for the traced run. Spans wrap the benchmark's
// own calls into the library (deploy, attach, sock_connect, send, close,
// stop), the event-loop slices it runs, and its own callbacks. Per-name
// totals and self time (duration minus nested spans) are kept for every
// span; the first k_keep spans are also kept verbatim and written as
// Chrome-trace JSON at exit. Storage is malloc-backed so recording does not
// move the operator-new counters the benchmark reports.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "probes.h"

namespace perfbench {

enum SpanKind : int {
  k_loop_slice,    ///< EventLoop::run_for of one slice
  k_harness_rx,    ///< benchmark data callback (verify / echo)
  k_harness_ctl,   ///< benchmark control callback (connect/close done, op start)
  k_api_send,      ///< FlowSocket::send / TcpConnection::send
  k_api_connect,   ///< sock_connect call -> callback (asynchronous)
  k_api_close,     ///< FlowSocket::close
  k_api_attach,    ///< FreeFlow::attach
  k_api_deploy,    ///< ClusterOrchestrator::deploy
  k_api_stop,      ///< ClusterOrchestrator::stop
  k_span_kinds,
};

inline const char* span_name(int kind) {
  static const char* const names[k_span_kinds] = {
      "loop.run_slice", "harness.rx",   "harness.ctl",
      "sock.send",      "sock.connect", "sock.close",
      "ff.attach",      "orch.deploy",  "orch.stop"};
  return names[kind];
}

class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer() { std::free(kept_); }

  /// Recording on/off (the traced run alternates timed segments).
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a nested (synchronous) span; returns a token for end().
  int begin(int kind, std::uint64_t request) noexcept {
    if (!enabled_ || depth_ >= k_max_depth) return -1;
    Open& o = stack_[depth_];
    o.kind = kind;
    o.request = request;
    o.child_ns = 0;
    o.start = mono_now_ns();
    return depth_++;
  }
  void end(int token) noexcept {
    if (token < 0) return;
    const std::int64_t now = mono_now_ns();
    depth_ = token;
    const Open& o = stack_[token];
    const std::int64_t dur = now - o.start;
    if (token > 0) stack_[token - 1].child_ns += dur;
    record(o.kind, o.request, token > 0 ? stack_[token - 1].request : 0, o.start, dur,
           dur - o.child_ns);
  }

  /// Removes `ns` of benchmark bookkeeping that just ran (a calibration run)
  /// from every open span.
  void skip(std::int64_t ns) noexcept {
    for (int i = 0; i < depth_; ++i) stack_[i].start += ns;
  }

  /// Records a span measured by the caller (asynchronous call -> callback).
  void record_async(int kind, std::uint64_t request, std::int64_t start) noexcept {
    if (!enabled_ || start < 0) return;
    const std::int64_t dur = mono_now_ns() - start;
    record(kind, request, 0, start, dur, dur);
  }

  [[nodiscard]] const Totals& totals(int kind) const noexcept { return totals_[kind]; }

  /// Writes the kept spans as Chrome-trace JSON ("X" complete events, µs).
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < kept_n_; ++i) {
      const Kept& k = kept_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"parent_request\":%llu,\"self_us\":%.3f}}\n",
                   i == 0 ? "" : ",", span_name(k.kind),
                   static_cast<double>(k.start - origin_) / 1e3,
                   static_cast<double>(k.dur) / 1e3,
                   static_cast<unsigned long long>(k.request),
                   static_cast<unsigned long long>(k.parent),
                   static_cast<double>(k.self) / 1e3);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static constexpr int k_max_depth = 16;
  static constexpr std::size_t k_keep = 200'000;

  struct Open {
    int kind;
    std::uint64_t request;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Kept {
    int kind;
    std::uint64_t request;
    std::uint64_t parent;
    std::int64_t start;
    std::int64_t dur;
    std::int64_t self;
  };

  void record(int kind, std::uint64_t request, std::uint64_t parent, std::int64_t start,
              std::int64_t dur, std::int64_t self) noexcept {
    Totals& t = totals_[kind];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += self;
    if (kept_ == nullptr) {
      kept_ = static_cast<Kept*>(std::malloc(k_keep * sizeof(Kept)));
      origin_ = start;
    }
    if (kept_ != nullptr && kept_n_ < k_keep) {
      kept_[kept_n_++] = Kept{kind, request, parent, start, dur, self};
    }
  }

  bool enabled_ = false;
  Open stack_[k_max_depth]{};
  int depth_ = 0;
  Totals totals_[k_span_kinds]{};
  Kept* kept_ = nullptr;
  std::size_t kept_n_ = 0;
  std::int64_t origin_ = 0;
};

/// RAII span for a synchronous call.
class Span {
 public:
  Span(Tracer& t, int kind, std::uint64_t request = 0) noexcept
      : t_(t), token_(t.begin(kind, request)) {}
  ~Span() { t_.end(token_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int token_;
};

}  // namespace perfbench
