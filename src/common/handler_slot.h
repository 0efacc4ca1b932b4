// A callback slot invoked in place. Dispatching through a std::function copy
// (the usual guard against a handler replacing itself mid-call) costs a heap
// allocation per call whenever the capture is larger than the small buffer;
// this slot instead counts how deep dispatch is and, when a handler replaces
// or clears its own slot (a handshake installing its data-phase successor, a
// close from inside the handler), holds the new value aside until the
// outermost call returns. The running handler's captures therefore stay
// alive for the whole call, and the next dispatch sees the new handler.
#pragma once

#include <functional>
#include <utility>

namespace freeflow::common {

template <typename Sig>
class HandlerSlot;

template <typename... Args>
class HandlerSlot<void(Args...)> {
 public:
  using Fn = std::function<void(Args...)>;

  /// Installs `fn` now, or when the outermost dispatch returns if one is
  /// running. The last call made during a dispatch wins.
  void set(Fn fn) {
    if (depth_ == 0) {
      fn_ = std::move(fn);
      return;
    }
    pending_ = std::move(fn);
    has_pending_ = true;
  }

  /// True when a handler is installed (a pending replacement not counted).
  explicit operator bool() const noexcept { return static_cast<bool>(fn_); }

  /// Calls the installed handler, which must exist.
  void operator()(Args... args) {
    ++depth_;
    fn_(std::forward<Args>(args)...);
    if (--depth_ == 0 && has_pending_) {
      // The retired handler's captures may own this slot's owner: release
      // them last, after the slot is consistent again.
      Fn retired = std::exchange(fn_, std::exchange(pending_, nullptr));
      has_pending_ = false;
    }
  }

 private:
  Fn fn_;
  Fn pending_;
  int depth_ = 0;
  bool has_pending_ = false;
};

}  // namespace freeflow::common
