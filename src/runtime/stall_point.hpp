// Test-only stall instrumentation for the engine's wait loops.
//
// The runtime marks the points where a thread waits on another thread's
// progress (the checkpoint hold, the router's checkpoint arm) with
//
//   ESPICE_STALL_POINT("shard.checkpoint.hold");
//
// In production the marker is one relaxed load of a null function pointer.
// A liveness test installs a hook that delays the calling thread at a
// chosen point, which turns a rare descheduling into a deterministic
// schedule: a wait loop whose exit condition can be missed then hangs
// every time, and the test's watchdog turns the hang into a failure.
//
// Unlike the durability crash points (durability/crash_point.hpp), stall
// points fire on shard threads as well as the router, so a hook must be
// thread-safe, and it must never throw.
#pragma once

#include <atomic>

namespace espice {

/// Hook signature: called with the stall point's name on the waiting
/// thread; may block for a while, must return.
using StallHook = void (*)(const char* point);

namespace detail {
inline std::atomic<StallHook> g_stall_hook{nullptr};
}

/// Installs (or clears, with nullptr) the process-wide stall hook.  Tests
/// only; call while no engine is running.
inline void set_stall_hook(StallHook hook) {
  detail::g_stall_hook.store(hook, std::memory_order_release);
}

inline void stall_point(const char* name) {
  if (StallHook hook = detail::g_stall_hook.load(std::memory_order_relaxed)) {
    hook(name);
  }
}

}  // namespace espice

#define ESPICE_STALL_POINT(name) ::espice::stall_point(name)
