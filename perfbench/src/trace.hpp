// In-memory span recorder for the traced benchmark runs.
//
// A span is (name, start, end, parent), recorded by the benchmark around a
// call into one layer's public functions.  Spans live in per-thread buffers
// (one writer each, no locking on the hot path) and are only read after
// every writer thread has been joined.  The layer of a span is its name up
// to the first '.', so "runtime.push_batch" belongs to `runtime`.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Global span id: buffer index in the high 32 bits, slot in the low 32.
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = ~SpanId{0};

struct SpanRecord {
  const char* name = nullptr;  ///< string literal; its prefix names the layer
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  SpanId parent = kNoSpan;
};

class Tracer;

/// One thread's span buffer.  Open spans nest: a new span's parent is the
/// innermost open span of this buffer, or the buffer's root parent (a span
/// of another thread) when none is open.
class TraceBuffer {
 public:
  TraceBuffer(std::uint32_t index, SpanId root_parent)
      : index_(index), root_parent_(root_parent) {}

  SpanId open(const char* name) {
    SpanRecord r;
    r.name = name;
    r.parent = stack_.empty() ? root_parent_ : stack_.back();
    const SpanId id = (SpanId{index_} << 32) | spans_.size();
    spans_.push_back(r);
    stack_.push_back(id);
    spans_.back().start_ns = now_ns();
    return id;
  }

  /// Closes the innermost open span `id`; returns its duration in ns.
  std::uint64_t close(SpanId id) {
    SpanRecord& r = spans_[static_cast<std::size_t>(id & 0xffffffffu)];
    r.end_ns = now_ns();
    stack_.pop_back();
    return r.end_ns - r.start_ns;
  }

  /// Innermost open span (kNoSpan when none), for parenting other threads.
  SpanId current() const {
    return stack_.empty() ? root_parent_ : stack_.back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::uint32_t index_;
  SpanId root_parent_;
  std::vector<SpanRecord> spans_;
  std::vector<SpanId> stack_;
};

/// RAII span; a null buffer records nothing (the untraced path).  With
/// `acc_ns` set, the span's duration is also added there.
class Span {
 public:
  Span(TraceBuffer* buf, const char* name, std::uint64_t* acc_ns = nullptr)
      : buf_(buf),
        acc_(acc_ns),
        id_(buf != nullptr ? buf->open(name) : kNoSpan) {}
  ~Span() {
    if (buf_ == nullptr) return;
    const std::uint64_t ns = buf_->close(id_);
    if (acc_ != nullptr) *acc_ += ns;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceBuffer* buf_;
  std::uint64_t* acc_;
  SpanId id_;
};

class Tracer {
 public:
  /// A new per-thread buffer whose top-level spans are children of
  /// `root_parent`.  The reference stays valid for the tracer's lifetime.
  TraceBuffer& new_buffer(SpanId root_parent = kNoSpan) {
    buffers_.emplace_back(static_cast<std::uint32_t>(buffers_.size()),
                          root_parent);
    return buffers_.back();
  }

  /// Self time per layer, in seconds: each span's duration minus the part
  /// of its interval covered by the union of its children's intervals.
  /// A non-empty `under` keeps only spans below a span of that name.
  std::map<std::string, double> self_time_by_layer(
      const std::string& under = "") const;

  /// Writes every span plus the per-layer self times as JSON.
  bool write_json(const std::string& path) const;

 private:
  std::deque<TraceBuffer> buffers_;  // deque: references stay valid
};

}  // namespace perfbench
