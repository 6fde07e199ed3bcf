#ifndef STARBURST_OBS_TRACE_H_
#define STARBURST_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace starburst::obs {

/// Microseconds on the steady clock — the one timebase every span,
/// instant, and rule-firing timestamp shares so exported traces line up.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded event: a closed span (start + duration) or an instant.
struct TraceEvent {
  enum class Kind : uint8_t { kSpan, kInstant };
  Kind kind = Kind::kSpan;
  std::string name;
  std::string category;
  double start_us = 0;
  double dur_us = 0;        // spans only
  uint64_t seq = 0;         // global recording order
  /// Pre-rendered JSON object body for the "args" field ("" = none).
  std::string args_json;
};

/// A thread-safe, ring-buffered trace recorder. Disabled (the default) it
/// costs one relaxed atomic load per span — no clock reads, no locks —
/// so instrumentation can stay compiled in on hot paths.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  explicit Tracer(size_t capacity = kDefaultCapacity) : capacity_(capacity) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Records a closed span. No-op when disabled.
  void RecordSpan(std::string name, std::string category, double start_us,
                  double dur_us, std::string args_json = "");
  /// Records a point-in-time event. No-op when disabled.
  void RecordInstant(std::string name, std::string category, double at_us,
                     std::string args_json = "");

  /// Events in recording order (oldest first). The ring keeps the newest
  /// `capacity` events; `dropped()` counts the overwritten ones.
  std::vector<TraceEvent> Snapshot() const;
  void Clear();
  uint64_t dropped() const;
  size_t capacity() const;
  /// Resizes the ring at runtime (`SET TRACE_BUFFER = N`). Shrinking
  /// discards the oldest events, which count as dropped; recording
  /// continues seamlessly either way.
  void set_capacity(size_t n);

  /// Chrome trace event format (chrome://tracing, Perfetto: ui.perfetto.dev).
  std::string ToChromeJson() const;
  /// Compact text rendering: indentation by span containment, times
  /// relative to the earliest recorded event.
  std::string ToText() const;

 private:
  void Push(TraceEvent event);

  size_t capacity_;  // mutable at runtime via set_capacity
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  // circular once full; ring_[head_] is oldest
  size_t head_ = 0;               // index of the oldest event when full
  uint64_t next_seq_ = 0;         // total events ever recorded
  uint64_t dropped_ = 0;          // events overwritten or rejected
};

/// RAII span: stamps the clock on construction, records on End() or
/// destruction. Against a null or disabled tracer the constructor skips
/// the clock read entirely — the near-zero disabled path.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::string category)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) {
      name_ = std::move(name);
      category_ = std::move(category);
      start_us_ = NowUs();
    }
  }
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a key/value to the span's args (value emitted as a JSON
  /// string). No-op when recording is off.
  void AddArg(const std::string& key, const std::string& value);

  /// Closes and records the span now (idempotent).
  void End() {
    if (tracer_ == nullptr) return;
    tracer_->RecordSpan(std::move(name_), std::move(category_), start_us_,
                        NowUs() - start_us_, std::move(args_));
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  std::string name_;
  std::string category_;
  std::string args_;
  double start_us_ = 0;
};

/// RAII timing of one Figure-1 phase: one steady-clock read at each end.
/// End() (or destruction) stores the elapsed microseconds in `*out_us`
/// and, when `tracer` was enabled at construction, records the same
/// interval as a "phase" span named `name` (a string literal).
class PhaseTimer {
 public:
  PhaseTimer(Tracer* tracer, const char* name, double* out_us)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name),
        out_us_(out_us),
        start_us_(NowUs()) {}
  ~PhaseTimer() { End(); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Closes the phase now (idempotent).
  void End() {
    if (out_us_ == nullptr) return;
    const double dur_us = NowUs() - start_us_;
    *out_us_ = dur_us;
    out_us_ = nullptr;
    if (tracer_ != nullptr) {
      tracer_->RecordSpan(name_, "phase", start_us_, dur_us);
    }
  }

 private:
  Tracer* tracer_;
  const char* name_;
  double* out_us_;
  double start_us_;
};

/// Escapes `s` for embedding inside a JSON string literal.
std::string JsonEscape(const std::string& s);

}  // namespace starburst::obs

#endif  // STARBURST_OBS_TRACE_H_
