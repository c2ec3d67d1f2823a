// Per-thread event stream and black-box flight recorder (DESIGN.md §3.10,
// §3.13).
//
// Every instrumented step, saturation count, request boundary and pool
// region is recorded exactly once, into the calling thread's overwriting
// ring (newest wins, oldest evicted). The ring has two kinds of reader:
//   * the telemetry aggregator (telemetry.h) keeps one cursor per ring and
//     reads [cursor, head) every tick, counting slots that were overwritten
//     before it got to them as dropped;
//   * the crash-time reader (crash.h) reads the newest events of every
//     ring, possibly from a signal handler on another thread, mid-push.
// Each slot carries a seqlock-style sequence number published after the
// payload, so either reader can detect and skip torn slots instead of
// emitting garbage. The payload itself is stored and loaded as relaxed
// atomics (ordinary moves on x86), so a live reader racing the producer is
// well-defined.
//
// Everything the crash handler touches is engineered for async-signal
// safety:
//   * rings and the registry are fixed-size, allocated at registration
//     time (cold) and intentionally never freed — a handler can always
//     walk them without coordination;
//   * series names live in a fixed table of fixed-width buffers published
//     with release stores — flight_key_name() is lock-free and never
//     allocates (interning under flight_key() is the only cold, locking
//     op);
//   * the active-request table is a fixed array of atomic slots claimed
//     and released by RequestScope — exact, scannable from a handler.
//
// The disabled hot path is one relaxed load (flight_enabled()), same
// discipline as metrics/trace/telemetry, pinned by the alloc-count test.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace t2c::obs {

namespace detail {
extern std::atomic<bool> g_flight_enabled;
}  // namespace detail

inline bool flight_enabled() {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}
/// Flipped on by install_crash_handlers(); exposed for tests and for
/// callers that want the recorder without the signal handlers.
void set_flight_enabled(bool on);

/// What one event records. The telemetry aggregator reads kStep,
/// kRequestDone and kSaturation; the black box additionally marks request
/// starts and pool regions so a postmortem shows the causal shape of the
/// final milliseconds, not just step latencies.
enum class FlightKind : std::uint8_t {
  kStep = 0,
  kRequestStart = 1,
  kRequestDone = 2,
  kSaturation = 3,
  kPoolRegion = 4,
  kMark = 5,
};
/// Stable JSON spelling ("step", "request_start", ...).
const char* flight_kind_name(FlightKind k);

/// One fixed-size event; no owned memory (name is an interned key).
struct FlightEvent {
  std::int64_t t_ns = 0;   ///< mono_now_ns() at record time
  double value = 0.0;      ///< latency ms, count, or kind-specific payload
  std::uint64_t req = 0;   ///< current_request() at record time; 0 = none
  std::uint32_t key = 0;   ///< interned name (flight_key)
  FlightKind kind = FlightKind::kMark;
};

/// Sentinel for "no key" (e.g. the stall watchdog before any step ran).
constexpr std::uint32_t kFlightNoKey = 0xFFFFFFFFu;

/// Interns `name` into the fixed key table, returning a stable id. Cold
/// path (takes a lock): call at plan-compile / handle-resolve time, never
/// per event. Names longer than 63 bytes are truncated; a full table
/// returns the shared overflow key 0 ("?"). The same name always returns
/// the same id.
std::uint32_t flight_key(const char* name);

/// Resolves an interned id back to its name. Lock-free, allocation-free,
/// async-signal-safe; unknown ids (incl. kFlightNoKey) resolve to "?".
const char* flight_key_name(std::uint32_t id);

/// Per-thread overwriting ring. Single producer (the owning thread); any
/// number of concurrent readers, which validate per-slot sequence numbers
/// and skip slots torn by an in-flight push.
class FlightRing {
 public:
  static constexpr std::size_t kCapacity = 2048;  // power of two

  void push(const FlightEvent& e);

  /// Loads push number `i` into `e`. False when that push was overwritten,
  /// is torn by a concurrent push, or has not happened yet. Safe from any
  /// thread and from a signal handler.
  bool read_slot(std::uint64_t i, FlightEvent& e) const;

  /// Hands every push numbered `cursor` or later to `visit(const
  /// FlightEvent&)`, oldest first, moves `cursor` to the head it read up
  /// to, and returns how many of those pushes were lost — overwritten or
  /// torn before they could be read. Read plus lost always equals the
  /// pushes the cursor advanced over.
  template <class Visit>
  std::uint64_t read_since(std::uint64_t& cursor, Visit&& visit) const {
    const std::uint64_t h = pushes();
    if (cursor > h) cursor = h;  // ring reset under the reader (tests)
    const std::uint64_t first =
        h - cursor > kCapacity ? h - kCapacity : cursor;
    std::uint64_t lost = first - cursor;
    FlightEvent e;
    for (std::uint64_t i = first; i < h; ++i) {
      if (read_slot(i, e)) {
        visit(e);
      } else {
        ++lost;
      }
    }
    cursor = h;
    return lost;
  }

  std::uint64_t pushes() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Events evicted by overwrite (the recorder's "drop" count).
  std::uint64_t overwritten() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return h > kCapacity ? h - kCapacity : 0;
  }
  const char* name() const { return name_; }
  void set_name(const char* n);

  /// Reuse handshake: a ring belongs to exactly one live thread. Rings
  /// start claimed (created for the registering thread); thread exit
  /// releases, and a later thread may claim the slot instead of growing
  /// the registry.
  bool try_claim() {
    bool expect = false;
    return in_use_.compare_exchange_strong(expect, true,
                                           std::memory_order_acq_rel);
  }
  void release() { in_use_.store(false, std::memory_order_release); }

  /// Test isolation only: resets head and slot sequences. Caller must
  /// guarantee no concurrent producer.
  void reset_for_test();

 private:
  struct Slot {
    // seq == 0: empty; odd: write in progress; even > 0: published, the
    // payload belongs to push number (seq/2 - 1).
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::int64_t> t_ns{0};
    std::atomic<double> value{0.0};
    std::atomic<std::uint64_t> req{0};
    std::atomic<std::uint32_t> key{0};
    std::atomic<FlightKind> kind{FlightKind::kMark};
  };
  Slot slots_[kCapacity];
  std::atomic<std::uint64_t> head_{0};  ///< producer-owned push count
  std::atomic<bool> in_use_{true};      ///< owned by a live thread
  char name_[32] = "thread";
};

/// Most rings the registry holds; threads beyond it record nothing (counted
/// in FlightStats::lost_threads).
constexpr int kFlightMaxRings = 192;

/// Registered ring slots so far (at most kFlightMaxRings), and the ring in
/// slot `i` (nullptr while its registration is still publishing). A slot
/// never changes ring and rings are never freed, so readers may keep
/// per-slot state such as the telemetry aggregator's cursors. Lock-free,
/// async-signal-safe.
int flight_ring_count();
const FlightRing* flight_ring(int i);

/// Records one event into the calling thread's ring, creating and
/// registering the ring on first use (cold). Callers gate kinds the
/// telemetry aggregator reads on `flight_enabled() || telemetry_enabled()`
/// and the others on flight_enabled(). Never blocks, never allocates after
/// registration.
void flight_record(FlightKind kind, std::uint32_t key, double value);

/// Eagerly creates/names the calling thread's ring so the first recorded
/// event is allocation-free. Pool workers call this at startup.
void flight_register_thread(const char* name = nullptr);

// ---- active request table (exact, signal-safe to read) ----

/// Claims a slot for request `id`; returns the slot index or -1 when the
/// table is full (the request is then simply not listed in a bundle).
int flight_request_begin(std::uint64_t id);
/// Releases a slot returned by flight_request_begin (-1 is a no-op).
void flight_request_end(int slot);

struct FlightActiveRequest {
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
};
/// Copies the live request table into `out` (up to `cap`); returns the
/// count. Lock-free, async-signal-safe.
std::size_t flight_active_requests(FlightActiveRequest* out, std::size_t cap);

// ---- whole-recorder views (signal-safe) ----

struct FlightStats {
  std::uint64_t recorded = 0;     ///< total pushes across all rings
  std::uint64_t overwritten = 0;  ///< total evictions across all rings
  std::uint64_t steps = 0;        ///< kStep events recorded
  int rings = 0;                  ///< registered rings
  int lost_threads = 0;           ///< threads refused a ring (table full)
};
FlightStats flight_stats();

/// Overwritten + lost-thread events, surfaced in /healthz 503 bodies.
std::uint64_t flight_dropped_total();

/// One event tagged with its producer thread's ring name.
struct FlightTaggedEvent {
  FlightEvent e;
  const char* thread = "";  ///< points into the ring; never freed
};
/// Gathers the newest events across every ring into `out`, sorted oldest
/// first, keeping at most `cap` (the newest ones win). Lock-free,
/// allocation-free, async-signal-safe. Returns the count.
std::size_t flight_collect(FlightTaggedEvent* out, std::size_t cap);

/// Test isolation: resets every ring and the lost/step counters. Caller
/// must guarantee producers are quiescent.
void flight_clear_for_test();

}  // namespace t2c::obs
