#include "obs/flight.h"

#include <cstring>
#include <map>
#include <mutex>
#include <string>

#include "obs/telemetry.h"
#include "util/stopwatch.h"

namespace t2c::obs {

namespace detail {
std::atomic<bool> g_flight_enabled{false};
}  // namespace detail

void set_flight_enabled(bool on) {
  detail::g_flight_enabled.store(on, std::memory_order_relaxed);
}

const char* flight_kind_name(FlightKind k) {
  switch (k) {
    case FlightKind::kStep:
      return "step";
    case FlightKind::kRequestStart:
      return "request_start";
    case FlightKind::kRequestDone:
      return "request_done";
    case FlightKind::kSaturation:
      return "saturation";
    case FlightKind::kPoolRegion:
      return "pool_region";
    case FlightKind::kMark:
      return "mark";
  }
  return "?";
}

// ---- key table ------------------------------------------------------------
//
// Fixed array of fixed-width names. Interning locks and may allocate (the
// side map); resolution reads the array with an acquire on the published
// count — async-signal-safe. Entry 0 is the shared overflow key.

namespace {

constexpr std::uint32_t kMaxKeys = 1024;
constexpr std::size_t kKeyLen = 64;  // incl. NUL; longer names truncate

struct KeyTable {
  char names[kMaxKeys][kKeyLen];
  std::atomic<std::uint32_t> count{0};
  std::mutex mu;                           // interning only
  std::map<std::string, std::uint32_t> index;  // under mu

  KeyTable() {
    std::memcpy(names[0], "?", 2);
    count.store(1, std::memory_order_release);
  }
};

KeyTable& key_table() {
  static KeyTable* t = new KeyTable();  // leaked: handlers outlive exit
  return *t;
}

}  // namespace

std::uint32_t flight_key(const char* name) {
  KeyTable& t = key_table();
  std::string truncated(name == nullptr ? "" : name);
  if (truncated.size() >= kKeyLen) truncated.resize(kKeyLen - 1);
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.index.find(truncated);
  if (it != t.index.end()) return it->second;
  const std::uint32_t id = t.count.load(std::memory_order_relaxed);
  if (id >= kMaxKeys) return 0;  // table full: shared overflow key
  std::memcpy(t.names[id], truncated.c_str(), truncated.size() + 1);
  t.count.store(id + 1, std::memory_order_release);
  t.index.emplace(std::move(truncated), id);
  return id;
}

const char* flight_key_name(std::uint32_t id) {
  KeyTable& t = key_table();
  const std::uint32_t n = t.count.load(std::memory_order_acquire);
  if (id >= n) return "?";
  return t.names[id];
}

// ---- rings ----------------------------------------------------------------

void FlightRing::set_name(const char* n) {
  if (n == nullptr) return;
  std::size_t i = 0;
  for (; i + 1 < sizeof(name_) && n[i] != '\0'; ++i) name_[i] = n[i];
  name_[i] = '\0';
}

// Lock-free atomics are what make a slot readable from a signal handler.
static_assert(std::atomic<double>::is_always_lock_free &&
                  std::atomic<std::uint64_t>::is_always_lock_free,
              "flight slots must be lock-free atomics");

void FlightRing::push(const FlightEvent& e) {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[h & (kCapacity - 1)];
  // Seqlock write: odd while torn, even (2*(h+1)) once published. Readers
  // that see an odd value or a changed value skip the slot.
  s.seq.store(2 * h + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.t_ns.store(e.t_ns, std::memory_order_relaxed);
  s.value.store(e.value, std::memory_order_relaxed);
  s.req.store(e.req, std::memory_order_relaxed);
  s.key.store(e.key, std::memory_order_relaxed);
  s.kind.store(e.kind, std::memory_order_relaxed);
  s.seq.store(2 * (h + 1), std::memory_order_release);
  head_.store(h + 1, std::memory_order_release);
}

bool FlightRing::read_slot(std::uint64_t i, FlightEvent& e) const {
  const Slot& s = slots_[i & (kCapacity - 1)];
  const std::uint64_t seq0 = s.seq.load(std::memory_order_acquire);
  if (seq0 != 2 * (i + 1)) return false;  // torn, overwritten or unwritten
  e.t_ns = s.t_ns.load(std::memory_order_relaxed);
  e.value = s.value.load(std::memory_order_relaxed);
  e.req = s.req.load(std::memory_order_relaxed);
  e.key = s.key.load(std::memory_order_relaxed);
  e.kind = s.kind.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  return s.seq.load(std::memory_order_relaxed) == seq0;
}

void FlightRing::reset_for_test() {
  head_.store(0, std::memory_order_release);
  for (std::size_t i = 0; i < kCapacity; ++i)
    slots_[i].seq.store(0, std::memory_order_release);
}

// ---- registry -------------------------------------------------------------
//
// Fixed array of ring pointers. Rings are allocated once (cold) and
// intentionally never freed: a signal handler must be able to walk the
// registry at any moment without coordinating with thread exit. An exiting
// thread releases its ring instead, and a later thread claims a released
// slot before growing the registry — so churn (pool rebuilds, short-lived
// clients) doesn't exhaust the table; only more than kFlightMaxRings *live*
// threads loses recording on the excess ones (counted in lost_threads,
// visible in bundles). A released ring's events stay readable until the
// slot is reclaimed and overwritten.

namespace {

std::atomic<FlightRing*> g_rings[kFlightMaxRings];
std::atomic<int> g_nrings{0};
std::atomic<int> g_lost_threads{0};
std::atomic<std::uint64_t> g_steps{0};

FlightRing* make_ring(const char* name) {
  const int scan = flight_ring_count();
  for (int i = 0; i < scan; ++i) {
    FlightRing* r = g_rings[i].load(std::memory_order_acquire);
    if (r != nullptr && r->try_claim()) {
      r->set_name(name);
      return r;
    }
  }
  const int slot = g_nrings.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kFlightMaxRings) {
    g_nrings.store(kFlightMaxRings, std::memory_order_relaxed);
    g_lost_threads.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  FlightRing* r = new FlightRing();  // never freed (see registry comment)
  r->set_name(name);
  g_rings[slot].store(r, std::memory_order_release);
  return r;
}

struct RingTls {
  FlightRing* ring = nullptr;  // nullptr until registered; may stay null
  bool tried = false;          // registry full: don't retry every event
  ~RingTls() {
    if (ring != nullptr) ring->release();  // slot reusable by a new thread
  }
};
thread_local RingTls t_ring;

FlightRing* ring_for_thread(const char* name) {
  RingTls& tls = t_ring;
  if (tls.ring == nullptr && !tls.tried) {
    tls.tried = true;
    tls.ring = make_ring(name);
  }
  if (name != nullptr && tls.ring != nullptr) tls.ring->set_name(name);
  return tls.ring;
}

}  // namespace

int flight_ring_count() {
  const int n = g_nrings.load(std::memory_order_acquire);
  return n < kFlightMaxRings ? n : kFlightMaxRings;
}

const FlightRing* flight_ring(int i) {
  return g_rings[i].load(std::memory_order_acquire);
}

void flight_record(FlightKind kind, std::uint32_t key, double value) {
  FlightRing* r = ring_for_thread(nullptr);
  if (r == nullptr) return;
  FlightEvent e;
  e.t_ns = mono_now_ns();
  e.value = value;
  e.req = current_request();
  e.key = key;
  e.kind = kind;
  r->push(e);
  if (kind == FlightKind::kStep)
    g_steps.fetch_add(1, std::memory_order_relaxed);
}

void flight_register_thread(const char* name) { ring_for_thread(name); }

// ---- active request table -------------------------------------------------

namespace {

constexpr int kMaxActive = 256;
struct ActiveSlot {
  std::atomic<std::uint64_t> id{0};
  std::atomic<std::int64_t> start_ns{0};
};
ActiveSlot g_active[kMaxActive];

}  // namespace

int flight_request_begin(std::uint64_t id) {
  if (id == 0) return -1;
  const std::int64_t now = mono_now_ns();
  for (int i = 0; i < kMaxActive; ++i) {
    std::uint64_t expect = 0;
    if (g_active[i].id.compare_exchange_strong(expect, id,
                                               std::memory_order_acq_rel)) {
      g_active[i].start_ns.store(now, std::memory_order_release);
      return i;
    }
  }
  return -1;  // table full: request simply not listed in bundles
}

void flight_request_end(int slot) {
  if (slot < 0 || slot >= kMaxActive) return;
  g_active[slot].id.store(0, std::memory_order_release);
}

std::size_t flight_active_requests(FlightActiveRequest* out,
                                   std::size_t cap) {
  std::size_t n = 0;
  for (int i = 0; i < kMaxActive && n < cap; ++i) {
    const std::uint64_t id = g_active[i].id.load(std::memory_order_acquire);
    if (id == 0) continue;
    out[n].id = id;
    out[n].start_ns = g_active[i].start_ns.load(std::memory_order_acquire);
    ++n;
  }
  return n;
}

// ---- whole-recorder views -------------------------------------------------

FlightStats flight_stats() {
  FlightStats st;
  st.rings = flight_ring_count();
  for (int i = 0; i < st.rings; ++i) {
    const FlightRing* r = flight_ring(i);
    if (r == nullptr) continue;
    st.recorded += r->pushes();
    st.overwritten += r->overwritten();
  }
  st.steps = g_steps.load(std::memory_order_relaxed);
  st.lost_threads = g_lost_threads.load(std::memory_order_relaxed);
  return st;
}

std::uint64_t flight_dropped_total() {
  const FlightStats st = flight_stats();
  return st.overwritten + static_cast<std::uint64_t>(st.lost_threads);
}

std::size_t flight_collect(FlightTaggedEvent* out, std::size_t cap) {
  std::size_t n = 0;
  const int nrings = flight_ring_count();
  for (int i = 0; i < nrings; ++i) {
    const FlightRing* r = flight_ring(i);
    if (r == nullptr) continue;
    // Each ring's newest `cap` pushes, read slot by slot straight into the
    // merge: this runs on the 64 KiB signal stack, which a per-ring copy
    // of a full ring would fill.
    const std::uint64_t h = r->pushes();
    const std::uint64_t span = h < cap ? h : cap;
    FlightTaggedEvent te;
    te.thread = r->name();
    for (std::uint64_t j = h - span; j < h; ++j) {
      if (!r->read_slot(j, te.e)) continue;
      if (n < cap) {
        // Insertion sort by timestamp keeps the merged view oldest-first;
        // cap is ~100, so quadratic cost is fine for a crash path that
        // runs once.
        std::size_t k = n;
        while (k > 0 && out[k - 1].e.t_ns > te.e.t_ns) {
          out[k] = out[k - 1];
          --k;
        }
        out[k] = te;
        ++n;
      } else if (out[0].e.t_ns < te.e.t_ns) {
        // Full: evict the oldest, insert in order.
        std::size_t k = 0;
        while (k + 1 < n && out[k + 1].e.t_ns < te.e.t_ns) {
          out[k] = out[k + 1];
          ++k;
        }
        out[k] = te;
      }
    }
  }
  return n;
}

void flight_clear_for_test() {
  const int n = flight_ring_count();
  for (int i = 0; i < n; ++i) {
    FlightRing* r = g_rings[i].load(std::memory_order_acquire);
    if (r != nullptr) r->reset_for_test();
  }
  g_steps.store(0, std::memory_order_relaxed);
  g_lost_threads.store(0, std::memory_order_relaxed);
  for (int i = 0; i < kMaxActive; ++i)
    g_active[i].id.store(0, std::memory_order_release);
}

}  // namespace t2c::obs
