// Deploy benchmark: the path a hardware designer runs after export —
// load_checkpoint -> plan compile -> first inference -> steady state — and
// the export round trip itself. README.md in this directory explains the
// workloads and the metric -> layer -> workload map.
//
//   t2c_deploy_bench fixture --workload W --seed N --dir D
//   t2c_deploy_bench run --workload W --seed N --seconds S --trace 0|1
//                        --dir D [--trace-out FILE]
//
// `fixture` writes the seeded checkpoint, input pool and reference outputs
// of an inference workload into D; it is a separate process so that its
// float model and calibration never count toward the measured process's
// peak RSS. `run` measures one workload in a closed loop with one client,
// checks every output bit for bit against the reference, prints a report
// and ends stdout with one JSON line. With --trace 1 it measures the
// per-layer metrics instead, records spans around every call into the
// library, and writes them as a Chrome trace.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/parallel.h"
#include "deploy/exec_plan.h"
#include "deploy/int_ops.h"
#include "deploy/passes.h"
#include "fixture.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "xport/checkpoint.h"
#include "xport/writers.h"

namespace {

using namespace t2c;
namespace pb = perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetupReps = 7;
constexpr int kProbeReps = 3;
constexpr int kHexWordBits = 8;
constexpr double kWarmupSeconds = 0.5;
/// Block length of the alternating A/B probes in the traced run.
constexpr double kBlockSeconds = 0.25;
/// Pool size the speedup probe compares against 1 thread.
constexpr int kWideThreads = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

double median(std::vector<double> v) {
  check(!v.empty(), "median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Tail latency: the 90th percentile (nearest rank), or the highest
/// percentile with at least 10 samples beyond it when fewer than 100
/// operations ran. Percentiles beyond p90 swing between runs on a shared
/// host, where a handful of stalls decide them.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

Tail tail_latency(std::vector<double> v) {
  check(!v.empty(), "tail of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  constexpr std::size_t kBeyond = 10;
  if (n <= 2 * kBeyond) return {50.0, median(v), n / 2};
  const auto p90 = static_cast<std::size_t>(
                       std::ceil(0.9 * static_cast<double>(n))) - 1;
  const std::size_t idx = std::min(p90, n - 1 - kBeyond);
  return {100.0 * static_cast<double>(idx + 1) / static_cast<double>(n),
          v[idx], n - 1 - idx};
}

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are recorded from the
/// benchmark's own code around each call into a library layer; the layer is
/// the name's prefix before the first '.'. Spans of one operation share an
/// id. Self time is a span's duration minus the time its child spans cover.
class SpanRecorder {
 public:
  bool enabled() const { return on_; }
  void set_enabled(bool on) { on_ = on; }
  void set_op(std::int64_t op) { op_ = op; }

  std::size_t open(std::string name) {
    spans_.push_back({std::move(name), now_ns(), 0, 0, op_});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t idx) {
    Span& s = spans_[idx];
    s.dur_ns = now_ns() - s.start_ns;
    stack_.pop_back();
    if (!stack_.empty()) spans_[stack_.back()].child_ns += s.dur_ns;
  }

  /// Summed self time per layer, milliseconds.
  std::map<std::string, double> self_ms_by_layer() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      out[layer_of(s.name)] +=
          1e-6 * static_cast<double>(s.dur_ns - s.child_ns);
    }
    return out;
  }

  std::size_t size() const { return spans_.size(); }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream os(path);
    check(static_cast<bool>(os), "cannot write trace " + path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"op\":%lld}}",
                    1e-3 * static_cast<double>(s.start_ns - t0_ns_),
                    1e-3 * static_cast<double>(s.dur_ns),
                    static_cast<long long>(s.op));
      os << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name << "\",\"cat\":\""
         << layer_of(s.name) << "\"," << buf;
    }
    os << "]}\n";
    check(static_cast<bool>(os), "short write to " + path);
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::int64_t child_ns = 0;
    std::int64_t op = 0;
  };

  static std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('.'));
  }
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  bool on_ = false;
  std::int64_t op_ = 0;
  std::int64_t t0_ns_ = now_ns();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; free when the recorder is off.
class Scope {
 public:
  Scope(SpanRecorder& r, std::string_view name)
      : r_(r),
        idx_(r.enabled() ? static_cast<std::int64_t>(r.open(std::string(name)))
                         : -1) {}
  ~Scope() {
    if (idx_ >= 0) r_.close(static_cast<std::size_t>(idx_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& r_;
  std::int64_t idx_;
};

// ---- the measured process -------------------------------------------------

struct Args {
  std::string cmd;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

/// Wall times of one export round trip, milliseconds.
struct RoundTripTimes {
  double convert = 0, passes = 0, save = 0, hex = 0, load = 0, compile = 0,
         run = 0;
};

/// Empties `dir` for an export, so the round trip writes fresh files as an
/// export into a new output directory does. Rewriting files in place would
/// make ext4 flush them to disk on close (auto_da_alloc), and the round trip
/// would time the host's disk. Returns `dir`.
std::string fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Bytes of the regular files under `dir`.
std::int64_t dir_bytes(const std::string& dir) {
  std::int64_t bytes = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += static_cast<std::int64_t>(e.file_size());
  }
  return bytes;
}

/// One closed-loop pass: per-operation latencies.
struct LoopResult {
  std::vector<double> lat_ms;
  std::int64_t images = 0;
  double elapsed_s = 0.0;
};

class Bench {
 public:
  Bench(const pb::Workload& wl, const Args& a) : wl_(wl), a_(a) {}

  int run();

 private:
  // Set-up and the workload's operation.
  void load_inference_fixture();
  void build_roundtrip_fixture();
  double setup_once(RoundTripTimes& t);
  bool operation(std::int64_t i);
  bool roundtrip(std::int64_t image, const std::string& dir,
                 RoundTripTimes& t);
  std::int64_t images_per_op() const { return wl_.roundtrip ? 1 : wl_.batch; }
  /// Directory of round-trip operation i. Operations alternate between two,
  /// so the one not in use is emptied outside the timed span.
  std::string rt_dir(std::int64_t i) const {
    return a_.dir + "/rt" + std::to_string(i % 2);
  }
  /// Runs operations back to back for `seconds` (at least `min_ops`);
  /// elapsed_s sums the operations' timed spans.
  LoopResult loop(double seconds, std::int64_t min_ops = 1);
  /// Images per second of the operation on two sides of a switch, in short
  /// alternating blocks so host-speed drift hits both sides alike;
  /// set_side(0 or 1) runs before each block.
  std::array<double, 2> alternating(double seconds,
                                    const std::function<void(int)>& set_side);
  void set_threads(int n);

  // End-to-end and per-layer reports.
  void report_end_to_end(const std::vector<double>& setup_s,
                         const LoopResult& steady);
  void report_per_layer(const std::vector<RoundTripTimes>& setups);

  /// Checked operation counts: every set-up, warm-up and timed operation.
  void count(bool ok) {
    ++attempted_;
    failed_ += ok ? 0 : 1;
  }

  const pb::Workload& wl_;
  const Args& a_;
  SpanRecorder rec_;
  std::int64_t next_op_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;

  t2c::Tensor pool_;
  std::vector<t2c::Tensor> images_;         ///< one per pool image
  std::vector<t2c::ITensor> expected_int_;  ///< one row per pool image
  std::vector<t2c::Tensor> batches_;        ///< pool split into batches
  std::vector<t2c::Tensor> expected_f32_;   ///< one per batch
  std::int64_t checkpoint_bytes_ = 0;
  std::unique_ptr<Sequential> float_model_;  ///< round trips only
  DeployModel dm_;  ///< the loaded model the workload runs
  std::int64_t export_bytes_ = 0;
};

void Bench::set_threads(int n) {
  const Scope s(rec_, "parallel.set_max_threads");
  par::set_max_threads(n);
}

void Bench::load_inference_fixture() {
  pool_ = pb::read_tensor_f32(pb::pool_path(a_.dir));
  const t2c::ITensor exp_i = pb::read_tensor_i64(pb::expected_int_path(a_.dir));
  const t2c::Tensor exp_f = pb::read_tensor_f32(pb::expected_f32_path(a_.dir));
  checkpoint_bytes_ = static_cast<std::int64_t>(
      std::filesystem::file_size(pb::checkpoint_path(a_.dir)));
  check(pool_.size(0) == pb::kPoolImages && exp_i.size(0) == pb::kPoolImages &&
            exp_f.size(0) == pb::kPoolImages,
        "fixture: pool and reference sizes disagree");
  for (std::int64_t i = 0; i < pb::kPoolImages; ++i) {
    images_.push_back(pb::rows(pool_, i, 1));
    expected_int_.push_back(pb::rows(exp_i, i, 1));
  }
  for (std::int64_t b = 0; b < pb::kPoolImages / wl_.batch; ++b) {
    batches_.push_back(pb::rows(pool_, b * wl_.batch, wl_.batch));
    expected_f32_.push_back(pb::rows(exp_f, b * wl_.batch, wl_.batch));
  }
}

/// The round-trip workload converts in process, so its fixture (and the
/// reference outputs of the in-memory converted model) is built here.
void Bench::build_roundtrip_fixture() {
  float_model_ = pb::make_calibrated_model(wl_.model, a_.seed);
  pool_ = pb::make_input_pool(a_.seed);
  const DeployModel ref =
      T2CConverter(pb::convert_config(2)).convert(*float_model_);
  const t2c::ITensor exp_i = pb::reference_logits(ref, pool_);
  for (std::int64_t i = 0; i < pb::kPoolImages; ++i) {
    images_.push_back(pb::rows(pool_, i, 1));
    expected_int_.push_back(pb::rows(exp_i, i, 1));
  }
}

/// One export round trip of the calibrated model into the empty directory
/// `dir` (see fresh_dir): convert at opt level 0, the default pass pipeline,
/// save_checkpoint, export_hex_images, load_checkpoint, plan compile and one
/// run_int on pool image `image`, checked against the reference. Leaves the
/// loaded model in dm_.
bool Bench::roundtrip(std::int64_t image, const std::string& dir,
                      RoundTripTimes& t) {
  DeployModel dm;
  auto t0 = Clock::now();
  {
    const Scope s(rec_, "fusion.convert");
    dm = T2CConverter(pb::convert_config(0)).convert(*float_model_);
  }
  t.convert = ms_since(t0);
  t0 = Clock::now();
  {
    const Scope s(rec_, "deploy.optimize_deploy_graph");
    optimize_deploy_graph(dm, 2);
  }
  t.passes = ms_since(t0);
  const std::string ckpt = dir + "/model.t2c";
  t0 = Clock::now();
  {
    const Scope s(rec_, "xport.save_checkpoint");
    save_checkpoint(dm, ckpt);
  }
  t.save = ms_since(t0);
  t0 = Clock::now();
  {
    const Scope s(rec_, "xport.export_hex_images");
    (void)export_hex_images(dm, dir + "/hex", kHexWordBits);
  }
  t.hex = ms_since(t0);
  t0 = Clock::now();
  {
    const Scope s(rec_, "xport.load_checkpoint");
    dm_ = load_checkpoint(ckpt);
  }
  t.load = ms_since(t0);
  t0 = Clock::now();
  {
    const Scope s(rec_, "deploy.plan");
    (void)dm_.plan();
  }
  t.compile = ms_since(t0);
  t2c::ITensor y;
  t0 = Clock::now();
  {
    const Scope s(rec_, "deploy.run_int");
    y = dm_.run_int(
        dm_.quantize_input(images_[static_cast<std::size_t>(image)]));
  }
  t.run = ms_since(t0);
  return pb::same_bits(y, expected_int_[static_cast<std::size_t>(image)]);
}

/// One set-up: load the checkpoint, compile the plan, run the first batch
/// (inference), or one cold round trip into a fresh directory.
double Bench::setup_once(RoundTripTimes& t) {
  rec_.set_op(++next_op_);
  const std::string dir =
      wl_.roundtrip ? fresh_dir(a_.dir + "/setup" + std::to_string(next_op_))
                    : std::string();
  const Scope s(rec_, "bench.setup");
  const auto t0 = Clock::now();
  bool ok = false;
  try {
    if (wl_.roundtrip) {
      ok = roundtrip(0, dir, t);
    } else {
      auto t1 = Clock::now();
      {
        const Scope l(rec_, "xport.load_checkpoint");
        dm_ = load_checkpoint(pb::checkpoint_path(a_.dir));
      }
      t.load = ms_since(t1);
      t1 = Clock::now();
      {
        const Scope p(rec_, "deploy.plan");
        (void)dm_.plan();
      }
      t.compile = ms_since(t1);
      t1 = Clock::now();
      t2c::Tensor y;
      {
        const Scope r(rec_, "deploy.run");
        y = dm_.run(batches_[0]);
      }
      t.run = ms_since(t1);
      ok = pb::same_bits(y, expected_f32_[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "setup failed: %s\n", e.what());
  }
  count(ok);
  return seconds_since(t0);
}

bool Bench::operation(std::int64_t i) {
  rec_.set_op(++next_op_);
  const Scope s(rec_, "bench.op");
  try {
    if (wl_.roundtrip) {
      RoundTripTimes t;
      return roundtrip(i % pb::kPoolImages, rt_dir(i), t);
    }
    const std::size_t b = static_cast<std::size_t>(
        i % static_cast<std::int64_t>(batches_.size()));
    t2c::Tensor y;
    {
      const Scope r(rec_, "deploy.run");
      y = dm_.run(batches_[b]);
    }
    return pb::same_bits(y, expected_f32_[b]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "operation %lld failed: %s\n",
                 static_cast<long long>(i), e.what());
    return false;
  }
}

LoopResult Bench::loop(double seconds, std::int64_t min_ops) {
  LoopResult r;
  if (wl_.roundtrip) fresh_dir(rt_dir(0));
  const auto start = Clock::now();
  for (std::int64_t i = 0;
       i < min_ops || seconds_since(start) < seconds; ++i) {
    const auto t0 = Clock::now();
    const bool ok = operation(i);
    const double ms = ms_since(t0);
    r.lat_ms.push_back(ms);
    r.elapsed_s += 1e-3 * ms;
    r.images += images_per_op();
    count(ok);
    // Outside the timed span: size what this round trip wrote, and empty
    // the directory the next one writes into.
    if (wl_.roundtrip) {
      export_bytes_ = dir_bytes(rt_dir(i));
      fresh_dir(rt_dir(i + 1));
    }
  }
  return r;
}

std::array<double, 2> Bench::alternating(
    double seconds, const std::function<void(int)>& set_side) {
  const int blocks =
      2 * std::max(2, static_cast<int>(seconds / (2 * kBlockSeconds)));
  std::array<double, 2> images{}, secs{};
  for (int b = 0; b < blocks; ++b) {
    set_side(b % 2);
    const LoopResult r = loop(seconds / blocks);
    images[b % 2] += static_cast<double>(r.images);
    secs[b % 2] += r.elapsed_s;
  }
  return {images[0] / secs[0], images[1] / secs[1]};
}

std::int64_t peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::int64_t>(ru.ru_maxrss);  // KiB on Linux
}

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void Bench::report_end_to_end(const std::vector<double>& setup_s,
                              const LoopResult& steady) {
  const double per_s = static_cast<double>(steady.images) / steady.elapsed_s;
  const Tail tail = tail_latency(steady.lat_ms);
  const DeployModel::MemoryStats mem = dm_.memory_stats();
  const double error_frac =
      static_cast<double>(failed_) / static_cast<double>(attempted_);
  const double export_kib =
      static_cast<double>(wl_.roundtrip ? export_bytes_ : checkpoint_bytes_) /
      1024.0;
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"images_per_s", per_s, "1/s"},
      {"latency_p50_ms", median(steady.lat_ms), "ms"},
      {"latency_tail_ms", tail.value, "ms"},
      {"act_peak_kib", static_cast<double>(mem.peak_bytes) / 1024.0, "KiB"},
      {"peak_rss_mib", static_cast<double>(peak_rss_kib()) / 1024.0, "MiB"},
      {"export_kib", export_kib, "KiB"},
  };
  std::printf("\nend-to-end (%zu timed operations over %.2f s, closed loop, "
              "1 client)\n",
              steady.lat_ms.size(), steady.elapsed_s);
  std::printf("  %-16s %14.6f s     median of %zu set-ups: %s\n", "setup_s",
              metrics[0].value, setup_s.size(),
              wl_.roundtrip ? "cold round trip into a fresh directory"
                            : "load_checkpoint + plan compile + first run");
  std::printf("  %-16s %14.4f 1/s   images completed / steady-state time\n",
              "images_per_s", per_s);
  if (wl_.roundtrip) {
    std::printf("  %-16s %14.4f 1/s   round trips completed / steady-state "
                "time\n",
                "exports_per_s", per_s);
  } else {
    std::printf("  %-16s %14s       (export-roundtrip only)\n",
                "exports_per_s", "n/a");
  }
  std::printf("  %-16s %14.4f ms\n", "latency_p50_ms", metrics[2].value);
  std::printf("  %-16s %14.4f ms    p%.2f, %zu samples beyond, n=%zu\n",
              "latency_tail_ms", tail.value, tail.pct, tail.beyond,
              steady.lat_ms.size());
  std::printf("  %-16s %14.3f KiB   memory_stats().peak_bytes (exact)\n",
              "act_peak_kib", metrics[4].value);
  std::printf("  %-16s %14.3f MiB   process max RSS\n", "peak_rss_mib",
              metrics[5].value);
  std::printf("  %-16s %14.3f KiB   %s (exact)\n", "export_kib", export_kib,
              wl_.roundtrip ? "checkpoint + hex images written per round trip"
                            : "checkpoint the workload loads");
  std::printf("  %-16s %14.6f      %lld failed of %lld checked operations\n",
              "error_frac", error_frac, static_cast<long long>(failed_),
              static_cast<long long>(attempted_));
  print_result(failed_ == 0, attempted_, failed_, metrics);
}

// ---- step replay ----------------------------------------------------------

/// Per-step timing of one run_int, replayed from outside the executor: the
/// plan's steps in order, each through the public DeployOp::run_packed /
/// run_into with the plan's packed weights and fused MulQuant, exactly as
/// ExecutionPlan::execute dispatches them.
struct Replay {
  t2c::ITensor out;
  std::vector<double> step_ms;
  std::vector<obs::OpCost> cost;
};

Replay replay_once(const DeployModel& dm, const t2c::ITensor& input,
                   SpanRecorder& rec) {
  const ExecutionPlan& plan = dm.plan();
  const auto& steps = plan.steps();
  std::vector<std::size_t> order;
  for (const ExecutionPlan::Step& st : steps) {
    order.push_back(static_cast<std::size_t>(st.op));
  }
  Replay r;
  r.out = pb::walk_graph(
      dm, order, input,
      [&](std::size_t k, const std::vector<const t2c::ITensor*>& ins,
          t2c::ITensor& out) {
        const ExecutionPlan::Step& st = steps[k];
        const DeployOp& op = dm.op(order[k]);
        const PackedWeights* pw = plan.packed()[order[k]].get();
        const MulQuantOp* fmq =
            st.fuse_mq >= 0 ? dynamic_cast<const MulQuantOp*>(&dm.op(
                                  static_cast<std::size_t>(st.fuse_mq)))
                            : nullptr;
        {
          const Scope s(rec, "deploy.op." + op.kind());
          const auto t0 = Clock::now();
          // A fused step's MulQuant was already applied by its producer's
          // epilogue; the walk passes the input through.
          if (!st.fused && pw != nullptr) {
            op.run_packed(ins, pw, fmq, out);
          } else if (!st.fused) {
            op.run_into(ins, out);
          }
          r.step_ms.push_back(ms_since(t0));
        }
        r.cost.push_back(st.fused ? obs::OpCost{} : op.cost(ins, out));
        return !st.fused;
      });
  return r;
}

// ---- per-layer report -------------------------------------------------------

void Bench::report_per_layer(const std::vector<RoundTripTimes>& setups) {
  const double budget = a_.seconds;
  const DeployModel& dm = dm_;
  const std::size_t nq = wl_.roundtrip ? images_.size() : batches_.size();
  const auto input_of = [&](std::size_t i) -> const t2c::Tensor& {
    return wl_.roundtrip ? images_[i % nq] : batches_[i % nq];
  };
  std::vector<t2c::ITensor> qs;
  for (std::size_t i = 0; i < nq; ++i) {
    qs.push_back(dm.quantize_input(input_of(i)));
  }

  // Pipeline layers: round trips on the calibrated model (for inference
  // workloads it is rebuilt here from the seed; set-up is not measured).
  std::vector<RoundTripTimes> rts;
  if (wl_.roundtrip) {
    rts = setups;
  } else {
    {
      const Scope s(rec_, "bench.fixture");
      float_model_ = pb::make_calibrated_model(wl_.model, a_.seed);
    }
    DeployModel keep = std::move(dm_);
    for (int k = 0; k < kProbeReps; ++k) {
      rec_.set_op(++next_op_);
      const Scope s(rec_, "bench.probe");
      RoundTripTimes t;
      count(roundtrip(k, fresh_dir(a_.dir + "/probe"), t));
      rts.push_back(t);
    }
    dm_ = std::move(keep);
  }
  const auto med = [](const std::vector<RoundTripTimes>& v,
                      double RoundTripTimes::*f) {
    std::vector<double> x;
    for (const RoundTripTimes& t : v) x.push_back(t.*f);
    return median(x);
  };

  // Step replay paired with run_int and run on the same input, so the
  // per-iteration differences (executor overhead, float I/O boundary)
  // cancel host-speed drift. Every replay must reproduce run_int. The
  // round-trip operations below replace dm_, so nothing here may keep a
  // reference into this model's plan past the aggregation.
  const auto& steps = dm.plan().steps();
  const std::size_t nsteps = steps.size();
  std::vector<std::vector<double>> step_ms(steps.size());
  std::vector<obs::OpCost> step_cost;
  std::vector<double> run_int_ms, io_ms, overhead_ms;
  {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < 3 || seconds_since(start) < 0.3 * budget;
         ++i) {
      rec_.set_op(++next_op_);
      const Scope s(rec_, "bench.replay");
      const std::size_t k = i % nq;
      t2c::ITensor want;
      auto t0 = Clock::now();
      {
        const Scope r(rec_, "deploy.run_int");
        want = dm.run_int(qs[k]);
      }
      const double ri = ms_since(t0);
      t0 = Clock::now();
      {
        const Scope r(rec_, "deploy.run");
        (void)dm.run(input_of(k));
      }
      const double rr = ms_since(t0);
      const Replay r = replay_once(dm, qs[k], rec_);
      if (r.step_ms.size() != steps.size()) {
        throw Error("step replay ran " + std::to_string(r.step_ms.size()) +
                    " steps, the plan has " + std::to_string(steps.size()));
      }
      if (!pb::same_bits(r.out, want)) {
        throw Error("step replay output differs from run_int output");
      }
      double replayed = 0;
      for (std::size_t j = 0; j < steps.size(); ++j) {
        step_ms[j].push_back(r.step_ms[j]);
        replayed += r.step_ms[j];
      }
      step_cost = r.cost;
      run_int_ms.push_back(ri);
      io_ms.push_back(rr - ri);
      overhead_ms.push_back(ri - replayed);
    }
  }
  struct KindAgg {
    double ms = 0;
    std::int64_t flops = 0, bytes = 0;
    int steps = 0;
    double gflops() const {
      return ms > 0 ? 1e-6 * static_cast<double>(flops) / ms : 0.0;
    }
    double gbps() const {
      return ms > 0 ? 1e-6 * static_cast<double>(bytes) / ms : 0.0;
    }
  };
  std::map<std::string, KindAgg> kinds;
  double replay_ms = 0;
  std::int64_t noop_steps = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const double m = median(step_ms[i]);
    KindAgg& k = kinds[dm.op(static_cast<std::size_t>(steps[i].op)).kind()];
    k.ms += m;
    k.flops += step_cost[i].flops;
    k.bytes += step_cost[i].bytes_read + step_cost[i].bytes_written;
    ++k.steps;
    replay_ms += m;
    noop_steps += steps[i].fused ? 1 : 0;
  }

  // Tracing overhead: the workload's operation untraced against traced.
  const auto traced = alternating(0.2 * budget, [&](int side) {
    rec_.set_enabled(side == 1);
  });
  rec_.set_enabled(true);

  // Observability cost: run_int with metrics, telemetry and the profiler on
  // against library defaults, switching every run.
  std::vector<double> obs_ms[2];
  {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < 4 || seconds_since(start) < 0.15 * budget;
         ++i) {
      const bool on = i % 2 == 1;
      {
        const Scope s(rec_, "obs.set_enabled");
        obs::set_metrics_enabled(on);
        obs::set_telemetry_enabled(on);
        obs::set_profile_enabled(on);
      }
      const auto t0 = Clock::now();
      (void)dm.run_int(qs[i % nq]);
      obs_ms[on ? 1 : 0].push_back(ms_since(t0));
    }
  }
  {
    const Scope s(rec_, "obs.set_enabled");
    obs::set_metrics_enabled(false);
    obs::set_telemetry_enabled(false);
    obs::set_profile_enabled(false);
    obs::profiler().clear();
  }

  // Pool scaling: the workload's operation at 1 and kWideThreads threads,
  // then the program's pool.regions count per run_int at kWideThreads.
  const auto pool = alternating(0.2 * budget, [&](int side) {
    set_threads(side == 1 ? kWideThreads : 1);
  });
  double regions_per_run = 0;
  {
    set_threads(kWideThreads);
    const Scope s(rec_, "obs.metrics.counter");
    obs::set_metrics_enabled(true);
    obs::Counter& regions = obs::metrics().counter("pool.regions");
    const std::int64_t before = regions.value();
    constexpr int kRuns = 2;
    for (int i = 0; i < kRuns; ++i) (void)dm.run_int(qs[0]);
    regions_per_run = static_cast<double>(regions.value() - before) / kRuns;
    obs::set_metrics_enabled(false);
  }

  // The in-memory converted model, for comparison only: a deploying user
  // runs the checkpoint, so it is no workload, but it prices the loaded
  // checkpoint's kernel mix. The two models alternate run by run.
  std::string converted;
  if (!wl_.roundtrip) {
    const DeployModel cm =
        T2CConverter(pb::convert_config(2)).convert(*float_model_);
    converted = "kernel mix " + pb::kernel_mix(cm).summary + ";";
    for (const int threads : {1, kWideThreads}) {
      set_threads(threads);
      std::vector<double> ms[2];
      const auto start = Clock::now();
      for (std::size_t i = 0; i < 4 || seconds_since(start) < 0.05 * budget;
           ++i) {
        const auto t0 = Clock::now();
        (void)(i % 2 == 0 ? cm : dm).run_int(qs[(i / 2) % nq]);
        ms[i % 2].push_back(ms_since(t0));
      }
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    " run_int p50 at %d thread(s) %.4f ms (loaded %.4f ms)",
                    threads, median(ms[0]), median(ms[1]));
      converted += buf;
    }
  }
  set_threads(1);

  const pb::KernelMix mix = pb::kernel_mix(dm);
  const DeployModel::MemoryStats mem = dm.memory_stats();
  std::vector<double> setup_load, setup_compile, setup_run;
  for (const RoundTripTimes& t : setups) {
    setup_load.push_back(t.load);
    setup_compile.push_back(t.compile);
    setup_run.push_back(t.run);
  }

  std::vector<Metric> m = {
      {"xport.load_ms", median(setup_load), "ms"},
      {"xport.save_ms", med(rts, &RoundTripTimes::save), "ms"},
      {"xport.hex_ms", med(rts, &RoundTripTimes::hex), "ms"},
      {"fusion.convert_ms", med(rts, &RoundTripTimes::convert), "ms"},
      {"deploy.passes_ms", med(rts, &RoundTripTimes::passes), "ms"},
      {"deploy.compile_ms", median(setup_compile), "ms"},
      {"deploy.first_run_ms", median(setup_run), "ms"},
      {"deploy.int8_share",
       mix.gemm_steps == 0 ? 0.0
                           : static_cast<double>(mix.narrow_steps) /
                                 static_cast<double>(mix.gemm_steps),
       "ratio"},
      {"deploy.steps", static_cast<double>(nsteps), "count"},
      {"deploy.noop_steps", static_cast<double>(noop_steps), "count"},
      {"deploy.exec_overhead_ms", median(overhead_ms), "ms"},
      {"deploy.io_ms", median(io_ms), "ms"},
      {"deploy.arena_kib", static_cast<double>(mem.arena_bytes) / 1024.0,
       "KiB"},
      {"deploy.packed_kib",
       static_cast<double>(dm.plan().packed_bytes()) / 1024.0, "KiB"},
  };
  // Kinds present in both models; the report below prints every kind.
  for (const char* kind : {"IntConv2d", "IntLinear", "MulQuant", "IntAdd"}) {
    const KindAgg& k = kinds[kind];
    const std::string p = std::string("step.") + kind;
    m.push_back({p + ".ms", k.ms, "ms"});
    m.push_back({p + ".gflops", k.gflops(), "GFLOP/s"});
    m.push_back({p + ".gbps", k.gbps(), "GB/s"});
  }
  m.push_back({"parallel.speedup", pool[1] / pool[0], "x"});
  m.push_back({"parallel.regions_per_run", regions_per_run, "count"});
  m.push_back({"obs.overhead_frac", median(obs_ms[1]) / median(obs_ms[0]) - 1.0,
               "ratio"});
  m.push_back({"trace.overhead_frac", traced[0] / traced[1] - 1.0, "ratio"});

  std::printf("\nper-layer (traced run)\n");
  std::printf("  kernel mix of the loaded model (no passes re-run after "
              "load): %s; narrow %d of %d GEMM/attention steps\n",
              mix.summary.c_str(), mix.narrow_steps, mix.gemm_steps);
  for (const Metric& x : m) {
    std::printf("  %-26s %14.6f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("  step replay: %zu steps, output equals run_int; run_int p50 "
              "%.4f ms, sum of step medians %.4f ms\n",
              nsteps, median(run_int_ms), replay_ms);
  std::printf("  per op kind (replayed self time per run_int; GB/s from "
              "bytes computed by DeployOp::cost, 8-byte lanes):\n");
  for (const auto& [kind, k] : kinds) {
    std::printf("    step.%-18s steps %3d  %10.4f ms  %9.3f GFLOP/s  "
                "%9.3f GB/s\n",
                kind.c_str(), k.steps, k.ms, k.gflops(), k.gbps());
  }
  if (!converted.empty()) {
    std::printf("  converted model (comparison only, not a workload): %s\n",
                converted.c_str());
  }
  std::printf("  parallel.regions_per_run is the program's own pool.regions "
              "counter per run_int at %d threads\n",
              kWideThreads);
  std::printf("  parallel.speedup: %.4f images/s at %d threads vs %.4f at 1\n",
              pool[1], kWideThreads, pool[0]);
  std::printf("  tracing overhead: traced %.4f images/s vs untraced %.4f "
              "images/s (trace.overhead_frac)\n",
              traced[1], traced[0]);
  std::printf("  self time per layer over the traced run (%zu spans):\n",
              rec_.size());
  for (const auto& [layer, ms] : rec_.self_ms_by_layer()) {
    std::printf("    %-10s %12.3f ms\n", layer.c_str(), ms);
  }
  if (!a_.trace_out.empty()) {
    rec_.write_chrome_trace(a_.trace_out);
    std::printf("  chrome trace: %s\n", a_.trace_out.c_str());
  }
  print_result(failed_ == 0, attempted_, failed_, m);
}

int Bench::run() {
  std::printf("workload %s: %s, batch %lld, 1 pool thread, closed loop, "
              "1 client, seed %llu\n",
              wl_.name.c_str(), pb::model_name(wl_.model),
              static_cast<long long>(wl_.batch),
              static_cast<unsigned long long>(a_.seed));
  set_threads(1);
  if (wl_.roundtrip) {
    build_roundtrip_fixture();
  } else {
    load_inference_fixture();
  }
  std::printf("fixture: %lld pool images, pool_fnv1a=%016llx\n",
              static_cast<long long>(pool_.size(0)),
              static_cast<unsigned long long>(pb::fnv1a(
                  pool_.data(),
                  static_cast<std::size_t>(pool_.numel()) * sizeof(float))));
  std::fflush(stdout);

  rec_.set_enabled(a_.trace);
  std::vector<double> setup_s;
  std::vector<RoundTripTimes> setups;
  const auto setup = [&] {
    RoundTripTimes t;
    setup_s.push_back(setup_once(t));
    setups.push_back(t);
  };
  setup();
  const pb::KernelMix mix = pb::kernel_mix(dm_);
  std::printf("kernel mix of the loaded checkpoint: %s\n", mix.summary.c_str());
  rec_.set_enabled(false);
  (void)loop(kWarmupSeconds, 2);
  rec_.set_enabled(a_.trace);

  if (a_.trace) {
    while (setups.size() < kSetupReps) setup();
    report_per_layer(setups);
    return 0;
  }
  // Host speed drifts over seconds, so the set-ups are spread evenly over
  // the steady-state period instead of run back to back; each one replaces
  // the model the following segment runs. Set-up time, and one untimed
  // operation after it, are excluded from the steady-state figures.
  LoopResult steady;
  for (std::size_t seg = 0; seg < kSetupReps; ++seg) {
    if (seg > 0) {
      setup();
      (void)loop(0.0);
    }
    const LoopResult r = loop(a_.seconds / static_cast<double>(kSetupReps));
    steady.lat_ms.insert(steady.lat_ms.end(), r.lat_ms.begin(), r.lat_ms.end());
    steady.images += r.images;
    steady.elapsed_s += r.elapsed_s;
  }
  report_end_to_end(setup_s, steady);
  return 0;
}

Args parse(int argc, char** argv) {
  Args a;
  check(argc >= 2, "usage: t2c_deploy_bench fixture|run --workload W --seed N "
                   "--dir D [--seconds S --trace 0|1 --trace-out FILE]");
  a.cmd = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string k = argv[i];
    check(i + 1 < argc, "missing value for " + k);
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--dir") {
      a.dir = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      throw Error("unknown argument " + k);
    }
  }
  check(!a.dir.empty(), "--dir is required");
  check(a.seconds > 0, "--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    const pb::Workload& wl = pb::find_workload(a.workload);
    if (a.cmd == "fixture") {
      check(!wl.roundtrip, "the round-trip workload builds its own fixture");
      par::set_max_threads(1);
      pb::build_fixture(wl.model, a.seed, a.dir);
      return 0;
    }
    check(a.cmd == "run", "unknown command " + a.cmd);
    Bench b(wl, a);
    return b.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "t2c_deploy_bench: %s\n", e.what());
    return 1;
  }
}
