#include "xport/checkpoint.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "deploy/int_ops.h"
#include "deploy/passes.h"
#include "deploy/vit_ops.h"

namespace t2c {

namespace {

constexpr const char* kHeader = "T2C-DEPLOY-V1";

std::string escape_token(const std::string& s) {
  if (s.empty()) return "-";
  std::string out = s;
  for (char& c : out) {
    if (c == ' ' || c == '\n') c = '_';
  }
  return out;
}

/// Reads the text format field by field. Every count and tensor shape is
/// bounded by the bytes left in the file before anything is allocated, and
/// every error names the op and field it was reading.
class Reader {
 public:
  Reader(std::istream& is, std::int64_t file_bytes)
      : is_(is), file_bytes_(file_bytes) {}

  /// Prefix of every error message, e.g. "op #3 (IntConv2d)".
  void set_context(std::string ctx) { ctx_ = std::move(ctx); }

  template <class T>
  void read(const char* field, T& v) {
    if (!(is_ >> v)) bad(field, "is missing or malformed");
  }
  template <class T>
  T num(const char* field) {
    T v{};
    read(field, v);
    return v;
  }

  /// Length of a list of `field`: non-negative, and small enough that that
  /// many whitespace-separated values fit in the rest of the file.
  std::int64_t count(const char* field) {
    const auto n = num<std::int64_t>(field);
    if (n < 0) bad(field, "has a negative length " + std::to_string(n));
    if (n > max_values()) {
      bad(field, "length " + std::to_string(n) + " exceeds the " +
                     std::to_string(bytes_left()) + " bytes left in the file");
    }
    return n;
  }

  template <class T = std::int64_t>
  std::vector<T> vec(const char* field) {
    std::vector<T> v(static_cast<std::size_t>(count(field)));
    for (auto& x : v) x = num<T>(field);
    return v;
  }

  ITensor tensor(const char* field) {
    const auto rank = num<int>(field);
    if (rank < 1 || rank > 8) bad(field, "has rank " + std::to_string(rank));
    Shape shape(static_cast<std::size_t>(rank));
    std::int64_t numel = 1;
    for (auto& d : shape) {
      d = num<std::int64_t>(field);
      if (d < 0) bad(field, "has a negative dimension " + std::to_string(d));
      if (d > 0 && numel > max_values() / d) {
        bad(field, "shape holds more values than the " +
                       std::to_string(bytes_left()) +
                       " bytes left in the file");
      }
      numel *= d;
    }
    ITensor t(shape);
    for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = num<std::int64_t>(field);
    return t;
  }

  void keyword(const char* want) {
    std::string t;
    if (!(is_ >> t) || t != want) bad(want, "keyword expected");
  }

  [[noreturn]] void bad(const char* field, const std::string& what) const {
    fail("load_checkpoint: " + ctx_ + (ctx_.empty() ? "" : ": ") + field +
         " " + what);
  }

 private:
  std::int64_t bytes_left() const {
    const std::streamoff pos = is_.tellg();
    return pos < 0 ? 0 : file_bytes_ - pos;
  }
  /// n values need at least 2n - 1 bytes: a digit each plus separators.
  std::int64_t max_values() const { return (bytes_left() + 1) / 2; }

  std::istream& is_;
  std::int64_t file_bytes_;
  std::string ctx_;
};

std::unique_ptr<DeployOp> load_op(const std::string& kind, Reader& r) {
  if (kind == "MulQuant") {
    const auto lo = r.num<std::int64_t>("out_min");
    const auto hi = r.num<std::int64_t>("out_max");
    const auto layout = r.num<int>("layout");
    if (layout < 0 || layout > static_cast<int>(MqLayout::kLastDim)) {
      r.bad("layout", "is " + std::to_string(layout) + ", not 0, 1 or 2");
    }
    const auto bias_frac = r.num<int>("bias_frac");
    auto mul = r.vec("mul");
    auto bias = r.vec("bias");
    auto frac = r.vec<int>("frac_bits");
    return std::make_unique<MulQuantOp>(std::move(mul), std::move(bias),
                                        std::move(frac), lo, hi,
                                        static_cast<MqLayout>(layout),
                                        bias_frac);
  }
  if (kind == "IntConv2d") {
    ConvSpec spec;
    r.read("in_channels", spec.in_channels);
    r.read("out_channels", spec.out_channels);
    r.read("kernel", spec.kernel);
    r.read("stride", spec.stride);
    r.read("padding", spec.padding);
    r.read("groups", spec.groups);
    ITensor w = r.tensor("weight");
    return std::make_unique<IntConv2dOp>(std::move(w), spec);
  }
  if (kind == "IntLinear") {
    return std::make_unique<IntLinearOp>(r.tensor("weight"));
  }
  if (kind == "IntAdd") {
    const auto lo = r.num<std::int64_t>("out_min");
    const auto hi = r.num<std::int64_t>("out_max");
    return std::make_unique<IntAddOp>(lo, hi);
  }
  if (kind == "IntMaxPool2d") {
    const auto k = r.num<int>("kernel");
    const auto s = r.num<int>("stride");
    const auto p = r.num<int>("padding");
    return std::make_unique<IntMaxPool2dOp>(k, s, p);
  }
  if (kind == "IntGlobalAvgPool" || kind == "IntMeanPoolTokens") {
    const auto m = r.num<std::int64_t>("mul");
    const auto f = r.num<int>("frac_bits");
    const auto lo = r.num<std::int64_t>("out_min");
    const auto hi = r.num<std::int64_t>("out_max");
    if (kind == "IntGlobalAvgPool") {
      return std::make_unique<IntGlobalAvgPoolOp>(m, f, lo, hi);
    }
    return std::make_unique<IntMeanPoolTokensOp>(m, f, lo, hi);
  }
  if (kind == "Tokenize") {
    return std::make_unique<TokenizeOp>();
  }
  if (kind == "LutSoftmax") {
    const auto p_qmax = r.num<std::int64_t>("p_qmax");
    return std::make_unique<LutSoftmaxOp>(r.vec("lut"), p_qmax);
  }
  if (kind == "LutGelu") {
    const auto lo = r.num<std::int64_t>("in_min");
    const auto hi = r.num<std::int64_t>("in_max");
    const auto step = r.num<std::int64_t>("index_step");
    return std::make_unique<LutGeluOp>(r.vec("lut"), lo, hi, step);
  }
  if (kind == "IntLayerNorm") {
    const auto running = r.num<int>("running");
    const auto frac = r.num<int>("frac_bits");
    const auto lo = r.num<std::int64_t>("out_min");
    const auto hi = r.num<std::int64_t>("out_max");
    const auto mean = r.num<std::int64_t>("mean");
    const auto inv_sigma = r.num<std::int64_t>("inv_sigma");
    const auto stat_frac = r.num<int>("stat_frac");
    auto gamma = r.vec("gamma");
    auto beta = r.vec("beta");
    if (running != 0) {
      return std::make_unique<IntLayerNormOp>(std::move(gamma),
                                              std::move(beta), frac, lo, hi,
                                              mean, inv_sigma, stat_frac);
    }
    return std::make_unique<IntLayerNormOp>(std::move(gamma), std::move(beta),
                                            frac, lo, hi);
  }
  if (kind == "IntAttention") {
    IntAttentionParams p;
    r.read("heads", p.heads);
    r.read("frac_bits", p.frac_bits);
    r.read("bias_frac", p.bias_frac);
    r.read("stream_min", p.stream_min);
    r.read("stream_max", p.stream_max);
    r.read("logit_mul", p.logit_mul);
    r.read("p_qmax", p.p_qmax);
    r.read("ctx_mul", p.ctx_mul);
    r.read("ctx_min", p.ctx_min);
    r.read("ctx_max", p.ctx_max);
    r.read("out_min", p.out_min);
    r.read("out_max", p.out_max);
    p.wqkv = r.tensor("wqkv");
    p.qkv_mul = r.vec("qkv_mul");
    p.qkv_bias = r.vec("qkv_bias");
    p.softmax_lut = r.vec("softmax_lut");
    p.wproj = r.tensor("wproj");
    p.proj_mul = r.vec("proj_mul");
    p.proj_bias = r.vec("proj_bias");
    return std::make_unique<IntAttentionOp>(std::move(p));
  }
  r.bad("kind", "'" + kind + "' is unknown");
}

}  // namespace

void save_checkpoint(const DeployModel& dm, const std::string& path) {
  std::ofstream os(path);
  check(os.good(), "save_checkpoint: cannot open " + path);
  // Scales must survive the text round trip exactly — optimized graphs are
  // asserted bit-identical (and audit-identical) after save/load.
  os << std::setprecision(std::numeric_limits<float>::max_digits10);
  os << kHeader << '\n';
  os << "input " << dm.input_scale << ' ' << dm.input_zero << ' '
     << dm.input_qmin << ' ' << dm.input_qmax << '\n';
  os << "output " << dm.output_scale << ' ' << dm.output_id() << '\n';
  os << "ops " << dm.num_ops() << '\n';
  for (std::size_t i = 0; i < dm.num_ops(); ++i) {
    const DeployOp& op = dm.op(i);
    os << "op " << op.kind() << ' ' << escape_token(op.label) << ' '
       << op.inputs.size();
    for (int in : op.inputs) os << ' ' << in;
    os << '\n';
    op.save_params(os);
    const OpAuditInfo& a = dm.audit_of(i);
    if (!a.source.empty() || a.out_scale != 0.0F || a.qmin != 0 ||
        a.qmax != 0) {
      os << "audit " << escape_token(a.source) << ' ' << a.out_scale << ' '
         << a.qmin << ' ' << a.qmax << '\n';
    }
  }
  check(os.good(), "save_checkpoint: write failed for " + path);
}

DeployModel load_checkpoint(const std::string& path) {
  std::ifstream is(path);
  check(is.good(), "load_checkpoint: cannot open " + path);
  is.seekg(0, std::ios::end);
  Reader r(is, static_cast<std::int64_t>(is.tellg()));
  is.seekg(0);
  std::string tok;
  is >> tok;
  check(tok == kHeader, "load_checkpoint: bad header in " + path);

  DeployModel dm;
  r.keyword("input");
  r.read("input_scale", dm.input_scale);
  r.read("input_zero", dm.input_zero);
  r.read("input_qmin", dm.input_qmin);
  r.read("input_qmax", dm.input_qmax);
  r.keyword("output");
  r.read("output_scale", dm.output_scale);
  const auto out_id = r.num<int>("output id");
  r.keyword("ops");
  const std::int64_t n = r.count("ops");
  for (std::int64_t i = 0; i < n; ++i) {
    r.set_context("op #" + std::to_string(i));
    r.keyword("op");
    const auto kind = r.num<std::string>("kind");
    r.set_context("op #" + std::to_string(i) + " (" + kind + ")");
    const auto label = r.num<std::string>("label");
    // Range analysis and the kernels index inputs by position, so the
    // count must match the kind: IntAdd is the only binary op.
    const std::int64_t arity = kind == "IntAdd" ? 2 : 1;
    const auto nin = r.num<std::int64_t>("input count");
    if (nin != arity) {
      r.bad("input count", "is " + std::to_string(nin) + ", expected " +
                               std::to_string(arity));
    }
    std::vector<int> inputs(static_cast<std::size_t>(nin));
    for (auto& v : inputs) r.read("input", v);
    auto op = load_op(kind, r);
    op->inputs = std::move(inputs);
    op->label = label == "-" ? "" : label;
    const int id = dm.add_op(std::move(op));
    // Optional audit metadata line (absent in pre-audit checkpoints).
    const std::streampos pos = is.tellg();
    if (is >> tok && tok == "audit") {
      OpAuditInfo a;
      r.read("audit source", a.source);
      r.read("audit out_scale", a.out_scale);
      r.read("audit qmin", a.qmin);
      r.read("audit qmax", a.qmax);
      if (a.source == "-") a.source.clear();
      dm.set_audit(id, std::move(a));
    } else {
      is.clear();
      is.seekg(pos);
    }
  }
  r.set_context("");
  if (out_id < 0 || out_id > n) {
    r.bad("output id", std::to_string(out_id) + " names no value");
  }
  dm.set_output(out_id);
  // Kernel choice belongs to the loading host (its ISA tier and tuning
  // cache), so the file carries none: bind the solvers here, with the same
  // pass convert runs at opt level 2. The range proof keeps every narrow
  // kernel bit-identical, so this holds for files saved at any opt level.
  pass_select_solvers(dm);
  return dm;
}

}  // namespace t2c
