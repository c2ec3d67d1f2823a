#include "fixture.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

#include "data/loader.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "quant/ptq.h"
#include "util/check.h"
#include "xport/checkpoint.h"

namespace perfbench {

using t2c::check;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"cnn-b1", ModelKind::kResnet20, 1, false},
      {"cnn-b32", ModelKind::kResnet20, 32, false},
      {"vit-b8", ModelKind::kVit, 8, false},
      {"export-roundtrip", ModelKind::kResnet20, 1, true},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw t2c::Error("unknown workload '" + name + "'");
}

const char* model_name(ModelKind m) {
  return m == ModelKind::kResnet20 ? "resnet20" : "vit";
}

namespace {

t2c::DatasetSpec fixture_spec(std::uint64_t seed) {
  t2c::DatasetSpec s = t2c::cifar10_sim();
  s.height = s.width = kImageSize;
  s.train_size = 64;  // calibration images
  s.test_size = static_cast<int>(kPoolImages);
  s.seed = seed;
  return s;
}

}  // namespace

std::unique_ptr<t2c::Sequential> make_calibrated_model(ModelKind m,
                                                       std::uint64_t seed) {
  const t2c::SyntheticImageDataset data(fixture_spec(seed));
  t2c::ModelConfig cfg;
  cfg.num_classes = data.spec().classes;
  cfg.seed = seed;
  std::unique_ptr<t2c::Sequential> model = m == ModelKind::kResnet20
                                               ? t2c::make_resnet20(cfg)
                                               : t2c::make_vit(cfg);
  t2c::DataLoader loader(data.train_images(), data.train_labels(), 16,
                         /*shuffle=*/false, seed);
  t2c::calibrate(*model, loader, loader.batches_per_epoch());
  return model;
}

t2c::Tensor make_input_pool(std::uint64_t seed) {
  const t2c::SyntheticImageDataset data(fixture_spec(seed));
  return data.test_images();
}

t2c::ConvertConfig convert_config(int opt_level) {
  t2c::ConvertConfig cfg;
  cfg.input_shape = {3, kImageSize, kImageSize};
  cfg.opt_level = opt_level;
  return cfg;
}

t2c::ITensor walk_graph(const t2c::DeployModel& dm,
                        const std::vector<std::size_t>& order,
                        t2c::ITensor input, const StepFn& step) {
  // Last use of every value, so dead intermediates are freed as the walk
  // goes.
  std::vector<std::size_t> last_use(static_cast<std::size_t>(dm.num_values()),
                                    0);
  for (std::size_t i = 0; i < dm.num_ops(); ++i) {
    for (const int v : dm.op(i).inputs) {
      last_use[static_cast<std::size_t>(v)] = i;
    }
  }
  std::vector<t2c::ITensor> vals(static_cast<std::size_t>(dm.num_values()));
  vals[0] = std::move(input);
  std::vector<const t2c::ITensor*> ins;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const t2c::DeployOp& op = dm.op(i);
    ins.clear();
    for (const int v : op.inputs) {
      ins.push_back(&vals[static_cast<std::size_t>(v)]);
    }
    t2c::ITensor out;
    if (!step(k, ins, out)) {
      out = std::move(vals[static_cast<std::size_t>(op.inputs[0])]);
    }
    vals[i + 1] = std::move(out);
    for (const int v : op.inputs) {
      if (last_use[static_cast<std::size_t>(v)] == i && v != dm.output_id()) {
        vals[static_cast<std::size_t>(v)] = t2c::ITensor();
      }
    }
  }
  return std::move(vals[static_cast<std::size_t>(dm.output_id())]);
}

t2c::ITensor reference_logits(const t2c::DeployModel& dm,
                              const t2c::Tensor& images) {
  std::vector<std::size_t> order(dm.num_ops());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const StepFn step = [&](std::size_t k,
                          const std::vector<const t2c::ITensor*>& ins,
                          t2c::ITensor& out) {
    out = dm.op(k).run(ins);
    return true;
  };
  // Chunks bound the int64 im2col scratch of the reference convolutions.
  constexpr std::int64_t kChunk = 8;
  const std::int64_t n = images.size(0);
  std::vector<std::int64_t> out;
  t2c::Shape out_shape;
  for (std::int64_t first = 0; first < n; first += kChunk) {
    const std::int64_t count = std::min(kChunk, n - first);
    const t2c::ITensor y = walk_graph(
        dm, order, dm.quantize_input(rows(images, first, count)), step);
    out_shape = y.shape();
    out.insert(out.end(), y.vec().begin(), y.vec().end());
  }
  out_shape[0] = n;
  return t2c::ITensor::from(std::move(out_shape), std::move(out));
}

t2c::Tensor dequantize_logits(const t2c::ITensor& logits, float scale) {
  t2c::Tensor out(logits.shape());
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    out[i] = static_cast<float>(logits[i]) * scale;
  }
  return out;
}

template <typename T>
bool same_bits(const t2c::TensorT<T>& a, const t2c::TensorT<T>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(T)) == 0;
}
template bool same_bits(const t2c::Tensor&, const t2c::Tensor&);
template bool same_bits(const t2c::ITensor&, const t2c::ITensor&);

namespace {

constexpr char kMagic[4] = {'P', 'B', 'T', '1'};

template <typename T>
void write_raw(const std::string& path, const t2c::TensorT<T>& t) {
  std::ofstream os(path, std::ios::binary);
  check(static_cast<bool>(os), "cannot open " + path + " for writing");
  const std::uint32_t elem = sizeof(T);
  const auto rank = static_cast<std::uint32_t>(t.rank());
  os.write(kMagic, sizeof(kMagic));
  os.write(reinterpret_cast<const char*>(&elem), sizeof(elem));
  os.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  os.write(reinterpret_cast<const char*>(t.shape().data()),
           static_cast<std::streamsize>(rank * sizeof(std::int64_t)));
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(T)));
  check(static_cast<bool>(os), "short write to " + path);
}

template <typename T>
t2c::TensorT<T> read_raw(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  check(static_cast<bool>(is), "cannot open " + path);
  char magic[4] = {};
  std::uint32_t elem = 0;
  std::uint32_t rank = 0;
  is.read(magic, sizeof(magic));
  is.read(reinterpret_cast<char*>(&elem), sizeof(elem));
  is.read(reinterpret_cast<char*>(&rank), sizeof(rank));
  check(static_cast<bool>(is) && std::memcmp(magic, kMagic, 4) == 0 &&
            elem == sizeof(T) && rank >= 1 && rank <= 8,
        path + ": not a tensor file of the expected type");
  t2c::Shape shape(rank);
  is.read(reinterpret_cast<char*>(shape.data()),
          static_cast<std::streamsize>(rank * sizeof(std::int64_t)));
  std::int64_t numel = 1;
  for (const std::int64_t d : shape) {
    check(static_cast<bool>(is) && d >= 0 && d <= (1 << 26),
          path + ": bad dimension");
    numel *= d;
    check(numel <= (1 << 26), path + ": tensor too large");
  }
  std::vector<T> data(static_cast<std::size_t>(numel));
  is.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(
              numel * static_cast<std::int64_t>(sizeof(T))));
  check(static_cast<bool>(is), path + ": truncated data");
  return t2c::TensorT<T>::from(std::move(shape), std::move(data));
}

}  // namespace

void write_tensor(const std::string& path, const t2c::Tensor& t) {
  write_raw(path, t);
}
void write_tensor(const std::string& path, const t2c::ITensor& t) {
  write_raw(path, t);
}
t2c::Tensor read_tensor_f32(const std::string& path) {
  return read_raw<float>(path);
}
t2c::ITensor read_tensor_i64(const std::string& path) {
  return read_raw<std::int64_t>(path);
}

std::string checkpoint_path(const std::string& dir) {
  return dir + "/model.t2c";
}
std::string pool_path(const std::string& dir) { return dir + "/pool.bin"; }
std::string expected_int_path(const std::string& dir) {
  return dir + "/expected_i64.bin";
}
std::string expected_f32_path(const std::string& dir) {
  return dir + "/expected_f32.bin";
}

void build_fixture(ModelKind model, std::uint64_t seed,
                   const std::string& dir) {
  std::filesystem::create_directories(dir);
  const auto float_model = make_calibrated_model(model, seed);
  const t2c::DeployModel dm =
      t2c::T2CConverter(convert_config(2)).convert(*float_model);
  t2c::save_checkpoint(dm, checkpoint_path(dir));
  const t2c::Tensor pool = make_input_pool(seed);
  const t2c::ITensor expected = reference_logits(dm, pool);
  write_tensor(pool_path(dir), pool);
  write_tensor(expected_int_path(dir), expected);
  write_tensor(expected_f32_path(dir),
               dequantize_logits(expected, dm.output_scale));
}

namespace {

bool is_gemm_kind(const std::string& kind) {
  return kind == "IntConv2d" || kind == "IntLinear" || kind == "IntAttention";
}

/// An int8/int16 solver name, as opposed to an empty (default) or i64 one.
bool is_narrow_kernel(const std::string& kernel) {
  return !kernel.empty() && kernel.rfind("gemm_i64", 0) != 0 &&
         kernel.rfind("attn_i64", 0) != 0;
}

}  // namespace

KernelMix kernel_mix(const t2c::DeployModel& dm) {
  KernelMix mix;
  std::map<std::string, int> seen;
  for (std::size_t i = 0; i < dm.num_ops(); ++i) {
    const t2c::DeployOp& op = dm.op(i);
    if (!is_gemm_kind(op.kind())) continue;
    const std::string k = op.kernel();
    ++mix.gemm_steps;
    mix.narrow_steps += is_narrow_kernel(k) ? 1 : 0;
    ++seen[k.empty() ? op.kind() + ":default" : k];
  }
  for (const auto& [name, count] : seen) {
    if (!mix.summary.empty()) mix.summary += ", ";
    mix.summary += name + " x" + std::to_string(count);
  }
  return mix;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
