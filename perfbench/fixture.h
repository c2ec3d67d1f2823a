// Seeded fixture of the deploy benchmark: the workloads, the calibrated
// models, the input pool, the op-by-op reference interpreter, and the small
// binary tensor files the fixture process hands to the measuring process.
//
// Everything here is derived from one seed, so the same seed gives the same
// checkpoint bytes, inputs and expected outputs on every run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "deploy/deploy_model.h"
#include "fusion/converter.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace perfbench {

enum class ModelKind { kResnet20, kVit };

/// One named workload: a closed loop with a single client on 1 pool
/// thread.
struct Workload {
  std::string name;
  ModelKind model = ModelKind::kResnet20;
  std::int64_t batch = 1;
  /// Each operation is a convert -> save -> hex -> load -> run_int round
  /// trip instead of one DeployModel::run on a loaded checkpoint.
  bool roundtrip = false;
};

const std::vector<Workload>& workloads();
/// Throws t2c::Error for an unknown name.
const Workload& find_workload(const std::string& name);
const char* model_name(ModelKind m);

/// Distinct images every workload cycles through; a multiple of every
/// workload's batch and larger than the largest one.
constexpr std::int64_t kPoolImages = 64;
constexpr int kImageSize = 32;

/// Seeded init + MinMax PTQ: calibrate() on synthetic 32x32 CIFAR-shaped
/// data, no training. Returns the frozen float model.
std::unique_ptr<t2c::Sequential> make_calibrated_model(ModelKind m,
                                                       std::uint64_t seed);

/// kPoolImages distinct [3, 32, 32] images drawn from the seed.
t2c::Tensor make_input_pool(std::uint64_t seed);

/// Converter settings for the 32x32 input at `opt_level`.
t2c::ConvertConfig convert_config(int opt_level);

/// One step of walk_graph: computes op order[k] from `ins` into `out`, or
/// returns false to pass its first input through unchanged (a MulQuant its
/// producer's epilogue already applied).
using StepFn = std::function<bool(std::size_t k,
                                  const std::vector<const t2c::ITensor*>& ins,
                                  t2c::ITensor& out)>;

/// The graph walk every op-by-op interpreter here shares: runs the ops that
/// `order` lists (op indices, in execution order) over value slots indexed
/// op + 1, slot 0 holding `input`, frees each intermediate after its last
/// use, and returns the model's output value.
t2c::ITensor walk_graph(const t2c::DeployModel& dm,
                        const std::vector<std::size_t>& order,
                        t2c::ITensor input, const StepFn& step);

/// Expected integer logits [N, classes] of `images`, computed by calling
/// DeployOp::run on every op in graph order: no plan, arena, packing,
/// fused epilogue or pool is involved. Call at 1 pool thread.
t2c::ITensor reference_logits(const t2c::DeployModel& dm,
                              const t2c::Tensor& images);

/// Dequantizes logits exactly as DeployModel::run does.
t2c::Tensor dequantize_logits(const t2c::ITensor& logits, float scale);

/// Rows [first, first + count) of a [N, ...] tensor.
template <typename T>
t2c::TensorT<T> rows(const t2c::TensorT<T>& t, std::int64_t first,
                     std::int64_t count) {
  t2c::Shape s = t.shape();
  s[0] = count;
  const std::int64_t stride = t.numel() / t.size(0);
  std::vector<T> v(t.vec().begin() + first * stride,
                   t.vec().begin() + (first + count) * stride);
  return t2c::TensorT<T>::from(std::move(s), std::move(v));
}

/// Byte-for-byte equality of shape and data (floats compared as bits).
template <typename T>
bool same_bits(const t2c::TensorT<T>& a, const t2c::TensorT<T>& b);

// Raw little-endian tensor files: magic, element size, rank, dims, data.
void write_tensor(const std::string& path, const t2c::Tensor& t);
void write_tensor(const std::string& path, const t2c::ITensor& t);
t2c::Tensor read_tensor_f32(const std::string& path);
t2c::ITensor read_tensor_i64(const std::string& path);

/// File names inside a fixture directory.
std::string checkpoint_path(const std::string& dir);
std::string pool_path(const std::string& dir);
std::string expected_int_path(const std::string& dir);
std::string expected_f32_path(const std::string& dir);

/// Builds the inference fixture for `model` into `dir`: calibrate, convert
/// at the default opt level, save_checkpoint, plus the input pool and the
/// reference outputs of the in-memory converted model.
void build_fixture(ModelKind model, std::uint64_t seed, const std::string& dir);

/// GEMM-backed and attention steps, and how many of them select a narrow
/// solver (kernel() names an int8/int16 solver rather than an i64 path).
struct KernelMix {
  int gemm_steps = 0;
  int narrow_steps = 0;
  /// "name x count" for every kernel seen, e.g. "gemm_i64 x22".
  std::string summary;
};
KernelMix kernel_mix(const t2c::DeployModel& dm);

/// FNV-1a over raw bytes (input-pool fingerprint).
std::uint64_t fnv1a(const void* data, std::size_t bytes);

}  // namespace perfbench
