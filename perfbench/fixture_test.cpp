// Guard test of the benchmark fixture. The converted fixture must select a
// narrow solver on every resnet20 conv and linear and attn_i16 on every ViT
// attention, and the saved checkpoint must reload to the same outputs, so
// that a fixture or calibration drift cannot quietly turn both sides of an
// A/B comparison into an int64 run.
//
//   perfbench_fixture_test WORK_DIR     (checks seeds 1 and 2)
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/parallel.h"
#include "fixture.h"
#include "xport/checkpoint.h"

namespace {

namespace pb = perfbench;
using namespace t2c;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  g_failures += ok ? 0 : 1;
}

void check_model(pb::ModelKind kind, std::uint64_t seed,
                 const std::string& dir) {
  const std::string tag = std::string(pb::model_name(kind)) + " seed " +
                          std::to_string(seed) + ": ";
  const auto model = pb::make_calibrated_model(kind, seed);
  const DeployModel dm = T2CConverter(pb::convert_config(2)).convert(*model);

  const pb::KernelMix mix = pb::kernel_mix(dm);
  if (kind == pb::ModelKind::kResnet20) {
    expect(mix.gemm_steps == 22 && mix.narrow_steps == 22,
           tag + "narrow solver on all 22 conv/linear ops (" + mix.summary +
               ")");
  } else {
    int attn = 0, attn_i16 = 0;
    for (std::size_t i = 0; i < dm.num_ops(); ++i) {
      if (dm.op(i).kind() != "IntAttention") continue;
      ++attn;
      attn_i16 += dm.op(i).kernel() == "attn_i16" ? 1 : 0;
    }
    expect(attn > 0 && attn == attn_i16,
           tag + "attn_i16 on " + std::to_string(attn_i16) + " of " +
               std::to_string(attn) + " attention ops");
  }

  const std::string ckpt = dir + "/" + pb::model_name(kind) + ".t2c";
  save_checkpoint(dm, ckpt);
  const DeployModel loaded = load_checkpoint(ckpt);
  const Tensor pool = pb::make_input_pool(seed);
  const ITensor ref = pb::reference_logits(dm, pool);
  const ITensor converted = dm.run_int(dm.quantize_input(pool));
  const ITensor reloaded = loaded.run_int(loaded.quantize_input(pool));
  expect(pb::same_bits(converted, ref),
         tag + "converted run_int equals the op-by-op reference");
  expect(pb::same_bits(reloaded, converted),
         tag + "loaded checkpoint reproduces the converted outputs");
  expect(pb::same_bits(loaded.run(pool),
                       pb::dequantize_logits(ref, dm.output_scale)),
         tag + "loaded run() equals the dequantized reference");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_fixture_test WORK_DIR\n");
    return 2;
  }
  const std::string dir = argv[1];
  try {
    std::filesystem::create_directories(dir);
    par::set_max_threads(1);
    for (const std::uint64_t seed : {1u, 2u}) {
      check_model(pb::ModelKind::kResnet20, seed, dir);
      check_model(pb::ModelKind::kVit, seed, dir);
    }
  } catch (const std::exception& e) {
    std::printf("FAIL exception: %s\n", e.what());
    ++g_failures;
  }
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
