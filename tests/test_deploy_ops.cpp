// Integer deploy-op tests: each op against a float reference, LUT error
// bounds, integer LayerNorm in both statistics modes, and the SSA graph
// runner (DeployModel).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "deploy/int_ops.h"
#include "deploy/vit_ops.h"
#include "nn/activations.h"
#include "tensor/elementwise.h"
#include "test_util.h"

namespace t2c {
namespace {

ITensor random_itensor(Shape shape, int lo, int hi, std::uint64_t seed) {
  ITensor t(std::move(shape));
  Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.randint(lo, hi);
  return t;
}

TEST(MulQuantOpTest, LayoutsApplyPerEntry) {
  // kChannelNCHW: channel 1 gets a different multiplier.
  MulQuantOp mq({2048, 4096}, {0, 10}, 12, -1000, 1000,
                MqLayout::kChannelNCHW);
  ITensor x({1, 2, 1, 1}, 100);
  std::vector<const ITensor*> ins{&x};
  ITensor y = mq.run(ins);
  EXPECT_EQ(y[0], 50);    // 0.5 * 100
  EXPECT_EQ(y[1], 110);   // 1.0 * (100 + 10)
}

TEST(MulQuantOpTest, ClampsToRange) {
  MulQuantOp mq({4096}, {0}, 12, 0, 127, MqLayout::kPerTensor);
  ITensor x = ITensor::from({3}, {-5, 50, 500});
  std::vector<const ITensor*> ins{&x};
  ITensor y = mq.run(ins);
  EXPECT_EQ(y[0], 0);
  EXPECT_EQ(y[1], 50);
  EXPECT_EQ(y[2], 127);
}

TEST(MulQuantOpTest, RoundsToNearest) {
  MulQuantOp mq({2048}, {0}, 12, -1000, 1000, MqLayout::kPerTensor);  // x/2
  ITensor x = ITensor::from({2}, {3, 5});
  std::vector<const ITensor*> ins{&x};
  ITensor y = mq.run(ins);
  EXPECT_EQ(y[0], 2);  // 1.5 -> 2 (round half up)
  EXPECT_EQ(y[1], 3);  // 2.5 -> 3
}

TEST(IntOps, ConvLinearAddPoolsAgainstReference) {
  // IntConv2d on small integers equals the float conv rounded.
  ConvSpec s;
  s.in_channels = 1;
  s.out_channels = 1;
  s.kernel = 2;
  ITensor w = ITensor::from({1, 1, 2, 2}, {1, 2, 3, 4});
  IntConv2dOp conv(w, s);
  ITensor x = ITensor::from({1, 1, 2, 2}, {1, 1, 1, 1});
  std::vector<const ITensor*> ins{&x};
  EXPECT_EQ(conv.run(ins)[0], 10);

  IntLinearOp lin(ITensor::from({2, 3}, {1, 0, 0, 1, 1, 1}));
  ITensor xv = ITensor::from({1, 3}, {5, 6, 7});
  std::vector<const ITensor*> ins2{&xv};
  ITensor yl = lin.run(ins2);
  EXPECT_EQ(yl[0], 5);
  EXPECT_EQ(yl[1], 18);

  IntAddOp add(-10, 10);
  ITensor a = ITensor::from({2}, {4, 9});
  ITensor b = ITensor::from({2}, {3, 9});
  std::vector<const ITensor*> ins3{&a, &b};
  ITensor ya = add.run(ins3);
  EXPECT_EQ(ya[0], 7);
  EXPECT_EQ(ya[1], 10);  // clamped

  IntMaxPool2dOp mp(2, 2, 0);
  ITensor xm = ITensor::from({1, 1, 2, 2}, {1, 9, -4, 3});
  std::vector<const ITensor*> ins4{&xm};
  EXPECT_EQ(mp.run(ins4)[0], 9);

  // GAP with m = 1/4 in fixed point: mean of the window.
  IntGlobalAvgPoolOp gap(1024, 12, -1000, 1000);
  ITensor xg = ITensor::from({1, 1, 2, 2}, {4, 8, 12, 16});
  std::vector<const ITensor*> ins5{&xg};
  EXPECT_EQ(gap.run(ins5)[0], 10);
}

TEST(IntOps, ConvRejectsWeightThatDoesNotMatchItsSpec) {
  // Rank and out-channels agree, but the packer would read 2 * 3 * 3 * 3
  // weights from a tensor that holds 2 * 1 * 3 * 3.
  ConvSpec s;
  s.in_channels = 3;
  s.out_channels = 2;
  EXPECT_THROW(IntConv2dOp(ITensor({2, 1, 3, 3}), s), Error);
  EXPECT_THROW(IntConv2dOp(ITensor({2, 3, 3, 1}), s), Error);
  s.groups = 3;
  s.out_channels = 3;
  EXPECT_NO_THROW(IntConv2dOp(ITensor({3, 1, 3, 3}), s));
}

TEST(IntOps, AttentionRejectsZeroHeads) {
  IntAttentionParams p;
  p.heads = 0;  // the d % heads check used to divide by it
  p.wqkv = ITensor({6, 2});
  p.wproj = ITensor({2, 2});
  p.qkv_mul = p.qkv_bias = std::vector<std::int64_t>(6, 1);
  p.proj_mul = p.proj_bias = std::vector<std::int64_t>(2, 1);
  p.softmax_lut = {255, 1};
  EXPECT_THROW(IntAttentionOp{p}, Error);
  p.heads = 2;
  EXPECT_NO_THROW(IntAttentionOp{p});
}

TEST(IntOps, AttentionInt64MinWeightStaysOnWideKernel) {
  IntAttentionParams p;
  p.heads = 2;
  p.wqkv = ITensor({6, 2});
  p.wproj = ITensor({2, 2});
  p.qkv_mul = p.qkv_bias = std::vector<std::int64_t>(6, 1);
  p.proj_mul = p.proj_bias = std::vector<std::int64_t>(2, 1);
  p.softmax_lut = {255, 1};
  p.wqkv[0] = 1;
  p.wproj[0] = 1;
  IntAttentionOp narrow{p};
  narrow.set_input_bound(127);
  EXPECT_EQ(narrow.kernel(), "attn_i16");  // control: small weights narrow
  // |INT64_MIN| does not fit int64: the weight maxima saturate instead of
  // negating it (UB), and the saturated magnitude keeps the int64 kernel.
  for (ITensor* w : {&p.wqkv, &p.wproj}) {
    const ITensor saved = *w;
    (*w)[0] = std::numeric_limits<std::int64_t>::min();
    IntAttentionOp op{p};
    op.set_input_bound(127);
    EXPECT_NE(op.kernel(), "attn_i16");
    *w = saved;
  }
}

TEST(IntOps, TokenizeMatchesPatchLayout) {
  TokenizeOp tok;
  ITensor x({1, 2, 1, 2});  // C=2, T=2
  x[0] = 1; x[1] = 2;       // channel 0
  x[2] = 3; x[3] = 4;       // channel 1
  std::vector<const ITensor*> ins{&x};
  ITensor y = tok.run(ins);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 2}));
  EXPECT_EQ(y.at(0, 0, 0), 1);
  EXPECT_EQ(y.at(0, 0, 1), 3);
  EXPECT_EQ(y.at(0, 1, 0), 2);
  EXPECT_EQ(y.at(0, 1, 1), 4);
}

TEST(LutSoftmax, ApproximatesFloatSoftmax) {
  const float in_scale = 0.05F;
  auto lut = build_exp_lut(in_scale, 256, 15);
  LutSoftmaxOp sm(lut, 255);
  ITensor x = random_itensor({4, 8}, -60, 60, 3);
  std::vector<const ITensor*> ins{&x};
  ITensor p = sm.run(ins);
  Tensor ref = softmax_lastdim(
      apply(to_float(x), [&](float v) { return v * in_scale; }));
  for (std::int64_t i = 0; i < p.numel(); ++i) {
    const float approx = static_cast<float>(p[i]) / 255.0F;
    EXPECT_NEAR(approx, ref[i], 0.02F) << "at " << i;
  }
}

TEST(LutSoftmax, RowsSumToApproxQmax) {
  auto lut = build_exp_lut(0.1F, 128, 15);
  LutSoftmaxOp sm(lut, 255);
  ITensor x = random_itensor({2, 6}, -30, 30, 4);
  std::vector<const ITensor*> ins{&x};
  ITensor p = sm.run(ins);
  for (int r = 0; r < 2; ++r) {
    std::int64_t s = 0;
    for (int i = 0; i < 6; ++i) s += p.at(r, i);
    EXPECT_NEAR(static_cast<double>(s), 255.0, 6.0);
  }
}

TEST(LutGelu, FullResolutionTableIsNearExact) {
  const float in_scale = 0.02F, out_scale = 0.02F;
  std::int64_t step = 1;
  auto lut = build_gelu_lut(in_scale, -127, 127, out_scale, -127, 127, 255,
                            step);
  LutGeluOp op(lut, -127, 127, step);
  ITensor x = random_itensor({64}, -127, 127, 5);
  std::vector<const ITensor*> ins{&x};
  ITensor y = op.run(ins);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float ref = gelu_value(static_cast<float>(x[i]) * in_scale);
    const float got = static_cast<float>(y[i]) * out_scale;
    EXPECT_NEAR(got, ref, out_scale * (static_cast<float>(step) + 1.0F));
  }
}

TEST(LutGelu, CoarseTableDegradesGracefully) {
  const float in_scale = 0.02F, out_scale = 0.02F;
  std::int64_t step_fine = 1, step_coarse = 1;
  auto fine = build_gelu_lut(in_scale, -127, 127, out_scale, -127, 127, 255,
                             step_fine);
  auto coarse = build_gelu_lut(in_scale, -127, 127, out_scale, -127, 127, 17,
                               step_coarse);
  EXPECT_GT(step_coarse, step_fine);
  EXPECT_LT(coarse.size(), fine.size());
}

TEST(IntLayerNorm, InstantModeMatchesFloatLayerNorm) {
  const std::int64_t d = 16;
  const float s_out = 0.02F;
  Rng rng(6);
  std::vector<std::int64_t> gfx(d), bfx(d);
  std::vector<float> gamma(d), beta(d);
  for (std::int64_t i = 0; i < d; ++i) {
    gamma[static_cast<std::size_t>(i)] = rng.uniform(0.5F, 1.5F);
    beta[static_cast<std::size_t>(i)] = rng.uniform(-0.3F, 0.3F);
    gfx[static_cast<std::size_t>(i)] = to_fixed(
        gamma[static_cast<std::size_t>(i)] / s_out, FixedPointFormat{8, 8});
    bfx[static_cast<std::size_t>(i)] = to_fixed(
        beta[static_cast<std::size_t>(i)] / s_out, FixedPointFormat{8, 8});
  }
  IntLayerNormOp ln(gfx, bfx, 8, -127, 127);
  ITensor x = random_itensor({4, d}, -100, 100, 7);
  std::vector<const ITensor*> ins{&x};
  ITensor y = ln.run(ins);
  // Float reference over the dequantized input.
  for (int r = 0; r < 4; ++r) {
    double mu = 0, var = 0;
    for (std::int64_t i = 0; i < d; ++i) mu += x.at(r, i);
    mu /= static_cast<double>(d);
    for (std::int64_t i = 0; i < d; ++i) {
      const double dv = static_cast<double>(x.at(r, i)) - mu;
      var += dv * dv;
    }
    var /= static_cast<double>(d);
    for (std::int64_t i = 0; i < d; ++i) {
      const double xhat = (static_cast<double>(x.at(r, i)) - mu) /
                          std::sqrt(var + 1e-9);
      double ref = gamma[static_cast<std::size_t>(i)] * xhat +
                   beta[static_cast<std::size_t>(i)];
      // The op clamps to the output grid; clamp the reference likewise.
      ref = std::min(127.0 * s_out, std::max(-127.0 * s_out, ref));
      const double got = static_cast<double>(y.at(r, i)) * s_out;
      EXPECT_NEAR(got, ref, 0.08) << "r=" << r << " i=" << i;
    }
  }
}

TEST(IntLayerNorm, RunningModeUsesFrozenStats) {
  const std::int64_t d = 8;
  std::vector<std::int64_t> gfx(d, 256), bfx(d, 0);  // gamma/s_out = 1.0
  // mean_int = 10, inv_sigma_fx = (s_in/sigma) << 16 with s_in/sigma = 0.5.
  IntLayerNormOp ln(gfx, bfx, 8, -127, 127, 10, 32768, 16);
  ITensor x({1, d}, 12);  // (12 - 10) * 0.5 = 1.0 -> q = 1/s_out
  std::vector<const ITensor*> ins{&x};
  ITensor y = ln.run(ins);
  // gamma_fx = 256 = 1.0/s_out at f=8 -> output == xhat / s_out*s_out = 256*xhat>>16? Work it out:
  // xhat_f = ((12-10)*32768) >> (16-8) = 256 (= 1.0 at f=8)
  // y = (256*256 + 0 + half) >> 16 = 1.
  EXPECT_EQ(y[0], 1);
}

TEST(DeployModelTest, GraphRunsTopologicallyAndChecksIds) {
  DeployModel dm;
  auto mq = std::make_unique<MulQuantOp>(
      std::vector<std::int64_t>{8192}, std::vector<std::int64_t>{0}, 12,
      -1000, 1000, MqLayout::kPerTensor);  // x2
  mq->inputs = {0};
  const int v1 = dm.add_op(std::move(mq));
  auto add = std::make_unique<IntAddOp>(-10000, 10000);
  add->inputs = {0, v1};  // x + 2x
  const int v2 = dm.add_op(std::move(add));
  dm.set_output(v2);
  dm.input_scale = 1.0F;
  dm.output_scale = 1.0F;
  ITensor x = ITensor::from({2}, {3, -4});
  ITensor y = dm.run_int(x);
  EXPECT_EQ(y[0], 9);
  EXPECT_EQ(y[1], -12);

  auto bad = std::make_unique<IntAddOp>(-1, 1);
  bad->inputs = {99};
  EXPECT_THROW(dm.add_op(std::move(bad)), Error);
}

TEST(DeployModelTest, InputQuantizationClampsToGrid) {
  DeployModel dm;
  auto id = std::make_unique<MulQuantOp>(
      std::vector<std::int64_t>{4096}, std::vector<std::int64_t>{0}, 12,
      -127, 127, MqLayout::kPerTensor);
  id->inputs = {0};
  dm.set_output(dm.add_op(std::move(id)));
  dm.input_scale = 0.1F;
  dm.input_qmin = -127;
  dm.input_qmax = 127;
  Tensor x = Tensor::from({2}, {0.55F, 100.0F});
  ITensor q = dm.quantize_input(x);
  EXPECT_EQ(q[0], 6);     // round(5.5) = 6 (nearest-even -> 6)
  EXPECT_EQ(q[1], 127);   // clamped
}

}  // namespace
}  // namespace t2c
