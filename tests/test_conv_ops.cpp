// Convolution kernel tests: im2col forward vs a naive direct convolution,
// grouped/depthwise paths, geometry, integer twin, and backward passes
// against central differences.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "tensor/conv_ops.h"
#include "tensor/elementwise.h"
#include "test_util.h"

namespace t2c {
namespace {

/// Direct (quadruple-loop) convolution reference.
Tensor naive_conv(const Tensor& x, const Tensor& w, const ConvSpec& s) {
  const std::int64_t n = x.size(0), h = x.size(2), wd = x.size(3);
  const std::int64_t oh = s.out_hw(h), ow = s.out_hw(wd);
  const std::int64_t icg = s.in_channels / s.groups;
  const std::int64_t ocg = s.out_channels / s.groups;
  Tensor out({n, s.out_channels, oh, ow}, 0.0F);
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t oc = 0; oc < s.out_channels; ++oc) {
      const std::int64_t g = oc / ocg;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0F;
          for (std::int64_t c = 0; c < icg; ++c) {
            for (int ki = 0; ki < s.kernel; ++ki) {
              for (int kj = 0; kj < s.kernel; ++kj) {
                const std::int64_t iy = oy * s.stride + ki - s.padding;
                const std::int64_t ix = ox * s.stride + kj - s.padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += x.at(in, g * icg + c, iy, ix) * w.at(oc, c, ki, kj);
              }
            }
          }
          out.at(in, oc, oy, ox) = acc;
        }
      }
    }
  }
  return out;
}

struct ConvCase {
  std::int64_t in_c, out_c;
  int kernel, stride, padding, groups;
};

class ConvParam : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParam, ForwardMatchesNaive) {
  const ConvCase c = GetParam();
  ConvSpec s;
  s.in_channels = c.in_c;
  s.out_channels = c.out_c;
  s.kernel = c.kernel;
  s.stride = c.stride;
  s.padding = c.padding;
  s.groups = c.groups;
  Tensor x = testing::random_tensor({2, c.in_c, 7, 7}, 42);
  Tensor w = testing::random_tensor(
      {c.out_c, c.in_c / c.groups, c.kernel, c.kernel}, 43);
  Tensor got = conv2d_forward(x, w, nullptr, s);
  Tensor want = naive_conv(x, w, s);
  EXPECT_LT(max_abs_diff(got, want), 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvParam,
    ::testing::Values(ConvCase{3, 4, 3, 1, 1, 1},   // same-pad 3x3
                      ConvCase{3, 4, 3, 2, 1, 1},   // strided
                      ConvCase{4, 8, 1, 1, 0, 1},   // pointwise
                      ConvCase{4, 4, 3, 1, 1, 4},   // depthwise
                      ConvCase{4, 8, 3, 2, 1, 2},   // grouped strided
                      ConvCase{3, 2, 5, 1, 2, 1},   // 5x5
                      ConvCase{3, 6, 4, 4, 0, 1})); // patchify (k == stride)

TEST(ConvOps, GeometryIsInt64AndPaddingStaysBelowKernel) {
  ConvSpec s;
  s.in_channels = s.out_channels = 1;
  s.kernel = std::numeric_limits<int>::max();
  s.padding = s.kernel - 1;
  EXPECT_NO_THROW(s.validate());
  // 2 * padding exceeds int; the output size is computed in int64.
  EXPECT_EQ(s.out_hw(8), 8 + 2 * static_cast<std::int64_t>(s.padding) -
                             s.kernel + 1);
  s.padding = s.kernel;
  try {
    s.validate();
    ADD_FAILURE() << "padding == kernel accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("padding"), std::string::npos);
  }
}

TEST(ConvOps, BiasIsAddedPerChannel) {
  ConvSpec s;
  s.in_channels = 1;
  s.out_channels = 2;
  s.kernel = 1;
  Tensor x({1, 1, 2, 2}, 1.0F);
  Tensor w = Tensor::from({2, 1, 1, 1}, {1.0F, -1.0F});
  Tensor b = Tensor::from({2}, {0.25F, 0.5F});
  Tensor y = conv2d_forward(x, w, &b, s);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.25F);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -0.5F);
}

TEST(ConvOps, SpecValidation) {
  ConvSpec s;
  s.in_channels = 3;
  s.out_channels = 4;
  s.groups = 2;  // 3 % 2 != 0
  EXPECT_THROW(s.validate(), Error);
}

TEST(ConvOps, IntegerConvMatchesFloatOnIntegerData) {
  ConvSpec s;
  s.in_channels = 2;
  s.out_channels = 3;
  s.kernel = 3;
  s.padding = 1;
  Rng rng(7);
  ITensor xi({1, 2, 5, 5});
  for (std::int64_t i = 0; i < xi.numel(); ++i) xi[i] = rng.randint(-127, 127);
  ITensor wi({3, 2, 3, 3});
  for (std::int64_t i = 0; i < wi.numel(); ++i) wi[i] = rng.randint(-7, 7);
  ITensor yi = iconv2d_forward(xi, wi, nullptr, s);
  Tensor yf = conv2d_forward(to_float(xi), to_float(wi), nullptr, s);
  for (std::int64_t i = 0; i < yi.numel(); ++i) {
    EXPECT_EQ(yi[i], static_cast<std::int64_t>(std::lround(yf[i])));
  }
}

TEST(ConvOps, BackwardInputMatchesNumeric) {
  ConvSpec s;
  s.in_channels = 2;
  s.out_channels = 3;
  s.kernel = 3;
  s.stride = 2;
  s.padding = 1;
  Tensor x = testing::random_tensor({1, 2, 5, 5}, 91);
  Tensor w = testing::random_tensor({3, 2, 3, 3}, 92, 0.5F);
  Tensor y = conv2d_forward(x, w, nullptr, s);
  // L = 0.5 sum y^2 -> dL/dy = y.
  Tensor gx = conv2d_backward_input(y, w, s, x.shape());
  const float eps = 1e-3F;
  for (std::int64_t i = 0; i < x.numel(); i += 7) {
    Tensor xp = x;
    xp[i] += eps;
    const double lp = testing::half_sq_sum(conv2d_forward(xp, w, nullptr, s));
    xp[i] -= 2 * eps;
    const double lm = testing::half_sq_sum(conv2d_forward(xp, w, nullptr, s));
    EXPECT_NEAR(gx[i], (lp - lm) / (2 * eps), 2e-2F) << "at " << i;
  }
}

TEST(ConvOps, BackwardWeightAndBiasMatchNumeric) {
  ConvSpec s;
  s.in_channels = 2;
  s.out_channels = 2;
  s.kernel = 3;
  s.padding = 1;
  s.groups = 2;  // exercise the grouped path
  Tensor x = testing::random_tensor({2, 2, 4, 4}, 93);
  Tensor w = testing::random_tensor({2, 1, 3, 3}, 94, 0.5F);
  Tensor b = testing::random_tensor({2}, 95, 0.1F);
  Tensor y = conv2d_forward(x, w, &b, s);
  Tensor gb({2}, 0.0F);
  Tensor gw = conv2d_backward_weight(y, x, s, &gb);
  const float eps = 1e-3F;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    Tensor wp = w;
    wp[i] += eps;
    const double lp = testing::half_sq_sum(conv2d_forward(x, wp, &b, s));
    wp[i] -= 2 * eps;
    const double lm = testing::half_sq_sum(conv2d_forward(x, wp, &b, s));
    EXPECT_NEAR(gw[i], (lp - lm) / (2 * eps), 2e-2F) << "weight " << i;
  }
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    Tensor bp = b;
    bp[i] += eps;
    const double lp = testing::half_sq_sum(conv2d_forward(x, w, &bp, s));
    bp[i] -= 2 * eps;
    const double lm = testing::half_sq_sum(conv2d_forward(x, w, &bp, s));
    EXPECT_NEAR(gb[i], (lp - lm) / (2 * eps), 2e-2F) << "bias " << i;
  }
}

TEST(ConvOps, Im2ColCol2ImAdjoint) {
  // col2im_accum is the adjoint of im2col: <im2col(x), c> == <x, col2im(c)>.
  ConvSpec s;
  s.in_channels = 2;
  s.out_channels = 2;
  s.kernel = 3;
  s.stride = 2;
  s.padding = 1;
  Tensor x = testing::random_tensor({1, 2, 5, 5}, 17);
  Tensor cols = im2col(x, s, 0, 0);
  Tensor c = testing::random_tensor(cols.shape(), 18);
  double lhs = 0.0;
  for (std::int64_t i = 0; i < cols.numel(); ++i) {
    lhs += static_cast<double>(cols[i]) * c[i];
  }
  Tensor back({1, 2, 5, 5}, 0.0F);
  col2im_accum(c, s, 0, 0, back);
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

}  // namespace
}  // namespace t2c
