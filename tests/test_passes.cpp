// Deploy-graph pass pipeline + liveness-planned arena executor tests.
//
// Covers the graph view (producers/consumers, add_op diagnostics), the
// rewrite helpers (replace_uses / erase_ops id remapping incl. audit
// metadata), each optimization pass (requant folding with its bit-exactness
// guarantee, CSE, dead-value elimination), the execution plan (slot reuse,
// in-place element-wise steps, memory accounting), and the end-to-end
// guarantees: converted CNN/ViT graphs produce bit-identical integer
// outputs and byte-identical audit artifacts at every opt level and thread
// count, and the arena executor's peak intermediate memory is at most half
// of the retired keep-everything executor's.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "audit/dualpath_audit.h"
#include "core/parallel.h"
#include "core/registry.h"
#include "core/t2c.h"
#include "deploy/exec_plan.h"
#include "deploy/int_ops.h"
#include "deploy/passes.h"
#include "fusion/mulquant.h"
#include "models/models.h"
#include "obs/capture.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "xport/checkpoint.h"

namespace t2c {
namespace {

/// Restores the pool size on scope exit so tests can't leak a setting.
struct ThreadGuard {
  int saved = par::max_threads();
  ~ThreadGuard() { par::set_max_threads(saved); }
};

std::unique_ptr<MulQuantOp> scalar_mq(std::int64_t mul, std::int64_t bias,
                                      int frac, std::int64_t lo,
                                      std::int64_t hi, int bias_frac = 0) {
  return std::make_unique<MulQuantOp>(
      std::vector<std::int64_t>{mul}, std::vector<std::int64_t>{bias}, frac,
      lo, hi, MqLayout::kPerTensor, bias_frac);
}

int add(DeployModel& dm, std::unique_ptr<DeployOp> op, std::vector<int> ins,
        std::string label = "") {
  op->inputs = std::move(ins);
  op->label = std::move(label);
  return dm.add_op(std::move(op));
}

void expect_bit_identical(const ITensor& a, const ITensor& b,
                          const std::string& what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << ": element " << i;
  }
}

/// Runs both models over every int8 input value and requires equality.
void expect_sweep_identical(const DeployModel& a, const DeployModel& b,
                            const std::string& what) {
  for (std::int64_t v = -127; v <= 127; ++v) {
    const ITensor x = ITensor::from({1, 1}, {v});
    const ITensor ya = a.run_int(x);
    const ITensor yb = b.run_int(x);
    ASSERT_TRUE(ya.same_shape(yb)) << what << " at x=" << v;
    for (std::int64_t i = 0; i < ya.numel(); ++i) {
      ASSERT_EQ(ya[i], yb[i]) << what << " at x=" << v;
    }
  }
}

// ---- graph view + rewrite helpers ----

TEST(PassesTest, GraphViewTracksProducersAndConsumers) {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(1, 0, 0, -7, 7), {0});
  const int v2 = add(dm, scalar_mq(2, 0, 1, -7, 7), {v1});
  const int v3 = add(dm, std::make_unique<IntAddOp>(-15, 15), {v2, v1});
  dm.set_output(v3);

  EXPECT_EQ(dm.num_values(), 4);
  EXPECT_EQ(dm.producer_of(0), -1);
  EXPECT_EQ(dm.producer_of(v1), 0);
  EXPECT_EQ(dm.producer_of(v3), 2);
  ASSERT_EQ(dm.consumers_of(0).size(), 1u);
  EXPECT_EQ(dm.consumers_of(0)[0], 0);
  ASSERT_EQ(dm.consumers_of(v1).size(), 2u);  // op1 and the residual add
  EXPECT_EQ(dm.consumers_of(v1)[0], 1);
  EXPECT_EQ(dm.consumers_of(v1)[1], 2);
  EXPECT_TRUE(dm.consumers_of(v3).empty());
}

TEST(PassesTest, AddOpRejectsForwardReferenceWithDiagnostic) {
  DeployModel dm;
  auto op = scalar_mq(1, 0, 0, -7, 7);
  op->inputs = {3};
  op->label = "probe";
  try {
    dm.add_op(std::move(op));
    FAIL() << "expected add_op to throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("MulQuant"), std::string::npos) << msg;
    EXPECT_NE(msg.find("probe"), std::string::npos) << msg;
    EXPECT_NE(msg.find("v3"), std::string::npos) << msg;
  }
}

TEST(PassesTest, ReplaceUsesRequiresEarlierValue) {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(1, 0, 0, -7, 7), {0});
  const int v2 = add(dm, scalar_mq(1, 0, 0, -7, 7), {v1});
  dm.set_output(v2);
  EXPECT_THROW(dm.replace_uses(v1, v2), Error);
}

TEST(PassesTest, EraseOpsRefusesToDropUsedValues) {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(1, 0, 0, -7, 7), {0});
  const int v2 = add(dm, scalar_mq(1, 0, 0, -7, 7), {v1});
  dm.set_output(v2);
  EXPECT_THROW(dm.erase_ops({false, true}), Error);   // v1 still consumed
  EXPECT_THROW(dm.erase_ops({true, false}), Error);   // v2 is the output
}

// ---- value-range analysis ----

TEST(PassesTest, ValueRangesFollowClampsAndAccumulatorBounds) {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(3, 0, 2, -7, 7), {0});
  ITensor w = ITensor::from({2, 1, 1, 1}, {2, -3});
  ConvSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 2;
  spec.kernel = 1;
  spec.stride = 1;
  spec.padding = 0;
  const int v2 = add(dm, std::make_unique<IntConv2dOp>(std::move(w), spec),
                     {v1});
  dm.set_output(v2);
  const auto ranges = compute_value_ranges(dm);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].lo, dm.input_qmin);
  EXPECT_EQ(ranges[0].hi, dm.input_qmax);
  EXPECT_EQ(ranges[1].lo, -7);
  EXPECT_EQ(ranges[1].hi, 7);
  // |acc| <= max-abs-row-sum(W) * max|x| = 3 * 7.
  EXPECT_EQ(ranges[2].lo, -21);
  EXPECT_EQ(ranges[2].hi, 21);
}

// ---- requant folding ----

/// input -> MulQuant [-7,7] -> requant_to-style x16 upshift -> MulQuant.
/// The requant is make_requant's output for two grids 16x apart: a scalar
/// power-of-two multiplier with zero bias, exactly what the converter's
/// requant_to emits between mismatched activation grids.
DeployModel foldable_graph() {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(3, 0, 2, -7, 7), {0}, "pre");
  const FixedPointFormat fmt{8, 8};
  const int v2 = add(dm, make_requant(16.0, 1.0, fmt, -(1 << 14), 1 << 14),
                     {v1}, "requant");
  const int v3 = add(dm, scalar_mq(100, 37, 8, -127, 127, 6), {v2}, "post");
  dm.set_output(v3);
  return dm;
}

TEST(PassesTest, FoldRemovesUpshiftRequantAndStaysBitIdentical) {
  DeployModel ref = foldable_graph();
  DeployModel opt = foldable_graph();
  ASSERT_EQ(opt.num_ops(), 3u);
  const std::size_t removed = optimize_deploy_graph(opt, /*opt_level=*/2);
  EXPECT_GE(removed, 1u);          // the acceptance op-count assertion
  ASSERT_EQ(opt.num_ops(), 2u);    // requant gone, ids renumbered
  EXPECT_EQ(opt.output_id(), 2);
  EXPECT_EQ(opt.op(1).label, "post");

  // The upshift k was absorbed as frac -= k, bias_frac += k.
  const auto* post = dynamic_cast<const MulQuantOp*>(&opt.op(1));
  ASSERT_NE(post, nullptr);
  const int k = 8 - post->frac_bits()[0];
  EXPECT_GT(k, 0);
  EXPECT_EQ(post->bias_frac(), 6 + k);
  EXPECT_EQ(post->mul()[0], 100);   // multiplier and bias words untouched
  EXPECT_EQ(post->bias()[0], 37);

  expect_sweep_identical(ref, opt, "requant fold");
}

TEST(PassesTest, FoldBypassesIdentityRequantForAnyConsumer) {
  const auto build = [] {
    DeployModel dm;
    const int v1 = add(dm, scalar_mq(3, 0, 2, -7, 7), {0});
    const FixedPointFormat fmt{8, 8};
    const int v2 = add(dm, make_requant(1.0, 1.0, fmt, -127, 127), {v1});
    // The consumer is NOT a MulQuant: only the k == 0 bypass applies.
    const int v3 = add(dm, std::make_unique<IntAddOp>(-15, 15), {v2, v2});
    dm.set_output(v3);
    return dm;
  };
  DeployModel ref = build();
  DeployModel opt = build();
  EXPECT_GE(optimize_deploy_graph(opt, 2), 1u);
  EXPECT_EQ(opt.num_ops(), 2u);
  expect_sweep_identical(ref, opt, "identity requant bypass");
}

TEST(PassesTest, FoldLeavesUnprovableRequantsAlone) {
  // Same graph, but the requant clamps to [-100, 100]: the x16 upshift of a
  // [-7, 7] value reaches +/-112, so the clamp can engage and the range
  // analysis must refuse the fold.
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(3, 0, 2, -7, 7), {0});
  const FixedPointFormat fmt{8, 8};
  const int v2 = add(dm, make_requant(16.0, 1.0, fmt, -100, 100), {v1});
  const int v3 = add(dm, scalar_mq(100, 37, 8, -127, 127, 6), {v2});
  dm.set_output(v3);
  EXPECT_EQ(optimize_deploy_graph(dm, 2), 0u);
  EXPECT_EQ(dm.num_ops(), 3u);
}

TEST(PassesTest, FoldNeverTouchesTheModelOutput) {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(3, 0, 2, -7, 7), {0});
  const FixedPointFormat fmt{8, 8};
  const int v2 = add(dm, make_requant(16.0, 1.0, fmt, -(1 << 14), 1 << 14),
                     {v1});
  dm.set_output(v2);  // the requant IS the output: folding would change it
  EXPECT_EQ(optimize_deploy_graph(dm, 2), 0u);
  EXPECT_EQ(dm.num_ops(), 2u);
}

TEST(PassesTest, OptLevelZeroValidatesWithoutRewriting) {
  DeployModel dm = foldable_graph();
  EXPECT_EQ(optimize_deploy_graph(dm, 0), 0u);
  EXPECT_EQ(dm.num_ops(), 3u);
}

// ---- dedup + dead-value elimination ----

TEST(PassesTest, DedupMergesIdenticalOpsIgnoringLabels) {
  const auto build = [] {
    DeployModel dm;
    const int v1 = add(dm, scalar_mq(3, 1, 2, -7, 7), {0}, "left");
    const int v2 = add(dm, scalar_mq(3, 1, 2, -7, 7), {0}, "right");
    const int v3 = add(dm, std::make_unique<IntAddOp>(-15, 15), {v1, v2});
    dm.set_output(v3);
    return dm;
  };
  DeployModel ref = build();
  DeployModel opt = build();
  EXPECT_GE(optimize_deploy_graph(opt, 1), 1u);
  ASSERT_EQ(opt.num_ops(), 2u);
  ASSERT_EQ(opt.op(1).inputs.size(), 2u);
  EXPECT_EQ(opt.op(1).inputs[0], 1);  // both operands now the surviving op
  EXPECT_EQ(opt.op(1).inputs[1], 1);
  expect_sweep_identical(ref, opt, "dedup");
}

TEST(PassesTest, DveDropsDeadChainsAndRemapsAudit) {
  DeployModel dm;
  const int live = add(dm, scalar_mq(3, 0, 2, -7, 7), {0}, "live");
  const int dead1 = add(dm, scalar_mq(5, 0, 2, -9, 9), {0}, "dead1");
  add(dm, scalar_mq(7, 0, 2, -11, 11), {dead1}, "dead2");
  dm.set_output(live);
  OpAuditInfo info;
  info.source = "stage.live";
  info.out_scale = 0.125F;
  info.qmin = -7;
  info.qmax = 7;
  dm.set_audit(live, info);

  EXPECT_EQ(optimize_deploy_graph(dm, 1), 2u);
  ASSERT_EQ(dm.num_ops(), 1u);
  EXPECT_EQ(dm.op(0).label, "live");
  EXPECT_EQ(dm.output_id(), 1);
  EXPECT_EQ(dm.audit_of(0).source, "stage.live");
  EXPECT_FLOAT_EQ(dm.audit_of(0).out_scale, 0.125F);
  EXPECT_EQ(dm.audit_of(0).qmin, -7);
  EXPECT_EQ(dm.audit_of(0).qmax, 7);
}

TEST(PassesTest, CheckpointRoundTripsAtEveryOptLevel) {
  // Each pass combination (0 = none, 1 = cse+dve, 2 = +fold) must survive
  // the text checkpoint with bit-identical outputs and audit metadata.
  DeployModel ref = foldable_graph();
  for (const int opt : {0, 1, 2}) {
    DeployModel dm = foldable_graph();
    OpAuditInfo info;
    info.source = "stage.post";
    info.out_scale = 0.0079F;
    info.qmin = -127;
    info.qmax = 127;
    dm.set_audit(dm.output_id(), info);
    (void)optimize_deploy_graph(dm, opt);
    const std::string p = ::testing::TempDir() + "/t2c_passes_opt" +
                          std::to_string(opt) + ".t2c";
    save_checkpoint(dm, p);
    DeployModel r = load_checkpoint(p);
    ASSERT_EQ(r.num_ops(), dm.num_ops()) << "opt " << opt;
    expect_sweep_identical(ref, r, "checkpoint at opt " + std::to_string(opt));
    const std::size_t last = r.num_ops() - 1;
    EXPECT_EQ(r.audit_of(last).source, "stage.post") << "opt " << opt;
    EXPECT_EQ(r.audit_of(last).out_scale, 0.0079F) << "opt " << opt;
  }
}

TEST(PassesTest, PassManagerReportsPerPassStats) {
  DeployModel dm = foldable_graph();
  const auto stats = PassManager::pipeline(2).run(dm);
  // validate, fold_requants, dedup, dve, select_solvers
  ASSERT_EQ(stats.size(), 5u);
  EXPECT_EQ(stats[0].name, "validate");
  EXPECT_EQ(stats[0].changes, 0u);
  EXPECT_EQ(stats[1].name, "fold_requants");
  EXPECT_GE(stats[1].changes, 1u);
  EXPECT_EQ(stats[3].name, "dve");
  EXPECT_GE(stats[3].changes, 1u);
  EXPECT_LT(stats[3].ops_after, stats[0].ops_before);
  EXPECT_EQ(stats[4].name, "select_solvers");
  // The annotation pass never rewrites the graph shape.
  EXPECT_EQ(stats[4].ops_after, stats[4].ops_before);
}

// ---- int8 kernel selection (overflow gating) ----

// With the default +/-127 input range and the full int16 weight magnitude,
// K = 516 is the deepest dot product whose worst-case partial sum
// 516 * 127 * 32767 = 2147287044 still sits below 2^31.
constexpr std::int64_t kJustFitsDepth = 516;

/// Input -> IntLinear([1 x k] all `wval`) -> per-tensor MulQuant.
DeployModel linear_graph(std::int64_t k, std::int64_t wval) {
  DeployModel dm;
  ITensor w({1, k});
  for (std::int64_t i = 0; i < k; ++i) w[i] = wval;
  const int v1 = add(dm, std::make_unique<IntLinearOp>(std::move(w)), {0});
  const int v2 = add(dm, scalar_mq(3, 5, 12, -127, 127), {v1});
  dm.set_output(v2);
  return dm;
}

const IntLinearOp& linear_at(const DeployModel& dm, std::size_t i) {
  const auto* ln = dynamic_cast<const IntLinearOp*>(&dm.op(i));
  EXPECT_NE(ln, nullptr);
  return *ln;
}

TEST(KernelGateTest, JustFittingDepthSelectsInt8AndStaysBitIdentical) {
  DeployModel ref = linear_graph(kJustFitsDepth, i8::kOperandMax);
  DeployModel opt = linear_graph(kJustFitsDepth, i8::kOperandMax);
  EXPECT_GE(pass_select_solvers(opt), 1u);
  const solver::SolverChoice& kp = linear_at(opt, 0).solver_choice();
  EXPECT_TRUE(kp.i8);
  EXPECT_TRUE(kp.fuse);
  // Drive the fused kernel through the worst-case accumulation the gate
  // just proved safe: an all +/-127 input against the all-32767 weight
  // lands the int32 accumulator within 196604 of wrap-around.
  ITensor x({1, kJustFitsDepth});
  for (std::int64_t i = 0; i < kJustFitsDepth; ++i) {
    x[i] = i % 3 == 0 ? -127 : 127;
  }
  expect_bit_identical(ref.run_int(x), opt.run_int(x), "just-fits mixed");
  for (std::int64_t i = 0; i < kJustFitsDepth; ++i) x[i] = 127;
  expect_bit_identical(ref.run_int(x), opt.run_int(x), "just-fits peak");
}

TEST(KernelGateTest, OneExtraDepthStepOverflowsAndKeepsI64) {
  // K = 517 pushes the worst case to 2151448453 >= 2^31: the proof fails
  // and the plan must stay on the exact i64 path with the reason recorded.
  DeployModel dm = linear_graph(kJustFitsDepth + 1, i8::kOperandMax);
  pass_select_solvers(dm);
  const solver::SolverChoice& kp = linear_at(dm, 0).solver_choice();
  EXPECT_FALSE(kp.i8);
  EXPECT_FALSE(kp.fuse);
  EXPECT_EQ(kp.reason, "overflow");
}

TEST(KernelGateTest, UpstreamClampNarrowsTheRangeAndUnlocksInt8) {
  // A depth-1000 full-magnitude dot overflows from the raw +/-127 input
  // (1000 * 127 * 32767 ~ 4.2e9)...
  DeployModel wide = linear_graph(1000, i8::kOperandMax);
  pass_select_solvers(wide);
  EXPECT_FALSE(linear_at(wide, 0).solver_choice().i8);
  EXPECT_EQ(linear_at(wide, 0).solver_choice().reason, "overflow");
  // ...but an upstream clamp to [-3, 3] re-proves it: 1000 * 3 * 32767
  // stays far below 2^31, so the same layer now takes the int8 kernel.
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(1, 0, 0, -3, 3), {0});
  ITensor w({1, 1000});
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = i8::kOperandMax;
  const int v2 = add(dm, std::make_unique<IntLinearOp>(std::move(w)), {v1});
  const int v3 = add(dm, scalar_mq(3, 5, 12, -127, 127), {v2});
  dm.set_output(v3);
  EXPECT_GE(pass_select_solvers(dm), 1u);
  const solver::SolverChoice& kp = linear_at(dm, 1).solver_choice();
  EXPECT_TRUE(kp.i8);
  EXPECT_TRUE(kp.fuse);
}

TEST(KernelGateTest, WideOperandsNeverSelectInt8) {
  // A single weight above the int16 ceiling disqualifies the layer no
  // matter how shallow the dot product is...
  DeployModel dm = linear_graph(1, i8::kOperandMax + 1);
  pass_select_solvers(dm);
  EXPECT_FALSE(linear_at(dm, 0).solver_choice().i8);
  EXPECT_EQ(linear_at(dm, 0).solver_choice().reason, "overflow");
  // ...and so does an input range outside int16, even with weight 1.
  DeployModel act = linear_graph(1, 1);
  act.input_qmin = -(i8::kOperandMax + 1);
  act.input_qmax = i8::kOperandMax + 1;
  pass_select_solvers(act);
  EXPECT_FALSE(linear_at(act, 0).solver_choice().i8);
  EXPECT_EQ(linear_at(act, 0).solver_choice().reason, "overflow");
}

// ---- execution plan + arena ----

TEST(DeployPlanTest, ElementwiseChainRunsInOneSlotInPlace) {
  DeployModel dm;
  int v = add(dm, scalar_mq(3, 0, 1, -100, 100), {0});
  v = add(dm, scalar_mq(5, 1, 2, -100, 100), {v});
  v = add(dm, scalar_mq(7, -1, 3, -100, 100), {v});
  dm.set_output(v);

  const ExecutionPlan& plan = dm.plan();
  EXPECT_EQ(plan.num_slots(), 1u);
  EXPECT_EQ(plan.inplace_steps(), 2u);  // step 0 reads the input: no alias
  ASSERT_EQ(plan.steps().size(), 3u);
  EXPECT_FALSE(plan.steps()[0].inplace);
  EXPECT_TRUE(plan.steps()[1].inplace);
  EXPECT_TRUE(plan.steps()[2].inplace);
  EXPECT_EQ(plan.steps()[0].in_slots[0], -1);  // the network input

  const ITensor x = ITensor::from({2, 3}, {-60, -10, -1, 0, 25, 111});
  const ITensor y = dm.run_int(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    std::int64_t t = std::min<std::int64_t>(
        100, std::max<std::int64_t>(-100, (3 * x[i] + 1) >> 1));
    t = std::min<std::int64_t>(100,
                               std::max<std::int64_t>(-100, (5 * (t + 1) + 2) >> 2));
    t = std::min<std::int64_t>(100,
                               std::max<std::int64_t>(-100, (7 * (t - 1) + 4) >> 3));
    EXPECT_EQ(y[i], t) << i;
  }

  const auto mem = dm.memory_stats();
  const std::int64_t tensor_bytes = x.numel() * 8;
  EXPECT_EQ(mem.naive_bytes, 4 * tensor_bytes);  // input copy + 3 values
  EXPECT_EQ(mem.peak_bytes, tensor_bytes);       // one live slot throughout
  EXPECT_EQ(mem.plan_slots, 1u);
  EXPECT_EQ(mem.runs, 1u);
}

TEST(DeployPlanTest, ResidualForkKeepsTwoSlotsAndFreesOnLastUse) {
  DeployModel dm;
  const int v1 = add(dm, scalar_mq(2, 0, 0, -50, 50), {0});
  const int v2 = add(dm, scalar_mq(3, 0, 1, -50, 50), {v1});
  const int v3 = add(dm, std::make_unique<IntAddOp>(-100, 100), {v2, v1});
  dm.set_output(v3);

  const ExecutionPlan& plan = dm.plan();
  EXPECT_EQ(plan.num_slots(), 2u);  // v1 stays live across the fork
  ASSERT_EQ(plan.steps().size(), 3u);
  EXPECT_TRUE(plan.steps()[2].inplace);  // add reuses v2's slot, frees v1's

  const ITensor x = ITensor::from({4}, {-30, -2, 7, 19});
  const ITensor y = dm.run_int(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const std::int64_t a = std::min<std::int64_t>(
        50, std::max<std::int64_t>(-50, 2 * x[i]));
    const std::int64_t b = std::min<std::int64_t>(
        50, std::max<std::int64_t>(-50, (3 * a + 1) >> 1));
    EXPECT_EQ(y[i], std::min<std::int64_t>(
                        100, std::max<std::int64_t>(-100, a + b)))
        << i;
  }
  const auto mem = dm.memory_stats();
  EXPECT_EQ(mem.peak_bytes, 2 * x.numel() * 8);
  EXPECT_EQ(mem.naive_bytes, 4 * x.numel() * 8);
}

TEST(DeployPlanTest, OutputCanBeTheNetworkInput) {
  DeployModel dm;
  dm.set_output(0);
  const ITensor x = ITensor::from({3}, {1, -2, 3});
  const ITensor y = dm.run_int(x);
  expect_bit_identical(x, y, "identity graph");
}

TEST(DeployPlanTest, GraphMutationInvalidatesPlanAndStats) {
  DeployModel dm;
  int v = add(dm, scalar_mq(3, 0, 1, -100, 100), {0});
  dm.set_output(v);
  (void)dm.run_int(ITensor::from({2}, {1, 2}));
  EXPECT_EQ(dm.memory_stats().runs, 1u);

  v = add(dm, scalar_mq(5, 0, 1, -100, 100), {v});
  dm.set_output(v);
  EXPECT_EQ(dm.memory_stats().runs, 0u);  // stats reset with the plan
  EXPECT_EQ(dm.plan().steps().size(), 2u);
}

TEST(DeployPlanTest, RenderIsDeterministicAndNamesSlots) {
  DeployModel dm = foldable_graph();
  const std::string r1 = dm.plan().render(dm);
  const std::string r2 = dm.plan().render(dm);
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r1.find("plan: 3 steps"), std::string::npos) << r1;
  EXPECT_NE(r1.find("MulQuant"), std::string::npos) << r1;
  EXPECT_NE(r1.find("inplace"), std::string::npos) << r1;
}

TEST(DeployPlanTest, SummaryTextReportsMemoryPlan) {
  DeployModel dm = foldable_graph();
  (void)dm.run_int(ITensor::from({1, 4}, {1, -2, 3, -4}));
  const std::string text = dm.summary_text();
  EXPECT_NE(text.find("memory plan:"), std::string::npos) << text;
  EXPECT_NE(text.find("arena slots"), std::string::npos) << text;
  EXPECT_NE(text.find("keep-everything"), std::string::npos) << text;
}

TEST(DeployPlanTest, MemoryGaugesPublishedWhenMetricsEnabled) {
  obs::metrics().reset();
  obs::set_metrics_enabled(true);
  DeployModel dm = foldable_graph();
  (void)dm.run_int(ITensor::from({1, 8}, {1, 2, 3, 4, 5, 6, 7, 8}));
  const auto snap = obs::metrics().snapshot();
  obs::set_metrics_enabled(false);
  obs::metrics().reset();
  ASSERT_TRUE(snap.gauges.count("deploy.mem.naive_bytes"));
  ASSERT_TRUE(snap.gauges.count("deploy.mem.peak_bytes"));
  ASSERT_TRUE(snap.gauges.count("deploy.mem.arena_bytes"));
  EXPECT_GT(snap.gauges.at("deploy.mem.naive_bytes"), 0.0);
  EXPECT_GE(snap.gauges.at("deploy.mem.naive_bytes"),
            snap.gauges.at("deploy.mem.peak_bytes"));
}

// ---- concurrency (runs under TSan via the t2c_tsan_deploy_parallel entry) ----

TEST(PlanConcurrency, ConcurrentRunsShareThePlanAndStayIdentical) {
  DeployModel dm;
  int v = add(dm, scalar_mq(3, 0, 1, -100, 100), {0});
  v = add(dm, scalar_mq(5, 1, 2, -100, 100), {v});
  v = add(dm, std::make_unique<IntAddOp>(-200, 200), {v, v});
  dm.set_output(v);

  const ITensor x = ITensor::from({64}, std::vector<std::int64_t>(64, 17));
  const ITensor want = dm.run_int(x);
  std::vector<std::thread> workers;
  std::vector<int> bad(8, 0);
  workers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < 16; ++r) {
        const ITensor y = dm.run_int(x);
        for (std::int64_t i = 0; i < y.numel(); ++i) {
          if (y[i] != want[i]) bad[static_cast<std::size_t>(t)] = 1;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(bad[static_cast<std::size_t>(t)], 0);
  EXPECT_EQ(dm.memory_stats().runs, 129u);
}

// ---- end-to-end: converted models across opt levels + thread counts ----

DatasetSpec tiny_spec() {
  DatasetSpec s;
  s.classes = 4;
  s.height = s.width = 8;
  s.train_size = 96;
  s.test_size = 48;
  s.noise = 0.25F;
  s.class_sep = 1.2F;
  s.seed = 5;
  return s;
}

/// One QAT-trained model per binary run, shared across the e2e tests below
/// (training dominates their cost; conversion is cheap and done per test).
struct Trained {
  std::unique_ptr<SyntheticImageDataset> data;
  std::unique_ptr<Sequential> model;
};

Trained& trained_resnet() {
  static Trained t = [] {
    Trained r;
    r.data = std::make_unique<SyntheticImageDataset>(tiny_spec());
    ModelConfig mc;
    mc.num_classes = 4;
    mc.width_mult = 0.25F;
    mc.seed = 3;
    r.model = make_resnet20(mc);
    TrainerOptions o;
    o.train.epochs = 2;
    o.train.lr = 0.08F;
    make_trainer("qat", *r.model, *r.data, o)->fit();
    freeze_quantizers(*r.model);
    return r;
  }();
  return t;
}

Trained& trained_vit() {
  static Trained t = [] {
    Trained r;
    r.data = std::make_unique<SyntheticImageDataset>(tiny_spec());
    ModelConfig mc;
    mc.num_classes = 4;
    mc.vit_dim = 16;
    mc.vit_depth = 2;
    mc.vit_heads = 2;
    mc.vit_patch = 4;
    mc.seed = 3;
    r.model = make_vit(mc);
    TrainerOptions o;
    o.train.epochs = 2;
    o.train.lr = 0.02F;
    make_trainer("qat", *r.model, *r.data, o)->fit();
    freeze_quantizers(*r.model);
    return r;
  }();
  return t;
}

DeployModel convert_at(const Trained& t, int opt_level) {
  ConvertConfig cfg;
  cfg.input_shape = {3, 8, 8};
  cfg.opt_level = opt_level;
  T2CConverter conv(cfg);
  return conv.convert(*t.model);
}

Tensor test_batch(const Trained& t, int n) {
  Tensor x({n, 3, 8, 8});
  for (int i = 0; i < n; ++i) x.set0(i, t.data->test_images().select0(i));
  return x;
}

/// Replaces every occurrence of `dir` so reports written into different
/// temp dirs compare equal when the data matches.
std::string strip_dir(std::string json, const std::string& dir) {
  for (std::size_t p = json.find(dir); p != std::string::npos;
       p = json.find(dir, p)) {
    json.replace(p, dir.size(), "<golden>");
  }
  return json;
}

std::map<std::string, std::string> read_dir_bytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    std::ifstream is(e.path(), std::ios::binary);
    files[e.path().filename().string()] = std::string(
        std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  return files;
}

/// Audit JSON + golden-vector bytes of `dm` at the current thread count.
std::pair<std::string, std::map<std::string, std::string>> audit_artifacts(
    Sequential& model, const DeployModel& dm, const Tensor& x,
    const std::string& tag) {
  AuditConfig acfg;
  acfg.golden_dir = ::testing::TempDir() + "/t2c_pass_golden_" + tag;
  std::filesystem::remove_all(acfg.golden_dir);
  const AuditReport rep = run_dualpath_audit(model, dm, x, acfg);
  auto files = read_dir_bytes(acfg.golden_dir);
  return {strip_dir(rep.to_json(), acfg.golden_dir), std::move(files)};
}

void expect_artifacts_equal(
    const std::pair<std::string, std::map<std::string, std::string>>& a,
    const std::pair<std::string, std::map<std::string, std::string>>& b,
    const std::string& what) {
  EXPECT_EQ(a.first, b.first) << "audit JSON diverged: " << what;
  ASSERT_EQ(a.second.size(), b.second.size()) << what;
  for (const auto& [name, bytes] : a.second) {
    const auto it = b.second.find(name);
    ASSERT_NE(it, b.second.end()) << name << " missing: " << what;
    EXPECT_EQ(bytes, it->second) << name << " diverged: " << what;
  }
}

TEST(PassesE2E, CnnBitIdenticalAcrossOptLevelsAndThreadCounts) {
  const ThreadGuard guard;
  Trained& t = trained_resnet();
  const DeployModel dm0 = convert_at(t, 0);
  const DeployModel dm2 = convert_at(t, 2);
  const Tensor x = test_batch(t, 8);

  par::set_max_threads(1);
  const ITensor q = dm0.quantize_input(x);
  const ITensor ref = dm0.run_int(q);
  for (const int threads : {1, 4, 16}) {
    par::set_max_threads(threads);
    expect_bit_identical(ref, dm0.run_int(q),
                         "cnn opt0 @" + std::to_string(threads));
    expect_bit_identical(ref, dm2.run_int(q),
                         "cnn opt2 @" + std::to_string(threads));
  }
}

TEST(PassesE2E, CnnAuditArtifactsByteEqualAcrossOptLevels) {
  const ThreadGuard guard;
  Trained& t = trained_resnet();
  const DeployModel dm0 = convert_at(t, 0);
  const DeployModel dm2 = convert_at(t, 2);
  const Tensor x = test_batch(t, 4);
  for (const int threads : {1, 4, 16}) {
    par::set_max_threads(threads);
    const auto a0 = audit_artifacts(*t.model, dm0, x,
                                    "cnn0_" + std::to_string(threads));
    const auto a2 = audit_artifacts(*t.model, dm2, x,
                                    "cnn2_" + std::to_string(threads));
    expect_artifacts_equal(a0, a2, "cnn @" + std::to_string(threads));
  }
  obs::float_taps().clear();
  obs::int_taps().clear();
}

TEST(PassesE2E, VitBitIdenticalAndAuditByteEqualAcrossOptLevels) {
  const ThreadGuard guard;
  Trained& t = trained_vit();
  const DeployModel dm0 = convert_at(t, 0);
  const DeployModel dm2 = convert_at(t, 2);
  const Tensor x = test_batch(t, 3);

  par::set_max_threads(1);
  const ITensor q = dm0.quantize_input(x);
  const ITensor ref = dm0.run_int(q);
  for (const int threads : {1, 4, 16}) {
    par::set_max_threads(threads);
    expect_bit_identical(ref, dm0.run_int(q),
                         "vit opt0 @" + std::to_string(threads));
    expect_bit_identical(ref, dm2.run_int(q),
                         "vit opt2 @" + std::to_string(threads));
    const auto a0 = audit_artifacts(*t.model, dm0, x,
                                    "vit0_" + std::to_string(threads));
    const auto a2 = audit_artifacts(*t.model, dm2, x,
                                    "vit2_" + std::to_string(threads));
    expect_artifacts_equal(a0, a2, "vit @" + std::to_string(threads));
  }
  obs::float_taps().clear();
  obs::int_taps().clear();
}

TEST(PassesE2E, ArenaPeakIsAtMostHalfOfKeepEverything) {
  Trained& t = trained_resnet();
  const DeployModel dm = convert_at(t, 2);
  const Tensor x = test_batch(t, 8);
  (void)dm.run_int(dm.quantize_input(x));
  const auto mem = dm.memory_stats();
  ASSERT_GT(mem.naive_bytes, 0);
  ASSERT_GT(mem.peak_bytes, 0);
  // The acceptance bar: the liveness-planned arena holds at most half of
  // what the retired keep-everything executor held live.
  EXPECT_LE(2 * mem.peak_bytes, mem.naive_bytes)
      << "peak " << mem.peak_bytes << " naive " << mem.naive_bytes;
  EXPECT_GT(mem.inplace_steps, 0u);
  EXPECT_LT(mem.plan_slots, dm.num_ops());
}

// ---- golden plan text (t2c_plan_golden ctest entry) ----

/// Compares (or regenerates, with T2C_GOLDEN_REGEN=1) the deterministic
/// plan rendering against tests/golden/<name>. Skips when T2C_GOLDEN_DIR
/// is not set — the dedicated ctest entry provides it.
void check_plan_golden(const DeployModel& dm, const std::string& name) {
  const char* dir = std::getenv("T2C_GOLDEN_DIR");
  if (dir == nullptr) GTEST_SKIP() << "T2C_GOLDEN_DIR not set";
  const std::string path = std::string(dir) + "/" + name;
  const std::string got = dm.plan().render(dm);
  if (std::getenv("T2C_GOLDEN_REGEN") != nullptr) {
    std::ofstream os(path, std::ios::binary);
    os << got;
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good()) << path
                         << " missing — regenerate with T2C_GOLDEN_REGEN=1";
  const std::string want((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(got, want) << "plan drifted for " << name
                       << " — regenerate with T2C_GOLDEN_REGEN=1 if intended";
}

TEST(PlanGolden, ResnetPlanMatchesGoldenText) {
  check_plan_golden(convert_at(trained_resnet(), 2), "plan_resnet20.txt");
}

TEST(PlanGolden, VitPlanMatchesGoldenText) {
  check_plan_golden(convert_at(trained_vit(), 2), "plan_vit.txt");
}

/// `dm` after a save_checkpoint / load_checkpoint round trip.
DeployModel reload(const DeployModel& dm, const std::string& name) {
  const std::string p = ::testing::TempDir() + "/t2c_reload_" + name;
  save_checkpoint(dm, p);
  return load_checkpoint(p);
}

// The file carries no kernel names: the loader binds the same solvers the
// converter chose, so the reloaded plans render exactly like the goldens.
TEST(PlanGolden, ReloadedResnetPlanMatchesGoldenText) {
  check_plan_golden(reload(convert_at(trained_resnet(), 2), "resnet.t2c"),
                    "plan_resnet20.txt");
}

TEST(PlanGolden, ReloadedVitPlanMatchesGoldenText) {
  check_plan_golden(reload(convert_at(trained_vit(), 2), "vit.t2c"),
                    "plan_vit.txt");
}

TEST(PassesE2E, Opt0CheckpointSelectsNarrowSolversOnLoad) {
  const ThreadGuard guard;
  Trained& t = trained_resnet();
  const DeployModel dm0 = convert_at(t, 0);
  const DeployModel r = reload(dm0, "resnet_opt0.t2c");
  const auto narrow = [](const DeployModel& dm) {
    int n = 0;
    for (std::size_t i = 0; i < dm.num_ops(); ++i) {
      if (const auto* cv = dynamic_cast<const IntConv2dOp*>(&dm.op(i))) {
        n += cv->kernel().rfind("gemm_i8", 0) == 0 ? 1 : 0;
      }
    }
    return n;
  };
  EXPECT_EQ(narrow(dm0), 0) << "opt 0 skips selection at convert";
  EXPECT_GT(narrow(r), 0) << "load binds narrow solvers at any opt level";

  par::set_max_threads(1);
  const ITensor q = dm0.quantize_input(test_batch(t, 3));
  const ITensor ref = dm0.run_int(q);
  for (const int threads : {1, 4}) {
    par::set_max_threads(threads);
    expect_bit_identical(ref, r.run_int(q),
                         "reloaded opt0 @" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace t2c
