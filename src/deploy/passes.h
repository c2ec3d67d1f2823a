// Deploy-graph optimization passes.
//
// The converter emits a correct-by-construction SSA graph; these passes
// rewrite it without changing a single output bit. The pipeline is the
// NNCF/AIMET-style "compression graph transformation" stage of the paper's
// flow, restricted to provably exact rewrites:
//
//   validate       re-checks the SSA invariants (cheap, always on)
//   fold_requants  removes requant_to-emitted scalar requants that compute
//                  an exact power-of-two upshift y = x << k: the shift is
//                  absorbed into every consuming MulQuant (frac -= k,
//                  bias_frac += k leaves the datapath expression literally
//                  unchanged), guarded by a static value-range analysis
//                  proving the requant's clamp never engaged
//   dedup          classic CSE over (kind, operands, parameters) — merges
//                  duplicated constants/LUT ops byte-for-byte equal
//   dve            dead-value elimination: drops ops unreachable from the
//                  output, renumbering ids, labels, and audit metadata
//
// Every structural rewrite goes through DeployModel::replace_uses /
// erase_ops, which remap value ids and the OpAuditInfo table together, so
// the dual-path auditor and golden-vector manifest stay aligned.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "deploy/deploy_model.h"

namespace t2c {

/// Conservative static bounds of each SSA value, indexed by value id.
/// Value 0 uses the model's input clamp range; clamped ops report their
/// clamp window; accumulator ops bound |acc| by the weight's absolute row
/// sums times the input bound (saturating, never wrapping). Unknown kinds
/// degrade to the full int64 range.
struct ValueRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};
std::vector<ValueRange> compute_value_ranges(const DeployModel& dm);

// Individual passes. Each returns the number of rewrites it applied
// (folded requants, merged duplicates, erased ops; validate returns 0 and
// throws on a malformed graph).
std::size_t pass_validate(DeployModel& dm);
std::size_t pass_fold_requants(DeployModel& dm);
std::size_t pass_dedup(DeployModel& dm);
std::size_t pass_dve(DeployModel& dm);

/// Annotates GEMM-backed ops with their solver choice (DESIGN.md §3.12):
/// for each conv/linear the pass assembles a solver::Problem — geometry,
/// value-range bounds from compute_value_ranges (feeding the int8
/// overflow proof K · max|a| · max|w| < 2^31), and whether the single
/// consumer is a layout-compatible MulQuant offering a fusable requant
/// epilogue — and asks the solver registry. IntAttention ops get their
/// proven input bound, which routes through the registry's attention
/// list. Purely an annotation pass — the graph structure, op count, and
/// every audit artifact are untouched; the ExecutionPlan reads the
/// annotations at compile time. Returns the number of ops switched to a
/// narrow kernel. Runs at the end of the opt-level-2 pipeline and at the
/// end of load_checkpoint, on the host that loads the file.
std::size_t pass_select_solvers(DeployModel& dm);

/// Outcome of one pass over one graph.
struct PassStats {
  std::string name;
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  std::size_t changes = 0;
  std::int64_t bytes_saved = 0;  ///< static parameter/LUT storage freed
};

/// Ordered, named pass list. run() executes the passes in order and
/// reports per-pass stats; with metrics enabled each pass also feeds the
/// deploy.pass.* counters (ops removed, bytes saved).
class PassManager {
 public:
  using PassFn = std::function<std::size_t(DeployModel&)>;

  PassManager& add(std::string name, PassFn fn);
  std::vector<PassStats> run(DeployModel& dm) const;

  /// The standard pipeline:
  ///   0: validate only (the graph exactly as emitted)
  ///   1: validate + dedup + dve
  ///   2: validate + fold_requants + dedup + dve + select_solvers
  ///      (default; solver selection runs last, on the final graph shape)
  static PassManager pipeline(int opt_level);

 private:
  std::vector<std::pair<std::string, PassFn>> passes_;
};

/// Runs the standard pipeline at `opt_level` on `dm`; returns the total
/// number of ops removed.
std::size_t optimize_deploy_graph(DeployModel& dm, int opt_level);

}  // namespace t2c
