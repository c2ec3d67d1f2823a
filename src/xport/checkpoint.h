// Integer-only model checkpoint: the "vanilla" serialized form of a
// DeployModel (paper §3.4 — analogous to the torch.qint export). A single
// text file captures the whole graph — ops, fixed-point parameters,
// integer weights, LUTs — and loads back into a bit-identical DeployModel.
#pragma once

#include <string>

#include "deploy/deploy_model.h"

namespace t2c {

void save_checkpoint(const DeployModel& dm, const std::string& path);

/// Loads a checkpoint and binds its kernels for this host with
/// pass_select_solvers. The file names no kernels, and a graph saved at
/// any opt level gets the narrow solvers its range proof allows. Every
/// malformed field throws an Error that names the op and the field.
DeployModel load_checkpoint(const std::string& path);

}  // namespace t2c
