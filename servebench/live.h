// The live workloads: real Server / MultiShardServer instances under
// open-loop Poisson load (see loadgen.h and README.md).
#pragma once

#include "common.h"

namespace servebench {

/// `dlrm-rmc1-int8`: one Server over the RMC1 DLRM with int8 cached tables.
Result run_dlrm_rmc1_int8(const Options& opts);

/// `mlp-int8-2shard`: a two-shard, two-tenant MultiShardServer over the
/// int8 QAT MLP engine.
Result run_mlp_int8_2shard(const Options& opts);

}  // namespace servebench
