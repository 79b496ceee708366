// The `replay-overload` workload: replay_sharded over an overloaded,
// two-tenant, Zipf-keyed trace with a scripted swap and resize.
#pragma once

#include "common.h"

namespace servebench {

Result run_replay_overload(const Options& opts);

}  // namespace servebench
