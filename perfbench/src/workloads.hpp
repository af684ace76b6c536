// workloads.hpp — the benchmark's workloads.  Each fills `rep` with its
// metrics and failed checks; the return value is non-zero only when the
// workload could not run at all.
#pragma once

#include "common.hpp"

namespace perfbench {

int run_decode_bert_base(const Args& args, Report& rep);
int run_decode_long_context(const Args& args, Report& rep);
int run_serve_guarded_storm(const Args& args, Report& rep);

}  // namespace perfbench
