// servebench — the serving benchmark of enw.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--spans <path>]
//
// Workloads: dlrm-rmc1-int8, mlp-int8-2shard, replay-overload (README.md
// says why each was chosen). With --trace 0 the last line of stdout is a
// JSON object carrying the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics of a separate, instrumented run. Every run applies the
// correctness gate (gate.h); a failed gate sets "correct": false and the
// exit code to 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "live.h"
#include "probes.h"
#include "replay_workload.h"

namespace {

using servebench::Metric;
using servebench::Options;
using servebench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload <dlrm-rmc1-int8|mlp-int8-2shard|"
               "replay-overload> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--spans") {
        o.spans_path = v;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds >= 1.0 && o.seconds <= 120.0)) usage("--seconds must be in [1, 120]");
  return o;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  Result r;
  std::size_t senders = 0;
  try {
    if (opts.workload == "dlrm-rmc1-int8") {
      senders = 3;
      r = servebench::run_dlrm_rmc1_int8(opts);
    } else if (opts.workload == "mlp-int8-2shard") {
      senders = 3;
      r = servebench::run_mlp_int8_2shard(opts);
    } else if (opts.workload == "replay-overload") {
      r = servebench::run_replay_overload(opts);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
  for (const std::string& line : servebench::provenance(opts, senders)) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              json_metrics(opts.trace ? r.layer : r.e2e).c_str());
  return r.correct ? 0 : 1;
}
