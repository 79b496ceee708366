#include "replay_workload.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/checksum.h"
#include "core/hash.h"
#include "core/rng.h"
#include "gate.h"
#include "obs/obs.h"
#include "serve/shard_replay.h"

namespace servebench {

namespace {

namespace serve = enw::serve;

constexpr std::size_t kShards = 4;
constexpr std::size_t kEvents = 200'000;     // overload trace length
constexpr std::size_t kSearchEvents = 50'000;
constexpr std::uint64_t kServiceNs = 1'000'000;  // virtual executor time per batch
constexpr std::uint64_t kOnlineDeadlineNs = 2'000'000;
constexpr double kLimitUs = 5000.0;  // virtual p90 limit for max_rps
constexpr std::size_t kKeys = 1'000'000;
constexpr std::size_t kSetupEvery = 8;  // timed calls between set-ups

/// Virtual capacity: every shard runs one full batch per service time.
constexpr double kCapacityRps = kShards * 32 * 1e9 / kServiceNs;

serve::ShardedReplayConfig replay_config(const std::vector<serve::TraceEvent>& trace) {
  serve::ShardedReplayConfig c;
  c.num_shards = kShards;
  c.replay.serve.max_batch = 32;
  c.replay.serve.max_wait_ns = 100'000;
  c.replay.serve.queue_capacity = 256;
  c.replay.service_ns = kServiceNs;
  serve::TenantPolicy online;
  online.name = "online";
  online.deadline_ns = kOnlineDeadlineNs;
  online.admission = serve::AdmissionPolicy::kReject;
  online.queue_share = 0.5;
  serve::TenantPolicy batch;
  batch.name = "batch";
  batch.admission = serve::AdmissionPolicy::kBlock;
  batch.queue_share = 0.5;
  c.replay.tenants = {online, batch};
  // One scripted swap mid-trace and one add + remove resize around it.
  const std::uint64_t end = trace.back().arrival_ns;
  c.replay.swaps = {{end / 2, 1}};
  c.replay.resizes = {{end * 3 / 10, serve::ResizeEvent::Kind::kAdd, kShards},
                      {end * 7 / 10, serve::ResizeEvent::Kind::kRemove, 1}};
  return c;
}

/// Zipf-keyed two-tenant Poisson trace offered at `load` x virtual capacity.
std::vector<serve::TraceEvent> make_trace(std::size_t n, double load, std::uint64_t seed) {
  enw::Rng rng(seed);
  std::vector<serve::TraceEvent> trace =
      serve::poisson_trace(n, 1e9 / (load * kCapacityRps), 0, rng);
  const enw::ZipfSampler zipf(kKeys, 1.05);
  for (serve::TraceEvent& e : trace) {
    e.key = zipf.sample(rng);
    e.tenant = rng.bernoulli(0.5) ? 0 : 1;
  }
  return trace;
}

struct Outcome {
  StatusLedger ledger;
  std::vector<double> latency_us;  // completed requests, virtual
  double p90_all_us = 0.0;         // failures count as missing the limit
  serve::ServerStats stats;
  std::uint32_t digest = 0;  // CRC32 of the boundary log
  std::uint64_t fingerprint = 0;
};

/// Cheap fingerprint of a replay result, taken after every repetition: a
/// mix64 fold over every typed outcome, completion time and routing choice.
std::uint64_t fingerprint(const serve::ShardedReplayResult& r) {
  std::uint64_t h = r.stats.batches;
  for (const serve::RequestOutcome& x : r.outcomes) {
    h = enw::core::mix64(h ^ (static_cast<std::uint64_t>(x.status) << 56) ^ x.done_ns);
  }
  for (const std::size_t s : r.shard_of) h = enw::core::mix64(h ^ s);
  return h;
}

Outcome summarize(const serve::ShardedReplayResult& r) {
  Outcome o;
  std::vector<double> all;
  for (const serve::RequestOutcome& x : r.outcomes) {
    ++o.ledger.sent;
    o.ledger.add(x.status);
    const bool ok = x.status == serve::Status::kOk;
    if (ok) o.latency_us.push_back(x.latency_ns * 1e-3);
    all.push_back(ok ? x.latency_ns * 1e-3 : 1e300);
  }
  o.p90_all_us = percentile(std::move(all), 90);
  o.stats = r.stats;
  const std::string log = r.boundary_log();
  o.digest = enw::core::crc32(log.data(), log.size());
  o.fingerprint = fingerprint(r);
  return o;
}

void gate_replay(const std::string& phase, const Outcome& o, Result& out) {
  const ServerCounts server{o.stats.submitted, o.stats.completed, o.stats.rejected,
                            o.stats.shed, o.stats.errors};
  // Replay has no reply values: the exec callback is a no-op by design.
  gate_phase(phase, o.ledger, o.ledger.ok, 0, server, out);
}

bool same_outcome(const Outcome& a, const Outcome& b) {
  return a.digest == b.digest && a.fingerprint == b.fingerprint && a.ledger.ok == b.ledger.ok &&
         a.ledger.rejected == b.ledger.rejected && a.ledger.shed == b.ledger.shed &&
         a.stats.batches == b.stats.batches;
}

serve::ShardedReplayResult replay(const std::vector<serve::TraceEvent>& trace,
                                  const serve::ShardedReplayConfig& cfg) {
  return serve::replay_sharded(trace, cfg,
                               serve::ShardedReplayExec([](std::size_t, std::span<const std::size_t>) {}));
}

}  // namespace

Result run_replay_overload(const Options& opts) {
  Result out;
  const std::uint64_t seed = opts.seed * 1000003ull;
  std::vector<double> setups;
  std::vector<serve::TraceEvent> trace;
  serve::ShardedReplayConfig cfg;
  // Set-up takes ~15 ms, too short to outlast a swing of the shared host
  // between its fast and slow states, so it is repeated every kSetupEvery
  // timed calls through the run and setup_s is the median.
  const auto setup = [&] {
    trace.clear();
    trace.shrink_to_fit();
    const std::uint64_t t0 = now_ns();
    trace = make_trace(kEvents, 1.5, seed);
    cfg = replay_config(trace);
    setups.push_back(seconds_since(t0));
  };
  setup();

  // Virtual end-to-end metrics: the deterministic outcome of the serving
  // rules at a low load and at the overload, and the virtual capacity.
  const std::vector<serve::TraceEvent> low_trace = make_trace(kSearchEvents, 0.5, seed + 1);
  const Outcome low = summarize(replay(low_trace, replay_config(low_trace)));
  gate_replay("replay.low", low, out);
  double lo = 0.1, hi = 2.0;
  for (int i = 0; i < 24; ++i) {
    const double load = 0.5 * (lo + hi);
    const std::vector<serve::TraceEvent> t = make_trace(kSearchEvents, load, seed + 2);
    (summarize(replay(t, replay_config(t))).p90_all_us <= kLimitUs ? lo : hi) = load;
  }

  // Host-time measurement: repeat the overload replay. Every repetition
  // must reproduce the first one's fingerprint, and a last, untimed one its
  // counts and boundary-log digest (rendering the log between timed calls
  // would disturb them). A traced run alternates calls with obs spans on
  // and off, for the tracing overhead.
  std::vector<double> call_s, traced_s;
  Outcome first;
  std::uint64_t mismatched = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; call_s.size() < 5 || seconds_since(t0) < 0.9 * opts.seconds; ++i) {
    const bool traced = opts.trace && i % 2 == 1;
    enw::obs::set_enabled(traced);
    const std::uint64_t a = now_ns();
    serve::ShardedReplayResult r;
    {
      ENW_SPAN("bench.replay.call");
      r = replay(trace, cfg);
    }
    (traced ? traced_s : call_s).push_back(seconds_since(a));
    enw::obs::set_enabled(false);
    if (i == 0) {
      first = summarize(r);
      gate_replay("replay.high", first, out);
    } else if (fingerprint(r) != first.fingerprint) {
      ++mismatched;
    }
    if ((i + 1) % kSetupEvery == 0) setup();
  }
  if (!same_outcome(first, summarize(replay(trace, cfg)))) ++mismatched;
  out.attempted = call_s.size() + traced_s.size();
  out.failed = mismatched;
  out.notes.push_back("gate replay.repeat: " + std::to_string(out.attempted) +
                      " repetitions, " + std::to_string(mismatched) +
                      " differ from the first (digest " + std::to_string(first.digest) + ")");
  if (mismatched != 0) out.fail("replay outcomes differ across repetitions");
  // From the kFastPct percentile of the call times (see common.h); the
  // median is printed beside it.
  const double call_fast = percentile(call_s, kFastPct);
  const double events_per_s = kEvents / call_fast;
  out.notes.push_back("replay calls: fast=" + std::to_string(call_fast * 1e3) +
                      "ms median=" + std::to_string(median(call_s) * 1e3) + "ms");
  const double ok_share = static_cast<double>(first.ledger.ok) / first.ledger.sent;

  if (!opts.trace) {
    out.e2e.push_back({"setup_s", median(setups), "s"});
    out.e2e.push_back({"p50_us.low", percentile(low.latency_us, 50), "us"});
    out.e2e.push_back({"p90_us.low", percentile(low.latency_us, 90), "us"});
    out.e2e.push_back({"p50_us.high", percentile(first.latency_us, 50), "us"});
    out.e2e.push_back({"p90_us.high", percentile(first.latency_us, 90), "us"});
    out.e2e.push_back({"max_rps", lo * kCapacityRps, "req/s"});
    out.e2e.push_back({"offline_sps", events_per_s, "samples/s"});
    out.e2e.push_back({"ok_share", ok_share, "fraction"});
    out.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    return out;
  }

  const serve::ShardRouter router(kShards, cfg.vnodes);
  std::size_t sink = 0;
  std::vector<double> route_ns;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t a = now_ns();
    for (const serve::TraceEvent& e : trace) sink += router.route(e.key);
    route_ns.push_back(static_cast<double>(now_ns() - a) / trace.size());
  }
  out.notes.push_back("route checksum " + std::to_string(sink));
  out.layer.push_back({"replay.call_ms", call_fast * 1e3, "ms"});
  out.layer.push_back({"route.ns", median(route_ns), "ns"});
  out.layer.push_back({"replay.ok", static_cast<double>(first.ledger.ok), "count"});
  out.layer.push_back({"replay.rejected", static_cast<double>(first.ledger.rejected), "count"});
  out.layer.push_back({"replay.shed", static_cast<double>(first.ledger.shed), "count"});
  out.layer.push_back({"replay.batches", static_cast<double>(first.stats.batches), "count"});
  out.layer.push_back({"replay.log_digest", static_cast<double>(first.digest), "crc32"});
  out.layer.push_back({"trace.overhead_pct.offline",
                       100.0 * (percentile(traced_s, kFastPct) / call_fast - 1.0), "%"});
  if (!opts.spans_path.empty()) {
    enw::obs::set_enabled(true);
    if (!enw::obs::write_json(enw::obs::snapshot(), opts.spans_path)) {
      out.fail("cannot write spans to " + opts.spans_path);
    }
    enw::obs::set_enabled(false);
  }
  return out;
}

}  // namespace servebench
