// Open-loop load generator for the live workloads.
//
// Arrivals follow a seeded Poisson schedule at a fixed rate. A fixed pool of
// sender threads claims requests in schedule order, waits for each one's due
// time and submits it. submit() blocks until the reply (Server and
// MultiShardServer both do), so in-flight requests can never exceed the
// sender count: when every sender is busy, the next request is sent late,
// and its latency is still measured from its due time. How late the
// generator ran is part of every phase's report.
#pragma once

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common.h"
#include "core/rng.h"
#include "gate.h"
#include "serve/replay.h"
#include "serve/serve.h"

namespace servebench {

/// Host-pause probe: a thread that sleeps 1 ms at a time and counts the
/// wake-ups that came more than 2 ms late. A late wake-up means the host
/// did not run this process, which also stalls the threads being measured.
class PauseProbe {
 public:
  PauseProbe() : thread_([this] { loop(); }) {}
  ~PauseProbe() { stop(); }
  PauseProbe(const PauseProbe&) = delete;
  PauseProbe& operator=(const PauseProbe&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  std::uint64_t pauses() const { return pauses_; }     // valid after stop()
  double paused_ms() const { return paused_ns_ * 1e-6; }
  double longest_ms() const { return longest_ns_ * 1e-6; }

 private:
  void loop() {
    constexpr std::uint64_t kSleep = 1'000'000, kThreshold = 2'000'000;
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::uint64_t t0 = now_ns();
      std::this_thread::sleep_for(std::chrono::nanoseconds(kSleep));
      const std::uint64_t late = now_ns() - t0 - kSleep;
      if (late > kThreshold) {
        ++pauses_;
        paused_ns_ += static_cast<double>(late);
        longest_ns_ = std::max(longest_ns_, static_cast<double>(late));
      }
    }
  }

  std::atomic<bool> stop_{false};
  std::uint64_t pauses_ = 0;
  double paused_ns_ = 0.0;
  double longest_ns_ = 0.0;
  std::thread thread_;  // last: starts after the fields it writes exist
};

/// Per-batch stamps written by a traced backend for the request it ran.
struct BatchStamp {
  std::uint64_t id = ~0ull;  // request the stamp belongs to
  std::uint64_t start = 0;   // batch function entry
  std::uint64_t end = 0;     // batch function return
  std::uint32_t size = 0;    // requests in the batch
};

struct RequestRecord {
  std::uint64_t due = 0;    // scheduled send time
  std::uint64_t start = 0;  // submit() entry
  std::uint64_t end = 0;    // submit() return
  std::uint64_t server_latency = 0;  // Reply::latency_ns
  enw::serve::Status status = enw::serve::Status::kError;
  BatchStamp batch;         // traced runs only; id == request id when valid
};

struct PhaseResult {
  std::uint64_t first_id = 0;
  std::vector<RequestRecord> recs;
  StatusLedger ledger;
  std::uint64_t compared = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t pauses = 0;
  double paused_ms = 0.0;
  double longest_pause_ms = 0.0;
  double wall_s = 0.0;

  /// Latency from due time, in µs, of the ok requests.
  std::vector<double> latency_us() const {
    std::vector<double> v;
    v.reserve(recs.size());
    for (const RequestRecord& r : recs) {
      if (r.status == enw::serve::Status::kOk) v.push_back((r.end - r.due) * 1e-3);
    }
    return v;
  }
  /// p-th percentile latency over ALL attempted requests, a failed one
  /// counting as missing any limit (+infinity).
  double latency_all_us(double p) const {
    std::vector<double> v;
    v.reserve(recs.size());
    for (const RequestRecord& r : recs) {
      v.push_back(r.status == enw::serve::Status::kOk ? (r.end - r.due) * 1e-3 : 1e300);
    }
    return percentile(std::move(v), p);
  }
  /// Generator lateness (send time minus due time), µs, over the requests
  /// in [from, to) of the schedule.
  std::vector<double> late_us(double from = 0.0, double to = 1.0) const {
    std::vector<double> v;
    const auto n = recs.size();
    for (std::size_t i = static_cast<std::size_t>(from * n);
         i < static_cast<std::size_t>(to * n); ++i) {
      v.push_back((recs[i].start - recs[i].due) * 1e-3);
    }
    return v;
  }
};

/// Runs one open-loop phase. Client is the workload's request adapter:
///   Input make(std::uint64_t id)              — built before the due time;
///   Reply submit(const Input&, std::uint64_t id) — the timed call;
///   bool check(std::uint64_t id, const Reply&)   — reply vs offline result;
///   BatchStamp stamp(std::uint64_t id)           — traced batch stamps.
template <typename Client>
PhaseResult run_phase(double rate, double seconds, std::uint64_t seed, std::uint64_t first_id,
                      std::size_t senders, Client& client) {
  PhaseResult ph;
  ph.first_id = first_id;
  const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  ph.recs.resize(n);
  {
    enw::Rng rng(seed);
    const std::vector<enw::serve::TraceEvent> trace =
        enw::serve::poisson_trace(n, 1e9 / rate, 0, rng);
    const std::uint64_t t0 = now_ns() + 2'000'000;
    for (std::size_t i = 0; i < n; ++i) ph.recs[i].due = t0 + trace[i].arrival_ns;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> compared{0}, mismatched{0};
  PauseProbe probe;
  const std::uint64_t wall0 = now_ns();
  auto sender = [&] {
    // Sleep overshoot is the kernel's timer slack; keep it small, and spin
    // the last stretch so a request leaves at its due time.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    constexpr std::uint64_t kSpin = 60'000;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      RequestRecord& rec = ph.recs[i];
      const std::uint64_t id = first_id + i;
      auto input = client.make(id);
      std::uint64_t t = now_ns();
      if (t + kSpin < rec.due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(rec.due - kSpin - t));
      }
      while ((t = now_ns()) < rec.due) {
      }
      rec.start = t;
      const auto reply = client.submit(input, id);
      rec.end = now_ns();
      rec.status = reply.status;
      rec.server_latency = reply.latency_ns;
      rec.batch = client.stamp(id);
      if (reply.status == enw::serve::Status::kOk) {
        compared.fetch_add(1, std::memory_order_relaxed);
        if (!client.check(id, reply)) mismatched.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t s = 0; s < senders; ++s) pool.emplace_back(sender);
  for (std::thread& t : pool) t.join();
  ph.wall_s = seconds_since(wall0);
  probe.stop();
  ph.pauses = probe.pauses();
  ph.paused_ms = probe.paused_ms();
  ph.longest_pause_ms = probe.longest_ms();
  ph.compared = compared.load();
  ph.mismatched = mismatched.load();
  for (const RequestRecord& r : ph.recs) {
    ++ph.ledger.sent;
    ph.ledger.add(r.status);
  }
  return ph;
}

}  // namespace servebench
