// Correctness gate shared by every workload and by gate_test.cpp.
//
// Three checks, each turning the run's "correct" flag false on failure:
//  * served replies equal the offline batch call on the same inputs, bit
//    for bit (the serving layer promises batch-independent values);
//  * every attempted request ends in exactly one typed Status, so that
//    sent == ok + rejected + shed + error + shutdown, per phase, and the
//    server's own counters agree with what the clients saw;
//  * the replay's virtual counts and boundary-log digest repeat exactly
//    across repetitions.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common.h"
#include "serve/serve.h"

namespace servebench {

/// Bitwise equality of two float sequences of equal length.
bool same_bits(std::span<const float> a, std::span<const float> b);

/// Terminal-status ledger of one phase.
struct StatusLedger {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t error = 0;
  std::uint64_t shutdown = 0;

  void add(enw::serve::Status s);
  std::uint64_t terminal() const { return ok + rejected + shed + error + shutdown; }
  std::uint64_t not_ok() const { return sent - ok; }
  std::string str() const;
};

/// The server-side view of the same phase (deltas of ServerStats or of the
/// multi-shard tenant reports), compared against the client ledger.
struct ServerCounts {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
};

/// Apply the reply and ledger checks of one phase to `out`: fails it when
/// any reply mismatched, when a request has no single terminal status, or
/// when the server's counters disagree with the clients'. Records a
/// one-line verdict in out.notes either way.
void gate_phase(const std::string& phase, const StatusLedger& ledger,
                std::uint64_t compared, std::uint64_t mismatched,
                const ServerCounts& server, Result& out);

}  // namespace servebench
