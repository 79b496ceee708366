#include "gate.h"

#include <cstring>

namespace servebench {

using enw::serve::Status;

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

void StatusLedger::add(Status s) {
  switch (s) {
    case Status::kOk: ++ok; break;
    case Status::kRejected: ++rejected; break;
    case Status::kTimedOut: ++shed; break;
    case Status::kError: ++error; break;
    case Status::kShutdown: ++shutdown; break;
  }
}

std::string StatusLedger::str() const {
  return "sent=" + std::to_string(sent) + " ok=" + std::to_string(ok) +
         " rejected=" + std::to_string(rejected) + " shed=" + std::to_string(shed) +
         " error=" + std::to_string(error) + " shutdown=" + std::to_string(shutdown);
}

void gate_phase(const std::string& phase, const StatusLedger& ledger,
                std::uint64_t compared, std::uint64_t mismatched,
                const ServerCounts& server, Result& out) {
  std::string line = "gate " + phase + ": " + ledger.str() +
                     " compared=" + std::to_string(compared) +
                     " mismatched=" + std::to_string(mismatched);
  out.notes.push_back(line);
  if (mismatched != 0) {
    out.fail(phase + ": " + std::to_string(mismatched) +
             " served replies differ from the offline batch call");
  }
  if (ledger.sent != ledger.terminal()) {
    out.fail(phase + ": status ledger does not balance (" + ledger.str() + ")");
  }
  if (compared != ledger.ok) {
    out.fail(phase + ": " + std::to_string(ledger.ok) + " ok replies but " +
             std::to_string(compared) + " compared");
  }
  // Shutdown outcomes never reach the server counters; everything else must.
  if (server.submitted != ledger.sent - ledger.shutdown ||
      server.completed != ledger.ok || server.rejected != ledger.rejected ||
      server.shed != ledger.shed || server.errors != ledger.error) {
    out.fail(phase + ": server counters (submitted=" + std::to_string(server.submitted) +
             " completed=" + std::to_string(server.completed) +
             " rejected=" + std::to_string(server.rejected) +
             " shed=" + std::to_string(server.shed) +
             " errors=" + std::to_string(server.errors) +
             ") disagree with the client ledger");
  }
}

}  // namespace servebench
