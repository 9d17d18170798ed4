// Fuzz target for the serving wire protocol. Every byte a client sends
// reaches ParseClientFrame, and the load generator feeds daemon output to
// ParseServerFrame, so both parsers (and the JSON reader underneath) must
// accept arbitrary input without crashing, recursing unboundedly, or
// allocating proportionally to hostile nesting. Every accepted frame, client
// or server, must survive a format/re-parse round trip field for field,
// which pins each frame's writer and parser to each other.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "server/protocol.h"

namespace {

using uguide::ClientFrame;
using uguide::Mutation;
using uguide::ServerFrame;
using uguide::SessionQuestion;

// Equal, or both NaN (a NaN's payload is not part of the hexfloat token).
bool SameDouble(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

bool SameMutation(const Mutation& a, const Mutation& b) {
  return a.kind == b.kind && a.row == b.row && a.col == b.col &&
         a.value == b.value && a.values == b.values;
}

bool SameClientFrame(const ClientFrame& a, const ClientFrame& b) {
  if (a.mutations.size() != b.mutations.size()) return false;
  for (size_t i = 0; i < a.mutations.size(); ++i) {
    if (!SameMutation(a.mutations[i], b.mutations[i])) return false;
  }
  return a.op == b.op && a.id == b.id && a.strategy == b.strategy &&
         SameDouble(a.budget, b.budget) && a.has_budget == b.has_budget &&
         a.resume == b.resume && a.seq == b.seq && a.answer == b.answer &&
         SameDouble(a.retry_cost, b.retry_cost) && a.exhausted == b.exhausted;
}

bool SameQuestion(const SessionQuestion& a, const SessionQuestion& b) {
  return a.kind == b.kind && a.cell == b.cell && a.row == b.row &&
         a.fd == b.fd && a.index == b.index && a.replayed == b.replayed &&
         SameDouble(a.nominal_cost, b.nominal_cost);
}

bool SameServerFrame(const ServerFrame& a, const ServerFrame& b) {
  // The health frame writes every HealthInfo counter, so equal health
  // frames mean equal counters.
  return a.type == b.type && a.id == b.id &&
         SameQuestion(a.question, b.question) && a.report == b.report &&
         a.code == b.code && a.error_code == b.error_code &&
         a.retry_after_ms == b.retry_after_ms && a.message == b.message &&
         uguide::FormatHealthFrame(a.health) ==
             uguide::FormatHealthFrame(b.health) &&
         a.version == b.version && a.applied == b.applied &&
         a.refused == b.refused;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view line(reinterpret_cast<const char*>(data), size);

  uguide::Result<ClientFrame> client = uguide::ParseClientFrame(line);
  if (client.ok()) {
    uguide::Result<ClientFrame> again =
        uguide::ParseClientFrame(uguide::FormatClientFrame(*client));
    if (!again.ok() || !SameClientFrame(*client, *again)) __builtin_trap();
  }

  uguide::Result<ServerFrame> server = uguide::ParseServerFrame(line);
  if (server.ok()) {
    uguide::Result<ServerFrame> again =
        uguide::ParseServerFrame(uguide::FormatServerFrame(*server));
    if (!again.ok() || !SameServerFrame(*server, *again)) __builtin_trap();
  }

  (void)uguide::JsonValue::Parse(line);
  return 0;
}
