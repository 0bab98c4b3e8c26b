#include "core/decision_log.h"

#include "util/jsonl.h"

namespace wgtt::core {

const char* to_string(DecisionOutcome o) {
  switch (o) {
    case DecisionOutcome::kKeep: return "keep";
    case DecisionOutcome::kSwitch: return "switch";
    case DecisionOutcome::kDefer: return "defer";
  }
  return "?";
}

const char* to_string(DecisionReason r) {
  switch (r) {
    case DecisionReason::kNotJoined: return "not_joined";
    case DecisionReason::kSwitchInFlight: return "switch_in_flight";
    case DecisionReason::kHysteresis: return "hysteresis";
    case DecisionReason::kNoCandidate: return "no_candidate";
    case DecisionReason::kIncumbentBest: return "incumbent_best";
    case DecisionReason::kBelowMargin: return "below_margin";
    case DecisionReason::kChallengerAhead: return "challenger_ahead";
    case DecisionReason::kApSuspect: return "ap_suspect";
    case DecisionReason::kAllSuspect: return "all_suspect";
    case DecisionReason::kResync: return "resync";
  }
  return "?";
}

DecisionLog::DecisionLog(bool protocol_extensions) {
  // Schema header line.  Not a decision record (entries_ stays 0): it
  // declares the stream identity + version so consumers fail loudly on a
  // format they do not understand instead of mis-parsing it.  Only runs with
  // the hardened control plane armed advertise version 2 (which adds the
  // "resync" reason); fault-free logs stay byte-identical to version 1.
  JsonlLine(out_)
      .raw("{\"kind\":\"schema\",\"stream\":\"wgtt.decisions\","
           "\"version\":")
      .num(protocol_extensions ? kDecisionLogSchemaVersionResync
                               : kDecisionLogSchemaVersion)
      .raw("}\n");
}

void DecisionLog::append(const DecisionRecord& rec) {
  // Field order fixed by this code, numbers integer-formatted (ESNR medians
  // and the margin as milli-dB) — every byte is deterministic.
  JsonlLine line(out_);
  line.raw("{\"t_us\":").ts(rec.t)
      .raw(",\"client\":").num(rec.client)
      .raw(",\"incumbent\":").num(rec.incumbent)
      .raw(",\"chosen\":").num(rec.chosen)
      .raw(",\"policy\":\"").raw(rec.policy)
      .raw("\",\"outcome\":\"").raw(to_string(rec.outcome))
      .raw("\",\"reason\":\"").raw(to_string(rec.reason))
      .raw("\",\"margin_mdb\":").milli(rec.margin_db)
      .raw(",\"hyst_remaining_us\":").ts(rec.hysteresis_remaining)
      .raw(",\"candidates\":[");
  bool first = true;
  for (const DecisionCandidate& c : rec.candidates) {
    line.raw(first ? "{\"ap\":" : ",{\"ap\":").num(c.ap)
        .raw(",\"median_mdb\":").milli(c.median_db)
        .raw(",\"readings\":").num(c.readings)
        .raw(",\"eligible\":").boolean(c.eligible)
        .raw("}");
    first = false;
  }
  line.raw("]}\n");
  ++entries_;
  if (rec.outcome == DecisionOutcome::kSwitch) ++switches_;
}

void DecisionLog::append_liveness(const LivenessRecord& rec) {
  JsonlLine(out_)
      .raw("{\"t_us\":").ts(rec.t)
      .raw(",\"kind\":\"liveness\",\"ap\":").num(rec.ap)
      .raw(",\"event\":\"").raw(rec.event)
      .raw("\",\"flaps\":").num(rec.flaps)
      .raw(",\"quarantine_us\":").ts(rec.quarantine)
      .raw("}\n");
  ++liveness_entries_;
}

}  // namespace wgtt::core
