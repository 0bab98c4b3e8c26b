#include "net/flight_recorder.h"

#include "util/jsonl.h"
#include "util/rng.h"

namespace wgtt::net {

const char* to_string(Hop h) {
  switch (h) {
    case Hop::kTransportSend: return "transport_send";
    case Hop::kTransportRx: return "transport_rx";
    case Hop::kTransportDrop: return "transport_drop";
    case Hop::kCtrlFanout: return "ctrl_fanout";
    case Hop::kCtrlUplink: return "ctrl_uplink";
    case Hop::kDedupSuppress: return "dedup_suppress";
    case Hop::kBackhaulTx: return "backhaul_tx";
    case Hop::kBackhaulRx: return "backhaul_rx";
    case Hop::kBackhaulDrop: return "backhaul_drop";
    case Hop::kApEnqueue: return "ap_enqueue";
    case Hop::kApNic: return "ap_nic";
    case Hop::kApDrop: return "ap_drop";
    case Hop::kMacTx: return "mac_tx";
    case Hop::kMacAck: return "mac_ack";
    case Hop::kMacRequeue: return "mac_requeue";
    case Hop::kMacDrop: return "mac_drop";
    case Hop::kMacRx: return "mac_rx";
    case Hop::kApActivate: return "ap_activate";
    case Hop::kSwitchStart: return "switch_start";
    case Hop::kSwitchDone: return "switch_done";
    case Hop::kFaultOn: return "fault_on";
    case Hop::kFaultOff: return "fault_off";
  }
  return "?";
}

const char* to_string(DropCause c) {
  switch (c) {
    case DropCause::kNoFlowHandler: return "no_flow_handler";
    case DropCause::kUnattached: return "unattached";
    case DropCause::kLoss: return "loss";
    case DropCause::kDuplicate: return "duplicate";
    case DropCause::kStale: return "stale";
    case DropCause::kKernelFlush: return "kernel_flush";
    case DropCause::kUnknownClient: return "unknown_client";
    case DropCause::kHandoverFlush: return "handover_flush";
    case DropCause::kQuench: return "quench";
    case DropCause::kRetryLimit: return "retry_limit";
    case DropCause::kFaultInjected: return "fault_injected";
  }
  return "?";
}

FlightRecorder::FlightRecorder(FlightRecorderConfig cfg) : cfg_(cfg) {
  out_.reserve(1 << 16);
  // Schema header line.  Not a lifecycle record (records_ stays 0): it
  // declares the stream identity + version so consumers (wgtt-report, soak
  // baselines) fail loudly on a format they do not understand instead of
  // mis-parsing it.
  JsonlLine(out_)
      .raw("{\"kind\":\"schema\",\"stream\":\"wgtt.packets\",\"version\":")
      .num(kPacketLogSchemaVersion)
      .raw("}\n");
}

bool FlightRecorder::sampled(std::uint64_t uid) const {
  return uid_sampled(uid, cfg_.seed, cfg_.sample);
}

void FlightRecorder::record(std::uint64_t uid, Time t, Hop hop, NodeId node,
                            std::initializer_list<FlightArg> args) {
  append(uid, t, hop, node, args, nullptr);
}

void FlightRecorder::drop(std::uint64_t uid, Time t, Hop hop, NodeId node,
                          DropCause cause,
                          std::initializer_list<FlightArg> args) {
  append(uid, t, hop, node, args, to_string(cause));
}

void FlightRecorder::append(std::uint64_t uid, Time t, Hop hop, NodeId node,
                            std::initializer_list<FlightArg> args,
                            const char* cause) {
  if (!sampled(uid)) return;
  JsonlLine line(out_);
  line.raw("{\"uid\":").num(uid).raw(",\"t_us\":").ts(t).raw(",\"hop\":\"")
      .raw(to_string(hop)).raw("\",\"node\":").num(node);
  for (const FlightArg& a : args) {
    line.raw(",\"").raw(a.key).raw("\":").num(a.value);
  }
  if (cause != nullptr) line.raw(",\"cause\":\"").raw(cause).raw("\"");
  line.raw("}\n");
  ++records_;
}

void FlightRecorder::marker(Time t, Hop hop, NodeId node,
                            std::initializer_list<FlightArg> args) {
  append(0, t, hop, node, args, nullptr);
}

}  // namespace wgtt::net
