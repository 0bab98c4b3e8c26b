// Packet model and tunnel encapsulation.
//
// Packets are the unit passed between the transport layer, the WGTT
// controller/AP data plane, the 802.11 MAC, and the Ethernet backhaul.
// A packet is strictly immutable after creation — PacketPtr is a
// shared_ptr<const Packet> and the controller duplicates a packet to many
// APs by sharing ownership, so no per-transmission state may live on the
// packet itself.  MAC bookkeeping (retry/attempt counters, sequence
// numbers) belongs to each AP's per-peer tx state (mac::Mpdu and the AP
// queue stack), which is also where the flight recorder reads it.
#pragma once

#include <any>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/context.h"
#include "util/time.h"

namespace wgtt::net {

/// Logical node address.  The scenario layer assigns: 0 = controller,
/// 1..N = APs, kClientBase.. = clients, kServerBase.. = wired servers.
using NodeId = std::uint32_t;
constexpr NodeId kControllerId = 0;
constexpr NodeId kClientBase = 100;
constexpr NodeId kServerBase = 1000;
constexpr NodeId kBroadcast = 0xFFFFFFFFu;

inline bool is_client(NodeId id) { return id >= kClientBase && id < kServerBase; }
inline bool is_ap(NodeId id) { return id > kControllerId && id < kClientBase; }

enum class PacketType : std::uint8_t {
  kData,        // transport payload (UDP datagram or TCP segment)
  kTcpAck,      // TCP acknowledgement travelling uplink
  kCsiReport,   // AP -> controller: CSI of an overheard uplink frame (§3.1.1)
  kStop,        // controller -> AP: cease sending to client c (§3.1.2)
  kStart,       // AP -> AP: begin at cyclic index k (§3.1.2)
  kSwitchAck,   // AP -> controller: switch complete (§3.1.2)
  kBlockAckFwd, // AP -> AP: forwarded overheard Block ACK (§3.2.1)
  kAssocSync,   // AP -> AP: client association state (sta_info) (§4.3)
  kActiveAp,    // controller -> APs: who currently serves a client
  kBeacon,      // AP -> air: 802.11 beacon (baseline discovery)
  kMgmt,        // authentication / (re)association frames
  kHeartbeat,   // AP -> controller: liveness beacon (fault tolerance)
  kResync,      // controller <-> AP: warm-restart state resynchronization
};

/// One past the last PacketType value.  Keep in sync when adding a type;
/// the exhaustive-switch unit test fails loudly if this lags the enum.
constexpr std::size_t kPacketTypeCount = 13;

const char* to_string(PacketType t);

/// Number of cyclic-queue index bits (paper §3.1.2: m = 12).
constexpr unsigned kIndexBits = 12;
constexpr std::uint32_t kIndexSpace = 1u << kIndexBits;  // 4096

struct Packet {
  std::uint64_t uid = 0;        // globally unique, assigned by make_packet()
  PacketType type = PacketType::kData;
  NodeId src = 0;               // original layer-3 source
  NodeId dst = 0;               // original layer-3 destination
  std::uint32_t flow_id = 0;    // transport flow this packet belongs to
  std::uint64_t seq = 0;        // transport sequence (TCP byte offset or UDP #)
  std::uint16_t ip_id = 0;      // IP identification field (dedup key, §3.2.3)
  std::uint32_t index = 0;      // WGTT per-client cyclic index (12-bit space)
  std::size_t size_bytes = 0;   // layer-3 size including headers
  Time created;                 // creation time (for latency accounting)
  /// Per-link control-frame sequence number (0 = unsequenced).  Stamped by
  /// the hardened control plane (only when a FaultInjector is installed) so
  /// receivers can suppress adversarial duplicates; a deliberate
  /// retransmission is a fresh packet with a fresh sequence number, so it
  /// is never mistaken for a duplicate.  Packs into spare bytes of each
  /// control message's modelled wire size — size_bytes is unchanged.
  std::uint64_t ctrl_seq = 0;
  /// Controller epoch at send time (0 = unfenced).  Bumped by each warm
  /// restart; receivers reject control frames from earlier epochs.
  std::uint32_t ctrl_epoch = 0;
  /// Structured control payload (stop/start/CSI/BA-forward messages) —
  /// the simulation's stand-in for the wire encoding of control packets.
  std::any payload;
};

using PacketPtr = std::shared_ptr<const Packet>;

/// Typed accessor for the control payload; nullptr when absent/mismatched.
template <typename T>
const T* payload_as(const Packet& p) {
  return std::any_cast<T>(&p.payload);
}

/// Create a packet with a fresh unique id (from the simulation context's
/// PacketUidAllocator when it has one, else a process-global counter),
/// allocated from the context's PacketPool when it has one.
PacketPtr make_packet(Packet fields);

/// Per-simulation uid source.  Each Testbed owns one, installed in its
/// sim::Context, so uids are deterministic per run — a process-global
/// counter would interleave uids across the parallel sweep workers and
/// break byte-reproducible flight-recorder output.
class PacketUidAllocator {
 public:
  std::uint64_t next() { return next_uid_++; }

 private:
  std::uint64_t next_uid_ = 1;
};

/// Shorthand for a ScopedContext that installs only a uid allocator.
struct ScopedPacketUidAllocator : sim::ScopedContext {
  explicit ScopedPacketUidAllocator(PacketUidAllocator* alloc)
      : ScopedContext(sim::Context{.uid_allocator = alloc}) {}
};

/// Per-simulation freelist for the shared_ptr control-block + Packet nodes
/// that make_packet() allocates.  A busy run creates and retires millions
/// of identically-sized packet nodes; recycling them through a freelist
/// removes most of that malloc/free traffic from the hot path.  Owned by
/// Testbed and installed in its sim::Context (like PacketUidAllocator), so
/// each parallel sweep worker recycles only its own simulation's nodes;
/// without a pool in the context make_packet() falls back to make_shared.
/// The pool affects only where nodes live in memory — uids, contents, and
/// destruction order are untouched, so outputs stay byte-identical.
class PacketPool {
 public:
  PacketPool();
  ~PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Allocate a packet node, reusing a retired one when available.
  PacketPtr make(Packet&& fields);

  /// Nodes handed out from the freelist / freshly malloc'd (for tests and
  /// the hot-path microbench).
  std::size_t reused() const;
  std::size_t fresh() const;
  /// Nodes returned after their packet died (freelisted or freed).
  std::size_t retired() const;
  /// Packet nodes currently alive: handed out and not yet retired.  The
  /// health engine samples this each window — a live census that keeps
  /// growing is a PacketPtr leak.
  std::size_t live() const;
  /// Nodes currently parked on the freelist, and their size in bytes.
  std::size_t free_nodes() const;
  std::size_t node_size() const;

  struct State;  // shared with in-flight packets; outlives the pool

 private:
  std::shared_ptr<State> state_;
};

/// Shorthand for a ScopedContext that installs only a packet pool.
struct ScopedPacketPool : sim::ScopedContext {
  explicit ScopedPacketPool(PacketPool* pool)
      : ScopedContext(sim::Context{.packet_pool = pool}) {}
};

/// 48-bit uplink de-duplication key: source address (32) ++ IP-ID (16),
/// exactly the composition the paper describes in §3.2.2.
inline std::uint64_t dedup_key(const Packet& p) {
  return (static_cast<std::uint64_t>(p.src) << 16) | p.ip_id;
}

// ---------------------------------------------------------------------------
// Tunneling (§3.1.3 downlink, §3.2.2 uplink).
//
// Downlink packets keep the client's L2/L3 destination so the AP knows which
// client queue to place them in; the controller therefore wraps them in an
// outer IP/UDP header addressed to the AP.  Uplink packets are wrapped by the
// receiving AP with the AP as outer source and the controller as destination
// so the controller can attribute receptions to APs.
// ---------------------------------------------------------------------------

/// Outer header cost: IP (20) + UDP (8) + inner Ethernet (14) + 4 (tag).
constexpr std::size_t kTunnelOverheadBytes = 46;

struct TunneledPacket {
  PacketPtr inner;
  NodeId outer_src = 0;
  NodeId outer_dst = 0;
  std::size_t wire_bytes = 0;  // inner size + kTunnelOverheadBytes
};

/// Encapsulate `inner` for backhaul transport from `from` to `to`.
TunneledPacket encapsulate(PacketPtr inner, NodeId from, NodeId to);

/// Strip the tunnel header; returns the inner packet.
PacketPtr decapsulate(const TunneledPacket& t);

std::string describe(const Packet& p);

}  // namespace wgtt::net
