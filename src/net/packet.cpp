#include "net/packet.h"

#include <atomic>
#include <sstream>
#include <vector>

#include "sim/context.h"

namespace wgtt::net {

const char* to_string(PacketType t) {
  switch (t) {
    case PacketType::kData: return "DATA";
    case PacketType::kTcpAck: return "TCP_ACK";
    case PacketType::kCsiReport: return "CSI_REPORT";
    case PacketType::kStop: return "STOP";
    case PacketType::kStart: return "START";
    case PacketType::kSwitchAck: return "SWITCH_ACK";
    case PacketType::kBlockAckFwd: return "BA_FWD";
    case PacketType::kAssocSync: return "ASSOC_SYNC";
    case PacketType::kActiveAp: return "ACTIVE_AP";
    case PacketType::kBeacon: return "BEACON";
    case PacketType::kMgmt: return "MGMT";
    case PacketType::kHeartbeat: return "HEARTBEAT";
    case PacketType::kResync: return "RESYNC";
  }
  return "?";
}

/// Shared freelist state.  Kept alive by a shared_ptr copy inside every
/// pooled control block's allocator, so packets that outlive their Testbed
/// (stragglers held by tests) still deallocate into live state, which the
/// last reference then frees.
struct PacketPool::State {
  // Retired nodes, all of node_size bytes.  Capped so a pathological run
  // holding millions of packets cannot park them all here at teardown.
  static constexpr std::size_t kMaxFree = 8192;
  std::vector<void*> free;
  std::size_t node_size = 0;  // locked to the first single-node request
  std::size_t reused = 0;
  std::size_t fresh = 0;
  std::size_t retired = 0;  // nodes returned (freelisted or freed)

  ~State() {
    for (void* p : free) ::operator delete(p);
  }
};

namespace {

/// Rebindable allocator handed to allocate_shared: the single-object
/// allocation it performs is the combined control-block + Packet node, which
/// is what the freelist recycles.  Any other request size (rebinds for
/// internal bookkeeping, if an implementation makes them) passes through to
/// the global heap untouched.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  std::shared_ptr<PacketPool::State> state;

  explicit PoolAllocator(std::shared_ptr<PacketPool::State> s)
      : state(std::move(s)) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : state(other.state) {}

  T* allocate(std::size_t n) {
    PacketPool::State& s = *state;
    if (n == 1) {
      if (s.node_size == 0) s.node_size = sizeof(T);
      if (s.node_size == sizeof(T) && !s.free.empty()) {
        void* p = s.free.back();
        s.free.pop_back();
        ++s.reused;
        return static_cast<T*>(p);
      }
      ++s.fresh;
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    PacketPool::State& s = *state;
    if (n == 1) ++s.retired;
    if (n == 1 && sizeof(T) == s.node_size &&
        s.free.size() < PacketPool::State::kMaxFree) {
      s.free.push_back(p);
      return;
    }
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>& other) const {
    return state == other.state;
  }
};

}  // namespace

PacketPool::PacketPool() : state_(std::make_shared<State>()) {}

PacketPool::~PacketPool() = default;

PacketPtr PacketPool::make(Packet&& fields) {
  return std::allocate_shared<const Packet>(PoolAllocator<const Packet>(state_),
                                            std::move(fields));
}

std::size_t PacketPool::reused() const { return state_->reused; }

std::size_t PacketPool::fresh() const { return state_->fresh; }

std::size_t PacketPool::retired() const { return state_->retired; }

std::size_t PacketPool::live() const {
  const std::size_t out = state_->fresh + state_->reused;
  return out >= state_->retired ? out - state_->retired : 0;
}

std::size_t PacketPool::free_nodes() const { return state_->free.size(); }

std::size_t PacketPool::node_size() const { return state_->node_size; }

PacketPtr make_packet(Packet fields) {
  const sim::Context& ctx = sim::Context::current();
  if (PacketUidAllocator* alloc = ctx.uid_allocator) {
    fields.uid = alloc->next();
  } else {
    // No simulation context (bare unit tests): fall back to a process-global
    // counter so uids stay unique, if not reproducible across interleavings.
    static std::atomic<std::uint64_t> next_uid{1};
    fields.uid = next_uid.fetch_add(1, std::memory_order_relaxed);
  }
  if (PacketPool* pool = ctx.packet_pool) {
    return pool->make(std::move(fields));
  }
  return std::make_shared<const Packet>(fields);
}

TunneledPacket encapsulate(PacketPtr inner, NodeId from, NodeId to) {
  TunneledPacket t;
  t.wire_bytes = inner->size_bytes + kTunnelOverheadBytes;
  t.inner = std::move(inner);
  t.outer_src = from;
  t.outer_dst = to;
  return t;
}

PacketPtr decapsulate(const TunneledPacket& t) { return t.inner; }

std::string describe(const Packet& p) {
  std::ostringstream oss;
  oss << to_string(p.type) << " uid=" << p.uid << " " << p.src << "->" << p.dst
      << " flow=" << p.flow_id << " seq=" << p.seq << " idx=" << p.index
      << " len=" << p.size_bytes;
  return oss.str();
}

}  // namespace wgtt::net
