#ifndef HCM_SIM_NETWORK_H_
#define HCM_SIM_NETWORK_H_

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/symbols.h"
#include "src/sim/failure_injector.h"
#include "src/sim/parallel_executor.h"

namespace hcm::sim {

// A message in flight between two sites. `payload` is owned by the message;
// the toolkit layers exchange rule::Event values through it.
//
// src_sym/dst_sym are the interned ids of the endpoint names. Senders that
// cache their endpoint symbols (shells, translators) stamp them so the
// network resolves the destination and channel without hashing strings;
// unstamped messages are interned on first send. The names remain the
// authoritative identity — the symbols are an in-memory acceleration only.
struct Message {
  SiteId src;
  SiteId dst;
  std::string kind;  // free-form tag, e.g. "event", "failure-notice"
  std::any payload;
  uint32_t src_sym = kNoSymbol;
  uint32_t dst_sym = kNoSymbol;
  // Declares the message the product of a statically monotone rule (CALM):
  // the parallel engine may deliver it without clamping it to its
  // synchronization window. Stamped by the sending shell for rules the
  // monotonicity classifier approved; see rule::ClassifyMonotone.
  bool elidable = false;
};

struct NetworkConfig {
  // Fixed one-way latency between distinct sites. This is the conservative
  // lookahead bound L for ParallelExecutor: every cross-site delivery takes
  // at least this long, so sites are independent within an L-wide window.
  Duration base_latency = Duration::Millis(20);
  // Uniform extra latency in [0, jitter].
  Duration jitter = Duration::Millis(10);
  // Latency for messages a site sends to itself (shell -> local translator).
  Duration local_latency = Duration::Millis(1);
  // Seed for the jitter streams. Each (src, dst) channel derives its own
  // stream from seed ^ hash(src, dst).
  uint64_t seed = 7;
  // When true, messages addressed to a down site are dropped instead of held
  // until recovery (models catastrophic/logical failure of the link).
  bool drop_when_down = false;
};

// Point-to-point message-passing network between named sites.
//
// Delivery is FIFO per (src, dst) channel even under random jitter — the
// paper's Appendix A.2 property 7 assumes in-order delivery and in-order
// processing, so the network enforces per-channel ordering by clamping each
// delivery to be no earlier than the previous one on the same channel.
//
// Each channel owns its jitter RNG, seeded from the config seed and the
// channel's endpoint names: adding a site or reordering interleaved sends
// never perturbs an unrelated channel's latencies, and — since every send
// with source S runs on S's execution lane — each channel has exactly one
// writing thread under ParallelExecutor. The channel map itself is guarded
// by a mutex (lanes can create channels concurrently) and taken only on a
// channel's first use by each sender: every source endpoint caches its
// channels, so a send takes no lock and touches no shared counter. Channel
// *state* needs no lock.
class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  Network(Executor* executor, NetworkConfig config)
      : executor_(executor), config_(config) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Attaches the failure injector consulted on each delivery (optional).
  void set_failure_injector(const FailureInjector* injector) {
    injector_ = injector;
  }

  // Registers the message handler for a site. One handler per site. Not
  // thread-safe: endpoints are wired up before the simulation runs.
  Status RegisterEndpoint(const SiteId& site, Handler handler);

  // Sends a message; delivery is scheduled on the executor, tagged with the
  // destination's site so ParallelExecutor runs the handler on the
  // destination lane. Unknown destinations are an error (catches mis-wired
  // configurations early). Safe to call from any execution lane.
  Status Send(Message message);

  // Statistics for the benches and tests. The sending lanes count without
  // synchronization, so read these between runs, not during one.
  uint64_t total_messages_sent() const;
  uint64_t messages_on_channel(const SiteId& src, const SiteId& dst) const;

 private:
  struct Channel;

  // A registered endpoint with everything Send needs precomputed at wiring
  // time: the handler, the endpoint's interned id, the interned id of its
  // base site (the ParallelExecutor lane tag), and whether health holds
  // apply (plain site endpoints only — no '#' suffix).
  struct Endpoint {
    Handler handler;
    uint32_t sym = kNoSymbol;
    uint32_t base_sym = kNoSymbol;
    bool health_holds = true;
    // This endpoint's outgoing channels by destination sym: entries of
    // channels_, cached on first send. Read and written only by sends from
    // this endpoint, which all run on its lane.
    std::unordered_map<uint32_t, Channel*> out_channels;
  };

  // Per-(src, dst) channel state. Mutated only by the source's lane.
  struct Channel {
    explicit Channel(uint64_t seed) : rng(seed) {}
    Rng rng;  // jitter stream, independent per channel
    TimePoint last_delivery;  // for FIFO clamping
    bool has_delivery = false;
    uint64_t count = 0;
  };

  Channel* GetChannel(uint32_t src_sym, uint32_t dst_sym);
  // The channel for a send, through the source endpoint's cache when the
  // source is a registered endpoint.
  Channel* ChannelFor(uint32_t src_sym, uint32_t dst_sym);
  TimePoint ComputeDeliveryTime(Channel* channel, const Message& message,
                                const Endpoint* endpoint);

  Executor* executor_;
  NetworkConfig config_;
  const FailureInjector* injector_ = nullptr;
  std::map<SiteId, Endpoint> endpoints_;
  // Endpoint sym -> entry in endpoints_ (map nodes are stable). The hot
  // lookup for messages stamped with dst_sym.
  std::unordered_map<uint32_t, Endpoint*> endpoints_by_sym_;
  // Guards the map structure only (find/insert), not Channel contents. Node
  // based, so the endpoints' cached Channel pointers stay valid.
  mutable std::mutex channels_mu_;
  // Channels keyed by the packed (src_sym, dst_sym) pair. The jitter seed
  // is still derived from the endpoint *names* at channel creation (see
  // ChannelHash): symbol ids are intern-order-dependent, names are not, so
  // seeding by name keeps latency streams stable across thread counts.
  std::unordered_map<uint64_t, Channel> channels_;
};

}  // namespace hcm::sim

#endif  // HCM_SIM_NETWORK_H_
