#include "src/sim/network.h"

#include "src/common/logging.h"

namespace hcm::sim {

namespace {

// Endpoint ids may carry a component suffix after '#' (e.g. "B#tr" for the
// CM-Translator at site B). Health holds model *site process* outages and
// apply to the plain site endpoint only: a down raw information source is
// the translator's PreflightOp concern, not the network's — the paper
// assumes a reliable network.
bool SubjectToHealthHolds(const SiteId& endpoint) {
  return endpoint.find('#') == std::string::npos;
}

// FNV-1a over "src\0dst": a stable, order-sensitive channel fingerprint for
// deriving per-channel jitter seeds. Deliberately computed over the
// endpoint *names*, never their interned ids: symbol ids depend on intern
// order (thread count, wiring order), names do not, and jitter streams must
// be identical across engines for the parallel-equivalence suite.
uint64_t ChannelHash(const SiteId& src, const SiteId& dst) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const SiteId& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0;  // separator byte
    h *= 0x100000001b3ull;
  };
  mix(src);
  mix(dst);
  return h;
}

}  // namespace

Status Network::RegisterEndpoint(const SiteId& site, Handler handler) {
  Endpoint endpoint;
  endpoint.handler = std::move(handler);
  endpoint.sym = Symbols().Intern(site);
  endpoint.base_sym = Symbols().Intern(BaseSiteOf(site));
  endpoint.health_holds = SubjectToHealthHolds(site);
  auto [it, inserted] = endpoints_.emplace(site, std::move(endpoint));
  if (!inserted) {
    return Status::AlreadyExists("endpoint already registered: " + site);
  }
  endpoints_by_sym_.emplace(it->second.sym, &it->second);
  return Status::OK();
}

Network::Channel* Network::GetChannel(uint32_t src_sym, uint32_t dst_sym) {
  std::lock_guard<std::mutex> lock(channels_mu_);
  uint64_t key = (static_cast<uint64_t>(src_sym) << 32) | dst_sym;
  auto it = channels_.find(key);
  if (it == channels_.end()) {
    // Cold path: seed the jitter stream from the endpoint names (stable
    // across intern orders), then key the channel by the packed syms.
    uint64_t seed = config_.seed ^ ChannelHash(Symbols().name(src_sym),
                                               Symbols().name(dst_sym));
    it = channels_.emplace(key, Channel(seed)).first;
  }
  return &it->second;
}

Network::Channel* Network::ChannelFor(uint32_t src_sym, uint32_t dst_sym) {
  auto source = endpoints_by_sym_.find(src_sym);
  if (source == endpoints_by_sym_.end()) return GetChannel(src_sym, dst_sym);
  auto [it, inserted] =
      source->second->out_channels.try_emplace(dst_sym, nullptr);
  if (inserted) it->second = GetChannel(src_sym, dst_sym);
  return it->second;
}

TimePoint Network::ComputeDeliveryTime(Channel* channel,
                                       const Message& message,
                                       const Endpoint* endpoint) {
  TimePoint now = executor_->now();
  bool local = message.src_sym == message.dst_sym;
  Duration latency = local ? config_.local_latency : config_.base_latency;
  if (!local && config_.jitter > Duration::Zero()) {
    latency = latency + Duration::Millis(
                            channel->rng.UniformInt(0, config_.jitter.millis()));
  }
  if (injector_ != nullptr) {
    // Slowdowns at either end delay the message.
    latency = latency + injector_->ExtraDelayAt(message.src, now) +
              injector_->ExtraDelayAt(message.dst, now);
  }
  TimePoint delivery = now + latency;
  if (injector_ != nullptr && endpoint->health_holds) {
    // Hold delivery until the destination is back up.
    delivery = injector_->NextUpTime(message.dst, delivery);
  }
  // FIFO per channel.
  if (channel->has_delivery && delivery < channel->last_delivery) {
    delivery = channel->last_delivery;
  }
  channel->last_delivery = delivery;
  channel->has_delivery = true;
  return delivery;
}

Status Network::Send(Message message) {
  // Resolve the destination endpoint, preferring the stamped symbol (no
  // string hash); unstamped messages fall back to the name map and get
  // their symbols filled in so downstream consumers see them.
  Endpoint* endpoint = nullptr;
  if (message.dst_sym != kNoSymbol) {
    auto it = endpoints_by_sym_.find(message.dst_sym);
    if (it != endpoints_by_sym_.end()) endpoint = it->second;
  } else {
    auto it = endpoints_.find(message.dst);
    if (it != endpoints_.end()) {
      endpoint = &it->second;
      message.dst_sym = endpoint->sym;
    }
  }
  if (endpoint == nullptr) {
    return Status::NotFound("no endpoint for site: " + message.dst);
  }
  if (message.src_sym == kNoSymbol) {
    message.src_sym = Symbols().Intern(message.src);
  }
  if (injector_ != nullptr && config_.drop_when_down &&
      endpoint->health_holds) {
    TimePoint now = executor_->now();
    if (injector_->HealthAt(message.dst, now) == SiteHealth::kDown) {
      HCM_LOG(Debug) << "dropping message to down site " << message.dst;
      return Status::OK();  // silently lost, like a crashed server
    }
  }
  // All sends with source S run on S's lane, so the channel (and S's
  // channel cache) has a single writing thread; only a channel's first use
  // takes the map lock.
  Channel* channel = ChannelFor(message.src_sym, message.dst_sym);
  TimePoint delivery = ComputeDeliveryTime(channel, message, endpoint);
  ++channel->count;
  Handler* handler = &endpoint->handler;
  uint32_t dst_base_sym = endpoint->base_sym;
  bool elidable = message.elidable;
  // Fire-and-forget: deliveries are never cancelled, so skip the Timer
  // handle (and its cancellation ticket) on the per-message path. The
  // destination-site tag routes the handler onto the destination's lane.
  // Elidable messages (monotone-rule fires) take the clamp-free path.
  if (elidable) {
    executor_->PostElidableAt(
        dst_base_sym, delivery,
        [handler, msg = std::move(message)]() { (*handler)(msg); });
  } else {
    executor_->PostAt(
        dst_base_sym, delivery,
        [handler, msg = std::move(message)]() { (*handler)(msg); });
  }
  return Status::OK();
}

uint64_t Network::total_messages_sent() const {
  std::lock_guard<std::mutex> lock(channels_mu_);
  uint64_t total = 0;
  for (const auto& [key, channel] : channels_) total += channel.count;
  return total;
}

uint64_t Network::messages_on_channel(const SiteId& src,
                                      const SiteId& dst) const {
  uint32_t src_sym = Symbols().Find(src);
  uint32_t dst_sym = Symbols().Find(dst);
  if (src_sym == kNoSymbol || dst_sym == kNoSymbol) return 0;
  std::lock_guard<std::mutex> lock(channels_mu_);
  auto it = channels_.find((static_cast<uint64_t>(src_sym) << 32) | dst_sym);
  return it == channels_.end() ? 0 : it->second.count;
}

}  // namespace hcm::sim
