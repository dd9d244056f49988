#include "gnutella/node.h"

#include <algorithm>
#include <cassert>

#include "common/hashing.h"
#include "common/tokenizer.h"

namespace pierstack::gnutella {

uint64_t MakeFileId(const std::string& filename, uint64_t size_bytes,
                    sim::HostId owner) {
  return FileId(filename, size_bytes, owner);
}

namespace {

/// GUIDs each node remembers for duplicate suppression and reverse paths.
constexpr size_t kGuidRouteCapacity = 1 << 16;
/// False-positive rate the QRP keyword Bloom filters are sized for.
constexpr double kQrpFpRate = 0.02;
/// A dynamic query's first round probes this many neighbors at this TTL,
/// then widens neighbor by neighbor (LimeWire's published design).
constexpr size_t kProbeNeighbors = 3;
constexpr uint8_t kProbeTtl = 1;

}  // namespace

GnutellaNode::GnutellaNode(sim::Network* network, Role role,
                           const GnutellaConfig* config,
                           GnutellaMetrics* metrics, uint64_t seed)
    : network_(network),
      role_(role),
      config_(config),
      metrics_(metrics),
      rng_(seed),
      guids_(kGuidRouteCapacity) {
  assert(network != nullptr && config != nullptr && metrics != nullptr);
  host_ = network->AddHost(this);
}

GnutellaNode::~GnutellaNode() = default;

void GnutellaNode::SetSharedFiles(std::vector<std::string> filenames,
                                  std::vector<uint64_t> sizes) {
  index_.RemoveOwner(host_);
  files_.clear();
  files_.reserve(filenames.size());
  for (size_t i = 0; i < filenames.size(); ++i) {
    uint64_t size = i < sizes.size()
                        ? sizes[i]
                        : 1024 * (1 + Fnv1a64(filenames[i]) % 8192);
    SharedFile f;
    f.filename = std::move(filenames[i]);
    f.size_bytes = size;
    f.file_id = MakeFileId(f.filename, f.size_bytes, host_);
    files_.push_back(std::move(f));
  }
  // A node answers queries over its own library regardless of role.
  index_.AddAll(files_, host_);
}

void GnutellaNode::AddUltrapeerNeighbor(sim::HostId neighbor) {
  assert(role_ == Role::kUltrapeer);
  up_neighbors_.push_back(neighbor);
}

void GnutellaNode::ConnectToUltrapeer(sim::HostId ultrapeer) {
  parents_.push_back(ultrapeer);
  RepublishTo(ultrapeer);
}

void GnutellaNode::RepublishTo(sim::HostId ultrapeer) {
  if (config_->leaf_publish == LeafPublishMode::kBloomFilter) {
    // QRP: summarize the library's keywords in a Bloom filter.
    std::unordered_set<std::string> terms;
    for (const auto& f : files_) {
      for (auto& kw : ExtractUniqueKeywords(f.filename)) {
        terms.insert(std::move(kw));
      }
    }
    BloomFilter bloom = BloomFilter::ForItems(
        std::max<size_t>(terms.size(), 8), kQrpFpRate);
    for (const auto& t : terms) bloom.Insert(t);
    size_t bytes = bloom.ByteSize();
    network_->Send(host_, ultrapeer,
                   sim::Message::Make<LeafBloomBody>(
                       kMsgLeafPublishBloom, "gnutella.publish", bytes,
                       LeafBloomBody{std::move(bloom), files_.size()}));
    return;
  }
  size_t bytes = 0;
  for (const auto& f : files_) bytes += f.filename.size() + 10;
  network_->Send(host_, ultrapeer,
                 sim::Message::Make<LeafPublishBody>(
                     kMsgLeafPublish, "gnutella.publish", bytes,
                     LeafPublishBody{files_}));
}

Guid GnutellaNode::StartQuery(const std::string& text,
                              ResultCallback callback) {
  ++metrics_->queries_started;
  Guid guid = rng_.Next();
  local_queries_[guid] = LocalQuery{std::move(callback), {}};
  auto query = std::make_shared<const ParsedQuery>(ParsedQuery::Parse(text));
  if (role_ == Role::kLeaf) {
    assert(!parents_.empty() && "leaf must be attached to an ultrapeer");
    size_t bytes = QueryWireBytes(*query);
    network_->Send(host_, parents_.front(),
                   sim::Message::Make<LeafQueryBody>(
                       kMsgLeafQuery, "gnutella.query", bytes,
                       LeafQueryBody{guid, std::move(query)}));
  } else {
    ExecuteQueryAsRoot(guid, query);
  }
  return guid;
}

void GnutellaNode::EndQuery(Guid guid) {
  local_queries_.erase(guid);
  auto it = dq_states_.find(guid);
  if (it != dq_states_.end()) {
    network_->executor()->Cancel(it->second.tick);
    dq_states_.erase(it);
  }
}

bool GnutellaNode::QueryActive(Guid guid) const {
  return dq_states_.count(guid) > 0;
}

void GnutellaNode::ExecuteQueryAsRoot(Guid guid, const QueryRef& query) {
  assert(role_ == Role::kUltrapeer);
  guids_.Remember(guid, sim::kInvalidHost);  // never re-process our own flood
  MatchLocally(guid, query, sim::kInvalidHost);

  if (config_->query_mode == QueryMode::kFlood) {
    FloodQuery(QueryBody{guid, config_->flood_ttl, 0, query},
               sim::kInvalidHost);
    return;
  }
  BeginDynamicQuery(guid, query);
}

void GnutellaNode::BeginDynamicQuery(Guid guid, const QueryRef& query) {
  // Dynamic querying: probe a few neighbors at TTL 1, then widen.
  DqState state;
  state.query = query;
  state.pending_neighbors = up_neighbors_;
  rng_.Shuffle(&state.pending_neighbors);
  size_t probes = std::min(kProbeNeighbors, state.pending_neighbors.size());
  for (size_t i = 0; i < probes; ++i) {
    SendQueryTo(state.pending_neighbors.back(), guid, query, kProbeTtl);
    state.pending_neighbors.pop_back();
  }
  state.tick = network_->executor()->ScheduleAfter(host_, 
      config_->dynamic.probe_wait, [this, guid]() { DynamicTick(guid); });
  dq_states_[guid] = std::move(state);
}

void GnutellaNode::DynamicTick(Guid guid) {
  auto it = dq_states_.find(guid);
  if (it == dq_states_.end()) return;
  DqState& state = it->second;
  if (state.results >= config_->dynamic.desired_results ||
      state.pending_neighbors.empty()) {
    dq_states_.erase(it);  // query stops widening; hits may still trickle in
    return;
  }
  // LimeWire heuristic, simplified: the fewer the results so far, the
  // deeper the next per-neighbor flood.
  uint8_t ttl;
  if (state.results == 0) {
    ttl = config_->dynamic.max_ttl;
  } else if (state.results < config_->dynamic.desired_results / 2) {
    ttl = std::max<uint8_t>(2, config_->dynamic.max_ttl - 1);
  } else {
    ttl = 1;
  }
  SendQueryTo(state.pending_neighbors.back(), guid, state.query, ttl);
  state.pending_neighbors.pop_back();
  state.tick = network_->executor()->ScheduleAfter(host_, 
      config_->dynamic.per_neighbor_wait,
      [this, guid]() { DynamicTick(guid); });
}

void GnutellaNode::FloodQuery(QueryBody q, sim::HostId exclude) {
  if (q.ttl == 0) {
    ++metrics_->ttl_expired;
    return;
  }
  // One immutable body, shared by every neighbor's copy of the message.
  size_t bytes = QueryWireBytes(*q.query);
  sim::Message msg = sim::Message::Make<QueryBody>(
      kMsgQuery, "gnutella.query", bytes, std::move(q));
  for (sim::HostId n : up_neighbors_) {
    if (n == exclude) continue;
    ++metrics_->query_messages;
    network_->Send(host_, n, msg);
  }
}

void GnutellaNode::SendQueryTo(sim::HostId neighbor, Guid guid,
                               const QueryRef& query, uint8_t ttl) {
  ++metrics_->query_messages;
  network_->Send(host_, neighbor,
                 sim::Message::Make<QueryBody>(kMsgQuery, "gnutella.query",
                                               QueryWireBytes(*query),
                                               QueryBody{guid, ttl, 0, query}));
}

size_t GnutellaNode::HitWireBytes(const QueryHitBody& h) {
  size_t bytes = 23 + 11;  // header + hit preamble (ip, port, speed, count)
  for (const auto& r : h.results) bytes += r.filename.size() + 18;
  return bytes;
}

void GnutellaNode::MatchLocally(Guid guid, const QueryRef& query,
                                sim::HostId reply_to) {
  // QRP: forward the query to leaves whose keyword Bloom filter matches
  // every term; they answer for themselves and the hit rides the normal
  // reverse path through us.
  if (!leaf_blooms_.empty() && !query->terms.empty()) {
    const sim::HostId* origin = guids_.Find(guid);
    sim::HostId origin_host = origin ? *origin : sim::kInvalidHost;
    for (const auto& [leaf, bloom] : leaf_blooms_) {
      if (leaf == origin_host) continue;  // don't echo to the asker
      if (!bloom.MayContainAll(query->terms)) continue;
      ++metrics_->qrp_leaf_forwards;
      network_->Send(host_, leaf,
                     sim::Message::Make<LeafForwardBody>(
                         kMsgLeafForwardQuery, "gnutella.query",
                         QueryWireBytes(*query), LeafForwardBody{guid, query}));
    }
  }

  auto matches = index_.Match(*query);
  if (matches.empty()) return;
  QueryHitBody hit;
  hit.guid = guid;
  hit.results.reserve(matches.size());
  for (const auto* e : matches) {
    hit.results.push_back(
        QueryResult{e->file_id, e->filename, e->size_bytes, e->owner});
  }
  if (reply_to == sim::kInvalidHost) {
    // We are the query root: deliver straight up the local path.
    DeliverOrForwardHit(guid, std::move(hit.results));
  } else {
    ++metrics_->query_hit_messages;
    network_->Send(host_, reply_to,
                   sim::Message::Make<QueryHitBody>(
                       kMsgQueryHit, "gnutella.hit", HitWireBytes(hit),
                       std::move(hit)));
  }
}

void GnutellaNode::DeliverOrForwardHit(Guid guid,
                                       std::vector<QueryResult> results) {
  // Count toward an active dynamic query rooted here.
  auto dq = dq_states_.find(guid);
  if (dq != dq_states_.end()) dq->second.results += results.size();

  auto local = local_queries_.find(guid);
  if (local != local_queries_.end()) {
    // Deduplicate replicas of the same result record (a leaf's file can be
    // indexed by several of its ultrapeers) and drop our own files, which
    // can echo back through a secondary parent ultrapeer.
    std::vector<QueryResult> fresh;
    for (auto& r : results) {
      if (r.owner == host_) continue;
      if (local->second.seen_file_ids.insert(r.file_id).second) {
        fresh.push_back(std::move(r));
      }
    }
    if (hit_observer_) {
      hit_observer_(guid, fresh, local->second.seen_file_ids.size());
    }
    if (!fresh.empty()) {
      metrics_->results_delivered += fresh.size();
      local->second.callback(fresh);
    }
    return;
  }

  const sim::HostId* route = guids_.Find(guid);
  if (route == nullptr || *route == sim::kInvalidHost) {
    return;  // route evicted or unknown: drop the hit
  }
  sim::HostId next_hop = *route;  // the observer below may remember GUIDs
  QueryHitBody hit{guid, std::move(results)};
  if (hit_observer_) {
    hit_observer_(guid, hit.results, 0);
  }
  ++metrics_->query_hit_messages;
  network_->Send(host_, next_hop,
                 sim::Message::Make<QueryHitBody>(kMsgQueryHit, "gnutella.hit",
                                                  HitWireBytes(hit),
                                                  std::move(hit)));
}

void GnutellaNode::BrowseHost(sim::HostId target, BrowseCallback callback) {
  uint64_t req_id = next_req_id_++;
  pending_browses_[req_id] = std::move(callback);
  if (!network_->Send(host_, target,
                      sim::Message::Make<BrowseReqBody>(
                          kMsgBrowseReq, "gnutella.browse", 16,
                          BrowseReqBody{req_id}))) {
    auto cb = std::move(pending_browses_[req_id]);
    pending_browses_.erase(req_id);
    cb(Status::Unavailable("browse target down"), {});
  }
}

void GnutellaNode::HandleMessage(sim::HostId from, const sim::Message& msg) {
  switch (msg.type) {
    case kMsgQuery: {
      const auto& q = msg.as<QueryBody>();
      if (guids_.Find(q.guid) != nullptr) {
        ++metrics_->duplicate_queries;
        return;
      }
      guids_.Remember(q.guid, from);
      MatchLocally(q.guid, q.query, from);
      if (q.ttl > 1) {
        FloodQuery(QueryBody{q.guid, static_cast<uint8_t>(q.ttl - 1),
                             static_cast<uint8_t>(q.hops + 1), q.query},
                   from);
      } else {
        ++metrics_->ttl_expired;
      }
      return;
    }
    case kMsgQueryHit: {
      const auto& h = msg.as<QueryHitBody>();
      DeliverOrForwardHit(h.guid, h.results);
      return;
    }
    case kMsgLeafQuery: {
      // A leaf asks us to run a query on its behalf.
      const auto& q = msg.as<LeafQueryBody>();
      if (guids_.Find(q.guid) != nullptr) return;
      guids_.Remember(q.guid, from);  // hits route back to the leaf
      MatchLocally(q.guid, q.query, sim::kInvalidHost);
      if (config_->query_mode == QueryMode::kFlood) {
        FloodQuery(QueryBody{q.guid, config_->flood_ttl, 0, q.query},
                   sim::kInvalidHost);
      } else {
        BeginDynamicQuery(q.guid, q.query);
      }
      return;
    }
    case kMsgLeafPublish: {
      const auto& pub = msg.as<LeafPublishBody>();
      if (std::find(leaf_hosts_.begin(), leaf_hosts_.end(), from) ==
          leaf_hosts_.end()) {
        leaf_hosts_.push_back(from);
      } else {
        index_.RemoveOwner(from);  // re-publish replaces the old list
      }
      index_.AddAll(pub.files, from);
      return;
    }
    case kMsgLeafPublishBloom: {
      const auto& pub = msg.as<LeafBloomBody>();
      if (std::find(leaf_hosts_.begin(), leaf_hosts_.end(), from) ==
          leaf_hosts_.end()) {
        leaf_hosts_.push_back(from);
      }
      leaf_blooms_.insert_or_assign(from, pub.keywords);
      return;
    }
    case kMsgLeafForwardQuery: {
      // Our ultrapeer forwarded a query our Bloom filter matched: answer
      // from the local library; an empty match is a Bloom false positive.
      const auto& fwd = msg.as<LeafForwardBody>();
      auto matches = index_.Match(*fwd.query);
      if (matches.empty()) {
        ++metrics_->qrp_false_positives;
        return;
      }
      QueryHitBody hit;
      hit.guid = fwd.guid;
      hit.results.reserve(matches.size());
      for (const auto* e : matches) {
        hit.results.push_back(
            QueryResult{e->file_id, e->filename, e->size_bytes, e->owner});
      }
      ++metrics_->query_hit_messages;
      network_->Send(host_, from,
                     sim::Message::Make<QueryHitBody>(
                         kMsgQueryHit, "gnutella.hit", HitWireBytes(hit),
                         std::move(hit)));
      return;
    }
    case kMsgBrowseReq: {
      const auto& req = msg.as<BrowseReqBody>();
      size_t bytes = 16;
      for (const auto& f : files_) bytes += f.filename.size() + 10;
      network_->Send(host_, from,
                     sim::Message::Make<BrowseReplyBody>(
                         kMsgBrowseReply, "gnutella.browse", bytes,
                         BrowseReplyBody{req.req_id, files_}));
      return;
    }
    case kMsgBrowseReply: {
      const auto& reply = msg.as<BrowseReplyBody>();
      auto it = pending_browses_.find(reply.req_id);
      if (it == pending_browses_.end()) return;
      BrowseCallback cb = std::move(it->second);
      pending_browses_.erase(it);
      cb(Status::OK(), reply.files);
      return;
    }
    case kMsgCrawlReq: {
      const auto& req = msg.as<CrawlRequestBody>();
      CrawlInfo info;
      info.host = host_;
      info.role = role_;
      info.ultrapeer_neighbors = up_neighbors_;
      info.leaf_count = leaf_hosts_.size();
      network_->Send(host_, from,
                     sim::Message::Make<CrawlReplyBody>(
                         kMsgCrawlReply, "gnutella.crawl",
                         16 + 6 * info.ultrapeer_neighbors.size(),
                         CrawlReplyBody{req.req_id, std::move(info)}));
      return;
    }
    default:
      return;
  }
}

}  // namespace pierstack::gnutella
