// GnutellaNode: one participant of the unstructured network.
//
// Implements the protocol features the paper measures (Section 4):
//  * ultrapeer / leaf roles; leaves publish their file lists to ultrapeers
//    and query through them,
//  * TTL-scoped query flooding with GUID-based duplicate suppression,
//  * query hits routed back along the reverse query path,
//  * LimeWire-style dynamic querying (probe, then widen until enough
//    results arrive),
//  * BrowseHost (fetch a neighbor's shared files) and a crawler ping that
//    returns the neighbor list (Section 4.1's topology crawl).
//
// Per-hop state is flat: duplicate suppression and the reverse path share
// one GuidTable (open addressing, load <= 1/2, one probe per lookup) whose
// eviction is FIFO in remember order past its 65536-GUID capacity, exactly
// as a deque of remembered GUIDs would evict; the local match probes the
// KeywordIndex term table with each query term's parsed hash; and a flood
// hop builds one message whose immutable body every neighbor's copy shares.
//
// A query is parsed once, by StartQuery: every query body (leaf query,
// flood hop, QRP leaf forward) and the dynamic-query state carry a pointer
// to that one ParsedQuery, so no hop splits, lower-cases, copies or hashes
// query text. The wire charge is still the text (25 bytes of header and
// minimum speed plus the text's length): the parsed form is what every
// receiver would compute from the text, not something sent.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bloom.h"
#include "common/rng.h"
#include "common/status.h"
#include "gnutella/guid_table.h"
#include "gnutella/index.h"
#include "gnutella/types.h"

namespace pierstack::gnutella {

class GnutellaNode : public sim::Host {
 public:
  /// Receives each query-hit batch for a locally issued query.
  using ResultCallback = std::function<void(const std::vector<QueryResult>&)>;
  /// Observes query-hit batches this node delivers or forwards, with the
  /// running result count for that GUID (the hybrid proxy's snooping hook).
  using HitObserver = std::function<void(Guid, const std::vector<QueryResult>&,
                                         size_t results_so_far)>;
  using BrowseCallback =
      std::function<void(Status, std::vector<SharedFile>)>;

  GnutellaNode(sim::Network* network, Role role, const GnutellaConfig* config,
               GnutellaMetrics* metrics, uint64_t seed);
  ~GnutellaNode() override;

  Role role() const { return role_; }
  sim::HostId host() const { return host_; }

  // --- Library ------------------------------------------------------------

  /// Replaces this node's shared files; file ids are assigned here.
  void SetSharedFiles(std::vector<std::string> filenames,
                      std::vector<uint64_t> sizes = {});

  // --- Topology wiring (used by TopologyBuilder) ---------------------------

  /// Registers an ultrapeer neighbor edge (one direction; the builder adds
  /// both). Ultrapeers only.
  void AddUltrapeerNeighbor(sim::HostId neighbor);

  /// Leaf side of a leaf↔ultrapeer attachment: remembers the parent and
  /// publishes this leaf's file list to it.
  void ConnectToUltrapeer(sim::HostId ultrapeer);

  /// Re-sends this node's current file list to an already-connected parent
  /// (used after the library changed).
  void RepublishTo(sim::HostId ultrapeer);

  const std::vector<sim::HostId>& ultrapeer_neighbors() const {
    return up_neighbors_;
  }
  const std::vector<sim::HostId>& parent_ultrapeers() const {
    return parents_;
  }
  const std::vector<sim::HostId>& leaves() const { return leaf_hosts_; }

  // --- Querying -------------------------------------------------------------

  /// Issues a keyword query. On a leaf it is sent to the primary parent
  /// ultrapeer, which executes it (flooding or dynamic querying per
  /// config); on an ultrapeer it is executed directly. Hits stream into
  /// `callback` until EndQuery. Returns the query GUID.
  Guid StartQuery(const std::string& text, ResultCallback callback);

  /// Stops collecting results for a locally issued query.
  void EndQuery(Guid guid);

  /// True while the dynamic-query controller for `guid` is still widening.
  bool QueryActive(Guid guid) const;

  // --- Auxiliary protocol APIs ---------------------------------------------

  /// Fetches the files shared by `target` (Gnutella BrowseHost). Every node
  /// also answers gnutella::Crawler's neighbor-list requests.
  void BrowseHost(sim::HostId target, BrowseCallback callback);

  // --- Hybrid integration hooks ---------------------------------------------

  void SetHitObserver(HitObserver observer) {
    hit_observer_ = std::move(observer);
  }

  const KeywordIndex& index() const { return index_; }

  // --- sim::Host -------------------------------------------------------------
  void HandleMessage(sim::HostId from, const sim::Message& msg) override;

 private:
  using QueryRef = std::shared_ptr<const ParsedQuery>;

  struct QueryBody {
    Guid guid;
    uint8_t ttl;
    uint8_t hops;
    QueryRef query;
  };
  struct QueryHitBody {
    Guid guid;
    std::vector<QueryResult> results;
  };
  struct LeafQueryBody {
    Guid guid;
    QueryRef query;
  };
  struct LeafPublishBody {
    std::vector<SharedFile> files;
  };
  struct LeafBloomBody {
    BloomFilter keywords;
    size_t file_count;
  };
  struct LeafForwardBody {
    Guid guid;
    QueryRef query;
  };
  struct BrowseReqBody {
    uint64_t req_id;
  };
  struct BrowseReplyBody {
    uint64_t req_id;
    std::vector<SharedFile> files;
  };

  struct LocalQuery {
    ResultCallback callback;
    std::unordered_set<uint64_t> seen_file_ids;
  };

  /// Dynamic-query controller state (lives at the query-root ultrapeer).
  struct DqState {
    QueryRef query;
    size_t results = 0;
    std::vector<sim::HostId> pending_neighbors;  // not yet queried
    sim::EventId tick = sim::kInvalidEventId;
  };

  /// Every query message's wire charge: Gnutella header + min speed + text.
  static size_t QueryWireBytes(const ParsedQuery& q) {
    return 23 + 2 + q.text.size();
  }
  static size_t HitWireBytes(const QueryHitBody& h);

  void ExecuteQueryAsRoot(Guid guid, const QueryRef& query);
  void BeginDynamicQuery(Guid guid, const QueryRef& query);
  void FloodQuery(QueryBody q, sim::HostId exclude);
  void SendQueryTo(sim::HostId neighbor, Guid guid, const QueryRef& query,
                   uint8_t ttl);
  void MatchLocally(Guid guid, const QueryRef& query, sim::HostId reply_to);
  void DeliverOrForwardHit(Guid guid, std::vector<QueryResult> results);
  void DynamicTick(Guid guid);

  sim::Network* network_;
  Role role_;
  const GnutellaConfig* config_;
  GnutellaMetrics* metrics_;
  sim::HostId host_;
  Rng rng_;

  std::vector<SharedFile> files_;
  KeywordIndex index_;

  std::vector<sim::HostId> up_neighbors_;  // ultrapeer ↔ ultrapeer
  std::vector<sim::HostId> parents_;       // leaf → ultrapeers
  std::vector<sim::HostId> leaf_hosts_;    // ultrapeer → leaves
  // QRP mode: per-leaf keyword Bloom filters instead of full file lists.
  std::unordered_map<sim::HostId, BloomFilter> leaf_blooms_;

  // Every GUID this node has processed, with the hop its query came from
  // (kInvalidHost for queries rooted here): duplicate suppression and the
  // reverse path for hits. FIFO-evicted past its capacity.
  GuidTable guids_;

  std::unordered_map<Guid, LocalQuery> local_queries_;
  std::unordered_map<Guid, DqState> dq_states_;

  uint64_t next_req_id_ = 1;
  std::unordered_map<uint64_t, BrowseCallback> pending_browses_;

  HitObserver hit_observer_;
};

}  // namespace pierstack::gnutella
