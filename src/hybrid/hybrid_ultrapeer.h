// HybridUltrapeer: the Figure 17 component stack on one node —
// a LimeWire-style ultrapeer, the Gnutella proxy, and a PIERSearch client
// (publisher + search engine) attached to a DHT node.
//
// Wiring (paper Section 7):
//  * the ultrapeer snoops queries and query results from its regular
//    Gnutella traffic;
//  * results belonging to queries with fewer than `qrs_threshold` results
//    are identified as rare (the QRS scheme) and handed to the publisher;
//  * leaf queries that return no results within `gnutella_timeout` are
//    re-issued through PIERSearch.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_set>

#include "gnutella/node.h"
#include "piersearch/publisher.h"
#include "piersearch/search_engine.h"

namespace pierstack::hybrid {

struct HybridConfig {
  /// Reissue via PIERSearch when Gnutella returned nothing for this long.
  sim::SimTime gnutella_timeout = 30 * sim::kSecond;
  /// QRS rare-item rule: results of queries with fewer results than this
  /// are published (paper: 20).
  size_t qrs_threshold = 20;
  piersearch::PublishOptions publish;
  piersearch::SearchOptions search;
};

/// Counters for one hybrid ultrapeer.
struct HybridStats {
  uint64_t hybrid_queries = 0;       ///< Queries issued through the proxy.
  uint64_t gnutella_answered = 0;    ///< Answered by flooding in time.
  uint64_t dht_reissued = 0;         ///< Fell back to PIERSearch.
  uint64_t dht_answered = 0;         ///< PIERSearch returned >= 1 result.
  uint64_t dht_partial = 0;          ///< Reissues that settled inexact.
  uint64_t rare_results_published = 0;  ///< QRS-published result records.
};

/// Combined result stream of a hybrid query.
struct HybridHit {
  uint64_t file_id = 0;
  std::string filename;
  uint64_t size_bytes = 0;
  uint32_t address = 0;
  bool via_dht = false;
  sim::SimTime arrival = 0;
};

class HybridUltrapeer {
 public:
  /// Hits stream in as they arrive; `done` fires when the query settles
  /// (Gnutella answered, or the DHT fallback completed).
  using HitCallback = std::function<void(const HybridHit&)>;
  using DoneCallback = std::function<void()>;

  HybridUltrapeer(gnutella::GnutellaNode* ultrapeer, pier::PierNode* pier,
                  const HybridConfig& config);

  /// Issues a query as one of this ultrapeer's leaves would: Gnutella
  /// first, PIERSearch on timeout.
  void Query(const std::string& text, HitCallback on_hit,
             DoneCallback done = nullptr);

  /// Proactively publishes this ultrapeer's own and leaf-published files
  /// that `is_rare` accepts — the full-deployment variant where each
  /// ultrapeer indexes rare files for itself and its leaves.
  size_t PublishLocalFiles(
      const std::function<bool(const gnutella::KeywordIndex::Entry&)>&
          is_rare);

  gnutella::GnutellaNode* ultrapeer() { return up_; }
  piersearch::Publisher& publisher() { return publisher_; }
  piersearch::SearchEngine& search_engine() { return engine_; }
  const HybridStats& stats() const { return stats_; }

 private:
  void OnSnoopedHits(gnutella::Guid guid,
                     const std::vector<gnutella::QueryResult>& results,
                     size_t results_so_far);

  gnutella::GnutellaNode* up_;
  pier::PierNode* pier_;
  HybridConfig config_;
  piersearch::Publisher publisher_;
  piersearch::SearchEngine engine_;
  HybridStats stats_;

  /// Running result counts for snooped GUIDs (QRS bookkeeping).
  std::map<gnutella::Guid, size_t> snooped_counts_;
  std::unordered_set<uint64_t> published_file_ids_;
};

}  // namespace pierstack::hybrid
