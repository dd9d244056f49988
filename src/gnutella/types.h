// Shared Gnutella protocol types: files, queries, results, configuration.
//
// Models the Gnutella 0.6 network as described in Section 4 of the paper:
// ultrapeer/leaf roles, TTL-scoped flooding with GUID duplicate
// suppression, reverse-path query-hit routing, dynamic querying, leaf file
// publishing and the BrowseHost API.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/executor.h"
#include "sim/network.h"

namespace pierstack::gnutella {

/// Gnutella message GUID (the real protocol uses 16 bytes; 8 suffice for
/// simulation and are charged as 16 on the wire).
using Guid = uint64_t;

/// A file shared by some node.
struct SharedFile {
  uint64_t file_id = 0;  ///< Hash of (filename, size, owner) — see MakeFileId.
  std::string filename;
  uint64_t size_bytes = 0;
};

/// One entry of a query result set.
struct QueryResult {
  uint64_t file_id = 0;
  std::string filename;
  uint64_t size_bytes = 0;
  sim::HostId owner = sim::kInvalidHost;  ///< Node sharing the file.
};

/// Node role. Per the paper: leaves publish their file lists to ultrapeers
/// and issue queries through them; ultrapeers answer and flood on their
/// behalf.
enum class Role {
  kLeaf,
  kUltrapeer,
};

/// How an ultrapeer disseminates queries.
enum class QueryMode {
  /// Plain flooding: forward to every ultrapeer neighbor with a fixed TTL.
  kFlood,
  /// LimeWire-style dynamic querying: probe, then widen neighbor by
  /// neighbor until enough results arrived (Section 4, "dynamic querying").
  kDynamic,
};

/// Dynamic querying knobs (defaults follow LimeWire's published design).
struct DynamicQueryConfig {
  sim::SimTime probe_wait = 2400 * sim::kMillisecond;
  sim::SimTime per_neighbor_wait = 2400 * sim::kMillisecond;
  size_t desired_results = 150;  ///< Stop once this many results arrived.
  uint8_t max_ttl = 3;
};

/// How leaves make their libraries searchable at their ultrapeers.
enum class LeafPublishMode {
  /// Publish the full file list; the ultrapeer answers on the leaf's
  /// behalf (the paper's baseline model).
  kFullList,
  /// Publish a Bloom filter of the library's keywords (the paper's
  /// footnote on newer LimeWire / query-routing): the ultrapeer forwards
  /// matching queries to the leaf, which answers itself. Cheaper to
  /// publish; costs per-query forwards and false positives.
  kBloomFilter,
};

/// Network-wide protocol configuration.
struct GnutellaConfig {
  size_t max_leaves_per_ultrapeer = 30;  ///< Paper: 30 (new) or 75 (old).
  size_t ultrapeer_degree = 8;           ///< Paper: 32 (new) or 6 (old).
  size_t ultrapeers_per_leaf = 3;        ///< LimeWire default.
  QueryMode query_mode = QueryMode::kFlood;
  uint8_t flood_ttl = 2;                 ///< TTL in kFlood mode.
  DynamicQueryConfig dynamic;
  LeafPublishMode leaf_publish = LeafPublishMode::kFullList;
};

/// Aggregate protocol counters for one simulated network. One instance is
/// shared by every node, so the fields are RelaxedCounters: node handlers
/// on different shards bump them concurrently, and the totals are exact
/// by the time the sharded executor reaches a barrier.
struct GnutellaMetrics {
  RelaxedCounter queries_started = 0;
  RelaxedCounter query_messages = 0;      ///< Query forwards on the wire.
  RelaxedCounter query_hit_messages = 0;  ///< Hit messages (incl. reverse-path hops).
  RelaxedCounter duplicate_queries = 0;   ///< Floods suppressed by GUID.
  RelaxedCounter ttl_expired = 0;
  RelaxedCounter results_delivered = 0;   ///< Result records handed to query roots.
  RelaxedCounter qrp_leaf_forwards = 0;   ///< Queries forwarded UP → leaf (QRP).
  RelaxedCounter qrp_false_positives = 0; ///< Forwards that matched nothing.
};

/// Stable file id: hash of identity fields. Two replicas of the same
/// content on different hosts get different fileIDs (they are distinct
/// "results" under the paper's QR metric) but share the filename.
uint64_t MakeFileId(const std::string& filename, uint64_t size_bytes,
                    sim::HostId owner);

/// Wire message discriminators (sim::Message::type) of the Gnutella
/// protocol. Shared here because the crawler speaks the crawl subset
/// without being a GnutellaNode.
enum GnutellaMsg : int {
  kMsgQuery = 1,
  kMsgQueryHit = 2,
  kMsgLeafQuery = 3,
  kMsgLeafPublish = 4,
  kMsgBrowseReq = 5,
  kMsgBrowseReply = 6,
  kMsgCrawlReq = 7,
  kMsgCrawlReply = 8,
  kMsgLeafPublishBloom = 9,
  kMsgLeafForwardQuery = 10,
};

/// What a node reports to the crawler (the paper's neighbor-list API).
struct CrawlInfo {
  sim::HostId host = sim::kInvalidHost;
  Role role = Role::kLeaf;
  std::vector<sim::HostId> ultrapeer_neighbors;
  size_t leaf_count = 0;
};

/// Crawl request/response wire bodies.
struct CrawlRequestBody {
  uint64_t req_id;
};
struct CrawlReplyBody {
  uint64_t req_id;
  CrawlInfo info;
};

}  // namespace pierstack::gnutella
