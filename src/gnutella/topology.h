// GnutellaNetwork: builds and owns a whole simulated Gnutella deployment.
//
// Reproduces the topology the paper's crawl observed (Section 4.1):
// ultrapeers form a random graph of configurable degree (32 for new
// LimeWire, 6 for old), each supporting up to 30 (or 75) leaves; leaves
// attach to a few ultrapeers and publish their file lists.
#pragma once

#include <memory>
#include <vector>

#include "gnutella/node.h"

namespace pierstack::gnutella {

/// Parameters of a generated deployment.
struct TopologyConfig {
  size_t num_ultrapeers = 200;
  size_t num_leaves = 2000;
  GnutellaConfig protocol;
  uint64_t seed = 1;
};

/// Owns the nodes of a simulated Gnutella network.
class GnutellaNetwork {
 public:
  /// Creates nodes and wires the topology. Leaf file publishing happens via
  /// protocol messages: call `network->executor()->Run()` (or RunFor) once
  /// after construction — and after assigning files — to settle.
  GnutellaNetwork(sim::Network* network, const TopologyConfig& config);

  size_t num_ultrapeers() const { return ultrapeers_.size(); }
  size_t num_leaves() const { return leaves_.size(); }
  size_t size() const { return ultrapeers_.size() + leaves_.size(); }

  GnutellaNode* ultrapeer(size_t i) { return ultrapeers_[i].get(); }
  GnutellaNode* leaf(size_t i) { return leaves_[i].get(); }

  /// Node by flat index: ultrapeers first, then leaves.
  GnutellaNode* node(size_t i) {
    return i < ultrapeers_.size() ? ultrapeers_[i].get()
                                  : leaves_[i - ultrapeers_.size()].get();
  }

  /// The node owning a given sim host id, or nullptr.
  GnutellaNode* by_host(sim::HostId host) const;

  GnutellaMetrics& metrics() { return metrics_; }
  const TopologyConfig& config() const { return config_; }

  /// Re-sends every leaf's library to each of its ultrapeers, in leaf
  /// order — the step after a bulk SetSharedFiles pass. Ultrapeers need no
  /// step: SetSharedFiles already indexed their own libraries.
  void PublishAllFiles();

 private:
  sim::Network* network_;
  TopologyConfig config_;
  GnutellaMetrics metrics_;
  std::vector<std::unique_ptr<GnutellaNode>> ultrapeers_;
  std::vector<std::unique_ptr<GnutellaNode>> leaves_;
  std::vector<GnutellaNode*> by_host_;  // dense map HostId -> node
};

}  // namespace pierstack::gnutella
