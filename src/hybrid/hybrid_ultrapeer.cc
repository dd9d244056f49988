#include "hybrid/hybrid_ultrapeer.h"

namespace pierstack::hybrid {

using gnutella::Guid;
using gnutella::QueryResult;

HybridUltrapeer::HybridUltrapeer(gnutella::GnutellaNode* ultrapeer,
                                 pier::PierNode* pier,
                                 const HybridConfig& config)
    : up_(ultrapeer),
      pier_(pier),
      config_(config),
      publisher_(pier),
      engine_(pier) {
  // The proxy: snoop the query-result traffic this ultrapeer forwards.
  up_->SetHitObserver([this](Guid guid,
                             const std::vector<QueryResult>& results,
                             size_t so_far) {
    OnSnoopedHits(guid, results, so_far);
  });
}

void HybridUltrapeer::OnSnoopedHits(Guid guid,
                                    const std::vector<QueryResult>& results,
                                    size_t results_so_far) {
  // Track per-GUID counts; `results_so_far` is authoritative for queries
  // rooted here, otherwise accumulate what we forward.
  size_t& count = snooped_counts_[guid];
  count = std::max(count + results.size(),
                   results_so_far > 0 ? results_so_far : size_t{0});
  if (count >= config_.qrs_threshold) return;
  // QRS: these results belong (so far) to a small result set — publish
  // them into the DHT as rare items, in one batch per snoop event. The
  // tuples land in PierNode's standing rehash queues, so consecutive snoop
  // events coalesce into shared PutBatch messages across calls too.
  std::vector<piersearch::FileToPublish> files;
  files.reserve(results.size());
  for (const auto& r : results) {
    if (!published_file_ids_.insert(r.file_id).second) continue;
    files.push_back(piersearch::FileToPublish{r.filename, r.size_bytes,
                                              r.owner, /*port=*/6346});
  }
  if (!files.empty()) {
    publisher_.PublishFiles(files, config_.publish);
    stats_.rare_results_published += files.size();
  }
  // Bound the bookkeeping.
  if (snooped_counts_.size() > 100000) {
    snooped_counts_.erase(snooped_counts_.begin());
  }
}

void HybridUltrapeer::Query(const std::string& text, HitCallback on_hit,
                            DoneCallback done) {
  ++stats_.hybrid_queries;
  sim::Executor* simulator = pier_->dht()->network()->executor();
  struct QueryState {
    size_t gnutella_results = 0;
    bool fell_back = false;
    bool finished = false;
  };
  auto state = std::make_shared<QueryState>();

  Guid guid = up_->StartQuery(
      text, [this, state, on_hit, simulator](
                const std::vector<QueryResult>& results) {
        if (state->fell_back) return;  // late hits after the DHT took over
        state->gnutella_results += results.size();
        for (const auto& r : results) {
          HybridHit h;
          h.file_id = r.file_id;
          h.filename = r.filename;
          h.size_bytes = r.size_bytes;
          h.address = r.owner;
          h.via_dht = false;
          h.arrival = simulator->now();
          on_hit(h);
        }
      });

  simulator->ScheduleAfter(
      pier_->dht()->host(), config_.gnutella_timeout,
      [this, state, guid, text, on_hit, done, simulator]() {
        if (state->finished) return;
        if (state->gnutella_results > 0) {
          ++stats_.gnutella_answered;
          state->finished = true;
          up_->EndQuery(guid);
          if (done) done();
          return;
        }
        // Timed out with nothing: re-issue through PIERSearch.
        state->fell_back = true;
        ++stats_.dht_reissued;
        up_->EndQuery(guid);
        engine_.Search(
            text, config_.search,
            [this, state, on_hit, done, simulator](
                Status s, std::vector<piersearch::SearchHit> hits,
                const pier::Completeness& completeness) {
              state->finished = true;
              // A timed-out or shed reissue can still carry hits; count
              // them as answered and track the inexact settle instead of
              // treating any non-OK status as a total miss.
              (void)s;
              if (!hits.empty()) ++stats_.dht_answered;
              if (!completeness.exact) ++stats_.dht_partial;
              for (const auto& r : hits) {
                HybridHit h;
                h.file_id = r.file_id;
                h.filename = r.filename;
                h.size_bytes = r.size_bytes;
                h.address = r.address;
                h.via_dht = true;
                h.arrival = simulator->now();
                on_hit(h);
              }
              if (done) done();
            });
      });
}

size_t HybridUltrapeer::PublishLocalFiles(
    const std::function<bool(const gnutella::KeywordIndex::Entry&)>&
        is_rare) {
  // Collect the whole rare set first so the publisher can coalesce all
  // same-keyword tuples into per-destination batch messages.
  std::vector<piersearch::FileToPublish> files;
  for (const auto* entry : up_->index().AllEntries()) {
    if (!is_rare(*entry)) continue;
    if (!published_file_ids_.insert(entry->file_id).second) continue;
    files.push_back(piersearch::FileToPublish{
        entry->filename, entry->size_bytes, entry->owner, /*port=*/6346});
  }
  publisher_.PublishFiles(files, config_.publish);
  stats_.rare_results_published += files.size();
  return files.size();
}

}  // namespace pierstack::hybrid
