#include "pier/plan_exec.h"

#include <algorithm>
#include <memory>

#include "pier/node.h"

namespace pierstack::pier {

size_t ExecStage::WireSize() const {
  return ns.size() + key.WireSize() + filter.WireSize() +
         payload_cols.size() + 6;
}

namespace {

using NodeKind = PlanNode::Kind;

bool IsUnaryFinisher(NodeKind k) {
  return k == NodeKind::kFilter || k == NodeKind::kProject ||
         k == NodeKind::kGroupAggregate || k == NodeKind::kTopK ||
         k == NodeKind::kLimit || k == NodeKind::kFetchJoin;
}

ExecStage StageFromScan(const PlanNode& scan) {
  ExecStage stage;
  stage.ns = scan.ns;
  stage.key = scan.key;
  stage.key_col = scan.key_col;
  stage.join_col = scan.join_col;
  return stage;
}

/// Compiles a scan possibly dressed with Filters (and, when
/// `allow_payload`, one Project) into a distributed stage. `idx` points at
/// the topmost dressing node.
Result<ExecStage> CompileStage(const QueryPlan& plan, uint32_t idx,
                               bool allow_payload) {
  std::vector<uint32_t> dressing;  // root -> leaf order
  while (plan.nodes[idx].kind == NodeKind::kFilter ||
         plan.nodes[idx].kind == NodeKind::kProject) {
    if (plan.nodes[idx].children.size() != 1) {
      return Status::InvalidArgument("malformed unary plan node");
    }
    dressing.push_back(idx);
    idx = plan.nodes[idx].children[0];
  }
  if (plan.nodes[idx].kind != NodeKind::kIndexScan) {
    return Status::InvalidArgument(
        "distributed stage input must be an IndexScan");
  }
  ExecStage stage = StageFromScan(plan.nodes[idx]);
  std::vector<Expr> filters;
  bool projected = false;
  // Execution order is leaf-up: reverse of the walk.
  for (auto it = dressing.rbegin(); it != dressing.rend(); ++it) {
    const PlanNode& n = plan.nodes[*it];
    if (n.kind == NodeKind::kFilter) {
      if (projected) {
        return Status::InvalidArgument(
            "stage filter above stage projection is unsupported");
      }
      filters.push_back(n.expr);
    } else {
      if (!allow_payload || projected) {
        return Status::InvalidArgument(
            "only the chain's first stage may project a payload");
      }
      stage.payload_cols.assign(n.cols.begin(), n.cols.end());
      projected = true;
    }
  }
  if (!filters.empty()) stage.filter = Expr::And(std::move(filters));
  return stage;
}

}  // namespace

bool RowCap::Admit(const Tuple& row) {
  if (cap_ == StagedQuery::Cap::kNone) return true;
  if (kept_ >= limit_) return false;
  if (cap_ == StagedQuery::Cap::kJoinKeys) {
    const Value& key = row.at(0);
    uint64_t h = key.Hash();
    bool seen = false;
    keys_.ForEachMatch(h, [&](const Tuple& kept) {
      seen = seen || kept.at(0) == key;
    });
    if (seen) return false;
    keys_.Insert(h, row);
  }
  ++kept_;
  return true;
}

void RowCap::Apply(std::vector<Tuple>* rows) {
  if (cap_ == StagedQuery::Cap::kNone) return;
  size_t n = 0;
  for (size_t i = 0; i < rows->size(); ++i) {
    if (!Admit((*rows)[i])) continue;
    if (n != i) (*rows)[n] = std::move((*rows)[i]);
    ++n;
  }
  rows->resize(n);
}

Result<CompiledPlan> CompilePlan(const QueryPlan& plan) {
  if (plan.empty()) return Status::InvalidArgument("empty plan");
  if (plan.root >= plan.nodes.size()) {
    return Status::InvalidArgument("plan root out of range");
  }
  // Every walk below descends to strictly smaller node indices.
  if (!plan.ChildrenPrecedeParents()) {
    return Status::InvalidArgument("plan child does not precede its parent");
  }
  CompiledPlan out;

  // Phase 1: peel the unary finishers off the root until the distributed
  // portion (a join spine or a dressed scan). Nodes above the FetchJoin
  // become tuple_ops, the rest entry-side candidates.
  std::vector<uint32_t> pending;  // root -> down order
  std::vector<uint32_t> above_fetch;
  uint32_t idx = plan.root;
  while (IsUnaryFinisher(plan.nodes[idx].kind)) {
    const PlanNode& n = plan.nodes[idx];
    if (n.children.size() != 1) {
      return Status::InvalidArgument("malformed unary plan node");
    }
    if (n.kind == NodeKind::kFetchJoin) {
      if (out.fetch) {
        return Status::InvalidArgument("multiple FetchJoin operators");
      }
      out.fetch = true;
      out.fetch_ns = n.ns;
      out.fetch_key_col = n.key_col;
      above_fetch = std::move(pending);
      pending.clear();
    } else {
      pending.push_back(idx);
    }
    idx = n.children[0];
    // A Filter/Project adjacent to a single scan is stage dressing, not a
    // finisher — stop peeling once only dressing-compatible nodes remain
    // below. (Detected inside CompileStage; here we just stop at the scan
    // or join.)
    if (plan.nodes[idx].kind == NodeKind::kIndexScan ||
        plan.nodes[idx].kind == NodeKind::kRehashJoin) {
      break;
    }
  }

  // Phase 2: compile the distributed portion.
  if (plan.nodes[idx].kind == NodeKind::kRehashJoin) {
    // Left-deep join spine: right inputs are later stages, the leftmost
    // leaf is stage 0 (the only stage that contributes entry payload).
    std::vector<uint32_t> right_tops;
    while (plan.nodes[idx].kind == NodeKind::kRehashJoin) {
      if (plan.nodes[idx].children.size() != 2) {
        return Status::InvalidArgument("RehashJoin needs two inputs");
      }
      right_tops.push_back(plan.nodes[idx].children[1]);
      idx = plan.nodes[idx].children[0];
    }
    auto first = CompileStage(plan, idx, /*allow_payload=*/true);
    if (!first.ok()) return first.status();
    out.staged.stages.push_back(std::move(first.value()));
    for (auto it = right_tops.rbegin(); it != right_tops.rend(); ++it) {
      auto stage = CompileStage(plan, *it, /*allow_payload=*/false);
      if (!stage.ok()) return stage.status();
      out.staged.stages.push_back(std::move(stage.value()));
    }
  } else {
    // Single-site shape: the dressing below the peeled finishers (if the
    // walk stopped early) plus whatever Filter/Project prefix of the
    // peeled list sits directly above the scan executes AT the site.
    // Execution order of `pending` is reversed (leaf-up).
    std::vector<uint32_t> exec_order(pending.rbegin(), pending.rend());
    size_t pushdown = 0;
    bool projected = false;
    while (pushdown < exec_order.size()) {
      NodeKind k = plan.nodes[exec_order[pushdown]].kind;
      if (k == NodeKind::kFilter && !projected) {
        ++pushdown;
      } else if (k == NodeKind::kProject && !projected) {
        projected = true;
        ++pushdown;
      } else {
        break;
      }
    }
    // CompileStage re-walks from the topmost pushed-down node.
    uint32_t stage_top = pushdown > 0 ? exec_order[pushdown - 1] : idx;
    auto stage = CompileStage(plan, stage_top, /*allow_payload=*/true);
    if (!stage.ok()) return stage.status();
    out.staged.stages.push_back(std::move(stage.value()));
    // The finishers that did not push down, back in root->down order.
    std::vector<uint32_t> rest(
        exec_order.begin() + static_cast<ptrdiff_t>(pushdown),
        exec_order.end());
    pending.assign(rest.rbegin(), rest.rend());
  }

  // Phase 3: the finisher lists, in execution order (reversed).
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    out.entry_ops.push_back(plan.nodes[*it]);
  }
  for (auto it = above_fetch.rbegin(); it != above_fetch.rend(); ++it) {
    out.tuple_ops.push_back(plan.nodes[*it]);
  }

  // Only an OUTERMOST Limit is the plan's answer cap — hoisted so the
  // staged engine can truncate at the last stage and the fetch leg can
  // bound its key set. Inner Limits keep their place in the pipeline.
  std::vector<PlanNode>* last_ops =
      out.fetch ? &out.tuple_ops : &out.entry_ops;
  if (!last_ops->empty() && last_ops->back().kind == NodeKind::kLimit) {
    out.limit = static_cast<size_t>(last_ops->back().n);
    last_ops->pop_back();
  }
  out.staged.limit = out.limit;
  if (!out.entry_ops.empty() || !out.tuple_ops.empty()) {
    out.staged.cap = StagedQuery::Cap::kNone;
  } else if (out.fetch) {
    out.staged.cap = StagedQuery::Cap::kJoinKeys;
  }
  return out;
}

std::vector<Tuple> ApplyFinishers(std::vector<Tuple> rows,
                                  const std::vector<PlanNode>& finishers) {
  for (const PlanNode& n : finishers) {
    switch (n.kind) {
      case NodeKind::kFilter:
        rows.erase(std::remove_if(rows.begin(), rows.end(),
                                  [&n](const Tuple& row) {
                                    return !n.expr.Matches(row);
                                  }),
                   rows.end());
        break;
      case NodeKind::kProject:
        for (Tuple& row : rows) {
          std::vector<Value> vals;
          vals.reserve(n.cols.size());
          for (uint32_t c : n.cols) {
            vals.push_back(c < row.arity() ? row.at(c) : Value());
          }
          row = Tuple(std::move(vals));
        }
        break;
      case NodeKind::kGroupAggregate:
        rows = GroupAggregate(rows, n.cols, n.aggs);
        break;
      case NodeKind::kTopK:
        rows = TopK(std::move(rows), n.sort_col, static_cast<size_t>(n.n),
                    n.descending);
        break;
      case NodeKind::kLimit:
        if (rows.size() > n.n) rows.resize(static_cast<size_t>(n.n));
        break;
      default:  // CompilePlan hands over finisher kinds only
        break;
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// PierNode::ExecutePlan — the generic plan entry point (declared in
// node.h; lives here with the rest of the plan machinery).
// ---------------------------------------------------------------------------

void PierNode::ExecutePlan(QueryPlan plan, PlanCallback callback,
                           sim::SimTime timeout) {
  auto compiled = CompilePlan(plan);
  if (!compiled.ok()) {
    callback(compiled.status(), {}, Completeness{});
    return;
  }
  ++metrics_->plans_executed;
  auto cp = std::make_shared<const CompiledPlan>(std::move(compiled.value()));
  auto staged = std::make_shared<const StagedQuery>(cp->staged);
  sim::Executor* simulator = dht_->network()->executor();
  sim::SimTime deadline = simulator->now() + timeout;
  // The plan is the top-level query: it counts its own (merged)
  // completeness exactly once at whichever resolution path fires below.
  ExecuteStaged(
      std::move(staged),
      [this, cp, callback = std::move(callback), deadline](
          Status s, std::vector<Tuple> rows,
          const Completeness& stage_c) mutable {
        Completeness plan_c = stage_c;
        // A failed staged leg still carries whatever rows arrived — the
        // completeness record labels the gap.
        rows = ApplyFinishers(std::move(rows), cp->entry_ops);
        if (!cp->fetch) {
          if (rows.size() > cp->limit) rows.resize(cp->limit);
          if (!plan_c.exact) ++metrics_->partial_results;
          callback(std::move(s), std::move(rows), plan_c);
          return;
        }
        // Fetch leg: resolve the surviving rows' distinct join keys
        // (column 0) through one owner-coalesced fetch, the first `limit`
        // of them unless a post-fetch finisher needs every candidate.
        RowCap distinct(StagedQuery::Cap::kJoinKeys,
                        cp->tuple_ops.empty() ? cp->limit : SIZE_MAX);
        std::vector<Value> keys;
        keys.reserve(rows.size());
        for (const Tuple& r : rows) {
          if (distinct.full()) break;
          if (r.arity() > 0 && distinct.Admit(r)) {
            keys.push_back(r.at(0).Materialize());
          }
        }
        if (keys.empty()) {
          if (!plan_c.exact) ++metrics_->partial_results;
          callback(std::move(s), {}, plan_c);
          return;
        }
        sim::Executor* simulator = dht_->network()->executor();
        // The fetch leg runs inside the plan's remaining deadline budget:
        // a dead Item owner must not hang the query past its timeout.
        auto done = std::make_shared<bool>(false);
        sim::SimTime remaining =
            deadline > simulator->now() ? deadline - simulator->now() : 1;
        sim::EventId watchdog = simulator->ScheduleAfter(
            dht_->host(), remaining,
            [metrics = metrics_, done, callback, plan_c]() mutable {
              if (*done) return;
              *done = true;
              // The fetch leg never reported: the whole leg is missing.
              plan_c.exact = false;
              plan_c.coverage_fraction = 0.0;
              ++metrics->partial_results;
              callback(Status::TimedOut("plan item fetch"), {}, plan_c);
            });
        FetchManyInternal(
            cp->fetch_ns, cp->fetch_key_col, std::move(keys),
            [this, cp, callback, done, watchdog, plan_c,
             staged_status = std::move(s)](
                Status fs, std::vector<Tuple> tuples,
                const Completeness& fetch_c) mutable {
              if (*done) return;  // watchdog already resolved the query
              *done = true;
              dht_->network()->executor()->Cancel(watchdog);
              // Best-effort, like the per-id loop this generalizes: a dead
              // owner must not zero out what the others delivered — the
              // merged completeness record carries the fetch leg's gap.
              (void)fs;
              plan_c.Merge(fetch_c);
              tuples = ApplyFinishers(std::move(tuples), cp->tuple_ops);
              if (tuples.size() > cp->limit) tuples.resize(cp->limit);
              if (!plan_c.exact) ++metrics_->partial_results;
              callback(staged_status.ok() ? Status::OK()
                                          : std::move(staged_status),
                       std::move(tuples), plan_c);
            },
            /*top_level=*/false);
      },
      timeout);
}

}  // namespace pierstack::pier
