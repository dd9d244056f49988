#include "pier/plan_exec.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

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

Result<LocalOpSpec> ToLocalOp(const PlanNode& n) {
  LocalOpSpec op;
  switch (n.kind) {
    case NodeKind::kFilter:
      op.kind = LocalOpSpec::Kind::kFilter;
      op.expr = n.expr;
      return op;
    case NodeKind::kProject:
      op.kind = LocalOpSpec::Kind::kProject;
      op.cols.assign(n.cols.begin(), n.cols.end());
      return op;
    case NodeKind::kGroupAggregate:
      op.kind = LocalOpSpec::Kind::kGroupAggregate;
      op.cols.assign(n.cols.begin(), n.cols.end());
      op.aggs = n.aggs;
      return op;
    case NodeKind::kTopK:
      op.kind = LocalOpSpec::Kind::kTopK;
      op.sort_col = n.sort_col;
      op.n = static_cast<size_t>(n.n);
      op.descending = n.descending;
      return op;
    case NodeKind::kLimit:
      op.kind = LocalOpSpec::Kind::kLimit;
      op.n = static_cast<size_t>(n.n);
      return op;
    default:
      return Status::InvalidArgument("operator cannot run as a finisher");
  }
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

Result<CompiledPlan> CompilePlan(const QueryPlan& plan) {
  if (plan.empty()) return Status::InvalidArgument("empty plan");
  if (plan.root >= plan.nodes.size()) {
    return Status::InvalidArgument("plan root out of range");
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

  // Phase 3: materialize the finisher lists (execution order = reversed).
  // Limits stay positional — a Limit below a TopK must cut the input the
  // TopK sees, not the final answer.
  auto emit = [&](const std::vector<uint32_t>& list,
                  std::vector<LocalOpSpec>* ops) -> Status {
    for (auto it = list.rbegin(); it != list.rend(); ++it) {
      auto op = ToLocalOp(plan.nodes[*it]);
      if (!op.ok()) return op.status();
      ops->push_back(std::move(op.value()));
    }
    return Status::OK();
  };
  Status s = emit(pending, &out.entry_ops);
  if (!s.ok()) return s;
  s = emit(above_fetch, &out.tuple_ops);
  if (!s.ok()) return s;

  // Only an OUTERMOST Limit is the plan's answer cap — hoisted so the
  // staged engine can truncate at the last stage and the fetch leg can
  // bound its key set. Inner Limits keep their place in the pipeline.
  std::vector<LocalOpSpec>* last_ops =
      out.fetch ? &out.tuple_ops : &out.entry_ops;
  if (!last_ops->empty() &&
      last_ops->back().kind == LocalOpSpec::Kind::kLimit) {
    out.limit = last_ops->back().n;
    last_ops->pop_back();
  }
  out.staged.limit = out.limit;
  out.staged.cap_results = out.entry_ops.empty() && out.tuple_ops.empty();
  return out;
}

std::vector<Tuple> ApplyLocalOps(std::vector<Tuple> input,
                                 const std::vector<LocalOpSpec>& ops) {
  if (ops.empty()) return input;
  std::unique_ptr<Operator> tree =
      std::make_unique<VectorScan>(std::move(input));
  for (const LocalOpSpec& op : ops) {
    switch (op.kind) {
      case LocalOpSpec::Kind::kFilter:
        tree = std::make_unique<Selection>(
            std::move(tree),
            [expr = op.expr](const Tuple& t) { return expr.Matches(t); });
        break;
      case LocalOpSpec::Kind::kProject:
        tree = std::make_unique<Projection>(std::move(tree), op.cols);
        break;
      case LocalOpSpec::Kind::kGroupAggregate:
        tree = std::make_unique<GroupByAggregate>(std::move(tree), op.cols,
                                                  op.aggs);
        break;
      case LocalOpSpec::Kind::kTopK:
        tree = std::make_unique<TopK>(std::move(tree), op.sort_col, op.n,
                                      op.descending);
        break;
      case LocalOpSpec::Kind::kLimit:
        tree = std::make_unique<Limit>(std::move(tree), op.n);
        break;
    }
  }
  return Collect(tree.get());
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
          Status s, std::vector<JoinResultEntry> entries,
          const Completeness& stage_c) mutable {
        Completeness plan_c = stage_c;
        // A failed staged leg still carries whatever entries arrived — the
        // completeness record labels the gap instead of the old behavior
        // of zeroing out the partial answer on TimedOut.
        std::vector<Tuple> rows;
        rows.reserve(entries.size());
        for (JoinResultEntry& e : entries) {
          rows.push_back(Tuple::Concat(
              Tuple(std::vector<Value>{std::move(e.join_key)}), e.payload));
        }
        rows = ApplyLocalOps(std::move(rows), cp->entry_ops);
        if (!cp->fetch) {
          if (rows.size() > cp->limit) rows.resize(cp->limit);
          if (!plan_c.exact) ++metrics_->partial_results;
          callback(std::move(s), std::move(rows), plan_c);
          return;
        }
        // Fetch leg: resolve the surviving join keys (column 0) through
        // one owner-coalesced fetch. Dedupe before truncating (duplicate
        // keys must not evict distinct results at the cap); skip the
        // truncation when a post-fetch finisher needs every candidate.
        std::vector<Value> keys;
        keys.reserve(rows.size());
        std::unordered_map<uint64_t, std::vector<size_t>> seen;
        for (const Tuple& r : rows) {
          if (r.arity() == 0) continue;
          const Value& k = r.at(0);
          std::vector<size_t>& bucket = seen[k.Hash()];
          bool dup = false;
          for (size_t i : bucket) {
            if (keys[i] == k) {
              dup = true;
              break;
            }
          }
          if (dup) continue;
          bucket.push_back(keys.size());
          keys.push_back(k.Materialize());
        }
        if (cp->tuple_ops.empty() && keys.size() > cp->limit) {
          keys.resize(cp->limit);
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
              tuples = ApplyLocalOps(std::move(tuples), cp->tuple_ops);
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
