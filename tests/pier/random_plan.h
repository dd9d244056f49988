// Seeded generators of random Values, Expr trees and QueryPlans, shared by
// the plan wire tests and the decoder fuzz tests.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pier/plan.h"

namespace pierstack::pier {

inline Value RandomValue(Rng* rng) {
  switch (rng->NextBelow(4)) {
    case 0:
      return Value(rng->Next());
    case 1:
      return Value(static_cast<int64_t>(rng->Next()) >> 3);
    case 2:
      return Value(rng->NextDouble() * 1e6);
    default: {
      std::string s;
      size_t len = rng->NextBelow(12);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng->NextBelow(26)));
      }
      return Value(std::move(s));
    }
  }
}

inline Expr RandomExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextBelow(3) == 0) {
    switch (rng->NextBelow(3)) {
      case 0:
        return Expr::Column(rng->NextBelow(6));
      case 1:
        return Expr::Literal(RandomValue(rng));
      default:
        return Expr::True();
    }
  }
  switch (rng->NextBelow(6)) {
    case 0:
      return Expr::Compare(
          static_cast<Expr::Kind>(
              static_cast<int>(Expr::Kind::kEq) + rng->NextBelow(6)),
          RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    case 1: {
      std::vector<Expr> kids;
      size_t n = 2 + rng->NextBelow(3);
      for (size_t i = 0; i < n; ++i) {
        kids.push_back(RandomExpr(rng, depth - 1));
      }
      return Expr::And(std::move(kids));
    }
    case 2: {
      std::vector<Expr> kids;
      size_t n = 2 + rng->NextBelow(3);
      for (size_t i = 0; i < n; ++i) {
        kids.push_back(RandomExpr(rng, depth - 1));
      }
      return Expr::Or(std::move(kids));
    }
    case 3:
      return Expr::Not(RandomExpr(rng, depth - 1));
    default:
      return Expr::Contains(RandomExpr(rng, depth - 1),
                            "needle" + std::to_string(rng->NextBelow(100)));
  }
}

inline QueryPlan RandomPlan(Rng* rng) {
  PlanBuilder b;
  b.IndexScan("ns" + std::to_string(rng->NextBelow(4)), RandomValue(rng),
              rng->NextBelow(3), rng->NextBelow(3));
  if (rng->NextBernoulli(0.5)) b.Filter(RandomExpr(rng, 3));
  if (rng->NextBernoulli(0.4)) {
    b.Project({static_cast<uint32_t>(rng->NextBelow(4)),
               static_cast<uint32_t>(rng->NextBelow(4))});
  }
  size_t joins = rng->NextBelow(3);
  for (size_t i = 0; i < joins; ++i) {
    b.RehashJoin("inv", RandomValue(rng), 0, 1 + rng->NextBelow(2));
  }
  if (rng->NextBernoulli(0.3)) {
    b.GroupAggregate(
        {0}, {AggregateSpec{AggregateSpec::kCount, 0},
              AggregateSpec{static_cast<AggregateSpec::Kind>(
                                rng->NextBelow(5)),
                            rng->NextBelow(3)}});
  }
  if (rng->NextBernoulli(0.4)) b.FetchJoin("item", rng->NextBelow(2));
  if (rng->NextBernoulli(0.5)) {
    b.TopK(rng->NextBelow(4), 1 + rng->NextBelow(20),
           rng->NextBernoulli(0.5));
  }
  if (rng->NextBernoulli(0.7)) b.Limit(1 + rng->NextBelow(500));
  return b.Build();
}

}  // namespace pierstack::pier
