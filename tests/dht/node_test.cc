#include "dht/node.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dht/builder.h"

namespace pierstack::dht {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

struct Deployment {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<DhtDeployment> dht;

  explicit Deployment(size_t n, OverlayKind kind = OverlayKind::kChord,
                      size_t replication = 1) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 99);
    DhtOptions opts;
    opts.overlay = kind;
    opts.replication = replication;
    dht = std::make_unique<DhtDeployment>(network.get(), n, opts, 1234);
  }
};

TEST(DhtNodeTest, PutThenGetFromAnyNode) {
  Deployment d(32);
  Key k = KeyForString("madonna");
  d.dht->node(3)->Put("inverted", k, Bytes("file1"));
  d.simulator.Run();

  std::vector<std::vector<uint8_t>> got;
  Status status = Status::Internal("callback not called");
  d.dht->node(17)->Get("inverted", k, [&](Status s, auto values) {
    status = s;
    got = std::move(values);
  });
  d.simulator.Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Bytes("file1"));
}

TEST(DhtNodeTest, ValueStoredAtExpectedOwner) {
  Deployment d(64);
  Key k = KeyForString("prayer");
  d.dht->node(0)->Put("inverted", k, Bytes("x"));
  d.simulator.Run();
  DhtNode* owner = d.dht->ExpectedOwner(k);
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->store().Get("inverted", k, 0).size(), 1u);
  // And nowhere else.
  for (size_t i = 0; i < d.dht->size(); ++i) {
    if (d.dht->node(i) == owner) continue;
    EXPECT_TRUE(d.dht->node(i)->store().Get("inverted", k, 0).empty());
  }
}

TEST(DhtNodeTest, MultipleValuesAccumulateUnderKey) {
  Deployment d(16);
  Key k = KeyForString("beatles");
  d.dht->node(1)->Put("inv", k, Bytes("a"));
  d.dht->node(2)->Put("inv", k, Bytes("b"));
  d.dht->node(3)->Put("inv", k, Bytes("c"));
  d.simulator.Run();
  std::vector<std::vector<uint8_t>> got;
  d.dht->node(9)->Get("inv", k, [&](Status s, auto values) {
    ASSERT_TRUE(s.ok());
    got = std::move(values);
  });
  d.simulator.Run();
  EXPECT_EQ(got.size(), 3u);
}

TEST(DhtNodeTest, GetMissingKeyReturnsEmpty) {
  Deployment d(16);
  bool called = false;
  d.dht->node(0)->Get("inv", KeyForString("nothing"), [&](Status s, auto v) {
    called = true;
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(v.empty());
  });
  d.simulator.Run();
  EXPECT_TRUE(called);
}

TEST(DhtNodeTest, PutAckArrives) {
  Deployment d(16);
  bool acked = false;
  d.dht->node(5)->Put("inv", KeyForString("ack"), Bytes("v"), 0,
                      [&](Status s) {
                        acked = true;
                        EXPECT_TRUE(s.ok());
                      });
  d.simulator.Run();
  EXPECT_TRUE(acked);
}

TEST(DhtNodeTest, RoutedMessageLandsAtExpectedOwner) {
  Deployment d(48);
  constexpr int kProbeApp = kAppUserBase + 3;
  Key k = KeyForString("lookup-key");
  std::vector<sim::HostId> landed;
  for (size_t i = 0; i < d.dht->size(); ++i) {
    d.dht->node(i)->SetUpcallHandler(kProbeApp, [&, i](const RouteMsg& m) {
      landed.push_back(d.dht->node(i)->host());
      EXPECT_LE(m.hops, 48u);
    });
  }
  d.dht->node(11)->Route(k, kProbeApp, nullptr, 0);
  d.simulator.Run();
  ASSERT_EQ(landed.size(), 1u);
  EXPECT_EQ(landed[0], d.dht->ExpectedOwner(k)->host());
}

TEST(DhtNodeTest, RouteHopsAreLogarithmic) {
  Deployment d(256);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    Key k = rng.Next();
    size_t start = static_cast<size_t>(rng.NextBelow(256));
    d.dht->node(start)->Get("ns", k, [](Status, auto) {});
  }
  d.simulator.Run();
  // mean hops should be around 0.5*log2(256) = 4.
  EXPECT_GT(d.dht->metrics().MeanHops(), 1.0);
  EXPECT_LT(d.dht->metrics().MeanHops(), 8.0);
  EXPECT_EQ(d.dht->metrics().routes_dropped, 0u);
}

TEST(DhtNodeTest, UserUpcallFiresAtOwner) {
  Deployment d(24);
  constexpr int kMyApp = kAppUserBase + 7;
  Key k = KeyForString("upcall");
  DhtNode* owner = d.dht->ExpectedOwner(k);
  int fired = 0;
  for (size_t i = 0; i < d.dht->size(); ++i) {
    d.dht->node(i)->SetUpcallHandler(kMyApp, [&, i](const RouteMsg& m) {
      ++fired;
      EXPECT_EQ(d.dht->node(i)->host(), owner->host());
      EXPECT_EQ(m.body<std::string>(), "hello");
      EXPECT_EQ(m.origin.host, d.dht->node(2)->host());
    });
  }
  d.dht->node(2)->Route(k, kMyApp, std::make_shared<const std::string>("hello"),
                        5);
  d.simulator.Run();
  EXPECT_EQ(fired, 1);
}

TEST(DhtNodeTest, DirectMessagesBypassRouting) {
  Deployment d(8);
  bool got = false;
  d.dht->node(6)->SetDirectHandler(
      [&](sim::HostId from, const sim::Message& msg) {
        got = true;
        EXPECT_EQ(from, d.dht->node(1)->host());
        EXPECT_EQ(msg.as<std::string>(), "direct");
      });
  d.dht->node(1)->SendDirect(
      d.dht->node(6)->host(),
      sim::Message::Make<std::string>(DhtNode::kDirectApp, "app.direct", 6,
                                      std::string("direct")));
  d.simulator.Run();
  EXPECT_TRUE(got);
  // Exactly one network message: no overlay hops.
  EXPECT_EQ(d.network->metrics().by_tag.at("app.direct").messages, 1u);
}

TEST(DhtNodeTest, ReplicationCopiesToSuccessors) {
  Deployment d(16, OverlayKind::kChord, /*replication=*/3);
  Key k = KeyForString("replicated");
  d.dht->node(0)->Put("inv", k, Bytes("v"));
  d.simulator.Run();
  int copies = 0;
  for (size_t i = 0; i < d.dht->size(); ++i) {
    copies += !d.dht->node(i)->store().Get("inv", k, 0).empty();
  }
  EXPECT_EQ(copies, 3);
}

TEST(DhtNodeTest, ExpiredValuesNotReturned) {
  Deployment d(8);
  Key k = KeyForString("soft-state");
  d.dht->node(0)->Put("inv", k, Bytes("v"), /*expiry=*/sim::kSecond);
  d.simulator.Run();
  // Advance past expiry, then Get.
  d.simulator.RunUntil(2 * sim::kSecond);
  std::vector<std::vector<uint8_t>> got;
  d.dht->node(4)->Get("inv", k, [&](Status s, auto values) {
    ASSERT_TRUE(s.ok());
    got = std::move(values);
  });
  d.simulator.Run();
  EXPECT_TRUE(got.empty());
}

TEST(DhtNodeTest, BambooOverlayServesPutGet) {
  Deployment d(48, OverlayKind::kBamboo);
  Key k = KeyForString("bamboo-key");
  d.dht->node(7)->Put("inv", k, Bytes("v"));
  d.simulator.Run();
  DhtNode* owner = d.dht->ExpectedOwner(k);
  EXPECT_EQ(owner->store().Get("inv", k, 0).size(), 1u);
  bool got = false;
  d.dht->node(33)->Get("inv", k, [&](Status s, auto values) {
    ASSERT_TRUE(s.ok());
    got = values.size() == 1;
  });
  d.simulator.Run();
  EXPECT_TRUE(got);
}

TEST(DhtNodeTest, BambooRoutesLogarithmically) {
  Deployment d(256, OverlayKind::kBamboo);
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    d.dht->node(static_cast<size_t>(rng.NextBelow(256)))
        ->Get("ns", rng.Next(), [](Status, auto) {});
  }
  d.simulator.Run();
  EXPECT_LT(d.dht->metrics().MeanHops(), 4.0);  // ~log16(256) = 2
  EXPECT_EQ(d.dht->metrics().routes_dropped, 0u);
}

TEST(DhtNodeTest, MetricsCountOperations) {
  Deployment d(8);
  d.dht->node(0)->Put("inv", 1, Bytes("a"));
  d.dht->node(0)->Get("inv", 1, [](Status, auto) {});
  d.simulator.Run();
  EXPECT_EQ(d.dht->metrics().puts, 1u);
  EXPECT_EQ(d.dht->metrics().gets, 1u);
  EXPECT_GE(d.dht->metrics().routes_delivered, 2u);
}

// Put/Get agreement must hold across overlay kinds and sizes.
struct PutGetParam {
  OverlayKind kind;
  size_t n;
};

class PutGetSweep : public ::testing::TestWithParam<PutGetParam> {};

TEST_P(PutGetSweep, EveryNodeCanReachEveryKey) {
  Deployment d(GetParam().n, GetParam().kind);
  Rng rng(7);
  // Publish 20 keys from random nodes; read each from 3 other random nodes.
  std::vector<Key> keys;
  for (int i = 0; i < 20; ++i) {
    Key k = rng.Next();
    keys.push_back(k);
    size_t src = static_cast<size_t>(rng.NextBelow(GetParam().n));
    d.dht->node(src)->Put("sweep", k, Bytes(std::to_string(i)));
  }
  d.simulator.Run();
  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    for (int r = 0; r < 3; ++r) {
      size_t reader = static_cast<size_t>(rng.NextBelow(GetParam().n));
      d.dht->node(reader)->Get("sweep", keys[static_cast<size_t>(i)],
                               [&, i](Status s, auto values) {
                                 ASSERT_TRUE(s.ok());
                                 ASSERT_EQ(values.size(), 1u);
                                 EXPECT_EQ(values[0],
                                           Bytes(std::to_string(i)));
                                 ++ok;
                               });
    }
  }
  d.simulator.Run();
  EXPECT_EQ(ok, 60);
}

INSTANTIATE_TEST_SUITE_P(
    Overlays, PutGetSweep,
    ::testing::Values(PutGetParam{OverlayKind::kChord, 4},
                      PutGetParam{OverlayKind::kChord, 33},
                      PutGetParam{OverlayKind::kChord, 100},
                      PutGetParam{OverlayKind::kBamboo, 4},
                      PutGetParam{OverlayKind::kBamboo, 33},
                      PutGetParam{OverlayKind::kBamboo, 100}));

}  // namespace
}  // namespace pierstack::dht
